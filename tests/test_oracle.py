"""The incidence oracle, the incremental span enumeration, the orbit
generator and the orbit walk, each checked against a reference: a slower
one kept here, or for the walk, the orbit and the incidence oracle.

`min_distance_pairwise` is the pairwise-rank oracle: one RREF of [U; V]
for every unordered pair of codewords.  `from_index_vectors` rebuilds
every vector of a span from its mixed-radix index.  `walk_orbit` steps
U <- rs(U P) by matrix product and RREF.  `matrix_order` (in the library)
counts ord(P) on P's image table; its repeated-multiplication reference
is in test_matspace.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbitcodes.gfq
import orbitcodes.matspace
import orbitcodes.orbitcode
import orbitcodes.polyring
from orbitcodes import (DomainError, ExtensionContext, FieldSpec, Mat,
                        Subspace, build_spread_start, companion_matrix,
                        conjugate_code, generate_orbit, grassmannian,
                        is_primitive, list_irreducibles, matrix_order,
                        min_distance_brute, min_distance_orbit, parse_matrix,
                        parse_poly, random_invertible, subspace_distance,
                        vector_from_index)
from orbitcodes.orbitcode import ORACLE_VECTOR_BUDGET, _walk_orbit

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = F2.extend(parse_poly(F2, "x^2+x+1"))
QUARTICS = ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]


def min_distance_pairwise(words) -> int:
    """Reference oracle: d_S(U, V) = 2 rank([U; V]) - dim U - dim V,
    minimized over every unordered pair of distinct codewords."""
    words = sorted(set(words))
    return min(subspace_distance(a, b)
               for i, a in enumerate(words) for b in words[i + 1:])


def from_index_vectors(u: Subspace) -> list:
    """Vector number i of u, for i = 1 .. q^k - 1, as sum_j c_j row_j with
    (c_0, ..., c_{k-1}) the mixed-radix digits of i, summed with field
    element operators and returned as element indices."""
    el = u.field.from_index
    out = []
    for i in range(1, u.field.order ** u.dim):
        vec = [u.field.zero()] * u.ambient
        for c, row in zip(vector_from_index(u.field, u.dim, i), u.mat.rows):
            vec = [v + el(c) * el(e) for v, e in zip(vec, row)]
        out.append(tuple(v.value for v in vec))
    return out


def walk_orbit(u: Subspace, p: Mat) -> list:
    """Reference orbit: the sorted words U P^i, one Mat product and RREF
    per step, until the start returns."""
    words = [u]
    v = Subspace(u.mat * p)
    while v != u:
        words.append(v)
        v = Subspace(v.mat * p)
    return sorted(words)


def distinct_orbits(starts, generator):
    """One code per orbit met by the starts."""
    seen, codes = set(), []
    for u in starts:
        if u in seen:
            continue
        code = generate_orbit(u, generator)
        seen.update(code.codewords)
        codes.append(code)
    return codes


@pytest.fixture
def counts(monkeypatch):
    """Every Counter the oracle builds, in order, as it left them."""
    built = []
    monkeypatch.setattr(orbitcodes.orbitcode, "Counter",
                        lambda *args: built.append(Counter(*args)) or built[-1])
    return built


def assert_oracles_agree(codes):
    checked = 0
    for code in codes:
        words = list(code)
        if len(words) > 1:
            assert min_distance_brute(code) == min_distance_pairwise(words), words
            checked += 1
    assert checked


class TestIncidenceOracle:
    @pytest.mark.parametrize("text", QUARTICS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_orbit_of_g_k4(self, text, k):
        P = companion_matrix(parse_poly(F2, text))
        assert_oracles_agree(distinct_orbits(grassmannian(F2, k, 4), P))

    def test_every_orbit_of_g25(self):
        P = companion_matrix(parse_poly(F2, "x^5+x^2+1"))
        codes = distinct_orbits(grassmannian(F2, 2, 5), P)
        assert sum(len(c) for c in codes) == 155
        assert_oracles_agree(codes)

    @pytest.mark.parametrize("text", ["x^4+x+2", "x^4+x^2+2"])
    def test_sampled_g24_over_gf3(self, text):
        rng = random.Random(3)
        P = companion_matrix(parse_poly(F3, text))
        starts = rng.sample(list(grassmannian(F3, 2, 4)), 6)
        assert_oracles_agree(distinct_orbits(starts, P))

    @pytest.mark.parametrize("text", ["x^3+x+[1]", "x^3+[2]"])
    def test_every_orbit_of_g23_over_f4(self, text):
        P = companion_matrix(parse_poly(F4, text))
        assert_oracles_agree(distinct_orbits(grassmannian(F4, 2, 3), P))

    def test_conjugated_generators(self):
        rng = random.Random(23)
        p64 = parse_poly(F2, "x^6+x+1")
        g = companion_matrix(p64)
        starts = [build_spread_start(2, 6, ExtensionContext.from_modulus(p64)),
                  Subspace(parse_matrix(F2, "100000\n011000")),
                  Subspace(parse_matrix(F2, "100010\n010000\n001000"))]
        for u in starts:
            v, h = conjugate_code(u, g, random_invertible(F2, 6, rng))
            assert_oracles_agree([generate_orbit(v, h)])

    @pytest.mark.parametrize("field,k,n,size", [
        (F2, 2, 5, 12), (F2, 3, 6, 10), (F3, 2, 4, 9), (F4, 2, 3, 6), (F2, 1, 4, 5)])
    def test_random_sets_of_subspaces(self, field, k, n, size):
        rng = random.Random(k * 100 + n)
        pool = list(grassmannian(field, k, n))
        for _ in range(8):
            words = rng.sample(pool, size)
            assert min_distance_brute(words) == min_distance_pairwise(words)

    def test_ambient_space_above_the_cap(self):
        # Vector indices of GF(2)^40 do not fit 4-byte array entries.
        rng = random.Random(40)
        words = [Subspace(Mat(F2, [[rng.randrange(2) for _ in range(40)] for _ in range(2)]))
                 for _ in range(6)]
        words.append(Subspace(Mat(F2, [words[0].mat.rows[0], [1] * 40])))
        assert min_distance_brute(words) == min_distance_pairwise(words) == 2

    def test_ambient_space_above_the_cap_nothing_shared(self):
        # The same list storage, through the exit where no vector has two holders.
        rng = random.Random(41)
        words = [Subspace(Mat(F2, [[rng.randrange(2) for _ in range(40)] for _ in range(2)]))
                 for _ in range(6)]
        assert min_distance_brute(words) == min_distance_pairwise(words) == 4

    @pytest.mark.parametrize("field,text,k", [
        (F2, "x^6+x+1", 2), (F2, "x^6+x+1", 3), (F2, "x^8+x^4+x^3+x^2+1", 2),
        (F2, "x^8+x^4+x^3+x^2+1", 4), (F3, "x^6+x+2", 2), (F3, "x^6+x+2", 3),
        (F4, "x^4+x^2+[2]*x+[3]", 2)])
    def test_spreads_share_no_vector(self, counts, field, text, k):
        f = parse_poly(field, text)
        code = generate_orbit(build_spread_start(k, f.degree, ExtensionContext.from_modulus(f)),
                              companion_matrix(f))
        assert len(code) == (field.order ** f.degree - 1) // (field.order ** k - 1)
        assert min_distance_brute(code) == min_distance_pairwise(code.codewords) == 2 * k
        # one set of the vectors shows that none has two holders, so no
        # holder count and no count per word is built
        assert counts == []

    def test_one_vector_held_by_three_words(self, counts):
        # <e1, e2>, <e1, e3> and <e1, e4> share e1 and nothing else; <e5, e6>
        # meets none of them, so every other vector has one holder.
        words = [Subspace(parse_matrix(F2, text))
                 for text in ("100000\n010000", "100000\n001000", "100000\n000100",
                              "000010\n000001")]
        assert min_distance_brute(words) == min_distance_pairwise(words) == 2
        assert sorted(counts[0].values()) == [1] * 9 + [3] and counts[0][1] == 3  # e1 has index 1
        # After the holder count, one count per word until a word shares
        # q^(k-1) - 1 = 1 vector with another: only <e5, e6> can come first.
        *passed, last = counts[1:]
        assert len(passed) <= 1 and not any(passed) and set(last.values()) == {1}

    def test_words_below_the_largest_share_are_all_counted(self, counts):
        # Three 3-dimensional words share only e1, one vector below the
        # q^(k-1) - 1 = 3 that would stop the scan, and a fourth meets none.
        words = [Subspace(parse_matrix(F2, text))
                 for text in ("1000000000\n0100000000\n0010000000",
                              "1000000000\n0001000000\n0000100000",
                              "1000000000\n0000010000\n0000001000",
                              "0000000100\n0000000010\n0000000001")]
        assert min_distance_brute(words) == min_distance_pairwise(words) == 4
        assert len(counts) == 1 + len(words)  # the holder count, then one per word

    def test_a_distance_two_orbit_stops_at_its_first_word(self, counts):
        # rs(100000; 011000) has all-distinct differences under x^6+x+1: 63
        # words at distance 2.  The group moves any pair at distance 2 to one
        # holding the first word scanned, so its count alone ends the scan.
        code = generate_orbit(Subspace(parse_matrix(F2, "100000\n011000")),
                              companion_matrix(parse_poly(F2, "x^6+x+1")))
        assert min_distance_brute(code) == min_distance_pairwise(code.codewords) == 2
        assert len(code) == 63 and len(counts) == 2  # the holder count and one word's

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_random_codes_match_the_pairwise_minimum(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4]))
        n = data.draw(st.integers(2, 5 if field is F2 else 3))
        k = data.draw(st.integers(1, n - 1))
        digit = st.integers(0, field.order - 1)
        matrix = st.lists(st.lists(digit, min_size=n, max_size=n), min_size=k, max_size=k)
        spans = [Subspace(Mat(field, rows))
                 for rows in data.draw(st.lists(matrix, min_size=2, max_size=8))]
        words = {w for w in spans if w.dim == k}
        assume(len(words) > 1)
        assert min_distance_brute(words) == min_distance_pairwise(words)

    def test_mixed_dimensions_raise(self):
        words = [Subspace(parse_matrix(F2, "1000")),
                 Subspace(parse_matrix(F2, "0100\n0010"))]
        with pytest.raises(DomainError, match="constant dimension"):
            min_distance_brute(words)

    def test_mixed_fields_raise(self):
        words = [Subspace(parse_matrix(F2, "100")), Subspace(parse_matrix(F3, "010"))]
        with pytest.raises(DomainError, match="ambient"):
            min_distance_brute(words)

    def test_vector_budget(self, monkeypatch):
        # 21 spread words of dimension 2 list 21 * 3 = 63 nonzero vectors
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(2, 6, ExtensionContext.from_modulus(p64))
        code = generate_orbit(u, companion_matrix(p64))
        spanner, calls = orbitcodes.orbitcode._spanner, []
        monkeypatch.setattr(orbitcodes.orbitcode, "_spanner",
                            lambda *args: calls.append(args) or spanner(*args))
        monkeypatch.setattr(orbitcodes.orbitcode, "ORACLE_VECTOR_BUDGET", 63)
        assert min_distance_brute(code) == 4
        assert calls == [(F2, 6)]  # the listing spans through this binding
        monkeypatch.setattr(orbitcodes.orbitcode, "ORACLE_VECTOR_BUDGET", 62)
        calls.clear()
        with pytest.raises(DomainError, match="list 63 vectors, above its budget of 62"):
            min_distance_brute(code)
        assert calls == []


@functools.cache
def irreducibles(field, n, primitive):
    """Monic irreducibles of degree n that are, or are not, primitive; all
    of them when a degree has none of the kind asked for."""
    every = list_irreducibles(field, n)
    return [f for f in every if is_primitive(f) == primitive] or every


def invariant_start(v, g):
    """The cyclic subspace <v, v g, v g^2, ...> of a nonzero v: g fixes it,
    so its orbit under g has one word."""
    rows, w = [], list(v)
    while True:
        rows.append(w)
        u = Subspace(Mat(g.field, rows))
        if u.dim < len(rows):
            return Subspace(Mat(g.field, rows[:-1]))
        w = list((Mat(g.field, [w]) * g).rows[0])


class TestWalkOracle:
    """_walk_orbit against the listed orbit and the incidence oracle."""

    @settings(deadline=None, max_examples=120)
    @given(data=st.data())
    def test_matches_the_orbit_and_the_incidence_oracle(self, data):
        # Sizes and entries come from a seeded rng, so that n and k spread
        # evenly over their ranges instead of crowding at the smallest.
        field = data.draw(st.sampled_from([F2, F3, F4]), label="field")
        kind = data.draw(st.sampled_from(["primitive", "nonprimitive", "random"]))
        fixed = data.draw(st.integers(0, 3), label="a fixed start if 0") == 0
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        n = rng.randint(2, {2: 10, 3: 6, 4: 5}[field.order])
        if kind == "random":
            p = random_invertible(field, n, rng)
        else:
            p = companion_matrix(rng.choice(irreducibles(field, n, kind == "primitive")))
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(rng.randint(1, n // 2))]
        rows[0][rng.randrange(n)] = rng.randrange(1, field.order)  # a nonzero first row
        u = invariant_start(rows[0], p) if fixed else Subspace(Mat(field, rows))
        assume(u.dim > 0)
        code = generate_orbit(u, p)
        assume(len(code) * (field.order ** u.dim - 1) <= ORACLE_VECTOR_BUDGET)
        size, distance = _walk_orbit(u, p)
        assert size == len(code)
        assert distance == (min_distance_brute(code) if size > 1 else None)

    @pytest.mark.parametrize("field,text,k", [
        (F2, "x^4+x^3+x^2+x+1", 1), (F2, "x^4+x^3+x^2+x+1", 2), (F2, "x^5+x^2+1", 2),
        (F3, "x^4+x+2", 2), (F4, "x^3+x+[1]", 1), (F4, "x^3+[2]", 2)])
    def test_every_orbit_of_a_grassmannian(self, field, text, k):
        P = companion_matrix(parse_poly(field, text))
        for code in distinct_orbits(grassmannian(field, k, P.nrows), P):
            expected = min_distance_brute(code) if len(code) > 1 else None
            assert _walk_orbit(code.start, P) == (len(code), expected), code.start

    def test_a_fixed_start_has_one_word(self):
        rng = random.Random(5)
        g = random_invertible(F3, 5, rng)
        u = invariant_start([1, 0, 2, 0, 1], g)
        assert 0 < u.dim and len(generate_orbit(u, g)) == 1
        assert _walk_orbit(u, g) == (1, None)

    @pytest.mark.parametrize("budget,reads", [(147, 63), (146, 60)])
    def test_stops_at_the_read_budget(self, monkeypatch, budget, reads):
        # 21 spread words of dimension 2: each shift reads 3 vectors and is
        # charged 3 + 4, so the walk closes with 147 and refuses with 146
        # after 20 shifts, without walking on to the orbit's end.
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(2, 6, ExtensionContext.from_modulus(p64))
        P = companion_matrix(p64)
        read = []

        class Counting(list):
            def __getitem__(self, x):
                read.append(x)
                return list.__getitem__(self, x)
        P._table = Counting(orbitcodes.matspace._image_table(P))
        monkeypatch.setattr(orbitcodes.orbitcode, "WALK_READ_BUDGET", budget)
        if budget == 147:
            assert _walk_orbit(u, P) == (21, 4)
        else:
            with pytest.raises(DomainError, match="more than 20 words: its walk would pass "
                                                  "its budget of 146 reads"):
                _walk_orbit(u, P)
        assert len(read) == reads

    def test_refuses_what_the_orbit_refuses(self):
        P = companion_matrix(parse_poly(F2, "x^4+x+1"))
        with pytest.raises(DomainError, match="dimension >= 1"):
            _walk_orbit(Subspace(Mat(F2, [[0, 0, 0, 0]])), P)
        with pytest.raises(DomainError, match="does not act"):
            _walk_orbit(Subspace(parse_matrix(F2, "100")), P)
        with pytest.raises(DomainError, match="matrix is singular"):
            _walk_orbit(Subspace(parse_matrix(F2, "1000")), Mat(F2, [[0] * 4] * 4))

    def test_min_distance_orbit_is_the_walk(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        code = generate_orbit(Subspace(parse_matrix(F2, "100000\n011000")), companion_matrix(p64))
        walks = []
        monkeypatch.setattr(orbitcodes.orbitcode, "_walk_orbit",
                            lambda u, p: walks.append(u) or _walk_orbit(u, p))
        assert min_distance_orbit(code) == min_distance_brute(code) == 2
        assert walks == [code.start]


class TestNonzeroVectors:
    @pytest.mark.parametrize("field,k,n,count", [
        (F2, 3, 5, None), (F2, 1, 4, None), (F2, 4, 4, None),
        (F3, 2, 4, 25), (F3, 3, 3, None), (F4, 2, 3, None), (F4, 1, 2, None)])
    def test_matches_the_from_index_construction(self, field, k, n, count):
        pool = list(grassmannian(field, k, n))
        if count is not None:
            pool = random.Random(n).sample(pool, count)
        for u in pool:
            vectors = list(u.nonzero_vectors())
            assert [vector_from_index(field, n, x) for x in vectors] == from_index_vectors(u)
            assert len(set(vectors)) == field.order ** k - 1


class TestOrbitEngine:
    """generate_orbit on vector indices against the Mat-product walk."""

    @pytest.mark.parametrize("field,text,k", [
        (F2, "x^6+x+1", 2), (F2, "x^6+x+1", 3), (F2, "x^4+x^3+x^2+x+1", 2),
        (F3, "x^4+x+2", 2), (F3, "x^3+2*x+1", 1), (F4, "x^3+x+[1]", 2), (F4, "x^3+[2]", 1)])
    def test_matches_the_product_walk(self, field, text, k):
        rng = random.Random(f"{field!r}:{text}:{k}")
        g = companion_matrix(parse_poly(field, text))
        n = g.nrows
        s = random_invertible(field, n, rng)
        shift = Mat(field, [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
        starts = rng.sample(list(grassmannian(field, k, n)), 3)
        for p in (g, s.inverse() * g * s, shift):
            for u in starts:
                code, reference = generate_orbit(u, p), walk_orbit(u, p)
                assert len(code) == len(reference), (u, p)
                assert list(code.codewords) == reference
                assert list(code) == reference and all(w in code for w in reference)

    def test_rref_and_products_do_not_grow_with_the_code(self, monkeypatch):
        calls = []
        for text in ("x^6+x+1", "x^8+x^4+x^3+x^2+1", "x^10+x^3+1"):
            f = parse_poly(F2, text)
            u = build_spread_start(2, f.degree, ExtensionContext.from_modulus(f))
            P = companion_matrix(f)
            counted = Counter()
            for name in ("rref", "__mul__"):
                def counting(*args, _op=getattr(Mat, name), _name=name):
                    counted[_name] += 1
                    return _op(*args)
                monkeypatch.setattr(Mat, name, counting)
            code = generate_orbit(u, P)
            assert len(code) == (2 ** f.degree - 1) // 3
            assert min_distance_brute(code) == 4
            monkeypatch.undo()
            calls.append(dict(counted))
        # 21, 85 and 341 words: the walk and the oracle never row-reduce
        # or multiply a Mat per codeword.
        assert calls[0] == calls[1] == calls[2], calls

    def test_refuses_above_the_cap_before_the_table(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(2, 6, ExtensionContext.from_modulus(p64))
        P = companion_matrix(p64)
        spans = []
        spanner = orbitcodes.matspace._spanner  # the table's, not U's
        monkeypatch.setattr(orbitcodes.matspace, "_spanner",
                            lambda *args: spans.append(args) or spanner(*args))
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 63)
        with pytest.raises(DomainError, match="cardinality 64 exceeds the desk-scale cap 63"):
            generate_orbit(u, P)
        assert spans == []
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 64)
        assert len(generate_orbit(u, P)) == 21 and len(spans) == 1

    def test_refuses_a_singular_generator_before_the_table(self, monkeypatch):
        u = Subspace(Mat(F2, [[1, 0, 0]]))
        spans = []
        spanner = orbitcodes.matspace._spanner
        monkeypatch.setattr(orbitcodes.matspace, "_spanner",
                            lambda *args: spans.append(args) or spanner(*args))
        singular = Mat(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # companion(x^3)
        with pytest.raises(DomainError, match="matrix is singular"):
            generate_orbit(u, singular)
        assert spans == []


class TestGeneratorOrder:
    def test_companions_of_irreducibles_up_to_degree_six(self):
        checked = 0
        for degree in range(1, 7):
            for f in list_irreducibles(F2, degree):
                if not f.coeffs[0]:
                    continue  # companion(x) is singular
                P = companion_matrix(f)
                u = Subspace(Mat(F2, [[1] + [0] * (degree - 1)]))
                assert generate_orbit(u, P).generator_order == matrix_order(P), f
                checked += 1
        assert checked == 22

    def test_random_conjugates(self):
        rng = random.Random(29)
        for text in ("x^6+x+1", "x^6+x^5+x^4+x^2+1", "x^4+x^3+x^2+x+1",
                     "x^5+x^2+1", "x^6+x^4+x^2+x+1"):
            f = parse_poly(F2, text)
            g = companion_matrix(f)
            s = random_invertible(F2, f.degree, rng)
            v, h = conjugate_code(Subspace(Mat(F2, [[1] + [0] * (f.degree - 1)])), g, s)
            assert generate_orbit(v, h).generator_order == matrix_order(h)

    def test_the_first_read_counts_the_order_once(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(3, 6, ExtensionContext.from_modulus(p64))
        P = companion_matrix(p64)
        calls = []
        monkeypatch.setattr(orbitcodes.orbitcode, "matrix_order",
                            lambda g: calls.append(g) or matrix_order(g))
        code = generate_orbit(u, P)
        assert calls == []
        assert code.generator_order == 63
        assert calls == [P]
        assert code.generator_order == 63 and calls == [P]

    def test_the_orbit_and_the_order_share_one_table(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(3, 6, ExtensionContext.from_modulus(p64))
        P = companion_matrix(p64)
        spanner = orbitcodes.matspace._spanner
        tables, spans, rrefs = [], [], []
        # matspace's binding builds P's table; orbitcode's spans U's rows
        monkeypatch.setattr(orbitcodes.matspace, "_spanner",
                            lambda *args: tables.append(args) or spanner(*args))
        monkeypatch.setattr(orbitcodes.orbitcode, "_spanner",
                            lambda *args: spans.append(args) or spanner(*args))
        code = generate_orbit(u, P)
        assert len(tables) == 1 and len(spans) == 1
        rref = Mat.rref
        monkeypatch.setattr(Mat, "rref", lambda m: rrefs.append(m) or rref(m))
        assert code.generator_order == 63
        assert len(generate_orbit(u, P)) == 9
        # neither the order nor a second orbit builds or checks P again
        assert len(tables) == 1 and rrefs == [] and len(spans) == 2

    def test_orbit_length_must_divide_the_order(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(3, 6, ExtensionContext.from_modulus(p64))
        monkeypatch.setattr(orbitcodes.orbitcode, "matrix_order", lambda g: 7)
        code = generate_orbit(u, companion_matrix(p64))
        assert len(code) == 9
        with pytest.raises(RuntimeError, match="orbit length 9 does not divide"):
            code.generator_order


class TestIndependence:
    """The oracle, the orbit generator and the walk use neither the
    extension field's dictionary nor the predictor; the oracle computes no
    rank and the orbit of a companion matrix never walks the group."""

    FORBIDDEN = ["__init__", "phi", "dlog", "exponent_profile", "orbit_partition"]

    def _count(self, monkeypatch, holder, name, calls):
        original = getattr(holder, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(holder, name, counted)

    def test_oracle_makes_no_rank_computation(self, monkeypatch):
        p = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        u = build_spread_start(2, 8, ExtensionContext.from_modulus(p))
        code = generate_orbit(u, companion_matrix(p))
        calls = dict.fromkeys(["rref", "subspace_distance", *self.FORBIDDEN], 0)
        self._count(monkeypatch, Mat, "rref", calls)
        self._count(monkeypatch, orbitcodes.matspace, "subspace_distance", calls)
        for name in self.FORBIDDEN:
            self._count(monkeypatch, ExtensionContext, name, calls)
        assert min_distance_brute(code) == 4
        assert set(calls.values()) == {0}, calls

    @pytest.mark.parametrize("text,rows", [
        ("x^8+x^4+x^3+x^2+1", "11000000\n00110000"), ("x^7+x+1", "1000000\n0100000\n0010000")])
    def test_oracle_never_reads_the_image_table(self, monkeypatch, text, rows):
        code = generate_orbit(Subspace(parse_matrix(F2, rows)),
                              companion_matrix(parse_poly(F2, text)))
        distance = min_distance_pairwise(code.codewords)

        def refuse(*_args):
            raise AssertionError("the oracle read P's image table")

        class Refusing:
            __getitem__ = __iter__ = __len__ = refuse
        for module in (orbitcodes.orbitcode, orbitcodes.matspace):
            monkeypatch.setattr(module, "_image_table", refuse)
        monkeypatch.setattr(code.generator, "_table", Refusing())
        assert min_distance_brute(code) == distance

    def test_walk_reads_no_field_and_makes_no_rank_computation(self, monkeypatch):
        p = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        u = Subspace(parse_matrix(F2, "10000000\n00110000\n00001001"))
        P = companion_matrix(p)
        expected = _walk_orbit(u, P)
        calls = dict.fromkeys(["rref", "subspace_distance", "matrix_order",
                               *self.FORBIDDEN], 0)
        self._count(monkeypatch, Mat, "rref", calls)
        self._count(monkeypatch, orbitcodes.matspace, "subspace_distance", calls)
        self._count(monkeypatch, orbitcodes.orbitcode, "matrix_order", calls)
        for name in self.FORBIDDEN:
            self._count(monkeypatch, ExtensionContext, name, calls)
        assert _walk_orbit(u, P) == expected
        assert set(calls.values()) == {0}, calls

    def test_orbit_of_a_companion_never_walks_the_group(self, monkeypatch):
        p = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        u = build_spread_start(2, 8, ExtensionContext.from_modulus(p))
        P = companion_matrix(p)
        calls = dict.fromkeys(["matrix_order", "__mul__", "char_poly", "order_of_polynomial",
                               "is_irreducible", *self.FORBIDDEN], 0)
        self._count(monkeypatch, orbitcodes.orbitcode, "matrix_order", calls)
        self._count(monkeypatch, Mat, "__mul__", calls)
        self._count(monkeypatch, orbitcodes.matspace, "char_poly", calls)
        for name in ("order_of_polynomial", "is_irreducible"):
            self._count(monkeypatch, orbitcodes.polyring, name, calls)
        for name in self.FORBIDDEN:
            self._count(monkeypatch, ExtensionContext, name, calls)
        code = generate_orbit(u, P)
        assert len(code) == 85
        assert set(calls.values()) == {0}, calls
        # The order, read later, is one table walk: no product, no
        # polynomial and no extension field.
        assert code.generator_order == 255
        assert calls.pop("matrix_order") == 1
        assert set(calls.values()) == {0}, calls
