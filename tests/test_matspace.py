import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitcodes.gfq
import orbitcodes.matspace
from orbitcodes import (DomainError, FieldSpec, Mat, ParseError, Poly, Subspace,
                        char_poly, companion_matrix, format_matrix,
                        gaussian_binomial, grassmannian, groups_conjugate,
                        intersection_dim, is_irreducible_matrix,
                        list_irreducibles, matrix_order, parse_matrix,
                        parse_matrix_blocks, parse_poly, random_invertible,
                        row_times_mat, subspace_apply, subspace_distance,
                        to_companion_similarity)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = F2.extend(parse_poly(F2, "x^2+x+1"))
F5, F101 = FieldSpec(5), FieldSpec(101)
F9 = F3.extend(parse_poly(F3, "x^2+1"))


def _order_by_multiplication(g: Mat) -> int:
    """Least m >= 1 with g^m = I, by repeated products: O(ord(g) n^3)."""
    ident = Mat.identity(g.field, g.nrows)
    power = g
    m = 1
    while power != ident:
        power = power * g
        m += 1
    return m


def _leibniz_char_poly(g: Mat):
    """det(xI - g) as the signed sum over all permutations."""
    field, n = g.field, g.nrows
    x, zero = Poly.x(field), Poly.zero(field)
    ent = [[(x if i == j else zero) - Poly(field, (g.rows[i][j],)) for j in range(n)]
           for i in range(n)]
    total = zero
    for perm in itertools.permutations(range(n)):
        term = Poly.one(field)
        for i, j in enumerate(perm):
            term = term * ent[i][j]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        total = total - term if inversions % 2 else total + term
    return total


class TestRref:
    def test_spread_start_rows(self):
        m = parse_matrix(F2, "100000\n000110\n111100")
        r, rank = m.rref()
        assert format_matrix(r) == "100000\n011010\n000110"
        assert rank == 3

    def test_identity_fixed(self):
        m = Mat.identity(F2, 3)
        r, rank = m.rref()
        assert r == m and rank == 3

    def test_zero_matrix(self):
        m = Mat(F2, [[0, 0, 0, 0], [0, 0, 0, 0]])
        r, rank = m.rref()
        assert r == m and rank == 0

    def test_idempotent_and_row_space_preserving(self):
        rng = random.Random(11)
        for _ in range(25):
            m = Mat(F3, [[rng.randrange(3) for _ in range(5)] for _ in range(3)])
            r, rank = m.rref()
            again, rank2 = r.rref()
            assert again == r and rank2 == rank
            assert m.stack(r).rank() == rank


class TestSubspace:
    def test_canonical_form(self):
        u = Subspace(parse_matrix(F2, "100000\n111000"))
        assert format_matrix(u.mat) == "100000\n011000"

    def test_duplicate_rows_collapse(self):
        u = Subspace(parse_matrix(F2, "11\n11"))
        assert u.dim == 1 and format_matrix(u.mat) == "11"

    def test_zero_subspace_representable(self):
        u = Subspace(Mat(F2, [[0, 0, 0]]))
        assert u.dim == 0 and u.mat is None
        assert list(u.nonzero_vectors()) == []

    def test_invariant_under_row_operations(self):
        rng = random.Random(5)
        base = Subspace(parse_matrix(F2, "100110\n010101\n001011"))
        for _ in range(20):
            t = random_invertible(F2, 3, rng)
            assert Subspace(t * base.mat) == base

    def test_nonzero_vector_count(self):
        u = Subspace(parse_matrix(F3, "100\n010"))
        assert len(list(u.nonzero_vectors())) == 3 ** 2 - 1

    def test_vectors_build_no_product_modulo_a_polynomial(self, monkeypatch):
        # Listing vectors adds digit by digit: no _mulmod closure is built.
        f4 = F2.extend(parse_poly(F2, "x^2+x+1"))
        calls = []
        mulmod = orbitcodes.gfq._mulmod
        monkeypatch.setattr(orbitcodes.gfq, "_mulmod",
                            lambda *args: calls.append(args) or mulmod(*args))
        for field, text in ((F2, "100110\n010101"), (F3, "120\n012"), (f4, "1230\n0132")):
            u = Subspace(parse_matrix(field, text))
            assert len(set(u.nonzero_vectors())) == field.order ** 2 - 1
        assert calls == []


class TestSubspaceComparison:
    """Equality, hashing and sort order are those of the key (field,
    ambient space, dimension, canonical rows)."""

    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def test_agree_with_the_canonical_key(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4]))
        n = data.draw(st.integers(1, 4))
        digit = st.integers(0, field.order - 1)
        spans = st.lists(st.lists(digit, min_size=n, max_size=n), min_size=1, max_size=n)
        words = [Subspace(Mat(field, rows)) for rows in data.draw(
            st.lists(spans, min_size=2, max_size=8))]

        def key(w):
            return (w.dim, w.mat.rows if w.dim else ())

        for u in words:
            for v in words:
                assert (u == v) == (key(u) == key(v)) == (not u != v)
                assert (u < v) == (key(u) < key(v))
                if u == v:
                    assert hash(u) == hash(v)
        assert [key(w) for w in sorted(words)] == sorted(map(key, words))
        assert len(set(words)) == len(set(map(key, words)))

    def test_field_and_ambient_space_are_part_of_the_key(self):
        f4_again = F2.extend(parse_poly(F2, "x^2+x+1"))
        assert f4_again is not F4
        u, v = Subspace(Mat(F4, [[1, 2]])), Subspace(Mat(f4_again, [[1, 2]]))
        assert u == v and hash(u) == hash(v)
        assert Subspace(Mat(F2, [[1, 0]])) != Subspace(Mat(F3, [[1, 0]]))
        zero2, zero3 = Subspace(Mat(F2, [[0, 0]])), Subspace(Mat(F2, [[0, 0, 0]]))
        assert zero2 == Subspace(Mat(F2, [[0, 0], [0, 0]])) and zero2 != zero3
        assert not zero2 < Subspace(Mat(F2, [[0, 0]])) and zero2 < Subspace(Mat(F2, [[0, 1]]))
        with pytest.raises(TypeError):
            zero2 < zero3


def _element_rref(field, rows):
    """Gauss-Jordan on FieldElement rows: the nonzero reduced rows as digits."""
    rows = [[field.from_index(e) for e in row] for row in rows]
    piv = 0
    for col in range(len(rows[0])):
        hit = next((r for r in range(piv, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        rows[piv] = [e / rows[piv][col] for e in rows[piv]]
        for r in range(len(rows)):
            if r != piv:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[piv])]
        piv += 1
    return [[e.value for e in row] for row in rows[:piv]]


def _index(field, digits):
    return sum(d * field.order ** j for j, d in enumerate(digits))


@st.composite
def spanning_rows(draw):
    """(field, n, rows): digit rows over GF(2) up to n = 24 (past 16 bits),
    GF(3) up to n = 12 (three-block adds), F_4 up to n = 8, or GF(5), F_9 or
    GF(101) up to n = 4, often with a zero row or a repeated row appended."""
    field = draw(st.sampled_from([F2, F3, F4, F5, F9, F101]))
    n = draw(st.integers(1, {F2: 24, F3: 12, F4: 8}.get(field, 4)))
    rows = draw(st.lists(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    extra = draw(st.sampled_from(["none", "zero", "repeat"]))
    if extra == "zero":
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    elif extra == "repeat":
        rows.append(rows[0])
    return field, n, rows


class TestCanonicalRowsOnIndices:
    """matspace._echelon reduces vector indices: over GF(2) by XOR on bits,
    elsewhere by _digit_ops' block-table (or, above the table budget,
    digit-wise) add and scalar products on whole rows."""

    @settings(deadline=None, max_examples=200)
    @given(spanning_rows())
    @example((F2, 24, [[1] * 24, [0] * 23 + [1], [0] * 24, [1] * 23 + [0]]))
    def test_matches_gauss_jordan_on_elements(self, drawn):
        field, n, rows = drawn
        got = orbitcodes.matspace._echelon(field, n, [_index(field, r) for r in rows])
        assert list(got) == [_index(field, r) for r in _element_rref(field, rows)]
        form, rank = Mat(field, rows).rref()
        assert rank == len(got) == Mat(field, rows).rank()
        assert [_index(field, r) for r in form.rows[:rank]] == list(got)
        assert all(not any(r) for r in form.rows[rank:])
        u = Subspace(Mat(field, rows))
        assert u.basis == got and u.dim == rank
        assert u.mat == (Mat(field, form.rows[:rank]) if rank else None)

    def test_gf2_pivot_is_the_lowest_bit(self):
        # column j is bit j: 0110 is index 6, pivot bit 1; 1001 is 9, pivot bit 0
        assert orbitcodes.matspace._echelon(F2, 4, [6, 9, 15]) == (9, 6)
        assert orbitcodes.matspace._echelon(F2, 4, [0, 0]) == ()


def _reference_span(field, n, rows):
    """sum_j c_j rows[j] for every c, c_0 fastest, one entry at a time: the
    multiples c r are taken digit by digit on FieldElements, and so are the
    sums over an odd characteristic; in characteristic 2 two vectors add
    by XOR of their indices (a million entries digit by digit take 10 s)."""
    Q = field.order

    def elements(r):
        return [field.from_index(r // Q ** i % Q) for i in range(n)]

    def index(digits):
        return sum(d.value * Q ** i for i, d in enumerate(digits))

    def times(c, r):
        return index(field.from_index(c) * d for d in elements(r))

    def add(u, v):
        if field.p == 2:
            return u ^ v
        return index(a + b for a, b in zip(elements(u), elements(v)))

    out = [0]
    for r in rows:
        out += [add(v, m) for m in [times(c, r) for c in range(1, Q)] for v in out]
    return out


def _check_spans(field, n, columns):
    """spans of the columns (column j holds row j of every set) against
    the reference span of each set."""
    _, spans = orbitcodes.matspace._spanner(field, n)
    sets = [_reference_span(field, n, rows) for rows in zip(*columns)]
    assert [list(block) for block in spans(columns)] == [list(b) for b in zip(*sets)]


@st.composite
def char2_rows(draw):
    """(field, n, rows) over GF(2) up to n = 14 or F_4 up to n = 7: spans of
    1 to 16384 entries, across _WORD_CROSSOVER and _TILE, with zero and
    repeated rows."""
    field = draw(st.sampled_from([F2, F4]))
    n = draw(st.integers(1, 14 if field is F2 else 7))
    vector = st.one_of(st.just(0), st.integers(0, field.order ** n - 1))
    return field, n, draw(st.lists(vector, max_size=n))


class TestWordParallelSpans:
    """In characteristic 2 within the cap, span and spans add whole tiles of
    4-byte entries as ints once a span reaches _WORD_CROSSOVER entries or a
    code as many words; the lists must be those of adding entry by entry."""

    @settings(deadline=None, max_examples=80)
    @given(char2_rows())
    @example((F2, 14, [1 << i for i in range(14)]))
    @example((F4, 7, [4 ** i for i in range(7)]))
    @example((F2, 5, [0, 3, 0, 3, 31]))
    def test_span_matches_the_reference(self, drawn):
        field, n, rows = drawn
        span, _ = orbitcodes.matspace._spanner(field, n)
        assert list(span(rows)) == _reference_span(field, n, rows)

    def test_a_table_of_many_tiles(self):
        # GF(2)^17: 2^17 entries, 32 tiles; the first 12 rows fill one tile.
        p = companion_matrix(parse_poly(F2, "x^17+x^3+1"))
        assert orbitcodes.matspace._TILE < 2 ** 17
        table = orbitcodes.matspace._image_table(p)
        rows = list(p.vectors)
        reference = [0]
        for r in rows:
            reference += [v ^ r for v in reference]
        assert list(table) == reference

    def test_a_span_that_grows_past_one_tile_in_one_row(self):
        # Over F_32 the span so far grows 1024 -> 32768 entries in one row,
        # past _TILE, and the fourth row then adds tile by tile.
        f32 = F2.extend(parse_poly(F2, "x^5+x^2+1"))
        rows = [1, 32 ** 2 + 3, 7 * 32 ** 3 + 5, 32 ** 4 - 1]
        span, _ = orbitcodes.matspace._spanner(f32, 4)
        assert 32 ** 2 < orbitcodes.matspace._TILE < 32 ** 3
        assert list(span(rows)) == _reference_span(f32, 4, rows)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_spans_match_the_reference(self, data):
        field = data.draw(st.sampled_from([F2, F4]))
        n = data.draw(st.integers(1, 12 if field is F2 else 6))
        k = data.draw(st.integers(1, 8 if field is F2 else 4))
        m = data.draw(st.integers(1, 40))
        vector = st.one_of(st.just(0), st.integers(0, field.order ** n - 1))
        columns = [tuple(data.draw(st.lists(vector, min_size=m, max_size=m)))
                   for _ in range(k)]
        _check_spans(field, n, columns)

    def test_spans_across_a_tile_boundary(self):
        rng = random.Random(12)
        m = orbitcodes.matspace._TILE + 3
        _check_spans(F2, 12, [tuple(rng.randrange(4096) for _ in range(m))
                                  for _ in range(2)])

    def test_a_gf2_table_adds_no_entry_one_by_one(self, monkeypatch):
        added = []
        digit_ops = orbitcodes.matspace._digit_ops

        def counting(field, d):
            add, *rest = digit_ops(field, d)
            return (lambda a, b: added.append(a) or add(a, b), *rest)

        monkeypatch.setattr(orbitcodes.matspace, "_digit_ops", counting)
        spanner = orbitcodes.matspace._spanner
        spanner.cache_clear()  # spanners built from here on count their adds
        try:
            p = companion_matrix(parse_poly(F2, "x^12+x^6+x^4+x+1"))
            table = orbitcodes.matspace._image_table(p)
            span, _ = spanner(F2, 12)
            assert added == [] and len(table) == 4096
            assert list(span([3, 5])) == [0, 3, 5, 6] and len(added) == 3  # below the crossover
        finally:
            spanner.cache_clear()


@st.composite
def odd_rows(draw, most=3):
    """(field, n, rows) over GF(3), GF(5) or F_9, n up to three blocks of
    their add tables (_block_digits: 4 digits a block over GF(3), 2 over
    the others), at most most rows, with zero and repeated rows."""
    field = draw(st.sampled_from([F3, F5, F9]))
    n = draw(st.integers(1, 9 if field is F3 else 5))
    vector = st.one_of(st.just(0), st.integers(0, field.order ** n - 1))
    return field, n, draw(st.lists(vector, max_size=most))


class TestElementwiseSpans:
    """Over an odd characteristic span and spans add entry by entry through
    _digit_ops' block tables, in 4-byte arrays within the cap and in lists
    above it; the lists must be those of adding digit by digit."""

    @settings(deadline=None, max_examples=40)
    @given(odd_rows())
    def test_span_matches_the_reference(self, drawn):
        field, n, rows = drawn
        span, _ = orbitcodes.matspace._spanner(field, n)
        assert list(span(rows)) == _reference_span(field, n, rows)

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_spans_match_the_reference(self, data):
        field, n, first = data.draw(odd_rows(most=2).filter(lambda drawn: drawn[2]))
        m = data.draw(st.integers(1, 6))
        vector = st.one_of(st.just(0), st.integers(0, field.order ** n - 1))
        columns = [(r,) + tuple(data.draw(st.lists(vector, min_size=m - 1, max_size=m - 1)))
                   for r in first]
        _check_spans(field, n, columns)

    def test_a_list_store_above_the_cap(self):
        # GF(3)^16 has 3^16 > 2^24 vectors: its spans are lists of any int.
        assert 3 ** 16 > orbitcodes.gfq.DESK_SCALE_CAP
        rows = [1, 3 ** 15 + 2 * 3 ** 7, 3 ** 16 - 1]
        span, spans = orbitcodes.matspace._spanner(F3, 16)
        assert type(span(rows)) is list and span(rows) == _reference_span(F3, 16, rows)
        assert all(type(block) is list for block in spans([(r, 5) for r in rows]))
        _check_spans(F3, 16, [(r, 5 * j) for j, r in enumerate(rows)])


class TestMetric:
    def test_distance_to_self_is_zero(self):
        u = Subspace(parse_matrix(F2, "1000\n0100"))
        assert subspace_distance(u, u) == 0

    def test_half_overlapping_planes(self):
        # span{e1,e2} and span{e1,e3} in F_2^4 share the line span{e1}
        u = Subspace(parse_matrix(F2, "1000\n0100"))
        v = Subspace(parse_matrix(F2, "1000\n0010"))
        assert intersection_dim(u, v) == 1
        assert subspace_distance(u, v) == 2

    def test_intersection_with_self(self):
        u = Subspace(parse_matrix(F2, "1000\n0100"))
        assert intersection_dim(u, u) == 2

    def test_ambient_mismatch(self):
        u = Subspace(parse_matrix(F2, "100"))
        v = Subspace(parse_matrix(F2, "1000"))
        with pytest.raises(DomainError, match="ambient"):
            subspace_distance(u, v)

    def test_metric_axioms_exhaustive_g24(self):
        subs = list(grassmannian(F2, 2, 4))
        assert len(subs) == 35
        dist = [[subspace_distance(a, b) for b in subs] for a in subs]
        for i, a in enumerate(subs):
            for j, b in enumerate(subs):
                assert dist[i][j] == dist[j][i]
                assert (dist[i][j] == 0) == (a == b)
                assert dist[i][j] == 2 * (2 - intersection_dim(a, b))
        n = len(subs)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dist[i][k] <= dist[i][j] + dist[j][k]

    def test_distance_invariant_under_action(self):
        rng = random.Random(17)
        subs = list(grassmannian(F2, 2, 4))
        for _ in range(10):
            a = random_invertible(F2, 4, rng)
            u = rng.choice(subs)
            v = rng.choice(subs)
            assert (subspace_distance(subspace_apply(u, a), subspace_apply(v, a))
                    == subspace_distance(u, v))


class TestApply:
    def test_identity_action(self):
        u = Subspace(parse_matrix(F2, "1010\n0101"))
        assert subspace_apply(u, Mat.identity(F2, 4)) == u

    def test_group_action_inverse(self):
        rng = random.Random(3)
        u = Subspace(parse_matrix(F2, "1010\n0101"))
        a = random_invertible(F2, 4, rng)
        assert subspace_apply(subspace_apply(u, a), a.inverse()) == u

    def test_singular_rejected(self):
        u = Subspace(parse_matrix(F2, "1010\n0101"))
        with pytest.raises(DomainError, match="singular"):
            subspace_apply(u, Mat(F2, [[1, 0, 0, 0]] * 4))

    def test_spread_start_moves_to_disjoint_codeword(self):
        # first orbit step of the 3-dim spread: a distinct word at distance 6
        p = parse_poly(F2, "x^6+x+1")
        u = Subspace(parse_matrix(F2, "100000\n011010\n000110"))
        v = subspace_apply(u, companion_matrix(p))
        assert v != u and subspace_distance(u, v) == 6


class TestMatrixBasics:
    def test_inverse_round_trip(self):
        rng = random.Random(23)
        for field, n in ((F2, 4), (F3, 3)):
            m = random_invertible(field, n, rng)
            assert m * m.inverse() == Mat.identity(field, n)

    def test_singular_inverse_rejected(self):
        with pytest.raises(DomainError, match="singular"):
            Mat(F2, [[1, 1], [1, 1]]).inverse()

    @pytest.mark.parametrize("field", [F2, F3, F4], ids=["GF2", "GF3", "F4"])
    def test_powers_are_repeated_products(self, field):
        # g ** e against e products of g, or -e products of its inverse.
        g = random_invertible(field, 4, random.Random(field.order))
        ident, inv = Mat.identity(field, 4), g.inverse()
        for e in range(-3, 7):
            want = ident
            for _ in range(abs(e)):
                want = want * (g if e > 0 else inv)
            assert g ** e == want
        assert g ** 0 == ident and g ** -2 == inv ** 2

    def test_powers_of_a_singular_matrix(self):
        s = Mat(F3, [[1, 2], [2, 1]])  # the second row is twice the first
        assert s ** 0 == Mat.identity(F3, 2) and s ** 3 == s * s * s
        with pytest.raises(DomainError, match="matrix is singular"):
            s ** -1

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="multiply"):
            Mat(F2, [[1, 0]]) * Mat(F2, [[1, 0]])

    def test_row_times_mat(self):
        p = companion_matrix(parse_poly(F2, "x^4+x+1"))
        v = (F2.one(), F2.zero(), F2.zero(), F2.zero())
        assert row_times_mat(v, p) == tuple(p.rows[0])

    def test_row_times_mat_takes_indices_as_mat_does(self):
        p = companion_matrix(parse_poly(F2, "x^4+x+1"))
        assert row_times_mat((1, 0, 0, 0), p) == p.rows[0] == (0, 1, 0, 0)
        with pytest.raises(DomainError):
            row_times_mat((2, 0, 0, 0), p)
        with pytest.raises(DomainError):
            row_times_mat((F3.one(), 0, 0, 0), p)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_row_times_mat_is_the_one_row_product(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4, F9]))
        nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        digit = st.integers(0, field.order - 1)
        m = Mat(field, data.draw(st.lists(st.lists(digit, min_size=ncols, max_size=ncols),
                                          min_size=nrows, max_size=nrows)))
        v = data.draw(st.lists(digit, min_size=nrows, max_size=nrows))
        assert row_times_mat(v, m) == (Mat(field, [v]) * m).rows[0]

    @pytest.mark.parametrize("field,text", [(F2, "1001\n0110"), (F3, "1020\n0112")],
                             ids=["GF2", "GF3"])
    def test_text_to_subspace_and_back_expands_no_digits(self, monkeypatch, field, text):
        # Rows stay vector indices from the text to the canonical basis and
        # back; only the text format itself writes digits, one call per row
        # over an odd q and none over GF(2), whose rows print as bits.
        calls = []
        digits = orbitcodes.matspace._digits
        monkeypatch.setattr(orbitcodes.matspace, "_digits",
                            lambda *args: calls.append(args) or digits(*args))
        u = Subspace(parse_matrix(field, text))
        assert calls == []
        assert format_matrix(u.mat) == text
        assert len(calls) == (0 if field is F2 else u.dim)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_derived_matrices_hold_indices_in_range(self, data):
        # rref, products, stacks, inverses and subspaces keep their rows
        # without coercing them again: they must be what Mat would store.
        field = data.draw(st.sampled_from([F2, F3, F4]))
        n = data.draw(st.integers(1, 4))
        digit = st.integers(0, field.order - 1)
        square = st.lists(st.lists(digit, min_size=n, max_size=n), min_size=n, max_size=n)
        a, b = Mat(field, data.draw(square)), Mat(field, data.draw(square))
        derived = [a.rref()[0], a * b, a.stack(b)]
        if a.rank() == n:
            derived.append(a.inverse())
        if Subspace(a).dim:
            derived.append(Subspace(a).mat)
        for m in derived:
            assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
            assert all(type(e) is int and 0 <= e < field.order for r in m.rows for e in r)
            assert (m.nrows, m.ncols) == (len(m.rows), len(m.rows[0]))
            assert Mat(field, m.rows) == m

    def test_entries_are_indices_in_range(self):
        assert Mat(F3, [[F3.from_index(2), 1]]).rows == ((2, 1),)
        for bad in (3, -1, F2.one(), "1", None):
            with pytest.raises(DomainError):
                Mat(F3, [[bad, 0]])


class TestPivotsOnIndices:
    @pytest.mark.parametrize("field", [F3, F4], ids=["GF3", "F4"])
    def test_no_element_power_in_rref_inverse_or_char_poly(self, element_powers, field):
        rng = random.Random(field.order)
        mats = [Mat(field, [[rng.randrange(field.order) for _ in range(5)] for _ in range(5)])
                for _ in range(20)]

        def reduce_all():
            for m in mats:
                Subspace(m)
                char_poly(m)
                if m.rank() == 5:
                    m.inverse()

        assert element_powers(reduce_all) == {}


class TestMatrixOrder:
    def test_order_five(self):
        p = companion_matrix(parse_poly(F2, "x^4+x^3+x^2+x+1"))
        assert matrix_order(p) == 5

    def test_identity_order_one(self):
        assert matrix_order(Mat.identity(F2, 3)) == 1

    def test_primitive_order(self):
        p = companion_matrix(parse_poly(F2, "x^6+x+1"))
        assert matrix_order(p) == 63

    def test_singular_rejected(self):
        with pytest.raises(DomainError, match="singular"):
            matrix_order(Mat(F2, [[0, 0], [0, 0]]))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 10)
        spans = []
        spanner = orbitcodes.matspace._spanner
        monkeypatch.setattr(orbitcodes.matspace, "_spanner",
                            lambda *args: spans.append(args) or spanner(*args))
        p = companion_matrix(parse_poly(F2, "x^4+x+1"))
        with pytest.raises(DomainError,
                           match="field cardinality 16 exceeds the desk-scale cap 10"):
            matrix_order(p)
        assert spans == []
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 16)
        assert matrix_order(p) == 15 and len(spans) == 1

    def test_multiplies_no_matrices(self, monkeypatch):
        def no_product(*args):
            raise AssertionError("matrix product")
        monkeypatch.setattr(Mat, "__mul__", no_product)
        assert matrix_order(companion_matrix(parse_poly(F2, "x^10+x^3+1"))) == 1023

    @pytest.mark.parametrize("field,n", [(F2, 3), (F3, 2)], ids=["GL(3,2)", "GL(2,3)"])
    def test_every_element_of_a_small_group(self, field, n):
        checked = 0
        for entries in itertools.product(range(field.order), repeat=n * n):
            g = Mat(field, [entries[i * n:(i + 1) * n] for i in range(n)])
            if g.rank() == n:
                assert matrix_order(g) == _order_by_multiplication(g), g.rows
                checked += 1
        assert checked == {2: 168, 3: 48}[field.order]

    @pytest.mark.parametrize("field,n", [(F3, 4), (F4, 3)], ids=["GF(3)^4", "F4^3"])
    def test_random_invertible_matrices(self, field, n):
        rng = random.Random(13)
        for _ in range(50):
            g = random_invertible(field, n, rng)
            assert matrix_order(g) == _order_by_multiplication(g), g.rows

    def test_non_cyclic_and_reducible_matrices(self):
        c3, c5 = (companion_matrix(parse_poly(F2, f)) for f in ("x^2+x+1", "x^4+x^3+x^2+x+1"))
        cases = [(Mat.identity(F2, 4), 1),
                 (Mat(F3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]), 2),
                 (Mat(F2, [r + (0,) * 4 for r in c3.rows] + [(0, 0) + r for r in c5.rows]), 15)]
        for g, expected in cases:
            assert matrix_order(g) == _order_by_multiplication(g) == expected, g.rows
        for perm in itertools.permutations(range(4)):
            g = Mat(F3, [[int(j == perm[i]) for j in range(4)] for i in range(4)])
            assert matrix_order(g) == _order_by_multiplication(g), perm

    def test_matches_polynomial_order(self):
        from orbitcodes import order_of_polynomial
        for field, max_deg in ((F2, 6), (F3, 3)):
            for n in range(1, max_deg + 1):
                for f in list_irreducibles(field, n):
                    if not f.coeffs[0]:
                        continue  # f = x has a singular companion matrix
                    assert matrix_order(companion_matrix(f)) == order_of_polynomial(f)

    def test_subgroup_order_law(self):
        for text in ("x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"):
            g = companion_matrix(parse_poly(F2, text))
            m = matrix_order(g)
            for ell in range(1, m):
                assert matrix_order(g ** ell) == m // math.gcd(ell, m)


class TestCharPoly:
    def test_identity(self):
        assert char_poly(Mat.identity(F2, 2)) == parse_poly(F2, "x^2+1")

    def test_companion_round_trip(self):
        f = parse_poly(F2, "x^4+x+1")
        assert char_poly(companion_matrix(f)) == f

    def test_similarity_invariance(self):
        rng = random.Random(29)
        g = companion_matrix(parse_poly(F3, "x^3+2*x+1"))
        for _ in range(10):
            s = random_invertible(F3, 3, rng)
            assert char_poly(s * g * s.inverse()) == char_poly(g)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            char_poly(Mat(F2, [[1, 0, 1]]))

    @pytest.mark.parametrize("field", [F2, F3, F2.extend(parse_poly(F2, "x^2+x+1"))],
                             ids=["F2", "F3", "F4"])
    def test_matches_the_leibniz_expansion(self, field):
        # sparse draws need row swaps and leave zero subdiagonal entries
        rng = random.Random(41)
        for n in range(1, 6):
            for _ in range(12):
                density = rng.random()
                g = Mat(field, [[rng.randrange(field.order) if rng.random() < density else 0
                                 for _ in range(n)] for _ in range(n)])
                assert char_poly(g) == _leibniz_char_poly(g), g.rows


class TestIrreducibleMatrices:
    def test_companion_of_irreducible(self):
        assert is_irreducible_matrix(companion_matrix(parse_poly(F2, "x^2+x+1")))
        assert is_irreducible_matrix(companion_matrix(parse_poly(F2, "x^4+x^3+1")))

    def test_identity_is_reducible(self):
        assert not is_irreducible_matrix(Mat.identity(F2, 2))

    def test_singular_rejected(self):
        with pytest.raises(DomainError, match="singular"):
            is_irreducible_matrix(Mat(F2, [[1, 1], [1, 1]]))

    def test_companion_similarity_of_companion_is_identity(self):
        g = companion_matrix(parse_poly(F2, "x^4+x+1"))
        assert to_companion_similarity(g) == Mat.identity(F2, 4)

    def test_companion_similarity_round_trip(self):
        rng = random.Random(31)
        f = parse_poly(F2, "x^4+x+1")
        c = companion_matrix(f)
        for _ in range(5):
            s0 = random_invertible(F2, 4, rng)
            g = s0 * c * s0.inverse()
            s = to_companion_similarity(g)
            assert s * g * s.inverse() == c

    def test_reducible_rejected(self):
        with pytest.raises(DomainError, match="reducible"):
            to_companion_similarity(Mat.identity(F2, 3))


class TestGroupsConjugate:
    def test_same_order_conjugate(self):
        p1 = parse_poly(F2, "x^4+x+1")
        p2 = parse_poly(F2, "x^4+x^3+1")
        p3 = parse_poly(F2, "x^4+x^3+x^2+x+1")
        assert groups_conjugate(p1, p2) is True
        assert groups_conjugate(p1, p3) is False
        assert groups_conjugate(p1, p1) is True

    def test_degree_mismatch(self):
        with pytest.raises(DomainError, match="degree"):
            groups_conjugate(parse_poly(F2, "x^2+x+1"), parse_poly(F2, "x^4+x+1"))

    def test_reducible_rejected(self):
        with pytest.raises(DomainError, match="irreducible"):
            groups_conjugate(parse_poly(F2, "x^2+1"), parse_poly(F2, "x^2+x+1"))


class TestGrassmannian:
    @pytest.mark.parametrize("field,k,n", [(F2, 2, 4), (F2, 1, 4), (F3, 1, 3),
                                           (F2, 3, 6)])
    def test_counts(self, field, k, n):
        subs = list(grassmannian(field, k, n))
        assert len(subs) == gaussian_binomial(n, k, field.order)
        assert len(set(subs)) == len(subs)
        assert all(u.dim == k for u in subs)

    def test_bad_dimensions(self):
        with pytest.raises(DomainError):
            list(grassmannian(F2, 0, 4))
        with pytest.raises(DomainError):
            list(grassmannian(F2, 5, 4))


class TestTextFormat:
    def test_round_trip(self):
        m = parse_matrix(F3, "2101\n0012")
        assert parse_matrix(F3, format_matrix(m)) == m

    def test_blocks(self):
        text = "10\n01\n\n11\n01\n"
        blocks = parse_matrix_blocks(F2, text)
        assert len(blocks) == 2 and blocks[0] == Mat.identity(F2, 2)

    def test_bad_digit(self):
        with pytest.raises(ParseError, match="digit"):
            parse_matrix(F2, "102")

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="length"):
            parse_matrix(F2, "10\n011")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_matrix(F2, "  \n ")

    def test_a_second_block_is_refused(self):
        with pytest.raises(ParseError, match="^expected a single matrix block, found 2$"):
            parse_matrix(F2, "10\n01\n\n11\n")

    @pytest.mark.parametrize("text,ch", [("1-0", "-"), ("10\n0 1", " "), ("1_", "_")])
    def test_a_character_outside_the_digits_is_refused(self, text, ch):
        with pytest.raises(ParseError, match=f"^invalid matrix digit '{ch}'$"):
            parse_matrix(F2, text)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_rref_is_canonical_for_row_equivalent_matrices(data):
    """Oracle for canonicality: row-equivalent inputs share one rref."""
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=5, max_size=5),
        min_size=2, max_size=3))
    m = Mat(F2, rows)
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
    t = random_invertible(F2, m.nrows, random.Random(seed))
    assert (t * m).rref()[0] == m.rref()[0]
