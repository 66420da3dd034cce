"""The incidence oracle, the incremental span enumeration and the orbit
generator, each checked against a slower reference kept here.

`min_distance_pairwise` is the pairwise-rank oracle: one RREF of [U; V]
for every unordered pair of codewords.  `from_index_vectors` rebuilds
every vector of a span from its mixed-radix index.  `matrix_order` (in
the library) finds ord(P) by repeated multiplication.
"""

import random

import pytest

import orbitcodes.orbitcode
import orbitcodes.polyring
from orbitcodes import (DomainError, ExtensionContext, FieldSpec, Mat,
                        Subspace, build_spread_start, companion_matrix,
                        conjugate_code, generate_orbit, grassmannian,
                        list_irreducibles, matrix_order, min_distance_brute,
                        parse_matrix, parse_poly, random_invertible,
                        subspace_distance, vector_from_index)

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
        starts = [build_spread_start(2, 6, p64), Subspace(parse_matrix(F2, "100000\n011000")),
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

    def test_mixed_dimensions_raise(self):
        words = [Subspace(parse_matrix(F2, "1000")),
                 Subspace(parse_matrix(F2, "0100\n0010"))]
        with pytest.raises(DomainError, match="constant dimension"):
            min_distance_brute(words)

    def test_mixed_fields_raise(self):
        words = [Subspace(parse_matrix(F2, "100")), Subspace(parse_matrix(F3, "010"))]
        with pytest.raises(DomainError, match="ambient"):
            min_distance_brute(words)


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
            assert vectors == from_index_vectors(u)
            assert len(set(vectors)) == field.order ** k - 1


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

    def test_above_the_desk_scale_cap_falls_back_to_multiplication(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u, P = build_spread_start(3, 6, p64), companion_matrix(p64)
        monkeypatch.setattr(orbitcodes.polyring, "DESK_SCALE_CAP", 16)
        calls = []
        monkeypatch.setattr(orbitcodes.orbitcode, "matrix_order",
                            lambda g: calls.append(g) or matrix_order(g))
        assert generate_orbit(u, P).generator_order == 63
        assert calls == [P]

    def test_orbit_length_must_divide_the_order(self, monkeypatch):
        p64 = parse_poly(F2, "x^6+x+1")
        u = build_spread_start(3, 6, p64)
        monkeypatch.setattr(orbitcodes.orbitcode, "order_of_polynomial", lambda f: 7)
        with pytest.raises(RuntimeError, match="does not divide"):
            generate_orbit(u, companion_matrix(p64))


class TestIndependence:
    """The oracle and the orbit generator use neither the extension
    field's dictionary nor the predictor; the oracle computes no rank and
    the orbit of a companion matrix never walks the group."""

    FORBIDDEN = ["__init__", "phi", "dlog", "exponent_profile", "orbit_partition"]

    def _count(self, monkeypatch, holder, name, calls):
        original = getattr(holder, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(holder, name, counted)

    def test_oracle_makes_no_rank_computation(self, monkeypatch):
        p = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        code = generate_orbit(build_spread_start(2, 8, p), companion_matrix(p))
        calls = dict.fromkeys(["rref", "subspace_distance", *self.FORBIDDEN], 0)
        self._count(monkeypatch, Mat, "rref", calls)
        self._count(monkeypatch, orbitcodes.matspace, "subspace_distance", calls)
        self._count(monkeypatch, orbitcodes.orbitcode, "subspace_distance", calls)
        for name in self.FORBIDDEN:
            self._count(monkeypatch, ExtensionContext, name, calls)
        assert min_distance_brute(code) == 4
        assert set(calls.values()) == {0}, calls

    def test_orbit_of_a_companion_never_walks_the_group(self, monkeypatch):
        p = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        u, P = build_spread_start(2, 8, p), companion_matrix(p)
        calls = dict.fromkeys(["matrix_order", *self.FORBIDDEN], 0)
        self._count(monkeypatch, orbitcodes.orbitcode, "matrix_order", calls)
        for name in self.FORBIDDEN:
            self._count(monkeypatch, ExtensionContext, name, calls)
        code = generate_orbit(u, P)
        assert (len(code), code.generator_order) == (85, 255)
        assert set(calls.values()) == {0}, calls
