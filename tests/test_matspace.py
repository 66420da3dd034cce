import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_entries_are_indices_in_range(self):
        assert Mat(F3, [[F3.from_index(2), 1]]).rows == ((2, 1),)
        for bad in (3, -1, F2.one(), "1", None):
            with pytest.raises(DomainError):
                Mat(F3, [[bad, 0]])


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

    def test_cap(self):
        p = companion_matrix(parse_poly(F2, "x^4+x+1"))
        with pytest.raises(DomainError, match="cap"):
            matrix_order(p, cap=10)

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
