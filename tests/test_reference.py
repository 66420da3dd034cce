"""Differential tests against outside references.

Field arithmetic, irreducibility, modular powers and discrete logarithms
are checked against sympy's dense GF(p)[x] routines (``galoistools``) and
``sympy.ntheory.discrete_log``; matrix products, reduced row echelon forms
and characteristic polynomials against ``sympy.polys.matrices.DomainMatrix``
over GF(p).  sympy has no field towers, so level-2 products and F_4
matrices are checked against short references written here.  Polynomials
cross over as coefficient lists, highest degree first on the sympy side,
and field elements as their mixed-radix indices.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import discrete_log
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import (gf_irreducible_p, gf_mul, gf_pow_mod,
                                     gf_rem)
from sympy.polys.matrices import DomainMatrix

from orbitcodes import (ExtensionContext, FieldSpec, Mat, Poly, char_poly,
                        is_irreducible, poly_powmod)

PRIMES = (2, 3, 5)
#: dlog draws stay in fields of at most this many elements.
DLOG_FIELD_CAP = 4096


def _digits(i, radix, n):
    """Mixed-radix digits of i, lowest first."""
    out = []
    for _ in range(n):
        i, r = divmod(i, radix)
        out.append(r)
    return out


def _index(digits, radix):
    i = 0
    for d in reversed(digits):
        i = i * radix + d
    return i


def _to_sympy(digits):
    """Low-first residues to sympy's high-first dense list, stripped."""
    out = list(reversed(digits))
    while out and not out[0]:
        out.pop(0)
    return out


def _from_sympy(coeffs, p, n):
    low = [c % p for c in reversed(coeffs)]
    return low + [0] * (n - len(low))


def _digits_of(poly, n):
    low = [poly.field.index_of(c) for c in poly.coeffs]
    return low + [0] * (n - len(low))


@st.composite
def monic(draw, min_degree=1, max_degree=8):
    """(p, low-first coefficients) of a monic polynomial over GF(p)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=min_degree, max_value=max_degree))
    low = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return p, low + [1]


@st.composite
def irreducible_modulus(draw, max_order=None, max_degree=8):
    """(p, low-first coefficients) of a monic irreducible with f(0) != 0.

    The draw fixes a degree and a starting point in the enumeration of monic
    polynomials; the first one from there that sympy calls irreducible is
    taken, so irreducibility never rests on this package.
    """
    p = draw(st.sampled_from(PRIMES))
    top = max_degree
    while max_order is not None and p ** top > max_order:
        top -= 1
    n = draw(st.integers(min_value=1, max_value=top))
    start = draw(st.integers(0, p ** n - 1))
    for step in range(p ** n):
        low = _digits((start + step) % p ** n, p, n)
        f = low + [1]
        if low[0] and gf_irreducible_p(_to_sympy(f), p, ZZ):
            return p, f
    raise AssertionError("every degree has an irreducible with f(0) != 0")


@settings(deadline=None, max_examples=150)
@given(monic())
def test_is_irreducible_matches_sympy(drawn):
    p, f = drawn
    field = FieldSpec(p)
    assert is_irreducible(Poly(field, f)) == gf_irreducible_p(_to_sympy(f), p, ZZ)


@settings(deadline=None, max_examples=100)
@given(monic(max_degree=8), st.data())
def test_poly_powmod_matches_sympy(drawn, data):
    p, m = drawn
    n = len(m) - 1
    field = FieldSpec(p)
    f = data.draw(st.lists(st.integers(0, p - 1), max_size=12))
    e = data.draw(st.integers(0, 10 ** 6))
    got = poly_powmod(Poly(field, f), e, Poly(field, m))
    want = gf_pow_mod(_to_sympy(f), e, _to_sympy(m), p, ZZ)
    assert _digits_of(got, n) == _from_sympy(want, p, n)


@settings(deadline=None, max_examples=100)
@given(irreducible_modulus(), st.data())
def test_field_products_match_sympy(drawn, data):
    p, m = drawn
    n = len(m) - 1
    field = FieldSpec(p).extend(Poly(FieldSpec(p), m))
    for _ in range(10):
        a = data.draw(st.integers(0, field.order - 1))
        b = data.draw(st.integers(0, field.order - 1))
        got = field.index_of(field.from_index(a) * field.from_index(b))
        want = gf_rem(gf_mul(_to_sympy(_digits(a, p, n)), _to_sympy(_digits(b, p, n)),
                             p, ZZ), _to_sympy(m), p, ZZ)
        assert got == _index(_from_sympy(want, p, n), p)


@settings(deadline=None, max_examples=40)
@given(irreducible_modulus(max_order=DLOG_FIELD_CAP), st.data())
def test_dlog_matches_sympy(drawn, data):
    p, m = drawn
    n = len(m) - 1
    ctx = ExtensionContext.from_modulus(Poly(FieldSpec(p), m))
    field = ctx.field
    gamma = _to_sympy(_digits(field.index_of(ctx.gamma), p, n))
    for _ in range(10):
        x = data.draw(st.integers(1, field.order - 1))
        j = ctx.dlog(field.from_index(x))
        assert 0 <= j < field.order - 1
        want = gf_pow_mod(gamma, j, _to_sympy(m), p, ZZ)
        assert _index(_from_sympy(want, p, n), p) == x
        if n == 1:  # elements of F_p[x]/(x + c) are their residues
            assert j == discrete_log(p, x, field.index_of(ctx.gamma))


# -- level 2: F_4 towers against nested polynomials --------------------------

def _f4_mul(a, b):
    """F_4 = GF(2)[y]/(y^2+y+1) on indices, through sympy."""
    prod = gf_rem(gf_mul(_to_sympy(_digits(a, 2, 2)), _to_sympy(_digits(b, 2, 2)),
                         2, ZZ), [1, 1, 1], 2, ZZ)
    return _index(_from_sympy(prod, 2, 2), 2)


def _nested_mul(a, b, m):
    """Product of low-first coefficient lists over F_4 mod a monic m."""
    d = len(m) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] ^= _f4_mul(ai, bj)  # F_4 addition is XOR of indices
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i]
        for j in range(d + 1):  # characteristic 2: subtracting is adding
            prod[i - d + j] ^= _f4_mul(c, m[j])
    return prod[:d]


def _has_root_in_f4(m):
    def value(x):
        acc = 0
        for c in reversed(m):
            acc = _f4_mul(acc, x) ^ c
        return acc
    return any(value(x) == 0 for x in range(4))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3]), st.integers(0, 63), st.data())
def test_level_two_products_match_nested_reference(d, start, data):
    # A degree 2 or 3 polynomial is irreducible exactly when it has no root.
    for step in range(4 ** d):
        m = _digits((start + step) % 4 ** d, 4, d) + [1]
        if not _has_root_in_f4(m):
            break
    f2 = FieldSpec(2)
    f4 = f2.extend(Poly(f2, [1, 1, 1]))
    top = f4.extend(Poly(f4, m))
    assert top.level == 2
    for _ in range(10):
        a = data.draw(st.integers(0, top.order - 1))
        b = data.draw(st.integers(0, top.order - 1))
        got = top.index_of(top.from_index(a) * top.from_index(b))
        assert got == _index(_nested_mul(_digits(a, 4, d), _digits(b, 4, d), m), 4)


# -- matrices over GF(p) against DomainMatrix ---------------------------------

@st.composite
def prime_matrix(draw, square=False):
    """(p, rows) of a matrix over GF(p) of at most 6 x 7 entries."""
    p = draw(st.sampled_from(PRIMES))
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return p, rows


def _domain_matrix(rows, p):
    K = GF(p)
    return DomainMatrix([[K(e) for e in row] for row in rows], (len(rows), len(rows[0])), K)


def _residues(dm, p):
    """sympy's symmetric residues as indices in [0, p)."""
    return [[int(e) % p for e in row] for row in dm.to_list()]


@settings(deadline=None, max_examples=150)
@given(prime_matrix())
def test_rref_matches_sympy(drawn):
    p, rows = drawn
    form, rank = Mat(FieldSpec(p), rows).rref()
    want, pivots = _domain_matrix(rows, p).rref()
    assert rank == len(pivots)
    assert form == Mat(FieldSpec(p), _residues(want, p))


@settings(deadline=None, max_examples=100)
@given(prime_matrix(), st.integers(1, 7), st.data())
def test_products_match_sympy(drawn, width, data):
    p, rows = drawn
    right = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
                               min_size=len(rows[0]), max_size=len(rows[0])))
    field = FieldSpec(p)
    got = Mat(field, rows) * Mat(field, right)
    want = _domain_matrix(rows, p) * _domain_matrix(right, p)
    assert got == Mat(field, _residues(want, p))


@settings(deadline=None, max_examples=100)
@given(prime_matrix(square=True))
def test_char_poly_matches_sympy(drawn):
    p, rows = drawn
    field = FieldSpec(p)
    want = [int(c) % p for c in reversed(_domain_matrix(rows, p).charpoly())]
    assert char_poly(Mat(field, rows)) == Poly(field, want)


# -- matrices over F_4 against element-level Gauss-Jordan --------------------

F4 = FieldSpec(2).extend(Poly(FieldSpec(2), [1, 1, 1]))


def _element_rref(rows):
    """Gauss-Jordan on FieldElement rows: (reduced rows, rank)."""
    rows = [list(r) for r in rows]
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
    return rows, piv


f4_rows = st.integers(1, 6).flatmap(lambda nc: st.lists(
    st.lists(st.integers(0, 3), min_size=nc, max_size=nc), min_size=1, max_size=6))


@settings(deadline=None, max_examples=100)
@given(f4_rows)
def test_f4_rref_matches_element_gauss_jordan(rows):
    want, rank = _element_rref([[F4.from_index(e) for e in row] for row in rows])
    assert Mat(F4, rows).rref() == (Mat(F4, want), rank)


@settings(deadline=None, max_examples=100)
@given(f4_rows, st.integers(1, 6), st.data())
def test_f4_products_match_element_sums(rows, width, data):
    right = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                               min_size=len(rows[0]), max_size=len(rows[0])))
    a = [[F4.from_index(e) for e in row] for row in rows]
    b = [[F4.from_index(e) for e in row] for row in right]
    want = [[sum((x * y for x, y in zip(r, c)), F4.zero()) for c in zip(*b)] for r in a]
    assert Mat(F4, rows) * Mat(F4, right) == Mat(F4, want)
