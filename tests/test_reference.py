"""Differential tests against outside references.

Field arithmetic, irreducibility, modular powers and discrete logarithms
are checked against sympy's dense GF(p)[x] routines (``galoistools``) and
``sympy.ntheory.discrete_log``.  sympy has no field towers, so level-2
products are checked against a short nested-polynomial reference written
here.  Polynomials cross over as coefficient lists, highest degree first
on the sympy side, and field elements as their mixed-radix indices.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import discrete_log
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_irreducible_p, gf_mul, gf_pow_mod,
                                     gf_rem)

from orbitcodes import ExtensionContext, FieldSpec, Poly, is_irreducible, poly_powmod

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
