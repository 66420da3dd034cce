"""Polynomials over a finite field.

Coefficients are stored lowest degree first with trailing zeros stripped,
so the zero polynomial has an empty coefficient tuple and degree -1.
Beyond ring arithmetic this module provides the classical predicates that
drive cyclic-group constructions: irreducibility, the order of a
polynomial (the multiplicative order of its roots), primitivity, and the
companion matrix with coefficients in the last row.

Modular powers, the order of a polynomial and the irreducibility proof make
their products in one kernel, gfq._mulmod, on the mixed-radix indices of
coefficient vectors, and take their powers on gfq._power's ladder.  A proof
is Rabin's test along one Frobenius chain x, x^Q, x^(Q^2), ... mod f: n
Q-th powers for degree n, and one gcd, of f and the product of the chain's
h - x for the primes dividing n, by Euclid on lists of coefficients.  One
long division, _divide, gives Euclid's remainders and Poly's divmod.
list_irreducibles is a sieve: it marks the multiples of each smaller
irreducible as one span of its shifts, so it runs no proof and makes no
product mod a polynomial.

Text syntax (shared by the CLI and test fixtures): "+"-separated terms in
any order, each "x^k", "x", "c*x^k" or a bare constant, where c is a
base-field element index written plainly over prime fields ("2*x") and in
brackets over extension fields ("[2]*x").  parse_poly and format_poly
round-trip.
"""

from __future__ import annotations

import re
from itertools import repeat

from .errors import DomainError, ParseError
from .gfq import (DESK_SCALE_CAP, FieldElement, FieldSpec, _check_cap, _digit_ops,
                  _digits, _max_exponent, _mulmod, _power, _prime_factors)


class Poly:
    """A polynomial over one FieldSpec; immutable, equality is structural."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = [field.element(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient."""
        if self.is_monic:
            return self
        inv = self.leading.inv()
        return Poly(self.field, tuple(inv * c for c in self.coeffs))

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, Poly):
            return None
        if self.field != other.field:
            raise DomainError("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quo, rem = _divide(self.coeffs, other.coeffs)
        return Poly(self.field, quo), Poly(self.field, rem)

    def __mod__(self, other):
        res = self.__divmod__(other)
        return res if res is NotImplemented else res[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field!r}, {format_poly(self)!r})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.field != g.field:
        raise DomainError("polynomials over different fields")
    d = Poly(f.field, _euclid(f.coeffs, g.coeffs))
    return d if d.is_zero else d.monic()


def _euclid(a, b) -> list:
    """A greatest common divisor, up to a unit, of the polynomials with
    coefficient lists a and b (FieldElements, lowest degree first, no
    trailing zeros): Euclid's algorithm on _divide's remainders."""
    while b:
        a, b = b, _divide(a, b)[1]
    return list(a)


def _divide(a, b) -> tuple[list, list]:
    """(quotient, remainder) of the polynomials with coefficient lists a and
    b (FieldElements, lowest degree first, no trailing zeros, b nonzero) by
    long division; the remainder has no trailing zeros, and the quotient
    holds the int 0 where no digit was set, for Poly to coerce."""
    d = len(b) - 1
    rem, quo = list(a), [0] * max(len(a) - d, 0)
    inv = b[-1].inv() if quo else None
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            c = quo[i - d] = c * inv
            for j in range(d):
                rem[i - d + j] = rem[i - d + j] - c * b[j]
    del rem[d:]  # the cleared top
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def poly_powmod(f: Poly, e: int, m: Poly) -> Poly:
    """f**e mod m by square-and-multiply; e must be nonnegative.

    gfq._power's products run in gfq._mulmod on coefficient vector indices,
    reduced by the monic multiple of m; only the result is built as a Poly.
    """
    if e < 0:
        raise DomainError("poly_powmod requires a nonnegative exponent")
    if m.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.field != m.field:
        raise DomainError("polynomials over different fields")
    field, Q = m.field, m.field.order
    mulmod = _mulmod(field, [c.value for c in m.monic().coeffs[:-1]])
    base = mulmod(sum(c.value * Q ** i for i, c in enumerate(f.coeffs)), 1)
    return Poly(field, _digits(_power(mulmod, base, e) if e else mulmod(1, 1), Q, 0))


def is_irreducible(f: Poly) -> bool:
    """Rabin's test along one Frobenius chain.

    With Q the coefficient field order and g = f made monic, of degree n,
    the chain h_0 = x, h_j = h_{j-1}^Q mod g (so h_j = x^(Q^j) mod g) runs
    for j = 1..n.  f is irreducible exactly when h_n = x and gcd(g, h_(n/t)
    - x) = 1 for every prime t dividing n, that is when g is prime to the
    product of the h_(n/t) - x, taken mod g along the chain.  The chain
    and the product (one factor when n is a prime power) cost n Q-th powers
    and one product per further prime in gfq._mulmod; the one gcd is
    _euclid's, on the FieldElement coefficients.
    """
    if f.degree < 1:
        raise DomainError("irreducibility is undefined for constant polynomials")
    n = f.degree
    if n == 1:
        return True
    g, field, Q = f.monic(), f.field, f.field.order
    mulmod = _mulmod(field, [c.value for c in g.coeffs[:-1]])
    stops = {n // t for t in _prime_factors(n)}
    h = x = Q  # the index of x, reduced since n >= 2
    product = None
    for j in range(1, n + 1):
        h = _power(mulmod, h, Q)
        if j in stops:
            digit = h // Q % Q  # h - x lowers the coefficient of x by one
            factor = h + Q * (field._sub(digit, 1) - digit)
            product = factor if product is None else mulmod(product, factor)
    if h != x:
        return False
    rest = [field.from_index(c) for c in _digits(product, Q, 0)]
    return len(_euclid(g.coeffs, rest)) == 1


def order_of_polynomial(f: Poly) -> int:
    """Least e with f | x^e - 1, i.e. the multiplicative order of a root.

    Requires f irreducible with f(0) != 0.  Computed by factoring
    Q^n - 1 (the order divides it) and stripping prime factors while the
    corresponding root of unity condition still holds.
    """
    if f.degree < 1:
        raise DomainError("order is undefined for constant polynomials")
    if not is_irreducible(f):
        raise DomainError("order requires an irreducible polynomial")
    if not f.coeffs[0]:
        raise DomainError("order is undefined when f(0) = 0")
    _check_cap(f.field.order ** f.degree)
    return _order(f.monic())


def _order(g: Poly) -> int:
    """order_of_polynomial for a monic g already proven irreducible, with
    g(0) != 0 and Q^n within the cap.  The powers of x run in gfq._mulmod on
    indices, so x^k = 1 exactly when the index is 1."""
    field = g.field
    e = field.order ** g.degree - 1
    mulmod = _mulmod(field, [c.value for c in g.coeffs[:-1]])
    x = mulmod(field.order, 1)  # x reduced mod g
    for ell in _prime_factors(e):
        while e % ell == 0 and _power(mulmod, x, e // ell) == 1:
            e //= ell
    return e


def is_primitive(f: Poly) -> bool:
    """True when the order of f is Q^n - 1 (a root generates F_{Q^n}^*)."""
    return order_of_polynomial(f) == f.field.order ** f.degree - 1


def companion_matrix(f: Poly):
    """Companion matrix of a monic polynomial, coefficients in the last row.

    The n x n matrix has ones on the superdiagonal and last row
    (-c_0, ..., -c_{n-1}); its characteristic polynomial is f, and row
    vectors are multiplied on the right.  Its rows are built as vector
    indices: row i < n - 1 is e_(i+1), index Q^(i+1), and the last is
    _digit_ops' neg of the index of (c_0, ..., c_{n-1}).
    """
    from .matspace import Mat

    if f.degree < 1:
        raise DomainError("companion matrix requires degree at least 1")
    if not f.is_monic:
        raise DomainError("companion matrix requires a monic polynomial")
    field, n, Q = f.field, f.degree, f.field.order
    _, _, neg, join, _ = _digit_ops(field, n)
    last = neg(join([c.value for c in f.coeffs[:-1]]))
    return Mat._wrap(field, n, tuple(Q ** i for i in range(1, n)) + (last,))


#: Most candidates list_irreducibles sieves.  Whole calls, CPU time, best
#: of three (Python 3.11.7, 2 vCPU Xeon): GF(2) n = 12 and 13 in 6 and 12
#: ms, F_4 n = 5 and 6 in 2 and 7 ms, F_9 n = 4 in 19 ms, GF(3) n = 7 and 8
#: in 6 and 18 ms, most of it building the listed Polys.  One Rabin test per
#: candidate took 0.86 and 1.6 s, 0.13 and 0.88 s and 4.4 s on the first
#: five.  The sieve's time grows about as the candidate count (GF(3): 3x
#: the candidates, 3.1-3.3x the time), so 2^24 candidates would take about
#: half a minute (an estimate, not measured).
LIST_CAP = 1 << 13


def list_irreducibles(field: FieldSpec, degree: int) -> list[Poly]:
    """All monic irreducible polynomials of the given degree.

    The candidates are x^degree + (low part) with the low part running
    through the field's mixed-radix enumeration, and the output keeps that
    order.  A sieve: a monic polynomial of degree d is reducible exactly when
    it is f * g with f monic irreducible of degree e <= d/2 and g monic of
    degree d - e.  The irreducibles of each degree up to degree/2 are
    sieved first, then those of the given degree.  The products f g of one
    f of degree e are linear in g's low part, so they are one span: the
    rows x^i f, i < d - e (index f Q^i, of degree below d, so nothing is
    reduced), listed by matspace._spanner, each sum put on x^(d-e) f mod
    x^d (index (f - Q^e) Q^(d-e)) by _digit_ops' add, which leaves the
    index of the low part.  A monic candidate of degree d with low part i
    has index i + Q^d.
    """
    from .matspace import _spanner

    if degree < 1:
        raise DomainError("degree must be at least 1")
    Q = field.order
    # Compared by exponent: Q ** degree may be too large to build or print.
    if degree > _max_exponent(Q, LIST_CAP):
        raise DomainError(f"listing degree {degree} over GF({Q}) tests {Q}^{degree} "
                          f"candidates, above the list cap {LIST_CAP}")

    factors = {}  # degree e <= degree/2 -> indices of the monic irreducibles

    def sieve(d):
        """Low-part indices of the monic irreducibles of degree d."""
        if d == 1:  # every monic x + c: nothing to mark, no span built
            return range(Q)
        (span, _), add, marked = _spanner(field, d), _digit_ops(field, d)[0], set()
        for e in range(1, d // 2 + 1):
            for f in factors[e]:
                rows = [f * Q ** i for i in range(d - e)]
                marked.update(map(add, span(rows), repeat((f - Q ** e) * Q ** (d - e))))
        return [i for i in range(Q ** d) if i not in marked]

    for d in range(1, degree // 2 + 1):
        factors[d] = [i + Q ** d for i in sieve(d)]
    return [Poly(field, _digits(i, Q, degree) + [1]) for i in sieve(degree)]


# -- text syntax --------------------------------------------------------

#: Largest exponent parse_poly accepts.  Every capped operation refuses a
#: higher degree over any field: it has more than DESK_SCALE_CAP residues.
_MAX_EXPONENT = DESK_SCALE_CAP.bit_length()

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\[\d+\]|\d+)\*)?x(?:\^(?P<exp>\d+))?$"
    r"|^(?P<const>\[\d+\]|\d+)$")


def _bounded_int(digits: str, limit: int) -> int | None:
    """The value of a digit string, or None above limit.  A long string is
    refused before int() or any allocation sees it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        return None
    return int(digits)


def _parse_index(field: FieldSpec, token: str) -> FieldElement:
    digits = token.strip("[]")
    idx = _bounded_int(digits, field.order - 1)
    if idx is None:
        raise ParseError(f"coefficient index {digits} out of range for {field!r}")
    return field.from_index(idx)


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse the shared polynomial syntax over the given field."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial")
    terms = {}
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"cannot parse polynomial term {term!r}")
        if m.group("const") is not None:
            k = 0
            c = _parse_index(field, m.group("const"))
        else:
            k = _bounded_int(m.group("exp") or "1", _MAX_EXPONENT)
            if k is None:
                raise ParseError(f"exponent {m.group('exp')} is above {_MAX_EXPONENT}, "
                                 "the largest degree the desk-scale cap allows")
            c = _parse_index(field, m.group("coeff")) if m.group("coeff") else field.one()
        terms[k] = terms.get(k, field.zero()) + c
    coeffs = [field.zero()] * (max(terms) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return Poly(field, coeffs)


def format_poly(p: Poly) -> str:
    """Inverse of parse_poly: descending terms, canonical spelling."""
    if p.is_zero:
        return "0"
    field = p.field
    prime = field.level == 0
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        idx = field.index_of(c)
        cs = str(idx) if prime else f"[{idx}]"
        if k == 0:
            parts.append(cs)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if idx == 1 else f"{cs}*{xs}")
    return "+".join(parts)
