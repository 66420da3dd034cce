"""Polynomials over a finite field.

Coefficients are stored lowest degree first with trailing zeros stripped,
so the zero polynomial has an empty coefficient tuple and degree -1.
Beyond ring arithmetic this module provides the classical predicates that
drive cyclic-group constructions: irreducibility, the order of a
polynomial (the multiplicative order of its roots), primitivity, and the
companion matrix with coefficients in the last row.

Text syntax (shared by the CLI and test fixtures): "+"-separated terms in
any order, each "x^k", "x", "c*x^k" or a bare constant, where c is a
base-field element index written plainly over prime fields ("2*x") and in
brackets over extension fields ("[2]*x").  parse_poly and format_poly
round-trip.
"""

from __future__ import annotations

import re

from .errors import DomainError, ParseError
from .gfq import DESK_SCALE_CAP, FieldElement, FieldSpec, _mulmod, _prime_factors


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

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate by Horner's rule."""
        point = self.field.element(point)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

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
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        inv_lead = other.leading.inv()
        quo = [self.field.zero()] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if not c:
                continue
            f = c * inv_lead
            quo[i] = f
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - f * b
        return Poly(self.field, quo), Poly(self.field, rem)

    def __mod__(self, other):
        res = self.__divmod__(other)
        return res if res is NotImplemented else res[1]

    def __floordiv__(self, other):
        res = self.__divmod__(other)
        return res if res is NotImplemented else res[0]

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
    while not g.is_zero:
        f, g = g, f % g
    return f if f.is_zero else f.monic()

def poly_powmod(f: Poly, e: int, m: Poly) -> Poly:
    """f**e mod m by square-and-multiply; e must be nonnegative.

    The products run on lists of int coefficient indices, reduced by the
    monic multiple of m; only the result is built as a Poly.
    """
    if e < 0:
        raise DomainError("poly_powmod requires a nonnegative exponent")
    if m.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.field != m.field:
        raise DomainError("polynomials over different fields")
    mulmod = _mulmod(m.field, [c.value for c in m.monic().coeffs[:-1]])
    result, base = mulmod([1], [1]), mulmod([c.value for c in f.coeffs], [1])
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return Poly(m.field, result)


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f | x^(Q^n) - x and gcd(f, x^(Q^(n/t)) - x) = 1
    for every prime t dividing n, where Q is the coefficient field order."""
    if f.degree < 1:
        raise DomainError("irreducibility is undefined for constant polynomials")
    n = f.degree
    if n == 1:
        return True
    g = f.monic()
    Q = f.field.order
    x = Poly.x(f.field)
    if poly_powmod(x, Q ** n, g) != x % g:
        return False
    for t in _prime_factors(n):
        h = poly_powmod(x, Q ** (n // t), g) - x % g
        if poly_gcd(g, h).degree != 0:
            return False
    return True


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
    g = f.monic()
    Q = f.field.order
    n = g.degree
    if Q ** n > DESK_SCALE_CAP:
        raise DomainError(
            f"field cardinality {Q ** n} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    e = Q ** n - 1
    x = Poly.x(f.field)
    one = Poly.one(f.field)
    for ell in _prime_factors(e):
        while e % ell == 0 and poly_powmod(x, e // ell, g) == one:
            e //= ell
    return e


def is_primitive(f: Poly) -> bool:
    """True when the order of f is Q^n - 1 (a root generates F_{Q^n}^*)."""
    return order_of_polynomial(f) == f.field.order ** f.degree - 1


def companion_matrix(f: Poly):
    """Companion matrix of a monic polynomial, coefficients in the last row.

    The n x n matrix has ones on the superdiagonal and last row
    (-c_0, ..., -c_{n-1}); its characteristic polynomial is f, and row
    vectors are multiplied on the right.
    """
    from .matspace import Mat

    if f.degree < 1:
        raise DomainError("companion matrix requires degree at least 1")
    if not f.is_monic:
        raise DomainError("companion matrix requires a monic polynomial")
    field = f.field
    n = f.degree
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([-f.coeffs[j] for j in range(n)])
    return Mat(field, rows)


def list_irreducibles(field: FieldSpec, degree: int) -> list[Poly]:
    """All monic irreducible polynomials of the given degree.

    Enumerates x^degree + (low part) with the low part running through the
    field's mixed-radix enumeration, so the output order is fixed.
    """
    from .matspace import vector_from_index

    if degree < 1:
        raise DomainError("degree must be at least 1")
    Q = field.order
    if Q ** degree > DESK_SCALE_CAP:
        raise DomainError(
            f"enumeration space {Q ** degree} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    out = []
    for i in range(Q ** degree):
        f = Poly(field, vector_from_index(field, degree, i) + (1,))
        if is_irreducible(f):
            out.append(f)
    return out


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
