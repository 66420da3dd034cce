"""Exact arithmetic in finite fields built as quotient-ring towers.

A field is either a prime field Z_p or an extension F[x]/(m) of another
field by a monic irreducible modulus m.  Towers are capped at two extension
levels above the prime field, which is enough for a base field
F_q = F_{p^r} and one extension F_{q^n} on top of it.

Elements are canonical: an extension element is a coefficient sequence over
the level below (lowest degree first, fixed length equal to the modulus
degree), a prime-field element is a residue in [0, p).  Two elements are
equal exactly when their fields and coefficient sequences are equal.
All values are immutable and safe to share between threads.

Every field enumerates its elements in a fixed mixed-radix order: the
element with coefficients (c_0, ..., c_{d-1}) has index
sum_i index(c_i) * |subfield|^i, and prime residues are their own index.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import DomainError

#: Largest field cardinality this package will construct.  Dense discrete
#: logarithm tables are built per extension context, so this keeps memory
#: and precomputation at desk scale.
DESK_SCALE_CAP = 1 << 24


def _prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """A finite field: Z_p, or a quotient of the field one level below."""

    __slots__ = ("p", "subfield", "modulus", "degree", "order", "level",
                 "_mod_tail", "_key", "_hash")

    def __init__(self, p: int):
        """Create the prime field Z_p."""
        # The cap comes first: it bounds the trial division below.
        if p > DESK_SCALE_CAP:
            raise DomainError(
                f"field cardinality {p} exceeds the desk-scale cap {DESK_SCALE_CAP}")
        if _prime_factors(p) != [p]:
            raise DomainError(f"characteristic {p} is not prime")
        self.p = p
        self.subfield = None
        self.modulus = None
        self.degree = 1
        self.order = p
        self.level = 0
        self._mod_tail = None
        self._key = ("prime", p)
        self._hash = hash(self._key)

    def extend(self, modulus) -> "FieldSpec":
        """Quotient this field by a monic irreducible polynomial over it."""
        from . import polyring

        if self.level >= 2:
            raise DomainError("field towers are capped at two extension levels")
        if not isinstance(modulus, polyring.Poly):
            raise DomainError("modulus must be a Poly")
        if modulus.field != self:
            raise DomainError("modulus is defined over a different field")
        if modulus.degree < 1:
            raise DomainError("modulus must have degree at least 1")
        if not modulus.is_monic:
            raise DomainError("modulus must be monic")
        order = self.order ** modulus.degree
        if order > DESK_SCALE_CAP:
            raise DomainError(
                f"field cardinality {order} exceeds the desk-scale cap {DESK_SCALE_CAP}")
        if not polyring.is_irreducible(modulus):
            raise DomainError(f"modulus {modulus} is reducible")

        spec = object.__new__(FieldSpec)
        spec.p = self.p
        spec.subfield = self
        spec.modulus = modulus
        spec.degree = modulus.degree
        spec.order = order
        spec.level = self.level + 1
        spec._mod_tail = modulus.coeffs[:-1]
        spec._key = ("ext", self._key,
                     tuple(self.index_of(c) for c in modulus.coeffs))
        spec._hash = hash(spec._key)
        return spec

    # -- element construction ------------------------------------------

    def zero(self) -> "FieldElement":
        return self.from_index(0)

    def one(self) -> "FieldElement":
        return self.from_index(1)

    def element(self, value) -> "FieldElement":
        """Coerce an int index, coefficient sequence, or element of this field."""
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            raise DomainError("element belongs to a different field")
        if isinstance(value, int):
            return self.from_index(value)
        if isinstance(value, Sequence):
            if self.level == 0:
                raise DomainError("prime-field elements are built from ints")
            if len(value) > self.degree:
                raise DomainError(
                    f"coefficient sequence longer than modulus degree {self.degree}")
            coeffs = [self.subfield.element(c) for c in value]
            coeffs += [self.subfield.zero()] * (self.degree - len(coeffs))
            return FieldElement(self, tuple(coeffs))
        raise DomainError(f"cannot build a field element from {value!r}")

    def from_index(self, i: int) -> "FieldElement":
        """Element number i in the fixed mixed-radix enumeration."""
        if not 0 <= i < self.order:
            raise DomainError(f"index {i} out of range for a field of order {self.order}")
        if self.level == 0:
            return FieldElement(self, i)
        sub = self.subfield
        coeffs = []
        for _ in range(self.degree):
            i, digit = divmod(i, sub.order)
            coeffs.append(sub.from_index(digit))
        return FieldElement(self, tuple(coeffs))

    def index_of(self, e: "FieldElement") -> int:
        """Inverse of from_index."""
        if not isinstance(e, FieldElement) or e.field != self:
            raise DomainError("element belongs to a different field")
        if self.level == 0:
            return e.value
        sub = self.subfield
        i = 0
        for c in reversed(e.value):
            i = i * sub.order + sub.index_of(c)
        return i

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in enumeration order."""
        for i in range(self.order):
            yield self.from_index(i)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.level == 0:
            return f"GF({self.p})"
        return f"GF({self.order})"


def field_make(p: int, base_modulus=None, top_modulus=None) -> FieldSpec:
    """Build Z_p, F_q = Z_p[x]/(base_modulus), or F_{q^n} on top of that.

    Either modulus may be omitted; each one present must be monic and
    irreducible over the level below it, which is verified eagerly.
    """
    spec = FieldSpec(p)
    if base_modulus is not None:
        spec = spec.extend(base_modulus)
    if top_modulus is not None:
        spec = spec.extend(top_modulus)
    return spec


class FieldElement:
    """An immutable element of a FieldSpec.

    Supports +, -, *, /, unary -, ** (any int exponent on nonzero
    elements), and inv().  Mixing elements of different fields raises
    DomainError.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        # Internal: value must already be canonical for the field.
        self.field = field
        self.value = value

    def __bool__(self):
        if self.field.level == 0:
            return self.value != 0
        return any(self.value)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field._hash, self.value))

    def __repr__(self):
        return f"{self.field!r}[{self.field.index_of(self)}]"

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return None
        if self.field is not other.field and self.field != other.field:
            raise DomainError("elements belong to different fields")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.field.level == 0:
            return FieldElement(self.field, (self.value + other.value) % self.field.p)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.value, other.value)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.field.level == 0:
            return FieldElement(self.field, (self.value - other.value) % self.field.p)
        return FieldElement(self.field,
                            tuple(a - b for a, b in zip(self.value, other.value)))

    def __neg__(self):
        if self.field.level == 0:
            return FieldElement(self.field, -self.value % self.field.p)
        return FieldElement(self.field, tuple(-a for a in self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.field.level == 0:
            return FieldElement(self.field, self.value * other.value % self.field.p)
        return FieldElement(self.field, _mul_reduce(self.field, self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if not self:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return self.field.one() if e == 0 else self
        # Nonzero elements have order dividing |F| - 1 (Lagrange), so any
        # integer exponent, negative included, reduces into [0, |F| - 1).
        e %= self.field.order - 1
        if self.field.level == 0:
            return FieldElement(self.field, pow(self.value, e, self.field.p))
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        return self ** -1


def _mul_reduce(field: FieldSpec, a: tuple, b: tuple) -> tuple:
    """Schoolbook product of coefficient tuples, reduced mod the modulus."""
    sub = field.subfield
    d = field.degree
    zero = sub.zero()
    prod = [zero] * (2 * d - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = prod[i + j] + ai * bj
    # The modulus is monic: x^d = -(m_0 + m_1 x + ... + m_{d-1} x^{d-1}).
    tail = field._mod_tail
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            for j, mj in enumerate(tail):
                if mj:
                    prod[i - d + j] = prod[i - d + j] - c * mj
    return tuple(prod[:d])
