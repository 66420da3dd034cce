"""The dictionary between F_q^n and the extension field F_q[x]/(p).

An ExtensionContext fixes an irreducible modulus p over a base field F_q
and makes the canonical isomorphism phi((v_1,...,v_n)) = sum v_i alpha^(i-1)
explicit, where alpha is the residue class of x.  It carries discrete
logarithms with respect to a primitive element gamma (gamma is alpha itself
when p is primitive; otherwise the first element in enumeration order of
maximal multiplicative order), the exponent profile of a subspace (the
dlogs of its nonzero vectors), and the partition of the nonzero field
elements into orbits of multiplication by alpha.

Both rest on one dense int array, indexed by element index.  With
e = ord(alpha), the c = (q^n - 1)/e orbits are the cosets gamma^i<alpha>,
i in [0, c).  The array holds i + c*b for the element gamma^i * alpha^b.
It is filled by walking each coset with alpha-steps on indices (a digit
shift plus a fold at the modulus' nonzero terms), so its only field
products are the coset representatives and gamma^c.  With
gamma^c = alpha^s and alpha = gamma^t, t = c * (s^-1 mod e), so
gamma^i * alpha^b = gamma^j for j = i + c * (b * s^-1 mod e).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .gfq import FieldElement, FieldSpec, _prime_factors
from .matspace import Subspace, vector_from_index
from .polyring import Poly, order_of_polynomial


@dataclass(frozen=True)
class ExponentProfile:
    """Sorted dlogs of the q^k - 1 nonzero vectors of a k-dim subspace."""

    dim: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.exponents)) != len(self.exponents):
            raise DomainError("exponent profile has repeated exponents")
        if tuple(sorted(self.exponents)) != self.exponents:
            raise DomainError("exponent profile must be sorted")


class OrbitPartition:
    """Orbits of multiplication by alpha on the nonzero field elements.

    Every orbit has size e = ord(alpha) and is represented by its element
    of minimal gamma-dlog.  When built for a subspace, membership[i] counts
    the subspace vectors on orbit i and orbit_exponents[i] holds their
    within-orbit exponents (alpha-steps from the representative, in [0, e)).
    """

    __slots__ = ("size", "representatives", "membership", "orbit_exponents", "_ctx")

    def __init__(self, size, representatives, membership, orbit_exponents, ctx):
        self.size = size
        self.representatives = representatives
        self.membership = membership
        self.orbit_exponents = orbit_exponents
        self._ctx = ctx

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)

    def locate(self, element: FieldElement) -> tuple[int, int]:
        """(orbit index, within-orbit exponent) of a nonzero element."""
        ctx = self._ctx
        if not (isinstance(element, FieldElement) and element and element.field == ctx.field):
            raise DomainError("element is zero or from another field")
        return ctx._place(element)


class ExtensionContext:
    """Precomputed view of F_{q^n} = F_q[x]/(p) for one irreducible p."""

    __slots__ = ("field", "base", "n", "q", "modulus", "alpha", "order",
                 "primitive", "gamma", "_coords", "_reps", "_cosets", "_unit")

    def __init__(self, field: FieldSpec):
        if field.level == 0:
            raise DomainError("an extension context requires an extension field")
        modulus: Poly = field.modulus
        if not modulus.coeffs[0]:
            raise DomainError("modulus must have a nonzero constant term")
        self.field = field
        self.base = base = field.subfield
        self.n = n = field.degree
        self.q = q = base.order
        self.modulus = modulus
        self.order = e = order_of_polynomial(modulus)
        self.primitive = e == field.order - 1

        if n == 1:
            # x = -c_0 in the quotient by x + c_0.
            self.alpha = field.element([-modulus.coeffs[0]])
        else:
            self.alpha = field.element([0, 1])

        big = field.order - 1
        if self.primitive:
            self.gamma = self.alpha
        else:
            primes = _prime_factors(big)
            self.gamma = next(
                g for g in field.elements()
                if g and all(g ** (big // ell) != field.one() for ell in primes))
        self._cosets = c = big // e
        reps = [field.one()]
        for _ in range(c):
            reps.append(reps[-1] * self.gamma)
        self._reps = tuple(reps[:c])

        # coords[x.value] = i + c*b for x = gamma^i * alpha^b.  Walk each coset
        # by alpha-steps on indices: one step shifts the digits up one place
        # and adds -h * m_j, h the digit shifted out, at the nonzero
        # positions j of the monic modulus.
        add, mul = base._add, base._mul
        fold = [(q ** j, base._neg(m.value)) for j, m in enumerate(modulus.coeffs[:-1]) if m]
        top = q ** (n - 1)
        coords = array("i", [-1]) * field.order
        for i, rep in enumerate(self._reps):
            x = rep.value
            for a in range(i, big, c):
                coords[x] = a
                h, x = divmod(x, top)
                x *= q
                if h:
                    for w, m in fold:
                        digit = x // w % q
                        x += (add(digit, mul(h, m)) - digit) * w
            if x != rep.value:
                raise RuntimeError(f"alpha does not have order {e}")
        if coords.count(-1) != 1:
            raise RuntimeError("gamma does not generate the nonzero elements")
        self._coords = coords
        # gamma^c = alpha^s for a unit s mod e, and alpha = gamma^(c * s^-1).
        s, i = divmod(coords[reps[c].value], c)
        if i or gcd(s, e) != 1:
            raise RuntimeError(f"alpha does not have order {e}")
        self._unit = pow(s, -1, e)

    @classmethod
    def from_modulus(cls, modulus: Poly) -> "ExtensionContext":
        """Extend the modulus' coefficient field and wrap it."""
        return cls(modulus.field.extend(modulus))

    # -- the isomorphism -------------------------------------------------

    def phi(self, v) -> FieldElement:
        """(v_1, ..., v_n) -> sum v_i alpha^(i-1)."""
        vec = tuple(v)
        if len(vec) != self.n:
            raise DomainError(f"vector length {len(vec)} does not match n = {self.n}")
        return self.field.element(vec)

    def phi_inv(self, x: FieldElement) -> tuple[int, ...]:
        """Coefficient vector of x over the base field, as element indices."""
        return vector_from_index(self.base, self.n, self.field.element(x).value)

    def dlog(self, x: FieldElement) -> int:
        """Exponent of x with respect to gamma."""
        x = self.field.element(x)
        if not x:
            raise DomainError("discrete logarithm of zero is undefined")
        i, b = self._place(x)
        return i + self._cosets * (b * self._unit % self.order)

    # -- derived data ------------------------------------------------------

    def exponent_profile(self, u: Subspace) -> ExponentProfile:
        """Sorted dlogs of the nonzero vectors of u (primitive contexts only)."""
        if not self.primitive:
            raise DomainError("exponent profiles require a primitive context")
        self._check_subspace(u)
        exps = sorted(self.dlog(self.phi(v)) for v in u.nonzero_vectors())
        return ExponentProfile(u.dim, tuple(exps))

    def orbit_partition(self, u: Subspace | None = None) -> OrbitPartition:
        """Partition of the nonzero elements into orbits of alpha.

        Orbit i is the coset gamma^i<alpha>, i in [0, c), represented by
        gamma^i, its element of minimal gamma-dlog; gamma^j lies on orbit
        j mod c.  With a subspace given, also tallies membership counts and
        within-orbit exponents of its nonzero vectors.
        """
        if u is not None:
            self._check_subspace(u)
        reps = self._reps
        membership = None
        orbit_exponents = None
        if u is not None:
            exps: list[list[int]] = [[] for _ in reps]
            for v in u.nonzero_vectors():
                i, b = self._place(self.phi(v))
                exps[i].append(b)
            membership = tuple(len(b) for b in exps)
            orbit_exponents = tuple(tuple(sorted(b)) for b in exps)
        return OrbitPartition(self.order, reps, membership, orbit_exponents, self)

    def _place(self, x: FieldElement) -> tuple[int, int]:
        """(orbit, alpha-steps from the representative) of nonzero x."""
        a = self._coords[x.value]
        return a % self._cosets, a // self._cosets

    def _check_subspace(self, u: Subspace):
        if u.ambient != self.n or u.field != self.base:
            raise DomainError("subspace does not live in this context's vector space")
        if u.dim == 0:
            raise DomainError("the zero subspace has no exponent data")

    def __repr__(self):
        kind = "primitive" if self.primitive else f"order {self.order}"
        return f"ExtensionContext({self.modulus} over {self.base!r}, {kind})"
