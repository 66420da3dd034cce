"""The dictionary between F_q^n and the extension field F_q[x]/(p).

An ExtensionContext fixes an irreducible modulus p over a base field F_q
and makes the canonical isomorphism phi((v_1,...,v_n)) = sum v_i alpha^(i-1)
explicit, where alpha is the residue class of x.  It carries discrete
logarithms with respect to gfq._coset_walk's primitive element gamma (alpha
itself when p is primitive), the exponent profile of a subspace (the dlogs
of its nonzero vectors), and the partition of the nonzero field elements
into orbits of multiplication by alpha.

Both rest on the walk's int array, indexed by element index: with e =
ord(alpha), the c = (q^n - 1)/e orbits are the cosets gamma^i<alpha>,
i in [0, c), and the array holds i*e + b for the element gamma^i * alpha^b.
The build fills it at the walk's baby steps alpha^r, r < s, and at every
s-th element of each coset, s the integer cube root of q^n - 1.  An entry
still -1 is filled on its first read by the walk's place, which alpha-steps
to the next filled entry and fills the path, so a context computes the logs
its lookups read and few others.

The predictor's data is one partition read, orbit_partition(u): a
subspace vector's index is already its element index (phi is a change of
radix), and the array entry there gives its orbit and alpha-steps.  A
primitive context is the one-coset case c = 1, gamma = alpha: its
exponent profile is orbit 0's.  Elements are built only for the alpha,
gamma and representatives views and in phi, phi_inv, dlog and locate.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .gfq import FieldElement, FieldSpec, _coset_walk
from .matspace import Subspace, vector_from_index
from .polyring import Poly


class ExponentProfile(namedtuple("ExponentProfile", "dim exponents")):
    """Sorted dlogs (a tuple of ints) of the q^k - 1 nonzero vectors of a
    k-dim subspace."""

    __slots__ = ()

    def __new__(cls, dim: int, exponents: tuple[int, ...]):
        if len(set(exponents)) != len(exponents):
            raise DomainError("exponent profile has repeated exponents")
        if tuple(sorted(exponents)) != exponents:
            raise DomainError("exponent profile must be sorted")
        return super().__new__(cls, dim, exponents)

    @classmethod
    def _make(cls, iterable):
        """Checked like a direct construction; _replace builds through it."""
        return cls(*iterable)


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
        return ctx._place(element.value)


class ExtensionContext:
    """Precomputed view of F_{q^n} = F_q[x]/(p) for one irreducible p."""

    __slots__ = ("field", "base", "n", "q", "modulus", "alpha", "order",
                 "primitive", "gamma", "_coords", "_fill", "_reps", "_unit")

    def __init__(self, field: FieldSpec):
        if field.level == 0:
            raise DomainError("an extension context requires an extension field")
        modulus: Poly = field.modulus
        if not modulus.coeffs[0]:
            raise DomainError("modulus must have a nonzero constant term")
        self.field, self.base, self.modulus = field, field.subfield, modulus
        self.n, self.q = field.degree, field.subfield.order
        self._coords, reps, alpha, self._unit, self._fill = _coset_walk(field)
        c = len(reps) - 1
        self.order = (field.order - 1) // c
        self.primitive = c == 1
        self.alpha, self.gamma = field.from_index(alpha), field.from_index(reps[1])
        self._reps = tuple(map(field.from_index, reps[:c]))

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
        return self._log(x.value)

    # -- derived data ------------------------------------------------------

    def exponent_profile(self, u: Subspace) -> ExponentProfile:
        """Sorted dlogs of u's nonzero vectors: orbit 0's alpha-steps (primitive only)."""
        if not self.primitive:
            raise DomainError("exponent profiles require a primitive context")
        return ExponentProfile(u.dim, self.orbit_partition(u).orbit_exponents[0])

    def orbit_partition(self, u: Subspace | None = None) -> OrbitPartition:
        """Partition of the nonzero elements into orbits of alpha.

        Orbit i is the coset gamma^i<alpha>, i in [0, c), represented by
        gamma^i, its element of minimal gamma-dlog; gamma^j lies on orbit
        j mod c.  With a subspace given, also tallies membership counts and
        within-orbit exponents of its nonzero vectors.
        """
        reps = self._reps
        if u is None:
            return OrbitPartition(self.order, reps, None, None, self)
        if u.ambient != self.n or u.field != self.base:
            raise DomainError("subspace does not live in this context's vector space")
        if u.dim == 0:
            raise DomainError("the zero subspace has no exponent data")
        e, coords, fill = self.order, self._coords, self._fill
        exps: list[list[int]] = [[] for _ in reps]
        for x in u.nonzero_vectors():
            a = coords[x]
            if a < 0:
                a = fill(x)
            exps[a // e].append(a % e)
        return OrbitPartition(self.order, reps, tuple(map(len, exps)),
                              tuple(tuple(sorted(b)) for b in exps), self)

    def _place(self, x: int) -> tuple[int, int]:
        """(orbit, alpha-steps from its representative) of nonzero index x."""
        a = self._coords[x]
        if a < 0:
            a = self._fill(x)
        return divmod(a, self.order)

    def _log(self, x: int) -> int:
        """Exponent with respect to gamma of the nonzero element with index x."""
        i, b = self._place(x)
        return i + len(self._reps) * (b * self._unit % self.order)

    def __repr__(self):
        kind = "primitive" if self.primitive else f"order {self.order}"
        return f"ExtensionContext({self.modulus} over {self.base!r}, {kind})"
