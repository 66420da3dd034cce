"""The dictionary between F_q^n and the extension field F_q[x]/(p).

An ExtensionContext fixes an irreducible modulus p over a base field F_q
and makes the canonical isomorphism phi((v_1,...,v_n)) = sum v_i alpha^(i-1)
explicit, where alpha is the residue class of x.  It carries discrete
logarithms with respect to a primitive element gamma (alpha itself when p
is primitive), the exponent profile of a subspace (the dlogs of its nonzero
vectors), and the partition of the nonzero field elements into orbits of
multiplication by alpha.

All of them rest on one int array, indexed by element index and built by
the coset walk, ExtensionContext.__init__, on indices.  With e = ord(alpha),
the c = (q^n - 1)/e orbits are the cosets gamma^i<alpha>, i in [0, c), and
the array holds i*e + b at the element gamma^i * alpha^b, or -1 while that
is unknown: coset-major, so coset 0 is written before c is known.  An
alpha-step is gfq._alpha_step's, a digit shift and one vector add, so it
makes no product in the field; the product by alpha^s is linear over F_q,
a read in each of two block image tables of its shifted rows x^s, ...,
x^(s + n - 1) (matspace._spanner's span) and one add.

e comes from Shanks' baby-step giant-step, s the integer cube root of
q^n - 1, trusting FieldSpec.extend's irreducibility proof: the baby steps
alpha^r, r < s, are written at r, and e is the first r > 0 with
alpha^r = 1, if any; else the giant steps alpha^(s j) are written at s j
until one meets a filled entry, a baby step alpha^a, and e = s j - a, the
least such exponent.  No polynomial order is computed and q^n - 1 is not
factored.  The other cosets get their landmarks gamma^i * alpha^b, b a
multiple of s, each the one before times alpha^s.  An entry still -1 is
filled on its first read: the lookup alpha-steps forward, fewer than s
steps, to the first filled entry and fills the whole path, so a context
computes the logs its lookups read and few others.  The build makes about
(q^n - 1)/s giant steps and all cold lookups together at most q^n - 1
alpha-steps, so s near (q^n - 1)^(1/3) balances the build against the
q^k - 1 lookups of a predictor query.

gamma is alpha when e = q^n - 1, else the first element in enumeration
order of order q^n - 1, searched on coset 0: x lies in <alpha> when a
lookup from x meets a filled entry, and g has order q^n - 1 exactly when
g^(c/l) lies outside <alpha> for every prime l | c (g has order c modulo
<alpha>) and g^c = alpha^b with gcd(b, e) = 1 (g^c has order e).  Each
coset representative is the one before times gamma.  With gamma^c =
alpha^t and unit = t^-1 mod e, alpha = gamma^(c * unit), so gamma^i *
alpha^b = gamma^j for j = i + c * (b * unit mod e).  A reducible modulus
let past extend raises RuntimeError: e does not divide q^n - 1, or gamma
does not generate the nonzero elements.

The predictor's data is one partition read, orbit_partition(u): a
subspace vector's index is already its element index (phi is a change of
radix), and the array entry there gives its orbit and alpha-steps.  A
primitive context is the one-coset case c = 1, gamma = alpha: its
exponent profile is orbit 0's.  The log/antilog tables of gfq's schoolbook
product read every log at once, off a context of their field.  Elements
are built only for the alpha, gamma and representatives views and in phi,
phi_inv, dlog and locate.  Two threads that race on a context's array fill
an entry with the same value, so a context is safe to share between
threads.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import gcd

from .errors import DomainError
from .gfq import FieldElement, FieldSpec, _alpha_step, _prime_factors
from .matspace import Subspace, _spanner, vector_from_index
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

    __slots__ = ("field", "base", "n", "q", "modulus", "alpha", "order", "primitive",
                 "gamma", "_coords", "_reps", "_unit", "_step", "_stride")

    # Single runs over GF(2) at 2^20 (x^20+x^3+1) and at the cap 2^24
    # (x^24+x^7+x^2+x+1), Python 3.11.7, 2 vCPU Xeon, interpreter alone
    # 13-16 MB: the build takes 4.9-6.0 ms at 19.6 MB max RSS and 56-80 ms
    # at 79.6 MB, half or less of its time when ord(alpha) was read off p.
    def __init__(self, field: FieldSpec):
        """The coset walk of the module docstring, on field's indices."""
        if field.level == 0:
            raise DomainError("an extension context requires an extension field")
        modulus: Poly = field.modulus
        if not modulus.coeffs[0]:
            raise DomainError("modulus must have a nonzero constant term")
        sub = field.subfield
        self.field, self.base, self.modulus = field, sub, modulus
        n, q, big = field.degree, sub.order, field.order - 1
        self.n, self.q = n, q
        s = int(big ** (1 / 3) + 1e-9)  # 1e-9 lifts a cube's root; others are 1e-6 off an int
        step = _alpha_step(sub, [m.value for m in modulus.coeffs[:-1]])
        coords = array("i", [-1]) * field.order
        add = field._add
        # x^j, j < s + n: the baby steps and the rows of alpha^s's block tables.
        rows = [1]
        for _ in range(s + n - 1):
            rows.append(step(rows[-1]))
        size = q ** (n // 2)
        span, _ = _spanner(sub, n)
        low, high = span(rows[s:s + n // 2]), span(rows[s + n // 2:])
        e = next((r for r in range(1, s) if rows[r] == 1), 0)
        for r in range(e or s):
            coords[rows[r]] = r
        x, b = 1, 0
        while not e and b < big:
            x, b = add(low[x % size], high[x // size]), b + s
            if coords[x] < 0:
                coords[x] = b
            else:
                e = b - coords[x]
        if not e or big % e:
            raise RuntimeError(f"alpha has no order dividing {big}")
        c = big // e
        self._coords, self._step, self._stride, self.order = coords, step, s, e
        self.primitive = c == 1
        if c == 1:
            gamma = rows[1]
        else:
            power, primes, seek = field._pow, _prime_factors(c), self._seek
            gamma = next(g for g in range(1, field.order)
                         if seek(g) < 0
                         and all(seek(power(g, c // ell)) < 0 for ell in primes)
                         and gcd(seek(power(g, c)), e) == 1)
        reps = [1, gamma]
        for i in range(1, c):
            x = reps[i]
            for a in range(i * e, i * e + e, s):
                coords[x] = a
                x = add(low[x % size], high[x // size])
            reps.append(field._mul(reps[i], gamma))
        i, t = self._place(reps[c])
        if i or gcd(t, e) != 1:
            raise RuntimeError("gamma does not generate the nonzero elements")
        self._unit = pow(t, -1, e)
        self.alpha, self.gamma = field.from_index(rows[1]), field.from_index(gamma)
        self._reps = tuple(reps[:c])

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
        reps = tuple(map(self.field.from_index, self._reps))
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

    # -- the log array -----------------------------------------------------

    def _seek(self, x: int) -> int:
        """The array entry at nonzero index x, filled on a miss; -1 when
        none of x and its next s - 1 alpha-steps is filled."""
        coords, e, step, path = self._coords, self.order, self._step, []
        for _ in range(self._stride):
            a = coords[x]
            if a >= 0:
                for y in reversed(path):
                    a = a - 1 if a % e else a + e - 1  # one alpha-step back
                    coords[y] = a
                return a
            path.append(x)
            x = step(x)
        return -1

    def _fill(self, x: int) -> int:
        """_seek(x), which the finished build always finds."""
        a = self._seek(x)
        if a < 0:
            raise RuntimeError("gamma does not generate the nonzero elements")
        return a

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

    def _logs(self) -> list[int]:
        """Every exponent with respect to gamma, by element index (entry 0,
        for zero, is never read): the misses filled, then the whole array
        decoded in one pass."""
        coords, seek = self._coords, self._seek  # not _fill: one call less a miss
        for x in range(1, self.field.order):
            if coords[x] < 0 and seek(x) < 0:
                raise RuntimeError("gamma does not generate the nonzero elements")
        e, c, unit = self.order, len(self._reps), self._unit
        return [a // e + c * (a % e * unit % e) for a in coords]

    def __repr__(self):
        kind = "primitive" if self.primitive else f"order {self.order}"
        return f"ExtensionContext({self.modulus} over {self.base!r}, {kind})"
