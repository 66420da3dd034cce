"""Cyclic orbit codes: generation, spread construction, and the
difference-multiset predictor for cardinality and minimum distance.

A cyclic orbit code is the set {rs(U P^i)} for a starting subspace U and
an invertible generator P.  When P is the companion matrix of an
irreducible polynomial, the code's cardinality and minimum distance can be
read off the exponent profile of U: writing the nonzero vectors of U as
powers of the root (per orbit of the root when it is not primitive), the
multiset of pairwise exponent differences D determines everything.  A
shift h with full multiplicity q^k - 1 in D satisfies U P^h = U, so the
predicted cardinality is the smallest such shift (else ord(P)); among the
remaining shifts the maximum multiplicity M gives the largest codeword
intersection dimension log_q(M + 1) and hence the minimum distance
2k - 2 log_q(M + 1).

Every prediction can be cross-checked against the brute-force oracle:
generate the orbit by matrix multiplication, list every codeword's
nonzero vectors, and read each pair's intersection dimension off the
number of vectors it shares.  The oracle sees only vectors and codewords,
never exponents, the extension field or the group, so the two routes
stay strictly separate.

Code export format (text, bit exact): a header line "q n k size", then
`size` blocks, each the canonical k x n matrix of one codeword in the
matrix text format, blocks separated by one blank line, codewords sorted
lexicographically by canonical matrix.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .fieldmap import ExponentProfile, ExtensionContext
from .gfq import FieldSpec
from .matspace import (Mat, Subspace, char_poly, format_matrix, grassmannian,
                       matrix_order, parse_matrix_blocks, subspace_apply,
                       subspace_distance, vector_from_index)
from .polyring import (Poly, companion_matrix, is_primitive,
                       order_of_polynomial)


class OrbitCode:
    """The orbit of a cyclic matrix group on a starting subspace."""

    __slots__ = ("generator", "start", "codewords", "generator_order")

    def __init__(self, generator: Mat, start: Subspace,
                 codewords: tuple[Subspace, ...], generator_order: int):
        self.generator = generator
        self.start = start
        self.codewords = codewords
        self.generator_order = generator_order

    def __len__(self):
        return len(self.codewords)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.codewords)

    def __contains__(self, item):
        return item in self.codewords

    def __repr__(self):
        return (f"OrbitCode(|C|={len(self.codewords)}, k={self.start.dim}, "
                f"n={self.start.ambient}, ord(P)={self.generator_order})")


def generate_orbit(u: Subspace, p: Mat) -> OrbitCode:
    """Iterate u <- u P until the start returns; codewords sorted.

    ord(P) is the order of P's characteristic polynomial when that is
    irreducible (it is then also the minimal polynomial) and the field it
    spans is within the desk-scale cap, and is found by repeated
    multiplication otherwise.  Neither feeds the orbit: its length
    is the number of distinct words seen before the start returns.
    """
    if u.dim == 0:
        raise DomainError("orbit codes need a starting subspace of dimension >= 1")
    if p.nrows != p.ncols or p.ncols != u.ambient or p.field != u.field:
        raise DomainError("generator does not act on the starting subspace")
    if p.rank() != p.nrows:
        raise DomainError("matrix is singular")
    try:
        order = order_of_polynomial(char_poly(p))
    except DomainError:  # reducible, or above the desk-scale cap
        order = matrix_order(p)
    words = [u]
    v = Subspace(u.mat * p)
    while v != u:
        words.append(v)
        v = Subspace(v.mat * p)
    if order % len(words):
        raise RuntimeError(f"orbit length {len(words)} does not divide the "
                           f"generator order {order}")
    return OrbitCode(p, u, tuple(sorted(words)), order)


def _codeword_list(code) -> list[Subspace]:
    return list(code.codewords) if isinstance(code, OrbitCode) else sorted(set(code))


def min_distance_brute(code: OrbitCode | Iterable[Subspace]) -> int:
    """Minimum subspace distance over all unordered codeword pairs.

    This is the independent oracle for every analytic predictor here: it
    lists the nonzero vectors of every codeword and never looks at
    exponents, the extension field or the group, so it is exact for any
    constant dimension code.  Two k-dimensional words sharing s nonzero
    vectors meet in dimension d with s = q^d - 1 and lie at distance
    2k - 2d.  An incidence map from each vector to the words holding it
    finds every pair that shares one.  Memory is linear in the
    |C| (q^k - 1) vectors listed, and time in those vectors plus the pairs
    of words that share one, instead of a rank for each of the |C|^2 / 2
    pairs.
    """
    words = _codeword_list(code)
    if len(words) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    first = words[0]
    if any(w.ambient != first.ambient or w.field != first.field for w in words):
        raise DomainError("subspaces live in different ambient spaces")
    if any(w.dim != first.dim for w in words):
        raise DomainError("the brute-force distance requires a constant dimension code")
    vectors = [list(w.nonzero_vectors()) for w in words]
    holders: dict[tuple[int, ...], list[int]] = {}
    for i, vecs in enumerate(vectors):
        for key in vecs:
            holders.setdefault(key, []).append(i)
    most = 0  # largest number of nonzero vectors two words share
    for i, vecs in enumerate(vectors):
        shared = Counter(j for key in vecs for j in holders[key] if j > i)
        most = max(most, max(shared.values(), default=0))
    return 2 * first.dim - 2 * _int_log(first.field.order, most + 1)


def min_distance_orbit(code: OrbitCode) -> int:
    """Minimum distance via the base point only: min_i d(U, U P^i).

    Group invariance of the metric makes this agree with the brute-force
    minimum over all pairs.
    """
    if len(code) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    u = code.start
    return min(subspace_distance(u, v) for v in code.codewords if v != u)


def build_spread_start(k: int, n: int, poly: Poly) -> Subspace:
    """Starting subspace whose orbit under companion(poly) is a spread.

    Requires k | n and a primitive poly of degree n over F_q.  With
    c = (q^n - 1)/(q^k - 1), the rows are phi^-1(alpha^(i c)) for
    i = 0..k-1, which span the subfield F_{q^k}; the orbit then has
    cardinality c and minimum distance 2k.
    """
    if k < 1 or n % k != 0:
        raise DomainError(f"spread construction requires k | n, got k={k}, n={n}")
    if poly.degree != n:
        raise DomainError(f"polynomial degree {poly.degree} does not match n = {n}")
    if not is_primitive(poly):
        raise DomainError("spread construction requires a primitive polynomial")
    base = poly.field
    field = base.extend(poly)
    q = base.order
    c = (q ** n - 1) // (q ** k - 1)
    alpha = field.element([0, 1]) if n > 1 else field.element([-poly.coeffs[0]])
    rows = [vector_from_index(base, n, field.index_of(alpha ** (i * c)))
            for i in range(k)]
    return Subspace(Mat(base, rows))


def check_sidon_condition(profile: ExponentProfile, modulus: int) -> bool:
    """True when all pairwise exponent differences are distinct mod modulus.

    For such a profile over F_2 with a primitive generator the orbit code
    has cardinality 2^n - 1 and minimum distance 2k - 2.
    """
    diffs = DifferenceMultiset.from_exponents(profile.exponents, modulus)
    return all(m == 1 for _, m in diffs.items())


def find_sidon_subspace(ctx: ExtensionContext, k: int) -> Subspace:
    """First subspace of G(k, n), in enumeration order, whose exponent
    differences are all distinct."""
    if not ctx.primitive:
        raise DomainError("the difference condition is defined for primitive contexts")
    if ctx.q > 2:  # (v, lambda v) share dlog(lambda) for lambda != 1 in F_q^*
        raise DomainError(f"no subspace over GF({ctx.q}) has all-distinct differences: "
                          "every pair (v, lambda v) differs by dlog(lambda)")
    modulus = ctx.field.order - 1
    s = 2 ** k - 1  # nonzero vectors, so s(s - 1) ordered differences
    if s * (s - 1) > modulus - 1:
        raise DomainError(f"no subspace of G({k},{ctx.n}) has all-distinct differences: "
                          f"s(s-1) = {s * (s - 1)} exceeds the {modulus - 1} nonzero residues")
    for u in grassmannian(ctx.base, k, ctx.n):
        if check_sidon_condition(ctx.exponent_profile(u), modulus):
            return u
    raise DomainError(f"no subspace of G({k},{ctx.n}) has all-distinct differences")


class DifferenceMultiset:
    """Multiset of pairwise exponent differences modulo a group order.

    Multiplicities count ordered pairs (l, m), l != m, of b_m - b_l, so the
    total is s(s-1) for s exponents and m(a) = m(modulus - a).
    """

    __slots__ = ("modulus", "_counts")

    def __init__(self, modulus: int, counts: dict[int, int]):
        self.modulus = modulus
        self._counts = dict(counts)

    @classmethod
    def from_exponents(cls, exponents: Sequence[int], modulus: int) -> "DifferenceMultiset":
        counts: dict[int, int] = {}
        for a in exponents:
            for b in exponents:
                if a != b:
                    d = (b - a) % modulus
                    counts[d] = counts.get(d, 0) + 1
        return cls(modulus, counts)

    @classmethod
    def merged(cls, parts: Iterable["DifferenceMultiset"], modulus: int) -> "DifferenceMultiset":
        """Union of per-orbit multisets: multiplicities of equal shifts add."""
        counts: dict[int, int] = {}
        for part in parts:
            if part.modulus != modulus:
                raise DomainError("cannot merge difference multisets of unequal modulus")
            for a, m in part._counts.items():
                counts[a] = counts.get(a, 0) + m
        return cls(modulus, counts)

    def multiplicity(self, a: int) -> int:
        return self._counts.get(a % self.modulus, 0)

    def items(self) -> list[tuple[int, int]]:
        """(residue, multiplicity) pairs, sorted by residue."""
        return sorted(self._counts.items())

    def total(self) -> int:
        return sum(self._counts.values())

    def __bool__(self):
        return bool(self._counts)

    def __eq__(self, other):
        if not isinstance(other, DifferenceMultiset):
            return NotImplemented
        return self.modulus == other.modulus and self._counts == other._counts

    def __repr__(self):
        inner = ",".join(f"{a}:{m}" for a, m in self.items())
        return f"DifferenceMultiset(mod {self.modulus}: {inner})"


@dataclass(frozen=True)
class AnalysisReport:
    """Predicted (and optionally oracle-verified) orbit code parameters."""

    mode: str                   # "primitive" | "nonprimitive"
    q: int
    n: int
    k: int
    group_order: int            # ord(P), the orbit length before dedup
    membership: tuple[int, ...]             # subspace vectors per orbit
    orbit_exponents: tuple[tuple[int, ...], ...]
    per_orbit_differences: tuple[DifferenceMultiset, ...]
    differences: DifferenceMultiset          # merged multiset D
    stabilizer_shifts: tuple[int, ...]       # full-multiplicity residues
    predicted_cardinality: int
    intersection_dim: int                    # d_max = log_q(max m(a) + 1)
    predicted_distance: int | None           # None for a single-codeword orbit
    all_orbits_distinct: bool
    spread: bool
    verified_cardinality: int | None = None
    verified_distance: int | None = None

    @property
    def verified(self) -> bool:
        return self.verified_cardinality is not None

    @property
    def verification_ok(self) -> bool | None:
        if not self.verified:
            return None
        return (self.verified_cardinality == self.predicted_cardinality
                and self.verified_distance == self.predicted_distance)


def _int_log(q: int, value: int) -> int:
    d = 0
    power = 1
    while power < value:
        power *= q
        d += 1
    if power != value:
        raise RuntimeError(
            f"multiplicity {value - 1} is not of the form q^d - 1; "
            "the data does not describe subspaces")
    return d


def _predict(u, ctx, group_order, membership, orbit_exponents, verify):
    """Shared predictor core over per-orbit exponent sets mod group_order;
    the primitive case is one orbit holding all q^k - 1 vectors of u."""
    q, k, n = ctx.q, u.dim, ctx.n
    full = q ** k - 1
    per = tuple(DifferenceMultiset.from_exponents(exps, group_order)
                for exps in orbit_exponents)
    merged = DifferenceMultiset.merged(per, group_order)
    stabilizers = tuple(a for a, m in merged.items() if m == full)
    cardinality = stabilizers[0] if stabilizers else group_order
    rest = [m for a, m in merged.items() if m != full]
    d = _int_log(q, max(rest, default=0) + 1)
    distance = None if cardinality == 1 else 2 * k - 2 * d
    report = AnalysisReport(
        mode="primitive" if ctx.primitive else "nonprimitive",
        q=q, n=n, k=k, group_order=group_order, membership=membership,
        orbit_exponents=orbit_exponents, per_orbit_differences=per,
        differences=merged, stabilizer_shifts=stabilizers,
        predicted_cardinality=cardinality, intersection_dim=d,
        predicted_distance=distance,
        all_orbits_distinct=all(m <= 1 for m in membership),
        spread=(n % k == 0 and cardinality == (q ** n - 1) // full
                and (cardinality == 1 or distance == 2 * k)))
    if verify:
        return verify_report(report, generate_orbit(u, companion_matrix(ctx.modulus)))
    return report


def predict_primitive(u: Subspace, ctx: ExtensionContext,
                      verify: bool = False) -> AnalysisReport:
    """Cardinality and distance of the orbit of u under a primitive
    companion matrix, from the difference multiset of u's exponents."""
    if not ctx.primitive:
        raise DomainError("predict_primitive requires a primitive context")
    exps = ctx.exponent_profile(u).exponents
    return _predict(u, ctx, ctx.field.order - 1, (len(exps),), (exps,), verify)


def analyze_nonprimitive(u: Subspace, ctx: ExtensionContext,
                         verify: bool = False) -> AnalysisReport:
    """Cardinality and distance of the orbit of u under a non-primitive
    irreducible companion matrix, via per-orbit difference multisets.

    Full-multiplicity shifts across all orbits jointly mark duplicate
    codewords; when every orbit holds at most one vector of u the merged
    multiset is empty and the code reaches distance 2k with ord(P)
    codewords.
    """
    if ctx.primitive:
        raise DomainError("context is primitive; use predict_primitive")
    part = ctx.orbit_partition(u)
    return _predict(u, ctx, part.size, part.membership, part.orbit_exponents,
                    verify)


def analyze(u: Subspace, ctx: ExtensionContext, verify: bool = False) -> AnalysisReport:
    """Dispatch on primitivity of the context."""
    if ctx.primitive:
        return predict_primitive(u, ctx, verify)
    return analyze_nonprimitive(u, ctx, verify)


def verify_report(report: AnalysisReport, code: OrbitCode) -> AnalysisReport:
    """Attach brute-force oracle results for the generated orbit to a report."""
    vd = min_distance_brute(code) if len(code) > 1 else None
    return dataclasses.replace(report, verified_cardinality=len(code),
                               verified_distance=vd)


def conjugate_code(u: Subspace, g: Mat, s: Mat) -> tuple[Subspace, Mat]:
    """Transport an orbit code instance: (U S, S^-1 G S).

    The transported code has the same cardinality and minimum distance as
    the original.
    """
    if s.nrows != s.ncols or s.nrows != g.nrows or g.nrows != g.ncols:
        raise DomainError("conjugation requires square matrices of equal size")
    s_inv = s.inverse()  # raises DomainError("matrix is singular") if needed
    return subspace_apply(u, s), s_inv * g * s


# -- export format --------------------------------------------------------

def format_code(code: OrbitCode | Iterable[Subspace]) -> str:
    """Serialize a constant dimension code, sorted and bit exact."""
    words = _codeword_list(code)
    if not words:
        raise DomainError("cannot export an empty code")
    k, n = words[0].dim, words[0].ambient
    field = words[0].field
    if any(w.dim != k or w.ambient != n or w.field != field for w in words):
        raise DomainError("export requires a constant dimension code over one field")
    if k == 0:
        raise DomainError("cannot export the zero subspace")
    header = f"{field.order} {n} {k} {len(words)}"
    return header + "\n" + "\n\n".join(format_matrix(w.mat) for w in words) + "\n"


def parse_code(text: str, base_field: FieldSpec | None = None
               ) -> tuple[FieldSpec, list[Subspace]]:
    """Parse the code export format back into sorted canonical subspaces.

    The base field is reconstructed from the header for prime q; for a
    prime power q the caller must supply the field (the header carries no
    modulus).
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty code file")
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError("header must be 'q n k size'")
    try:
        q, n, k, size = (int(tok) for tok in head)
    except ValueError:
        raise ParseError("header fields must be integers") from None
    if base_field is None:
        try:
            base_field = FieldSpec(q)
        except DomainError as exc:
            raise ParseError(f"base field of order {q}: {exc}; a prime-power "
                             "field must be supplied explicitly") from None
    elif base_field.order != q:
        raise ParseError(f"header says q = {q} but the field has order {base_field.order}")
    blocks = parse_matrix_blocks(base_field, "\n".join(lines[1:]))
    if len(blocks) != size:
        raise ParseError(f"header promises {size} codewords, found {len(blocks)}")
    words = []
    for mat in blocks:
        if mat.nrows != k or mat.ncols != n:
            raise ParseError(f"codeword block is not {k}x{n}")
        w = Subspace(mat)
        if w.dim != k:
            raise ParseError("codeword block is rank deficient")
        words.append(w)
    out = sorted(set(words))
    if len(out) != len(words):
        raise ParseError("duplicate codewords in code file")
    return base_field, out
