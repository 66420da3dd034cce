"""Cyclic orbit codes: generation, spread construction, and the
difference-multiset predictor for cardinality and minimum distance.

A cyclic orbit code is the set {rs(U P^i)} for a starting subspace U and
an invertible generator P.  When P is the companion matrix of an
irreducible polynomial, the code's cardinality and minimum distance are
read off one partition: write each nonzero vector of U as alpha-steps
within its orbit of the root alpha (c = (q^n - 1)/ord(P) orbits, one when
P is primitive); the per-orbit multisets of pairwise exponent differences,
merged into D, determine everything.  A shift h with full multiplicity
q^k - 1 in D satisfies U P^h = U, so the predicted cardinality is the
smallest such shift (else ord(P)); among the remaining shifts the maximum
multiplicity M gives the largest codeword intersection dimension
log_q(M + 1) and hence the minimum distance 2k - 2 log_q(M + 1).  D is
symmetric, m(a) = m(e - a) for e = ord(alpha), so it keeps one count
per residue pair {a, e - a}, each unordered exponent pair counted once.

Every prediction can be cross-checked by brute force on vector indices,
with P's image table (entry x is the index of x P, built once and kept
with P) and never the extension field, its logs or the partition.  An
orbit code is one orbit of a cyclic group, so |U P^a ∩ U P^b| =
|U ∩ U P^(b-a)| (Trautmann, Manganiello, Braun and Rosenthal, "Cyclic
orbit codes", IEEE Trans. IT 59(11), 2013): the walk, _walk_orbit, maps
U's nonzero vectors through the table one shift at a time and counts
those that land in U again.  The first shift at which all q^k - 1 return
is |C|, and the largest count before it gives the minimum distance; the
orbit itself is never listed.  generate_orbit maps U's rows through the
same table to list the words, for the export, and ord(P), when read, is
counted on it.  The distance command reads a file, which may hold any
constant dimension code, so it keeps the incidence oracle,
min_distance_brute, and so does spread --verify, which checks the
listed words as a set (_oracle_report).  The oracle lists the nonzero
vectors of all codewords side by side, one block per coefficient
combination, and reads each pair's intersection dimension off the number
of vectors it shares; a code in which no vector has two holders, such as
a spread, is read at distance 2k from one set and counts nothing, and the
scan stops at the first pair that shares q^(k-1) - 1 vectors, the most two
distinct words can.  It sees only vectors and codewords, never the group,
and stays the reference the walk is tested against.

A codeword is a Subspace, which holds its canonical rows as vector
indices (matspace._echelon): OrbitCode.codewords reduces each orbit word's
row indices as they are, the export prints each row's digits from its
index, and the import reads each checked text row into its index.  One
routine, _distinct_words, checks a code's words (nonzero, of one
dimension, field and ambient space) and drops duplicates, for the oracle,
which needs no order (the distance command hands it a file's words
unsorted); _canonical_words sorts them once for OrbitCode.codewords, the
export and parse_code.  The sort follows the
digit rows, digit 0 first, not the indices: a row's key is the index of
its digits reversed, over GF(2) its n bits reversed.

Code export format (text, bit exact): a header line "q n k size", then
`size` blocks, each the canonical k x n matrix of one codeword in the
matrix text format, blocks separated by one blank line, codewords sorted
lexicographically by canonical matrix.  The header is read and checked
before any block, so the distance command refuses a code above the
oracle's budget from its header alone.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, combinations, compress, repeat, starmap
from operator import add, sub

from .errors import DomainError, ParseError
from .fieldmap import ExponentProfile, ExtensionContext
from .gfq import DESK_SCALE_CAP, FieldSpec, _max_exponent, _prime_factors
from .matspace import (Mat, Subspace, _image_table, _parse_blocks, _row_key, _row_text,
                       _spanner, gaussian_binomial, grassmannian, matrix_order,
                       subspace_apply)
from .polyring import companion_matrix


class OrbitCode:
    """The orbit of a cyclic matrix group on a starting subspace: rows[i]
    holds the k row vector indices of U P^i; codewords, the sorted
    canonical subspaces, and ord(P) are computed on first use."""

    def __init__(self, generator: Mat, start: Subspace,
                 rows: tuple[tuple[int, ...], ...]):
        self.generator, self.start, self.rows = generator, start, rows

    @functools.cached_property
    def generator_order(self) -> int:
        """ord(P), counted on P's image table; the orbit length divides it."""
        order = matrix_order(self.generator)
        if order % len(self.rows):
            raise RuntimeError(f"orbit length {len(self)} does not divide the "
                               f"generator order {order}")
        return order

    @functools.cached_property
    def codewords(self) -> tuple[Subspace, ...]:
        field, n = self.start.field, self.start.ambient
        return tuple(_canonical_words(Subspace._span(field, n, rows) for rows in self.rows))

    def __len__(self):
        return len(self.rows)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.codewords)

    def __repr__(self):
        return (f"OrbitCode(|C|={len(self)}, k={self.start.dim}, "
                f"n={self.start.ambient}, ord(P)={self.generator_order})")


def _check_action(u: Subspace, p: Mat) -> None:
    """Refuse a zero start, or a generator that does not act on its space."""
    if u.dim == 0:
        raise DomainError("orbit codes need a starting subspace of dimension >= 1")
    if p.nrows != p.ncols or p.ncols != u.ambient or p.field != u.field:
        raise DomainError("generator does not act on the starting subspace")


def generate_orbit(u: Subspace, p: Mat) -> OrbitCode:
    """Map U's row vector indices through P's image table (the span of P's
    rows: entry x is the index of x P, built once and kept on P) until they
    lie in U again.  ord(P) is not needed for this; OrbitCode.generator_order
    counts it on the same table when read.
    """
    _check_action(u, p)
    table = _image_table(p)
    span, _ = _spanner(p.field, p.ncols)
    rows = u.basis
    start, words = set(span(rows)), []
    while not words or not start.issuperset(rows):
        words.append(rows)
        rows = tuple(map(table.__getitem__, rows))
    return OrbitCode(p, u, tuple(words))


#: Most nonzero vectors, |C| (q^k - 1), that min_distance_brute lists.
#: Measured over GF(2) (Python 3.11.7, 2 vCPU Xeon; median of five single
#: runs, range in brackets): the full-length n = 16, k = 3 orbit code from
#: rows e1, e2, e3 (458745 vectors, distance 2) in 0.19 s (0.16-0.26),
#: adding 18 MB to max RSS; at the budget, 8 random words with k = 16 in
#: GF(2)^24 (524280 vectors) in 0.54 s (0.42-0.56), adding 48 MB.
ORACLE_VECTOR_BUDGET = 1 << 19


def _check_oracle_budget(size: int, q: int, k: int) -> None:
    """Refuse a code of size words of dimension k over GF(q) whose
    size (q^k - 1) nonzero vectors exceed ORACLE_VECTOR_BUDGET."""
    listed = size * (q ** k - 1)
    if listed > ORACLE_VECTOR_BUDGET:
        raise DomainError(f"the oracle would list {listed} vectors, above its budget "
                          f"of {ORACLE_VECTOR_BUDGET}")


def min_distance_brute(code: OrbitCode | Iterable[Subspace]) -> int:
    """Minimum subspace distance over all unordered codeword pairs.

    The incidence oracle of the distance command, and the reference the
    walk (_walk_orbit) is tested against: it lists the nonzero vectors of
    every codeword as vector indices, spanned from an OrbitCode's rows or
    from other words' canonical rows, and never looks at exponents, the
    extension field or the group, so it is exact for any constant
    dimension code.  Two k-dimensional words sharing s
    nonzero vectors meet in dimension d with s = q^d - 1 and lie at
    distance 2k - 2d.  All words are spanned side by side, one block of
    |C| vectors per coefficient combination.  One set, filled block by
    block, stops at the first block that brings a vector a second holder.
    If none does, no two words meet and the distance is 2k, as in every
    spread, and nothing is counted.  Otherwise one count over the blocks
    gives each vector's number of holders, and an incidence map from each
    shared vector to the words holding it counts, for each word, the
    vectors it shares with every word it meets.  Two distinct words share
    at most q^(k-1) - 1 vectors, so the scan of the words stops at the
    first pair that shares that many: the distance is then 2, exactly.
    Memory is linear in the |C| (q^k - 1) vectors listed, and time in those
    vectors plus the pairs of words that share one, instead of a rank for
    each of the |C|^2 / 2 pairs.  Codes of more than ORACLE_VECTOR_BUDGET
    vectors are refused.
    """
    orbit = isinstance(code, OrbitCode)
    words = code.rows if orbit else _distinct_words(code)
    first = code.start if orbit else words[0]
    if len(words) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    _check_oracle_budget(len(words), first.field.order, first.dim)
    _, spans = _spanner(first.field, first.ambient)
    rows = words if orbit else [w.basis for w in words]
    blocks = spans(list(zip(*rows)))[1:]  # blocks[c - 1][i]: vector c of word i
    seen: set[int] = set()
    for listed, block in enumerate(blocks, 1):
        seen.update(block)
        if len(seen) < listed * len(words):  # a vector has two holders
            break
    else:
        return 2 * first.dim  # no two words meet
    del seen
    counts = Counter(chain.from_iterable(blocks))
    cap = first.field.order ** (first.dim - 1) - 1  # the most two distinct words share
    holders: dict[int, list[int]] = {key: [] for key, n in counts.items() if n > 1}
    del counts  # freed before the holder lists grow
    index = list(range(len(words)))  # one int object per word, in all its lists
    for block in blocks:
        for key, i in compress(zip(block, index), map(holders.__contains__, block)):
            holders[key].append(i)
    most = 0  # largest number of nonzero vectors two words share
    for i, vectors in enumerate(zip(*blocks)):
        met = Counter(chain.from_iterable(map(holders.get, vectors, repeat(()))))
        met.pop(i, None)
        most = max(most, max(met.values(), default=0))
        if most == cap:
            break
    return 2 * first.dim - 2 * _int_log(first.field.order, most + 1)


#: Most reads that _walk_orbit makes: a shift reads q^k - 1 vectors and is
#: charged 4 reads more for its own overhead.  Measured over GF(2) (Python
#: 3.11.7, 2 vCPU Xeon; five single runs in process, P's image table built
#: first), walks refused at the budget took 0.49-0.54 s with k = 11 in
#: F_2^12, 0.53-0.60 s with k = 6 in F_2^16, and 0.63-0.91 s with k = 2 and 3
#: in F_2^20 and k = 1 in F_2^22, adding no memory to the table's.  Charged
#: q^k - 1 reads alone, the k = 1 walk took 3.7-4.4 s to reach the budget.
WALK_READ_BUDGET = 1 << 22


def _walk_orbit(u: Subspace, p: Mat) -> tuple[int, int | None]:
    """(|C|, d) of the orbit of U under P, d None when |C| = 1.

    Let S be U's q^k - 1 nonzero vectors.  Shift i maps S P^(i-1) through
    P's image table to S P^i and counts the vectors that lie in S, which
    are the q^j - 1 nonzero vectors of U ∩ U P^i, j its dimension.  The
    first shift at which all of S returns is |C|.  As |U P^a ∩ U P^b| =
    |U ∩ U P^(b-a)| on one orbit, the largest count before it, q^j - 1,
    gives the minimum distance 2k - 2j.  A walk that would pass
    WALK_READ_BUDGET reads before S returns is refused when it gets there.
    It reads U's rows and P's table, never the extension field.
    """
    _check_action(u, p)
    table = _image_table(p)
    span, _ = _spanner(p.field, p.ncols)
    block = span(u.basis)[1:]
    # each shift is charged q^k - 1 + 4 reads (see WALK_READ_BUDGET)
    full, most, limit = len(block), 0, WALK_READ_BUDGET // (len(block) + 4)
    inside, step = set(block).intersection, table.__getitem__
    for size in range(1, limit + 1):
        block = list(map(step, block))
        hits = len(inside(block))  # block's vectors are distinct: P is invertible
        if hits == full:
            break
        if hits > most:
            most = hits
    else:
        raise DomainError(f"the orbit has more than {limit} words: its walk would "
                          f"pass its budget of {WALK_READ_BUDGET} reads")
    if size == 1:
        return 1, None
    return size, 2 * u.dim - 2 * _int_log(p.field.order, most + 1)


def min_distance_orbit(code: OrbitCode) -> int:
    """Minimum distance of an orbit code by the walk (_walk_orbit) of its
    start under its generator: min_i d(U, U P^i), which group invariance
    of the metric makes the minimum over all pairs.  It reads P's image
    table, never the field; min_distance_brute is the reference it is
    tested against."""
    if len(code) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    return _walk_orbit(code.start, code.generator)[1]


def _check_spread_shape(k: int, n: int) -> None:
    """Refuse a spread of k-dimensional words unless k | n; cheap enough to
    run before the context is built."""
    if k < 1 or n % k != 0:
        raise DomainError(f"spread construction requires k | n, got k={k}, n={n}")


def _check_primitive(primitive: bool) -> None:
    if not primitive:
        raise DomainError("spread construction requires a primitive polynomial")


def build_spread_start(k: int, n: int, ctx: ExtensionContext) -> Subspace:
    """Starting subspace whose orbit under companion(ctx.modulus) is a spread.

    Requires k | n, a context of degree n and a primitive modulus, read off
    ctx.primitive: the context's irreducibility proof and order are the only
    ones.  With c = (q^n - 1)/(q^k - 1), the rows are phi^-1(y^i) for
    y = alpha^c, the coefficients of x^(i c) mod the modulus, for i =
    0..k-1: one power and k - 2 products.  They span the subfield F_{q^k},
    and the orbit has cardinality c and minimum distance 2k.
    """
    _check_spread_shape(k, n)
    if ctx.n != n:
        raise DomainError(f"polynomial degree {ctx.n} does not match n = {n}")
    _check_primitive(ctx.primitive)
    field, q = ctx.field, ctx.q
    c = (q ** n - 1) // (q ** k - 1)
    # phi is a change of radix: an element's index is its vector's index.
    y = field._pow(ctx.alpha.value, c)
    rows = [1, y]
    for _ in range(k - 2):
        rows.append(field._mul(rows[-1], y))
    return Subspace._span(ctx.base, n, rows[:k])


def check_sidon_condition(profile: ExponentProfile, modulus: int) -> bool:
    """True when all pairwise exponent differences are distinct mod modulus.

    For such a profile over F_2 with a primitive generator the orbit code
    has cardinality 2^n - 1 and minimum distance 2k - 2.
    """
    diffs = DifferenceMultiset.from_exponents(profile.exponents, modulus)
    return all(m == 1 for m in diffs._counts.values())


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
    """Multiset of pairwise exponent differences modulo a group order M.

    Multiplicities count ordered pairs (l, m), l != m, of b_m - b_l, so the
    total is s(s-1) for s exponents and m(a) = m(M - a).  The counts are
    kept once per residue pair {a, M - a}, under the key |M - 2a| the two
    share: key 0 is a = M/2, which only an even M has.
    """

    __slots__ = ("modulus", "_counts")

    def __init__(self, modulus: int, counts: dict[int, int]):
        """A multiset from full counts {residue: multiplicity}; refuses a
        key outside 1 .. modulus - 1 and counts with m(a) != m(modulus - a),
        which no difference of distinct residues has."""
        if any(not 0 < a < modulus for a in counts):
            raise DomainError(f"difference counts hold a residue outside 1 .. {modulus - 1}")
        if any(counts.get(modulus - a) != m for a, m in counts.items()):
            raise DomainError(f"difference counts are not symmetric mod {modulus}")
        self.modulus = modulus
        self._counts = {abs(modulus - 2 * a): m for a, m in counts.items()}

    @classmethod
    def _wrap(cls, modulus: int, counts: dict[int, int]) -> "DifferenceMultiset":
        """A multiset on keyed counts that no caller holds or changes, uncopied."""
        ms = object.__new__(cls)
        ms.modulus, ms._counts = modulus, counts
        return ms

    @classmethod
    def from_exponents(cls, exponents: Sequence[int], modulus: int) -> "DifferenceMultiset":
        """Differences of exponents that are distinct residues mod modulus.

        Each unordered pair is counted once, with no Python step per pair:
        for doubled residues 2a < 2b, |2a - 2b + M| is the key of both
        b - a and M - (b - a).  Both orders of a pair land on key 0, so its
        count is doubled.
        """
        doubled = sorted({a % modulus * 2 for a in exponents})
        if len(doubled) != len(exponents):
            raise DomainError(f"exponents are not distinct residues mod {modulus}")
        counts = Counter(map(abs, map(add, starmap(sub, combinations(doubled, 2)),
                                      repeat(modulus))))
        if 0 in counts:
            counts[0] *= 2
        return cls._wrap(modulus, counts)

    @classmethod
    def merged(cls, parts: Iterable["DifferenceMultiset"], modulus: int) -> "DifferenceMultiset":
        """Union of per-orbit multisets: multiplicities of equal shifts add.
        A single part's counts are shared, not copied."""
        parts = list(parts)
        if any(part.modulus != modulus for part in parts):
            raise DomainError("cannot merge difference multisets of unequal modulus")
        if len(parts) == 1:
            return cls._wrap(modulus, parts[0]._counts)
        counts: Counter[int] = Counter()
        for part in parts:
            counts.update(part._counts)
        return cls._wrap(modulus, counts)

    def _residues(self, key: int) -> tuple[int, ...]:
        """The residues a with |M - 2a| = key: M/2 alone for key 0."""
        low = (self.modulus - key) // 2
        return (low, self.modulus - low) if key else (low,)

    def multiplicity(self, a: int) -> int:
        return self._counts.get(abs(self.modulus - 2 * (a % self.modulus)), 0)

    def items(self) -> list[tuple[int, int]]:
        """(residue, multiplicity) pairs, sorted by residue."""
        return sorted((a, m) for key, m in self._counts.items() for a in self._residues(key))

    def total(self) -> int:
        return 2 * sum(self._counts.values()) - self._counts.get(0, 0)

    def __bool__(self):
        return bool(self._counts)

    def __eq__(self, other):
        if not isinstance(other, DifferenceMultiset):
            return NotImplemented
        return self.modulus == other.modulus and self._counts == other._counts

    def __repr__(self):
        inner = ",".join(f"{a}:{m}" for a, m in self.items())
        return f"DifferenceMultiset(mod {self.modulus}: {inner})"


class AnalysisReport(namedtuple("AnalysisReport", [
        "mode",                   # "primitive" | "nonprimitive"
        "q", "n", "k",
        "group_order",            # ord(P), the orbit length before dedup
        "membership",             # tuple[int, ...]: subspace vectors per orbit
        "orbit_exponents",        # tuple[tuple[int, ...], ...]
        "per_orbit_differences",  # tuple[DifferenceMultiset, ...]
        "differences",            # DifferenceMultiset: the merged multiset D
        "stabilizer_shifts",      # tuple[int, ...]: full-multiplicity residues
        "predicted_cardinality",
        "intersection_dim",       # d_max = log_q(max m(a) + 1)
        "predicted_distance",     # int | None: None for a single-codeword orbit
        "all_orbits_distinct", "spread",
        "verified_cardinality",   # int | None: set by the walk or the oracle
        "verified_distance",      # int | None
        ], defaults=(None, None))):
    """Predicted (and optionally oracle-verified) orbit code parameters:
    an immutable named tuple, so _replace makes a modified copy."""

    __slots__ = ()

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
    d = _max_exponent(q, value)
    if q ** d != value:
        raise RuntimeError(
            f"multiplicity {value - 1} is not of the form q^d - 1; "
            "the data does not describe subspaces")
    return d


#: Most exponent pairs that _predict counts: s(s - 1)/2 for the s vectors
#: on each orbit, summed over the orbits.  Measured (Python 3.11.7, 2 vCPU
#: Xeon; three single runs, each in a fresh process): 1047628 pairs of
#: random residues mod 2^24 - 1, nearly every difference its own key, were
#: counted in 0.62-0.65 s, adding 81 MB to max RSS; the 522753 pairs of
#: rows e1..e10 in 0.11-0.13 s under x^12+x^6+x^4+x+1 and 0.22-0.30 s
#: (adding 20 MB) under x^24+x^7+x^2+x+1.  Rows e1..e11 of F_2^12 (2094081
#: pairs) are refused in 3 ms; counting them took 0.48-0.53 s before.  Rows
#: e1..e20 under that degree-24 modulus are refused on ord(p) alone, before
#: the context: `analyze` exits 3 in 0.09-0.14 s at 16 MB max RSS, where the
#: context took 0.23 s and 80 MB (processes; 8.0 s, 143 MB partitioning).
PAIR_BUDGET = 1 << 20


def _check_pairs(pairs: int) -> None:
    if pairs > PAIR_BUDGET:
        raise DomainError(f"the predictor would count {pairs} exponent pairs, above its "
                          f"budget of {PAIR_BUDGET}")


def _check_least_pairs(q: int, n: int, k: int, order) -> None:
    """Refuse a k-dimensional start in F_q^n on the fewest exponent pairs
    its q^k - 1 vectors can make on the c orbits of alpha (spread evenly;
    exact for c = 1).  order() gives ord(alpha), and is read only when the
    vectors on one orbit would pass PAIR_BUDGET: below that, so do c."""
    full = q ** k - 1
    if full * (full - 1) // 2 > PAIR_BUDGET:
        c = (q ** n - 1) // order()
        even, rest = divmod(full, c)
        _check_pairs(c * even * (even - 1) // 2 + rest * even)


def _predict(u, ctx, verify):
    """Predictor over the per-orbit exponent sets of u's partition, mod
    ord(alpha); the primitive case is one orbit holding all q^k - 1 vectors.
    A start with more than PAIR_BUDGET exponent pairs is refused before any
    is counted: first by _check_least_pairs, before the partition, then on
    the partition's own count."""
    q, k, n = ctx.q, u.dim, ctx.n
    full = q ** k - 1
    _check_least_pairs(q, n, k, lambda: ctx.order)
    part = ctx.orbit_partition(u)
    _check_pairs(sum(s * (s - 1) // 2 for s in part.membership))
    per = tuple(DifferenceMultiset.from_exponents(exps, part.size)
                for exps in part.orbit_exponents)
    merged = DifferenceMultiset.merged(per, part.size)
    counts = merged._counts
    mults = set(counts.values())
    stabilizers = (tuple(sorted(a for key, m in counts.items() if m == full
                                for a in merged._residues(key)))
                   if full in mults else ())
    cardinality = stabilizers[0] if stabilizers else part.size
    d = _int_log(q, max(mults - {full}, default=0) + 1)
    distance = None if cardinality == 1 else 2 * k - 2 * d
    report = AnalysisReport(
        mode="primitive" if ctx.primitive else "nonprimitive",
        q=q, n=n, k=k, group_order=part.size, membership=part.membership,
        orbit_exponents=part.orbit_exponents, per_orbit_differences=per,
        differences=merged, stabilizer_shifts=stabilizers,
        predicted_cardinality=cardinality, intersection_dim=d,
        predicted_distance=distance,
        all_orbits_distinct=all(m <= 1 for m in part.membership),
        spread=(n % k == 0 and cardinality == (q ** n - 1) // full
                and (cardinality == 1 or distance == 2 * k)))
    if verify:
        return _walked(report, u, companion_matrix(ctx.modulus))
    return report


def predict_primitive(u: Subspace, ctx: ExtensionContext,
                      verify: bool = False) -> AnalysisReport:
    """Cardinality and distance of the orbit of u under a primitive
    companion matrix, from the difference multiset of u's exponents."""
    if not ctx.primitive:
        raise DomainError("predict_primitive requires a primitive context")
    return _predict(u, ctx, verify)


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
    return _predict(u, ctx, verify)


def analyze(u: Subspace, ctx: ExtensionContext, verify: bool = False) -> AnalysisReport:
    """Dispatch on primitivity of the context."""
    if ctx.primitive:
        return predict_primitive(u, ctx, verify)
    return analyze_nonprimitive(u, ctx, verify)


def _walked(report: AnalysisReport, u: Subspace, p: Mat) -> AnalysisReport:
    """report with the walk's |C| and d for the orbit of u under p."""
    size, distance = _walk_orbit(u, p)
    return report._replace(verified_cardinality=size, verified_distance=distance)


def verify_report(report: AnalysisReport, code: OrbitCode) -> AnalysisReport:
    """Attach brute-force results to a report: the walk of code.start under
    code.generator, which reads P's image table and never the extension
    field, so it does not list the orbit's words."""
    return _walked(report, code.start, code.generator)


def _oracle_report(report: AnalysisReport, code: OrbitCode) -> AnalysisReport:
    """report with the listed orbit's size and its incidence oracle
    distance (min_distance_brute): the check of spread --verify, which
    reads the words as a set, as the distance command does."""
    distance = min_distance_brute(code) if len(code) > 1 else None
    return report._replace(verified_cardinality=len(code), verified_distance=distance)


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

def _distinct_words(code: Iterable[Subspace]) -> list[Subspace]:
    """The distinct words of a nonzero constant dimension code over one
    field and ambient space, in no fixed order."""
    words = list(set(code))
    if not words:
        raise DomainError("a code needs at least one codeword")
    first = words[0]
    if any(w.ambient != first.ambient or w.field != first.field for w in words):
        raise DomainError("codewords live in different ambient spaces")
    if not first.dim or any(w.dim != first.dim for w in words):
        raise DomainError("codewords must be nonzero and form a constant dimension code")
    return words


def _canonical_words(code: Iterable[Subspace]) -> list[Subspace]:
    """_distinct_words sorted by their canonical digit rows, as
    Subspace.__lt__ sorts words of one dimension: each row is keyed by the
    index of its digits reversed (matspace._row_key), not by its index."""
    words = _distinct_words(code)
    key = _row_key(words[0].field, words[0].ambient)
    return sorted(words, key=lambda w: tuple(map(key, w.basis)))


def format_code(code: OrbitCode | Iterable[Subspace]) -> str:
    """Serialize a constant dimension code, sorted and bit exact."""
    words = code.codewords if isinstance(code, OrbitCode) else _canonical_words(code)
    first = words[0]
    text = _row_text(first.field, first.ambient)
    head = f"{first.field.order} {first.ambient} {first.dim} {len(words)}\n"
    return head + "\n\n".join("\n".join(map(text, w.basis)) for w in words) + "\n"


def _header_field(base_field: FieldSpec | None, q: int) -> FieldSpec:
    """The base field a code file's header names: base_field, which must
    have order q, or GF(q) for a prime q."""
    if base_field is None:
        try:
            return FieldSpec(q)
        except DomainError as exc:
            raise ParseError(f"base field of order {q}: {exc}; a prime-power "
                             "field must be supplied explicitly") from None
    if base_field.order != q:
        raise ParseError(f"header says q = {q} but the field has order {base_field.order}")
    return base_field


def _read_code_header(lines: list[str], field_of) -> tuple[FieldSpec, int, int, int]:
    """(field, n, k, size) from the header "q n k size" of a code file's
    lines, checked before any block is read: q^n by exponent against
    DESK_SCALE_CAP, then q against the prime powers and 1 <= k <= n (each
    a ParseError, whatever field_of is), then the field field_of(q), so no
    power of q is built for an invalid field or k, then size against the
    number of k-dimensional subspaces."""
    if not lines:
        raise ParseError("empty code file")
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError("header must be 'q n k size'")
    try:
        q, n, k, size = (int(tok) for tok in head)
    except ValueError:
        raise ParseError("header fields must be integers") from None
    if q > 1 and n > _max_exponent(q, DESK_SCALE_CAP):  # by exponent: q^n may be huge
        raise DomainError(f"header says q = {q} and n = {n}: q^n exceeds the "
                          f"desk-scale cap {DESK_SCALE_CAP}")
    # q above the cap has n <= 0 here, which the k check refuses: the cap
    # bounds the trial division
    if q < 2 or q <= DESK_SCALE_CAP and len(_prime_factors(q)) != 1:
        raise ParseError(f"header says q = {q}, which is not a prime power")
    if not 1 <= k <= n:
        raise ParseError(f"header says k = {k} and n = {n}: k must lie in [1, n]")
    field = field_of(q)
    if size > gaussian_binomial(n, k, q):  # bounds size (q^k - 1) for the oracle's budget
        raise ParseError(f"header promises {size} codewords, more than F_{q}^{n} "
                         f"has subspaces of dimension {k}")
    return field, n, k, size


def _read_code_words(field: FieldSpec, n: int, k: int, size: int,
                     lines: list[str]) -> list[Subspace]:
    """The canonical words of the blocks below a checked header, in file
    order: the oracle needs no order, and parse_code sorts them."""
    blocks = _parse_blocks(field, "\n".join(lines[1:]))
    if len(blocks) != size:
        raise ParseError(f"header promises {size} codewords, found {len(blocks)}")
    words = []
    for width, rows in blocks:
        if len(rows) != k or width != n:
            raise ParseError(f"codeword block is not {k}x{n}")
        w = Subspace._span(field, n, rows)
        if w.dim != k:
            raise ParseError("codeword block is rank deficient")
        words.append(w)
    if len(set(words)) != len(words):
        raise ParseError("duplicate codewords in code file")
    return words


def parse_code(text: str, base_field: FieldSpec | None = None
               ) -> tuple[FieldSpec, list[Subspace]]:
    """Parse the code export format back into sorted canonical subspaces.

    The base field is reconstructed from the header for prime q; for a
    prime power q the caller must supply the field (the header carries no
    modulus).  A header with q^n above DESK_SCALE_CAP, a field that cannot
    be built or k outside [1, n] is refused before any block is read.
    """
    lines = text.splitlines()
    field, n, k, size = _read_code_header(lines, functools.partial(_header_field, base_field))
    return field, _canonical_words(_read_code_words(field, n, k, size, lines))
