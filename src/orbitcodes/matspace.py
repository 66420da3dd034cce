"""Matrices over a finite field and canonical subspaces of F_q^n.

A vector of F_q^n is one int, the mixed-radix index of its digits, which
are element indices, ints in [0, q): a Mat's rows and a Subspace's basis
are such ints.  Digits appear only at the edges: the Mat constructor (the
only element bridge) and Mat.rows, the text format, vector_from_index,
row_times_mat and char_poly.  One span routine lists a subspace's
vectors, a matrix's image table and, many subspaces side by side, the
oracle's vectors on those ints, all grown by one loop, _combine.  In
characteristic 2, where vectors add by XOR, it adds word by word: a tile
of 4096 entries of its 4-byte store is one Python int, and one XOR with
s times the int that holds 1 in every entry adds the vector s to the
whole tile.  One gate,
_image_table, checks an invertible matrix and builds its table once, kept
with the matrix; the orbit, the walk that verifies it and the matrix's
order (the lcm of the unit vectors' cycle lengths) all read it there.

One routine, _echelon, computes every canonical form: the nonzero rows of
the unique reduced row echelon basis of a span, from and to vector
indices.  Over GF(2) digit j of an index is bit j, so a row's pivot is its
lowest set bit and elimination is XOR on whole rows; over any other field
a row's pivot is its lowest nonzero digit and whole rows are reduced by
_digit_ops' add and scalar products.  Mat.rref, rank and inverse use it.
A Subspace holds its canonical rows as indices, so equality and hashing
are tuple comparisons on ints.  Sorting follows the digit rows, digit 0
first, which is not the order of the indices: its key maps each row to
the index of its digits reversed (over GF(2), the row's bits reversed).
The subspace metric is d_S(U, V) = 2 rank([U; V]) - dim U - dim V, and
invertible matrices act on subspaces from the right through rs(U A).

Matrix text format: one row per line as a contiguous string of base-field
element indices (digits 0-9a-z, so base fields up to order 36), blocks of
matrices separated by blank lines.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from math import lcm
from operator import mul, xor

from .errors import DomainError, ParseError
from .gfq import DESK_SCALE_CAP, FieldSpec, _check_cap, _digit_ops, _digits, _packed, _power


def _indices(field: FieldSpec, v) -> tuple[int, ...]:
    """Entries given as in-range ints or elements of field, as indices."""
    return tuple(e if isinstance(e, int) and 0 <= e < field.order
                 else field.index_of(e) for e in v)


class Mat:
    """An immutable dense matrix over one FieldSpec: vectors holds each row
    as its vector index, as a Subspace's basis does, and rows expands them
    into element indices.  Entries may be given as in-range ints or elements
    of the field.

    _table stays None until _image_table first builds the matrix's image
    table; it is a once-only cache that __eq__ and __hash__ ignore.
    """

    __slots__ = ("field", "nrows", "ncols", "vectors", "_table")

    def __init__(self, field: FieldSpec, rows):
        rows = tuple(_indices(field, row) for row in rows)
        if not rows or not rows[0]:
            raise DomainError("matrix dimensions must be positive")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("matrix rows must all have the same length")
        self.field, self.nrows, self.ncols = field, len(rows), len(rows[0])
        self.vectors = tuple(map(_digit_ops(field, self.ncols)[3], rows))
        self._table = None

    @classmethod
    def _wrap(cls, field: FieldSpec, ncols: int, vectors: tuple[int, ...]) -> "Mat":
        """A Mat on rows given as vector indices of F^ncols, checked or
        produced by the field's own closures, without coercing them again."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.vectors = field, len(vectors), ncols, vectors
        m._table = None
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of element indices, entry j being digit j."""
        Q, n = self.field.order, self.ncols
        return tuple(tuple(_digits(r, Q, n)) for r in self.vectors)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field == other.field and self.ncols == other.ncols
                and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.field, self.ncols, self.vectors))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise DomainError("matrices over different fields")
        if self.ncols != other.nrows:
            raise DomainError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return Mat._wrap(self.field, other.ncols,
                         tuple(_row_times(v, other) for v in self.vectors))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.nrows != self.ncols:
            raise DomainError("matrix powers require a square matrix")
        if e < 0:
            return self.inverse() ** -e
        if not e:
            return Mat.identity(self.field, self.nrows)
        return _power(Mat.__mul__, self, e)  # read here, so a wrapped product counts

    def stack(self, other: "Mat") -> "Mat":
        """Rows of self on top of rows of other."""
        if self.field != other.field or self.ncols != other.ncols:
            raise DomainError("stacked matrices must share field and width")
        return Mat._wrap(self.field, self.ncols, self.vectors + other.vectors)

    def rref(self) -> tuple["Mat", int]:
        """Reduced row echelon form and rank.

        Pivots are normalized to 1 and their columns cleared above and
        below, so the result is the unique canonical representative of the
        row space; the rows below the rank are zero.
        """
        canon = _echelon(self.field, self.ncols, self.vectors)
        zeros = (0,) * (self.nrows - len(canon))
        return Mat._wrap(self.field, self.ncols, canon + zeros), len(canon)

    def rank(self) -> int:
        return len(_echelon(self.field, self.ncols, self.vectors))

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; raises DomainError on singular input.  The
        rows v_i + Q^n Q^i of [A | I] reduce to [I | A^-1] iff A is invertible."""
        if self.nrows != self.ncols:
            raise DomainError("only square matrices can be inverted")
        Q, n = self.field.order, self.nrows
        high = Q ** n
        reduced = _echelon(self.field, 2 * n,
                           (v + high * Q ** i for i, v in enumerate(self.vectors)))
        right, left = zip(*(divmod(r, high) for r in reduced))
        if left != tuple(Q ** i for i in range(n)):
            raise DomainError("matrix is singular")
        return Mat._wrap(self.field, n, right)

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"


def _row_times(v: int, m: Mat) -> int:
    """The index of v m, v in F^m.nrows given by its index: the sum of m's
    rows times v's digits; over GF(2), the XOR of the rows at v's set bits."""
    add, _, _, _, times = _digit_ops(m.field, m.ncols)
    out = 0
    for c, r in zip(_digits(v, m.field.order, m.nrows), m.vectors):
        if c:
            out = add(out, r if c == 1 else times(c, r))
    return out


def row_times_mat(v: Sequence, m: Mat) -> tuple[int, ...]:
    """Row vector (entries as for Mat) times matrix, as element indices."""
    if len(v) != m.nrows:
        raise DomainError("vector length does not match the matrix")
    join = _digit_ops(m.field, m.nrows)[3]
    return tuple(_digits(_row_times(join(_indices(m.field, v)), m), m.field.order, m.ncols))


def vector_from_index(field: FieldSpec, n: int, i: int) -> tuple[int, ...]:
    """Vector number i of F^n in mixed-radix order: its n digits, as indices."""
    Q = field.order
    if not 0 <= i < Q ** n:
        raise DomainError(f"vector index {i} out of range")
    return tuple(_digits(i, Q, n))


def _lowest_bit(r: int) -> int:
    return r & -r


def _echelon(field: FieldSpec, n: int, rows: Iterable[int]) -> tuple[int, ...]:
    """The canonical basis of the span of rows, vectors of F^n given by their
    indices: the nonzero rows of its reduced row echelon form, as indices,
    in pivot order.  A row's pivot is its lowest nonzero digit, column j
    being digit j.  Each row is cleared of the pivots so far, and its own
    pivot is then cleared from the rows before it.  Over GF(2) digit j is
    bit j and clearing is XOR.  Over any other field clearing a digit c adds
    -c times a whole row through _digit_ops, and each new pivot is
    normalized to 1 by _pow."""
    if _packed(field):
        basis: list[int] = []
        for r in rows:
            for b in basis:
                if r & b & -b:  # r holds b's pivot
                    r ^= b
            if r:
                low = r & -r
                for j, b in enumerate(basis):
                    if b & low:
                        basis[j] = b ^ r
                basis.append(r)
        basis.sort(key=_lowest_bit)
        return tuple(basis)
    Q = field.order
    add, _, _, _, times = _digit_ops(field, n)
    neg = field._neg
    pivots: list[tuple[int, int]] = []  # (Q^j for pivot column j, row)
    for r in rows:
        for w, b in pivots:
            c = r // w % Q
            if c:
                r = add(r, times(neg(c), b))
        if r:
            w = 1
            while not r // w % Q:
                w *= Q
            r = times(field._pow(r // w % Q, -1), r)
            for j, (v, b) in enumerate(pivots):
                c = b // w % Q
                if c:
                    pivots[j] = v, add(b, times(neg(c), r))
            pivots.append((w, r))
    pivots.sort()
    return tuple(r for _, r in pivots)


def _row_key(field: FieldSpec, n: int):
    """The sort key of a row of F^n given by its index: the index of its
    digits reversed, so that keys order as the digit rows do (digit 0
    first); over GF(2) the row's n bits reversed."""
    if _packed(field):
        fmt = f"0{n}b"
        return lambda r: int(format(r, fmt)[::-1], 2)
    Q = field.order
    weights = [Q ** (n - 1 - j) for j in range(n)]
    return lambda r: sum(map(mul, _digits(r, Q, n), weights))


class Subspace:
    """A subspace of F_q^n, held as its canonical basis: basis holds the
    nonzero rows of its unique reduced row echelon form as vector indices,
    in pivot order, so two subspaces are equal exactly when their bases are.
    mat wraps the same basis in a Mat, built on each read.

    Construct from any spanning rows; the dimension is the rank of the
    input.  The zero-dimensional subspace is representable (basis is empty
    and mat None) but rejected by the code constructors downstream.
    Subspaces sort by dimension, then by their digit rows.
    """

    __slots__ = ("field", "ambient", "dim", "basis")

    def __init__(self, rows: Mat):
        self.field, self.ambient = rows.field, rows.ncols
        self.basis = _echelon(rows.field, rows.ncols, rows.vectors)
        self.dim = len(self.basis)

    @classmethod
    def _span(cls, field: FieldSpec, n: int, rows: Iterable[int]) -> "Subspace":
        """The span of rows given as vector indices of F^n, trusted to lie
        in range, without a Mat."""
        u = object.__new__(cls)
        u.field, u.ambient, u.basis = field, n, _echelon(field, n, rows)
        u.dim = len(u.basis)
        return u

    @property
    def mat(self) -> Mat | None:
        """The canonical basis as a Mat; None for dimension 0."""
        return Mat._wrap(self.field, self.ambient, self.basis) if self.dim else None

    def _key(self) -> tuple[int, ...]:
        """The rows' sort keys, _row_key."""
        return tuple(map(_row_key(self.field, self.ambient), self.basis))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient
                and (self.field is other.field or self.field == other.field)
                and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis if self.dim else self.ambient)

    def __lt__(self, other):
        if not isinstance(other, Subspace) or self.ambient != other.ambient:
            return NotImplemented
        if self.dim != other.dim:
            return self.dim < other.dim
        # Rows all have length n, so this is the order of the flattened rows.
        return self._key() < other._key()

    def __repr__(self):
        if not self.dim:
            return f"Subspace(dim 0 of F^{self.ambient})"
        return "Subspace(" + ";".join(format_matrix(self.mat).split("\n")) + ")"

    def nonzero_vectors(self) -> Iterator[int]:
        """The q^k - 1 nonzero vectors' indices; number sum_j c_j q^j is sum_j c_j row_j."""
        if self.dim == 0:
            return iter(())
        span, _ = _spanner(self.field, self.ambient)
        return iter(span(self.basis)[1:])


#: Over characteristic 2 within the cap, a span of at least _WORD_CROSSOVER
#: entries, or spans of as many sets, adds word by word: a span's first
#: tile of _TILE 4-byte entries, or _TILE sets' entries at a time, are one
#: int.  Measured in process (Python 3.11.7, 2 vCPU Xeon; best of nine
#: interleaved runs): a GF(2) span of 8 entries took 3.3 us entry by entry
#: and 3.5 us by words, one of 16 entries 4.8 and 4.1 us, an F_4 span of 16
#: entries 7.2 and 6.6-6.8 us; spans of 2 GF(2) rows across 8 sets took 8.1
#: and 9.8 us, across 16 sets 11.6 and 9.9 us, and of 4 rows across 8 sets
#: 31.8 and 20.4 us.  The GF(2)^20 image table took 6.1-6.6 ms in tiles of
#: 2^11 to 2^16 entries, 7.5 ms in tiles of 2^10 and 12.9 ms in tiles of
#: 2^18 (best of seven), against 101-104 ms entry by entry; the tile is the
#: smallest near the best, which keeps its temporaries small.
_TILE = 1 << 12
_WORD_CROSSOVER = 16


@functools.lru_cache(maxsize=256)  # bounded: the cache holds its fields
def _spanner(field: FieldSpec, n: int):
    """(span, spans) on F^n, on vector indices, built once per (field, n):
    span(rows) lists the indices of sum_j c_j rows[j] for all c in
    mixed-radix order, each row adding one block per scalar to the list so
    far.  On the rows of a square P, entry x is the index of x P.
    spans(columns) spans many sets of k rows at once, column j holding row
    j of every set: block c holds vector c of every set, so the q^k blocks
    take one map each across the sets.  Rows are scaled by c = 2 .. Q - 1
    through _digit_ops, and over an odd characteristic vectors add through
    its block tables.  Within the cap indices are stored in 4-byte arrays,
    above it in lists, which hold any index.  In characteristic 2 vectors
    add by XOR, and within the cap a span or spans at or above
    _WORD_CROSSOVER add word by word (_xor_span, _xor_spans); below it,
    and on a big-endian host, entry by entry.  All four grow by _combine."""
    add, _, _, _, times = _digit_ops(field, n)
    Q = field.order
    within = Q ** n <= DESK_SCALE_CAP
    store = functools.partial(array, "i") if within else list
    wordwise = within and field.p == 2 and sys.byteorder == "little"

    def scaled(col: tuple[int, ...]) -> list:
        """col, then c col for c = 2 .. Q - 1."""
        return [col] + [[times(c, r) for r in col] for c in range(2, Q)]

    def span(rows) -> array | list:
        rows = tuple(rows)
        if wordwise and Q ** len(rows) >= _WORD_CROSSOVER:
            return _xor_span(zip(*scaled(rows)))
        return _combine(zip(*scaled(rows)), add, store([0]))

    def spans(columns: list[tuple[int, ...]]) -> list:
        if wordwise and len(columns[0]) >= _WORD_CROSSOVER:
            return _xor_spans(list(map(scaled, columns)), Q ** len(columns))
        return _combine(map(scaled, columns), lambda block, s: store(map(add, block, s)),
                        [store([0]) * len(columns[0])])

    return span, spans


def _combine(steps: Iterable, add, out: array | list) -> array | list:
    """out extended, for each step's multiples s in turn, by add(x, s) for
    every entry x so far: from out = [0], the span of the rows whose
    multiples the steps yield, each row adding one block per multiple, in
    mixed-radix order.  Entries may be vectors or whole blocks of them."""
    for multiples in steps:
        head = out[:]
        for s in multiples:
            out.extend(map(add, head, itertools.repeat(s)))
    return out


def _xor_span(steps: Iterator) -> array:
    """span of the rows whose multiples steps yields, over characteristic
    2, in a store of 4-byte entries allocated once.  Until the span so far
    fills a tile it is one int, and a row's multiple s adds to it in one
    XOR with s times the int holding 1 in every entry.  The rows left are
    spanned entry by entry into high (_combine); block h is the tile XOR
    h * ones."""
    tile, ones, size = 0, 1, 1  # ones holds 1 in each of the size entries
    for multiples in steps:
        grown, wider = tile, ones
        for at, s in enumerate(multiples, 1):
            grown |= (tile ^ s * ones) << 32 * size * at
            wider |= ones << 32 * size * at
        tile, ones, size = grown, wider, size * (len(multiples) + 1)
        if size >= _TILE:
            break
    high = _combine(steps, xor, [0])
    out, width = array("i", [0]) * (size * len(high)), 4 * size
    with memoryview(out).cast("B") as view:
        for at, h in enumerate(high):
            view[width * at:width * (at + 1)] = (tile ^ h * ones).to_bytes(width, "little")
    return out


def _xor_spans(columns: list[list], count: int) -> list[array]:
    """spans of the scaled columns over characteristic 2: for each tile of
    up to _TILE sets, block c of the tile is one int, and adding a column's
    multiple to a block is one XOR (_combine on the tile's words)."""
    blocks = [array("i") for _ in range(count)]
    m = len(columns[0][0])
    for lo in range(0, m, _TILE):
        # entry i of a column in bits 32 i and up, as in the store's bytes
        words = ([int.from_bytes(array("i", multiple[lo:lo + _TILE]).tobytes(), "little")
                  for multiple in multiples] for multiples in columns)
        tile = _combine(words, xor, [0])
        width = 4 * min(_TILE, m - lo)
        for block, x in zip(blocks, tile):
            block.frombytes(x.to_bytes(width, "little"))
    return blocks


def _stacked_rank(u: Subspace, v: Subspace) -> int:
    if u.ambient != v.ambient or u.field != v.field:
        raise DomainError("subspaces live in different ambient spaces")
    return len(_echelon(u.field, u.ambient, u.basis + v.basis))


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """Subspace metric 2 rank([U; V]) - dim U - dim V."""
    return 2 * _stacked_rank(u, v) - u.dim - v.dim


def intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(U intersect V) = dim U + dim V - rank([U; V])."""
    return u.dim + v.dim - _stacked_rank(u, v)


def subspace_apply(u: Subspace, a: Mat) -> Subspace:
    """Transport rs(U) to rs(U A) for invertible A; representative free."""
    if a.nrows != a.ncols:
        raise DomainError("subspace transport requires a square matrix")
    if a.ncols != u.ambient or a.field != u.field:
        raise DomainError("matrix does not act on this ambient space")
    if a.rank() != a.nrows:
        raise DomainError("matrix is singular")
    if u.dim == 0:
        return u
    return Subspace(u.mat * a)


def _image_table(g: Mat) -> array | list:
    """The image table of a square, invertible g: the span of its rows, so
    entry x is the index of x g.  Built once per matrix, after the cap on
    its q^n entries and the singularity check, and kept on g."""
    if g._table is None:
        _check_cap(g.field.order ** g.ncols)  # before the table of q^n ints
        if g.rank() != g.nrows:
            raise DomainError("matrix is singular")
        span, _ = _spanner(g.field, g.ncols)
        g._table = span(g.vectors)
    return g._table


def matrix_order(g: Mat) -> int:
    """Least m >= 1 with g^m = I: the lcm of the unit vectors' cycle lengths
    through g's image table, since g^m = I exactly when e_i g^m = e_i for
    every i.  Each cycle is walked once, and no matrix is multiplied."""
    if g.nrows != g.ncols:
        raise DomainError("order requires a square matrix")
    table = _image_table(g)
    Q, n, met, order = g.field.order, g.nrows, bytearray(len(table)), 1
    for x in (Q ** i for i in range(n)):
        length = 0
        while not met[x]:  # a cycle no earlier e_i met, walked back to e_i
            met[x] = 1
            x, length = table[x], length + 1
        order = lcm(order, length or 1)
    return order


def char_poly(g: Mat):
    """Characteristic polynomial det(xI - g), monic of degree n.

    Reduces g by similarity to upper Hessenberg form h (zero below the
    subdiagonal), then expands det(xI - h) along its last column: with
    p_0 = 1, p_m = (x - h_mm) p_{m-1} - sum_i h_{m-i,m} t_i p_{m-i-1},
    where t_i is the product of the i subdiagonal entries below h_{m-i,m}.
    O(n^3) field operations on any matrix, dense or sparse.
    """
    from .polyring import Poly

    if g.nrows != g.ncols:
        raise DomainError("characteristic polynomial requires a square matrix")
    n = g.nrows
    field = g.field
    add, sub, mul = field._add, field._sub, field._mul
    h = [list(row) for row in g.rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:  # conjugate by the transposition (piv m)
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = field._pow(h[m][m - 1], -1)
        for i in range(m + 1, n):
            u = mul(h[i][m - 1], inv)
            if not u:
                continue
            # row_i -= u row_m, then column_m += u column_i (the inverse step)
            h[i] = [sub(a, mul(u, b)) for a, b in zip(h[i], h[m])]
            for row in h:
                row[m] = add(row[m], mul(u, row[i]))
    x = Poly.x(field)
    p = [Poly.one(field)]
    for m in range(n):
        pm = (x - Poly(field, (h[m][m],))) * p[m]
        t = 1
        for i in range(1, m + 1):
            t = mul(t, h[m - i + 1][m - i])
            if not t:
                break
            pm = pm - Poly(field, (mul(t, h[m - i][m]),)) * p[m - i]
        p.append(pm)
    return p[n]


def is_irreducible_matrix(g: Mat) -> bool:
    """True when g leaves no nontrivial subspace invariant, i.e. when its
    characteristic polynomial is irreducible."""
    from .polyring import is_irreducible

    if g.nrows != g.ncols:
        raise DomainError("irreducibility requires a square matrix")
    if g.rank() != g.nrows:
        raise DomainError("matrix is singular")
    return is_irreducible(char_poly(g))


def to_companion_similarity(g: Mat) -> Mat:
    """Basis change S with S g S^-1 in companion form: the matrix with rows
    v, vg, ..., vg^(n-1) for v = (1, 0, ..., 0), the first nonzero vector
    in enumeration order.  For an irreducible g every nonzero v is cyclic,
    since the span of its images is a nonzero invariant subspace."""
    from .polyring import is_irreducible

    if not is_irreducible(char_poly(g)):
        raise DomainError("matrix is reducible; no companion similarity is guaranteed")
    rows = [1]
    for _ in range(g.nrows - 1):
        rows.append(_row_times(rows[-1], g))
    return Mat._wrap(g.field, g.ncols, tuple(rows))


def groups_conjugate(f1, f2) -> bool:
    """Whether the cyclic groups of the companion matrices of two
    irreducible polynomials are conjugate in GL_n: exactly when the
    polynomial orders agree."""
    from .polyring import is_irreducible, order_of_polynomial

    if f1.field != f2.field:
        raise DomainError("polynomials over different fields")
    if f1.degree != f2.degree:
        raise DomainError("polynomials of different degree")
    if not is_irreducible(f1) or not is_irreducible(f2):
        raise DomainError("conjugacy test requires irreducible polynomials")
    return order_of_polynomial(f1) == order_of_polynomial(f2)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def grassmannian(field: FieldSpec, k: int, n: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F^n in a fixed, documented order.

    Pivot column sets run through itertools.combinations order; for each
    set, the free entries of the reduced row echelon pattern run through
    mixed-radix field enumeration, row-major.
    """
    if not 0 < k <= n:
        raise DomainError("grassmannian requires 0 < k <= n")
    Q = field.order
    for pivots in itertools.combinations(range(n), k):
        free = [(i, Q ** j) for i in range(k) for j in range(n)
                if j > pivots[i] and j not in pivots]
        for idx in range(Q ** len(free)):
            rows = [Q ** p for p in pivots]
            for (i, w), entry in zip(free, _digits(idx, Q, len(free))):
                rows[i] += entry * w
            yield Subspace._span(field, n, rows)


def random_invertible(field: FieldSpec, n: int, rng) -> Mat:
    """Uniform-ish invertible matrix by rejection sampling, drawing entries
    from rng, a random.Random."""
    while True:
        m = Mat(field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


# -- text format ---------------------------------------------------------

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def format_matrix(m: Mat) -> str:
    """Rows as contiguous index digit strings, one per line."""
    return "\n".join(map(_row_text(m.field, m.ncols), m.vectors))


def parse_matrix(field: FieldSpec, text: str) -> Mat:
    """Parse a single matrix block."""
    blocks = parse_matrix_blocks(field, text)
    if len(blocks) != 1:
        raise ParseError(f"expected a single matrix block, found {len(blocks)}")
    return blocks[0]


def parse_matrix_blocks(field: FieldSpec, text: str) -> list[Mat]:
    """Parse blank-line-separated matrix blocks."""
    return [Mat._wrap(field, width, tuple(rows)) for width, rows in _parse_blocks(field, text)]


def _check_text_field(field: FieldSpec) -> None:
    if field.order > len(_DIGITS):
        raise DomainError("matrix text format supports base fields of order <= 36")


def _parse_blocks(field: FieldSpec, text: str) -> list[tuple[int, list[int]]]:
    """Blank-line-separated blocks of the matrix text format, each as its
    row width and its rows' vector indices.  Every digit is checked against
    the field before a row is read, lowest place first."""
    _check_text_field(field)
    Q, packed = field.order, _packed(field)
    digits = frozenset(_DIGITS[:Q])
    blocks: list[tuple[int, list[int]]] = []
    current: list[int] = []
    width = 0
    for raw in text.splitlines() + [""]:
        line = raw.strip().lower()
        if not line:
            if current:
                blocks.append((width, current))
                current = []
            continue
        if not digits.issuperset(line):
            ch = next(ch for ch in line if ch not in digits)
            if ch not in _DIGITS:
                raise ParseError(f"invalid matrix digit {ch!r}")
            raise ParseError(f"digit {ch!r} out of range for {field!r}")
        if current and len(line) != width:
            raise ParseError("matrix rows have inconsistent lengths")
        width = len(line)
        # Over GF(2) the reversed row is its index in binary; int() is not used
        # elsewhere, as it caps the digits it reads in bases not a power of 2.
        current.append(int(line[::-1], 2) if packed else
                       sum(_DIGITS.index(ch) * Q ** j for j, ch in enumerate(line)))
    if not blocks:
        raise ParseError("no matrix found in input")
    return blocks


def _row_text(field: FieldSpec, n: int):
    """The row of the matrix text format of a vector of F^n given by its
    index: its digits, lowest place first."""
    _check_text_field(field)
    if _packed(field):
        fmt = f"0{n}b"
        return lambda r: format(r, fmt)[::-1]
    Q = field.order
    return lambda r: "".join([_DIGITS[d] for d in _digits(r, Q, n)])
