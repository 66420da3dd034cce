"""Matrices over a finite field and canonical subspaces of F_q^n.

Subspaces are identified with their unique reduced row echelon basis, so
subspace equality, hashing and sorting are plain tuple comparisons on the
canonical matrix.  The subspace metric is
d_S(U, V) = 2 rank([U; V]) - dim U - dim V, and invertible matrices act on
subspaces from the right through rs(U A).

Matrix text format: one row per line as a contiguous string of base-field
element indices (digits 0-9a-z, so base fields up to order 36), blocks of
matrices separated by blank lines.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence

from .errors import DomainError, ParseError
from .gfq import DESK_SCALE_CAP, FieldElement, FieldSpec


class Mat:
    """An immutable dense matrix with entries in one FieldSpec."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows):
        rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise DomainError("matrix dimensions must be positive")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("matrix rows must all have the same length")
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0])
        self.rows = rows

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        zero, one = field.zero(), field.one()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise DomainError("matrices over different fields")
        if self.ncols != other.nrows:
            raise DomainError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = tuple(zip(*other.rows))
        zero = self.field.zero()
        out = []
        for r in self.rows:
            out.append([sum((a * b for a, b in zip(r, c) if a and b), zero)
                        for c in cols])
        return Mat(self.field, out)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.nrows != self.ncols:
            raise DomainError("matrix powers require a square matrix")
        if e < 0:
            return self.inverse() ** -e
        result = Mat.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def stack(self, other: "Mat") -> "Mat":
        """Rows of self on top of rows of other."""
        if self.field != other.field or self.ncols != other.ncols:
            raise DomainError("stacked matrices must share field and width")
        return Mat(self.field, self.rows + other.rows)

    def rref(self) -> tuple["Mat", int]:
        """Reduced row echelon form and rank.

        Pivots are normalized to 1 and their columns cleared above and
        below, so the result is the unique canonical representative of the
        row space.
        """
        rows = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        piv = 0
        for col in range(nc):
            hit = next((r for r in range(piv, nr) if rows[r][col]), None)
            if hit is None:
                continue
            rows[piv], rows[hit] = rows[hit], rows[piv]
            inv = rows[piv][col].inv()
            rows[piv] = [inv * e for e in rows[piv]]
            for r in range(nr):
                if r != piv and rows[r][col]:
                    c = rows[r][col]
                    rows[r] = [a - c * b for a, b in zip(rows[r], rows[piv])]
            piv += 1
            if piv == nr:
                break
        return Mat(self.field, rows), piv

    def rank(self) -> int:
        return self.rref()[1]

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; raises DomainError on singular input."""
        if self.nrows != self.ncols:
            raise DomainError("only square matrices can be inverted")
        n = self.nrows
        ident = Mat.identity(self.field, n)
        aug = Mat(self.field, [self.rows[i] + ident.rows[i] for i in range(n)])
        reduced, _ = aug.rref()
        left = Mat(self.field, [r[:n] for r in reduced.rows])
        if left != ident:
            raise DomainError("matrix is singular")
        return Mat(self.field, [r[n:] for r in reduced.rows])

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"


def row_times_mat(v: Sequence[FieldElement], m: Mat) -> tuple[FieldElement, ...]:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise DomainError("vector length does not match the matrix")
    zero = m.field.zero()
    return tuple(sum((a * b for a, b in zip(v, col) if a and b), zero)
                 for col in zip(*m.rows))


def vector_from_index(field: FieldSpec, n: int, i: int) -> tuple[FieldElement, ...]:
    """Vector number i of F^n in mixed-radix enumeration order."""
    Q = field.order
    if not 0 <= i < Q ** n:
        raise DomainError(f"vector index {i} out of range")
    out = []
    for _ in range(n):
        i, digit = divmod(i, Q)
        out.append(field.from_index(digit))
    return tuple(out)


class Subspace:
    """A subspace of F_q^n in canonical reduced row echelon form.

    Construct from any spanning rows; the dimension is the rank of the
    input.  The zero-dimensional subspace is representable (mat is None)
    but rejected by the code constructors downstream.
    """

    __slots__ = ("field", "ambient", "dim", "mat", "_flat")

    def __init__(self, rows: Mat):
        canon, rank = rows.rref()
        self.field = rows.field
        self.ambient = rows.ncols
        self.dim = rank
        if rank == 0:
            self.mat = None
            self._flat = ()
        else:
            self.mat = Mat(rows.field, canon.rows[:rank])
            self._flat = tuple(rows.field.index_of(e)
                               for r in self.mat.rows for e in r)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.dim == other.dim and self._flat == other._flat)

    def __hash__(self):
        return hash((self.field, self.ambient, self.dim, self._flat))

    def __lt__(self, other):
        if not isinstance(other, Subspace) or self.ambient != other.ambient:
            return NotImplemented
        return (self.dim, self._flat) < (other.dim, other._flat)

    def __repr__(self):
        if self.mat is None:
            return f"Subspace(dim 0 of F^{self.ambient})"
        return "Subspace(" + ";".join(format_matrix(self.mat).split("\n")) + ")"

    def nonzero_vectors(self) -> Iterator[tuple[FieldElement, ...]]:
        """All q^k - 1 nonzero vectors, by mixed-radix combination index."""
        if self.dim == 0:
            return
        zero = self.field.zero()
        for i in range(1, self.field.order ** self.dim):
            coeffs = vector_from_index(self.field, self.dim, i)
            vec = [zero] * self.ambient
            for c, row in zip(coeffs, self.mat.rows):
                if c:
                    vec = [v + c * e for v, e in zip(vec, row)]
            yield tuple(vec)


def _stacked_rank(u: Subspace, v: Subspace) -> int:
    if u.ambient != v.ambient or u.field != v.field:
        raise DomainError("subspaces live in different ambient spaces")
    if u.dim == 0:
        return v.dim
    if v.dim == 0:
        return u.dim
    return u.mat.stack(v.mat).rank()


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


def matrix_order(g: Mat, cap: int = DESK_SCALE_CAP) -> int:
    """Least m >= 1 with g^m = I, by repeated multiplication."""
    if g.nrows != g.ncols:
        raise DomainError("order requires a square matrix")
    if g.rank() != g.nrows:
        raise DomainError("matrix is singular")
    ident = Mat.identity(g.field, g.nrows)
    power = g
    m = 1
    while power != ident:
        power = power * g
        m += 1
        if m > cap:
            raise DomainError(f"matrix order exceeds the cap {cap}")
    return m


def char_poly(g: Mat):
    """Characteristic polynomial det(xI - g), monic of degree n.

    Uses minor expansion over the polynomial ring with memoization on
    column subsets; division free, so it is correct over any field, and
    cheap at the small dimensions this package targets.
    """
    from .polyring import Poly

    if g.nrows != g.ncols:
        raise DomainError("characteristic polynomial requires a square matrix")
    n = g.nrows
    field = g.field
    x = Poly.x(field)
    zero = Poly.zero(field)
    ent = [[(x if i == j else zero) - Poly(field, (g.rows[i][j],))
            for j in range(n)] for i in range(n)]
    memo: dict[tuple[int, ...], Poly] = {}

    def det(cols: tuple[int, ...]) -> Poly:
        if not cols:
            return Poly.one(field)
        val = memo.get(cols)
        if val is not None:
            return val
        r = n - len(cols)
        total = zero
        for idx, c in enumerate(cols):
            if ent[r][c].is_zero:
                continue
            term = ent[r][c] * det(cols[:idx] + cols[idx + 1:])
            total = total - term if idx % 2 else total + term
        memo[cols] = total
        return total

    return det(tuple(range(n)))


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
    """Basis change S with S g S^-1 in companion form.

    Scans nonzero vectors in enumeration order for a cyclic vector v and
    returns the matrix with rows v, vg, ..., vg^(n-1); for an irreducible
    g the first candidate already works, so the output is deterministic.
    """
    from .polyring import is_irreducible

    p = char_poly(g)
    if not is_irreducible(p):
        raise DomainError("matrix is reducible; no companion similarity is guaranteed")
    n = g.nrows
    field = g.field
    for i in range(1, field.order ** n):
        v = vector_from_index(field, n, i)
        rows = [v]
        for _ in range(n - 1):
            rows.append(row_times_mat(rows[-1], g))
        s = Mat(field, rows)
        if s.rank() == n:
            return s
    raise DomainError("no cyclic vector found")  # unreachable for irreducible g


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
    zero, one = field.zero(), field.one()
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(n)
                if j > pivots[i] and j not in pivots]
        for idx in range(field.order ** len(free)):
            rows = [[zero] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), entry in zip(free, vector_from_index(field, len(free), idx)):
                rows[i][j] = entry
            yield Subspace(Mat(field, rows))


def random_invertible(field: FieldSpec, n: int, rng: random.Random) -> Mat:
    """Uniform-ish invertible matrix by rejection sampling."""
    Q = field.order
    while True:
        m = Mat(field, [[field.from_index(rng.randrange(Q)) for _ in range(n)]
                        for _ in range(n)])
        if m.rank() == n:
            return m


# -- text format ---------------------------------------------------------

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def format_matrix(m: Mat) -> str:
    """Rows as contiguous index digit strings, one per line."""
    if m.field.order > len(_DIGITS):
        raise DomainError("matrix text format supports base fields of order <= 36")
    return "\n".join("".join(_DIGITS[m.field.index_of(e)] for e in row)
                     for row in m.rows)


def parse_matrix(field: FieldSpec, text: str) -> Mat:
    """Parse a single matrix block."""
    blocks = parse_matrix_blocks(field, text)
    if len(blocks) != 1:
        raise ParseError(f"expected a single matrix block, found {len(blocks)}")
    return blocks[0]


def parse_matrix_blocks(field: FieldSpec, text: str) -> list[Mat]:
    """Parse blank-line-separated matrix blocks."""
    if field.order > len(_DIGITS):
        raise DomainError("matrix text format supports base fields of order <= 36")
    blocks = []
    current: list[list[FieldElement]] = []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if not line:
            if current:
                blocks.append(Mat(field, current))
                current = []
            continue
        row = []
        for ch in line.lower():
            idx = _DIGITS.find(ch)
            if idx < 0:
                raise ParseError(f"invalid matrix digit {ch!r}")
            if idx >= field.order:
                raise ParseError(f"digit {ch!r} out of range for {field!r}")
            row.append(field.from_index(idx))
        if current and len(row) != len(current[0]):
            raise ParseError("matrix rows have inconsistent lengths")
        current.append(row)
    if not blocks:
        raise ParseError("no matrix found in input")
    return blocks
