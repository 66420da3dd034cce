"""Reference arithmetic for the benchmark, sharing no code with orbitcodes.

Vectors of GF(2)^n are ints: bit i - 1 holds coordinate v_i, so the vector
(v_1, ..., v_n) is also the field element sum v_i alpha^(i-1) of
GF(2)[x]/(p).  Under this reading the companion matrix P of p acts as
multiplication by alpha, so the orbit code {rs(U P^i)} is {U alpha^i}.

The orbit parameters are found by span intersections under alpha-shifts:
|U cap U alpha^h| - 1 counts the pairs (a, b) of nonzero vectors of U with
b = a alpha^h, so enumerating the quotients b / a finds every shift that
meets U and how much it meets.  Nothing here reads exponent profiles,
difference multisets or the library's fields.
"""

from __future__ import annotations


def poly_bits(text: str) -> int:
    """Bit mask of a GF(2) polynomial written like "x^6+x+1"."""
    bits = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            bits ^= 1
        elif term == "x":
            bits ^= 2
        elif term.startswith("x^"):
            bits ^= 1 << int(term[2:])
        else:
            raise ValueError(f"not a GF(2) monomial: {term!r}")
    return bits


def mulmod(a: int, b: int, poly: int) -> int:
    """Product of two GF(2)[x] residues modulo poly."""
    n = poly.bit_length() - 1
    top = 1 << n
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return out


def powmod(a: int, e: int, poly: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = mulmod(out, a, poly)
        a = mulmod(a, a, poly)
        e >>= 1
    return out


def prime_factors(n: int) -> list[int]:
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


def alpha_order(poly: int) -> int:
    """Multiplicative order of x modulo an irreducible poly."""
    order = (1 << (poly.bit_length() - 1)) - 1
    for ell in prime_factors(order):
        while order % ell == 0 and powmod(2, order // ell, poly) == 1:
            order //= ell
    return order


def rank(rows: list[list[int]], q: int) -> int:
    """Rank of a matrix over GF(2) or GF(4).

    GF(4) entries are indices c0 + 2 c1 of c0 + c1 x modulo x^2 + x + 1,
    the enumeration the CLI's matrix text format uses.
    """
    if q not in (2, 4):
        raise ValueError(f"reference rank supports q = 2 and q = 4, not {q}")
    field_poly = 0b111 if q == 4 else 0b11
    inverse = {a: next(b for b in range(1, q) if mulmod(a, b, field_poly) == 1)
               for a in range(1, q)}
    work = [list(r) for r in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = inverse[work[r][col]]
        work[r] = [mulmod(inv, e, field_poly) for e in work[r]]
        for i in range(len(work)):
            c = work[i][col]
            if i != r and c:
                work[i] = [e ^ mulmod(c, f, field_poly) for e, f in zip(work[i], work[r])]
        r += 1
    return r


def row_to_int(row) -> int:
    return sum(1 << i for i, bit in enumerate(row) if bit)


def int_to_row(value: int, n: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n)]


def span(rows_int: list[int]) -> set[int]:
    """Nonzero vectors spanned by GF(2) rows given as ints."""
    out = {0}
    for r in rows_int:
        out |= {v ^ r for v in out}
    out.discard(0)
    return out


def spread_start_rows(n: int, k: int, poly: int, shift: int) -> list[list[int]]:
    """Basis alpha^(shift + i c), i < k, of the subfield F_{2^k} moved by
    alpha^shift, with c = (2^n - 1) / (2^k - 1)."""
    c = ((1 << n) - 1) // ((1 << k) - 1)
    return [int_to_row(powmod(2, shift + i * c, poly), n) for i in range(k)]


class OrbitReference:
    """Orbit cardinality and minimum distance under one GF(2) modulus."""

    def __init__(self, poly: int):
        self.poly = poly
        self.n = poly.bit_length() - 1
        self.order = alpha_order(poly)
        self._shift_of = {}
        el = 1
        for h in range(self.order):
            self._shift_of[el] = h
            el = mulmod(el, 2, poly)

    def params(self, rows) -> tuple[int, int | None]:
        """(cardinality, minimum distance) of the orbit of rs(rows)."""
        elems = span([row_to_int(r) for r in rows])
        s = len(elems)
        k = s.bit_length()
        if s != (1 << k) - 1:
            raise ValueError("span size is not 2^k - 1")
        full = (1 << self.n) - 2
        meets: dict[int, int] = {}
        for a in elems:
            a_inv = powmod(a, full, self.poly)
            for b in elems:
                h = self._shift_of.get(mulmod(b, a_inv, self.poly))
                if h is not None:
                    meets[h] = meets.get(h, 0) + 1
        cardinality = min((h for h, m in meets.items() if h and m == s),
                          default=self.order)
        if cardinality == 1:
            return 1, None
        common = max((m for h, m in meets.items() if h % cardinality), default=0)
        d = (common + 1).bit_length() - 1
        if (1 << d) != common + 1:
            raise ValueError("intersection size is not 2^d - 1")
        return cardinality, 2 * k - 2 * d
