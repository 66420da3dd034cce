"""Exact arithmetic in finite fields built as quotient-ring towers.

A field is either a prime field Z_p or an extension F[x]/(m) of another
field by a monic irreducible modulus m.  Towers are capped at two extension
levels above the prime field, which is enough for a base field
F_q = F_{p^r} and one extension F_{q^n} on top of it.

Every field enumerates its elements in a fixed mixed-radix order: the
element with coefficients (c_0, ..., c_{d-1}) has index
sum_i index(c_i) * |subfield|^i, and prime residues are their own index.
An element stores that index, an int in [0, order), at every level.  Each
field has int add, sub, neg and mul on indices: residues mod p, or
_digit_ops' sums and a product reduced mod the modulus over the level
below, and FieldSpec._pow gives int powers and inverses by _power, the one
square-and-multiply ladder, which Mat and polynomial powers also run on.
Every level of characteristic 2, GF(2) included, adds and subtracts by
XOR, and GF(2) multiplies by AND.  Over an odd characteristic a vector of
sub^d (an extension field's element is one) adds by blocks of digits
through one table per (field, block length), built on first use and shared
by equal fields; a field whose order squared is above BLOCK_TABLE_BUDGET
adds digit by digit.  Products mod a polynomial have one kernel, _mulmod,
on indices too: a polynomial is the mixed-radix index of its coefficient
vector, so sub[x]/(m) multiplies its element indices as they are.  Over
GF(2), where bit i is the coefficient of x^i, it multiplies by
shift-and-XOR and reduces by XOR of the shifted modulus.  Over any other
coefficient field within the block-table budget it is shift-and-add:
a b = sum_i a_i (x^i b), each x^i b one _alpha_step on from the last (a
digit shift and one tabulated add, the step the coset walk takes too),
scaled and summed through the block tables.  Above the budget it splits
the indices into digits for a schoolbook product and joins the reduced
digits.  Its digit products are _log_product's: over an extension field of
order Q with Q^2 within DESK_SCALE_CAP and m(0) != 0, two reads of a log
and an antilog table with logs to the coset walk's gamma (_coset_walk),
else the field's own product.  Elements are built only at the public API,
in the text formats and inside Poly.

An ExtensionContext keeps the same walk's baby steps and landmarks, about
one element in (|F| - 1)^(1/3) of each coset, and fills the other logs as
its lookups reach them.  The log tables live in _log_tables' bounded memo, one
pair per equal field, and no FieldSpec attribute changes after __init__
or extend, so a field's product never depends on what ran before.  Two
threads that race on the memo build identical tables, and two that race
on a context's log array fill an entry with the same value, so all values
are immutable in effect and safe to share between threads.
"""

from __future__ import annotations

import functools
from array import array
from collections.abc import Iterator, Sequence
from math import gcd
from operator import and_, mul, pos, xor

from .errors import DomainError

#: Largest field cardinality this package will construct, and the largest
#: F_q^n whose image table generate_orbit fills (4 bytes an entry, as in an
#: extension context's dlog array).  Single runs over GF(2) at 2^20
#: (x^20+x^3+1) and at the cap 2^24 (x^24+x^7+x^2+x+1), Python 3.11.7, 2 vCPU
#: Xeon, interpreter alone 13-16 MB: ExtensionContext (baby steps and
#: landmarks) 4.9-6.0 ms at 19.6 MB max RSS and 56-80 ms at 79.6 MB, half or
#: less of its time with ord(alpha) read off m; the companion matrix's image
#: table, added word by word, 11-18 ms at 18 MB and 0.19-0.28 s at 78 MB (five
#: runs each; entry by entry 0.11-0.16 s at 20 MB and 1.9-2.4 s at 110 MB).
#: The table is kept with its matrix for as long as the matrix lives: 4 bytes
#: times q^n, 64 MB at the cap.  Keeping it moved max RSS (single runs, same
#: host) of `spread --verify` (k = 2, 1, 2) at n = 18, 19, 20 from 83.3, 219.9
#: and 72.8 MB to 83.8, 222.0 and 72.8 MB, and of `analyze --verify` on the
#: start e1 from 118.0, 219.8 and 124.1 MB to 119.1, 221.9 and 124.5 MB.
#: The largest field given log/antilog tables (_log_tables) has Q = 2^12 (Q^2
#: at the cap): 343 KiB held per memo entry, read off the coset walk's array
#: and placed by its lookups on a miss in 2.58, 2.57 and 2.85 ms under
#: x^12+x^6+x^4+x+1, x^12+x^3+1 and the c = 315 modulus x^12+x^11+...+x+1,
#: against 3.76, 3.62 and 3.75 ms with every log placed by a lookup and the
#: stride e^(1/4) (medians of 20 interleaved rounds, best of five each).
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


def _power(mul, a, e: int):
    """a^e under the product mul, for e >= 1, left to right: one squaring
    for each bit of e below the top, each followed by a product with a when
    the bit is set, so no square past the top bit and no product with 1."""
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _check_cap(order: int) -> None:
    """Refuse a field cardinality above DESK_SCALE_CAP, read at call time."""
    if order > DESK_SCALE_CAP:
        raise DomainError(
            f"field cardinality {order} exceeds the desk-scale cap {DESK_SCALE_CAP}")


def _max_exponent(base: int, cap: int) -> int:
    """Largest d with base^d <= cap, for base >= 2; no power above cap is built."""
    d, power = 0, base
    while power <= cap:
        d, power = d + 1, power * base
    return d


def _digits(i: int, radix: int, n: int) -> list[int]:
    """The mixed-radix digits of i, lowest first: n of them, and more while
    i is not used up (n = 0: up to the highest nonzero digit)."""
    out = []
    while i or len(out) < n:
        i, digit = divmod(i, radix)
        out.append(digit)
    return out


def _mulmod(sub: "FieldSpec", tail: list[int]):
    """Product of two polynomials over sub, reduced mod the monic polynomial
    m whose coefficients below its leading 1 have the indices in tail.

    Operands and result are mixed-radix indices of coefficient vectors,
    lowest degree first; operands of any degree are reduced, and the result
    is the index of the remainder, of degree below d = len(tail).  Over
    GF(2) bit i is the coefficient of x^i: the product is shift-and-XOR,
    reduced by XOR of m shifted under the top bit.  Over any other field
    whose one-digit table fits BLOCK_TABLE_BUDGET (order up to 89) it is
    shift-and-add, a b = sum_i a_i (x^i b): b, reduced first by Horner on
    _alpha_step when its degree is d or more, takes one alpha-step per digit
    of a, and each a_i (x^i b) is a scalar product and a sum of _digit_ops'
    block tables, so no product in sub is made.  Above the budget, where
    those scalar products go digit by digit, each operand is split into
    all of its digits (a square only once) for a schoolbook product,
    reduced by folding m's tail, and the low digits are joined; its digit
    products are _log_product(sub)'s."""
    d = len(tail)
    if _packed(sub):
        m = sum(c << i for i, c in enumerate(tail)) | 1 << d

        def clmul(a, b):
            prod = 0
            while b:
                low = b & -b  # a times a power of two is a shift
                prod ^= a * low
                b ^= low
            top = prod.bit_length() - d
            while top > 0:
                prod ^= m << top - 1
                top = prod.bit_length() - d
            return prod

        return clmul
    if not d:  # the modulus 1: every remainder is 0
        return lambda a, b: 0
    q = sub.order
    if _block_digits(q, d):
        add, _, _, _, times = _digit_ops(sub, d)
        step, size = _alpha_step(sub, tail), q ** d

        def shift_add(a, b):
            if b >= size:  # Horner: b = (...(b_top x + ...) x + b_0
                r = 0
                for c in reversed(_digits(b, q, 0)):
                    r = add(step(r), c)
                b = r
            a, c = divmod(a, q)
            prod = times(c, b)
            while a:
                b = step(b)
                a, c = divmod(a, q)
                if c:
                    prod = add(prod, b if c == 1 else times(c, b))
            return prod

        return shift_add
    add, mul = sub._add, _log_product(sub)
    # The modulus is monic: x^d = -(m_0 + m_1 x + ... + m_{d-1} x^{d-1}).
    fold = [(j, sub._neg(m)) for j, m in enumerate(tail) if m]
    join = _digit_ops(sub, d)[3]

    def mulmod(a, b):
        high = _digits(a, q, 0)
        low = high if b == a else _digits(b, q, 0)
        prod = [0] * (len(high) + len(low) - 1)
        terms = [(j, c) for j, c in enumerate(low) if c]
        for i, c in enumerate(high):
            if c:
                for j, e in terms:
                    prod[i + j] = add(prod[i + j], mul(c, e))
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c:
                for j, e in fold:
                    prod[i - d + j] = add(prod[i - d + j], mul(c, e))
        return join(prod)  # the low d digits

    return mulmod


def _alpha_step(sub: "FieldSpec", tail: list[int]):
    """The product by x mod the monic m with tail indices tail, on the
    index of a vector of sub^d, d = len(tail) >= 1: it shifts the digits up
    one place and adds shift[h] = -h (m_0, ..., m_{d-1}), h the digit
    shifted out, so a step makes no product in sub (the |sub| d products
    that fill shift are made here, once).  In characteristic 2 a step is
    x * q XOR a vector that also clears h from place d; otherwise it is a
    divmod by q^(d-1) and one add, _digit_ops' block-table add.  _mulmod and
    _coset_walk both step on it."""
    q, top = sub.order, sub.order ** (len(tail) - 1)
    neg, mul = sub._neg, sub._mul
    add, _, _, join, _ = _digit_ops(sub, len(tail))
    shift = [join([neg(mul(h, m)) for m in tail]) for h in range(q)]
    if sub.p == 2:
        # x * q carries the digit h = x // top to place d; one XOR adds
        # shift[h] and clears it.
        carry = [s ^ h * top * q for h, s in enumerate(shift)]

        def step(x):
            return x * q ^ carry[x // top]
    else:
        def step(x):
            h, x = divmod(x, top)
            return add(x * q, shift[h])
    return step


def _packed(sub: "FieldSpec") -> bool:
    """True for GF(2) itself, whose _mulmod products are carry-less."""
    return sub.level == 0 and sub.p == 2


def _coset_walk(field: "FieldSpec"):
    """Discrete logs in the extension field F[x]/(m), m(0) != 0, coset by
    coset, on indices: (coords, reps, alpha, unit, place).

    alpha is the residue class of x, e = ord(alpha) as the walk finds it
    (trusting FieldSpec.extend's irreducibility proof).  The c = (|F| - 1)/e
    cosets gamma^i<alpha>, i in [0, c), have reps gamma^0, ..., gamma^c, for
    gamma = alpha when e = |F| - 1, else the first element in enumeration
    order of order |F| - 1.  coords holds i*e + b at gamma^i * alpha^b, or
    -1 while that is unknown: coset-major, so coset 0 is written before c is
    known.  An alpha-step is _alpha_step's, so it makes no product in F; the
    product by alpha^s is linear over the subfield, a read in each of two
    block image tables of its shifted rows x^s, ..., x^(s + n - 1)
    (matspace._spanner's span) and one add.

    e comes from Shanks' baby-step giant-step, s the integer cube root of
    |F| - 1: the baby steps alpha^r, r < s, are written at r, and e is the
    first r > 0 with alpha^r = 1, if any; else the giant steps alpha^(s j)
    are written at s j until one meets a filled entry, a baby step alpha^a,
    and e = s j - a, the least such exponent.  The other cosets get their
    landmarks gamma^i * alpha^b, b a multiple of s, each the one before
    times alpha^s.  The build makes about (|F| - 1)/s of these products and
    a cold lookup fewer than s alpha-steps, each filling an entry for good:
    s near (|F| - 1)^(1/3) balances the build against the q^k - 1 lookups of
    a predictor query.  place(x) returns coords[x]; on a miss it alpha-steps
    from x to the first filled entry, fills the path and returns the entry,
    and raises RuntimeError when there is none.

    gamma is searched on coset 0, x lying in <alpha> when a lookup from x
    meets a filled entry: g has order |F| - 1 exactly when g^(c/l) lies
    outside <alpha> for every prime l | c (g has order c modulo <alpha>) and
    g^c = alpha^b with gcd(b, e) = 1 (g^c has order e).  Each representative
    is the one before times gamma.  With gamma^c = alpha^t and unit = t^-1
    mod e, alpha = gamma^(c * unit), so gamma^i * alpha^b = gamma^j for j =
    i + c * (b * unit mod e).  A reducible modulus let past extend raises
    RuntimeError: e does not divide |F| - 1, or gamma fails.
    """
    from .matspace import _spanner

    sub, modulus = field.subfield, field.modulus
    q, n, big = sub.order, field.degree, field.order - 1
    s = int(big ** (1 / 3) + 1e-9)  # 1e-9 lifts a cube's root; others are 1e-6 off an int
    step = _alpha_step(sub, [m.value for m in modulus.coeffs[:-1]])
    coords = array("i", [-1]) * field.order
    add = field._add
    # x^j, j < s + n: the baby steps and the rows of alpha^s's block tables.
    rows = [1]
    for _ in range(s + n - 1):
        rows.append(step(rows[-1]))
    alpha, size = rows[1], q ** (n // 2)
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

    def seek(x):
        """coords[x], filled on a miss; -1 when none of x and its next
        s - 1 alpha-steps is filled."""
        path = []
        for _ in range(s):
            a = coords[x]
            if a >= 0:
                for y in reversed(path):
                    a = a - 1 if a % e else a + e - 1  # one alpha-step back
                    coords[y] = a
                return a
            path.append(x)
            x = step(x)
        return -1

    def place(x):
        a = seek(x)
        if a < 0:
            raise RuntimeError("gamma does not generate the nonzero elements")
        return a

    if c == 1:
        gamma = alpha
    else:
        power, primes = field._pow, _prime_factors(c)
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
    i, t = divmod(place(reps[c]), e)
    if i or gcd(t, e) != 1:
        raise RuntimeError("gamma does not generate the nonzero elements")
    return coords, reps, alpha, pow(t, -1, e), place


def _log_product(field: "FieldSpec"):
    """_mulmod's schoolbook product over field: _log_tables' reads, or field._mul
    itself for a prime field, for |field|^2 above the cap and for m(0) = 0."""
    tables = field.level and field.order ** 2 <= DESK_SCALE_CAP and field.modulus.coeffs[0].value
    return _log_tables(field) if tables else field._mul


@functools.lru_cache(maxsize=16)  # bounded: an entry holds up to 343 KiB (Q = 2^12)
def _log_tables(field: "FieldSpec"):
    """exp[log[a] + log[b]] on the indices of an extension field with
    m(0) != 0, logs to _coset_walk's gamma (an ExtensionContext's dlog),
    each read off the walk's array and placed by its place only on a miss;
    equal fields share one pair."""
    coords, reps, _, unit, place = _coset_walk(field)
    c = len(reps) - 1
    e = (field.order - 1) // c
    for x in range(1, field.order):
        if coords[x] < 0:
            place(x)
    log = [a // e + c * (a % e * unit % e) for a in coords]  # log[0] is never read
    # The nonzero elements in order of their logs, twice over: log[a] + log[b]
    # < 2 (|field| - 1) needs no reduction.
    exp = sorted(range(1, field.order), key=log.__getitem__) * 2
    return lambda a, b: exp[log[a] + log[b]] if a and b else 0


#: Most entries in one block table of _digit_ops: a field of order Q adds
#: vectors by blocks of h digits through a Q^h x Q^h table, for the largest
#: h with Q^(2h) within this budget (GF(3): h = 4, GF(5), GF(7), F_9: h = 2,
#: GF(11) to GF(89): h = 1), and digit by digit above it.  See CHANGES.md for
#: the measurements behind it.
BLOCK_TABLE_BUDGET = 1 << 13


def _block_digits(q: int, d: int) -> int:
    """Digits per block of sub^d, |sub| = q: the fewest blocks whose tables
    fit BLOCK_TABLE_BUDGET, split as evenly as they go; 0 when one digit's
    table does not fit."""
    most = _max_exponent(q * q, BLOCK_TABLE_BUDGET)
    if not most:
        return 0
    blocks = -(-d // most)
    return -(-d // blocks)


@functools.lru_cache(maxsize=256)  # bounded: the cache holds its fields
def _block_tables(sub: "FieldSpec", h: int):
    """(plus, times) on the indices of sub^h, one block of h digits:
    plus[a][b] is the index of a + b (None in characteristic 2, which adds
    by XOR) and times[c][a] that of c a.  Each table is composed from
    sub's one-digit tables, one digit at a time, with no sum of digits;
    equal fields share one pair."""
    q = sub.order

    def widen(high, low):  # block index i_high * q + i_low
        return [q * x + y for x in high for y in low]

    times = digit = [[sub._mul(c, a) for a in range(q)] for c in range(q)]
    for _ in range(h - 1):
        times = list(map(widen, times, digit))
    if sub.p == 2:
        return None, times
    plus = digit = [[sub._add(a, b) for b in range(q)] for a in range(q)]
    for _ in range(h - 1):
        plus = [widen(x, y) for x in plus for y in digit]
    return plus, times


def _blockwise(table, size: int, blocks: int):
    """table[a][b] on indices of the given number of blocks, each of the
    given size, applied block by block from the highest."""
    if blocks == 1:
        return lambda a, b: table[a][b]
    if blocks == 2:
        return lambda a, b: table[a // size][b // size] * size + table[a % size][b % size]
    weights = [size ** j for j in range(blocks - 1, 0, -1)]

    def op(a, b):
        s = 0
        for w in weights:
            s += table[a // w][b // w] * w
            a %= w
            b %= w
        return s + table[a][b]

    return op


@functools.lru_cache(maxsize=256)  # bounded: the cache holds its fields
def _digit_ops(sub: "FieldSpec", d: int):
    """Int add, sub, neg, digit join and scalar product times(c, v) on the
    indices of sub^d, built once per (field, d).  In characteristic 2 add
    and sub are XOR and neg is the identity.  Otherwise, when sub's table
    fits BLOCK_TABLE_BUDGET, an index is split into blocks of h digits
    (_block_digits) and added block by block through _block_tables; above
    it the digits are added one by one by sub's own add.  times multiplies
    by the same block tables, and neg is times by -1."""
    q = sub.order
    weights = [q ** i for i in range(d)]

    def join(digits):
        return sum(map(mul, digits, weights))

    h = _block_digits(q, d) if q > 2 else 0  # GF(2) has no c >= 2 to tabulate
    if h:
        size, blocks = q ** h, -(-d // h)
        plus, scales = _block_tables(sub, h)
        # The one-row table [t] read at a = 0 is t.
        maps = [functools.partial(_blockwise([t], size, blocks), 0) for t in scales]

        def times(c, v):
            return maps[c](v)
    else:
        scale = sub._mul

        def times(c, v):
            return join([scale(c, e) for e in _digits(v, q, d)])

    if sub.p == 2:
        return xor, xor, pos, join, times
    if h:
        add, neg = _blockwise(plus, size, blocks), maps[sub._neg(1)]
    else:
        add_digit, neg = sub._add, functools.partial(times, sub._neg(1))

        def add(a, b):
            return sum([add_digit(a // w % q, b // w % q) * w for w in weights])

    def minus(a, b):
        return add(a, neg(b))

    return add, minus, neg, join, times


class FieldSpec:
    """A finite field: Z_p, or a quotient of the field one level below.

    Every attribute, the int operations included, is set by __init__ or
    extend and never changes after; _key gives equality and the hash.
    """

    __slots__ = ("p", "subfield", "modulus", "degree", "order", "level",
                 "_add", "_sub", "_neg", "_mul", "_join", "_key", "_hash")

    def __init__(self, p: int):
        """Create the prime field Z_p."""
        # The cap comes first: it bounds the trial division below.
        _check_cap(p)
        if _prime_factors(p) != [p]:
            raise DomainError(f"characteristic {p} is not prime")
        self.p = p
        self.subfield = None
        self.modulus = None
        self.degree = 1
        self.order = p
        self.level = 0
        if p == 2:  # the XOR rule of every characteristic-2 level
            self._add, self._sub, self._neg, self._mul = xor, xor, pos, and_
        else:
            self._add = lambda a, b: (a + b) % p
            self._sub = lambda a, b: (a - b) % p
            self._neg = lambda a: -a % p
            self._mul = lambda a, b: a * b % p
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
        _check_cap(order)
        if not polyring.is_irreducible(modulus):
            raise DomainError(f"modulus {modulus} is reducible")

        spec = object.__new__(FieldSpec)
        spec.p = self.p
        spec.subfield = self
        spec.modulus = modulus
        spec.degree = modulus.degree
        spec.order = order
        spec.level = self.level + 1
        coeffs = [self.index_of(c) for c in modulus.coeffs]
        spec._add, spec._sub, spec._neg, spec._join, _ = _digit_ops(self, spec.degree)
        spec._mul = _mulmod(self, coeffs[:-1])
        spec._key = ("ext", self._key, tuple(coeffs))
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
            sub = self.subfield
            return FieldElement(self, self._join(sub.element(c).value for c in value))
        raise DomainError(f"cannot build a field element from {value!r}")

    def from_index(self, i: int) -> "FieldElement":
        """Element number i, an int (a bool as 0 or 1), in the mixed-radix order."""
        if type(i) is not int:
            if not isinstance(i, int):
                raise DomainError(f"element index {i!r} is not an int")
            i = int(i)
        if not 0 <= i < self.order:
            raise DomainError(f"index {i} out of range for a field of order {self.order}")
        return FieldElement(self, i)

    def index_of(self, e: "FieldElement") -> int:
        """Inverse of from_index."""
        if not isinstance(e, FieldElement) or e.field != self:
            raise DomainError("element belongs to a different field")
        return e.value

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in enumeration order."""
        return map(self.from_index, range(self.order))

    def _pow(self, a: int, e: int) -> int:
        """Index of a^e for the element with index a; any int e when a != 0,
        reduced mod |F| - 1 for _power."""
        if not a:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 1 if e == 0 else 0
        # Nonzero elements have order dividing |F| - 1 (Lagrange), so any
        # integer exponent, negative included, reduces into [0, |F| - 1).
        e %= self.order - 1
        return _power(self._mul, a, e) if e else 1

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # The int operations are closures, so a pickle rebuilds the tower.
        return field_make, (self.p, self.subfield and self.subfield.modulus, self.modulus)

    def __repr__(self):
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

    def __init__(self, field: FieldSpec, value: int):
        # Internal: value must already be an index in [0, field.order).
        self.field = field
        self.value = value

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.field == other.field

    def __hash__(self):
        return hash((self.field._hash, self.value))

    def __repr__(self):
        return f"{self.field!r}[{self.value}]"

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
        return FieldElement(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement(self.field, self.field._pow(self.value, e))

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        return FieldElement(self.field, self.field._pow(self.value, -1))
