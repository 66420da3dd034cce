"""A third, test-only route to the cardinality: the stabilizer subfield.

The multipliers x of F_{q^n} with x U = U, together with 0, form a subfield
F_{q^s}, the largest one over which U is a vector space (Gluesing-Luerssen,
Morrison and Troha, "Cyclic orbit codes and stabilizer subfields", 2015).
The group <alpha> of order e = ord(p) therefore fixes U exactly on its
intersection with F_{q^s}^*, which has gcd(e, q^s - 1) elements, so the
orbit has e / gcd(e, q^s - 1) codewords.  Every intersection U ∩ U alpha^i
is an F_{q^s}-space too, so every distance is a multiple of 2s.

s is found by one membership test per divisor of n, on field elements
only: no exponent, orbit, dlog or difference data of the context is used.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcodes import ExtensionContext, FieldSpec, Mat, Subspace, analyze, parse_poly

F2, F3 = FieldSpec(2), FieldSpec(3)
F4 = F2.extend(parse_poly(F2, "x^2+x+1"))

MODULI = [
    (F2, "x^4+x+1"), (F2, "x^4+x^3+x^2+x+1"), (F2, "x^6+x+1"),
    (F2, "x^6+x^3+1"), (F2, "x^6+x^4+x^2+x+1"),
    (F3, "x^4+x+2"), (F3, "x^4+x^3+x^2+x+1"), (F3, "x^6+x+2"),
    (F4, "x^2+x+[2]"), (F4, "x^2+[2]*x+[1]"), (F4, "x^3+[2]"),
    (F4, "x^3+[2]*x+[1]"), (F4, "x^4+x^2+[2]*x+[3]"),
]


class Field:
    """F_{q^n} for one modulus, with its subfields and the order of alpha."""

    def __init__(self, base, text):
        self.ctx = ExtensionContext.from_modulus(parse_poly(base, text))
        field, q, n = self.ctx.field, base.order, self.ctx.n
        self.q, self.n = q, n
        # F_{q^s} is the set of fixed points of x -> x^(q^s).
        self.subfields = {s: [x for x in field.elements() if x ** (q ** s) == x]
                          for s in range(1, n + 1) if n % s == 0}
        alpha, one = field.element([0, 1]), field.one()
        self.e = min(m for m in range(1, q ** n) if (q ** n - 1) % m == 0
                     and alpha ** m == one)

    def stabilizer_degree(self, u: Subspace) -> int:
        """Largest s | n with F_{q^s} U contained in U."""
        field = self.ctx.field
        members = {field.element(v) for v in u.nonzero_vectors()}
        basis = [field.element(row) for row in u.mat.rows]
        return max(s for s, sub in self.subfields.items()
                   if all(x * b in members for x in sub if x for b in basis))


FIELDS = [Field(base, text) for base, text in MODULI]


@st.composite
def starts(draw, f: Field):
    """A random span, or a sum of translates x F_{q^s} of a subfield."""
    base = f.ctx.base
    if draw(st.booleans()):
        digit = st.integers(0, f.q - 1)
        rows = draw(st.lists(st.lists(digit, min_size=f.n, max_size=f.n),
                             min_size=1, max_size=f.n))
        return Subspace(Mat(base, rows))
    s = draw(st.sampled_from(sorted(f.subfields)))
    element = st.integers(1, f.ctx.field.order - 1).map(f.ctx.field.from_index)
    shifts = draw(st.lists(element, min_size=1, max_size=f.n // s))
    return Subspace(Mat(base, [f.ctx.phi_inv(x * y) for x in shifts
                               for y in f.subfields[s]]))


@pytest.mark.parametrize("f", FIELDS, ids=[f"{b!r}:{t}" for b, t in MODULI])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_cardinality_and_distance_follow_the_stabilizer_subfield(f, data):
    u = data.draw(starts(f))
    if u.dim == 0:
        return
    s = f.stabilizer_degree(u)
    report = analyze(u, f.ctx)
    assert report.predicted_cardinality == f.e // gcd(f.e, f.q ** s - 1)
    if report.predicted_distance is not None:
        assert report.predicted_distance % (2 * s) == 0


def test_translates_reach_every_subfield():
    # The subfield starts make s > 1 occur: x F_{q^s} has stabilizer F_{q^s}.
    f = FIELDS[MODULI.index((F3, "x^6+x+2"))]
    x = f.ctx.field.from_index(5)
    for s, sub in f.subfields.items():
        u = Subspace(Mat(f.ctx.base, [f.ctx.phi_inv(x * y) for y in sub]))
        assert u.dim == s and f.stabilizer_degree(u) == s
