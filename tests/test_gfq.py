import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcodes import (DESK_SCALE_CAP, DomainError, FieldSpec, field_make,
                        list_irreducibles, parse_poly)
from orbitcodes.gfq import _digits


def _small_fields():
    """A tower of test fields covering both extension shapes."""
    f2, f3, f5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
    f4 = f2.extend(parse_poly(f2, "x^2+x+1"))
    f8 = f2.extend(parse_poly(f2, "x^3+x+1"))
    f9 = f3.extend(parse_poly(f3, "x^2+1"))
    f64 = field_make(2, None, parse_poly(f2, "x^6+x+1"))
    f64_tower = f4.extend(list_irreducibles(f4, 3)[0])  # F_{(2^2)^3}
    return [f2, f3, f5, f4, f8, f9, f64, f64_tower]


FIELDS = _small_fields()


class TestConstruction:
    def test_prime_field(self):
        f = FieldSpec(7)
        assert f.order == 7 and f.p == 7 and f.level == 0

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
    def test_non_prime_rejected(self, p):
        with pytest.raises(DomainError, match="not prime"):
            FieldSpec(p)

    def test_field_make_gf64(self, f2):
        f = field_make(2, None, parse_poly(f2, "x^6+x+1"))
        assert f.order == 64 and f.p == 2 and f.level == 1

    def test_field_make_prime_only(self):
        assert field_make(2).order == 2

    def test_reducible_modulus_rejected(self, f2):
        # x^2+1 = (x+1)^2 over GF(2)
        with pytest.raises(DomainError, match="reducible"):
            field_make(2, None, parse_poly(f2, "x^2+1"))

    def test_non_monic_modulus_rejected(self, f3):
        with pytest.raises(DomainError, match="monic"):
            f3.extend(parse_poly(f3, "2*x+1"))

    def test_constant_modulus_rejected(self, f2):
        with pytest.raises(DomainError, match="degree"):
            f2.extend(parse_poly(f2, "1"))

    def test_modulus_over_wrong_field_rejected(self, f2, f3):
        with pytest.raises(DomainError, match="different field"):
            f3.extend(parse_poly(f2, "x^2+x+1"))

    def test_two_level_tower(self, f4):
        top = f4.extend(list_irreducibles(f4, 2)[0])
        assert top.order == 16 and top.level == 2 and top.subfield is f4

    def test_third_level_rejected(self, f4):
        top = f4.extend(list_irreducibles(f4, 2)[0])
        with pytest.raises(DomainError, match="two extension levels"):
            top.extend(list_irreducibles(top, 2)[0])

    def test_cap_enforced(self, f2):
        big = parse_poly(f2, "x^25+x+1")  # rejected before irreducibility runs
        with pytest.raises(DomainError, match="cap"):
            f2.extend(big)
        assert 2 ** 25 > DESK_SCALE_CAP
        with pytest.raises(DomainError, match="cap"):
            FieldSpec(2 ** 61 - 1)  # a prime; rejected before trial division

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"order{f.order}")
    def test_pickle_round_trip(self, field):
        x = field.from_index(field.order - 1)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.field == field and y * y == x * x

    def test_cardinality_tower_law(self):
        for f in FIELDS:
            if f.level > 0:
                assert f.order == f.subfield.order ** f.degree


class TestArithmetic:
    def test_alpha_reduction(self, ctx64):
        a = ctx64.alpha
        assert a ** 6 == a + ctx64.field.one()

    def test_alpha_order_63(self, ctx64):
        a = ctx64.alpha
        assert a ** 63 == ctx64.field.one()
        assert all(a ** m != ctx64.field.one() for m in range(1, 63))

    def test_prime_inverse(self, f2):
        one = f2.one()
        assert one.inv() == one

    def test_zero_inverse_raises(self, f4):
        with pytest.raises(ZeroDivisionError):
            f4.zero().inv()
        with pytest.raises(ZeroDivisionError):
            f4.zero() ** -1

    def test_zero_powers(self, f4):
        assert f4.zero() ** 0 == f4.one()
        assert f4.zero() ** 5 == f4.zero()

    def test_negative_exponent(self, ctx64):
        a = ctx64.alpha
        assert (a ** -9) * (a ** 9) == ctx64.field.one()

    @pytest.mark.parametrize("field", FIELDS[:6], ids=lambda f: f"order{f.order}")
    def test_int_pow_matches_repeated_products(self, field):
        size = field.order
        for a in range(1, size):
            inverse = next(b for b in range(1, size) if field._mul(a, b) == 1)
            for e in range(-2 * size, 2 * size + 1):
                want, factor = 1, (a if e >= 0 else inverse)
                for _ in range(abs(e)):
                    want = field._mul(want, factor)
                assert field._pow(a, e) == want, (a, e)
        assert [field._pow(0, e) for e in range(2 * size + 1)] == [1] + [0] * 2 * size
        with pytest.raises(ZeroDivisionError):
            field._pow(0, -1)

    def test_division(self, f3):
        f9 = f3.extend(parse_poly(f3, "x^2+1"))
        a, b = f9.from_index(5), f9.from_index(7)
        assert (a / b) * b == a

    @pytest.mark.parametrize("field", [FIELDS[1], FIELDS[3], FIELDS[3].extend(
        list_irreducibles(FIELDS[3], 2)[0])], ids=["GF3", "F4", "F4^2"])
    def test_int_sub_is_add_of_neg(self, field):
        # Exhaustive: the one-pass _sub agrees with _add after _neg, and
        # the operator goes through it.
        for a in range(field.order):
            for b in range(field.order):
                want = field._add(a, field._neg(b))
                assert field._sub(a, b) == want
                assert (field.from_index(a) - field.from_index(b)).value == want

    @pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
    def test_add_is_digit_wise(self, field):
        # Exhaustive against the digits over the level below; in
        # characteristic 2 that is XOR of the indices at every level.
        sub = field.subfield
        for a in range(field.order):
            for b in range(field.order):
                if sub is None:
                    want = (a + b) % field.p
                else:
                    want = sum(sub._add(x, y) * sub.order ** j for j, (x, y) in enumerate(
                        zip(_digits(a, sub.order, field.degree), _digits(b, sub.order, field.degree))))
                assert field._add(a, b) == want
                if field.p == 2:
                    assert want == a ^ b

    def test_field_mismatch(self, f2, f3):
        with pytest.raises(DomainError, match="different fields"):
            f2.one() + f3.one()


class TestEnumeration:
    def test_index_one_is_one(self, f2):
        assert f2.from_index(1) == f2.one()

    def test_f4_index_two_is_x(self, f4):
        assert f4.from_index(2) == f4.element([0, 1])

    def test_enumerate_distinct(self, f4):
        elems = list(f4.elements())
        assert len(elems) == 4 and len(set(elems)) == 4

    def test_out_of_range(self, f4):
        with pytest.raises(DomainError, match="out of range"):
            f4.from_index(4)
        with pytest.raises(DomainError, match="out of range"):
            f4.from_index(-1)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"order{f.order}")
    def test_index_round_trip(self, field):
        for i in range(field.order):
            assert field.index_of(field.from_index(i)) == i

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"order{f.order}")
    def test_lagrange(self, field):
        one = field.one()
        for e in field.elements():
            if e:
                assert e ** (field.order - 1) == one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"order{f.order}")
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_field_axioms(field, data):
    pick = st.integers(min_value=0, max_value=field.order - 1)
    a = field.from_index(data.draw(pick))
    b = field.from_index(data.draw(pick))
    c = field.from_index(data.draw(pick))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == field.zero()
    assert a * field.one() == a
    if a:
        assert a * a.inv() == field.one()
