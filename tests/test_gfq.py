import functools
import pickle
import random
from operator import pos, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcodes.gfq
from orbitcodes import (DESK_SCALE_CAP, DomainError, ExtensionContext, FieldSpec, Poly,
                        build_spread_start, cli, companion_matrix, field_make,
                        generate_orbit, list_irreducibles, matrix_order,
                        order_of_polynomial, parse_poly, poly_powmod)
from orbitcodes.gfq import (BLOCK_TABLE_BUDGET, _block_digits, _block_tables, _digit_ops,
                            _digits, _log_product, _max_exponent, _mulmod, _power,
                            _prime_factors)
from orbitcodes.matspace import Mat, Subspace, _image_table
from orbitcodes.orbitcode import min_distance_brute


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

    def test_one_cap_for_every_structure(self, monkeypatch, f2):
        # Every structure sized by a field cardinality reads the one
        # gfq.DESK_SCALE_CAP when called.
        p = parse_poly(f2, "x^4+x+1")
        P, u = companion_matrix(p), build_spread_start(2, 4, ExtensionContext.from_modulus(p))
        builds = [lambda: FieldSpec(17).order, lambda: f2.extend(p).order,
                  lambda: order_of_polynomial(p), lambda: matrix_order(P),
                  lambda: len(generate_orbit(u, P))]
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 15)
        for build in builds:
            with pytest.raises(DomainError,
                               match=r"cardinality 1[67] exceeds the desk-scale cap 15"):
                build()
        monkeypatch.setattr(orbitcodes.gfq, "DESK_SCALE_CAP", 17)
        assert [build() for build in builds] == [17, 16, 15, 15, 5]

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

    def test_int_pow_squares_up_to_the_top_bit(self):
        # a^e costs one squaring per bit of e below the top and one product
        # per set bit below it: no square past the exponent's top bit, and
        # no product with 1.
        field, calls = field_make(2, None, parse_poly(FieldSpec(2), "x^6+x+1")), [0]
        product = field._mul

        def counting(a, b):
            calls[0] += 1
            return product(a, b)

        field._mul = counting
        costs = []
        for e in (1, 2, 3, 8, 62):
            calls[0] = 0
            field._pow(2, e)
            costs.append(calls[0])
        assert costs == [0, 1, 2, 3, 9]

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

    @pytest.mark.parametrize("index", [2.0, "2", None, 1j], ids=repr)
    def test_a_non_int_index_is_refused(self, f3, index):
        with pytest.raises(DomainError, match="not an int"):
            f3.from_index(index)
        with pytest.raises(DomainError):
            f3.element(index)

    def test_a_bool_index_is_its_plain_int(self, f3, f4):
        for field in (f3, f4):
            for flag, i in ((False, 0), (True, 1)):
                for x in (field.from_index(flag), field.element(flag)):
                    assert type(x.value) is int and x.value == i
                    assert repr(x) == f"GF({field.order})[{i}]"
        assert repr(f3.from_index(True) * f3.from_index(2)) == "GF(3)[2]"

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


def _fresh(p, modulus):
    """A new extension of Z_p by the given modulus."""
    base = FieldSpec(p)
    return base.extend(parse_poly(base, modulus))


def _first_generator(field):
    """Index of the first element in enumeration order of order |F| - 1."""
    big = field.order - 1
    return next(g for g in range(1, field.order)
                if all(field._pow(g, big // ell) != 1 for ell in _prime_factors(big)))


def _reference_walk(field):
    """An ExtensionContext's log array, its representatives gamma^0, ...,
    gamma^c, alpha and unit, as indices built by repeated products: alpha
    is x mod m, its order and every coset walk come from field._mul, and
    gamma is _first_generator's."""
    sub, m = field.subfield, field.modulus
    alpha = field.element((Poly.x(sub) % m).coeffs).value
    order, x = 1, alpha
    while x != 1:
        order, x = order + 1, field._mul(x, alpha)
    big = field.order - 1
    gamma = alpha if order == big else _first_generator(field)
    cosets = big // order
    reps = [1]
    for _ in range(cosets):
        reps.append(field._mul(reps[-1], gamma))
    coords = [-1] * field.order
    for i in range(cosets):
        x = reps[i]
        for b in range(order):
            coords[x] = i * order + b
            x = field._mul(x, alpha)
    return coords, reps, alpha, pow(coords[reps[cosets]], -1, order)


#: (p, base modulus or None, modulus): primitive and non-primitive moduli
#: over GF(2), GF(3), GF(5) and F_4, degree one over each, and n = 16.
WALK_MODULI = [
    (2, None, "x^6+x+1"), (2, None, "x^4+x^3+x^2+x+1"),  # c = 1, c = 3
    (2, None, "x^12+x^11+x^2+x+1"),  # c = 3
    (2, None, "x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1"),  # c = 315
    (2, None, "x+1"), (3, None, "x^2+1"), (3, None, "x^3+2*x+1"), (3, None, "x^4+x+2"),
    (3, None, "x+1"), (5, None, "x^2+x+2"), (5, None, "x^2+2"), (5, None, "x+1"),
    (5, None, "x+3"), (2, "x^2+x+1", "x^3+[2]"), (2, "x^2+x+1", "x^3+[2]*x+[1]"),
    (2, "x^2+x+1", "x^4+x^2+[2]*x+[3]"), (2, "x^2+x+1", "x+[2]"),
    (2, None, "x^16+x^5+x^3+x^2+1"),  # c = 1, giant steps of s = 40
]


def _walk_field(p, base_modulus, modulus):
    base = FieldSpec(p)
    if base_modulus:
        base = base.extend(parse_poly(base, base_modulus))
    return base.extend(parse_poly(base, modulus))


class TestCosetWalk:
    """The ExtensionContext build's alpha-steps and its gamma search on
    coset 0 against repeated products and the brute-force generator search."""

    @pytest.mark.parametrize("p, base_modulus, modulus", WALK_MODULI,
                             ids=lambda v: str(v))
    def test_walk_matches_repeated_products(self, p, base_modulus, modulus):
        # Every entry the build fills is the reference's, and lookups in a
        # shuffled order fill the rest with the reference's logs.
        field = _walk_field(p, base_modulus, modulus)
        ctx = ExtensionContext(field)
        expected, reps, alpha, unit = _reference_walk(field)
        assert (list(ctx._reps), ctx.gamma.value, ctx.alpha.value, ctx._unit) \
            == (reps[:-1], reps[1], alpha, unit)
        assert reps[1] == (alpha if len(reps) == 2 else _first_generator(field))
        assert all(a in (-1, b) for a, b in zip(ctx._coords, expected))
        elements = list(range(1, field.order))
        random.Random(modulus).shuffle(elements)
        assert [ctx._fill(x) for x in elements] == [expected[x] for x in elements]
        assert list(ctx._coords) == expected

    def test_the_moduli_cover_both_kinds_of_walk(self):
        cosets = {len(ExtensionContext(_walk_field(*m))._reps) for m in WALK_MODULI}
        assert {1, 2, 3, 7, 315} <= cosets

    @pytest.mark.parametrize("p, base_modulus, modulus",
                             [m for m in WALK_MODULI if m[0] == 2], ids=lambda v: str(v))
    def test_a_char_2_step_makes_no_coefficient_product(self, monkeypatch, p,
                                                        base_modulus, modulus):
        # The walk's own products over the coefficient field are the q * n
        # of its shift table, ord(alpha) included.  gamma's search and the
        # coset representatives multiply in the field, whose product took
        # its closures at extend.
        field = _walk_field(p, base_modulus, modulus)
        sub, calls = field.subfield, [0]
        mul = sub._mul

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(sub, "_mul", counting)
        ExtensionContext(field)
        assert calls[0] == sub.order * field.degree

    def test_an_odd_step_makes_no_coefficient_product(self, monkeypatch):
        # Over GF(3) a step adds a tabulated vector too: the products are
        # the q * n of the shift table, none per step.
        field = _walk_field(3, None, "x^4+x+2")
        calls = []
        mul = field.subfield._mul
        monkeypatch.setattr(field.subfield, "_mul",
                            lambda a, b: calls.append(a) or mul(a, b))
        ExtensionContext(field)
        assert len(calls) == field.subfield.order * field.degree


def _assert_tables_match_schoolbook(field):
    """_log_product's table reads against the field's own product on every
    pair, and against its powers and inverses."""
    product = _log_product(field)
    assert product is not field._mul
    size = field.order
    for a in range(size):
        for b in range(size):
            assert product(a, b) == field._mul(a, b), (a, b)
        for e in range(1, size + 1):
            assert _power(product, a, e) == field._pow(a, e), (a, e)
        if a:
            assert product(a, field._pow(a, -1)) == 1


class TestLogTables:
    """Over an extension field within the cap, _mulmod's schoolbook
    multiplies digits by _log_product's log/antilog reads."""

    @pytest.mark.parametrize("p, modulus, alpha_generates", [
        (2, "x^2+x+1", True),
        (2, "x^3+x+1", True),
        (3, "x^2+1", False),  # alpha has order 4: the generator search runs
        (2, "x^4+x+1", True),
        (2, "x^4+x^3+x^2+x+1", False),  # alpha has order 5
        (5, "x^2+x+2", True),
        (3, "x^3+2*x+1", True),
        (5, "x^3+x+1", False),  # F_125, alpha has order 62
    ], ids=lambda v: str(v))
    def test_table_product_and_powers_match_schoolbook(self, p, modulus, alpha_generates):
        field = _fresh(p, modulus)
        _assert_tables_match_schoolbook(field)
        # The logs are the context's dlogs, to gamma: alpha (index q) when
        # alpha generates, else the first generator in enumeration order.
        product, ctx = _log_product(field), ExtensionContext(field)
        tables = dict(zip(product.__code__.co_freevars,
                          [cell.cell_contents for cell in product.__closure__]))
        assert tables["log"][1:] == [ctx.dlog(a) for a in range(1, field.order)]
        assert tables["exp"][1] == ctx.gamma.value == _first_generator(field)
        assert (ctx.gamma.value == field.subfield.order) == alpha_generates

    @pytest.mark.parametrize("p, modulus", [(2, "x"), (2, "x+1"), (3, "x"), (5, "x+3")])
    def test_degree_one_extensions(self, p, modulus):
        # alpha is a base element here.  Under the modulus x it is 0, which
        # has no cosets: the field keeps its own product, as a prime field
        # does.
        f4 = _fresh(2, "x^2+x+1")
        fields = [_fresh(p, modulus), f4.extend(parse_poly(f4, "x")), FieldSpec(p)]
        if modulus != "x":
            _assert_tables_match_schoolbook(fields.pop(0))
        for field in fields:
            assert _log_product(field) is field._mul

    def test_poly_products_over_a_level_two_field(self):
        # Building tables changes no operation of the fields they are for.
        f4 = _fresh(2, "x^2+x+1")
        top = f4.extend(parse_poly(f4, "x^3+[2]"))  # F_{4^3}, level 2
        products = [f4._mul, top._mul]
        rng = random.Random(14)
        pairs = [(Poly(top, [rng.randrange(64) for _ in range(rng.randrange(1, 7))]),
                  Poly(top, [rng.randrange(64) for _ in range(rng.randrange(1, 5))]))
                 for _ in range(40)]
        before = [(a * b, divmod(a, b) if not b.is_zero else None) for a, b in pairs]
        assert _log_product(f4) is not f4._mul and _log_product(top) is not top._mul
        assert [f4._mul, top._mul] == products
        assert [(a * b, divmod(a, b) if not b.is_zero else None) for a, b in pairs] == before

    @pytest.mark.parametrize("argv", [
        ("spread", "-q", "2", "-k", "2", "-p", "x^6+x+1", "--verify"),
        ("analyze", "-q", "2", "-p", "x^6+x+1", "--start-rows", "100000;010000", "--verify"),
        ("spread", "-q", "3", "-k", "2", "-p", "x^4+x+2", "--verify"),
        ("analyze", "-q", "3", "-p", "x^4+x+2", "--start-rows", "1000;0100", "--verify"),
        ("spread", "-q", "4", "--base-modulus", "x^2+x+1", "-k", "2",
         "-p", "x^4+x^2+[2]*x+[3]", "--verify"),
        ("poly", "order", "-q", "256", "--base-modulus", "x^8+x^4+x^3+x^2+1", "x^3+x+[2]"),
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_top_field_stays_untabulated(self, monkeypatch, capsys, argv):
        # No field of order 89 or less is tabulated: products mod a
        # polynomial over it are carry-less or shift-and-add.  Over F_256
        # the schoolbook runs, and F_256 is tabulated once.
        built, build = [], orbitcodes.gfq._log_tables.__wrapped__
        monkeypatch.setattr(orbitcodes.gfq, "_log_tables", functools.lru_cache(maxsize=16)(
            lambda field: built.append(field.order) or build(field)))
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert built == ([256] if "256" in argv else [])

    def test_no_table_above_the_square_root_of_the_cap(self):
        big = _fresh(2, "x^13+x^4+x^3+x+1")
        assert big.order ** 2 > DESK_SCALE_CAP
        assert _log_product(big) is big._mul
        m, x = parse_poly(big, "x^2+x+[3]"), Poly.x(big)
        assert poly_powmod(x, 5, m) == x * x * x * x * x % m
        edge = _fresh(2, "x^12+x^6+x^4+x+1")
        assert edge.order ** 2 == DESK_SCALE_CAP
        product, rng = _log_product(edge), random.Random(12)
        assert product is not edge._mul
        for a, b in [(rng.randrange(4096), rng.randrange(4096)) for _ in range(300)]:
            assert product(a, b) == edge._mul(a, b), (a, b)

    def test_equal_fields_share_one_table(self):
        a, b = _fresh(2, "x^2+x+1"), _fresh(2, "x^2+x+1")
        assert a == b and a is not b
        assert _log_product(a) is _log_product(b) is not a._mul

    @pytest.mark.parametrize("p, modulus, degree, count", [
        (2, "x^2+x+1", 4, (4 ** 4 - 4 ** 2) // 4),
        (3, "x^2+1", 3, (9 ** 3 - 9) // 3),
    ], ids=["F4", "F9"])
    def test_schoolbook_products_bounded_by_the_table_build(self, p, modulus, degree, count):
        # Structural, no clock: the sieve spans the multiples of each
        # irreducible through _digit_ops, whose only products in the field
        # fill the one-digit block table, Q^2 of them (none when an equal
        # field built it first: _block_tables is shared), whatever the
        # degree and the candidate count.
        field = _fresh(p, modulus)
        calls, schoolbook = [0], field._mul

        def counting(a, b):
            calls[0] += 1
            return schoolbook(a, b)

        field._mul = counting
        found = list_irreducibles(field, degree)
        assert calls[0] <= field.order ** 2
        assert len(found) == count  # Gauss's count of monic irreducibles


#: Coefficient fields of the product kernel test, each with the largest
#: modulus degree drawn over it.  GF(3) up to degree 12 and GF(7) up to
#: degree 8 add by three or more blocks; GF(101), F_128 and F_243 are above
#: the block-table budget and keep the schoolbook product, the two
#: extension fields on _log_product's tables.
KERNEL_FIELDS = {"GF(2)": (FieldSpec(2), 24), "GF(3)": (FieldSpec(3), 12),
                 "GF(5)": (FieldSpec(5), 6), "GF(7)": (FieldSpec(7), 8),
                 "F_4": (field_make(2, parse_poly(FieldSpec(2), "x^2+x+1")), 6),
                 "F_9": (field_make(3, parse_poly(FieldSpec(3), "x^2+1")), 5),
                 "F_64": (field_make(2, parse_poly(FieldSpec(2), "x^6+x+1")), 3),
                 "GF(101)": (FieldSpec(101), 3),
                 "F_128": (field_make(2, parse_poly(FieldSpec(2), "x^7+x+1")), 3),
                 "F_243": (field_make(3, parse_poly(FieldSpec(3), "x^5+2*x+1")), 2)}


class TestProductKernel:
    """_mulmod takes and returns the mixed-radix indices of coefficient
    vectors over every coefficient field."""

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(list(KERNEL_FIELDS)), st.data())
    def test_matches_poly_products(self, name, data):
        # d = 0 is the unit modulus 1; operands may outgrow the modulus.
        field, top = KERNEL_FIELDS[name]
        Q = field.order
        d = data.draw(st.integers(0, top), label="d")
        tail = data.draw(st.lists(st.integers(0, Q - 1), min_size=d, max_size=d),
                         label="tail")
        a = data.draw(st.integers(0, Q ** (2 * d + 3) - 1), label="a")
        b = data.draw(st.integers(0, Q ** (d + 1) - 1), label="b")

        def poly(i):
            return Poly(field, _digits(i, Q, 0))

        want = poly(a) * poly(b) % Poly(field, tail + [1])
        assert _mulmod(field, tail)(a, b) == sum(c.value * Q ** i
                                                 for i, c in enumerate(want.coeffs))


class TestShiftAndAddKernel:
    """Below the block-table budget, _mulmod over a field other than GF(2)
    is shift-and-add: alpha-steps and _digit_ops' block tables."""

    @pytest.mark.parametrize("p, modulus, degree", [
        (2, "x^2+x+1", 5), (3, "x^2+1", 4), (3, None, 6), (3, None, 12),
    ], ids=["F_4", "F_9", "GF(3)", "GF(3)-12"])
    def test_products_make_no_coefficient_product(self, monkeypatch, p, modulus, degree):
        # Counted from before the kernel is built: the build's own products
        # (the shift table, a first block table) are let through, then 100
        # products make no call to the coefficient field's product.
        sub = _fresh(p, modulus) if modulus else FieldSpec(p)
        calls, mul = [0], sub._mul

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(sub, "_mul", counting)
        rng, Q = random.Random(degree), sub.order
        kernel = _mulmod(sub, [rng.randrange(Q) for _ in range(degree)])
        calls[0] = 0
        pairs = [(rng.randrange(Q ** degree), rng.randrange(Q ** degree)) for _ in range(100)]
        products = [kernel(a, b) for a, b in pairs]
        assert calls[0] == 0
        assert len(set(products)) > 50


class TestCarrylessKernel:
    """Over GF(2), _mulmod's operands are packed ints (bit i the coefficient
    of x^i), multiplied by shift-and-XOR and reduced by XOR of the shifted
    modulus."""

    @pytest.mark.parametrize("tail, a, b, want", [
        ([1], 0b1011, 0b110, 0),           # x + 1 divides (x + 1)(x^2 + x)
        ([0], 0b1011, 0b1, 1),             # mod x: the constant term
        ([1, 1], 0, 0b11, 0),              # zero times anything
        ([1, 1, 0, 1], 0b1000000, 1, 1),  # x^6 mod x^4+x^3+x+1
    ], ids=["degree-1-modulus", "modulus-x", "zero", "outgrown-operand"])
    def test_edge_cases(self, tail, a, b, want):
        assert _mulmod(FieldSpec(2), tail)(a, b) == want

    def test_field_products_decode_no_digits(self, monkeypatch):
        # GF(2)[x]/(m) multiplies its element indices as they are.
        field = field_make(2, None, parse_poly(FieldSpec(2), "x^8+x^4+x^3+x^2+1"))
        monkeypatch.setattr(orbitcodes.gfq, "_digits", None)
        alpha = 2
        assert field._mul(0x80, alpha) == 0b11101  # x^8 = x^4 + x^3 + x^2 + 1
        assert field._pow(alpha, 255) == 1


def _f9_mul(a, b):
    """The product in F_9 = GF(3)[x]/(x^2+1) of the elements with indices a
    and b: (a0 + a1 x)(b0 + b1 x) = a0 b0 - a1 b1 + (a0 b1 + a1 b0) x."""
    (a0, a1), (b0, b1) = divmod(a, 3)[::-1], divmod(b, 3)[::-1]
    return (a0 * b0 - a1 * b1) % 3 + 3 * ((a0 * b1 + a1 * b0) % 3)


def _by_prime_digits(op, p, *operands):
    """op on the base-p digits of the operands, place by place, mod p: an
    index's base-p digits are its prime-field coordinates."""
    out, weight = 0, 1
    while any(operands):
        digits = [x % p for x in operands]
        operands = [x // p for x in operands]
        out += op(*digits) % p * weight
        weight *= p
    return out


@pytest.fixture
def fresh_ops():
    """Empty _digit_ops' caches before and after the test."""
    orbitcodes.gfq._digit_ops.cache_clear()
    _block_tables.cache_clear()
    yield
    orbitcodes.gfq._digit_ops.cache_clear()
    _block_tables.cache_clear()


#: (field, digit product c x on one index of the field, written here).
TABLE_FIELDS = {
    "GF(3)": (FieldSpec(3), lambda c, x: c * x % 3),
    "GF(5)": (FieldSpec(5), lambda c, x: c * x % 5),
    "GF(7)": (FieldSpec(7), lambda c, x: c * x % 7),
    "F_9": (FieldSpec(3).extend(parse_poly(FieldSpec(3), "x^2+1")), _f9_mul),
    "GF(1009)": (FieldSpec(1009), lambda c, x: c * x % 1009),  # above the budget
}


class TestBlockTables:
    """_digit_ops on sub^n: add, sub, neg and c v against digit-by-digit
    references, across the block boundaries and on the edge indices."""

    @pytest.mark.parametrize("name", TABLE_FIELDS)
    def test_ops_match_digit_by_digit(self, name):
        sub, digit_mul = TABLE_FIELDS[name]
        Q, p = sub.order, sub.p
        most = _max_exponent(Q * Q, BLOCK_TABLE_BUDGET)  # digits in one block
        top_n = 2 * most + 1 if most else 3
        blocks = set()
        rng = random.Random(Q)
        for n in range(1, top_n + 1):
            h = _block_digits(Q, n)
            blocks.add(-(-n // h) if h else 0)
            add, minus, neg, join, times = _digit_ops(sub, n)
            last = Q ** n - 1
            vectors = [0, last] + [rng.randrange(Q ** n) for _ in range(30)]
            pairs = [(a, b) for a in (0, last) for b in (0, last)]
            pairs += list(zip(vectors, reversed(vectors)))
            for a, b in pairs:
                assert add(a, b) == _by_prime_digits(int.__add__, p, a, b), (n, a, b)
                assert minus(a, b) == _by_prime_digits(int.__sub__, p, a, b), (n, a, b)
            scalars = range(Q) if Q < 100 else [0, 1, 2, Q - 1, rng.randrange(Q)]
            for v in vectors:
                assert neg(v) == _by_prime_digits(int.__neg__, p, v), (n, v)
                assert join(_digits(v, Q, n)) == v
                for c in scalars:
                    want = sum(digit_mul(c, x) * Q ** j for j, x in enumerate(_digits(v, Q, n)))
                    assert times(c, v) == want, (n, c, v)
        # Every table field is checked on one, two and three blocks.
        assert blocks == ({1, 2, 3} if most else {0})

    def test_the_budget_keeps_the_digit_path_above_it(self):
        assert _block_digits(89, 1) == 1 and 89 * 89 <= BLOCK_TABLE_BUDGET
        assert _block_digits(97, 1) == 0 and 97 * 97 > BLOCK_TABLE_BUDGET
        assert [_block_digits(3, n) for n in range(1, 13)] == [1, 2, 3, 4, 3, 3, 4, 4, 3, 4, 4, 4]

    @pytest.mark.parametrize("field", [FieldSpec(2), FIELDS[3]], ids=["GF(2)", "F_4"])
    def test_characteristic_2_adds_by_xor(self, field):
        for n in (1, 5, 12):
            assert _digit_ops(field, n)[:3] == (xor, xor, pos)

    def test_built_once_per_field_and_length(self):
        a, b = FieldSpec(3), FieldSpec(3)
        assert _digit_ops(a, 6) is _digit_ops(b, 6) is _digit_ops(a, 6)
        assert _digit_ops(a, 6) is not _digit_ops(a, 5)

    def test_gf3_vectors_add_without_digit_adds(self, monkeypatch, fresh_ops):
        # Once the tables exist, span, spans, canonical rows, a rank, the
        # image table with its rank check and the context build's steps
        # make no call to GF(3)'s own add or sub.  The field's own products
        # (gamma's search and the coset representatives) and the pivots'
        # inverses are not counted.
        f3, gate, calls = FieldSpec(3), [False], []

        def counting(name):
            op = getattr(f3, name)

            def counted(a, b):
                if gate[0]:
                    calls.append((name, a, b))
                return op(a, b)

            monkeypatch.setattr(f3, name, counted)

        counting("_add")
        counting("_sub")
        poly = parse_poly(f3, "x^6+x+2")
        field = f3.extend(poly)
        mul = field._mul

        def quiet(a, b):
            gate[0] = False
            try:
                return mul(a, b)
            finally:
                gate[0] = True

        monkeypatch.setattr(field, "_mul", quiet)
        p = companion_matrix(poly)
        u = Subspace(Mat(f3, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1]]))
        code = generate_orbit(u, p)
        gate[0] = True
        assert len(list(u.nonzero_vectors())) == 8
        assert Subspace(Mat(f3, [[1, 0, 2, 0, 0, 2], [2, 0, 2, 0, 0, 2]])) == u
        assert Mat(f3, p.rows).rank() == 6
        assert len(_image_table(Mat(f3, p.rows))) == 3 ** 6
        assert min_distance_brute(code) == 2
        ExtensionContext(field)
        assert calls == []
