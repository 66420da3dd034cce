import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcodes.polyring
from orbitcodes import (DomainError, FieldSpec, ParseError, Poly, char_poly,
                        format_poly, is_irreducible, is_primitive,
                        list_irreducibles, order_of_polynomial, parse_poly,
                        poly_gcd, poly_powmod)
from orbitcodes.gfq import _digits, _max_exponent, _prime_factors

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = F2.extend(parse_poly(F2, "x^2+x+1"))
F8 = F2.extend(parse_poly(F2, "x^3+x+1"))
F9 = F3.extend(parse_poly(F3, "x^2+1"))


class TestTextSyntax:
    @pytest.mark.parametrize("field,text", [
        (F2, "x^6+x+1"),
        (F2, "x"),
        (F2, "1"),
        (F2, "0"),
        (F2, "x^2+x"),
        (F3, "2*x^2+x+2"),
        (F3, "x^3+2*x+1"),
        (F4, "[2]*x^2+x+[3]"),
        (F4, "[2]"),
    ])
    def test_round_trip(self, field, text):
        assert format_poly(parse_poly(field, text)) == text

    def test_bool_coefficients_round_trip(self):
        f = Poly(F3, [True, 2, False, True])
        assert format_poly(f) == "x^3+2*x+1"
        assert parse_poly(F3, format_poly(f)) == f == Poly(F3, [1, 2, 0, 1])
        with pytest.raises(DomainError):
            Poly(F3, [1.0, 2])

    def test_any_term_order(self):
        assert parse_poly(F2, "1+x") == parse_poly(F2, "x+1")

    def test_whitespace_ignored(self):
        assert parse_poly(F2, " x ^ 2 + 1 ") == parse_poly(F2, "x^2+1")

    def test_terms_accumulate(self):
        assert parse_poly(F2, "x+x").is_zero
        assert parse_poly(F3, "x+x") == parse_poly(F3, "2*x")

    def test_x_caret_zero_is_constant(self):
        assert parse_poly(F2, "x^0") == Poly.one(F2)

    @pytest.mark.parametrize("field,text", [
        (F2, ""),
        (F2, "x^"),
        (F2, "y"),
        (F2, "x^-1"),
        (F2, "x**2"),
        (F3, "3*x"),
        (F4, "[4]"),
    ])
    def test_parse_errors(self, field, text):
        with pytest.raises(ParseError):
            parse_poly(field, text)

    @pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_round_trip_random(self, field, data):
        idx = st.integers(min_value=0, max_value=field.order - 1)
        coeffs = data.draw(st.lists(idx, min_size=0, max_size=7))
        f = Poly(field, coeffs)
        assert parse_poly(field, format_poly(f)) == f


class TestArithmetic:
    def test_freshman_dream(self):
        x1 = parse_poly(F2, "x+1")
        assert x1 * x1 == parse_poly(F2, "x^2+1")

    def test_gcd(self):
        assert poly_gcd(parse_poly(F2, "x^2+x"), parse_poly(F2, "x")) == parse_poly(F2, "x")

    def test_gcd_is_monic(self):
        g = poly_gcd(parse_poly(F3, "2*x^2+2*x"), parse_poly(F3, "2*x+2"))
        assert g.is_monic and g == parse_poly(F3, "x+1")

    def test_powmod_paper_value(self):
        got = poly_powmod(Poly.x(F2), 9, parse_poly(F2, "x^6+x+1"))
        assert format_poly(got) == "x^4+x^3"

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly.x(F2), Poly.zero(F2))

    def test_field_mismatch(self):
        with pytest.raises(DomainError, match="different fields"):
            Poly.x(F2) + Poly.x(F3)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_division_law(self, data):
        field = data.draw(st.sampled_from([F3, F4]))
        idx = st.integers(min_value=0, max_value=field.order - 1)
        f = Poly(field, data.draw(st.lists(idx, min_size=0, max_size=8)))
        g = Poly(field, data.draw(st.lists(idx, min_size=1, max_size=5)))
        if g.is_zero:
            g = Poly.one(field)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def _powmod_reference(f, e, m):
    """Square-and-multiply on the Poly operators, reducing mod m as given."""
    result, base = Poly.one(f.field) % m, f % m
    while e:
        if e & 1:
            result = result * base % m
        base = base * base % m
        e >>= 1
    return result


class TestPowmodKernel:
    """The int-coefficient poly_powmod against the Poly-operator reference."""

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_matches_reference(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4]), label="field")
        idx = st.integers(min_value=0, max_value=field.order - 1)
        # m may be non-monic and of any degree >= 0; f may outgrow m.
        m = Poly(field, data.draw(st.lists(idx, min_size=1, max_size=7), label="m"))
        if m.is_zero:
            m = Poly(field, [data.draw(st.integers(1, field.order - 1), label="const")])
        f = Poly(field, data.draw(st.lists(idx, max_size=12), label="f"))
        e = data.draw(st.one_of(st.just(0), st.integers(0, 10 ** 5)), label="e")
        assert poly_powmod(f, e, m) == _powmod_reference(f, e, m)

    @pytest.mark.parametrize("field,f,m", [
        (F3, "2*x^5+x+1", "2*x^3+x+2"),
        (F4, "[3]*x^4+[2]*x", "[2]*x^2+[3]"),
        (F2, "x^9+x", "1"),
        (F2, "x^25+x^7+1", "x^24+x^7+x^2+x+1"),  # deg f > deg m, at the cap
        (F2, "x^5+x+1", "x+1"),
        (F2, "0", "x^3+x+1"),
    ])
    def test_edge_cases(self, field, f, m):
        f, m = parse_poly(field, f), parse_poly(field, m)
        for e in (0, 1, 2, 7, 64):
            assert poly_powmod(f, e, m) == _powmod_reference(f, e, m)

    def test_rejections(self):
        with pytest.raises(DomainError, match="nonnegative"):
            poly_powmod(Poly.x(F2), -1, Poly.one(F2))
        with pytest.raises(ZeroDivisionError):
            poly_powmod(Poly.x(F2), 3, Poly.zero(F2))
        with pytest.raises(DomainError, match="different fields"):
            poly_powmod(Poly.x(F2), 3, Poly.x(F3))


def _factors_by_trial_division(f):
    """Oracle: search for a monic factor of every smaller positive degree."""
    field = f.field
    for d in range(1, f.degree):
        for i in range(field.order ** d):
            coeffs = []
            rest = i
            for _ in range(d):
                rest, digit = divmod(rest, field.order)
                coeffs.append(field.from_index(digit))
            cand = Poly(field, coeffs + [field.one()])
            if (f % cand).is_zero:
                return cand
    return None


class TestIrreducibility:
    def test_paper_cases(self):
        assert is_irreducible(parse_poly(F2, "x^2+x+1"))
        assert not is_irreducible(parse_poly(F2, "x^2+1"))
        assert is_irreducible(parse_poly(F2, "x^4+x^3+1"))

    def test_degree_one_always(self):
        assert is_irreducible(parse_poly(F2, "x"))
        assert is_irreducible(parse_poly(F3, "x+2"))

    def test_constant_rejected(self):
        with pytest.raises(DomainError, match="constant"):
            is_irreducible(Poly.one(F2))

    def test_against_trial_division_oracle(self):
        # every monic polynomial of degree 2..4 over GF(2)
        for degree in range(2, 5):
            for i in range(2 ** degree):
                coeffs = [F2.from_index((i >> j) & 1) for j in range(degree)]
                f = Poly(F2, coeffs + [F2.one()])
                assert is_irreducible(f) == (_factors_by_trial_division(f) is None), f

    def test_non_monic_input(self):
        assert is_irreducible(parse_poly(F3, "2*x^2+2*x+2")) == \
            is_irreducible(parse_poly(F3, "x^2+x+1"))

    @pytest.mark.parametrize("field, text, irreducible", [
        (F2, "x^12+x^6+x^4+x+1", True),
        (F2, "x^16+x^5+x^3+x^2+1", True),
        (F2, "x^12+x^11+x^2+x+1", True),  # not primitive
        (F2, "x^12+x^6+x^4+x", False),
        (F3, "x^6+x+2", True),
        (F4, "x^5+x^2+[1]", True),
        (F9, "x^3+x+[1]", False),
    ])
    def test_one_frobenius_chain_per_proof(self, monkeypatch, field, text, irreducible):
        # Structural, no clock: a degree-n proof walks x -> x^Q n times, each
        # step one Q-th power (a squaring over GF(2)), whatever n's prime
        # factors, and multiplies the omega(n) factors h_(n/t) - x into one
        # for its one gcd.  Recomputing x^(Q^(n/t)) for each prime t | n from
        # scratch would make more products.
        f, Q = parse_poly(field, text), field.order
        assert is_irreducible(f) == irreducible
        products, mulmod = [], orbitcodes.polyring._mulmod

        def counting(sub, tail):
            kernel = mulmod(sub, tail)

            def counted(a, b):
                products.append(a == b)
                return kernel(a, b)
            return counted

        monkeypatch.setattr(orbitcodes.polyring, "_mulmod", counting)
        assert is_irreducible(f) == irreducible
        step = Q.bit_length() - 1 + bin(Q).count("1") - 1
        omega = len(_prime_factors(f.degree))
        assert len(products) == f.degree * step + omega - 1
        if Q == 2:
            assert products.count(True) == f.degree


def _necklace_count(q, n):
    """Number of monic irreducibles of degree n over F_q (Moebius sum)."""
    def moebius(m):
        result, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    total = 0
    d = 1
    while d <= n:
        if n % d == 0:
            total += moebius(n // d) * q ** d
        d += 1
    return total // n


class TestOrderAndPrimitivity:
    @pytest.mark.parametrize("text,expected", [
        ("x^4+x^3+x^2+x+1", 5),
        ("x^4+x+1", 15),
        ("x^4+x^3+1", 15),
        ("x^6+x+1", 63),
    ])
    def test_orders(self, text, expected):
        assert order_of_polynomial(parse_poly(F2, text)) == expected

    def test_reducible_rejected(self):
        with pytest.raises(DomainError, match="irreducible"):
            order_of_polynomial(parse_poly(F2, "x^2+1"))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(DomainError, match="f\\(0\\)"):
            order_of_polynomial(parse_poly(F2, "x"))

    @pytest.mark.parametrize("text,expected", [
        ("x^6+x+1", True),
        ("x^4+x^3+x^2+x+1", False),
        ("x^4+x^3+1", True),
    ])
    def test_primitive(self, text, expected):
        assert is_primitive(parse_poly(F2, text)) is expected

    def test_order_divides_group_order(self):
        for field, max_deg in ((F2, 6), (F3, 3)):
            for n in range(1, max_deg + 1):
                for f in list_irreducibles(field, n):
                    if not f.coeffs[0]:
                        continue
                    e = order_of_polynomial(f)
                    assert (field.order ** n - 1) % e == 0

    @pytest.mark.parametrize("text", ["x^4+x^3+x^2+x+1", "x^4+x+1"])
    def test_divides_iff_order_divides(self, text):
        # f | x^m - 1 exactly when ord(f) | m, checked through m = 2(q^n - 1)
        f = parse_poly(F2, text)
        e = order_of_polynomial(f)
        one = Poly.one(F2)
        for m in range(1, 2 * 15 + 1):
            assert (poly_powmod(Poly.x(F2), m, f) == one) == (m % e == 0)


def _order_by_walk(f):
    """Least e > 0 with x^e = 1 mod f, by multiplying by x one step at a time."""
    x, one = Poly.x(f.field), Poly.one(f.field)
    power, e = x % f, 1
    while power != one:
        power, e = power * x % f, e + 1
    return e


@pytest.mark.parametrize("field,top", [(F2, 6), (F3, 3), (F4, 3)],
                         ids=["GF2", "GF3", "F4"])
def test_order_matches_least_exponent_walk(field, top):
    for n in range(1, top + 1):
        for f in list_irreducibles(field, n):
            if f.coeffs[0]:
                assert order_of_polynomial(f) == _order_by_walk(f), f


class TestEnumeration:
    def test_exact_small_sets(self):
        assert [format_poly(f) for f in list_irreducibles(F2, 1)] == ["x", "x+1"]
        assert [format_poly(f) for f in list_irreducibles(F2, 2)] == ["x^2+x+1"]
        assert sorted(format_poly(f) for f in list_irreducibles(F2, 4)) == \
            ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]

    def test_counts_match_necklace_formula(self):
        # Gauss's count at every degree up to the LIST_CAP edge.
        for field in (F2, F3, F4, F9, FieldSpec(5)):
            edge = _max_exponent(field.order, orbitcodes.polyring.LIST_CAP)
            for n in range(1, edge + 1):
                assert len(list_irreducibles(field, n)) == _necklace_count(field.order, n)
            with pytest.raises(DomainError, match="list cap"):
                list_irreducibles(field, edge + 1)

    @pytest.mark.parametrize("field, top", [(F2, 10), (F3, 6), (F4, 4), (F9, 3),
                                            (FieldSpec(5), 4), (F8, 3)],
                             ids=["GF2", "GF3", "F4", "F9", "GF5", "F8"])
    def test_sieve_matches_the_per_candidate_filter(self, field, top):
        # Same list, same order: x^n + (low part), low part in enumeration order.
        # GF(5) adds by two-digit blocks; F_8 scales rows by c >= 2.
        for n in range(1, top + 1):
            candidates = (Poly(field, _digits(i, field.order, n) + [1])
                          for i in range(field.order ** n))
            assert list_irreducibles(field, n) == [f for f in candidates if is_irreducible(f)]

    @pytest.mark.parametrize("field, top", [(F2, 10), (F3, 6), (F4, 4), (F9, 3)],
                             ids=["GF2", "GF3", "F4", "F9"])
    def test_sieve_makes_no_product_mod_a_polynomial(self, monkeypatch, field, top):
        # The multiples of each irreducible are one span: no _mulmod kernel.
        def refuse(sub, tail):
            raise AssertionError("the sieve built a _mulmod kernel")

        monkeypatch.setattr(orbitcodes.polyring, "_mulmod", refuse)
        for n in range(1, top + 1):
            assert len(list_irreducibles(field, n)) == _necklace_count(field.order, n)

    def test_cap_enforced(self):
        with pytest.raises(DomainError, match="cap"):
            list_irreducibles(F2, 25)
        with pytest.raises(DomainError, match="cap"):
            order_of_polynomial(parse_poly(F2, "x^25+x^3+1"))

    def test_list_cap_is_compared_by_exponent(self, monkeypatch):
        monkeypatch.setattr(orbitcodes.polyring, "LIST_CAP", 16)
        assert len(list_irreducibles(F2, 4)) == 3  # 2^4 = 16 candidates
        assert len(list_irreducibles(F4, 2)) == 6  # 4^2 = 16 candidates
        for field, degree in ((F2, 5), (F4, 3), (F2, 15000), (F2, 10 ** 6)):
            start = time.perf_counter()
            with pytest.raises(DomainError) as info:
                list_irreducibles(field, degree)
            assert time.perf_counter() - start < 0.5
            assert str(info.value) == (
                f"listing degree {degree} over GF({field.order}) tests "
                f"{field.order}^{degree} candidates, above the list cap 16")


class TestCompanion:
    def test_degree_two_gf2(self, f2):
        from orbitcodes import companion_matrix, format_matrix
        c = companion_matrix(parse_poly(f2, "x^2+x+1"))
        assert format_matrix(c) == "01\n11"

    def test_degree_four_last_row(self, f2):
        from orbitcodes import companion_matrix
        c = companion_matrix(parse_poly(f2, "x^4+x^3+x^2+x+1"))
        assert list(c.rows[3]) == [1, 1, 1, 1]

    def test_negation_in_gf3(self, f3):
        from orbitcodes import companion_matrix, format_matrix
        c = companion_matrix(parse_poly(f3, "x^2+1"))
        assert format_matrix(c) == "01\n20"

    def test_non_monic_rejected(self, f3):
        from orbitcodes import companion_matrix
        with pytest.raises(DomainError, match="monic"):
            companion_matrix(parse_poly(f3, "2*x^2+1"))

    @pytest.mark.parametrize("field", [F2, F3, F4], ids=["GF(2)", "GF(3)", "F_4"])
    def test_equals_an_element_built_matrix(self, field):
        # Entry by entry from FieldElements: 1 on the superdiagonal, then
        # the last row -c_0, ..., -c_{n-1}.
        from orbitcodes import Mat, companion_matrix
        rng, zero, one = random.Random(field.order), field.zero(), field.one()
        for n in (1, 2, 3, 6, 12):
            coeffs = [field.from_index(rng.randrange(field.order)) for _ in range(n)]
            f = Poly(field, coeffs + [one])
            rows = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
            rows.append([-c for c in coeffs])
            assert companion_matrix(f) == Mat(field, rows), (n, str(f))

    def test_char_poly_round_trip(self, f2, f3):
        from orbitcodes import companion_matrix
        for field, texts in ((f2, ["x^4+x+1", "x^6+x+1", "x^2+x+1"]),
                             (f3, ["x^2+1", "x^3+2*x+1"])):
            for text in texts:
                f = parse_poly(field, text)
                assert char_poly(companion_matrix(f)) == f
