import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcodes.polyring
from orbitcodes.gfq import _digits, _prime_factors
from orbitcodes import (DomainError, ExponentProfile, ExtensionContext, FieldElement,
                        FieldSpec, Mat, Poly, Subspace, analyze, build_spread_start,
                        companion_matrix, is_irreducible, is_primitive, list_irreducibles,
                        matrix_order, order_of_polynomial, parse_matrix, parse_poly,
                        row_times_mat, vector_from_index)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = F2.extend(parse_poly(F2, "x^2+x+1"))


def _dlog_oracle(ctx, target):
    """Independent discrete log: walk powers of gamma one step at a time."""
    power = ctx.field.one()
    for steps in range(ctx.field.order - 1):
        if power == target:
            return steps
        power = power * ctx.gamma
    raise AssertionError("gamma does not reach the target")


def _walk_partition(ctx):
    """Independent alpha-orbit partition: walk the powers of gamma in
    ascending order and trace each new orbit by repeated multiplication by
    alpha.  Returns (orbit size, representatives, element -> (orbit, step))."""
    reps, locate = [], {}
    power = ctx.field.one()
    for _ in range(ctx.field.order - 1):
        if power not in locate:
            cur = power
            for step in range(ctx.field.order - 1):
                locate[cur] = (len(reps), step)
                cur = cur * ctx.alpha
                if cur == power:
                    break
            reps.append(power)
        power = power * ctx.gamma
    return len(locate) // len(reps), tuple(reps), locate


def _walk_tally(ctx, reps, locate, u):
    """Membership and sorted within-orbit exponents of u from a walk."""
    exps = [[] for _ in reps]
    for x in u.nonzero_vectors():
        i, b = locate[ctx.phi(vector_from_index(ctx.base, ctx.n, x))]
        exps[i].append(b)
    return tuple(map(len, exps)), tuple(tuple(sorted(b)) for b in exps)


def _sampled_subspaces(ctx, rng, count):
    base, n = ctx.base, ctx.n
    for _ in range(count):
        k = rng.randint(1, min(n, 3))
        rows = [[rng.randrange(base.order) for _ in range(n)] for _ in range(k)]
        u = Subspace(Mat(base, rows))
        if u.dim:
            yield u


def _small_moduli():
    for base, top in ((F2, 6), (F3, 3), (F4, 2)):
        for degree in range(1, top + 1):
            for f in list_irreducibles(base, degree):
                if f.coeffs[0]:
                    yield f


class TestContext:
    def test_primitive_context(self, ctx64):
        assert ctx64.primitive and ctx64.order == 63
        assert ctx64.gamma == ctx64.alpha
        assert ctx64.q == 2 and ctx64.n == 6

    def test_nonprimitive_context(self, ctx16_nonprim):
        ctx = ctx16_nonprim
        assert not ctx.primitive and ctx.order == 5
        # gamma is located by enumeration-order scan and must generate F_16^*
        seen = set()
        power = ctx.field.one()
        for _ in range(15):
            seen.add(power)
            power = power * ctx.gamma
        assert len(seen) == 15

    def test_prime_field_rejected(self, f2):
        with pytest.raises(DomainError, match="extension"):
            ExtensionContext(f2)

    def test_modulus_x_rejected(self, f2):
        field = f2.extend(parse_poly(f2, "x"))
        with pytest.raises(DomainError, match="constant term"):
            ExtensionContext(field)

    @pytest.mark.parametrize("base,text", [
        (F2, "x^4+x^2+1"),  # (x^2+x+1)^2: alpha has order 6, which does not divide 15
        (F2, "x^6+x^5+x^4+x^3+x^2+x+1"),  # Phi_7: order 7 divides 63, no generator
        (F3, "x^4+2*x^2+1"),  # (x^2+1)^2
    ], ids=lambda v: str(v))
    def test_a_reducible_modulus_let_past_extend_is_rejected(self, monkeypatch, base, text):
        # The walk trusts extend's proof; a reducible modulus let past it
        # is refused, not given wrong logs.
        monkeypatch.setattr(orbitcodes.polyring, "is_irreducible", lambda f: True)
        field = base.extend(parse_poly(base, text))
        with pytest.raises(RuntimeError):
            ExtensionContext(field)


class TestOrderThreeWays:
    """ord(alpha) as the coset walk finds it, against the polynomial order
    and the companion matrix's cycle walk, which share no code with it."""

    @pytest.mark.parametrize("base,top", [(F2, 10), (F3, 6), (F4, 4)],
                             ids=["GF(2)", "GF(3)", "F_4"])
    def test_every_irreducible_modulus_up_to_a_degree(self, base, top):
        for degree in range(1, top + 1):
            for f in list_irreducibles(base, degree):
                if f.coeffs[0]:
                    ctx = ExtensionContext.from_modulus(f)
                    order = matrix_order(companion_matrix(f))
                    assert ctx.order == order_of_polynomial(f) == order, f
                    assert ctx.primitive == is_primitive(f), f


class TestPhi:
    def test_basis_vector_examples(self, ctx64):
        a = ctx64.alpha
        assert ctx64.phi([0, 0, 0, 1, 1, 0]) == a ** 4 + a ** 3 == a ** 9
        assert ctx64.phi([1, 0, 0, 0, 0, 0]) == ctx64.field.one()

    def test_round_trip_exhaustive(self, ctx64, f2):
        for i in range(2 ** 6):
            v = vector_from_index(f2, 6, i)
            assert ctx64.phi_inv(ctx64.phi(v)) == v

    def test_linear(self, ctx64, f2):
        rng = random.Random(2)
        for _ in range(20):
            v = vector_from_index(f2, 6, rng.randrange(64))
            w = vector_from_index(f2, 6, rng.randrange(64))
            s = tuple(f2.from_index(a) + f2.from_index(b) for a, b in zip(v, w))
            assert ctx64.phi(s) == ctx64.phi(v) + ctx64.phi(w)

    def test_length_mismatch(self, ctx64):
        with pytest.raises(DomainError, match="length"):
            ctx64.phi([1, 0, 0])

    def test_coordinates_are_checked(self, ctx64, f2, f3):
        assert ctx64.phi([f2.one(), 0, 0, 0, 0, 0]) == ctx64.field.one()
        for bad in (2, -1):
            with pytest.raises(DomainError, match="out of range"):
                ctx64.phi([0, 0, bad, 0, 0, 0])
        for foreign in (f3.one(), ctx64.alpha):
            with pytest.raises(DomainError, match="different field"):
                ctx64.phi([0, foreign, 0, 0, 0, 0])


class TestDlog:
    def test_dlog_of_one(self, ctx64):
        assert ctx64.dlog(ctx64.field.one()) == 0

    def test_dlog_power_nine(self, ctx64):
        a = ctx64.alpha
        assert ctx64.dlog(a ** 4 + a ** 3) == 9

    def test_dlog_quadratic_element(self, ctx64):
        # 1 + alpha + alpha^2 sits at exponent 26 (verified by the oracle);
        # it does not lie in the subfield F_4 = {0, 1, alpha^21, alpha^42}.
        a = ctx64.alpha
        target = a ** 2 + a + ctx64.field.one()
        assert _dlog_oracle(ctx64, target) == 26
        assert ctx64.dlog(target) == 26
        assert ctx64.dlog(a ** 21) == 21

    def test_dlog_zero_rejected(self, ctx64):
        with pytest.raises(DomainError, match="zero"):
            ctx64.dlog(ctx64.field.zero())

    def test_dlog_inverts_gamma_powers(self, ctx16_nonprim):
        ctx = ctx16_nonprim
        for j in range(15):
            assert ctx.dlog(ctx.gamma ** j) == j


class TestExponentProfile:
    def test_spread_start_profile(self, ctx64, f2):
        # span{1, alpha^21} = F_4, whose nonzero elements are alpha^{21 i}
        rows = [ctx64.phi_inv(ctx64.alpha ** 0), ctx64.phi_inv(ctx64.alpha ** 21)]
        u = Subspace(Mat(f2, rows))
        assert ctx64.exponent_profile(u).exponents == (0, 21, 42)

    def test_displayed_rows_profile(self, ctx64, f2):
        # rs(100000;011000) = span{1, alpha+alpha^2} is NOT the subfield:
        # alpha+alpha^2 = alpha^7 and 1+alpha+alpha^2 = alpha^26
        u = Subspace(parse_matrix(f2, "100000\n011000"))
        assert ctx64.exponent_profile(u).exponents == (0, 7, 26)

    def test_line_profile(self, ctx64, f2):
        u = Subspace(parse_matrix(f2, "100000"))
        assert ctx64.exponent_profile(u).exponents == (0,)

    def test_profile_size_and_distinctness(self, ctx64, f2):
        u = Subspace(parse_matrix(f2, "100100\n010010\n001001"))
        prof = ctx64.exponent_profile(u)
        assert len(prof.exponents) == 2 ** u.dim - 1
        assert len(set(prof.exponents)) == len(prof.exponents)

    @pytest.mark.parametrize("exponents,message", [
        ((21, 0), "must be sorted"),
        ((0, 21, 21), "repeated"),
    ], ids=["unsorted", "repeated"])
    def test_refuses_unsorted_or_repeated_exponents(self, exponents, message):
        with pytest.raises(DomainError, match=message):
            ExponentProfile(2, exponents)
        with pytest.raises(DomainError, match=message):
            ExponentProfile(2, (0, 21, 42))._replace(exponents=exponents)

    def test_fields_are_read_only(self):
        profile = ExponentProfile(2, (0, 21, 42))
        assert profile == ExponentProfile(2, (0, 21, 42))
        with pytest.raises(AttributeError):
            profile.exponents = (0,)

    def test_nonprimitive_rejected(self, ctx16_nonprim, f2):
        u = Subspace(parse_matrix(f2, "1000"))
        with pytest.raises(DomainError, match="primitive"):
            ctx16_nonprim.exponent_profile(u)

    def test_zero_subspace_rejected(self, ctx64, f2):
        u = Subspace(Mat(f2, [[0] * 6]))
        with pytest.raises(DomainError, match="zero subspace"):
            ctx64.exponent_profile(u)


class TestOrbitPartition:
    def test_three_orbits_of_five(self, ctx16_nonprim):
        part = ctx16_nonprim.orbit_partition()
        assert part.orbit_count == 3
        assert part.size == 5

    def test_primitive_single_orbit(self, ctx64):
        part = ctx64.orbit_partition()
        assert part.orbit_count == 1 and part.size == 63

    def test_example_membership(self, ctx16_nonprim, f2):
        u = Subspace(parse_matrix(f2, "1000\n0011"))
        part = ctx16_nonprim.orbit_partition(u)
        assert part.membership == (1, 1, 1)
        assert sum(part.membership) == 2 ** u.dim - 1

    def test_partition_covers_everything(self, ctx16_nonprim):
        part = ctx16_nonprim.orbit_partition()
        assert part.orbit_count * part.size == 15
        dlogs = [ctx16_nonprim.dlog(rep) for rep in part.representatives]
        assert len(set(dlogs)) == part.orbit_count
        # each representative has the least dlog on its orbit
        for i, rep in enumerate(part.representatives):
            cur = rep
            for _ in range(part.size):
                assert ctx16_nonprim.dlog(cur) >= dlogs[i]
                cur = cur * ctx16_nonprim.alpha

    def test_locate_consistent_with_exponents(self, ctx16_nonprim, f2):
        u = Subspace(parse_matrix(f2, "1000\n0011"))
        part = ctx16_nonprim.orbit_partition(u)
        for x in u.nonzero_vectors():
            v = vector_from_index(f2, 4, x)
            i, b = part.locate(ctx16_nonprim.phi(v))
            rep = part.representatives[i]
            assert rep * ctx16_nonprim.alpha ** b == ctx16_nonprim.phi(v)
            assert b in part.orbit_exponents[i]


@pytest.fixture(scope="module")
def ctx1365():
    """Non-primitive n = 12 context with c = 4095 / 1365 = 3 orbits."""
    return ExtensionContext.from_modulus(parse_poly(F2, "x^12+x^11+x^2+x+1"))


class TestPartitionAgainstWalk:
    """The coset arithmetic on the gamma-dlog against a field walk."""

    @staticmethod
    def _assert_agrees(ctx, elements, rng, subspaces):
        size, reps, locate = _walk_partition(ctx)
        part = ctx.orbit_partition()
        assert part.size == size == ctx.order
        assert part.representatives == reps
        assert part.membership is None and part.orbit_exponents is None
        for x in elements:
            assert part.locate(x) == locate[x], x
        for u in _sampled_subspaces(ctx, rng, subspaces):
            part = ctx.orbit_partition(u)
            assert (part.membership, part.orbit_exponents) == _walk_tally(ctx, reps, locate, u)

    @pytest.mark.parametrize("modulus", list(_small_moduli()),
                             ids=lambda f: f"{f.field!r}:{f}")
    def test_every_small_modulus(self, modulus):
        ctx = ExtensionContext.from_modulus(modulus)
        nonzero = [x for x in ctx.field.elements() if x]
        self._assert_agrees(ctx, nonzero, random.Random(ctx.field.order), 4)

    def test_order_1365_modulus_sampled(self, ctx1365):
        ctx = ctx1365
        assert ctx.order == 1365 and ctx.orbit_partition().orbit_count == 3
        rng = random.Random(1365)
        sample = [ctx.field.from_index(rng.randrange(1, 4096)) for _ in range(200)]
        self._assert_agrees(ctx, sample, rng, 6)

    def test_locate_rejects_zero_and_foreign_elements(self, ctx16_nonprim, ctx64):
        part = ctx16_nonprim.orbit_partition()
        for x in (ctx16_nonprim.field.zero(), ctx64.alpha):
            with pytest.raises(DomainError, match="zero or from another field"):
                part.locate(x)

    def test_partition_multiplies_only_coset_representatives(self, monkeypatch, ctx1365):
        ctx = ctx1365
        u = Subspace(parse_matrix(F2, "100100000001\n010010010000\n001011000110"))
        calls = []
        mul = FieldElement.__mul__

        def counting_mul(a, b):
            if a.field == ctx.field:
                calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
        part = ctx.orbit_partition(u)
        assert sum(part.membership) == 7
        assert len(calls) <= part.orbit_count - 1 == 2


class TestTableFill:
    """The dlog table is filled by alpha-steps on indices, not by products."""

    @pytest.mark.parametrize("text,cosets", [
        ("x^12+x^11+x^2+x+1", 3), ("x^16+x^5+x^3+x^2+1", 1)])
    def test_no_element_product_per_entry(self, monkeypatch, text, cosets):
        field = F2.extend(parse_poly(F2, text))
        counts = {"__mul__": 0, "__pow__": 0}
        for name in counts:
            def counting(a, b, _op=getattr(FieldElement, name), _name=name):
                counts[_name] += a.field == field
                return _op(a, b)
            monkeypatch.setattr(FieldElement, name, counting)
        ctx = ExtensionContext(field)
        monkeypatch.undo()
        big = ctx.field.order - 1
        assert ctx.orbit_partition().orbit_count == cosets
        # The gamma search tests each candidate up to gamma with one power
        # per prime factor of c and one for g^c; the c coset representatives
        # and gamma^c cost one product each.
        search = 0 if ctx.primitive else ctx.gamma.value * (
            len(_prime_factors(big // ctx.order)) + 1)
        assert counts["__pow__"] <= search
        assert counts["__mul__"] <= cosets

    @pytest.mark.parametrize("modulus", [*_small_moduli(), parse_poly(F4, "x^3+[2]")],
                             ids=lambda f: f"{f.field!r}:{f}")
    def test_dlog_inverts_every_gamma_power(self, modulus):
        ctx = ExtensionContext.from_modulus(modulus)
        power = ctx.field.one()
        for j in range(ctx.field.order - 1):
            assert ctx.dlog(power) == j
            power = power * ctx.gamma
        assert power == ctx.field.one()


class TestLazyFill:
    """The build fills the dlog array at its landmarks only; a lookup fills
    the entries it walks past, with the values a dense walk gives."""

    def test_a_k2_analysis_at_n16_fills_a_small_part(self):
        ctx = ExtensionContext.from_modulus(parse_poly(F2, "x^16+x^5+x^3+x^2+1"))
        u = Subspace(parse_matrix(F2, "1011000000000001\n0100100000010000"))
        analyze(u, ctx)
        filled = len(ctx._coords) - ctx._coords.count(-1)
        assert 0 < filled < 2 ** 16 // 10

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from([parse_poly(F2, "x^12+x^11+x^2+x+1"),
                            parse_poly(F2, "x^10+x^3+1"), parse_poly(F3, "x^5+2*x+1"),
                            parse_poly(F4, "x^4+x^2+[2]*x+[3]")]),
           st.integers(0, 2 ** 32))
    def test_fill_order_leaves_the_same_array(self, modulus, seed):
        rng = random.Random(seed)
        one, two = (ExtensionContext.from_modulus(modulus) for _ in range(2))
        elements = list(range(1, one.field.order))
        rng.shuffle(elements)
        for x in elements[:len(elements) // 3]:
            one._place(x)
        assert all(a < 0 or b < 0 or a == b for a, b in zip(one._coords, two._coords))
        for ctx in (one, two):
            rng.shuffle(elements)
            for x in elements:
                ctx._place(x)
        assert one._coords == two._coords and one._coords.count(-1) == 1

    @pytest.mark.parametrize("text", ["x^16+x^5+x^3+x^2+1", "x^20+x^3+1"])
    def test_the_build_fills_landmarks_and_baby_steps_only(self, text):
        # About (q^n - 1)^(2/3) giant-step landmarks and s baby steps, s the
        # integer cube root of q^n - 1; a cold lookup fills its path of
        # fewer than s steps, and then the entry it asked for holds.
        ctx = ExtensionContext.from_modulus(parse_poly(F2, text))
        big = ctx.field.order - 1
        s = round(big ** (1 / 3))
        s -= s ** 3 > big
        filled = len(ctx._coords) - ctx._coords.count(-1)
        assert filled <= 2 * big ** (2 / 3)
        rng = random.Random(big)
        for x in rng.sample(range(1, big + 1), 20):
            before = ctx._coords.count(-1)
            ctx._place(x)
            assert before - ctx._coords.count(-1) <= s + 1

    def test_gamma_powers_at_n20(self):
        ctx = ExtensionContext.from_modulus(parse_poly(F2, "x^20+x^3+1"))
        rng = random.Random(20)
        for _ in range(50):
            x = ctx.field.from_index(rng.randrange(1, ctx.field.order))
            assert ctx.gamma ** ctx.dlog(x) == x


class TestDiagram:
    @pytest.mark.parametrize("base,text", [(F2, "x^6+x+1"), (F3, "x^3+2*x+1")])
    def test_phi_intertwines_companion_and_alpha(self, base, text):
        modulus = parse_poly(base, text)
        ctx = ExtensionContext.from_modulus(modulus)
        P = companion_matrix(modulus)
        n = modulus.degree
        for i in range(base.order ** n):
            v = vector_from_index(base, n, i)
            assert ctx.phi(row_times_mat(v, P)) == ctx.phi(v) * ctx.alpha


class TestSubfieldLemmas:
    @pytest.mark.parametrize("q,k,n,text", [
        (2, 2, 4, "x^4+x+1"),
        (2, 2, 6, "x^6+x+1"),
        (2, 3, 6, "x^6+x+1"),
        (3, 1, 3, "x^3+2*x+1"),
    ])
    def test_subfield_span_has_arithmetic_progression_profile(self, q, k, n, text):
        base = FieldSpec(q)
        ctx = ExtensionContext.from_modulus(parse_poly(base, text))
        c = (q ** n - 1) // (q ** k - 1)
        rows = [ctx.phi_inv(ctx.alpha ** (i * c)) for i in range(k)]
        u = Subspace(Mat(base, rows))
        assert u.dim == k
        expected = tuple(sorted((i * c) % (q ** n - 1) for i in range(q ** k - 1)))
        assert ctx.exponent_profile(u).exponents == expected

    def test_translates_of_the_subfield_are_subspaces(self, ctx64, f2):
        # beta * F_4 is a 2-dimensional subspace for every nonzero beta
        rng = random.Random(13)
        subfield = [ctx64.alpha ** (21 * i) for i in range(3)]
        for _ in range(10):
            beta = ctx64.field.from_index(rng.randrange(1, 64))
            rows = [ctx64.phi_inv(beta * s) for s in subfield]
            assert Subspace(Mat(f2, rows)).dim == 2


ROUTE_MODULI = [(F2, "x^6+x+1"), (F2, "x^4+x^3+x^2+x+1"), (F3, "x^3+2*x+1"),
                (F3, "x^4+x^3+x^2+x+1"), (F4, "x^2+x+[2]"), (F4, "x^3+[2]")]
ROUTE_CONTEXTS = [ExtensionContext.from_modulus(parse_poly(b, t)) for b, t in ROUTE_MODULI]


class TestIndexRoute:
    """exponent_profile and orbit_partition read each vector's exponents
    off the dlog array by its index; the public route through phi, dlog
    and locate on elements must give the same data."""

    def test_both_kinds_of_context(self):
        assert [ctx.primitive for ctx in ROUTE_CONTEXTS] == [True, False] * 3

    @pytest.mark.parametrize("ctx", ROUTE_CONTEXTS, ids=[f"{b!r}:{t}" for b, t in ROUTE_MODULI])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_index_route_equals_element_route(self, ctx, data):
        digit = st.integers(0, ctx.q - 1)
        rows = data.draw(st.lists(st.lists(digit, min_size=ctx.n, max_size=ctx.n),
                                  min_size=1, max_size=ctx.n))
        u = Subspace(Mat(ctx.base, rows))
        if u.dim == 0:
            return
        vectors = [vector_from_index(ctx.base, ctx.n, x) for x in u.nonzero_vectors()]
        field = ctx.field
        for v in vectors:  # phi(v) = sum v_i alpha^i, by field arithmetic
            terms = (field.element([c]) * ctx.alpha ** i for i, c in enumerate(v))
            assert ctx.phi(v) == sum(terms, field.zero())
        if ctx.primitive:
            assert (ctx.exponent_profile(u).exponents
                    == tuple(sorted(ctx.dlog(ctx.phi(v)) for v in vectors)))
        part = ctx.orbit_partition(u)
        exps = [[] for _ in part.representatives]
        for v in vectors:
            i, b = part.locate(ctx.phi(v))
            exps[i].append(b)
        assert part.membership == tuple(map(len, exps))
        assert part.orbit_exponents == tuple(tuple(sorted(b)) for b in exps)

    def test_analyze_builds_no_element_per_vector(self, monkeypatch):
        ctx = ExtensionContext.from_modulus(parse_poly(F2, "x^16+x^5+x^3+x^2+1"))
        rng = random.Random(16)
        u = Subspace(Mat(F2, [[0] * 16]))
        while u.dim != 5:
            u = Subspace(Mat(F2, [[rng.randrange(2) for _ in range(16)] for _ in range(5)]))
        calls = Counter()
        for name in ("element", "from_index"):
            def counting(field, value, _op=getattr(FieldSpec, name), _name=name):
                calls[_name] += 1
                return _op(field, value)
            monkeypatch.setattr(FieldSpec, name, counting)
        report = analyze(u, ctx)
        monkeypatch.undo()
        vectors = 2 ** 5 - 1
        assert sum(report.membership) == vectors
        # Building an element per vector (or per coordinate) is at least 31.
        assert sum(calls.values()) < vectors, calls


class TestContextOnIndices:
    """The context finds alpha, gamma and the coset representatives on ints."""

    @pytest.mark.parametrize("base,text", [
        (F2, "x^6+x+1"), (F2, "x^4+x^3+x^2+x+1"), (F2, "x^12+x^11+x^2+x+1"),
        (F3, "x^4+x+2"), (F4, "x^3+[2]"), (FieldSpec(5), "x+3")],
        ids=lambda v: repr(v) if isinstance(v, FieldSpec) else v)
    def test_no_element_power_during_the_build(self, element_powers, base, text):
        field = base.extend(parse_poly(base, text))
        assert element_powers(lambda: ExtensionContext(field)) == {}

    def test_no_irreducibility_test_during_the_build(self, monkeypatch):
        field = F2.extend(parse_poly(F2, "x^12+x^11+x^2+x+1"))
        calls = []
        monkeypatch.setattr(orbitcodes.polyring, "is_irreducible", calls.append)
        ExtensionContext(field)
        assert calls == []


def _element_built_context(field):
    """alpha, gamma and the coset representatives as the context used to
    build them: from elements, with the gamma search over field.elements()."""
    modulus = field.modulus
    if field.degree == 1:
        alpha = field.element([-modulus.coeffs[0]])
    else:
        alpha = field.element([0, 1])
    big = field.order - 1
    e = order_of_polynomial(modulus)
    if e == big:
        gamma = alpha
    else:
        primes = _prime_factors(big)
        gamma = next(g for g in field.elements()
                     if g and all(g ** (big // ell) != field.one() for ell in primes))
    reps = [field.one()]
    for _ in range(big // e - 1):
        reps.append(reps[-1] * gamma)
    return alpha, gamma, tuple(reps)


def _element_built_spread_rows(k, n, poly):
    """Spread start rows phi^-1(alpha^(i c)) read off the extension field."""
    base = poly.field
    field = base.extend(poly)
    c = (base.order ** n - 1) // (base.order ** k - 1)
    alpha = field.element([0, 1]) if n > 1 else field.element([-poly.coeffs[0]])
    return [vector_from_index(base, n, field.index_of(alpha ** (i * c))) for i in range(k)]


def _reference_moduli():
    """Per field and degree n <= 6, the first primitive and the first
    non-primitive irreducible modulus with f(0) != 0 in enumeration order;
    over GF(5) every degree-1 modulus with f(0) != 0."""
    out = [Poly(FieldSpec(5), (c, 1)) for c in range(1, 5)]
    for base in (F2, F3, F4):
        for n in range(1, 7):
            found = {}
            for i in range(1, base.order ** n):
                f = Poly(base, _digits(i, base.order, n) + [1])
                if f.coeffs[0] and is_irreducible(f):
                    found.setdefault(order_of_polynomial(f) == base.order ** n - 1, f)
                if len(found) == 2:
                    break
            out.extend(found.values())
    return out


class TestAgainstElementBuiltReference:
    @pytest.mark.parametrize("modulus", _reference_moduli(),
                             ids=lambda f: f"{f.field!r}:{f}")
    def test_views_and_spread_rows_match(self, modulus):
        field = modulus.field.extend(modulus)
        ctx = ExtensionContext(field)
        alpha, gamma, reps = _element_built_context(field)
        assert (ctx.alpha, ctx.gamma) == (alpha, gamma)
        assert ctx.orbit_partition().representatives == reps
        if not ctx.primitive:
            return
        for k in range(1, ctx.n + 1):
            if ctx.n % k == 0:
                rows = _element_built_spread_rows(k, ctx.n, modulus)
                assert build_spread_start(k, ctx.n, ctx) == Subspace(Mat(ctx.base, rows))
