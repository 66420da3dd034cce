import hashlib
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcodes.orbitcode
from orbitcodes import (DifferenceMultiset, DomainError,
                        ExtensionContext, FieldSpec, Mat, ParseError,
                        Subspace, analyze, analyze_nonprimitive,
                        build_spread_start, check_sidon_condition,
                        companion_matrix, conjugate_code, find_sidon_subspace,
                        format_code, format_matrix, generate_orbit,
                        grassmannian, intersection_dim, is_primitive,
                        min_distance_brute,
                        min_distance_orbit, parse_code, parse_matrix,
                        parse_poly, predict_primitive, random_invertible,
                        subspace_apply, subspace_distance, verify_report)
from orbitcodes.fieldmap import ExponentProfile, OrbitPartition

F2 = FieldSpec(2)
F3 = FieldSpec(3)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def spread3(ctx64):
    return build_spread_start(3, 6, ctx64)


@pytest.fixture(scope="module")
def spread2(ctx64):
    return build_spread_start(2, 6, ctx64)


@pytest.fixture(scope="module")
def example_u16(f2):
    """Starting point of the non-primitive GF(16) example."""
    return Subspace(parse_matrix(f2, "1000\n0011"))


class TestGenerateOrbit:
    def test_spread_orbit_has_nine_codewords(self, spread3, p64):
        code = generate_orbit(spread3, companion_matrix(p64))
        assert len(code) == 9
        assert code.generator_order == 63
        assert len(set(code.codewords)) == 9

    def test_full_space_is_fixed(self, p64, f2):
        code = generate_orbit(Subspace(Mat.identity(f2, 6)), companion_matrix(p64))
        assert len(code) == 1

    def test_nonprimitive_example_five_codewords(self, example_u16, p5):
        code = generate_orbit(example_u16, companion_matrix(p5))
        assert len(code) == 5 and code.generator_order == 5

    def test_singular_generator_rejected(self, spread3, f2):
        with pytest.raises(DomainError, match="singular"):
            generate_orbit(spread3, Mat(f2, [[0] * 6] * 6))

    def test_zero_start_rejected(self, p64, f2):
        with pytest.raises(DomainError, match="dimension"):
            generate_orbit(Subspace(Mat(f2, [[0] * 6])), companion_matrix(p64))

    def test_cardinality_divides_generator_order(self, p15, f2):
        P = companion_matrix(p15)
        for u in grassmannian(f2, 2, 4):
            code = generate_orbit(u, P)
            assert code.generator_order % len(code) == 0

    def test_first_step_of_spread_is_far(self, spread3, p64):
        v = subspace_apply(spread3, companion_matrix(p64))
        assert v in generate_orbit(spread3, companion_matrix(p64))
        assert subspace_distance(spread3, v) == 6


class TestMinDistance:
    def test_spread_distances(self, spread3, spread2, p64):
        P = companion_matrix(p64)
        assert min_distance_brute(generate_orbit(spread3, P)) == 6
        assert min_distance_brute(generate_orbit(spread2, P)) == 4

    def test_nonprimitive_example_distance(self, example_u16, p5):
        assert min_distance_brute(generate_orbit(example_u16, companion_matrix(p5))) == 4

    def test_singleton_rejected(self, p64, f2):
        code = generate_orbit(Subspace(Mat.identity(f2, 6)), companion_matrix(p64))
        with pytest.raises(DomainError, match="at least two"):
            min_distance_brute(code)
        with pytest.raises(DomainError, match="at least two"):
            min_distance_orbit(code)

    def test_orbit_shortcut_agrees_with_brute_force(self, p15, p5, f2):
        for modulus in (p15, p5):
            P = companion_matrix(modulus)
            for u in list(grassmannian(f2, 2, 4))[::5]:
                code = generate_orbit(u, P)
                assert min_distance_orbit(code) == min_distance_brute(code)

    def test_two_codeword_orbit(self, f2):
        # the swap permutation exchanges the two coordinate lines of F_2^2
        swap = Mat(f2, [[0, 1], [1, 0]])
        code = generate_orbit(Subspace(parse_matrix(f2, "10")), swap)
        assert len(code) == 2
        assert code.generator_order == 2  # char poly (x + 1)^2 is reducible
        assert min_distance_brute(code) == min_distance_orbit(code) == 2


class TestBuildSpreadStart:
    def test_three_dimensional_start_rows(self, spread3):
        assert format_matrix(spread3.mat) == "100000\n011010\n000110"

    def test_two_dimensional_start_rows(self, spread2):
        # span{1, alpha^21}: the canonical second row is phi^-1(alpha^42)
        assert format_matrix(spread2.mat) == "100000\n010111"

    def test_full_space_start(self, ctx64, f2):
        u = build_spread_start(6, 6, ctx64)
        assert u == Subspace(Mat.identity(f2, 6))

    def test_k_must_divide_n(self, ctx64):
        with pytest.raises(DomainError, match="k | n"):
            build_spread_start(4, 6, ctx64)

    def test_degree_must_match_n(self, ctx64):
        with pytest.raises(DomainError, match="polynomial degree 6 does not match n = 4"):
            build_spread_start(2, 4, ctx64)

    def test_primitive_required(self, ctx16_nonprim):
        with pytest.raises(DomainError, match="primitive"):
            build_spread_start(2, 4, ctx16_nonprim)

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_monic_modulus_refused(self, k):
        # The context refuses it, before any spread start is built.
        poly = parse_poly(F3, "2*x^2+2*x+1")
        assert is_primitive(poly)
        with pytest.raises(DomainError, match="modulus must be monic"):
            build_spread_start(k, 2, ExtensionContext.from_modulus(poly))

    @pytest.mark.parametrize("q,k,n,text", [
        (2, 2, 4, "x^4+x+1"),
        (2, 2, 6, "x^6+x+1"),
        (2, 3, 6, "x^6+x+1"),
        (3, 1, 3, "x^3+2*x+1"),
    ])
    def test_spread_optimality(self, q, k, n, text):
        base = FieldSpec(q)
        poly = parse_poly(base, text)
        u = build_spread_start(k, n, ExtensionContext.from_modulus(poly))
        code = generate_orbit(u, companion_matrix(poly))
        assert len(code) == (q ** n - 1) // (q ** k - 1)
        words = list(code)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                assert intersection_dim(a, b) == 0
        if len(code) > 1:
            assert min_distance_brute(code) == 2 * k

    @pytest.mark.parametrize("q, base_modulus, text", [
        (2, None, "x^12+x^6+x^4+x+1"),
        (3, None, "x^6+x+2"),
        (4, "x^2+x+1", "x^4+x^2+[2]*x+[3]"),
    ], ids=["GF2", "GF3", "F4"])
    def test_start_is_the_span_of_the_k_powers(self, q, base_modulus, text):
        # One power y = alpha^c and its multiples y^i make the same start as
        # the k powers alpha^(i c), each computed on its own.
        base = F2.extend(parse_poly(F2, base_modulus)) if base_modulus else FieldSpec(q)
        ctx = ExtensionContext.from_modulus(parse_poly(base, text))
        field, n = ctx.field, ctx.n
        assert ctx.primitive
        for k in range(1, n + 1):
            if n % k == 0:
                c = (q ** n - 1) // (q ** k - 1)
                powers = [field._pow(ctx.alpha.value, i * c) for i in range(k)]
                assert build_spread_start(k, n, ctx) == Subspace._span(base, n, powers)


class TestSidonCondition:
    def test_single_exponent_is_trivially_sidon(self):
        assert check_sidon_condition(ExponentProfile(1, (5,)), 63)

    def test_subfield_start_fails(self, ctx64, spread2):
        profile = ctx64.exponent_profile(spread2)
        assert profile.exponents == (0, 21, 42)
        assert not check_sidon_condition(profile, 63)

    def test_search_finds_lemma_instance(self, ctx64, p64):
        u = find_sidon_subspace(ctx64, 3)
        # first fit over the fixed enumeration order of G(3,6)
        assert format_matrix(u.mat) == "100010\n010000\n001000"
        profile = ctx64.exponent_profile(u)
        assert check_sidon_condition(profile, 63)
        code = generate_orbit(u, companion_matrix(p64))
        assert len(code) == 63
        assert min_distance_brute(code) == 2 * 3 - 2

    def test_displayed_k2_rows_are_sidon(self, ctx64, f2, p64):
        # rs(100000;011000) has profile {0,7,26}: all differences distinct,
        # so its orbit is a full-length code of distance 2k-2, not a spread
        u = Subspace(parse_matrix(f2, "100000\n011000"))
        assert check_sidon_condition(ctx64.exponent_profile(u), 63)
        code = generate_orbit(u, companion_matrix(p64))
        assert len(code) == 63 and min_distance_brute(code) == 2

    def test_search_over_q_above_2_is_refused_before_the_walk(self):
        ctx = ExtensionContext.from_modulus(parse_poly(F3, "x^6+x+2"))
        started = time.perf_counter()
        with pytest.raises(DomainError, match=r"GF\(3\).*dlog\(lambda\)"):
            find_sidon_subspace(ctx, 2)  # the walk of G(2, 6) took seconds
        assert time.perf_counter() - started < 0.5

    def test_search_ruled_out_by_counting_is_refused_before_the_walk(self):
        # s = 31 vectors give 930 ordered differences, over the 126 nonzero
        # residues mod 127; the walk of G(5, 7) took 2 s
        ctx = ExtensionContext.from_modulus(parse_poly(F2, "x^7+x+1"))
        started = time.perf_counter()
        with pytest.raises(DomainError, match=r"G\(5,7\).*930 exceeds the 126"):
            find_sidon_subspace(ctx, 5)
        assert time.perf_counter() - started < 0.5


def _primitive_contexts_over_q_above_2():
    f4 = F2.extend(parse_poly(F2, "x^2+x+1"))
    return [ExtensionContext.from_modulus(parse_poly(F3, "x^4+x+2")),
            ExtensionContext.from_modulus(parse_poly(f4, "x^4+x^2+[2]*x+[3]"))]


@pytest.mark.parametrize("ctx", _primitive_contexts_over_q_above_2(), ids=["GF(3)", "F_4"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_no_subspace_over_q_above_2_is_sidon(ctx, data):
    # For lambda in F_q^*, lambda != 1, the pairs (v, lambda v) of U all
    # differ by dlog(lambda), so some difference repeats.
    digit = st.integers(0, ctx.q - 1)
    rows = data.draw(st.lists(st.lists(digit, min_size=ctx.n, max_size=ctx.n),
                              min_size=1, max_size=ctx.n - 1))
    u = Subspace(Mat(ctx.base, rows))
    if u.dim:
        assert not check_sidon_condition(ctx.exponent_profile(u), ctx.field.order - 1)


class TestDifferenceMultiset:
    def test_counts_ordered_pairs(self):
        d = DifferenceMultiset.from_exponents((0, 21, 42), 63)
        assert d.items() == [(21, 3), (42, 3)]
        assert d.total() == 3 * 2

    def test_symmetry(self, ctx64, f2):
        rng = random.Random(41)
        subs = list(grassmannian(f2, 2, 6))
        for u in rng.sample(subs, 12):
            prof = ctx64.exponent_profile(u)
            d = DifferenceMultiset.from_exponents(prof.exponents, 63)
            s = len(prof.exponents)
            assert d.total() == s * (s - 1)
            for a, m in d.items():
                assert d.multiplicity(63 - a) == m

    def test_merge_adds_multiplicities(self):
        d1 = DifferenceMultiset.from_exponents((0, 1), 5)
        d2 = DifferenceMultiset.from_exponents((2, 3), 5)
        merged = DifferenceMultiset.merged((d1, d2), 5)
        assert merged.multiplicity(1) == 2 and merged.multiplicity(4) == 2

    def test_only_the_public_constructor_copies(self):
        counts = {1: 1, 4: 1}
        public = DifferenceMultiset(5, counts)
        counts[2] = 9
        assert public.items() == [(1, 1), (4, 1)]
        d1 = DifferenceMultiset.from_exponents((0, 1), 5)
        d2 = DifferenceMultiset.from_exponents((2, 3), 5)
        assert DifferenceMultiset.merged((d1,), 5)._counts is d1._counts
        merged = DifferenceMultiset.merged((d1, d2), 5)
        assert merged._counts is not d1._counts and merged == DifferenceMultiset(5, {1: 2, 4: 2})
        assert d1 == public and d1.items() == [(1, 1), (4, 1)]

    def test_modulus_mismatch(self):
        d1 = DifferenceMultiset.from_exponents((0, 1), 5)
        d2 = DifferenceMultiset.from_exponents((0, 1), 7)
        with pytest.raises(DomainError, match="modulus"):
            DifferenceMultiset.merged((d1, d2), 5)

    @pytest.mark.parametrize("exponents,modulus", [((0, 63), 63), ((0, 0, 1), 5)])
    def test_repeated_residues_rejected(self, exponents, modulus):
        # Equal residues would count a difference 0, or break s(s - 1).
        with pytest.raises(DomainError, match="distinct residues"):
            DifferenceMultiset.from_exponents(exponents, modulus)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_counts_and_merges_match_a_double_loop(self, data):
        modulus = data.draw(st.integers(1, 40))
        residues = st.lists(st.integers(0, modulus - 1), unique=True, max_size=12)
        parts = []  # distinct residues, each written as residue + j * modulus
        for exps in data.draw(st.lists(residues, max_size=4)):
            lifts = data.draw(st.lists(st.integers(-2, 2), min_size=len(exps),
                                       max_size=len(exps)))
            parts.append([a + j * modulus for a, j in zip(exps, lifts)])
        per, total = [], {}
        for exps in parts:
            naive = {}
            for l, a in enumerate(exps):
                for m, b in enumerate(exps):
                    if l != m:
                        naive[(b - a) % modulus] = naive.get((b - a) % modulus, 0) + 1
            d = DifferenceMultiset.from_exponents(exps, modulus)
            assert d.items() == sorted(naive.items())
            assert ([d.multiplicity(a) for a in range(-modulus, 2 * modulus)]
                    == [naive.get(a % modulus, 0) for a in range(-modulus, 2 * modulus)])
            assert d.total() == len(exps) * (len(exps) - 1) and bool(d) == bool(naive)
            per.append(d)
            for a, m in naive.items():
                total[a] = total.get(a, 0) + m
        merged = DifferenceMultiset.merged(per, modulus)
        assert merged == DifferenceMultiset(modulus, total)
        assert merged.items() == sorted(total.items()) and bool(merged) == bool(total)


    def test_an_odd_q_line_doubles_the_middle_key(self):
        # Over GF(3) a line holds v and 2v = -v, whose exponents differ by
        # M/2 = 40: both orders of the one pair land on key 0.
        ctx = ExtensionContext.from_modulus(parse_poly(F3, "x^4+x+2"))
        report = analyze(Subspace(Mat(F3, [[0, 1, 2, 1]])), ctx)
        assert report.differences == DifferenceMultiset(80, {40: 2})
        assert report.differences.items() == [(40, 2)] and report.differences.total() == 2
        assert report.differences._counts == {0: 2}
        assert report.stabilizer_shifts == (40,) and report.predicted_cardinality == 40

    def test_moduli_one_and_two(self):
        one = DifferenceMultiset.from_exponents((7,), 1)
        assert not one and one.items() == [] and one.total() == 0
        assert one.multiplicity(0) == one.multiplicity(5) == 0
        two = DifferenceMultiset.from_exponents((4, 1), 2)
        assert two.items() == [(1, 2)] and two.total() == 2
        assert [two.multiplicity(a) for a in range(-2, 4)] == [0, 2, 0, 2, 0, 2]
        assert two == DifferenceMultiset(2, {1: 2})

    @pytest.mark.parametrize("counts,match", [
        ({1: 1}, "not symmetric"), ({1: 1, 4: 2}, "not symmetric"),
        ({0: 2, 1: 1, 4: 1}, "outside 1 .. 4"), ({6: 1, 4: 1}, "outside 1 .. 4")])
    def test_the_constructor_refuses_counts_no_difference_has(self, counts, match):
        with pytest.raises(DomainError, match=match):
            DifferenceMultiset(5, counts)


def _naive_prediction(report):
    """(differences, stabilizer shifts, intersection dimension) of a report,
    recounted from its orbit exponents with one ordered double loop."""
    q, full, modulus = report.q, report.q ** report.k - 1, report.group_order
    counts = {}
    for exps in report.orbit_exponents:
        for a in exps:
            for b in exps:
                if a != b:
                    counts[(b - a) % modulus] = counts.get((b - a) % modulus, 0) + 1
    stabilizers = tuple(sorted(a for a, m in counts.items() if m == full))
    most = max([m for m in counts.values() if m != full], default=0)
    d = 0
    while q ** (d + 1) <= most + 1:
        d += 1
    return sorted(counts.items()), stabilizers, d


_F4 = F2.extend(parse_poly(F2, "x^2+x+1"))
# Over each of GF(2), GF(3) and F_4: a primitive modulus, then one that is not.
_REPORT_MODULI = [(F2, "x^6+x+1"), (F2, "x^6+x^3+1"), (F3, "x^4+x+2"),
                  (F3, "x^4+x^3+x^2+x+1"), (_F4, "x^2+x+[2]"), (_F4, "x^3+[2]")]


@pytest.mark.parametrize("base,text", _REPORT_MODULI, ids=[t for _, t in _REPORT_MODULI])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_reports_match_a_naive_recount(base, text, data):
    ctx = ExtensionContext.from_modulus(parse_poly(base, text))
    digit = st.integers(0, ctx.q - 1)
    rows = data.draw(st.lists(st.lists(digit, min_size=ctx.n, max_size=ctx.n),
                              min_size=1, max_size=ctx.n))
    u = Subspace(Mat(ctx.base, rows))
    if u.dim:
        report = analyze(u, ctx)
        items, stabilizers, d = _naive_prediction(report)
        assert report.differences.items() == items
        assert report.stabilizer_shifts == stabilizers and report.intersection_dim == d
        assert [dm.total() for dm in report.per_orbit_differences] == [
            len(exps) * (len(exps) - 1) for exps in report.orbit_exponents]


class TestPredictPrimitive:
    def test_subfield_spread_prediction(self, spread2, ctx64):
        report = predict_primitive(spread2, ctx64, verify=True)
        assert report.stabilizer_shifts == (21, 42)
        assert report.predicted_cardinality == 21
        assert report.intersection_dim == 0
        assert report.predicted_distance == 4
        assert report.spread and report.verification_ok

    def test_sidon_prediction(self, ctx64):
        u = find_sidon_subspace(ctx64, 3)
        report = predict_primitive(u, ctx64, verify=True)
        assert report.stabilizer_shifts == ()
        assert report.predicted_cardinality == 63
        assert report.intersection_dim == 1
        assert report.predicted_distance == 4
        assert not report.spread and report.verification_ok

    def test_line_start_gf2(self, ctx64, f2):
        u = Subspace(parse_matrix(f2, "010000"))
        report = predict_primitive(u, ctx64, verify=True)
        assert report.predicted_cardinality == 63
        assert report.predicted_distance == 2
        assert report.verification_ok

    def test_line_start_gf3(self):
        # over GF(3) the two nonzero scalar multiples share the line, so the
        # stabilizer halves the orbit: (27-1)/(3-1) = 13 codewords
        poly = parse_poly(F3, "x^3+2*x+1")
        ctx = ExtensionContext.from_modulus(poly)
        u = Subspace(Mat(F3, [[1, 0, 0]]))
        report = predict_primitive(u, ctx, verify=True)
        assert report.predicted_cardinality == 13
        assert report.predicted_distance == 2
        assert report.spread and report.verification_ok

    def test_full_space_is_degenerate(self, ctx64, f2):
        report = predict_primitive(Subspace(Mat.identity(f2, 6)), ctx64, verify=True)
        assert report.predicted_cardinality == 1
        assert report.predicted_distance is None
        assert report.verification_ok

    def test_nonprimitive_context_rejected(self, ctx16_nonprim, f2):
        with pytest.raises(DomainError, match="primitive"):
            predict_primitive(Subspace(parse_matrix(f2, "1000")), ctx16_nonprim)

    def test_non_subspace_profile_raises_defect(self, ctx64, f2, monkeypatch):
        # {0,1,2} has a difference of multiplicity 2; 3 is not a power of 2.
        # A primitive context has one orbit, so the exponents go in as its
        # within-orbit exponents.
        fake = OrbitPartition(63, (ctx64.field.one(),), (3,), ((0, 1, 2),), ctx64)
        monkeypatch.setattr(ExtensionContext, "orbit_partition",
                            lambda self, u=None: fake)
        with pytest.raises(RuntimeError, match="q\\^d - 1"):
            predict_primitive(Subspace(parse_matrix(f2, "100000\n010000")), ctx64)


class TestAnalysisReport:
    def test_equal_fields_compare_equal(self, spread2, ctx64):
        a, b = analyze(spread2, ctx64), analyze(spread2, ctx64)
        assert a is not b and a == b
        assert a._replace(verified_cardinality=21) != a

    def test_fields_are_read_only(self, spread2, ctx64):
        report = analyze(spread2, ctx64)
        with pytest.raises(AttributeError):
            report.predicted_cardinality = 1
        with pytest.raises(AttributeError):
            report.note = "no such field"

    def test_replace_keeps_the_properties(self, spread2, ctx64):
        report = analyze(spread2, ctx64)
        assert report.verified is False and report.verification_ok is None
        verified = report._replace(verified_cardinality=21, verified_distance=4)
        assert verified.verified and verified.verification_ok
        assert not verified._replace(verified_distance=2).verification_ok


class TestAnalyzeNonprimitive:
    def test_worked_example(self, example_u16, ctx16_nonprim):
        report = analyze_nonprimitive(example_u16, ctx16_nonprim, verify=True)
        assert report.membership == (1, 1, 1)
        assert not report.differences
        assert report.predicted_cardinality == 5
        assert report.predicted_distance == 4
        assert report.all_orbits_distinct
        assert report.spread
        assert report.verification_ok

    def test_shared_orbit_case(self, f2):
        # one orbit holding two of the three nonzero vectors: the merged
        # multiset has max multiplicity 1, so the distance drops to 2k-2
        poly = parse_poly(f2, "x^6+x^5+x^4+x^2+1")
        assert not is_primitive(poly)
        ctx = ExtensionContext.from_modulus(poly)
        assert ctx.order == 21
        found = next(u for u in grassmannian(f2, 2, 6)
                     if sorted(m for m in ctx.orbit_partition(u).membership if m) == [1, 2])
        assert format_matrix(found.mat) == "100000\n010000"
        report = analyze_nonprimitive(found, ctx, verify=True)
        assert sorted(m for m in report.membership if m) == [1, 2]
        assert report.intersection_dim == 1
        assert report.predicted_cardinality == 21
        assert report.predicted_distance == 2 * 2 - 2
        assert report.verification_ok

    def test_full_space_is_degenerate(self, ctx16_nonprim, f2):
        report = analyze_nonprimitive(Subspace(Mat.identity(f2, 4)), ctx16_nonprim,
                                      verify=True)
        assert report.predicted_cardinality == 1
        assert report.predicted_distance is None
        assert report.verification_ok

    def test_primitive_context_rejected(self, ctx64, f2):
        with pytest.raises(DomainError, match="use predict_primitive"):
            analyze_nonprimitive(Subspace(parse_matrix(f2, "100000")), ctx64)

    def test_dedup_factor_divides_group_order(self, ctx16_prim, ctx16_nonprim, f2):
        for ctx in (ctx16_prim, ctx16_nonprim):
            for u in grassmannian(f2, 2, 4):
                report = analyze(u, ctx)
                assert report.group_order % report.predicted_cardinality == 0


class TestPairBudget:
    @pytest.mark.parametrize("slack,refused", [(0, False), (-1, True)])
    def test_pairs_of_every_orbit_count(self, f2, monkeypatch, slack, refused):
        # Under a modulus of order 21 (three orbits), a start whose seven
        # vectors put two or more on at least two orbits: the budget is
        # charged the pairs of each orbit, summed.
        ctx = ExtensionContext.from_modulus(parse_poly(f2, "x^6+x^5+x^4+x^2+1"))
        u = next(u for u in grassmannian(f2, 3, 6)
                 if sum(m > 1 for m in ctx.orbit_partition(u).membership) >= 2)
        pairs = sum(m * (m - 1) // 2 for m in ctx.orbit_partition(u).membership)
        monkeypatch.setattr(orbitcodes.orbitcode, "PAIR_BUDGET", pairs + slack)
        if refused:
            with pytest.raises(DomainError, match=f"would count {pairs} exponent pairs, "
                                                  f"above its budget of {pairs - 1}"):
                analyze(u, ctx)
        else:
            assert analyze(u, ctx).differences.total() == 2 * pairs

    @pytest.mark.parametrize("poly,k,pairs", [("x^12+x^6+x^4+x+1", 11, 2047 * 2046 // 2),
                                              ("x^12+x^11+x^2+x+1", 12, 3 * 1365 * 1364 // 2)],
                             ids=["primitive", "three-orbits"])
    def test_refuses_before_the_partition(self, f2, monkeypatch, poly, k, pairs):
        # The q^k - 1 vectors make the fewest pairs spread evenly over the c
        # orbits: 2047 on one orbit, or 4095 as 1365 on each of three.
        ctx = ExtensionContext.from_modulus(parse_poly(f2, poly))
        u = Subspace(Mat(f2, [[int(i == j) for j in range(12)] for i in range(k)]))

        def refuse(*_args):
            raise AssertionError("partitioned the start")
        monkeypatch.setattr(ExtensionContext, "orbit_partition", refuse)
        with pytest.raises(DomainError, match=f"would count {pairs} exponent pairs, "
                                              "above its budget of 1048576"):
            analyze(u, ctx)

    def test_refuses_no_code_of_ten_dimensions_in_f2_12(self, f2):
        # 1023 vectors on one orbit: 522753 pairs, within the budget.
        ctx = ExtensionContext.from_modulus(parse_poly(f2, "x^12+x^6+x^4+x+1"))
        u = Subspace(Mat(f2, [[int(i == j) for j in range(12)] for i in range(10)]))
        assert orbitcodes.orbitcode.PAIR_BUDGET >= 1023 * 1022 // 2
        assert analyze(u, ctx).differences.total() == 1023 * 1022


class TestPredictorOracleEquivalence:
    @pytest.mark.parametrize("text", ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"])
    def test_exhaustive_g24(self, text, f2):
        poly = parse_poly(f2, text)
        ctx = ExtensionContext.from_modulus(poly)
        P = companion_matrix(poly)
        for u in grassmannian(f2, 2, 4):
            report = analyze(u, ctx)
            code = generate_orbit(u, P)
            assert report.predicted_cardinality == len(code)
            expected = min_distance_brute(code) if len(code) > 1 else None
            assert report.predicted_distance == expected


class TestConjugation:
    def test_identity_is_no_op(self, spread3, p64, f2):
        g = companion_matrix(p64)
        v, h = conjugate_code(spread3, g, Mat.identity(f2, 6))
        assert v == spread3 and h == g

    def test_transport_preserves_parameters(self, spread3, p64, f2):
        rng = random.Random(19)
        g = companion_matrix(p64)
        for _ in range(5):
            s = random_invertible(f2, 6, rng)
            v, h = conjugate_code(spread3, g, s)
            code = generate_orbit(v, h)
            assert len(code) == 9
            assert min_distance_brute(code) == 6

    def test_transported_codewords_are_translates(self, example_u16, p5, f2):
        rng = random.Random(37)
        g = companion_matrix(p5)
        s = random_invertible(f2, 4, rng)
        v, h = conjugate_code(example_u16, g, s)
        original = generate_orbit(example_u16, g)
        transported = generate_orbit(v, h)
        assert set(transported.codewords) == {subspace_apply(c, s) for c in original}

    def test_singular_rejected(self, spread3, p64, f2):
        with pytest.raises(DomainError, match="singular"):
            conjugate_code(spread3, companion_matrix(p64), Mat(f2, [[0] * 6] * 6))


class TestExportFormat:
    def test_round_trip(self, spread3, p64, f2):
        code = generate_orbit(spread3, companion_matrix(p64))
        text = format_code(code)
        assert text.startswith("2 6 3 9\n")
        field, words = parse_code(text)
        assert field == f2
        assert words == list(code.codewords)
        assert format_code(words) == text

    def test_round_trip_gf3(self):
        poly = parse_poly(F3, "x^3+2*x+1")
        u = build_spread_start(1, 3, ExtensionContext.from_modulus(poly))
        code = generate_orbit(u, companion_matrix(poly))
        field, words = parse_code(format_code(code))
        assert len(words) == 13
        assert min_distance_brute(words) == 2

    @pytest.mark.parametrize("field,text,rows,k", [
        (F2, "x^10+x^3+1", "1000000000;0100000000;0010000000", 3),
        (F3, "x^6+2*x+2", "100000;001000", 2),
    ], ids=["gf2-n10-k3", "gf3-n6-k2"])
    def test_round_trip_of_a_full_orbit(self, field, text, rows, k):
        poly = parse_poly(field, text)
        u = Subspace(parse_matrix(field, rows.replace(";", "\n")))
        code = generate_orbit(u, companion_matrix(poly))
        assert len(code) == (field.order ** poly.degree - 1) // (field.order - 1)
        text = format_code(code)
        assert text.startswith(f"{field.order} {poly.degree} {k} {len(code)}\n")
        parsed, words = parse_code(text)
        assert parsed == field and words == list(code.codewords)
        assert format_code(words) == text

    def test_full_length_gf2_export_bytes_are_pinned(self):
        # n = 10, full-length k = 3: the export of 1023 words keeps its pinned
        # bytes and reads back to the same words.
        poly = parse_poly(F2, "x^10+x^3+1")
        u = Subspace(parse_matrix(F2, "1000000000\n0100000000\n0010000000"))
        code = generate_orbit(u, companion_matrix(poly))
        text = format_code(code)
        assert len(text) == 34793 and hashlib.sha256(text.encode()).hexdigest() == (
            "0afac7af72ba749cbe60442c61bff114997848e0f9fad32f92b2b1e467a18e97")
        _, words = parse_code(text)
        assert tuple(words) == code.codewords
        assert format_code(words) == text

    @pytest.mark.parametrize("rows, size, length, digest", [
        (None, 91, 1373, "49cc9335fc902e5e8ff337f6187a1a3dd934d34ff54d7dedc55aea3f6ecbf180"),
        ("100000\n010000\n001000", 364, 8017,
         "6bffd4c6b6e5bdfcd5b7d78cf43b58a7c452c84d0c2e189282e7d9cdfd62f770"),
    ], ids=["spread-k2", "full-length-k3"])
    def test_gf3_export_bytes_are_pinned(self, rows, size, length, digest):
        # GF(3), x^6+x+2: the k = 2 spread and a full-length orbit, (3^6 - 1)/2
        # words, whose vectors add through the block tables; bytes pinned
        # as the digit-wise adds wrote them.
        poly = parse_poly(F3, "x^6+x+2")
        u = (build_spread_start(2, 6, ExtensionContext.from_modulus(poly)) if rows is None
             else Subspace(parse_matrix(F3, rows)))
        code = generate_orbit(u, companion_matrix(poly))
        text = format_code(code)
        assert len(code) == size and len(text) == length
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert tuple(parse_code(text)[1]) == code.codewords

    @pytest.mark.parametrize("field,first,second", [
        (F2, "01", "10"),              # indices 2 and 1
        (F3, "01", "10"),              # indices 3 and 1
        (F2, "100\n001", "100\n010"),  # rows (1, 4) and (1, 2)
    ], ids=["gf2-k1", "gf3-k1", "gf2-k2"])
    def test_words_export_in_digit_order_not_index_order(self, field, first, second):
        a, b = (Subspace(parse_matrix(field, t)) for t in (first, second))
        assert a.basis > b.basis and a < b and sorted([b, a]) == [a, b]
        text = f"{field.order} {a.ambient} {a.dim} 2\n{first}\n\n{second}\n"
        assert format_code([b, a]) == text
        assert parse_code(text)[1] == [a, b]

    def test_gf2_words_are_reduced_without_rref(self, monkeypatch):
        calls = []
        rref = Mat.rref
        monkeypatch.setattr(Mat, "rref", lambda m: calls.append(m) or rref(m))
        poly = parse_poly(F2, "x^8+x^4+x^3+x^2+1")
        u = Subspace(parse_matrix(F2, "11000000\n00110000\n00001111"))
        code = generate_orbit(u, companion_matrix(poly))
        words = code.codewords
        assert parse_code(format_code(code))[1] == list(words)
        assert len(words) == 255 and calls == []

    def test_codewords_sorted(self, spread3, p64):
        code = generate_orbit(spread3, companion_matrix(p64))
        blocks = format_code(code).split("\n", 1)[1].split("\n\n")
        assert blocks == sorted(blocks)

    def test_noncanonical_blocks_are_canonicalized(self, f2):
        text = "2 2 1 2\n11\n\n10\n"
        _, words = parse_code(text)
        assert [format_matrix(w.mat) for w in sorted(words)] == ["10", "11"]

    def test_header_errors(self):
        with pytest.raises(ParseError, match="header"):
            parse_code("2 6 3\n")
        with pytest.raises(ParseError, match="promises"):
            parse_code("2 2 1 3\n10\n\n01\n")
        for k in ("0", "3", "-1"):
            with pytest.raises(ParseError, match=r"k must lie in \[1, n\]"):
                parse_code(f"2 2 {k} 1\n10\n")

    def test_rank_deficient_block(self):
        with pytest.raises(ParseError, match="rank deficient"):
            parse_code("2 2 2 1\n10\n10\n")

    def test_duplicate_codewords(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_code("2 2 1 2\n10\n\n10\n")

    def test_prime_power_needs_field(self):
        with pytest.raises(ParseError, match="not prime"):
            parse_code("4 2 1 1\n10\n")

    def test_field_mismatch(self, f2):
        with pytest.raises(ParseError, match="order"):
            parse_code("3 2 1 1\n10\n", f2)

    def test_a_supplied_field_reads_an_export_back_byte_for_byte(self, f4):
        text = (GOLDEN / "orbit-f4-x3+2x+1.code").read_text()
        field, words = parse_code(text, f4)
        assert field is f4 and len(words) == int(text.split()[3])
        assert format_code(words) == text


class TestCodeChecks:
    """One routine checks and deduplicates a code's words for the export
    and the oracle alike; the export also sorts them."""

    @pytest.mark.parametrize("words,match", [
        ([], "at least one codeword"),
        ([Subspace(Mat(F2, [[0, 0, 0]]))], "nonzero"),
        ([Subspace(parse_matrix(F2, "1000")), Subspace(parse_matrix(F2, "0100\n0010"))],
         "constant dimension"),
        ([Subspace(parse_matrix(F2, "100")), Subspace(parse_matrix(F2, "0100"))], "ambient"),
        ([Subspace(parse_matrix(F2, "100")), Subspace(parse_matrix(F3, "010"))], "ambient"),
    ], ids=["empty", "zero-subspace", "mixed-dimension", "mixed-ambient", "mixed-field"])
    @pytest.mark.parametrize("consumer", [format_code, min_distance_brute])
    def test_refusals(self, consumer, words, match):
        with pytest.raises(DomainError, match=match):
            consumer(iter(words))

    def test_duplicates_collapse_and_the_order_is_canonical(self):
        a, b = Subspace(parse_matrix(F2, "0110")), Subspace(parse_matrix(F2, "1001"))
        assert format_code([a, b, a]) == format_code([b, a]) == "2 4 1 2\n0110\n\n1001\n"
        assert min_distance_brute([a, b, a]) == 2


class TestVerifiedReports:
    @pytest.mark.parametrize("ctx_name,start", [("ctx64", "100000\n010111"),
                                                ("ctx16_nonprim", "1000\n0011")],
                             ids=["primitive", "nonprimitive"])
    def test_verify_report_gives_the_fields_of_analyze(self, request, f2, ctx_name, start):
        ctx = request.getfixturevalue(ctx_name)
        u = Subspace(parse_matrix(f2, start))
        code = generate_orbit(u, companion_matrix(ctx.modulus))
        verified = verify_report(analyze(u, ctx), code)
        assert verified.verified and verified.verification_ok
        assert verified == analyze(u, ctx, verify=True)

    def test_unverified_report_has_no_oracle_values(self, spread2, ctx64):
        report = predict_primitive(spread2, ctx64)
        assert not report.verified
        assert report.verification_ok is None

    def test_report_is_immutable(self, spread2, ctx64):
        report = predict_primitive(spread2, ctx64)
        with pytest.raises(AttributeError):
            report.predicted_cardinality = 1
