import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                        subspace_apply, subspace_distance)
from orbitcodes.fieldmap import ExponentProfile

F2 = FieldSpec(2)
F3 = FieldSpec(3)


@pytest.fixture(scope="module")
def spread3(p64):
    return build_spread_start(3, 6, p64)


@pytest.fixture(scope="module")
def spread2(p64):
    return build_spread_start(2, 6, p64)


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

    def test_full_space_start(self, p64, f2):
        u = build_spread_start(6, 6, p64)
        assert u == Subspace(Mat.identity(f2, 6))

    def test_k_must_divide_n(self, p64):
        with pytest.raises(DomainError, match="k | n"):
            build_spread_start(4, 6, p64)

    def test_primitive_required(self, p5):
        with pytest.raises(DomainError, match="primitive"):
            build_spread_start(2, 4, p5)

    @pytest.mark.parametrize("q,k,n,text", [
        (2, 2, 4, "x^4+x+1"),
        (2, 2, 6, "x^6+x+1"),
        (2, 3, 6, "x^6+x+1"),
        (3, 1, 3, "x^3+2*x+1"),
    ])
    def test_spread_optimality(self, q, k, n, text):
        base = FieldSpec(q)
        poly = parse_poly(base, text)
        u = build_spread_start(k, n, poly)
        code = generate_orbit(u, companion_matrix(poly))
        assert len(code) == (q ** n - 1) // (q ** k - 1)
        words = list(code)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                assert intersection_dim(a, b) == 0
        if len(code) > 1:
            assert min_distance_brute(code) == 2 * k


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

    def test_modulus_mismatch(self):
        d1 = DifferenceMultiset.from_exponents((0, 1), 5)
        d2 = DifferenceMultiset.from_exponents((0, 1), 7)
        with pytest.raises(DomainError, match="modulus"):
            DifferenceMultiset.merged((d1, d2), 5)


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
        # {0,1,2} has a difference of multiplicity 2; 3 is not a power of 2
        fake = ExponentProfile(2, (0, 1, 2))
        monkeypatch.setattr(ExtensionContext, "exponent_profile",
                            lambda self, u: fake)
        with pytest.raises(RuntimeError, match="q\\^d - 1"):
            predict_primitive(Subspace(parse_matrix(f2, "100000\n010000")), ctx64)


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
        u = build_spread_start(1, 3, poly)
        code = generate_orbit(u, companion_matrix(poly))
        field, words = parse_code(format_code(code))
        assert len(words) == 13
        assert min_distance_brute(words) == 2

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


class TestVerifiedReports:
    def test_unverified_report_has_no_oracle_values(self, spread2, ctx64):
        report = predict_primitive(spread2, ctx64)
        assert not report.verified
        assert report.verification_ok is None

    def test_report_is_immutable(self, spread2, ctx64):
        report = predict_primitive(spread2, ctx64)
        with pytest.raises(AttributeError):
            report.predicted_cardinality = 1
