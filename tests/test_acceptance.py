"""Acceptance battery: one test per criterion, exact expectations.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 2 (the k = 2 spread in GF(2)^6 under x^6+x+1) is
split in two.  The cardinality/distance half checks that the orbit of
`build_spread_start(2, 6, ctx)` (ctx the context of p) has 21 codewords
at distance 4.  The start-rows half pins the rows 100000;010111 = span{1, alpha^21}, shows
with bit-packed GF(64) arithmetic that does not use orbitcodes that they
span the subfield F_4, checks that their orbit is the 21/4 spread, and
then checks that the library returns exactly these rows.
"""

import math
import random

import pytest

from orbitcodes import (ExtensionContext, FieldSpec, Subspace, analyze,
                        build_spread_start, check_sidon_condition,
                        companion_matrix, conjugate_code, find_sidon_subspace,
                        format_matrix, generate_orbit, grassmannian,
                        groups_conjugate, intersection_dim, list_irreducibles,
                        matrix_order, min_distance_brute, min_distance_orbit,
                        order_of_polynomial, parse_matrix, parse_poly,
                        random_invertible, row_times_mat, subspace_apply,
                        subspace_distance, vector_from_index)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
P64 = parse_poly(F2, "x^6+x+1")
CTX64 = ExtensionContext.from_modulus(P64)
DEG4 = ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]


def _pass(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def _gf64_mul(a, b):
    """Carry-less product of bit-packed elements of GF(2)[x]/(x^6+x+1)."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        b >>= 1
        a <<= 1
        if a & 0b1000000:
            a ^= 0b1000011
    return prod


@pytest.fixture(scope="module")
def generated_codes():
    """Every orbit code generated while checking criteria 1 through 6."""
    codes = []
    P = companion_matrix(P64)
    codes.append(generate_orbit(build_spread_start(3, 6, CTX64), P))
    codes.append(generate_orbit(build_spread_start(2, 6, CTX64), P))
    p5 = parse_poly(F2, "x^4+x^3+x^2+x+1")
    codes.append(generate_orbit(Subspace(parse_matrix(F2, "1000\n0011")),
                                companion_matrix(p5)))
    for text in DEG4:
        poly = parse_poly(F2, text)
        gen = companion_matrix(poly)
        for u in grassmannian(F2, 2, 4):
            codes.append(generate_orbit(u, gen))
    codes.append(generate_orbit(find_sidon_subspace(CTX64, 3), P))
    return codes


def test_criterion_01_spread_k3():
    start = build_spread_start(3, 6, CTX64)
    assert format_matrix(start.mat) == "100000\n011010\n000110"
    code = generate_orbit(start, companion_matrix(P64))
    assert len(code) == 9
    assert min_distance_brute(code) == 6
    words = list(code)
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert intersection_dim(a, b) == 0
    _pass(1, "k=3 spread: start rows, 9 codewords, distance 6, trivial intersections")


def test_criterion_02_spread_k2_cardinality_and_distance():
    start = build_spread_start(2, 6, CTX64)
    code = generate_orbit(start, companion_matrix(P64))
    assert len(code) == 21
    assert min_distance_brute(code) == 4
    _pass("2 (cardinality/distance)", "k=2 spread: 21 codewords, distance 4")


def test_criterion_02_spread_k2_start_rows():
    pinned = "100000\n010111"
    # Independent of orbitcodes: each row, read as sum_i row[i] x^i mod
    # x^6+x+1, is a field element.  The first row is 1 and the second is a
    # root of y^2+y+1, so the rows span F_4 = {0, 1, alpha^21, alpha^42}.
    one, beta = (int(row[::-1], 2) for row in pinned.split("\n"))
    assert one == 1
    assert _gf64_mul(beta, beta) ^ beta ^ 1 == 0
    code = generate_orbit(Subspace(parse_matrix(F2, pinned)), companion_matrix(P64))
    assert len(code) == 21
    assert min_distance_brute(code) == 4
    assert format_matrix(build_spread_start(2, 6, CTX64).mat) == pinned
    _pass("2 (start rows)", "k=2 spread: rows 100000;010111 span F_4, 21 codewords, distance 4")


def test_criterion_03_nonprimitive_example():
    poly = parse_poly(F2, "x^4+x^3+x^2+x+1")
    ctx = ExtensionContext.from_modulus(poly)
    u = Subspace(parse_matrix(F2, "1000\n0011"))
    report = analyze(u, ctx, verify=True)
    assert report.membership == (1, 1, 1)
    assert report.predicted_cardinality == 5
    assert report.predicted_distance == 4
    assert report.spread is True
    assert report.verification_ok
    _pass(3, "order-5 modulus: membership (1,1,1), 5 codewords, distance 4, spread")


def test_criterion_04_polynomial_orders_and_conjugacy():
    p1, p2, p3 = (parse_poly(F2, t) for t in DEG4)
    assert order_of_polynomial(p1) == 15
    assert order_of_polynomial(p2) == 15
    assert order_of_polynomial(p3) == 5
    assert groups_conjugate(p1, p2) is True
    assert groups_conjugate(p1, p3) is False
    _pass(4, "orders 15/15/5; conjugacy true/false")


def test_criterion_05_predictor_oracle_equivalence_exhaustive():
    checked = 0
    for text in DEG4:
        poly = parse_poly(F2, text)
        ctx = ExtensionContext.from_modulus(poly)
        gen = companion_matrix(poly)
        for u in grassmannian(F2, 2, 4):
            report = analyze(u, ctx)
            code = generate_orbit(u, gen)
            assert report.predicted_cardinality == len(code), (text, u)
            oracle = min_distance_brute(code) if len(code) > 1 else None
            assert report.predicted_distance == oracle, (text, u)
            checked += 1
    assert checked == 35 * 3
    _pass(5, f"predicted = brute-force on all {checked} (subspace, modulus) pairs")


def test_criterion_06_distinct_difference_instance():
    u = find_sidon_subspace(CTX64, 3)
    profile = CTX64.exponent_profile(u)
    assert check_sidon_condition(profile, 63)
    code = generate_orbit(u, companion_matrix(P64))
    assert len(code) == 63
    assert min_distance_brute(code) == 2 * 3 - 2 == 4
    _pass(6, f"search hit {format_matrix(u.mat).replace(chr(10), ';')}: 63 codewords, distance 4")


def test_criterion_07_conjugation_invariance():
    rng = random.Random(2026)
    start = build_spread_start(3, 6, CTX64)
    g = companion_matrix(P64)
    for trial in range(20):
        shift = rng.randrange(63)
        shifted = subspace_apply(start, g ** shift) if shift else start
        s = random_invertible(F2, 6, rng)
        v, h = conjugate_code(shifted, g, s)
        code = generate_orbit(v, h)
        assert len(code) == 9, trial
        assert min_distance_brute(code) == 6, trial
    _pass(7, "20 random (S, start shift) transports keep 9 codewords at distance 6")


def test_criterion_08_diagram_commutes():
    cases = ((F2, P64), (F3, parse_poly(F3, "x^3+2*x+1")))
    total = 0
    for base, modulus in cases:
        ctx = ExtensionContext.from_modulus(modulus)
        gen = companion_matrix(modulus)
        n = modulus.degree
        for i in range(base.order ** n):
            v = vector_from_index(base, n, i)
            assert ctx.phi(row_times_mat(v, gen)) == ctx.phi(v) * ctx.alpha
            total += 1
    assert total == 64 + 27
    _pass(8, "phi(v P) = phi(v) alpha for all 64 + 27 vectors")


def test_criterion_09_metric_and_base_point(generated_codes):
    subs = list(grassmannian(F2, 2, 4))
    dist = [[subspace_distance(a, b) for b in subs] for a in subs]
    n = len(subs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert dist[i][k] <= dist[i][j] + dist[j][k]
    checked = 0
    for code in generated_codes:
        if len(code) > 1:
            assert min_distance_orbit(code) == min_distance_brute(code)
            checked += 1
    _pass(9, f"triangle inequality on G(2,4)^3; orbit = brute on {checked} codes")


def test_criterion_10_matrix_vs_polynomial_order():
    checked = 0
    for field, max_deg in ((F2, 6), (F3, 3)):
        for deg in range(1, max_deg + 1):
            for f in list_irreducibles(field, deg):
                if not f.coeffs[0]:
                    continue  # f = x: order undefined, companion singular
                assert matrix_order(companion_matrix(f)) == order_of_polynomial(f)
                checked += 1
    for text in DEG4:
        g = companion_matrix(parse_poly(F2, text))
        m = matrix_order(g)
        for ell in range(1, m):
            assert matrix_order(g ** ell) == m // math.gcd(ell, m)
    _pass(10, f"order agreement on {checked} moduli; subgroup law on degree-4 companions")
