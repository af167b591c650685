"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line so a verbose run reads as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from cohent import cli
from cohent.analytic import SuperpositionCoeffs, concurrence, gram_norm_squared
from cohent.catalog import example_states
from cohent.classify import (
    Verdict,
    check_class_a,
    check_class_b,
    quadratic_roots_case1,
    quadratic_roots_case2,
    solve_coefficients_for_x,
)
from cohent.coherent import CoherentConfig, OverlapPair
from cohent.oracle import build_state, oracle_concurrence
from cohent.scan import ScanConfig, run_scan


def report(n: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {n}: PASS - {message}")


def test_criterion_1_reference_state_reproduction():
    start = time.monotonic()
    states = example_states(gap_squared=1.0)
    maximal = [s for s in states if s.expected is not Verdict.SEPARABLE]
    separable = [s for s in states if s.expected is Verdict.SEPARABLE]
    assert len(maximal) == 11
    assert len(separable) == 4
    worst_analytic = worst_oracle = 0.0
    for state in maximal:
        c_analytic = concurrence(state.coeffs, OverlapPair.from_config(state.config))
        c_oracle = oracle_concurrence(state.config, state.coeffs)
        worst_analytic = max(worst_analytic, abs(c_analytic - 1.0))
        worst_oracle = max(worst_oracle, abs(c_oracle - 1.0))
        assert abs(c_analytic - 1.0) <= 1e-10
        assert abs(c_oracle - 1.0) <= 1e-8
    for state in separable:
        c_analytic = concurrence(state.coeffs, OverlapPair.from_config(state.config))
        c_oracle = oracle_concurrence(state.config, state.coeffs)
        worst_analytic = max(worst_analytic, c_analytic)
        worst_oracle = max(worst_oracle, c_oracle)
        assert c_analytic <= 1e-10
        assert c_oracle <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"11 maximal + 4 separable states reproduced "
              f"(worst analytic {worst_analytic:.2e}, worst oracle "
              f"{worst_oracle:.2e}) in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst_c = worst_norm = 0.0
    for _ in range(1000):
        while True:
            alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, size=4)
            if abs(alpha - gamma) > 1e-9 and abs(beta - delta) > 1e-9:
                break
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=3)
        config = CoherentConfig(alpha, beta, gamma, delta)
        coeffs = SuperpositionCoeffs(1.0, lam, rho, nu)
        overlaps = OverlapPair.from_config(config)
        state = build_state(config, coeffs)
        c_analytic = concurrence(coeffs, overlaps)
        c_oracle = oracle_concurrence(config, coeffs)
        worst_c = max(worst_c, abs(c_analytic - c_oracle))
        worst_norm = max(
            worst_norm,
            abs(state.norm_before_normalization**2
                - gram_norm_squared(coeffs, overlaps)),
        )
    elapsed = time.monotonic() - start
    assert worst_c < 1e-8
    assert worst_norm < 1e-8
    assert elapsed < 60.0
    report(2, f"1000 random states: max |analytic - oracle| = {worst_c:.2e}, "
              f"max norm^2 mismatch = {worst_norm:.2e}, in {elapsed:.1f}s")


def test_criterion_3_theorem_forward_direction():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for tag in ("A", "B"):
        for _ in range(1000):
            x = rng.uniform(0.05, 0.95)
            free = rng.uniform(-4.0, 4.0)
            coeffs = solve_coefficients_for_x(tag, x, free)
            c = concurrence(coeffs, OverlapPair(x, x))
            worst = max(worst, abs(c - 1.0))
            assert abs(c - 1.0) <= 1e-10
    report(3, f"1000 random points per family all reach C = 1 "
              f"(worst deviation {worst:.2e})")


def test_criterion_4_theorem_reverse_direction_empirical():
    start = time.monotonic()
    config = ScanConfig(
        lam_range=(-3.0, 3.0, 61),
        rho_range=(-3.0, 3.0, 61),
        nu_range=(-3.0, 3.0, 61),
        x_values=(0.2, 0.5, 0.8),
        concurrence_threshold=0.999,
        seed=2024,
        oracle_fraction=0.01,
    )
    outcome = run_scan(config, verify_tol=1e-8)
    elapsed = time.monotonic() - start
    # every refined state with C > 1 - 1e-10 sits on exactly one family
    assert outcome.report.passed, outcome.report.summary()
    assert outcome.report.maximal_tol == 1e-10
    assert outcome.report.n_class_a > 0
    assert outcome.report.n_class_b > 0
    for record in outcome.hits.records():
        if record.concurrence > 1.0 - 1e-10:
            on_a = check_class_a(record.coefficients(), record.x, 1e-8)
            on_b = check_class_b(record.coefficients(), record.x, 1e-8)
            assert on_a != on_b
    assert outcome.max_oracle_diff < 1e-8
    assert elapsed < 600.0
    report(4, f"61^3 x 3 grid: {outcome.n_grid_hits} hits refined onto the two "
              f"families ({outcome.report.n_class_a} class a, "
              f"{outcome.report.n_class_b} class b), none off-family, "
              f"in {elapsed:.1f}s single-threaded")


def test_criterion_5_quadratic_feasibility_analysis():
    rng = np.random.default_rng(271828)
    n_feasible_random = 0
    for _ in range(100_000):
        lam, rho, nu = rng.uniform(-4.0, 4.0, size=3)
        r1 = quadratic_roots_case1(lam, rho, nu)
        if r1.feasible_roots:
            n_feasible_random += 1
            assert abs(nu - 1.0) <= 1e-9
            assert all(abs(lam + rho + 2 * r) <= 1e-9 for r in r1.feasible_roots)
        r2 = quadratic_roots_case2(lam, rho, nu)
        if r2.feasible_roots:
            assert abs(lam - rho) <= 1e-9
            assert all(abs(nu + 1 + 2 * lam * r) <= 1e-9 for r in r2.feasible_roots)
    # continuous draws never satisfy the exact feasibility conditions
    assert n_feasible_random == 0

    # planted case 1: nu = 1 with lam + rho inside (-2, 0) is feasible with the
    # double root -(lam+rho)/2; outside, infeasible
    for _ in range(2000):
        lam = rng.uniform(-4.0, 4.0)
        s = rng.uniform(-1.999, -0.001)
        rep = quadratic_roots_case1(lam, s - lam, 1.0)
        assert len(rep.feasible_roots) == 1
        assert rep.feasible_roots[0] == pytest.approx(-s / 2.0, abs=1e-12)
        s_out = rng.choice([rng.uniform(-6.0, -2.01), rng.uniform(0.01, 6.0)])
        assert quadratic_roots_case1(lam, s_out - lam, 1.0).feasible_roots == ()

    # planted case 2: lam = rho is feasible exactly when -(1+nu)/(2 lam) lands
    # inside (0, 1)
    for _ in range(2000):
        lam = rng.uniform(-4.0, 4.0)
        if abs(lam) < 1e-2:
            continue
        x = rng.uniform(0.001, 0.999)
        rep = quadratic_roots_case2(lam, lam, -1.0 - 2.0 * lam * x)
        assert len(rep.feasible_roots) == 1
        root = rep.feasible_roots[0]
        assert abs(-1.0 - 2.0 * lam * x + 1.0 + 2.0 * lam * root) <= 1e-9
        nu_out = -1.0 + 2.0 * lam * x  # root lands at -x < 0
        assert quadratic_roots_case2(lam, lam, nu_out).feasible_roots == ()

    # the nu = 0 branch of case 1 is linear and its root is never feasible:
    # feasibility would need (1 + lam + rho)^2 < 0
    for _ in range(10_000):
        lam, rho = rng.uniform(-4.0, 4.0, size=2)
        rep = quadratic_roots_case1(lam, rho, 0.0)
        s = lam + rho
        assert rep.feasible_roots == ()
        if s != 0.0:
            assert len(rep.roots) == 1
            assert rep.roots[0] == pytest.approx(
                (1.0 + s * s) / (-2.0 * s), rel=1e-12
            )
        else:
            assert rep.roots == ()
    report(5, "10^5 random draws + planted families confirm both feasibility "
              "characterizations and the nu = 0 infeasibility")


def test_criterion_6_separability_iff():
    rng = np.random.default_rng(161803)
    for _ in range(10_000):
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=3)
        x = rng.uniform(0.05, 0.95)
        c = concurrence(SuperpositionCoeffs(1.0, lam, rho, nu), OverlapPair(x, x))
        assert (c <= 1e-12) == (abs(nu - lam * rho) <= 1e-12)
    # planted exact products: numerator cancels exactly, C = 0
    for _ in range(200):
        lam, rho = rng.uniform(-3.0, 3.0, size=2)
        x = rng.uniform(0.05, 0.95)
        c = concurrence(SuperpositionCoeffs(1.0, lam, rho, lam * rho),
                        OverlapPair(x, x))
        assert c == 0.0
    # planted near-products, conditioned so both sides of the iff are false
    for _ in range(200):
        lam, rho = rng.uniform(-0.5, 0.5, size=2)
        x = rng.uniform(0.3, 0.7)
        coeffs = SuperpositionCoeffs(1.0, lam, rho, lam * rho + 2e-11)
        c = concurrence(coeffs, OverlapPair(x, x))
        assert c > 1e-12
    report(6, "C <= 1e-12 exactly when |nu - lam rho| <= 1e-12 on 10^4 random "
              "+ 400 planted states")


def test_criterion_7_bell_limits(capsys):
    targets = {}
    for lam in (0.0, 0.5, 1.0):
        assert cli.main(["bell-limit", "--lam", repr(lam), "--x-small", "1e-8",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        scale = 1.0 / math.sqrt(2.0 * (1.0 + lam * lam))
        expect_a = [lam * scale, scale, scale, -lam * scale]
        expect_b = [lam * scale, scale, -scale, lam * scale]
        for name, expected in (("class_a", expect_a), ("class_b", expect_b)):
            got = payload[name]["amplitudes"]
            deviation = max(abs(g - e) for g, e in zip(got, expected))
            assert deviation < 1e-6
            targets[(lam, name)] = deviation
    worst = max(targets.values())
    report(7, f"both families at x = 1e-8, lam in {{0, 0.5, 1}} match the "
              f"orthogonal-basis limits (worst deviation {worst:.2e})")


def test_criterion_8_known_value_spot_checks():
    coeffs = SuperpositionCoeffs(1.0, 0.0, 0.0, 1.0)
    for x in np.arange(0.1, 0.95, 0.1):
        x = float(x)
        expected = (1.0 - x * x) / (1.0 + x * x)
        c = concurrence(coeffs, OverlapPair(x, x))
        assert abs(c - expected) <= 1e-12
    x = math.exp(-0.5)
    c_analytic = concurrence(coeffs, OverlapPair(x, x))
    config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
    c_oracle = oracle_concurrence(config, coeffs)
    assert abs(c_analytic - (1.0 - x * x) / (1.0 + x * x)) <= 1e-12
    assert abs(c_analytic - c_oracle) <= 1e-10
    report(8, "C((1,0,0,1), x) = (1-x^2)/(1+x^2) on the 0.1..0.9 grid and "
              "against the oracle at x = e^(-1/2)")


def test_criterion_9_normalization_prefactor_resolution():
    # the squared norm of the symmetric class (a) state is 2 (1 - x^2)^2,
    # not 2 (1 - x^2): asserted independently through the closed form and
    # through the brute-force state assembly
    x = math.exp(-0.5)
    coeffs = SuperpositionCoeffs(1.0, -x, -x, 1.0)
    resolved = 2.0 * (1.0 - x * x) ** 2
    rejected = 2.0 * (1.0 - x * x)
    n_sq_closed = gram_norm_squared(coeffs, OverlapPair(x, x))
    assert n_sq_closed == pytest.approx(resolved, abs=1e-12)
    assert abs(n_sq_closed - rejected) > 0.4  # clearly not the other prefactor
    config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
    state = build_state(config, coeffs)
    assert state.norm_before_normalization**2 == pytest.approx(resolved, abs=1e-12)
    report(9, f"N^2 = 2(1-x^2)^2 = {resolved:.12f} confirmed by closed form and "
              f"oracle; the 2(1-x^2) = {rejected:.12f} prefactor is excluded")
