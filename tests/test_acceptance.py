"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line so a verbose run reads as a checklist.
"""

import hashlib
import json
import math
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from cohent import cli
from cohent.analytic import SuperpositionCoeffs, concurrence, gram_norm_squared
from cohent.catalog import example_states
from cohent.classify import (
    Verdict,
    _family_terms,
    family_checks,
)
from cohent.coherent import CoherentConfig, OverlapPair, default_truncation
from cohent.oracle import build_state, oracle_concurrence, oracle_concurrences
from cohent.scan import ScanConfig, run_scan


def report(n: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {n}: PASS - {message}")


@pytest.mark.parametrize("gap_squared, digest", [
    (1.0, "7f93f63dd5dc7157c3810e6ac844064f7a4123d66d847ffb671e8525c8e55a99"),
    (2.5, "ca2925a93cbebe739460da8ceba0c2dca100d5b025bdddf327abb5fe0a05736e"),
])
def test_reference_states_are_pinned(gap_squared, digest):
    # labels, order, verdicts, coefficients and configurations, bit for bit
    states = example_states(gap_squared)
    assert hashlib.sha256(repr(states).encode()).hexdigest() == digest


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
            coeffs = (SuperpositionCoeffs(1.0, free, -2.0 * x - free, 1.0) if tag == "A"
                      else SuperpositionCoeffs(1.0, free, free, -1.0 - 2.0 * free * x))
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
    hits, family, verify = run_scan(config)
    elapsed = time.monotonic() - start
    # every raw grid hit lies inside the two-sided bound, within reach of
    # exactly one family
    assert verify["violations"] == []
    assert (verify["hits"], verify["class_a"], verify["class_b"],
            verify["ambiguous"]) == (480, 237, 243, 0)
    assert verify["worst_lower_bound_ratio"] >= 1.0
    # the hits with C > 1 - 1e-10, as the grid found them, each pass
    # exactly one family check
    maximal = hits.concurrence > 1.0 - 1e-10
    x = hits.x[maximal]
    n = np.sqrt((1.0 - x) * (1.0 + x))
    on_a, on_b = family_checks(1.0, hits.lam[maximal], hits.rho[maximal],
                               hits.nu[maximal], x, x, n, n, 1e-8)
    assert (on_a != on_b).all()
    assert (int(on_a.sum()), int(on_b.sum())) == (153, 72)
    assert (family[maximal] == np.where(on_a, 0, 1)).all()
    assert verify["max_oracle_diff"] < 1e-8
    assert elapsed < 600.0
    report(4, f"61^3 x 3 grid: all {len(hits)} raw hits inside the two-sided "
              f"bound ({verify['class_a']} near class a, {verify['class_b']} near "
              f"class b, 0 ambiguous); the {int(maximal.sum())} with "
              f"C > 1 - 1e-10 each on one family, in {elapsed:.1f}s")


# Roots this close to 0 or 1 sit on the excluded boundary of the open interval.
BOUNDARY_TOL = 1e-12


class Roots(NamedTuple):
    roots: tuple[float, ...]
    feasible_roots: tuple[float, ...]


def quadratic_roots(a, b, c, disc):
    """Real roots of a x^2 + b x + c, stably, and those inside (0, 1).

    `disc` is (b^2 - 4ac) / 4 in its factored form, so a tangent
    configuration keeps its exact double root instead of losing it to the
    rounding of the textbook subtraction; a double root is reported once.
    """
    if a == 0.0:
        roots = (-c / b,) if b != 0.0 else ()
    elif disc < 0.0:
        roots = ()
    elif disc == 0.0:
        roots = (-b / (2.0 * a),)
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(4.0 * disc), b))
        roots = (q / a, c / q if q != 0.0 else -b / (2.0 * a))
    roots = tuple(sorted(roots))
    return Roots(roots, tuple(r for r in roots if BOUNDARY_TOL < r < 1.0 - BOUNDARY_TOL))


def case1_roots(lam, rho, nu):
    """Roots of 4 nu x^2 + 2(lam+rho)(1+nu) x + (1-nu)^2 + (lam+rho)^2 at
    mu = 1, which test_symbolic.py proves equal to (a + d)^2 + (b - c)^2."""
    s = lam + rho
    return quadratic_roots(4.0 * nu, 2.0 * s * (1.0 + nu), (1.0 - nu) ** 2 + s * s,
                           (1.0 - nu) ** 2 * (s * s - 4.0 * nu))


def case2_roots(lam, rho, nu):
    """Roots of 4 lam rho x^2 + 2(lam+rho)(1+nu) x + (1+nu)^2 + (lam-rho)^2 at
    mu = 1, which test_symbolic.py proves equal to (a - d)^2 + (b + c)^2."""
    s = lam + rho
    return quadratic_roots(4.0 * lam * rho, 2.0 * s * (1.0 + nu),
                           (1.0 + nu) ** 2 + (lam - rho) ** 2,
                           (lam - rho) ** 2 * ((1.0 + nu) ** 2 - 4.0 * lam * rho))


def test_criterion_5_quadratic_feasibility_analysis():
    rng = np.random.default_rng(271828)
    n_feasible_random = 0
    for _ in range(100_000):
        lam, rho, nu = rng.uniform(-4.0, 4.0, size=3)
        r1 = case1_roots(lam, rho, nu)
        if r1.feasible_roots:
            n_feasible_random += 1
            assert abs(nu - 1.0) <= 1e-9
            assert all(abs(lam + rho + 2 * r) <= 1e-9 for r in r1.feasible_roots)
        r2 = case2_roots(lam, rho, nu)
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
        rep = case1_roots(lam, s - lam, 1.0)
        assert len(rep.feasible_roots) == 1
        assert rep.feasible_roots[0] == pytest.approx(-s / 2.0, abs=1e-12)
        s_out = rng.choice([rng.uniform(-6.0, -2.01), rng.uniform(0.01, 6.0)])
        assert case1_roots(lam, s_out - lam, 1.0).feasible_roots == ()

    # planted case 2: lam = rho is feasible exactly when -(1+nu)/(2 lam) lands
    # inside (0, 1)
    for _ in range(2000):
        lam = rng.uniform(-4.0, 4.0)
        if abs(lam) < 1e-2:
            continue
        x = rng.uniform(0.001, 0.999)
        rep = case2_roots(lam, lam, -1.0 - 2.0 * lam * x)
        assert len(rep.feasible_roots) == 1
        root = rep.feasible_roots[0]
        assert abs(-1.0 - 2.0 * lam * x + 1.0 + 2.0 * lam * root) <= 1e-9
        nu_out = -1.0 + 2.0 * lam * x  # root lands at -x < 0
        assert case2_roots(lam, lam, nu_out).feasible_roots == ()

    # the nu = 0 branch of case 1 is linear and its root is never feasible:
    # feasibility would need (1 + lam + rho)^2 < 0
    for _ in range(10_000):
        lam, rho = rng.uniform(-4.0, 4.0, size=2)
        rep = case1_roots(lam, rho, 0.0)
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


def test_criterion_10_two_sided_bound_against_the_oracle():
    # With (a + d, b - c) = M_a P_a v, (a - d, b + c) = M_b P_b v and the
    # squared singular values of M_a and M_b 1 +- p1 and 1 +- p2
    # (tests/test_symbolic.py),
    #     min_f (1 - p_f) |P_f v|^2 <= N^2 (1 - C) <= min_f (1 + p_f) |P_f v|^2.
    # N^2 and C come from the Fock oracle, not the closed form; states are
    # drawn on each family, 1e-1 to 1e-6 from it, and far from both, at
    # p1 = p2 and p1 != p2.
    #
    # The band, from the oracle's operations at truncation T, with
    # S = sum |v| and delta = T^2 eps (at least the relative error of the
    # T^2-term dot product behind N^2, of each Fock entry's cumulative
    # product and renormalization, and of the SVD, and above the discarded
    # tail mass of 1e-16):
    # - N^2 - 2 s1 s2 takes delta N^2 from the norm and 2 (s1 + s2) delta N
    #   <= 2 sqrt 2 delta N^2 from the singular values;
    # - assembling the joint matrix errs it by at most 4 eps S <= delta S in
    #   the Frobenius norm, which moves N^2 - 2 s1 s2 by (2 + 2 sqrt 2) N delta S;
    # - the computed Fock vectors are exact for overlaps and coefficient
    #   scales off by delta; (a + d, b - c) and (a - d, b + c) have slopes up
    #   to 2 S (1 + 1 / n) in them, so the square moves by
    #   4 sqrt(N^2 (1 - C)) S (1 + 1 / min n_i) delta.
    # Each family term is a sum of at most six rounded operations on
    # rounded p_i, n_i and r or s, so it errs by at most 8 eps (1 + r) S
    # (class a) or 8 eps (1 + s) S (class b), and |P_f v| by sqrt 2 times that.
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(1729)
    drawn = {"on a family": 0, "near a family": 0, "far from both": 0}
    for trial in range(840):
        # every (class a, class b, far) x (p1 = p2, p1 != p2) x distance
        kind, equal, power = trial % 3, trial // 3 % 2, trial // 6 % 7
        g1, g2 = rng.uniform(0.3, 2.0, size=2)
        config = CoherentConfig(0.0, 0.0, g1, g1 if equal else g2)
        pair = OverlapPair.from_config(config)
        ps, ns = (pair.p1, pair.p2), (pair.n1, pair.n2)
        ratios = (pair.n2 / pair.n1, pair.n1 / pair.n2)
        if kind == 2:
            v = rng.uniform(-2.0, 2.0, size=4)
            drawn["far from both"] += 1
        else:
            # a point of ker P_f, from the kernel's own rows
            rows = np.array(_family_terms(*np.eye(4), *ps, *ns)[kind])
            v = np.linalg.svd(rows)[2][2:].T @ rng.normal(size=2)
            v /= abs(v).max()
            distance = 10.0 ** -power if power else 0.0
            u = rng.normal(size=4)
            v += distance * u / np.linalg.norm(u)
            drawn["on a family" if distance == 0.0 else "near a family"] += 1
        coeffs = SuperpositionCoeffs(*v)
        (c,), (norm,) = oracle_concurrences(*config.half_gaps, *v)
        n_sq = norm ** 2
        residual = n_sq * (1.0 - c)
        size = float(abs(v).sum())
        delta = default_truncation(config.half_gap) ** 2 * eps
        band = delta * ((1.0 + 2.0 * math.sqrt(2.0)) * n_sq
                        + (2.0 + 2.0 * math.sqrt(2.0)) * math.sqrt(n_sq) * size
                        + 4.0 * math.sqrt(residual) * size * (1.0 + 1.0 / min(ns)))
        lower = upper = math.inf
        for terms, p, ratio in zip(_family_terms(*v, *ps, *ns)[:2], ps, ratios):
            length = math.hypot(*terms)
            slack = math.sqrt(2.0) * 8.0 * eps * (1.0 + ratio) * size
            lower = min(lower, (1.0 - p) * max(length - slack, 0.0) ** 2)
            upper = min(upper, (1.0 + p) * (length + slack) ** 2)
        assert lower - band <= residual <= upper + band, (trial, v, config)
    report(10, f"min_f (1 - p_f)|P_f v|^2 <= N^2 (1 - C) <= min_f (1 + p_f)|P_f v|^2 "
               f"against the Fock oracle on {drawn}")
