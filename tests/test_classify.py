import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohent.analytic import SuperpositionCoeffs, concurrence, maximality_residual
from cohent.classify import (
    Verdict,
    _family_terms,
    classify,
    family_checks,
)
from cohent.coherent import OverlapPair
from cohent.errors import DomainError

coeff_vals = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
x_vals = st.floats(min_value=0.05, max_value=0.95)
HALF = OverlapPair(0.5, 0.5)


def on_families(coeffs, pair, tol=1e-9):
    """family_checks of one state: (passes class (a), passes class (b))."""
    return tuple(bool(flag) for flag in family_checks(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu,
        pair.p1, pair.p2, pair.n1, pair.n2, tol))


def on_a(coeffs, x):
    return on_families(coeffs, OverlapPair(x, x))[0]


def on_b(coeffs, x):
    return on_families(coeffs, OverlapPair(x, x))[1]


def maximal_at(tag, x, free):
    """The class (a) point (1, f, -2x - f, 1) or the class (b) point
    (1, f, f, -1 - 2fx) at the common overlap x, f = free."""
    if tag == "A":
        return SuperpositionCoeffs(1.0, free, -2.0 * x - free, 1.0)
    return SuperpositionCoeffs(1.0, free, free, -1.0 - 2.0 * free * x)


def family_point(tag, pair, free):
    """A mu = 1 state on the class (a) or (b) plane at the overlaps `pair`,
    solved from the rows of classify's module docstring."""
    p1, p2, r, s = pair.p1, pair.p2, pair.n2 / pair.n1, pair.n1 / pair.n2
    if tag == "A":  # free is rho
        return SuperpositionCoeffs(1.0, -r * free - (p2 + r * p1), free,
                                   r - (p2 - r * p1) * free)
    # free is lam
    return SuperpositionCoeffs(1.0, free, s * free + (s * p2 - p1),
                               -s - (p1 + s * p2) * free)


class TestClassChecks:
    def test_class_a_symmetric(self):
        assert on_a(SuperpositionCoeffs(1, -0.5, -0.5, 1), 0.5)

    def test_class_a_one_sided(self):
        assert on_a(SuperpositionCoeffs(1, -1.0, 0, 1), 0.5)

    def test_class_a_rejects_wrong_nu(self):
        assert not on_a(SuperpositionCoeffs(1, 0, 0, -1), 0.5)

    def test_class_b_antisymmetric_any_x(self):
        for x in (0.1, 0.5, 0.9):
            assert on_b(SuperpositionCoeffs(1, 0, 0, -1), x)

    def test_class_b_reciprocal_negative(self):
        # lam = rho = -1/x gives nu + 1 = 2 = -2 lam x
        assert on_b(SuperpositionCoeffs(1, -2, -2, 1), 0.5)

    def test_class_b_reciprocal_positive(self):
        # lam = rho = 1/x gives nu + 1 = -2 = -2 lam x
        assert on_b(SuperpositionCoeffs(1, 2, 2, -3), 0.5)

    def test_domain_errors(self):
        # the overlaps are checked by OverlapPair, the tolerance by family_checks
        with pytest.raises(DomainError):
            on_a(SuperpositionCoeffs(1, 0, 0, 1), 1.5)
        with pytest.raises(DomainError):
            on_families(SuperpositionCoeffs(1, 0, 0, 1), OverlapPair(0.5, 0.5), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals, x=x_vals)
    def test_classes_disjoint(self, lam, rho, nu, x):
        # joint membership would force 2 = 2x^2, impossible inside (0, 1)
        coeffs = SuperpositionCoeffs(1, lam, rho, nu)
        assert on_families(coeffs, OverlapPair(x, x)) != (True, True)

    @settings(max_examples=200, deadline=None)
    @given(x=x_vals, free=coeff_vals)
    def test_classes_disjoint_on_manifolds(self, x, free):
        for tag in ("A", "B"):
            coeffs = maximal_at(tag, x, free)
            assert on_a(coeffs, x) != on_b(coeffs, x)

    @settings(max_examples=200, deadline=None)
    @given(p1=x_vals, p2=x_vals, free=coeff_vals)
    def test_unequal_overlaps_disjoint_on_the_planes(self, p1, p2, free):
        pair = OverlapPair(p1, p2)
        assert on_families(family_point("A", pair, free), pair) == (True, False)
        assert on_families(family_point("B", pair, free), pair) == (False, True)

    def test_completeness_near_maximal_implies_a_family(self):
        # reverse direction: whenever random or jittered points get within
        # 1e-9 of C = 1, one family condition holds at a tolerance scaled to
        # how sharply the residual pins the family (distance ~ sqrt(N^2(1-C)))
        from cohent.analytic import gram_norm_squared

        rng = np.random.default_rng(97)

        def assert_on_family(lam, rho, nu, x):
            coeffs = SuperpositionCoeffs(1, lam, rho, nu)
            pair = OverlapPair(x, x)
            c = concurrence(coeffs, pair)
            if c <= 1.0 - 1e-9:
                return 0
            slack = max(1e-6, 4.0 * math.sqrt(gram_norm_squared(coeffs, pair) * (1.0 - c)))
            res_a = abs(nu - 1.0) + abs(lam + rho + 2.0 * x)
            res_b = abs(lam - rho) + abs(nu + 1.0 + 2.0 * lam * x)
            assert min(res_a, res_b) <= slack
            return 1

        n_near = 0
        for _ in range(100_000):
            lam, rho, nu = rng.uniform(-4, 4, size=3)
            x = rng.uniform(0.05, 0.95)
            n_near += assert_on_family(lam, rho, nu, x)
        # jittered family points guarantee the conditional is exercised
        for _ in range(500):
            x = rng.uniform(0.05, 0.95)
            free = rng.uniform(-4, 4)
            tag = "A" if rng.integers(2) else "B"
            base = maximal_at(tag, x, free)
            jitter = rng.uniform(-1e-7, 1e-7, size=3)
            n_near += assert_on_family(
                base.lam + jitter[0], base.rho + jitter[1], base.nu + jitter[2], x
            )
        assert n_near >= 500


@settings(max_examples=500, deadline=None)
@given(v=st.lists(st.floats(-1e150, 1e150), min_size=4, max_size=4),
       x=st.floats(1e-6, 1.0 - 1e-6))
def test_terms_at_equal_overlaps_are_the_common_overlap_rows_bit_for_bit(v, x):
    # r = s = n / n = 1.0 exactly, so the scan's CSV and its pins cannot move
    mu, lam, rho, nu = v
    n = math.sqrt((1.0 - x) * (1.0 + x))
    (a1, a2), (b1, b2), sep = _family_terms(mu, lam, rho, nu, x, x, n, n)
    common = (nu - mu, lam + rho + 2.0 * x * mu, lam - rho, nu + mu + 2.0 * x * lam)
    assert [abs(t) for t in (a1, a2, b1, b2)] == [abs(t) for t in common]
    assert sep == mu * nu - lam * rho


class TestClassify:
    def test_separable_example(self):
        x = math.exp(-0.5)
        result = classify(SuperpositionCoeffs(1, 0.3, 0.7, 0.21), OverlapPair(x, x))
        assert result.verdict is Verdict.SEPARABLE
        assert result.concurrence == 0.0
        assert result.separability_residual <= 1e-15

    def test_class_a_skewed(self):
        result = classify(SuperpositionCoeffs(1, 0.5, -1.5, 1), HALF)
        assert result.verdict is Verdict.MAXIMAL_CLASS_A
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)
        assert result.class_a_residual <= 1e-12

    def test_class_b_reciprocal(self):
        result = classify(SuperpositionCoeffs(1, -2, -2, 1), HALF)
        assert result.verdict is Verdict.MAXIMAL_CLASS_B
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_intermediate(self):
        result = classify(SuperpositionCoeffs(1, 0.2, -0.3, 0.5), HALF)
        assert result.verdict is Verdict.INTERMEDIATE
        assert 0.0 < result.concurrence < 1.0

    def test_all_residuals_populated(self):
        result = classify(SuperpositionCoeffs(1, 0.2, -0.3, 0.5), HALF)
        assert result.class_a_residual > 0
        assert result.class_b_residual > 0
        assert result.separability_residual > 0

    def test_separable_takes_priority_at_loose_tol(self):
        result = classify(SuperpositionCoeffs(1, 0.3, 0.7, 0.21), HALF, tol=100.0)
        assert result.verdict is Verdict.SEPARABLE

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            classify(SuperpositionCoeffs(1, 0, 0, 1), OverlapPair(-0.5, -0.5))

    @pytest.mark.parametrize("coeffs", [(2, -1, -1, 2), (0, 1, -1, 0)],
                             ids=["mu=2", "mu=0"])
    def test_class_a_off_the_mu_1_gauge(self, coeffs):
        # raised DomainError: classify took only mu = 1
        result = classify(SuperpositionCoeffs(*coeffs), HALF)
        assert result.verdict is Verdict.MAXIMAL_CLASS_A
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)
        assert result.class_a_residual == 0.0

    @pytest.mark.parametrize("tag, verdict", [("A", Verdict.MAXIMAL_CLASS_A),
                                              ("B", Verdict.MAXIMAL_CLASS_B)])
    def test_unequal_overlaps_families(self, tag, verdict):
        # exited 4 in the CLI: classify took one common overlap only
        rng = np.random.default_rng(43)
        for _ in range(300):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            pair = OverlapPair(p1, p2)
            result = classify(family_point(tag, pair, rng.uniform(-3, 3)), pair)
            assert result.verdict is verdict
            assert result.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_unequal_overlaps_separable(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            lam, rho = rng.uniform(-3, 3, size=2)
            pair = OverlapPair(*rng.uniform(0.05, 0.95, size=2))
            result = classify(SuperpositionCoeffs(1, lam, rho, lam * rho), pair)
            assert result.verdict is Verdict.SEPARABLE
            assert result.concurrence == 0.0


class TestSeparabilityIff:
    def test_exact_separable_points_have_zero_concurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            lam, rho = rng.uniform(-3, 3, size=2)
            x = rng.uniform(0.05, 0.95)
            coeffs = SuperpositionCoeffs(1, lam, rho, lam * rho)
            assert concurrence(coeffs, OverlapPair(x, x)) == 0.0

    def test_near_separable_points_have_positive_concurrence(self):
        from cohent.analytic import gram_norm_squared

        rng = np.random.default_rng(12)
        for _ in range(500):
            lam, rho = rng.uniform(-2, 2, size=2)
            x = rng.uniform(0.1, 0.9)
            coeffs = SuperpositionCoeffs(1, lam, rho, lam * rho + 1e-11)
            pair = OverlapPair(x, x)
            got = concurrence(coeffs, pair)
            expected = 2e-11 * pair.n1 * pair.n2 / gram_norm_squared(coeffs, pair)
            assert got > 0.0
            assert got == pytest.approx(expected, rel=1e-3)


class TestSolveCoefficients:
    """The family points solved for x, maximal_at's (1, f, -2x - f, 1) and
    (1, f, f, -1 - 2fx)."""

    def test_class_a_example(self):
        coeffs = maximal_at("A", 0.5, -0.5)
        assert (coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu) == (1.0, -0.5, -0.5, 1.0)
        assert classify(coeffs, HALF).verdict is Verdict.MAXIMAL_CLASS_A

    def test_class_b_antisymmetric(self):
        coeffs = maximal_at("B", 0.5, 0.0)
        assert (coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu) == (1.0, 0.0, 0.0, -1.0)
        assert classify(coeffs, HALF).verdict is Verdict.MAXIMAL_CLASS_B

    def test_class_a_bell_limit_family(self):
        coeffs = maximal_at("A", 1e-8, 0.7)
        assert coeffs.rho == pytest.approx(-0.7, abs=1e-7)
        pair = OverlapPair(1e-8, 1e-8)
        assert concurrence(coeffs, pair) == pytest.approx(1.0, abs=1e-12)
        assert classify(coeffs, pair).verdict is Verdict.MAXIMAL_CLASS_A

    def test_soundness_via_concurrence_and_classify(self):
        rng = np.random.default_rng(41)
        for _ in range(1_000):
            x = rng.uniform(0.05, 0.95)
            free = rng.uniform(-4, 4)
            tag = "A" if rng.integers(2) else "B"
            coeffs = maximal_at(tag, x, free)
            assert concurrence(coeffs, OverlapPair(x, x)) > 1.0 - 1e-10
            assert maximality_residual(coeffs, x) < 1e-10
            expected = Verdict.MAXIMAL_CLASS_A if tag == "A" else Verdict.MAXIMAL_CLASS_B
            assert classify(coeffs, OverlapPair(x, x), 1e-9).verdict is expected
