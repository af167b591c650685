import math

import numpy as np
import pytest

from cohent.analytic import SuperpositionCoeffs, concurrence, gram_norm_squared
from cohent.coherent import CoherentConfig, OverlapPair, default_truncation
from cohent.errors import ConsistencyError, DomainError, TruncationError
from cohent.oracle import (
    ProductStateVector,
    build_state,
    oracle_concurrence,
    schmidt_concurrence,
)

HALF_GAP = math.sqrt(2.0 * math.log(2.0))  # overlap exactly 1/2


def reduced_density(state):
    """The first mode's reduced density matrix: psi psi^T."""
    psi = state.matrix()
    return psi @ psi.T


def purity_concurrence(state):
    """sqrt(2 (1 - Tr rho^2)): the Schmidt route's independent reference."""
    m = reduced_density(state)
    return math.sqrt(max(0.0, 2.0 * (1.0 - float(np.einsum("ij,ij->", m, m)))))


def schmidt_state(weights):
    """A normalized state whose Schmidt weights are `weights`."""
    return ProductStateVector(np.diag(np.sqrt(weights)).ravel(), len(weights), 1.0)


def random_state(rng):
    while True:
        alpha, beta, gamma, delta = rng.uniform(-2, 2, size=4)
        if abs(alpha - gamma) > 1e-9 and abs(beta - delta) > 1e-9:
            break
    config = CoherentConfig(alpha, beta, gamma, delta)
    lam, rho, nu = rng.uniform(-3, 3, size=3)
    return config, SuperpositionCoeffs(1.0, lam, rho, nu)


class TestBuildState:
    def test_single_term_product(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 0), truncation=32)
        assert state.norm_before_normalization == pytest.approx(1.0, abs=1e-12)
        f0 = np.zeros(32)
        f0[0] = 1.0
        np.testing.assert_allclose(state.matrix(), np.outer(f0, f0), atol=1e-12)

    def test_normalized_after_construction(self):
        config = CoherentConfig(0.0, 0.3, 1.0, 1.3)
        state = build_state(config, SuperpositionCoeffs(1, -0.4, 0.2, 0.9))
        assert np.dot(state.coefficients, state.coefficients) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_prenorm_bell_like(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 1))
        assert state.norm_before_normalization**2 == pytest.approx(
            2.0 + 2.0 * math.exp(-1.0), abs=1e-12
        )

    def test_prenorm_matches_gram_example(self):
        config = CoherentConfig(0.0, 0.0, HALF_GAP, HALF_GAP)
        state = build_state(config, SuperpositionCoeffs(1, -0.5, -0.5, 1))
        assert state.norm_before_normalization**2 == pytest.approx(1.125, abs=1e-12)

    def test_prenorm_matches_gram_on_random_ensemble(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            config, coeffs = random_state(rng)
            state = build_state(config, coeffs)
            n_sq = gram_norm_squared(coeffs, OverlapPair.from_config(config))
            assert state.norm_before_normalization**2 == pytest.approx(n_sq, abs=1e-8)

    @pytest.mark.parametrize("coeffs", [
        (1.0, 1e300, 1e300, 1.0),
        (1e160, 1e160, 1e160, -1e160),
        (1e308, 1e308, 1e308, -1e308),  # the coefficient sum overflows
        (1e-300, 0.0, 0.0, -1e-300),
    ])
    def test_out_of_range_coefficients_match_the_closed_form(self, coeffs):
        # The joint norm overflowed past about 1e154, so the state came out
        # all zeros (C = 0); at 1e308, and at 1e-300 where its squares
        # underflow, it raised DegenerateStateError.
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        coeffs = SuperpositionCoeffs(*coeffs)
        state = build_state(config, coeffs)
        assert np.dot(state.coefficients, state.coefficients) == pytest.approx(
            1.0, abs=1e-12)
        c = concurrence(coeffs, OverlapPair.from_config(config))
        assert c > 0.4
        assert abs(schmidt_concurrence(state) - c) <= 1e-12

    def test_small_coefficients_are_not_degenerate(self):
        # A norm^2 of 2e-20 is not rounding noise when the coefficients are
        # 1e-10; an absolute limit of 1e-14 rejected this state.
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        small = SuperpositionCoeffs(1e-10, 0.0, 0.0, -1e-10)
        c = oracle_concurrence(config, small)
        assert c == pytest.approx(
            oracle_concurrence(config, SuperpositionCoeffs(1, 0, 0, -1)), abs=1e-15)

    def test_truncation_cap(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            build_state(config, SuperpositionCoeffs(1, 0, 0, 1), truncation=512)

    def test_inadequate_truncation_propagates(self):
        config = CoherentConfig(0.0, 0.0, 3.0, 3.0)
        with pytest.raises(TruncationError):
            build_state(config, SuperpositionCoeffs(1, 0, 0, 1), truncation=8)


class TestReducedDensity:
    def test_product_state_is_rank_one_projector(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 0), truncation=24)
        rho = reduced_density(state)
        np.testing.assert_allclose(rho, rho.T, atol=1e-14)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(eigenvalues[:-1]) < 1e-12)

    def test_embedded_bell_pair(self):
        psi = np.zeros((4, 4))
        psi[0, 0] = psi[1, 1] = 1.0 / math.sqrt(2.0)
        state = ProductStateVector(psi.ravel(), 4, 1.0)
        rho = reduced_density(state)
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0, 0]), atol=1e-15)

    def test_symmetry_trace_and_positivity_random(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            config, coeffs = random_state(rng)
            rho = reduced_density(build_state(config, coeffs))
            np.testing.assert_allclose(rho, rho.T, atol=1e-12)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
            eigenvalues = np.linalg.eigvalsh(rho)
            assert eigenvalues[0] > -1e-10
            # Schmidt rank <= 2: third-largest eigenvalue is numerically zero
            assert eigenvalues[-3] < 1e-9


class TestSchmidtConcurrence:
    def test_product_state_is_zero(self):
        assert schmidt_concurrence(schmidt_state([1.0, 0.0, 0.0])) == 0.0

    def test_embedded_bell_pair(self):
        state = schmidt_state([0.5, 0.5, 0.0, 0.0])
        assert schmidt_concurrence(state) == pytest.approx(1.0, abs=1e-15)

    def test_skewed_spectrum(self):
        assert schmidt_concurrence(schmidt_state([0.9, 0.1])) == pytest.approx(
            0.6, abs=1e-15)

    def test_rejects_rank_three(self):
        with pytest.raises(ConsistencyError, match="third Schmidt weight"):
            schmidt_concurrence(schmidt_state([0.5, 0.3, 0.2]))


class TestPurityConcurrence:
    def test_balanced_bell(self):
        state = schmidt_state([0.5, 0.5])
        assert purity_concurrence(state) == pytest.approx(1.0, abs=1e-15)
        assert schmidt_concurrence(state) == pytest.approx(1.0, abs=1e-15)

    def test_purity_identity_for_bell_like_state(self):
        # (1,0,0,1) at p = e^{-1/2}: C = (1 - e^-1)/(1 + e^-1), Tr rho^2 = 1 - C^2/2
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 1))
        m = reduced_density(state)
        purity = float(np.einsum("ij,ij->", m, m))
        c = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
        assert purity == pytest.approx(1.0 - c * c / 2.0, abs=1e-12)
        assert schmidt_concurrence(state) == pytest.approx(c, abs=1e-12)


class TestOracleConcurrence:
    def test_antisymmetric_state_maximal(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        c = oracle_concurrence(config, SuperpositionCoeffs(1, 0, 0, -1))
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_separable_state_zero(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        c = oracle_concurrence(config, SuperpositionCoeffs(1, 0.3, 0.7, 0.21))
        assert c == pytest.approx(0.0, abs=1e-8)

    def test_class_a_at_half_overlap(self):
        config = CoherentConfig(0.0, 0.0, HALF_GAP, HALF_GAP)
        c = oracle_concurrence(config, SuperpositionCoeffs(1, -0.5, -0.5, 1))
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_agrees_with_purity_route_away_from_zero(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            config, coeffs = random_state(rng)
            state = build_state(config, coeffs)
            c_schmidt = schmidt_concurrence(state)
            c_purity = purity_concurrence(state)
            # the purity subtraction bottoms out around 1e-7 noise near zero
            assert abs(c_schmidt - c_purity) < 2e-7

    def test_matches_analytic_on_random_ensemble(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(200):
            config, coeffs = random_state(rng)
            c_oracle = oracle_concurrence(config, coeffs)
            c_analytic = concurrence(coeffs, OverlapPair.from_config(config))
            worst = max(worst, abs(c_oracle - c_analytic))
        assert worst < 1e-8

    def test_truncation_convergence(self):
        # Doubling the default cutoff adds only rounding.
        rng = np.random.default_rng(56)
        for _ in range(200):
            config, coeffs = random_state(rng)
            base = default_truncation(config.max_amplitude)
            c1 = oracle_concurrence(config, coeffs, truncation=base)
            c2 = oracle_concurrence(config, coeffs, truncation=2 * base)
            assert abs(c1 - c2) < 1e-14
