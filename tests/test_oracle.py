import collections
import dataclasses
import math

import numpy as np
import pytest

from cohent.analytic import SuperpositionCoeffs, concurrence, gram_norm_squared
from cohent.catalog import example_states
from cohent.coherent import CoherentConfig, OverlapPair, default_truncation, fock_vector
from cohent.coherent import fock_vectors
from cohent import oracle
from cohent.errors import ConsistencyError, DegenerateStateError, indexed
from faults import failing_build
from cohent.oracle import (
    ProductStateVector,
    build_state,
    build_states,
    oracle_concurrence,
    oracle_concurrences,
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


def spectrum(state):
    """The state's descending Schmidt spectrum, from its own SVD."""
    return np.linalg.svd(state.matrix(), compute_uv=False)


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
        # |alpha, beta> = |0, 0> is built centered, at -h1 and -h2 = -0.5.
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 0))
        assert state.norm_before_normalization == pytest.approx(1.0, abs=1e-12)
        f = fock_vector(-0.5, state.truncation)
        np.testing.assert_allclose(state.matrix(), np.outer(f, f), atol=1e-12)

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
        assert abs(schmidt_concurrence(spectrum(state)) - c) <= 1e-12

    def test_small_coefficients_are_not_degenerate(self):
        # A norm^2 of 2e-20 is not rounding noise when the coefficients are
        # 1e-10; an absolute limit of 1e-14 rejected this state.
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        small = SuperpositionCoeffs(1e-10, 0.0, 0.0, -1e-10)
        c = oracle_concurrence(config, small)
        assert c == pytest.approx(
            oracle_concurrence(config, SuperpositionCoeffs(1, 0, 0, -1)), abs=1e-15)


class TestReducedDensity:
    def test_product_state_is_rank_one_projector(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 0))
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
        assert schmidt_concurrence(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_embedded_bell_pair(self):
        svals = np.sqrt([0.5, 0.5, 0.0, 0.0])
        assert schmidt_concurrence(svals) == pytest.approx(1.0, abs=1e-15)

    def test_skewed_spectrum(self):
        c = schmidt_concurrence(np.sqrt([0.9, 0.1, 0.0]))
        assert type(c) is float
        assert c == pytest.approx(0.6, abs=1e-15)

    def test_rejects_rank_three(self):
        with pytest.raises(ConsistencyError, match="third Schmidt weight"):
            schmidt_concurrence(np.sqrt([0.5, 0.3, 0.2]))


def columns(jobs):
    """The six oracle columns (h1, h2, mu, lam, rho, nu) of (config, coeffs)
    jobs."""
    return [np.array(column, dtype=float) for column in zip(*(
        (*config.half_gaps, coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu)
        for config, coeffs in jobs))]


class TestSchmidtConcurrences:
    def test_stacked_equals_one_state_bit_for_bit(self):
        # Each stack's one array of states and one stacked SVD give every C
        # and norm as one state's np.outer build and own SVD give them.
        rng = np.random.default_rng(58)
        jobs = [random_state(rng) for _ in range(1100)]
        # Cat and generic configurations share the half-gap 1, so cutoff 19.
        examples = [(state.config, state.coeffs) for state in example_states(4.0)]
        assert {default_truncation(config.half_gap) for config, _ in examples} == {19}
        jobs += examples
        cutoffs = collections.Counter(
            default_truncation(config.half_gap) for config, _ in jobs)
        # Some cutoffs take more than one stack.
        assert len(cutoffs) >= 15 and max(cutoffs.values()) > oracle._STACK
        expected = []
        for config, coeffs in jobs:
            coefficients, norm = outer_reference(config, coeffs)
            t = default_truncation(config.half_gap)
            svals = np.linalg.svd(coefficients.reshape(t, t), compute_uv=False)
            expected.append((schmidt_concurrence(svals), norm))
        c, norm = oracle_concurrences(*columns(jobs))
        assert list(zip(c.tolist(), norm.tolist())) == expected

    def test_fock_rows_are_built_once_per_half_gap(self, monkeypatch):
        # A stack at one overlap needs one Fock row for each sign of its
        # half-gap, and the states come out as their one-state builds.
        # Half-gaps are told apart by their bits, so -0.0 gets its own row.
        seen = []

        def recording(amplitudes, truncation):
            seen.append(len(amplitudes))
            return fock_vectors(amplitudes, truncation)

        rng = np.random.default_rng(61)
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=(3, 100))
        h = np.where(np.arange(100) % 2, 0.75, -0.75)
        expected = [oracle_concurrence(CoherentConfig(0.0, 0.0, 2.0 * a, 2.0 * a),
                                       SuperpositionCoeffs(1.0, *v))
                    for a, *v in zip(h.tolist(), lam, rho, nu)]
        monkeypatch.setattr(oracle, "fock_vectors", recording)
        c, _ = oracle_concurrences(h, h, 1.0, lam, rho, nu)
        assert c.tolist() == expected
        # Each stack holds both signs of 0.75, however many states it has.
        assert seen == [2] * -(-100 // oracle._STACK)
        seen.clear()
        coeffs = ([1.0] * 2, [0.3] * 2, [-0.2] * 2, [0.5] * 2)
        states, _, _ = build_states([0.0, -0.0], [0.5] * 2, *coeffs, 14)
        assert seen == [3]
        for i, h1 in enumerate([0.0, -0.0]):
            alone, _, _ = build_states([h1], [0.5], *(v[:1] for v in coeffs), 14)
            assert states[i].tobytes() == alone[0].tobytes()

    def test_rank_three_state_raises_among_fine_stack_mates(self, monkeypatch):
        # Hand-made states, whose mu picks their Schmidt weights: the
        # rank-three one is the second of the stack.
        fine, escaped = [0.6, 0.4, 0.0], [0.5, 0.3, 0.2]
        monkeypatch.setattr(oracle, "build_states", lambda h1, h2, mu, *_: (
            np.stack([np.diag(np.sqrt(escaped if m else fine)) for m in mu]),
            np.ones(len(mu)), None))
        c, _ = oracle_concurrences(0.5, 0.5, [0.0, 0.0], 0.0, 0.0, 0.0)
        assert c.tolist() == [schmidt_concurrence(np.sqrt(fine))] * 2
        with pytest.raises(ConsistencyError, match="third Schmidt weight") as raised:
            oracle_concurrences(0.5, 0.5, [0.0, 1.0, 0.0], 0.0, 0.0, 0.0)
        assert raised.value.index == 1

    def test_states_before_a_failing_build_are_checked_first(self, monkeypatch):
        # Every state shares one cutoff; the third state of its second stack
        # fails to build, and the error is indexed by it.  When the state
        # before it, in its stack, fails the Schmidt check, that error is
        # raised instead.
        failing = oracle._STACK + 2
        rng = np.random.default_rng(59)
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=(3, 2 * oracle._STACK + 5))
        monkeypatch.setattr(oracle, "build_states",
                            failing_build([lam[failing]], DegenerateStateError))
        with pytest.raises(DegenerateStateError, match="^check failed$") as raised:
            oracle_concurrences(0.5, 0.5, 1.0, lam, rho, nu)
        assert raised.value.index == failing

        real = oracle.schmidt_concurrences

        def schmidt(svals):
            # The failing state's stack is cut to the two states before it.
            if len(svals) == 2:
                raise indexed(ConsistencyError("rank check failed"), 1)
            return real(svals)

        monkeypatch.setattr(oracle, "schmidt_concurrences", schmidt)
        with pytest.raises(ConsistencyError, match="^rank check failed$") as raised:
            oracle_concurrences(0.5, 0.5, 1.0, lam, rho, nu)
        assert raised.value.index == failing - 1

    def test_the_earliest_failing_state_is_named_across_cutoffs(self, monkeypatch):
        # Cutoffs are taken in ascending order, so the later state (index 3,
        # cutoff 10) fails before the earlier one (index 1, cutoff 14) is
        # built; the error names the earlier one.
        calls = []
        monkeypatch.setattr(oracle, "build_states", failing_build(
            [-0.25, -0.75], DegenerateStateError, calls))
        h = [0.5, 0.5, 1e-9, 1e-9, 0.5]
        lam = [0.1, -0.25, 0.1, -0.75, 0.1]
        with pytest.raises(DegenerateStateError, match="^check failed$") as raised:
            oracle_concurrences(h, h, 1.0, lam, 0.2, 0.3)
        assert calls == [10, 14]
        assert raised.value.index == 1

    def test_degenerate_job_raises_after_earlier_jobs_of_another_cutoff(self):
        # Half-gaps 0.5 take cutoff 14; the degenerate job, whose pairs
        # differ by 2e-9, takes cutoff 10, as the job after it does.
        wide = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        narrow = CoherentConfig(0.0, 0.0, 2e-9, 2e-9)
        fine = SuperpositionCoeffs(1.0, 0.3, -0.2, 0.5)
        jobs = [(wide, fine), (wide, SuperpositionCoeffs(1.0, 0.0, 0.0, -1.0)),
                (narrow, SuperpositionCoeffs(1.0, -1.0, -1.0, 1.0)),
                (wide, fine), (narrow, fine)]
        assert [default_truncation(config.half_gap)
                for config, _ in jobs] == [14, 14, 10, 14, 10]
        oracle_concurrences(*columns(jobs[:2]))
        with pytest.raises(DegenerateStateError, match="^joint state norm = ") as raised:
            oracle_concurrences(*columns(jobs))
        assert raised.value.index == 2

    def test_empty_jobs_yield_nothing(self):
        c, norm = oracle_concurrences([], [], [], [], [], [])
        assert c.shape == norm.shape == (0,)


class TestPurityConcurrence:
    def test_balanced_bell(self):
        state = schmidt_state([0.5, 0.5, 0.0])
        assert purity_concurrence(state) == pytest.approx(1.0, abs=1e-15)
        assert schmidt_concurrence(spectrum(state)) == pytest.approx(1.0, abs=1e-15)

    def test_purity_identity_for_bell_like_state(self):
        # (1,0,0,1) at p = e^{-1/2}: C = (1 - e^-1)/(1 + e^-1), Tr rho^2 = 1 - C^2/2
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        state = build_state(config, SuperpositionCoeffs(1, 0, 0, 1))
        m = reduced_density(state)
        purity = float(np.einsum("ij,ij->", m, m))
        c = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
        assert purity == pytest.approx(1.0 - c * c / 2.0, abs=1e-12)
        assert schmidt_concurrence(spectrum(state)) == pytest.approx(c, abs=1e-12)


class TestOracleConcurrence:
    def test_antisymmetric_state_maximal(self):
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)
        c = oracle_concurrence(config, SuperpositionCoeffs(1, 0, 0, -1))
        assert type(c) is float
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
            c_schmidt = schmidt_concurrence(spectrum(state))
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
        # Doubling the derived cutoff adds only rounding.
        rng = np.random.default_rng(56)
        for _ in range(200):
            config, coeffs = random_state(rng)
            t = 2 * default_truncation(config.half_gap)
            coefficients, _ = outer_reference(config, coeffs, t)
            s = np.linalg.svd(coefficients.reshape(t, t), compute_uv=False)
            assert abs(oracle_concurrence(config, coeffs) - 2.0 * s[0] * s[1]) < 1e-14


def outer_reference(config, coeffs, t=None):
    """build_state's coefficients and norm, assembled with np.outer and
    np.linalg.norm from one fock_vector per amplitude of the centered modes,
    -+h1 and -+h2, at the cutoff t (by default build_state's own)."""
    if t is None:
        t = default_truncation(config.half_gap)
    h1, h2 = (config.gamma - config.alpha) * 0.5, (config.delta - config.beta) * 0.5
    f_alpha, f_beta, f_gamma, f_delta = (fock_vector(a, t) for a in (-h1, -h2, h1, h2))
    psi = np.outer(f_alpha, coeffs.mu * f_beta + coeffs.lam * f_delta)
    psi += np.outer(f_gamma, coeffs.rho * f_beta + coeffs.nu * f_delta)
    norm = float(np.linalg.norm(psi))
    return (psi / norm).ravel(), norm


def test_build_state_matches_the_outer_product_reference():
    # Broadcasting and the dot-product norm leave every coefficient and the
    # norm bit for bit as np.outer and np.linalg.norm give them.
    rng = np.random.default_rng(57)
    for _ in range(200):
        config, coeffs = random_state(rng)
        state = build_state(config, coeffs)
        coefficients, norm = outer_reference(config, coeffs)
        np.testing.assert_array_equal(state.coefficients, coefficients)
        assert state.norm_before_normalization == norm


def test_the_cutoff_depends_only_on_the_gaps():
    # Both configurations have gaps 1 and 1, so both are built at T(0.5) =
    # 14 with the same bits; the largest |amplitude| gave T(7) = 121.
    coeffs = SuperpositionCoeffs(1.0, 0.3, -0.2, 0.5)
    near = build_state(CoherentConfig(0.0, 0.0, 1.0, 1.0), coeffs)
    far = build_state(CoherentConfig(6.0, -7.0, 7.0, -6.0), coeffs)
    assert near.truncation == far.truncation == 14
    assert far.coefficients.tobytes() == near.coefficients.tobytes()
    assert far.norm_before_normalization == near.norm_before_normalization


def test_a_common_shift_leaves_the_concurrence():
    # D(-m)|a> = |a - m> is a local unitary, so shifting all four amplitudes
    # by one real m leaves C.  On a 2^-40 grid, with |a + m| < 2^7, the
    # shifted sums and so their gaps are exact, and C and the norm come out
    # the same bits.
    def on_grid(a):
        return math.ldexp(round(math.ldexp(a, 40)), -40)

    rng = np.random.default_rng(60)
    jobs, shifted = [], []
    for _ in range(200):
        config, coeffs = random_state(rng)
        config = CoherentConfig(*map(on_grid, dataclasses.astuple(config)))
        m = on_grid(rng.uniform(-100.0, 100.0))
        jobs.append((config, coeffs))
        shifted.append((CoherentConfig(*(a + m for a in dataclasses.astuple(config))),
                        coeffs))
    assert np.array_equal(oracle_concurrences(*columns(shifted)),
                          oracle_concurrences(*columns(jobs)))
