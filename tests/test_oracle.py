import collections
import dataclasses
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from cohent.analytic import SuperpositionCoeffs, _unit_ray, concurrence, gram_norm_squared
from cohent.catalog import example_states
from cohent.classify import Verdict
from cohent.coherent import MAX_AMPLITUDE, MAX_TRUNCATION, CoherentConfig, OverlapPair
from cohent.coherent import default_truncation, fock_vector, fock_vectors, half_gaps
from cohent import oracle, scan
from cohent.errors import ConsistencyError, DomainError, indexed
from faults import failing_schmidt, spectrum_of
from cohent.oracle import (
    ProductStateVector,
    build_state,
    mode_cutoffs,
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
    return ProductStateVector(np.diag(np.sqrt(weights)).ravel(), (len(weights),) * 2, 1.0)


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
        state = ProductStateVector(psi.ravel(), (4, 4), 1.0)
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
        # and norm as one state's np.outer build, taken tall side first, and
        # its own SVD give them.
        rng = np.random.default_rng(58)
        jobs = [random_state(rng) for _ in range(1100)]
        # Cat and generic configurations share the half-gap 1, so the shape
        # (19, 19).
        examples = [(state.config, state.coeffs) for state in example_states(4.0)]
        assert {shape_of(config) for config, _ in examples} == {(19, 19)}
        jobs += examples
        # States whose half-gaps are at most 0.25 share the smallest sweep
        # shape, (12, 12), and 250 of them take two stacks.
        for _ in range(250):
            config, coeffs = random_state(rng)
            g1, g2 = rng.uniform(0.01, 0.5, size=2) * rng.choice([-1.0, 1.0], size=2)
            jobs.append((dataclasses.replace(config, gamma=config.alpha + g1,
                                             delta=config.beta + g2), coeffs))
        shapes = collections.Counter(shape_of(config) for config, _ in jobs)
        # Most shapes are not square, and some take more than one stack.
        assert len(shapes) >= 40 and shapes[12, 12] > oracle._stack_size(12, 12)
        assert sum(t1 != t2 for t1, t2 in shapes) > len(shapes) // 2
        expected = [one_state_reference(config, coeffs) for config, coeffs in jobs]
        c, norm = oracle_concurrences(*columns(jobs))
        assert list(zip(c.tolist(), norm.tolist())) == expected

    def test_fock_rows_are_built_once_per_half_gap(self, monkeypatch):
        # A call at one overlap needs one Fock row for each sign of its
        # half-gap, in one fock_vectors call however many stacks it takes,
        # and the states come out as their one-state builds.
        seen, built = [], []

        def recording(amplitudes, truncation):
            seen.append((len(amplitudes), truncation))
            return fock_vectors(amplitudes, truncation)

        real = oracle.joint_states

        def joint(*args):
            psi = real(*args)
            built.append(psi.copy())
            return psi

        rng = np.random.default_rng(61)
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=(3, 250))
        h = np.where(np.arange(250) % 2, 0.75, -0.75)
        expected = [oracle_concurrence(CoherentConfig(0.0, 0.0, 2.0 * a, 2.0 * a),
                                       SuperpositionCoeffs(1.0, *v))
                    for a, *v in zip(h.tolist(), lam, rho, nu)]
        monkeypatch.setattr(oracle, "fock_vectors", recording)
        monkeypatch.setattr(oracle, "joint_states", joint)
        c, _ = oracle_concurrences(h, h, 1.0, lam, rho, nu)
        assert c.tolist() == expected
        assert seen == [(2, 17)] and len(built) == -(-250 // oracle._stack_size(17, 17)) == 3
        # One fock_vectors call per cutoff, on its distinct half-gaps: mode
        # 1's T(0.25) = 12 expands -0.1 and 0.1, mode 2's T(0.5) = 14 expands
        # 0.5.
        seen.clear()
        built.clear()
        oracle_concurrences([0.1, -0.1], 0.5, 1.0, 0.3, -0.2, 0.5)
        assert seen == [(2, 12), (1, 14)]
        pair = built.pop()
        for i, h1 in enumerate([0.1, -0.1]):
            oracle_concurrences(h1, 0.5, 1.0, 0.3, -0.2, 0.5)
            assert built.pop()[0].tobytes() == pair[i].tobytes()

    def test_stacks_stay_within_the_byte_budget(self, monkeypatch):
        # Sweep states and six states at the half-gap cap, T(8) = 145 on both
        # modes, in one call: every stack's joint matrices fit in
        # _STACK_BYTES, and a cap state, 0.17 MB on its own, comes alone.
        stacks = []
        real = oracle.joint_states

        def recording(f_gamma, f_delta, *rest):
            stacks.append((len(f_gamma), f_gamma.shape[1], f_delta.shape[1]))
            return real(f_gamma, f_delta, *rest)

        monkeypatch.setattr(oracle, "joint_states", recording)
        rng = np.random.default_rng(62)
        h = rng.uniform(-2.0, 2.0, size=(2, 600))
        h[:, ::100] = [[MAX_AMPLITUDE], [-MAX_AMPLITUDE]]
        oracle_concurrences(*h, 1.0, *rng.uniform(-3.0, 3.0, size=(3, 600)))
        assert sum(k for k, _, _ in stacks) == 600
        assert all(8 * k * t1 * t2 <= oracle._STACK_BYTES for k, t1, t2 in stacks)
        assert [stack for stack in stacks if 145 in stack] == [(1, 145, 145)] * 6

    def test_rank_three_state_raises_among_fine_stack_mates(self, monkeypatch):
        # Hand-made states, whose mu, and so their weight w_++ = mu, picks
        # their Schmidt weights: the rank-three one is the second of the stack.
        fine, escaped = [0.6, 0.4, 0.0], [0.5, 0.3, 0.2]
        monkeypatch.setattr(oracle, "joint_states", lambda f_gamma, f_delta, w: (
            np.stack([np.diag(np.sqrt(escaped if m else fine)) for m in w[0, 0]])))
        c, _ = oracle_concurrences(0.5, 0.5, [0.0, 0.0], 0.0, 0.0, 0.0)
        spectrum = np.sqrt(fine)
        expected = schmidt_concurrence(spectrum / math.sqrt(spectrum @ spectrum))
        assert c.tolist() == [expected] * 2
        with pytest.raises(ConsistencyError, match="third Schmidt weight") as raised:
            oracle_concurrences(0.5, 0.5, [0.0, 1.0, 0.0], 0.0, 0.0, 0.0)
        assert raised.value.index == 1

    def test_states_before_a_failing_build_are_checked_first(self, monkeypatch):
        # Every state shares one shape; the third state of its second stack
        # fails the Schmidt rule, and the error is indexed by it.  When the
        # state before it fails too, in either order of the faults, that
        # error is raised instead.
        config = CoherentConfig(0.0, 0.0, 1.0, 1.0)  # half-gaps 0.5
        size = oracle._stack_size(*shape_of(config))
        failing = size + 2
        rng = np.random.default_rng(59)
        lam, rho, nu = rng.uniform(-3.0, 3.0, size=(3, 2 * size + 5))
        states = [SuperpositionCoeffs(1.0, *v) for v in zip(lam, rho, nu)]
        spectra = {i: spectrum_of(config, states[i]) for i in (failing - 1, failing)}
        for faults, named in (([failing], failing), ([failing - 1, failing], failing - 1),
                              ([failing, failing - 1], failing - 1)):
            with monkeypatch.context() as patch:
                for i in faults:
                    patch.setattr(oracle, "schmidt_concurrences", failing_schmidt(
                        spectra[i], ConsistencyError))
                with pytest.raises(ConsistencyError, match="^check failed$") as raised:
                    oracle_concurrences(0.5, 0.5, 1.0, lam, rho, nu)
            assert raised.value.index == named

    def test_the_earliest_failing_state_is_named_across_cutoffs(self, monkeypatch):
        # Shapes are taken in ascending order, so the later state (index 3,
        # shape (12, 12)) is built before the earlier one (index 1, shape
        # (14, 14)); the error names the earlier one.
        shapes = record_shapes(monkeypatch)
        h = [0.5, 0.5, 1e-9, 1e-9, 0.5]
        lam = [0.1, -0.25, 0.1, -0.75, 0.1]
        for i in (1, 3):
            monkeypatch.setattr(oracle, "schmidt_concurrences", failing_schmidt(
                spectrum_of(CoherentConfig(0.0, 0.0, 2.0 * h[i], 2.0 * h[i]),
                            SuperpositionCoeffs(1.0, lam[i], 0.2, 0.3)),
                ConsistencyError))
        shapes.clear()
        with pytest.raises(ConsistencyError, match="^check failed$") as raised:
            oracle_concurrences(h, h, 1.0, lam, 0.2, 0.3)
        assert shapes == [(12, 12), (14, 14)]
        assert raised.value.index == 1

    def test_empty_jobs_yield_nothing(self, monkeypatch):
        shapes = record_shapes(monkeypatch)
        c, norm = oracle_concurrences([], [], [], [], [], [])
        assert c.shape == norm.shape == (0,)
        assert shapes == []

    def test_every_stack_goes_to_the_svd_tall_side_first(self, monkeypatch):
        # One call with a wide, a tall and a square state, each in its own
        # stack: every matrix the SVD takes has at least as many rows as
        # columns.
        shapes, taken = record_shapes(monkeypatch), []
        real = np.linalg.svd

        def recording(a, *args, **kwargs):
            taken.append(a.shape[1:])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        oracle_concurrences([0.1, 2.0, 1.0], [2.0, 0.1, 1.0], 1.0, 0.3, -0.2, 0.5)
        assert sorted(shapes) == [(12, 31), (19, 19), (31, 12)]
        assert sorted(taken) == [(19, 19), (31, 12), (31, 12)]
        assert all(rows >= cols for rows, cols in taken)

    def test_exchanging_the_modes_moves_only_rounding(self):
        # (h1, h2, lam, rho) -> (h2, h1, rho, lam) is the same state with its
        # modes exchanged, built from the same Fock rows with its products
        # and weights rounded in another order: C moves by at most 2e-15 and
        # the norm by at most 2e-15 relative, the oracle's two 1e-15 accuracy
        # bounds added.
        rng = np.random.default_rng(64)
        h1, h2, mu, lam, rho, nu = columns([random_state(rng) for _ in range(300)])
        assert (h1 != h2).all() and (mode_cutoffs(h1) != mode_cutoffs(h2)).any()
        c, norm = oracle_concurrences(h1, h2, mu, lam, rho, nu)
        c_exchanged, norm_exchanged = oracle_concurrences(h2, h1, mu, rho, lam, nu)
        assert abs(c_exchanged - c).max() <= 2e-15
        assert abs(norm_exchanged / norm - 1.0).max() <= 2e-15


def shape_of(config):
    """The (T1, T2) cutoffs the oracle builds a configuration at."""
    return tuple(mode_cutoffs(config.half_gaps).tolist())


def record_shapes(monkeypatch):
    """The (T1, T2) shape of each stack oracle.joint_states builds, in order,
    as a list that fills as they are built."""
    shapes = []
    real = oracle.joint_states

    def recording(f_gamma, f_delta, *rest):
        shapes.append((f_gamma.shape[1], f_delta.shape[1]))
        return real(f_gamma, f_delta, *rest)

    monkeypatch.setattr(oracle, "joint_states", recording)
    return shapes


class TestModeCutoffs:
    GRID = np.arange(0, 8001) * 1e-3

    def test_at_least_the_bound_at_the_half_gap_and_nondecreasing(self):
        cutoffs = mode_cutoffs(self.GRID)
        assert cutoffs.dtype.kind == "i"
        assert all(t >= default_truncation(a)
                   for a, t in zip(self.GRID.tolist(), cutoffs.tolist()))
        assert (np.diff(cutoffs) >= 0).all()
        assert mode_cutoffs(MAX_AMPLITUDE) == 145 <= MAX_TRUNCATION
        assert np.array_equal(mode_cutoffs(-self.GRID), cutoffs)

    def test_quarter_steps(self):
        # A sweep's half-gaps, at most 2, take eight cutoffs, 12 to 31.
        assert sorted(set(mode_cutoffs(self.GRID[1:2001]).tolist())) == [
            12, 14, 17, 19, 22, 25, 28, 31]

    def test_build_state_takes_each_modes_own_cutoff(self):
        # Half-gaps 8 and 0.1, each mode at its own cutoff: a 145 x 12 matrix.
        config = CoherentConfig(0.0, 0.0, 16.0, 0.2)
        coeffs = SuperpositionCoeffs(1.0, 0.0, 0.0, -1.0)
        state = build_state(config, coeffs)
        assert state.shape == (145, 12) and state.matrix().shape == (145, 12)
        assert type(state.truncation) is int and state.truncation == 145
        assert state.coefficients.size == 145 * 12
        assert abs(oracle_concurrence(config, coeffs)
                   - concurrence(coeffs, OverlapPair.from_config(config))) <= 1e-15


def exact_state(h1, h2, mu, lam, rho, nu, digits=50):
    """(C, N) of the closed form at the half-gaps h1 and h2, whose overlaps
    are exp(-2 h^2), at `digits` digits, as floats."""
    with mpmath.workdps(digits):
        h1, h2, mu, lam, rho, nu = map(mpmath.mpf, (h1, h2, mu, lam, rho, nu))
        p1, p2 = mpmath.exp(-2 * h1**2), mpmath.exp(-2 * h2**2)
        n_sq = (mu**2 + lam**2 + rho**2 + nu**2 + 2 * (mu * lam + rho * nu) * p2
                + 2 * (mu * rho + lam * nu) * p1 + 2 * (mu * nu + lam * rho) * p1 * p2)
        c = 2 * abs(mu * nu - lam * rho) * mpmath.sqrt((1 - p1**2) * (1 - p2**2)) / n_sq
        return float(c), float(mpmath.sqrt(n_sq))


def test_oracle_matches_the_closed_form_at_fifty_digits():
    # 200 states drawn as oracle-check draws them, and states whose two
    # half-gaps are far apart, each mode at its own cutoff.
    rng = np.random.default_rng(62)
    draws = rng.uniform([-2.0] * 4 + [-3.0] * 3, [2.0] * 4 + [3.0] * 3, size=(200, 7))
    alpha, beta, gamma, delta, lam, rho, nu = draws.T
    h1, h2 = half_gaps(alpha, beta, gamma, delta)
    unequal = np.array([(0.05, 2.0), (2.0, 0.05), (8.0, 0.1), (-0.1, -8.0)])
    extra = rng.uniform(-3.0, 3.0, size=(len(unequal), 3))
    h1, h2 = np.append(h1, unequal[:, 0]), np.append(h2, unequal[:, 1])
    lam, rho, nu = (np.append(v, e) for v, e in zip((lam, rho, nu), extra.T))
    c, norm = oracle_concurrences(h1, h2, 1.0, lam, rho, nu)
    exact = np.array([exact_state(*v, 1.0, *w) for v, w in zip(
        zip(h1.tolist(), h2.tolist()), zip(lam.tolist(), rho.tolist(), nu.tolist()))])
    assert np.max(abs(c - exact[:, 0])) <= 1e-15
    # Every joint entry is right to a few ulps, so the norm is too, however
    # far the coefficients cancel.
    assert np.max(abs(norm - exact[:, 1]) / exact[:, 1]) <= 1e-15


# The gap-1e-7 defect file: alpha = 0, beta = 0.3, gamma = 1e-7,
# delta = 0.3000001, mu = nu = 1, lambda = rho = -1.000000000000005.  Its
# joint entries each summed four products that cancel to 1e-14, and the
# oracle's C was 2.2e-4 off.
DEFECT = (*half_gaps(0.0, 0.3, 1e-7, 0.3000001), 1.0, -1.000000000000005,
          -1.000000000000005, 1.0)


def test_oracle_is_within_1e_15_of_sixty_digits_near_the_families():
    # The defect file, and the fifteen reference states at squared gaps
    # from 1e-14, where their joint entries cancel to 1e-14, to 4.
    jobs = [DEFECT] + [
        (*state.config.half_gaps, state.coeffs.mu, state.coeffs.lam,
         state.coeffs.rho, state.coeffs.nu)
        for gap_squared in (1e-8, 1e-10, 1e-12, 1e-14, 1.0, 4.0)
        for state in example_states(gap_squared)]
    c, _ = oracle_concurrences(*np.array(jobs).T)
    exact = np.array([exact_state(*job, digits=60)[0] for job in jobs])
    assert abs(c[0] - 0.99977576034051224) <= 1e-15
    assert np.max(abs(c - exact)) <= 1e-15


def test_a_vanishing_half_gap_is_refused_before_any_state_is_built(monkeypatch):
    # At h1 = 0, v = (1, 1, -1, -1) is (|a> - |g>)(|b> + |d>), of norm 0.
    # Every validator keeps |h| above DISTINCT_TOL / 2 = 5e-10; the earliest
    # half-gap at or below it, in input order, is named.
    built = record_shapes(monkeypatch)
    with pytest.raises(DomainError, match=(
            r"^\|half-gap\| = 0\.0 must exceed 5e-10: the pair is not distinct$")) as raised:
        oracle_concurrences(0.0, 0.5, 1.0, 1.0, -1.0, -1.0)
    assert raised.value.index == 0
    with pytest.raises(DomainError, match=r"^\|half-gap\| = 5e-10 ") as raised:
        oracle_concurrences([0.5, 0.5, -1e-12], [0.5, -5e-10, 0.5], 1.0, 1.0, -1.0, -1.0)
    assert raised.value.index == 1
    assert built == []


def test_the_norm_has_a_floor_at_the_validators_half_gaps():
    # The oracle's norm^2 is the sum over the sectors of w_st^2 E_s(h1)
    # E_t(h2), with E_+ = (1 + p) / 2 and E_- = (1 - p) / 2 the even and odd
    # masses of a Fock row at the overlap p = exp(-2 h^2): the closed form's
    # N^2.  The sign matrix is orthogonal, so the w_st^2 sum to 4 |v|^2, and
    # N^2 >= 4 E_-(h1) E_-(h2) |v|^2, about 4 h1^2 h2^2 |v|^2.
    mu, lam, rho, nu, p1, p2, a = sp.symbols("mu lam rho nu p1 p2 a", real=True)
    k = sp.symbols("k", integer=True, nonnegative=True)
    w = {(s, t): mu * s * t + lam * s + rho * t + nu for s in (1, -1) for t in (1, -1)}
    assert sp.expand(sum(v**2 for v in w.values())
                     - 4 * (mu**2 + lam**2 + rho**2 + nu**2)) == 0
    n_sq = (mu**2 + lam**2 + rho**2 + nu**2 + 2 * (mu * lam + rho * nu) * p2
            + 2 * (mu * rho + lam * nu) * p1 + 2 * (mu * nu + lam * rho) * p1 * p2)
    assert sp.expand(sum(v**2 * (1 + s * p1) * (1 + t * p2) / 4
                         for (s, t), v in w.items()) - n_sq) == 0
    # e^(-a^2) times the even terms of sum a^(2n) / n! is (1 + e^(-2 a^2)) / 2.
    even = sp.exp(-a**2) * sp.summation(a**(4 * k) / sp.factorial(2 * k), (k, 0, sp.oo))
    assert sp.simplify((even - (1 + sp.exp(-2 * a**2)) / 2).rewrite(sp.exp)) == 0

    # At the smallest half-gaps the validators accept, and at the cap, on
    # random coefficients and on the two families' planes.
    rng = np.random.default_rng(64)
    jobs = []
    for h1, h2 in [(5.000001e-10, -5.000001e-10), (-5.000001e-10, 8.0),
                   (8.0, 5.000001e-10), (-8.0, 8.0)]:
        jobs += [(h1, h2, state.coeffs.mu, state.coeffs.lam, state.coeffs.rho,
                  state.coeffs.nu) for state in example_states(4.0 * h1 * h1)
                 if state.expected is not Verdict.SEPARABLE]
        jobs += [(h1, h2, 1.0, *v) for v in rng.uniform(-3.0, 3.0, size=(8, 3))]
    h1, h2, *v = np.array(jobs).T
    c, norm = oracle_concurrences(h1, h2, *v)
    exact = np.array([exact_state(*job, digits=60) for job in jobs])
    assert np.max(abs(c - exact[:, 0])) <= 1e-15
    size_sq = sum(column * column for column in v)
    floor = np.expm1(-2.0 * h1 * h1) * np.expm1(-2.0 * h2 * h2) * size_sq
    assert np.isfinite(norm).all() and (norm * norm >= floor * (1.0 - 1e-14)).all()
    assert np.max(abs(norm - exact[:, 1]) / exact[:, 1]) <= 1e-14


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
            coefficients, _ = outer_reference(config, coeffs, (t, t))
            s = np.linalg.svd(coefficients.reshape(t, t), compute_uv=False)
            assert abs(oracle_concurrence(config, coeffs) - 2.0 * s[0] * s[1]) < 1e-14


def outer_matrix(config, coeffs, shape=None):
    """The unnormalized (t1, t2) joint matrix and the unit ray's exponent of
    one state, assembled with np.outer from one fock_vector per half-gap of
    the centered modes, h1 at the cutoff t1 and h2 at t2, with (t1, t2) =
    `shape` (by default build_state's own), and the sector weights
    mu s t + lam s + rho t + nu of the coefficients on their unit ray, each
    rounded once by math.fsum, column by column of one parity."""
    t1, t2 = shape_of(config) if shape is None else shape
    h1, h2 = (config.gamma - config.alpha) * 0.5, (config.delta - config.beta) * 0.5
    f_gamma, f_delta = fock_vector(h1, t1), fock_vector(h2, t2)
    mu, lam, rho, nu, exponent = (v.item() for v in _unit_ray(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu))
    w = np.array([[math.fsum([mu * s * t, lam * s, rho * t, nu]) for t in (1, -1)]
                  for s in (1, -1)])
    psi, rows = np.empty((t1, t2)), np.arange(t1) % 2
    for j in (0, 1):
        psi[:, j::2] = np.outer(f_gamma * w[rows, j], f_delta[j::2])
    return psi, exponent


def outer_reference(config, coeffs, shape=None):
    """build_state's coefficients and norm: outer_matrix's, normalized by
    np.linalg.norm."""
    psi, exponent = outer_matrix(config, coeffs, shape)
    norm = float(np.linalg.norm(psi))
    return (psi / norm).ravel(), math.ldexp(norm, exponent)


def one_state_reference(config, coeffs):
    """C and the norm of one state as the oracle takes them: the spectrum of
    outer_matrix's build, taken tall side first, over the norm it gives."""
    psi, exponent = outer_matrix(config, coeffs)
    svals = np.linalg.svd(psi.T if psi.shape[0] < psi.shape[1] else psi,
                          compute_uv=False)
    norm = math.sqrt(svals @ svals)
    return schmidt_concurrence(svals / norm), math.ldexp(norm, exponent)


def test_build_state_matches_the_outer_product_reference():
    # Broadcasting, the Sum2 weights and the dot-product norm leave every
    # coefficient and the norm bit for bit as math.fsum, np.outer and
    # np.linalg.norm give them.
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
    assert near.shape == far.shape == (14, 14)
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


class TestComparison:
    """oracle_concurrences' comparison with the closed form: `expected`,
    `tol` and `failure`, and the one order in which failures are named."""

    JOBS = [random_state(rng) for rng in [np.random.default_rng(63)] for _ in range(8)]

    def fail_state(self, monkeypatch, i):
        """Make state i of JOBS fail the Schmidt rule."""
        monkeypatch.setattr(oracle, "schmidt_concurrences", failing_schmidt(
            spectrum_of(*self.JOBS[i]), ConsistencyError))

    def test_a_passing_comparison_returns_the_defaults_bits(self):
        # test_stacked_equals_one_state_bit_for_bit pins the defaults' C and
        # norms to one-state builds.
        c, norm = oracle_concurrences(*columns(self.JOBS))
        again = oracle_concurrences(*columns(self.JOBS), expected=c, tol=0.0)
        assert np.array_equal(again, (c, norm))

    def test_closed_form_failure_wins_a_tie(self, monkeypatch):
        self.fail_state(monkeypatch, 5)
        failure = indexed(ConsistencyError("closed form failed"), 5)
        with pytest.raises(ConsistencyError, match="^closed form failed$") as caught:
            oracle_concurrences(*columns(self.JOBS), failure=failure)
        assert caught.value.index == 5

    def test_earlier_oracle_failure_is_named(self, monkeypatch):
        self.fail_state(monkeypatch, 2)
        failure = indexed(ConsistencyError("closed form failed"), 5)
        with pytest.raises(ConsistencyError, match="^check failed$") as caught:
            oracle_concurrences(*columns(self.JOBS), failure=failure)
        assert caught.value.index == 2

    def test_states_from_the_failure_on_are_not_built(self, monkeypatch):
        seen = []

        def recording(amplitudes, truncation):
            seen.extend(amplitudes.tolist())
            return fock_vectors(amplitudes, truncation)

        monkeypatch.setattr(oracle, "fock_vectors", recording)
        built = record_shapes(monkeypatch)
        failure = indexed(ConsistencyError("closed form failed"), 5)
        with pytest.raises(ConsistencyError, match="^closed form failed$"):
            oracle_concurrences(*columns(self.JOBS), failure=failure)
        h1, h2, *_ = columns(self.JOBS)
        assert sorted(seen) == sorted(set(h1[:5].tolist() + h2[:5].tolist()))
        assert not set(seen) & set(h1[5:].tolist() + h2[5:].tolist())
        assert built  # the states before it are

    @pytest.mark.parametrize("target", ["failure", "schmidt_concurrences"])
    def test_disagreement_before_an_oracle_failure_is_named(self, monkeypatch, target):
        # State 6 fails the closed form or the Schmidt rule; state 3 disagrees.
        c, _ = oracle_concurrences(*columns(self.JOBS))
        failure = None
        if target == "failure":
            failure = indexed(ConsistencyError("closed form failed"), 6)
        else:
            self.fail_state(monkeypatch, 6)
        expected = c.copy()
        expected[3] += 1e-3
        with pytest.raises(ConsistencyError, match=(
                r"^oracle disagrees with the closed form by 1\.000e-03$")) as caught:
            oracle_concurrences(*columns(self.JOBS), expected=expected, tol=1e-6,
                                failure=failure)
        assert caught.value.index == 3

    def test_nan_expected_fails(self):
        c, _ = oracle_concurrences(*columns(self.JOBS))
        expected = c.copy()
        expected[4] = math.nan
        with pytest.raises(ConsistencyError, match="^oracle disagrees with the "
                                                   "closed form by nan$") as caught:
            oracle_concurrences(*columns(self.JOBS), expected=expected)
        assert caught.value.index == 4

    def test_a_failing_spot_check_builds_each_state_once(self, monkeypatch):
        # Record 5 of 7 fails the Schmidt rule: the spot check makes one
        # oracle call, which builds each record once.
        records = [(-0.01 * k, -1.0 + 0.01 * k, 1.0) for k in range(1, 8)]
        x = np.full(len(records), 0.5)
        c = np.array([concurrence(SuperpositionCoeffs(1.0, *r), OverlapPair(0.5, 0.5))
                      for r in records])
        hits = scan.ScanHits(*np.array(records).T, x, c)
        monkeypatch.setattr(oracle, "schmidt_concurrences", failing_schmidt(
            spectrum_of(scan.config_for_overlap(0.5), SuperpositionCoeffs(1.0, *records[4])),
            ConsistencyError))
        calls, built = [], []
        real_call, real_joint = oracle._Call, oracle.joint_states

        def call(*args, **kwargs):
            calls.append(args)
            return real_call(*args, **kwargs)

        def joint(f_gamma, f_delta, w):
            built.append(w.shape[2])
            return real_joint(f_gamma, f_delta, w)

        monkeypatch.setattr(oracle, "_Call", call)
        monkeypatch.setattr(oracle, "joint_states", joint)
        with pytest.raises(ConsistencyError, match="^oracle spot check: check failed at "
                                                       r"lam=-0\.05 "):
            scan.oracle_spot_check(hits, fraction=1.0, seed=3)
        assert len(calls) == 1 and sum(built) == len(records)
