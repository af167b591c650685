import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohent.analytic import SuperpositionCoeffs
from cohent.coherent import (
    MAX_AMPLITUDE,
    MAX_TRUNCATION,
    TAIL_MASS_LIMIT,
    CoherentConfig,
    OverlapPair,
    default_truncation,
    fock_vector,
    fock_vectors,
    overlap_columns,
    _inv_sqrt_n,
)
from cohent.errors import DomainError, TruncationError
from cohent.oracle import build_state

finite_amps = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def pair_overlap(a1, a2):
    """<a1|a2> of one pair, from overlap_columns."""
    return overlap_columns([a1], [a2])[0].item()


class TestOverlap:
    # Non-finite amplitudes never reach overlap_columns: CoherentConfig
    # refuses them first (TestCoherentConfig::test_rejects_non_finite).
    def test_identical_states(self):
        assert pair_overlap(1.3, 1.3) == 1.0
        assert pair_overlap(0.0, 0.0) == 1.0

    def test_unit_gap(self):
        assert pair_overlap(0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_half_overlap_gap(self):
        # gap solving exp(-g^2/2) = 1/2
        g = math.sqrt(2.0 * math.log(2.0))
        assert pair_overlap(0.0, g) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(a=finite_amps, b=finite_amps)
    def test_symmetry_and_range(self, a, b):
        (v, w), _ = overlap_columns([a, b], [b, a])
        assert v == w
        assert 0.0 < v <= 1.0
        if a == b:
            assert v == 1.0
        elif abs(a - b) > 1e-7:  # below this exp(-g^2/2) rounds to 1.0 anyway
            assert v < 1.0

    @settings(max_examples=200, deadline=None)
    @given(a=finite_amps, g1=st.floats(0.01, 4.0), g2=st.floats(0.01, 4.0))
    def test_strictly_decreasing_in_gap(self, a, g1, g2):
        lo, hi = sorted((g1, g2))
        if hi - lo < 1e-9:
            return
        assert pair_overlap(a, a + lo) > pair_overlap(a, a + hi)

    @settings(max_examples=100, deadline=None)
    @given(a=finite_amps, b=finite_amps)
    def test_complement_matches(self, a, b):
        (p,), (complement,) = overlap_columns([a], [b])
        assert complement == pytest.approx(1.0 - p ** 2, abs=1e-15)

    def test_columns_match_the_per_pair_formulas(self):
        # The columnar form takes the bits of math.exp(-gap ** 2 / 2) and
        # -math.expm1(-gap ** 2) per pair, and each pair's bits do not
        # depend on the column around it, at a gap of -0.0 and a tiny one
        # too.
        rng = np.random.default_rng(3)
        a1, a2 = rng.uniform(-8.0, 8.0, size=(2, 2000))
        a1[:3], a2[:3] = [-0.0, 0.5, 1.0], [0.0, 0.5 + 1e-9, 4.0]
        p, complement = overlap_columns(a1, a2)
        gaps = (a1 - a2).tolist()
        assert p.tolist() == [math.exp(-0.5 * g ** 2) for g in gaps]
        assert complement.tobytes() == np.array(
            [-math.expm1(-g ** 2) for g in gaps]).tobytes()
        pairs = [overlap_columns([x], [y]) for x, y in zip(a1.tolist(), a2.tolist())]
        assert np.concatenate([pair[0] for pair in pairs]).tobytes() == p.tobytes()
        assert np.concatenate([pair[1] for pair in pairs]).tobytes() == complement.tobytes()


def mp_poisson_tail(a, cutoff):
    """P(N >= cutoff) for N ~ Poisson(a^2): the mass a Fock cutoff discards
    from |a>, as a 40-digit regularized lower incomplete gamma function."""
    with mpmath.workdps(40):
        if a == 0.0:
            return mpmath.mpf(0)
        return mpmath.gammainc(cutoff, 0, mpmath.mpf(a) ** 2, regularized=True)


class TestDefaultTruncation:
    # A 0.004 grid over [0, 8], plus the worst point of this cutoff (2.446)
    # and of the rejected constant term 8 (1.603).
    GRID = sorted({i / 1000 for i in range(0, 8001, 4)} | {1.603, 2.446})

    def test_tail_below_double_rounding(self):
        worst = max(mp_poisson_tail(a, default_truncation(a)) for a in self.GRID)
        assert worst < 1e-16

    def test_never_decreases(self):
        cutoffs = [default_truncation(a) for a in self.GRID]
        assert cutoffs == sorted(cutoffs)

    def test_largest_amplitude_fits_the_oracle_cap(self):
        assert default_truncation(MAX_AMPLITUDE) <= MAX_TRUNCATION

    def test_tail_mass_below_target(self):
        # Poisson tail beyond the cutoff, summed far past it.
        for amp in (0.5, 1.0, 2.0, 3.0):
            cut = default_truncation(amp)
            n = np.arange(cut, cut + 400)
            log_terms = -amp * amp + n * np.log(amp * amp) - [
                math.lgamma(k + 1) for k in n
            ]
            assert np.exp(log_terms).sum() < 1e-16

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            default_truncation(-1.0)


class TestFockVector:
    def test_vacuum(self):
        v = fock_vector(0.0, 8)
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    def test_unit_norm_after_construction(self):
        for a in (-2.5, 0.3, 1.0, 3.0):
            v = fock_vector(a, default_truncation(abs(a)))
            assert abs(np.dot(v, v) - 1.0) < 1e-12

    def test_inner_product_matches_overlap(self):
        va = fock_vector(0.0, 64)
        vb = fock_vector(1.0, 64)
        ip = float(np.dot(va, vb))
        assert ip == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_peak_at_mean_photon_number(self):
        # Poisson weights tie at n = a^2 - 1 and n = a^2 for integer a^2;
        # n = 4 must be among the largest-magnitude coefficients.
        v = fock_vector(2.0, 64)
        mags = np.abs(v)
        assert mags[4] == mags.max()

    def test_inadequate_truncation_rejected(self):
        with pytest.raises(TruncationError) as err:
            fock_vector(3.0, 10)
        assert err.value.tail_mass >= 1e-10

    def test_rejects_oversized_amplitude(self):
        with pytest.raises(DomainError):
            fock_vector(8.5, 200)

    def test_rejects_bad_truncation(self):
        with pytest.raises(DomainError):
            fock_vector(1.0, 0)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_consistency_with_overlap(self, a, b):
        cut = default_truncation(max(abs(a), abs(b)))
        va = fock_vector(a, cut)
        vb = fock_vector(b, cut)
        ip = float(np.dot(va, vb))
        assert abs(ip - pair_overlap(a, b)) < 1e-10


def loop_fock_coefficients(a, truncation):
    """The per-coefficient recurrence fock_vector used to run, renormalized."""
    coeffs = np.empty(truncation)
    coeffs[0] = math.exp(-0.5 * a * a)
    for n in range(truncation - 1):
        coeffs[n + 1] = coeffs[n] * a / math.sqrt(n + 1.0)
    return coeffs / math.sqrt(float(coeffs @ coeffs))


def mp_fock_terms(a, truncation):
    """e^(-a^2/2) a^n / sqrt(n!) for n < truncation, at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        return [mpmath.exp(-a * a / 2) * a**n / mpmath.sqrt(mpmath.factorial(n))
                for n in range(truncation)]


def mp_tail_mass(a, truncation):
    with mpmath.workdps(50):
        return float(1 - mpmath.fsum(c * c for c in mp_fock_terms(a, truncation)))


MP_AMPLITUDES = (0.0, 0.5, -0.5, 2.0, -2.0, 3.7, -3.7, 8.0, -8.0)


class TestFockVectorAccuracy:
    @pytest.mark.parametrize("a", MP_AMPLITUDES)
    @pytest.mark.parametrize("cut", ["default", 256])
    def test_matches_mpmath(self, a, cut):
        truncation = default_truncation(abs(a)) if cut == "default" else cut
        terms = mp_fock_terms(a, truncation)
        with mpmath.workdps(50):
            norm = mpmath.sqrt(mpmath.fsum(c * c for c in terms))
            expected = np.array([float(c / norm) for c in terms])
        got = fock_vector(a, truncation)
        assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize("a", [0.5, -2.0, 3.7, -8.0])
    def test_tail_limit_falls_where_mpmath_puts_it(self, a):
        # Truncations are tried upward from 1; the tail shrinks with each.
        tails = {}
        truncation = 1
        while not tails or min(tails.values()) >= 0.5 * TAIL_MASS_LIMIT:
            tails[truncation] = mp_tail_mass(a, truncation)
            truncation += 1
        accepted = max(tails)
        rejected = max(t for t, tail in tails.items() if tail > 2 * TAIL_MASS_LIMIT)
        assert len(fock_vector(a, accepted)) == accepted
        with pytest.raises(TruncationError) as err:
            fock_vector(a, rejected)
        assert err.value.tail_mass == pytest.approx(tails[rejected], rel=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(a=finite_amps, wide=st.booleans())
    def test_matches_loop_recurrence(self, a, wide):
        # Only the rounding of a / sqrt(n) changes, so a few ulps at most.
        truncation = 256 if wide else default_truncation(abs(a))
        got = fock_vector(a, truncation)
        expected = loop_fock_coefficients(a, truncation)
        assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps


class TestFockVectorAliasing:
    def test_calls_return_fresh_writable_arrays(self):
        first = fock_vector(1.3, 40)
        second = fock_vector(1.3, 40)
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        expected = second.copy()
        first *= 3.0
        second *= -2.0
        assert np.array_equal(fock_vector(1.3, 40), expected)
        assert np.array_equal(fock_vector(-1.3, 40)[1::2],
                              -expected[1::2])

    def test_shared_table_is_read_only_and_bounded(self):
        with pytest.raises(ValueError):
            _inv_sqrt_n(40)[0] = 2.0
        limit = _inv_sqrt_n.cache_info().maxsize
        assert limit is not None
        for truncation in range(1, 2 * limit + 2):
            _inv_sqrt_n(truncation)
        assert _inv_sqrt_n.cache_info().currsize <= limit
        assert fock_vector(1.3, 40).flags.writeable


class TestFockVectorMemo:
    def test_negative_zero_keeps_its_signed_zeros(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            fock_vector(first, 5)
            got = fock_vector(second, 5)
            expected = loop_fock_coefficients(second, 5)
            assert got.tobytes() == expected.tobytes()
        assert np.signbit(fock_vector(-0.0, 5)).tolist() == [
            False, True, False, True, False]

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(TruncationError):
                fock_vector(3.0, 10)
            with pytest.raises(DomainError):
                fock_vector(8.5, 200)
            with pytest.raises(DomainError):
                fock_vector(math.nan, 10)
            with pytest.raises(DomainError):
                fock_vector(1.0, 0)

    def test_truncation_above_the_cap_is_rejected_before_caching(self):
        # Only build_state checked the cap, so a large truncation filled the
        # cache: 64 calls at 50,000 held 25 MB.
        _inv_sqrt_n.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match="exceeds the supported cap 256"):
                fock_vector(1.0, 257)
        assert _inv_sqrt_n.cache_info().currsize == 0

    def test_build_state_same_bits_cold_and_warm(self):
        # Cold and warm for the shared 1/sqrt(n) tables, one for each mode's
        # cutoff: T = 17 at the half-gap 0.55, T = 25 at 1.35.
        config = CoherentConfig(0.7, -1.1, -0.4, 1.6)
        coeffs = SuperpositionCoeffs(1.0, -0.3, 2.2, 0.9)
        _inv_sqrt_n.cache_clear()
        cold = build_state(config, coeffs)
        assert cold.shape == (17, 25)
        assert _inv_sqrt_n.cache_info().hits == 0
        warm = build_state(config, coeffs)
        assert _inv_sqrt_n.cache_info().hits == 2
        assert cold.coefficients.tobytes() == warm.coefficients.tobytes()
        assert cold.norm_before_normalization == warm.norm_before_normalization


class TestFockVectors:
    @settings(max_examples=60, deadline=None)
    @given(amplitudes=st.lists(finite_amps, min_size=1, max_size=12), wide=st.booleans())
    def test_rows_match_fock_vector_and_the_loop_recurrence(self, amplitudes, wide):
        truncation = 256 if wide else default_truncation(max(map(abs, amplitudes)))
        rows = fock_vectors(amplitudes, truncation)
        assert rows.shape == (len(amplitudes), truncation)
        for a, row in zip(amplitudes, rows):
            assert row.tobytes() == fock_vector(a, truncation).tobytes()
            expected = loop_fock_coefficients(a, truncation)
            assert np.max(np.abs(row - expected)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("truncation, amplitude", [
        (12, 0.25), (31, 2.0), (145, 8.0), (256, 8.0)])
    def test_rows_are_normalized_by_their_per_row_dot(self, truncation, amplitude):
        # The one stacked matmul that takes every row's norm gives the bits
        # of one dot product a row.
        amplitudes = np.random.default_rng(truncation).uniform(
            -amplitude, amplitude, size=200)
        factors = np.empty((len(amplitudes), truncation))
        factors[:, 0] = np.exp(-0.5 * amplitudes * amplitudes)
        factors[:, 1:] = amplitudes[:, None] * _inv_sqrt_n(truncation)
        raw = factors.cumprod(axis=1)
        expected = raw / np.sqrt([row.dot(row) for row in raw])[:, None]
        assert fock_vectors(amplitudes, truncation).tobytes() == expected.tobytes()

    def test_first_rejected_amplitude_is_named(self):
        with pytest.raises(DomainError, match=r"^a must be a finite real, got nan$"):
            fock_vectors([1.0, math.nan, 9.0], 31)
        with pytest.raises(DomainError, match=r"^\|a\| = 9\.0 exceeds"):
            fock_vectors([1.0, -9.0, math.nan], 31)
        with pytest.raises(TruncationError, match=r"for amplitude -3\.0 "):
            fock_vectors([0.5, -3.0, 3.5], 10)


class TestCoherentConfig:
    def test_accepts_distinct_pairs(self):
        cfg = CoherentConfig(0.0, 0.3, 1.0, 1.3)
        assert cfg.half_gap == 0.5

    def test_rejects_equal_system1(self):
        with pytest.raises(DomainError):
            CoherentConfig(1.0, 0.0, 1.0 + 1e-12, 1.0)

    def test_rejects_equal_system2(self):
        with pytest.raises(DomainError):
            CoherentConfig(0.0, 0.5, 1.0, 0.5)

    def test_rejects_oversized_amplitude(self):
        # The cap bounds half-gaps, not amplitudes: |alpha| = 100 is accepted,
        # a half-gap just above 8 is not, and nor is a gap that overflows.
        assert CoherentConfig(100.0, 0.0, 101.0, 1.0).half_gap == 0.5
        assert CoherentConfig(0.0, 0.0, 16.0, -16.0).half_gap == MAX_AMPLITUDE
        with pytest.raises(DomainError, match=r"= 8\.0000005 exceeds the supported "
                                              r"bound 8\.0$"):
            CoherentConfig(0.0, 0.0, 16.000001, 1.0)
        with pytest.raises(DomainError, match=r"= inf exceeds"):
            CoherentConfig(1e308, 0.0, -1e308, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError, match=r"^gamma must be a finite real, got nan$"):
            CoherentConfig(0.0, 0.0, float("nan"), 1.0)
        with pytest.raises(DomainError, match=r"^delta must be a finite real, got inf$"):
            CoherentConfig(0.0, 0.0, 1.0, float("inf"))


class TestOverlapPair:
    def test_bounds_are_strict(self):
        with pytest.raises(DomainError):
            OverlapPair(0.0, 0.5)
        with pytest.raises(DomainError):
            OverlapPair(0.5, 1.0)

    def test_complements_filled(self):
        pair = OverlapPair(0.5, 0.25)
        assert pair.c1 == pytest.approx(0.75, abs=1e-15)
        assert pair.n2 == pytest.approx(math.sqrt(1 - 0.25**2), abs=1e-15)

    def test_from_config_matches_overlap(self):
        # Each pair's bits, as overlap_columns takes them, as Python floats.
        cfg = CoherentConfig(0.0, 0.3, 1.0, 1.3)
        pair = OverlapPair.from_config(cfg)
        assert (pair.p1, pair.c1) == (math.exp(-0.5), -math.expm1(-1.0))
        assert pair.p2 == pair_overlap(1.3, 0.3)
        assert all(type(v) is float for v in (pair.p1, pair.p2, pair.c1, pair.c2))
        assert pair.c1 == pytest.approx(1.0 - pair.p1**2, abs=1e-15)

    def test_from_config_stable_near_coincidence(self):
        # gap 1e-6: 1 - p^2 ~ 1e-12 must come out with full relative accuracy
        cfg = CoherentConfig(0.0, 0.0, 1e-6, 1.0)
        pair = OverlapPair.from_config(cfg)
        assert pair.c1 == pytest.approx(1e-12, rel=1e-9)

    def test_overlap_rounding_to_one_needs_a_complement(self):
        pair = OverlapPair(1.0, 0.5, c1=2.5e-17)
        assert pair.n1 == pytest.approx(5e-9, rel=1e-15)
        for c1 in (None, 0.0):
            with pytest.raises(DomainError):
                OverlapPair(1.0, 0.5, c1=c1)

    def test_from_config_below_the_rounding_gap(self):
        # gap 5e-9: exp(-gap^2/2) is 1.0 in floats, 1 - p^2 is 2.5e-17
        pair = OverlapPair.from_config(CoherentConfig(0.0, 0.0, 5e-9, 5e-9))
        assert (pair.p1, pair.p2) == (1.0, 1.0)
        assert pair.c1 == pair.c2 == pytest.approx(2.5e-17, rel=1e-15)
