import math
from dataclasses import astuple

import pytest

from cohent.analytic import SuperpositionCoeffs, concurrence
from cohent.catalog import example_states
from cohent.classify import Verdict
from cohent.coherent import CoherentConfig, OverlapPair
from cohent.errors import DomainError, InputFileError
from cohent.statespec import (
    StateSpec,
    load_scan_file,
    load_state_file,
    parse_scan_text,
    parse_state_text,
)


class TestParseStateText:
    def test_overlap_document(self):
        spec = parse_state_text(
            "# class (a) point\np1 = 0.5\np2 = 0.5\nlambda = -0.5\nrho = -0.5\nnu = 1\n"
        )
        assert spec == StateSpec(SuperpositionCoeffs(1.0, -0.5, -0.5, 1.0),
                                 OverlapPair(0.5, 0.5))

    def test_amplitude_document(self):
        spec = parse_state_text(
            "alpha = 0\nbeta = 0.3\ngamma = 1\ndelta = 1.3\n"
            "lambda = 0\nrho = 0\nnu = -1\n"
        )
        assert spec.config == CoherentConfig(0.0, 0.3, 1.0, 1.3)
        assert spec.overlaps == OverlapPair.from_config(spec.config)
        assert spec.overlaps.p1 == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_missing_coefficient(self):
        with pytest.raises(InputFileError, match="lambda"):
            parse_state_text("p1 = 0.5\np2 = 0.5\nrho = 0\nnu = 1\n")

    def test_unknown_key(self):
        with pytest.raises(InputFileError, match="unknown key"):
            parse_state_text("p1 = 0.5\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\nfoo = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(InputFileError, match="duplicate"):
            parse_state_text("p1 = 0.5\np1 = 0.6\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\n")

    def test_malformed_line(self):
        with pytest.raises(InputFileError, match="key = value"):
            parse_state_text("p1 0.5\n")

    def test_non_numeric_value(self):
        with pytest.raises(InputFileError, match="not a number"):
            parse_state_text("p1 = abc\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\n")

    def test_both_amplitudes_and_overlaps_rejected(self):
        with pytest.raises(DomainError, match="exactly one"):
            parse_state_text(
                "alpha = 0\nbeta = 0\ngamma = 1\ndelta = 1\n"
                "p1 = 0.5\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\n"
            )

    def test_partial_amplitudes_rejected(self):
        with pytest.raises(DomainError, match="all together"):
            parse_state_text("alpha = 0\nbeta = 0\nlambda = 0\nrho = 0\nnu = 1\n")

    def test_neither_rejected(self):
        with pytest.raises(DomainError):
            parse_state_text("lambda = 0\nrho = 0\nnu = 1\n")


COEFF_KEYS = ("mu", "lambda", "rho", "nu")
AMP_KEYS = ("alpha", "beta", "gamma", "delta")


def repr_text(keys, values):
    """A state file with every value written by repr."""
    return "".join(f"{key} = {value!r}\n" for key, value in zip(keys, values))


class TestRoundTrip:
    def test_bit_for_bit_reproduction(self):
        # Every float written with repr loads back bit for bit.
        coeffs = SuperpositionCoeffs(0.1 + 0.2, -0.1234567890123456,
                                     2.718281828459045, -1.0 / 3.0)
        overlaps = OverlapPair(0.6065306597126334, 1.0 - 2.0**-53)
        spec = parse_state_text(repr_text(COEFF_KEYS + ("p1", "p2"),
                                          astuple(coeffs) + (overlaps.p1, overlaps.p2)))
        assert spec == StateSpec(coeffs, overlaps)
        assert concurrence(spec.coeffs, spec.overlaps) == concurrence(coeffs, overlaps)

    def test_amplitude_round_trip(self):
        config = CoherentConfig(-1.0 / 7.0, 0.3, 1.0 + 2.0**-52, 1.3)
        coeffs = SuperpositionCoeffs(1.0, 0.3, 0.7, 0.21)
        spec = parse_state_text(repr_text(AMP_KEYS + COEFF_KEYS,
                                          astuple(config) + astuple(coeffs)))
        overlaps = OverlapPair.from_config(config)
        assert spec == StateSpec(coeffs, overlaps, config)
        assert concurrence(spec.coeffs, spec.overlaps) == concurrence(coeffs, overlaps)

    def test_load_state_file(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("p1 = 0.5\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\n")
        assert load_state_file(path).coeffs.nu == 1.0
        with pytest.raises(InputFileError, match="cannot read"):
            load_state_file(tmp_path / "absent.txt")

    @pytest.mark.parametrize("load", [load_state_file, load_scan_file])
    def test_file_that_is_not_utf8(self, tmp_path, load):
        path = tmp_path / "doc.txt"
        path.write_bytes(b"lambda = 0\n# caf\xe9\n")
        with pytest.raises(InputFileError, match=r"not UTF-8 text .*byte 0xe9") as info:
            load(path)
        # no OSError cause, so the CLI does not try a bundled config instead
        assert info.value.__cause__ is None


class TestParseScanText:
    FULL = (
        "lambda_min = -2\nlambda_max = 2\nlambda_steps = 11\n"
        "rho_min = -2\nrho_max = 2\nrho_steps = 11\n"
        "nu_min = 1\nnu_max = 1\nnu_steps = 1\n"
        "x_values = 0.2, 0.5\nthreshold = 0.99\nseed = 3\noracle_fraction = 0.5\n"
    )

    def test_full_document(self):
        config = parse_scan_text(self.FULL)
        assert config.lam_range == (-2.0, 2.0, 11)
        assert config.x_values == (0.2, 0.5)
        assert config.concurrence_threshold == 0.99
        assert config.seed == 3
        assert config.oracle_fraction == 0.5

    def test_defaults(self):
        text = "\n".join(
            line for line in self.FULL.splitlines()
            if not line.startswith(("threshold", "seed", "oracle_fraction"))
        )
        config = parse_scan_text(text)
        assert config.concurrence_threshold == 0.999
        assert config.seed == 0

    def test_missing_axis(self):
        with pytest.raises(InputFileError, match="nu_min"):
            parse_scan_text("\n".join(
                line for line in self.FULL.splitlines() if not line.startswith("nu_")
            ))

    def test_missing_x_values(self):
        with pytest.raises(InputFileError, match="x_values"):
            parse_scan_text("\n".join(
                line for line in self.FULL.splitlines()
                if not line.startswith("x_values")
            ))

    def test_bad_x_values(self):
        with pytest.raises(InputFileError, match="x_values"):
            parse_scan_text(self.FULL.replace("0.2, 0.5", "0.2, oops"))


class TestCatalog:
    def test_counts(self):
        states = example_states()
        assert len(states) == 15
        by_class = [s.expected for s in states]
        assert len(states) - by_class.count(Verdict.SEPARABLE) == 11
        assert by_class.count(Verdict.SEPARABLE) == 4
        assert by_class.count(Verdict.MAXIMAL_CLASS_A) == 6
        assert by_class.count(Verdict.MAXIMAL_CLASS_B) == 5

    def test_cat_states_share_amplitudes(self):
        cats = [s for s in example_states() if "(cat:" in s.label]
        assert len(cats) == 3
        for state in cats:
            assert state.config.beta == state.config.alpha
            assert state.config.delta == state.config.gamma

    def test_gap_bounds(self):
        with pytest.raises(DomainError):
            example_states(0.0)
        with pytest.raises(DomainError):
            example_states(360.0)

    def test_alternate_gap(self):
        states = example_states(2.0)
        x = math.exp(-1.0)
        sym = states[0]
        assert sym.coeffs.lam == pytest.approx(-x, abs=1e-15)
        assert sym.config.gamma == pytest.approx(math.sqrt(2.0), abs=1e-15)
