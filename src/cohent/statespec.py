"""Plain-text input documents: one `key = value` assignment per line.

Two document kinds share the format: a state spec (coefficients plus either
four amplitudes or two overlaps) and a scan config (grid ranges).  Each parses
straight into the validated objects the commands use; a float written with
repr loads back bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coherent import CoherentConfig, OverlapPair
from .analytic import SuperpositionCoeffs
from .errors import DomainError, InputFileError
from .scan import ScanConfig

_STATE_KEYS = {
    "alpha", "beta", "gamma", "delta", "p1", "p2",
    "mu", "lambda", "rho", "nu",
}

_SCAN_KEYS = {
    "lambda_min", "lambda_max", "lambda_steps",
    "rho_min", "rho_max", "rho_steps",
    "nu_min", "nu_max", "nu_steps",
    "x_values", "threshold", "seed", "oracle_fraction",
}


def _parse_assignments(text: str, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFileError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in allowed:
            raise InputFileError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputFileError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise InputFileError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputFileError(f"key {key!r}: {value!r} is not a number") from None


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputFileError(f"key {key!r}: {value!r} is not an integer") from None


@dataclass(frozen=True)
class StateSpec:
    """One input state, validated: its coefficients and overlaps and, when
    the file gives amplitudes, their config (None for an overlap file)."""

    coeffs: SuperpositionCoeffs
    overlaps: OverlapPair
    config: CoherentConfig | None = None


def parse_state_text(text: str) -> StateSpec:
    values = _parse_assignments(text, _STATE_KEYS)
    for key in ("lambda", "rho", "nu"):
        if key not in values:
            raise InputFileError(f"missing required key {key!r}")
    number = {key: _as_float(key, value) for key, value in values.items()}
    amps = [number.get(key) for key in ("alpha", "beta", "gamma", "delta")]
    pair = [number.get(key) for key in ("p1", "p2")]
    if amps.count(None) not in (0, 4):
        raise DomainError(
            "amplitudes must be given all together (alpha, beta, gamma, delta)"
        )
    if pair.count(None) == 1:
        raise DomainError("overlaps must be given together (p1 and p2)")
    if (None in amps) == (None in pair):
        raise DomainError(
            "exactly one of {alpha,beta,gamma,delta} or {p1,p2} must be present"
        )
    coeffs = SuperpositionCoeffs(number.get("mu", 1.0), number["lambda"],
                                 number["rho"], number["nu"])
    if None in amps:
        return StateSpec(coeffs, OverlapPair(*pair))
    config = CoherentConfig(*amps)
    return StateSpec(coeffs, OverlapPair.from_config(config), config)


def read_document(path) -> str:
    """The text of the UTF-8 file at `path`.

    Raises InputFileError if the file cannot be opened, caused by the
    OSError, or if it is not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputFileError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise InputFileError(f"cannot read {path}: not UTF-8 text ({err})") from None


def load_state_file(path) -> StateSpec:
    return parse_state_text(read_document(path))


def parse_scan_text(text: str) -> ScanConfig:
    values = _parse_assignments(text, _SCAN_KEYS)

    def axis(name: str) -> tuple[float, float, int]:
        missing = [
            f"{name}_{part}" for part in ("min", "max", "steps")
            if f"{name}_{part}" not in values
        ]
        if missing:
            raise InputFileError(f"missing scan keys: {', '.join(missing)}")
        return (
            _as_float(f"{name}_min", values[f"{name}_min"]),
            _as_float(f"{name}_max", values[f"{name}_max"]),
            _as_int(f"{name}_steps", values[f"{name}_steps"]),
        )

    lam = axis("lambda")
    rho = axis("rho")
    nu = axis("nu")
    if "x_values" not in values:
        raise InputFileError("missing scan key 'x_values'")
    try:
        x_values = tuple(
            float(part) for part in values["x_values"].replace(",", " ").split()
        )
    except ValueError:
        raise InputFileError(
            f"x_values: {values['x_values']!r} is not a list of numbers"
        ) from None
    kwargs = {}
    if "threshold" in values:
        kwargs["concurrence_threshold"] = _as_float("threshold", values["threshold"])
    if "seed" in values:
        kwargs["seed"] = _as_int("seed", values["seed"])
    if "oracle_fraction" in values:
        kwargs["oracle_fraction"] = _as_float(
            "oracle_fraction", values["oracle_fraction"]
        )
    return ScanConfig(lam_range=lam, rho_range=rho, nu_range=nu,
                      x_values=x_values, **kwargs)


def load_scan_file(path) -> ScanConfig:
    return parse_scan_text(read_document(path))
