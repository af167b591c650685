"""Command-line front end.

Subcommands: concurrence, classify, examples, bell-limit, scan, oracle-check.
Exit codes: 0 success, 2 input error, 3 analytic/oracle inconsistency,
4 outside classification scope (p1 != p2), 5 disjointness violation in a scan.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from .analytic import SuperpositionCoeffs, concurrence, gram_norm_squared
from .analytic import orthonormal_amplitudes, require_unit_mu
from .catalog import example_states
from .classify import VERDICTS, Verdict, classify, classify_columns
from .coherent import CoherentConfig, OverlapPair
from .errors import (
    CohentError,
    ConsistencyError,
    DomainError,
    InputFileError,
    ScopeError,
    TruncationError,
)
from .oracle import build_state, oracle_concurrence
from .scan import run_scan
from .statespec import load_scan_file, load_state_file, parse_scan_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_SCOPE = 4
EXIT_DISJOINTNESS = 5

# Oracle disagreement beyond this on a single CLI computation is treated as
# an internal inconsistency rather than expected float noise.
SINGLE_STATE_ORACLE_TOL = 1e-6

_KEY_WIDTH = 26


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(pairs: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in pairs}, indent=2, allow_nan=False))
    else:
        for key, value in pairs:
            print(f"{key:<{_KEY_WIDTH}} {_fmt(value)}")


def cmd_concurrence(args) -> int:
    spec = load_state_file(args.spec)
    coeffs = spec.coefficients()
    overlaps = spec.overlaps()
    amps = orthonormal_amplitudes(coeffs, overlaps)
    c_analytic = concurrence(coeffs, overlaps)
    pairs: list[tuple[str, object]] = [
        ("analytic_concurrence", c_analytic),
        ("amplitude_a", amps.a),
        ("amplitude_b", amps.b),
        ("amplitude_c", amps.c),
        ("amplitude_d", amps.d),
        ("norm", amps.norm),
        ("p1", overlaps.p1),
        ("p2", overlaps.p2),
    ]
    outside = [name for name, value in pairs if not math.isfinite(value)]
    if outside:
        raise DomainError(f"{', '.join(outside)} overflow the float range; "
                          "scale all four coefficients down")
    status = EXIT_OK
    if spec.has_amplitudes:
        c_oracle = oracle_concurrence(spec.config(), coeffs, spec.truncation)
        diff = abs(c_oracle - c_analytic)
        pairs += [("oracle_concurrence", c_oracle), ("oracle_diff", diff)]
        if diff > SINGLE_STATE_ORACLE_TOL:
            status = EXIT_INCONSISTENT
    _emit(pairs, args.json)
    if status != EXIT_OK:
        print(
            f"error: analytic and oracle concurrence disagree beyond "
            f"{SINGLE_STATE_ORACLE_TOL}",
            file=sys.stderr,
        )
    return status


def cmd_classify(args) -> int:
    spec = load_state_file(args.spec)
    coeffs = spec.coefficients()
    require_unit_mu(coeffs)
    overlaps = spec.overlaps()
    if abs(overlaps.p1 - overlaps.p2) > 1e-12:
        raise ScopeError(
            f"classification covers equal overlaps only; got p1 = {overlaps.p1!r}, "
            f"p2 = {overlaps.p2!r}"
        )
    result = classify(coeffs, overlaps.p1, args.tol)
    _emit(
        [
            ("verdict", result.verdict.value),
            ("concurrence", result.concurrence),
            ("class_a_residual", result.class_a_residual),
            ("class_b_residual", result.class_b_residual),
            ("separability_residual", result.separability_residual),
            ("x", overlaps.p1),
            ("tol", args.tol),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_examples(args) -> int:
    states = example_states(args.gap_squared)
    x = math.exp(-0.5 * args.gap_squared)
    rows = []
    failures = []
    for state in states:
        overlaps = OverlapPair.from_config(state.config)
        c_analytic = concurrence(state.coeffs, overlaps)
        c_oracle = oracle_concurrence(state.config, state.coeffs, args.truncation)
        verdict = classify(state.coeffs, overlaps.common_value(), args.tol).verdict
        if state.expected is Verdict.SEPARABLE:
            ok = c_analytic <= 1e-10 and c_oracle <= 1e-8
        else:
            ok = abs(c_analytic - 1.0) <= 1e-10 and abs(c_oracle - 1.0) <= 1e-8
        ok = ok and verdict is state.expected
        if not ok:
            failures.append(state.label)
        rows.append(
            {
                "label": state.label,
                "lambda": state.coeffs.lam,
                "rho": state.coeffs.rho,
                "nu": state.coeffs.nu,
                "analytic_concurrence": c_analytic,
                "oracle_concurrence": c_oracle,
                "verdict": verdict.value,
                "ok": ok,
            }
        )
    if args.json:
        print(json.dumps({"gap_squared": args.gap_squared, "x": x, "states": rows},
                         indent=2))
    else:
        print(f"reference states at (alpha-gamma)^2 = {_fmt(args.gap_squared)} "
              f"(x = {_fmt(x)})")
        for row in rows:
            print(
                f"{'ok' if row['ok'] else 'FAIL':4} {row['label']:<50} "
                f"C(analytic)={row['analytic_concurrence']:.12f} "
                f"C(oracle)={row['oracle_concurrence']:.12f} {row['verdict']}"
            )
    if failures:
        print(f"error: {len(failures)} reference state(s) failed reproduction: "
              f"{', '.join(failures)}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_bell_limit(args) -> int:
    x = args.x_small
    if not 0.0 < x <= 1e-4:
        raise DomainError(f"x-small must lie in (0, 1e-4], got {x}")
    lam = args.lam
    # 1 / sqrt(2 (1 + lam^2)), without forming a multiple of lam above |lam|,
    # which may overflow; exact at lam = 0 and 1
    scale = 0.5 / math.hypot(math.sqrt(0.5), math.sqrt(0.5) * lam)
    # The normalized amplitudes are unchanged by a common power of two; this
    # one keeps the amplitudes and N finite when lam nears the float range.
    shift = max(0, math.frexp(lam)[1] - 500)
    one, lam_c = math.ldexp(1.0, -shift), math.ldexp(lam, -shift)
    families = [
        ("class_a", SuperpositionCoeffs(one, lam_c, -lam_c, one),
         (lam * scale, scale, scale, -lam * scale)),
        ("class_b", SuperpositionCoeffs(one, lam_c, lam_c, -one - lam_c * (2.0 * x)),
         (lam * scale, scale, -scale, lam * scale)),
    ]
    payload = {"lambda": lam, "x_small": x}
    pairs: list[tuple[str, object]] = [("lambda", lam), ("x_small", x)]
    for name, coeffs, target in families:
        amps = orthonormal_amplitudes(coeffs, OverlapPair(x, x))
        normalized = tuple(v / amps.norm for v in (amps.a, amps.b, amps.c, amps.d))
        deviation = max(abs(g - t) for g, t in zip(normalized, target))
        payload[name] = {
            "amplitudes": list(normalized),
            "target": list(target),
            "max_deviation": deviation,
        }
        for i, component in enumerate("abcd"):
            pairs.append((f"{name}_{component}", normalized[i]))
        pairs.append((f"{name}_max_deviation", deviation))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _emit(pairs, False)
    return EXIT_OK


def _resolve_scan_config(path: str):
    try:
        return load_scan_file(path)
    except InputFileError as err:
        if "cannot read" not in str(err):
            raise
    packaged = resources.files("cohent").joinpath("configs").joinpath(path)
    try:
        text = packaged.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise InputFileError(
            f"cannot read {path} (not a file, and no bundled config of that name)"
        ) from None
    return parse_scan_text(text)


# Rows end in \r\n, as csv.writer ends them.  A row holds seven
# 17-significant-digit floats and the verdict, none of which needs quoting.
_CSV_HEADER = "lambda,rho,nu,x,concurrence,class_a_residual,class_b_residual,verdict\r\n"
_CSV_ROW = ",".join(["%.17g"] * 7 + ["%s"]) + "\r\n"

# Rows are formatted this many at a time, so the Python floats in flight
# stay few however many hits a scan has.
_CSV_BLOCK = 256


def write_records_csv(hits, path, tol: float) -> None:
    res_a, res_b, _, codes = classify_columns(hits.lam, hits.rho, hits.nu, hits.x, tol)
    names = [verdict.value for verdict in VERDICTS]
    columns = (hits.lam, hits.rho, hits.nu, hits.x, hits.concurrence, res_a, res_b)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_CSV_HEADER)
        for start in range(0, len(codes), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            handle.writelines(
                _CSV_ROW % (*row, names[code])
                for *row, code in zip(*(column[block].tolist() for column in columns),
                                      codes[block].tolist())
            )


def cmd_scan(args) -> int:
    config = _resolve_scan_config(args.config)
    outcome = run_scan(config, verify_tol=args.tol)
    write_records_csv(outcome.hits, args.out, args.tol)
    if args.json:
        print(json.dumps(
            {
                "grid_points": config.total_points(),
                "grid_evaluated": outcome.n_grid_evaluated,
                "grid_rows_bounded": outcome.n_grid_rows_bounded,
                "grid_rows_kept": outcome.n_grid_rows_kept,
                "hits": outcome.n_grid_hits,
                "refined": outcome.n_refined,
                "class_a": outcome.report.n_class_a,
                "class_b": outcome.report.n_class_b,
                "oracle_checked": outcome.oracle_checked,
                "max_oracle_diff": outcome.max_oracle_diff,
                "disjoint": outcome.report.passed,
                "out": str(args.out),
            },
            indent=2,
        ))
    else:
        print(f"scanned {config.total_points()} grid points "
              f"({outcome.n_grid_evaluated} evaluated): "
              f"{outcome.n_grid_hits} hits, {outcome.n_refined} refined")
        print(f"bounded {outcome.n_grid_rows_bounded} (lambda, rho, x) rows, "
              f"kept {outcome.n_grid_rows_kept}")
        print(f"oracle spot-checked {outcome.oracle_checked} records, "
              f"max |analytic - oracle| = {_fmt(outcome.max_oracle_diff)}")
        print(outcome.report.summary())
        print(f"records written to {args.out}")
    return EXIT_OK if outcome.report.passed else EXIT_DISJOINTNESS


def cmd_oracle_check(args) -> int:
    if args.spec is None and args.trials is None:
        raise DomainError("supply a state file, or --trials N for a random sweep")
    if args.trials is not None and args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    if not (math.isfinite(args.max_diff) and args.max_diff >= 0):
        raise DomainError(f"--max-diff must be a finite number >= 0, got {args.max_diff}")
    worst = 0.0
    norm_worst = 0.0
    checked = 0
    if args.spec is not None:
        spec = load_state_file(args.spec)
        if not spec.has_amplitudes:
            raise DomainError("oracle-check needs amplitudes, not overlaps")
        coeffs = spec.coefficients()
        c_analytic = concurrence(coeffs, spec.overlaps())
        c_oracle = oracle_concurrence(spec.config(), coeffs, spec.truncation)
        worst = abs(c_analytic - c_oracle)
        checked = 1
    else:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            while True:
                alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, size=4)
                if abs(alpha - gamma) > 1e-9 and abs(beta - delta) > 1e-9:
                    break
            lam, rho, nu = rng.uniform(-3.0, 3.0, size=3)
            config = CoherentConfig(alpha, beta, gamma, delta)
            coeffs = SuperpositionCoeffs(1.0, lam, rho, nu)
            overlaps = OverlapPair.from_config(config)
            state = build_state(config, coeffs, args.truncation)
            c_analytic = concurrence(coeffs, overlaps)
            c_oracle = oracle_concurrence(config, coeffs, args.truncation)
            worst = max(worst, abs(c_analytic - c_oracle))
            norm_worst = max(
                norm_worst,
                abs(state.norm_before_normalization**2
                    - gram_norm_squared(coeffs, overlaps)),
            )
            checked += 1
    pairs = [
        ("states_checked", checked),
        ("max_concurrence_diff", worst),
        ("max_norm_sq_diff", norm_worst),
        ("max_allowed_diff", args.max_diff),
    ]
    _emit(pairs, args.json)
    if worst > args.max_diff or norm_worst > args.max_diff:
        print("error: oracle disagreement beyond the allowed bound", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohent",
        description="Concurrence and entanglement classification for two-qubit "
                    "states built from real coherent-state amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concurrence", help="analytic concurrence of one state, "
                                           "oracle-checked when amplitudes are given")
    p.add_argument("spec", help="state file (key = value lines)")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("classify", help="verdict and residuals at p1 = p2")
    p.add_argument("spec", help="state file (key = value lines)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("examples", help="reproduce the reference maximal and "
                                        "separable states")
    p.add_argument("--gap-squared", type=float, default=1.0,
                   help="(alpha - gamma)^2 used to instantiate the states")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("bell-limit", help="orthonormal amplitudes of both "
                                          "families at a vanishing overlap")
    p.add_argument("--lam", type=float, default=0.0, help="free family parameter")
    p.add_argument("--x-small", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bell_limit)

    p = sub.add_parser("scan", help="grid scan + refinement + disjointness report")
    p.add_argument("config", help="scan config file, or the name of a bundled one "
                                  "(theorem_check.cfg)")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle-check", help="compare analytic and brute-force "
                                            "concurrence")
    p.add_argument("spec", nargs="?", default=None,
                   help="state file with amplitudes (omit when using --trials)")
    p.add_argument("--trials", type=int, default=None,
                   help="number of random states to draw instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--max-diff", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFileError, DomainError, TruncationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ScopeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCOPE
    except ConsistencyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except CohentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
