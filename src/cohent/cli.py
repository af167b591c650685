"""Command-line front end.

Subcommands: concurrence, classify, examples, bell-limit, scan, oracle-check.
Exit codes: 0 success, 2 input error (an unreadable or invalid input file, an
unwritable output file, or a closed stdout among them), 3 analytic/oracle
inconsistency, 5 a scan hit outside the theorem's two-sided bound.

`classify` answers at any overlaps (p1, p2), on cohent.classify's planes:
(a + d, b - c) = M_a P_a v and (a - d, b + c) = M_b P_b v, the squared singular
values of M_a and M_b being 1 +- p1 and 1 +- p2.  `scan` stays at p1 = p2 = x.

Every oracle value comes from oracle.oracle_concurrences, the one comparison
with the closed form's C, which names the earliest state to fail (the closed
form's error first on one state) before any output; errors name their state.
Each command builds one payload dict; `_emit`, the one printer, refuses a
non-finite value in it and prints it as JSON or as the command's text.
`scan`'s payload is the report that scan.run_scan builds, plus the CSV path;
its CSV holds each hit's coordinates, C and verify's family, the one
classification a hit gets.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from importlib import resources

import numpy as np

from .analytic import SuperpositionCoeffs, concurrence, concurrence_and_norm_sq
from .analytic import _at, _unit_ray, orthonormal_amplitudes
from .catalog import example_states
from .classify import DEFAULT_TOL, Verdict, classify
from .coherent import OverlapPair, distinct, half_gaps, overlap_columns
from .errors import CohentError, ConsistencyError, DegenerateStateError, DomainError
from .errors import InputFileError, indexed
from .oracle import oracle_concurrences
from .scan import FAMILIES, run_scan
from .statespec import load_scan_file, load_state_file, parse_scan_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_DISJOINTNESS = 5

# Oracle disagreement beyond this on a single CLI computation is treated as
# an internal inconsistency rather than expected float noise.
SINGLE_STATE_ORACLE_TOL = 1e-6

# `oracle-check` fails when a random state's C or N^2 differs by more than
# this between the closed form and the oracle.
SWEEP_ORACLE_TOL = 1e-8

_KEY_WIDTH = 26


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _non_finite_keys(value, key: str = "") -> list[str]:
    """The paths (`states[0].oracle_concurrence`) of the non-finite floats
    in an output payload."""
    if isinstance(value, dict):
        return [path for name, item in value.items()
                for path in _non_finite_keys(item, f"{key}.{name}" if key else name)]
    if isinstance(value, list):
        return [path for i, item in enumerate(value)
                for path in _non_finite_keys(item, f"{key}[{i}]")]
    return [key] if isinstance(value, float) and not math.isfinite(value) else []


def _check_finite(payload: dict, advice: str = "") -> None:
    """Raise DomainError naming every non-finite value of `payload`, so that
    no output, JSON or text, carries one."""
    outside = _non_finite_keys(payload)
    if outside:
        raise DomainError(f"{', '.join(outside)} overflow the float range{advice}")


# Refusal advice for the commands whose values grow with the coefficients.
_SCALE_ADVICE = "; scale all four coefficients down"


def _aligned(pairs) -> str:
    return "\n".join(f"{key:<{_KEY_WIDTH}} {_fmt(value)}" for key, value in pairs)


def _emit(payload: dict, as_json: bool, text: str | None = None,
          advice: str = "") -> None:
    """Refuse a non-finite value of `payload` (_check_finite), then print it
    as JSON, or as `text`, or else as aligned `key value` lines."""
    _check_finite(payload, advice)
    if as_json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(_aligned(payload.items()) if text is None else text)


def cmd_concurrence(args) -> int:
    spec = load_state_file(args.spec)
    c_analytic = concurrence(spec.coeffs, spec.overlaps)
    amps = orthonormal_amplitudes(spec.coeffs, spec.overlaps)
    payload = {
        "analytic_concurrence": c_analytic,
        "amplitude_a": amps.a,
        "amplitude_b": amps.b,
        "amplitude_c": amps.c,
        "amplitude_d": amps.d,
        "norm": amps.norm,
        "p1": spec.overlaps.p1,
        "p2": spec.overlaps.p2,
    }
    if spec.config is not None:
        c_oracle = oracle_concurrences(
            *spec.config.half_gaps, spec.coeffs.mu, spec.coeffs.lam, spec.coeffs.rho,
            spec.coeffs.nu, expected=[c_analytic], tol=SINGLE_STATE_ORACLE_TOL)[0].item()
        payload["oracle_concurrence"] = c_oracle
        payload["oracle_diff"] = abs(c_oracle - c_analytic)
    _emit(payload, args.json, advice=_SCALE_ADVICE)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = load_state_file(args.spec)
    result = classify(spec.coeffs, spec.overlaps, args.tol)
    payload = {
        "verdict": result.verdict.value,
        "concurrence": result.concurrence,
        "class_a_residual": result.class_a_residual,
        "class_b_residual": result.class_b_residual,
        "separability_residual": result.separability_residual,
        "p1": spec.overlaps.p1,
        "p2": spec.overlaps.p2,
        "tol": args.tol,
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_examples(args) -> int:
    states = example_states(args.gap_squared)
    x = math.exp(-0.5 * args.gap_squared)
    # The states are classified up to the first that fails, and its error
    # goes to the oracle, which raises the earliest state's to fail either.
    results, failure = [], None
    for i, state in enumerate(states):
        try:
            results.append(classify(state.coeffs, OverlapPair.from_config(state.config)))
        except (ConsistencyError, DegenerateStateError) as err:
            failure = indexed(err, i)
            break
    try:
        oracle, _ = oracle_concurrences(*zip(*(
            (*state.config.half_gaps, state.coeffs.mu, state.coeffs.lam,
             state.coeffs.rho, state.coeffs.nu) for state in states)), failure=failure)
    except (ConsistencyError, DegenerateStateError) as err:
        raise type(err)(f"examples: {states[err.index].label}: {err}") from err
    rows = []
    for state, result, c_oracle in zip(states, results, oracle.tolist()):
        target = 0.0 if state.expected is Verdict.SEPARABLE else 1.0
        ok = (abs(result.concurrence - target) <= 1e-10
              and abs(c_oracle - target) <= 1e-8 and result.verdict is state.expected)
        rows.append(
            {
                "label": state.label,
                "lambda": state.coeffs.lam,
                "rho": state.coeffs.rho,
                "nu": state.coeffs.nu,
                "analytic_concurrence": result.concurrence,
                "oracle_concurrence": c_oracle,
                "verdict": result.verdict.value,
                "ok": ok,
            }
        )
    failures = [row["label"] for row in rows if not row["ok"]]
    payload = {"gap_squared": args.gap_squared, "x": x, "states": rows}
    text = "\n".join([
        f"reference states at (alpha-gamma)^2 = {_fmt(args.gap_squared)} "
        f"(x = {_fmt(x)})",
        *(f"{'ok' if row['ok'] else 'FAIL':4} {row['label']:<50} "
          f"C(analytic)={row['analytic_concurrence']:.12f} "
          f"C(oracle)={row['oracle_concurrence']:.12f} {row['verdict']}"
          for row in rows),
    ])
    _emit(payload, args.json, text)
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
    # The normalized amplitudes are unchanged on the unit ray, where the
    # amplitudes and N stay finite when lam nears the float range.
    families = [
        ("class_a", (1.0, lam, -lam, 1.0), (lam * scale, scale, scale, -lam * scale)),
        ("class_b", (1.0, lam, lam, -1.0 - lam * (2.0 * x)),
         (lam * scale, scale, -scale, lam * scale)),
    ]
    payload = {"lambda": lam, "x_small": x}
    for name, coeffs, target in families:
        amps = orthonormal_amplitudes(SuperpositionCoeffs(*_unit_ray(*coeffs)[:4]),
                                      OverlapPair(x, x))
        normalized = [v / amps.norm for v in (amps.a, amps.b, amps.c, amps.d)]
        payload[name] = {
            "amplitudes": normalized,
            "target": list(target),
            "max_deviation": max(abs(g - t) for g, t in zip(normalized, target)),
        }
    # Each family's amplitudes and deviation, as `class_a_a` ... lines.
    text = _aligned([("lambda", lam), ("x_small", x), *(
        (f"{name}_{part}", value) for name, _, _ in families
        for part, value in zip([*"abcd", "max_deviation"],
                               [*payload[name]["amplitudes"],
                                payload[name]["max_deviation"]]))])
    _emit(payload, args.json, text)
    return EXIT_OK


def _resolve_scan_config(path: str):
    try:
        return load_scan_file(path)
    except InputFileError as err:
        # Only a path that cannot be opened may name a bundled config.
        if not isinstance(err.__cause__, OSError):
            raise
    packaged = resources.files("cohent").joinpath("configs").joinpath(path)
    try:
        text = packaged.read_text(encoding="utf-8")
    except OSError:
        raise InputFileError(
            f"cannot read {path} (not a file, and no bundled config of that name)"
        ) from None
    return parse_scan_text(text)


# Rows end in \r\n, as csv.writer ends them.  A row holds five
# 17-significant-digit floats and the family, none of which needs quoting.
_CSV_HEADER = "lambda,rho,nu,x,concurrence,family\r\n"

# Rows are joined this many at a time, so the Python strings in flight
# stay few however many hits a scan has.
_CSV_BLOCK = 256


def _float_texts(column):
    """The "%.17g" text of each distinct value of a float column, once each,
    and the index of every row's text.  Values are told apart by their bits,
    so -0.0 still prints as "-0" beside 0.0."""
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(["%.17g" % value for value in bits.view(np.float64).tolist()],
                     dtype=object)
    return texts, index


def write_records_csv(hits, family, path) -> None:
    """One row per hit: its coordinates and C, and its family, named by its
    code in `family` (an index into scan.FAMILIES).  The rows replace `path`
    only once all are written (see _replacing)."""
    # Scan columns repeat their values (the grid axes, x, C = 1), so each
    # distinct value is formatted once and rows index it.
    columns = [_float_texts(column) for column in
               (hits.lam, hits.rho, hits.nu, hits.x, hits.concurrence)]
    columns.append((np.array([name + "\r\n" for name in FAMILIES], dtype=object),
                    family))
    try:
        with _replacing(path) as handle:
            handle.write(_CSV_HEADER)
            for start in range(0, len(hits), _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                fields = [texts[index[block]].tolist() for texts, index in columns]
                handle.writelines(map(",".join, zip(*fields)))
    except OSError as err:
        raise InputFileError(f"cannot write {path}: {err.strerror}") from None


@contextlib.contextmanager
def _replacing(path):
    """A text handle for the new contents of `path`.

    They go to a temporary file beside the file `path` names (through any
    symlink), renamed over it once the block ends without error, so a write
    that fails leaves an existing file as it was and no new one.  The
    renamed file keeps an existing file's permission bits and group.  A
    file that a rename would change otherwise (see _renamable), or whose
    directory takes no new file, is written in place by open(path, "w")."""
    target = os.path.realpath(path)
    try:
        info = os.stat(target)
    except FileNotFoundError:
        info = None
    temp = None
    if info is None or _renamable(info, target):
        try:
            fd, temp = _temp_beside(target)
        except OSError:
            if info is None:
                raise
    if temp is None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
        return
    try:
        with open(fd, "w", newline="", encoding="utf-8") as handle:
            if info is not None:  # the group first: a chown clears set-id bits
                os.fchown(fd, -1, info.st_gid)
                os.fchmod(fd, stat.S_IMODE(info.st_mode))
            yield handle
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _renamable(info, path) -> bool:
    """Whether a new file renamed over `path`, whose stat is `info`, can keep
    all that open(path, "w") keeps: `path` is a regular file with one link,
    this process's own, in one of its groups, with no access control list."""
    if not (stat.S_ISREG(info.st_mode) and info.st_nlink == 1
            and info.st_uid == os.geteuid()
            and info.st_gid in (os.getegid(), *os.getgroups())):
        return False
    try:
        return not any(name.startswith("system.posix_acl_")
                       for name in os.listxattr(path))
    except OSError:  # a file system without extended attributes
        return True


def _temp_beside(path):
    """A new, empty file in `path`'s directory, as (descriptor, name).  The
    kernel gives it 0o666 less the umask, as open(path, "w") gives a new file."""
    temp = os.path.join(os.path.dirname(path), f".{os.urandom(6).hex()}.csv.tmp")
    return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp


def _check_writable(path) -> None:
    """Raise InputFileError now if `path` cannot be written: an existing file
    must open for writing (for append, which leaves it as it is), and a new
    one needs a file in its directory, which the check makes and removes."""
    try:
        if os.path.exists(path):
            with open(path, "a", encoding="utf-8"):
                pass
        else:
            fd, temp = _temp_beside(os.path.realpath(path))
            os.close(fd)
            os.remove(temp)
    except OSError as err:
        raise InputFileError(f"cannot write {path}: {err.strerror}") from None


def cmd_scan(args) -> int:
    config = _resolve_scan_config(args.config)
    _check_writable(args.out)
    hits, family, report = run_scan(config)
    payload = {**report, "out": str(args.out)}
    _check_finite(payload)  # before the CSV, so that an error leaves no file
    write_records_csv(hits, family, args.out)
    ratio, violations = payload["worst_lower_bound_ratio"], payload["violations"]
    # verify's line, or its first 20 violations and a count of the rest
    verify = [f"verify: classes disjoint: {payload['hits']} records "
              f"({payload['class_a']} class a, {payload['class_b']} class b, "
              f"{payload['ambiguous']} ambiguous), 0 violations, worst lower-bound "
              f"ratio {'none' if ratio is None else _fmt(ratio)}"]
    if violations:
        verify = [f"verify: DISJOINTNESS VIOLATED: {len(violations)} of "
                  f"{payload['hits']} records outside the two-sided bound", *(
                      f"  {v['reason']}: {_at(v['lambda'], v['rho'], v['nu'], v['x'])} "
                      f"C={v['concurrence']!r}" for v in violations[:20])]
        if len(violations) > 20:
            verify.append(f"  ... and {len(violations) - 20} more")
    text = "\n".join([
        f"scanned {payload['grid_points']} grid points "
        f"({payload['grid_evaluated']} evaluated): {payload['hits']} hits",
        f"bounded {payload['grid_rows_bounded']} (lambda, rho, x) rows, "
        f"kept {payload['grid_rows_kept']}",
        f"oracle spot-checked {payload['oracle_checked']} records, "
        f"max |analytic - oracle| = {_fmt(payload['max_oracle_diff'])}",
        *verify,
        f"records written to {payload['out']}",
    ])
    _emit(payload, args.json, text)
    return EXIT_OK if payload["disjoint"] else EXIT_DISJOINTNESS


# The sweep draws, checks and compares this many trials at a time, so its
# columns take a few hundred KB however many trials it runs.  Each chunk pays
# one oracle call's set-up, and a partly filled last stack in each of up to
# 64 (T1, T2) shapes.
_SWEEP_CHUNK = 2048

# Each trial draws alpha, beta, gamma, delta from [-2, 2), then lambda, rho,
# nu from [-3, 3); mu = 1.
_SWEEP_LOW = [-2.0] * 4 + [-3.0] * 3
_SWEEP_HIGH = [2.0] * 4 + [3.0] * 3
_SWEEP_NAMES = ("alpha", "beta", "gamma", "delta", "lambda", "rho", "nu")


def _sweep_diffs(rows, first_trial: int) -> tuple[float, float]:
    """The largest |analytic - oracle| difference in C and in N^2 over
    `rows` of drawn trials, the first of them trial `first_trial`.

    oracle_concurrences compares each C and names the earliest trial to
    fail; the closed form's C of the trials before its own failure, if any,
    takes one more kernel call.  N^2 is compared after that call.  An error
    names its trial and its values.
    """
    alpha, beta, gamma, delta, lam, rho, nu = rows.T
    (p1, c1), (p2, c2) = overlap_columns(alpha, gamma), overlap_columns(delta, beta)
    columns = (lam, rho, nu, p1, p2, np.sqrt(c1), np.sqrt(c2))
    failure = None
    try:
        c_analytic, n_sq = concurrence_and_norm_sq(1.0, *columns)
    except (ConsistencyError, DegenerateStateError) as err:
        failure = err
        c_analytic, n_sq = concurrence_and_norm_sq(
            1.0, *(column[:err.index] for column in columns))
    try:
        c_oracle, norm = oracle_concurrences(
            *half_gaps(alpha, beta, gamma, delta), 1.0, lam, rho, nu,
            expected=c_analytic, tol=SWEEP_ORACLE_TOL, failure=failure)
        norm_diff = abs(norm * norm - n_sq)
        off = np.flatnonzero(~(norm_diff <= SWEEP_ORACLE_TOL))  # so NaN fails
        if len(off):
            raise indexed(ConsistencyError("oracle N^2 disagrees with the closed "
                                           f"form by {norm_diff[off[0]]:.3e}"), off[0])
    except (ConsistencyError, DegenerateStateError) as err:
        at = " ".join(f"{name}={value!r}" for name, value in zip(
            _SWEEP_NAMES, rows[err.index].tolist()))
        raise type(err)(
            f"oracle-check trial {first_trial + err.index}: {err} at {at}") from err
    return (np.max(abs(c_analytic - c_oracle), initial=0.0).item(),
            np.max(norm_diff, initial=0.0).item())


def cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    worst = norm_worst = 0.0
    done = 0
    while done < args.trials:
        # One row of seven draws a trial: the stream that per-trial draws of
        # four and then three values take.  A row whose pairs CoherentConfig
        # would refuse as not distinct is dropped, and the next chunk draws
        # in its place.
        rows = rng.uniform(_SWEEP_LOW, _SWEEP_HIGH,
                           size=(min(_SWEEP_CHUNK, args.trials - done), 7))
        rows = rows[distinct(rows[:, 0], rows[:, 2]) & distinct(rows[:, 1], rows[:, 3])]
        diff, norm_diff = _sweep_diffs(rows, done + 1)
        worst, norm_worst = max(worst, diff), max(norm_worst, norm_diff)
        done += len(rows)
    payload = {"states_checked": args.trials, "max_concurrence_diff": worst,
               "max_norm_sq_diff": norm_worst, "max_allowed_diff": SWEEP_ORACLE_TOL}
    _emit(payload, args.json, advice=_SCALE_ADVICE)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cohent",
        description="Concurrence and entanglement classification for two-qubit "
                    "states built from real coherent-state amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concurrence", help="analytic concurrence of one state, "
                                           "oracle-checked when amplitudes are given")
    p.add_argument("spec", help="state file (key = value lines)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("classify", help="verdict and residuals of one state")
    p.add_argument("spec", help="state file (key = value lines)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("examples", help="reproduce the reference maximal and "
                                        "separable states")
    p.add_argument("--gap-squared", type=float, default=1.0,
                   help="(alpha - gamma)^2 used to instantiate the states")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("bell-limit", help="orthonormal amplitudes of both "
                                          "families at a vanishing overlap")
    p.add_argument("--lam", type=float, default=0.0, help="free family parameter")
    p.add_argument("--x-small", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bell_limit)

    p = sub.add_parser("scan", help="grid scan, the theorem's bound tested on "
                                    "every hit, oracle spot check")
    p.add_argument("config", help="scan config file, or the name of a bundled one "
                                  "(theorem_check.cfg)")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle-check", help="compare analytic and brute-force "
                                            "concurrence on random states")
    p.add_argument("--trials", type=int, required=True,
                   help="number of random states to draw")
    p.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help's text, so that a closed stdout fails here
            raise
        status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return status
    except CohentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT if isinstance(err, ConsistencyError) else EXIT_INPUT
    except BrokenPipeError:
        # Nothing reads stdout any more (as with `| head`).  Point it at
        # devnull, so that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to standard output: the pipe is closed",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
