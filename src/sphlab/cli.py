"""Batch command-line front end for the verification surveys.

One command per process; every randomized command requires an explicit
seed, and output is CSV written once at the end (stdout or --out).  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 infeasible
scale.  ``sphlab COMMAND --flag value --flag=value ...`` is read by the
tables ``_FLAGS`` and ``_COMMANDS``, not argparse, whose parser took a cold
command about 5 ms to build: whole flag names only, booleans by presence.
"""

from __future__ import annotations

import datetime
import hashlib
import importlib.resources
import math
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from .errors import InfeasibleScale, RegimeViolation, SphlabError
from .gauss import decompose_arcs, verify_gauss_identities
from .lattice import SphereSpec, _ratio_from_count, sphere_counts, surface_measure
from .ncmax import empirical_maximal_ratio, order_interval_majorants, random_hermitian_stack
from .fields import MAX_SITES, DyadicRange
from .symbols import _survey_points, fit_small_scale_constant, residual_survey

GAUSS_SUM_TOL = 1e-10
GAUSS_BOUND_TOL = 1e-12
MAXRATIO_REGRESSION_TOL = 1e-8


def _write_csv(args, header: list[str], rows: list[list]) -> None:
    """Write the header and rows as CSV text, built whole and written once.

    Rows hold Python scalars, none containing a comma, quote or line break,
    so no field needs quoting: a float is written as its repr (the shortest
    string that reads back to the same float) and any other value by str,
    as ``csv.writer`` writes such fields.
    """
    lines = []
    if not args.no_banner:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# sphlab {args.command} {stamp}")
    lines.append(",".join(header))
    lines += [",".join([repr(v) if isinstance(v, float) else str(v) for v in row]) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_thresholds_path() -> str:
    return str(importlib.resources.files("sphlab").joinpath("data/pilot_thresholds.txt"))


def _load_thresholds(path: str) -> dict[str, float]:
    """The ``key = value`` lines of a frozen pilot file, none if it is missing.

    A line without a key or a finite value is a usage error naming the file
    and line: a nan ceiling compares False with every ratio and disarms its gate.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return {}
    out: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = math.nan
        if not key or not math.isfinite(out[key]):
            raise SphlabError(f"{path}:{lineno}: expected 'key = finite number', got {line!r}")
    return out


def _store_threshold(path: str, key: str, value: float) -> None:
    lines: list[str] = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        lines = ["# Frozen pilot values for the sphlab verification surveys."]
    replaced = False
    for i, line in enumerate(lines):
        if not line.startswith("#") and line.split("=")[0].strip() == key:
            lines[i] = f"{key} = {value!r}"
            replaced = True
    if not replaced:
        lines.append(f"{key} = {value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _round_up_sig(value: float, digits: int = 4) -> float:
    if value <= 0.0:
        return 0.0
    scale = math.floor(math.log10(value))
    factor = 10.0 ** (scale - digits + 1)
    return math.ceil(value / factor) * factor


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty list raises ValueError, which the parser reports."""
    values = [int(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"no integers in {text!r}")
    return values


def cmd_verify_gauss(args) -> int:
    report = verify_gauss_identities(args.qmax, args.d)
    rows = [list(row) for row in report.rows]
    _write_csv(args, ["q", "p", "d", "max_abs_dev_sum_identity", "max_bound_excess"], rows)
    failed = report.max_sum_deviation > GAUSS_SUM_TOL or report.max_bound_excess > GAUSS_BOUND_TOL
    return 1 if failed else 0


def cmd_residual(args) -> int:
    key = f"residual_{args.regime}_d{args.d}_lam{args.lam}_s{args.samples}_seed{args.seed}"
    path = args.thresholds or _default_thresholds_path()
    frozen = _load_thresholds(path).get(key)
    spec = SphereSpec(args.d, args.lam)
    survey = residual_survey(spec, args.regime, args.samples, args.seed)
    ratio = survey.ratio
    # each frequency's hash is that of its float64 bytes, a row of one C-ordered array
    hashes = [hashlib.sha256(xi).hexdigest()[:12] for xi in np.ascontiguousarray(survey.xis, dtype=float)]
    columns = (survey.v_card, survey.branch, survey.residual, survey.bound, ratio)
    rows = [list(row) for row in zip(hashes, *(c.tolist() for c in columns))]
    max_ratio = float(ratio.max())
    rows.append(["max", "", "", float(survey.residual.max()), "", max_ratio])
    if args.regime == "small":
        best_c = fit_small_scale_constant(survey, args.lam / args.d)
        rows.append(["best_c", "", "", best_c, "", ""])
    _write_csv(args, ["xi_hash", "v_card", "branch", "residual", "bound", "ratio"], rows)

    if args.refreeze:
        _store_threshold(path, key, _round_up_sig(max_ratio))
        return 0
    if frozen is None:
        print(f"# no frozen threshold for {key}; reporting only", file=sys.stderr)
        return 0
    if max_ratio > frozen:
        print(f"# max ratio {max_ratio!r} exceeds frozen {frozen!r} for {key}", file=sys.stderr)
        return 1
    return 0


def cmd_ratio_survey(args) -> int:
    # one count table for every lambda; the ratio is density_ratio's
    counts = sphere_counts(args.d, max(args.lambdas))
    sigma = surface_measure(args.d)
    inv_sigma = 1.0 / sigma
    rows = []
    for lam in args.lambdas:
        if counts[lam] == 0:
            rows.append([args.d, lam, "", inv_sigma, "", "empty"])
            continue
        ratio = _ratio_from_count(args.d, lam, counts[lam])
        rows.append([args.d, lam, ratio, inv_sigma, ratio * sigma, "ok"])
    _write_csv(args, ["d", "lam", "ratio", "inv_sigma", "ratio_times_sigma", "status"], rows)
    return 0


def cmd_decompose(args) -> int:
    spec = SphereSpec(args.d, args.lam)
    points = _survey_points(args.d, args.samples, args.seed)
    cutoffs = range(args.nmin, args.nmax + 1)
    arcs = decompose_arcs(spec, points, cutoffs)
    # hypot is the scalar complex abs; numpy's vectorized complex abs can differ in the last bit
    columns = [np.hypot(part.real, part.imag).tolist() for part in (arcs.major, arcs.minor, arcs.error)]
    rows = [
        [args.d, args.lam, n, index, *(column[k][index] for column in columns), arcs.paper_bound]
        for k, n in enumerate(cutoffs)
        for index in range(len(points))
    ]
    _write_csv(
        args,
        ["d", "lam", "n", "xi_index", "abs_major", "abs_minor", "abs_error", "paper_bound"],
        rows,
    )
    return 0


def cmd_maximal_survey(args) -> int:
    if len(args.sides) == 1:
        sides = args.sides * len(args.dims)
    elif len(args.sides) == len(args.dims):
        sides = args.sides
    else:
        raise SphlabError("--sides must list one side or one per dimension")
    scales = DyadicRange(tuple(args.scales))
    family = len(scales.exponents)
    # the solves keep each stack's majorant until the rows are written, so all the stacks share one budget
    if args.fiber_trials * family * args.fiber_sites * 4 > MAX_SITES:
        raise InfeasibleScale(
            f"{args.fiber_trials * family} x {args.fiber_sites} fibers of size 2 exceed the {MAX_SITES}-entry budget"
        )
    path = args.thresholds or _default_thresholds_path()
    frozen = _load_thresholds(path)
    rows = []
    failed = False
    scale_tag = "".join(str(m) for m in scales.exponents)
    for d, side in zip(args.dims, sides):
        stats = empirical_maximal_ratio(d, side, scales, args.trials, args.seed)
        rows.append(["ratio_max", d, side, 1, len(scales.exponents), 2, stats.max_ratio, "", args.seed])
        rows.append(["ratio_mean", d, side, 1, len(scales.exponents), 2, stats.mean_ratio, "", args.seed])
        key = f"maxratio_d{d}_L{side}_m{scale_tag}_t{args.trials}_seed{args.seed}"
        if args.refreeze:
            _store_threshold(path, key, stats.max_ratio)
        elif key in frozen:
            if abs(stats.max_ratio - frozen[key]) > MAXRATIO_REGRESSION_TOL:
                print(
                    f"# {key}: ratio {stats.max_ratio!r} deviates from frozen {frozen[key]!r}",
                    file=sys.stderr,
                )
                failed = True
        else:
            print(f"# no frozen value for {key}; reporting only", file=sys.stderr)
    stack_seeds = [args.seed + 1000 + trial for trial in range(args.fiber_trials)]
    solved = [
        # each pass draws the stacks one at a time, as the solver reads them
        order_interval_majorants(
            (random_hermitian_stack(family, args.fiber_sites, 2, seed) for seed in stack_seeds),
            p,
            tol=args.tol,
            max_iter=args.max_iter,
        )
        for p in (2.0, math.inf)
    ]
    for trial, stack_seed in enumerate(stack_seeds):
        for p_label, solutions in zip(("2", "inf"), solved):
            sol = solutions[trial]
            gap = sol.value - sol.lower_bound
            rows.append(
                ["majorant", args.dims[0], args.fiber_sites, 2, family, p_label, sol.value, gap, stack_seed]
            )
            if gap > args.tol:
                print(
                    f"# majorant seed {stack_seed} p {p_label}: certified gap {gap!r} "
                    f"above tol {args.tol!r} after {sol.iterations} iterations, "
                    f"{sol.site_sweeps} site-sweeps (converged {sol.converged})",
                    file=sys.stderr,
                )
                failed = True
    _write_csv(args, ["kind", "d", "L", "n", "K", "p", "value", "gap", "seed"], rows)
    return 1 if failed else 0


# each flag's attribute, reader (None: a boolean set by its presence), default (...: required) and help
_FLAGS = {
    "--out": ("out", str, None, "CSV output path (default stdout)"),
    "--no-banner": ("no_banner", None, False, "omit the timestamp comment line"),
    "--qmax": ("qmax", int, ..., "largest denominator q"),
    "--d": ("d", int, ..., "dimension"),
    "--regime": ("regime", {"small": "small", "intermediate": "intermediate", "folded": "folded"}.__getitem__,
                 ..., "small, intermediate or folded"),
    "--lambda": ("lam", int, ..., "squared radius"),
    "--lambdas": ("lambdas", _parse_int_list, ..., "comma-separated squared radii"),
    "--samples": ("samples", int, ..., "random frequencies drawn besides xi = 0"),
    "--seed": ("seed", int, ..., "Philox seed"),
    "--nmin": ("nmin", int, 1, "smallest arc cutoff"),
    "--nmax": ("nmax", int, ..., "largest arc cutoff"),
    "--dims": ("dims", _parse_int_list, ..., "comma-separated dimensions"),
    "--sides": ("sides", _parse_int_list, ..., "torus side(s), one or one per dim"),
    "--scales": ("scales", _parse_int_list, [0, 1, 2], "comma-separated dyadic exponents of the radii"),
    "--trials": ("trials", int, ..., "Gaussian fields per torus"),
    "--fiber-trials": ("fiber_trials", int, 2, "n=2 majorant solves to report"),
    "--fiber-sites": ("fiber_sites", int, 8, "sites of each majorant stack"),
    "--tol": ("tol", float, 1e-6, "certified gap the majorant solves must reach"),
    "--max-iter": ("max_iter", int, 500, "p=2 solver budget of dual sweeps"),
    "--thresholds": ("thresholds", str, None, "pilot threshold file (default: packaged)"),
    "--refreeze": ("refreeze", None, False, "store this run as the new pilot"),
}
# each command's function, help and flags, --out and --no-banner first
_COMMANDS = {
    "verify-gauss": (cmd_verify_gauss, "Gauss-sum identity sweep", ("--out", "--no-banner", "--qmax", "--d")),
    "residual": (cmd_residual, "symbol-approximation residual survey", ("--out", "--no-banner", "--regime",
                 "--d", "--lambda", "--samples", "--seed", "--thresholds", "--refreeze")),
    "ratio-survey": (cmd_ratio_survey, "sphere-count density ratios", ("--out", "--no-banner", "--d", "--lambdas")),
    "decompose": (cmd_decompose, "arc decomposition bookkeeping", ("--out", "--no-banner", "--d", "--lambda",
                  "--nmin", "--nmax", "--samples", "--seed")),
    "maximal-survey": (cmd_maximal_survey, "dyadic maximal ratio table", ("--out", "--no-banner", "--dims",
                       "--sides", "--scales", "--trials", "--seed", "--fiber-trials", "--fiber-sites", "--tol",
                       "--max-iter", "--thresholds", "--refreeze")),
}


def _help(command: str | None) -> str:
    """The usage line, then the help of every command (or of the one) and of its flags."""
    names, flags = (_COMMANDS, _FLAGS) if command is None else ([command], _COMMANDS[command][2])
    return "\n".join([
        f"usage: sphlab {command or 'COMMAND'} [--flag VALUE | --flag=VALUE ...]",
        *(f"  {name:16}{_COMMANDS[name][1]}" for name in names),
        "flags:",
        *(f"  {flag:16}{_FLAGS[flag][3]}{' (required)' if _FLAGS[flag][2] is ... else ''}" for flag in flags),
    ])


def _fail(command: str | None, message: str) -> NoReturn:
    """A usage error: the usage line and one error line on stderr, then exit 2."""
    prog = "sphlab" if command is None else f"sphlab {command}"
    print(_help(command).split("\n", 1)[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _split_values(argv: list[str]) -> list[str]:
    """argv with each ``--flag=value`` split into ``--flag`` and ``value``."""
    return [part for token in argv for part in (token.split("=", 1) if token.startswith("--") else [token])]


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command in argv[0] and the values of its flags, the last of a repeated flag winning."""
    argv = _split_values(argv)
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        print(_help(command if command in _COMMANDS else None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        _fail(None, f"the first argument must be a command: {', '.join(_COMMANDS)}")
    flags = _COMMANDS[command][2]
    values = {flag: _FLAGS[flag][2] for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            _fail(command, f"unrecognized argument {token!r}")
        read = _FLAGS[token][1]
        if read is None:
            values[token] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("--"):
            _fail(command, f"{token} needs a value")
        try:
            values[token] = read(text)
        except (KeyError, ValueError):
            _fail(command, f"{token} cannot take {text!r} ({_FLAGS[token][3]})")
    missing = [flag for flag, value in values.items() if value is ...]
    if missing:
        _fail(command, f"missing required flags: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{_FLAGS[flag][0]: value for flag, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    command = args.command
    if command == "residual" and args.lam == 0:
        _fail(command, "the residual survey needs lambda >= 1")
    if command == "ratio-survey" and any(lam <= 0 for lam in args.lambdas):
        _fail(command, "ratio-survey needs strictly positive lambda values")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        _fail(command, f"--tol must be finite and positive, got {tol!r}")
    for name, low in (("samples", 0), ("seed", 0), ("fiber_trials", 0), ("fiber_sites", 1), ("max_iter", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            _fail(command, f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    if command == "decompose" and not 1 <= args.nmin <= args.nmax:
        _fail(command, f"decompose needs 1 <= --nmin <= --nmax, got {args.nmin} and {args.nmax}")
    thresholds, refreeze = getattr(args, "thresholds", None), getattr(args, "refreeze", False)
    if thresholds and not refreeze and not os.path.exists(thresholds):
        _fail(command, f"--thresholds file {thresholds} does not exist (pass --refreeze to create it)")
    # the CSV and a refrozen pilot are written after the run; fail before it if they cannot be
    for path in filter(None, (args.out, thresholds if refreeze else None)):
        folder = os.path.dirname(path) or "."
        why = "it is a directory" if os.path.isdir(path) else "" if os.path.isdir(folder) else f"no directory {folder}"
        if why:
            print(f"error: cannot write {path}: {why}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[command][0](args)
    except InfeasibleScale as exc:
        print(f"infeasible scale: {exc}", file=sys.stderr)
        return 3
    except RegimeViolation as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 2
    except (SphlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
