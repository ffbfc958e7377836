"""Batch command-line front end for the verification surveys.

One command per process; every randomized command requires an explicit
seed, and output is CSV written once at the end (stdout or --out).  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 infeasible
scale.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.resources
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import InfeasibleScale, RegimeViolation, SphlabError
from .gauss import COEFF_COST_BUDGET, decompose_arcs, verify_gauss_identities
from .lattice import SphereSpec, _ratio_from_count, sphere_counts, surface_measure
from .ncmax import empirical_maximal_ratio, order_interval_majorants, random_hermitian_stack
from .fields import DyadicRange
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


def _key_values(lines: Iterable[str]) -> Iterator[tuple[int, str, str, str]]:
    """(line number, line, key, value), all stripped, of each line not blank or a ``#`` comment."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        yield lineno, line, key, value


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
    for lineno, line, key, value in _key_values(lines):
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
    """Comma-separated integers; an empty list raises ValueError, which argparse reports."""
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
    arcs = decompose_arcs(spec, points, cutoffs, budget=args.budget)
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
    family = len(scales.exponents)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphlab",
        description="verification surveys for discrete spherical averages and their symbols",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="CSV output path (default stdout)")
    common.add_argument("--no-banner", action="store_true", help="omit the timestamp comment line")

    p = sub.add_parser("verify-gauss", parents=[common], help="Gauss-sum identity sweep")
    p.add_argument("--qmax", type=int, required=False)
    p.add_argument("--d", type=int, required=False)

    p = sub.add_parser("residual", parents=[common], help="symbol-approximation residual survey")
    p.add_argument("--regime", choices=["small", "intermediate", "folded"])
    p.add_argument("--d", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--thresholds", help="pilot threshold file (default: packaged)")
    p.add_argument("--refreeze", action="store_true", help="store this run as the new pilot")

    p = sub.add_parser("ratio-survey", parents=[common], help="sphere-count density ratios")
    p.add_argument("--d", type=int)
    p.add_argument("--lambdas", type=_parse_int_list, help="comma-separated squared radii")

    p = sub.add_parser("decompose", parents=[common], help="arc decomposition bookkeeping")
    p.add_argument("--d", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=float, default=COEFF_COST_BUDGET)

    p = sub.add_parser("maximal-survey", parents=[common], help="dyadic maximal ratio table")
    p.add_argument("--dims", type=_parse_int_list)
    p.add_argument("--sides", type=_parse_int_list, help="torus side(s), one or one per dim")
    p.add_argument("--scales", type=_parse_int_list, default=[0, 1, 2])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--fiber-trials", type=int, default=2, help="n=2 majorant solves to report")
    p.add_argument("--fiber-sites", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=500, help="p=2 solver budget of dual sweeps")
    p.add_argument("--thresholds")
    p.add_argument("--refreeze", action="store_true")

    return parser


_REQUIRED = {
    "verify-gauss": ["qmax", "d"],
    "residual": ["regime", "d", "lam", "samples", "seed"],
    "ratio-survey": ["d", "lambdas"],
    "decompose": ["d", "lam", "nmax", "samples", "seed"],
    "maximal-survey": ["dims", "sides", "trials", "seed"],
}

_COMMANDS = {
    "verify-gauss": cmd_verify_gauss,
    "residual": cmd_residual,
    "ratio-survey": cmd_ratio_survey,
    "decompose": cmd_decompose,
    "maximal-survey": cmd_maximal_survey,
}


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold key=value config lines in as flag defaults (flags still win).

    A key is a flag without its dashes (``lambda``, ``fiber-sites``) and sets
    that flag's default, read by the flag's own ``type``, in every subcommand
    that has it; a key that none has, or a value it cannot read, raises
    ValueError.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        parser.error("--config needs a path")
    path = argv[idx + 1]
    subcommands = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
    with open(path) as fh:
        for lineno, _, key, value in _key_values(fh):
            flag = "--" + key.replace("_", "-")
            owners = [sub for sub in subcommands if flag in sub._option_string_actions]  # noqa: SLF001
            if not owners or flag == "--help":
                raise ValueError(f"{path}:{lineno}: no subcommand has the flag {flag}")
            for sub in owners:
                action = sub._option_string_actions[flag]  # noqa: SLF001
                try:
                    if action.nargs == 0:  # a flag without a value reads a boolean
                        parsed = _BOOLEANS[value.lower()]
                    else:
                        parsed = value if action.type is None else action.type(value)
                except (KeyError, ValueError):
                    raise ValueError(f"{path}:{lineno}: {flag} cannot take {value!r}") from None
                sub.set_defaults(**{action.dest: parsed})
    return argv[:idx] + argv[idx + 2 :]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(parser, argv)
    except (OSError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    args = parser.parse_args(argv)
    missing = [name for name in _REQUIRED[args.command] if getattr(args, name) is None]
    if missing:
        parser.error(f"missing required flags for {args.command}: {', '.join(missing)}")
    if args.command == "residual" and args.lam == 0:
        parser.error("the residual survey needs lambda >= 1")
    if args.command == "ratio-survey" and any(lam <= 0 for lam in args.lambdas):
        parser.error("ratio-survey needs strictly positive lambda values")
    for name in ("tol", "budget"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            parser.error(f"--{name} must be finite and positive, got {value!r}")
    for name, low in (
        ("samples", 0), ("seed", 0), ("fiber_trials", 0), ("fiber_sites", 1), ("max_iter", 1)
    ):
        value = getattr(args, name, None)
        if value is not None and value < low:
            parser.error(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    if args.command == "decompose" and not 1 <= args.nmin <= args.nmax:
        parser.error(f"decompose needs 1 <= --nmin <= --nmax, got {args.nmin} and {args.nmax}")
    thresholds = getattr(args, "thresholds", None)
    if thresholds and not args.refreeze and not os.path.exists(thresholds):
        parser.error(f"--thresholds file {thresholds} does not exist (pass --refreeze to create it)")
    try:
        return _COMMANDS[args.command](args)
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
