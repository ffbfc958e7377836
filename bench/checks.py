"""Output checks for benchmark jobs, run in the parent outside any timing.

Each check returns a list of failure messages; an empty list passes.  The
checks use routes independent of the code under test where the mathematics
gives one: Jacobi's formula for r_8, ``eigvalsh`` feasibility of every
majorant, the closed form of the p = inf majorant, and Frobenius and identity
bounds for p = 2.  ``decompose`` rows are checked only for count and
finiteness: its q = 1 arc is double-counted today (see README.md), and a fix
must not read as a failure.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

FEASIBILITY_TOL = 1e-9  # relative to the largest |entry| of the family
CLOSED_FORM_TOL = 1e-12
RESOLVE_TOL = 1e-9


def r8_jacobi(n: int) -> int:
    """r_8(n) = 16 sum_{d | n} (-1)^(n + d) d^3, for n >= 1."""
    return 16 * sum((-1) ** (n + d) * d**3 for d in range(1, n + 1) if n % d == 0)


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def majorant_failures(xs: np.ndarray, a: np.ndarray, p: float, value: float) -> list[str]:
    """Check a claimed majorant ``a`` (sites, n, n) of ``xs`` (K, sites, n, n)."""
    fails = []
    scale = max(1.0, float(np.abs(xs).max()))
    for sign, label in ((1.0, "a + x_k"), (-1.0, "a - x_k")):
        low = float(np.linalg.eigvalsh(a[np.newaxis] + sign * xs).min())
        if low < -FEASIBILITY_TOL * scale:
            fails.append(f"{label} has eigenvalue {low!r}")
    op = np.abs(np.linalg.eigvalsh(xs)).max(axis=-1)  # (K, sites)
    if p == math.inf:
        achieved = float(np.linalg.eigvalsh(a)[:, -1].max())
        closed = float(op.max())
        if abs(value - closed) > CLOSED_FORM_TOL * closed:
            fails.append(f"p=inf value {value!r} != max_k ||x_k||_op = {closed!r}")
    else:
        achieved = float(np.sqrt(np.sum(np.abs(a) ** 2)))
        fro = np.sqrt(np.sum(np.abs(xs) ** 2, axis=(-1, -2))).max(axis=0)
        lower = float(np.sqrt(np.sum(fro**2)))
        upper = float(np.sqrt(xs.shape[-1] * np.sum(op.max(axis=0) ** 2)))
        if not lower * (1 - CLOSED_FORM_TOL) <= value <= upper * (1 + CLOSED_FORM_TOL):
            fails.append(f"p=2 value {value!r} outside [{lower!r}, {upper!r}]")
    if abs(achieved - value) > CLOSED_FORM_TOL * max(1.0, value):
        fails.append(f"reported value {value!r} != norm of the majorant {achieved!r}")
    return fails


def _check_residual(rows, flags):
    samples = int(flags["--samples"])
    expected = samples + (3 if flags["--regime"] == "small" else 2)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    data = rows[: samples + 1]
    if not _finite(r[3] for r in data) or not _finite(r[5] for r in data):
        return ["non-finite residual or ratio"]
    top = rows[samples + 1]
    fails = []
    if top[0] != "max" or float(top[3]) != max(float(r[3]) for r in data):
        fails.append("max row does not hold the largest residual")
    if float(top[5]) != max(float(r[5]) for r in data):
        fails.append("max row does not hold the largest ratio")
    return fails


def _check_ratio_survey(rows, flags):
    d = int(flags["--d"])
    lambdas = _ints(flags["--lambdas"])
    if d != 8:
        return ["the r_8 oracle needs d = 8"]
    if [int(r[1]) for r in rows] != lambdas:
        return ["rows do not match the requested lambdas"]
    fails = []
    inv_sigma = 3.0 / math.pi**4  # Gamma(4) / (2 pi^4)
    for row in rows:
        lam = int(row[1])
        expected = float(lam) ** 3.0 / r8_jacobi(lam)
        if row[5] != "ok" or abs(float(row[2]) - expected) > CLOSED_FORM_TOL * expected:
            fails.append(f"lam={lam}: ratio {row[2]} != lam^3 / r_8 = {expected!r}")
        if abs(float(row[3]) - inv_sigma) > CLOSED_FORM_TOL * inv_sigma:
            fails.append(f"lam={lam}: inv_sigma {row[3]} != 3/pi^4")
    return fails


def _check_decompose(rows, flags):
    n_count = int(flags["--nmax"]) - int(flags.get("--nmin", "1")) + 1
    expected = n_count * (int(flags["--samples"]) + 1)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    if not _finite(v for r in rows for v in r[4:8]):
        return ["non-finite decomposition values"]
    return []


def _check_verify_gauss(rows, flags):
    qmax = int(flags["--qmax"])
    expected = 1 + sum(1 for q in range(2, qmax + 1) for p in range(1, q) if math.gcd(p, q) == 1)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected one per reduced fraction ({expected})"]
    if not _finite(v for r in rows for v in r[3:5]):
        return ["non-finite identity deviations"]
    return []


def _check_maximal_survey(rows, flags):
    from sphlab.ncmax import order_interval_majorant, random_hermitian_stack

    dims = _ints(flags["--dims"])
    fiber_trials = int(flags["--fiber-trials"])
    expected = 2 * len(dims) + 2 * fiber_trials
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    fails = []
    ratios = [r for r in rows if r[0] in ("ratio_max", "ratio_mean")]
    if not all(0.0 < float(r[6]) < math.inf for r in ratios):
        fails.append("maximal ratios must be positive and finite")
    for row in rows:
        if row[0] != "majorant":
            continue
        sites, n, family, seed = int(row[2]), int(row[3]), int(row[4]), int(row[8])
        p = math.inf if row[5] == "inf" else 2.0
        value = float(row[6])
        stack = random_hermitian_stack(family, sites, n, seed)
        sol = order_interval_majorant(stack, p)
        if abs(sol.value - value) > RESOLVE_TOL * max(1.0, value):
            fails.append(f"seed {seed} p={row[5]}: re-solve gives {sol.value!r}, CLI {value!r}")
        xs = stack.matrices
        fails += [f"seed {seed} p={row[5]}: {m}" for m in majorant_failures(xs, sol.majorant, p, value)]
    return fails


CLI_CHECKS = {
    "residual": _check_residual,
    "ratio-survey": _check_ratio_survey,
    "decompose": _check_decompose,
    "verify-gauss": _check_verify_gauss,
    "maximal-survey": _check_maximal_survey,
}


def _check_cli(job, result, stderr):
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    if job["gated"] and "no frozen" in stderr:
        return ["pilot gate not armed: " + stderr.strip()]
    parsed = list(csv.reader(io.StringIO(result["output"]["csv"])))
    if not parsed:
        return ["empty output"]
    return CLI_CHECKS[job["argv"][0]](parsed[1:], _flags(job["argv"]))


def _check_majorant(job, result):
    from job import majorant_stack

    out = result["output"]
    xs = majorant_stack(job).matrices
    a = np.asarray(out["majorant_re"]) + 1j * np.asarray(out["majorant_im"])
    if a.shape != xs.shape[1:]:
        return [f"majorant shape {a.shape}, expected {xs.shape[1:]}"]
    p = math.inf if job["p"] == "inf" else 2.0
    return majorant_failures(xs, a, p, out["value"])


def check(job: dict, result: dict, stderr: str = "") -> list[str]:
    """Failure messages for one job run; an empty list means the output is right."""
    if result.get("error"):
        return [result["error"].strip().splitlines()[-1]]
    if job["kind"] == "cli":
        return _check_cli(job, result, stderr)
    return _check_majorant(job, result)
