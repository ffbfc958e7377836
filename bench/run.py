"""sphlab benchmark: cold ``sphlab`` jobs, one child process each.

Usage, from the repository root:

    python3 bench/run.py --workload surveys|maximal|majorant --seed N \
        --seconds S --trace 0|1 [--smoke]

Every job runs in a fresh interpreter (``bench/job.py``), as one ``sphlab``
command per process does, with BLAS and OpenMP pinned to one thread in the
child's environment.  The workload's jobs are repeated as whole passes for
about ``--seconds`` seconds.  Job and set-up CPU times are rescaled by the
speed probe each child runs beside its work (``job.SpeedProbe``), which
cancels the host's speed phases.  Outputs are checked after all timing.  The last
stdout line is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a run that alternates
untraced and traced passes.  ``--smoke`` shrinks every job for the
benchmark's self-test.  See ``bench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import checks
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
JOB_PY = os.path.join(BENCH, "job.py")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# children cache bytecode beside the sources, as an installed package has it
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
JOB_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 8  # import-only children top up workloads with few jobs

END_TO_END = (
    ("norm_cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("lattice.self_s", "s", "lower"),
    ("lattice.sphere_counts.calls", "count", "lower"),
    ("lattice.sphere_counts.self_s", "s", "lower"),
    ("lattice.sphere_counts.cache_hit_ratio", "ratio", "higher"),
    ("lattice.sphere_counts.cache_entries", "count", "lower"),
    ("lattice.enumerate_sphere.calls", "count", "lower"),
    ("lattice.enumerate_sphere.points", "count", "lower"),
    ("lattice.enumerate_sphere.self_s", "s", "lower"),
    ("symbols.self_s", "s", "lower"),
    ("symbols.sphere_multiplier_batch.calls", "count", "lower"),
    ("symbols.sphere_multiplier_batch.points", "count", "lower"),
    ("symbols.sphere_multiplier_batch.self_s", "s", "lower"),
    ("symbols.eval_continuous_sphere_symbol.calls", "count", "lower"),
    ("symbols.eval_continuous_sphere_symbol.self_s", "s", "lower"),
    ("symbols.eval_continuous_sphere_symbol.cache_hit_ratio", "ratio", "higher"),
    ("gauss.self_s", "s", "lower"),
    ("gauss.gauss_sum.calls", "count", "lower"),
    ("gauss.gauss_sum.self_s", "s", "lower"),
    ("gauss.verify_gauss_identities.self_s", "s", "lower"),
    ("gauss.eval_major_arc_term.calls", "count", "lower"),
    ("gauss.eval_major_arc_term.self_s", "s", "lower"),
    ("gauss.eval_minor_term.calls", "count", "lower"),
    ("gauss.eval_minor_term.self_s", "s", "lower"),
    ("gauss.decomposition_error.calls", "count", "lower"),
    ("gauss.decomposition_error.self_s", "s", "lower"),
    ("fields.self_s", "s", "lower"),
    ("fields.spherical_average.calls", "count", "lower"),
    ("fields.spherical_average.shifts", "count", "lower"),
    ("fields.spherical_average.self_s", "s", "lower"),
    ("fields.spherical_average.bytes_computed", "B", "lower"),
    ("fields.dyadic_maximal.calls", "count", "lower"),
    ("fields.dyadic_maximal.self_s", "s", "lower"),
    ("ncmax.self_s", "s", "lower"),
    ("ncmax.order_interval_majorant.n2.self_s", "s", "lower"),
    ("ncmax.order_interval_majorant.n4.self_s", "s", "lower"),
    ("ncmax.order_interval_majorant.n8.self_s", "s", "lower"),
    ("ncmax.order_interval_majorant.iterations", "count", "lower"),
    ("ncmax.order_interval_majorant.sites", "count", "higher"),
    ("ncmax.order_interval_majorant.unconverged", "count", "lower"),
    ("ncmax.empirical_maximal_ratio.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("host.slowness", "ratio", "lower"),
)


def cli_job(name: str, argv: list[str], gated: bool = False) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "gated": gated}


def residual_job(regime: str, d: int, lam: int, samples: int) -> dict:
    # pilot seed 42: the frozen gate key contains it, so the run is gated
    argv = ["residual", "--regime", regime, "--d", str(d), "--lambda", str(lam),
            "--samples", str(samples), "--seed", "42"]
    return cli_job(f"residual.{regime}.d{d}.lam{lam}", argv, gated=True)


def decompose_job(d: int, lam: int, nmax: int, samples: int, seed: int) -> dict:
    argv = ["decompose", "--d", str(d), "--lambda", str(lam), "--nmax", str(nmax),
            "--samples", str(samples), "--seed", str(seed)]
    return cli_job(f"decompose.d{d}.lam{lam}", argv)


def surveys(seed: int, smoke: bool) -> list[dict]:
    """Symbol-side commands: every frozen residual pilot, plus seeded extras."""
    rng = random.Random(seed)
    lam0 = (4 if smoke else 980) + rng.randrange(41)
    window = range(lam0, lam0 + (3 if smoke else 40))
    ratio = cli_job("ratio-survey.d8", ["ratio-survey", "--d", "8", "--lambdas", ",".join(map(str, window))])
    if smoke:
        return [
            residual_job("small", 25, 1, 1000),
            residual_job("folded", 8, 1, 1000),
            ratio,
            decompose_job(5, 16, 5, 1, rng.randrange(2**31)),
            cli_job("verify-gauss.q6.d8", ["verify-gauss", "--qmax", "6", "--d", "8"]),
        ]
    return [
        residual_job("small", 25, 1, 1000),
        residual_job("intermediate", 10, 1000, 200),
        *(residual_job("folded", d, lam, 1000) for d in (8, 16) for lam in (1, 4, 16)),
        ratio,
        decompose_job(5, 1024, 33, 2, rng.randrange(2**31)),
        decompose_job(8, 400, 21, 2, rng.randrange(2**31)),
        cli_job("verify-gauss.q48.d8", ["verify-gauss", "--qmax", "48", "--d", "8"]),
    ]


def maximal(seed: int, smoke: bool) -> list[dict]:
    """The README maximal-survey; its pilot seed 7 is part of all four gate keys."""
    if smoke:
        argv = ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1",
                "--trials", "1", "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "2"]
        return [cli_job("maximal-survey", argv)]
    argv = ["maximal-survey", "--dims", "2,3,4,5", "--sides", "32,32,16,12", "--scales", "0,1,2",
            "--trials", "8", "--seed", "7", "--fiber-trials", "8", "--fiber-sites", "32"]
    return [cli_job("maximal-survey", argv, gated=True)]


def majorant(seed: int, smoke: bool) -> list[dict]:
    """Library majorant solves at fiber sizes the CLI never reaches.

    The seed turns each site of a fixed stack (base seed n) by a random
    unitary; see ``job.majorant_stack``.
    """
    rng = random.Random(seed)
    sizes = ((2, 2), (4, 2)) if smoke else ((4, 16), (8, 16))
    jobs = []
    for n, sites in sizes:
        turn_seed = rng.randrange(2**31)
        for p in ("2", "inf"):
            jobs.append({"name": f"majorant.n{n}.p{p}", "kind": "majorant", "n": n, "sites": sites,
                         "base_seed": n, "seed": turn_seed, "p": p})
    return jobs


WORKLOADS = {"surveys": surveys, "maximal": maximal, "majorant": majorant}


def git_sha() -> str | None:
    """HEAD of the repository when it is a git checkout, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "child_env": {**THREAD_ENV, **{k: None for k in UNSET_ENV}},
        "git_sha": git_sha(),
    }


def spawn(job: dict, traced: bool) -> tuple[dict, str]:
    """Run one job in a fresh interpreter; returns its result and its stderr."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawn_time = time.perf_counter()
    argv = [sys.executable, JOB_PY, repr(spawn_time), "1" if traced else "0", json.dumps(job)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}, ""
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"error": f"job process failed: {tail[0]}"}, proc.stderr
    return result, proc.stderr


def cpu_ticks() -> list[int] | None:
    """The host's summed CPU tick counters (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of this machine's CPU ticks taken by the hypervisor between two readings."""
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def output_sha256(result: dict) -> str:
    return hashlib.sha256(json.dumps(result.get("output"), sort_keys=True).encode()).hexdigest()


def rescaled(result: dict, phase: str) -> float | None:
    """A child's CPU time of ``phase`` (setup or job) on the speed probe's reference host."""
    slowness = result.get(f"{phase}_slowness")
    return result[f"{phase}_cpu_s"] / slowness if slowness else None


def measure(jobs: list[dict], seconds: float, trace: bool, smoke: bool):
    """Repeat whole passes of the jobs for about ``seconds``; returns (passes, probes).

    A traced run alternates untraced and traced passes, at least one of each,
    so that it can report its own tracing overhead.
    """
    warm, warm_err = spawn({"kind": "setup"}, False)  # compiles bytecode, warms the file cache
    if warm.get("error"):
        raise RuntimeError(f"sphlab does not import from {SRC}: {warm['error']} {warm_err.strip()}")
    probes = [] if smoke else [spawn({"kind": "setup"}, False)[0] for _ in range(MIN_SETUP_SAMPLES - len(jobs))]
    start = time.perf_counter()
    passes: list[tuple[bool, list[tuple[dict, str]]]] = []
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append((traced, [spawn(job, traced) for job in jobs]))
        longest = max(longest, time.perf_counter() - t0)
        if (not trace or len(passes) >= 2) and time.perf_counter() - start + longest > seconds:
            return passes, probes


def tally(jobs: list[dict], passes) -> dict:
    """Check every job run; a run fails on an error, a nonzero exit or a failed check."""
    verdicts: dict[tuple[str, str], list[str]] = {}
    per_job = {job["name"]: {"job_s": [], "cpu_s": [], "norm_s": [], "failures": [], "sha": set()} for job in jobs}
    attempted = failed = 0
    for _, results in passes:
        for job, (result, stderr) in zip(jobs, results):
            sha = output_sha256(result)
            key = (job["name"], sha if not result.get("error") else repr(result["error"]))
            if key not in verdicts:  # identical outputs get identical verdicts
                verdicts[key] = checks.check(job, result, stderr)
            entry = per_job[job["name"]]
            attempted += 1
            if verdicts[key]:
                failed += 1
                entry["failures"] = verdicts[key]
            if result.get("job_s") is not None:
                entry["job_s"].append(result["job_s"])
                entry["cpu_s"].append(result["job_cpu_s"])
                if rescaled(result, "job") is not None:
                    entry["norm_s"].append(rescaled(result, "job"))
            entry["sha"].add(sha)
    return {"jobs": per_job, "attempted": attempted, "failed": failed}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    jobs = WORKLOADS[workload](seed, smoke)
    ticks = cpu_ticks()
    passes, probes = measure(jobs, seconds, trace, smoke)
    steal = steal_share(ticks, cpu_ticks())
    report = tally(jobs, passes)
    children = [r for _, results in passes for r, _ in results] + probes
    setups = [r for r in children if rescaled(r, "setup") is not None]
    report.update(
        passes=len(passes),
        steal_share=steal,
        setup_samples=len(setups),
        setup_s=statistics.median(rescaled(r, "setup") for r in setups) if setups else None,
        setup_wall_s=statistics.median(r["setup_s"] for r in setups) if setups else None,
        peak_rss_mb=max((r["maxrss_kb"] / 1024.0 for r in children if "maxrss_kb" in r), default=None),
        slowness=statistics.median(r["job_slowness"] for r in children if r.get("job_slowness")),
        norm_cpu_s=sum(statistics.median(e["norm_s"]) for e in report["jobs"].values() if e["norm_s"]),
        cpu_s=sum(statistics.median(e["cpu_s"]) for e in report["jobs"].values() if e["cpu_s"]),
        wall_s=sum(statistics.median(e["job_s"]) for e in report["jobs"].values() if e["job_s"]),
    )
    if trace:
        # rescaled, so that the host's speed phases do not pass for tracing cost
        totals = {False: [], True: []}
        layers = []
        for traced, results in passes:
            totals[traced].append(sum(rescaled(r, "job") or 0.0 for r, _ in results))
            if traced:
                layers.append(spans.combine([r.get("layers", {}) for r, _ in results]))
        per_layer = {name: statistics.median(p.get(name, 0.0) for p in layers) for name, _, _ in PER_LAYER}
        report["untraced_norm_cpu_s"] = statistics.median(totals[False])
        per_layer["trace.overhead_s"] = statistics.median(totals[True]) - report["untraced_norm_cpu_s"]
        per_layer["host.slowness"] = report["slowness"]
        report["per_layer"] = per_layer
    return report


def print_report(workload: str, trace: bool, report: dict) -> None:
    for name, entry in report["jobs"].items():
        times, cpu, norm = entry["job_s"], entry["cpu_s"], entry["norm_s"]
        state = "ok" if not entry["failures"] else "FAIL: " + "; ".join(entry["failures"][:3])
        shas = ",".join(sorted(s[:16] for s in entry["sha"]))
        timing = (f"rescaled CPU median {statistics.median(norm):.4f} s; CPU median {statistics.median(cpu):.4f} s; "
                  f"wall median {statistics.median(times):.4f} s" if norm else "no timing")
        print(f"job {name}: {timing} over {len(times)} runs; output_sha256 {shas}; {state}")
    steal = "unknown" if report["steal_share"] is None else f"{report['steal_share']:.4f}"
    print(f"passes {report['passes']}, setup samples {report['setup_samples']}, trace {int(trace)}; "
          f"unrescaled: CPU {report['cpu_s']:.4f} s, wall {report['wall_s']:.4f} s, "
          f"setup wall median {report['setup_wall_s']:.4f} s; probe slowness median "
          f"{report['slowness']:.4f}; host steal share {steal}")
    print(f"fail_frac = {report['failed']}/{report['attempted']} jobs "
          f"= {report['failed'] / report['attempted']!r} (unit 1)")
    if trace:
        per_layer = report["per_layer"]
        layer_sum = sum(per_layer[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "cli")
        layer_sum += per_layer["cli.main.self_s"]
        print(f"layer self times sum to {layer_sum:.4f} s of traced job wall time {per_layer['trace.wall_s']:.4f} s "
              f"(unattributed {per_layer['trace.unattributed_s']:.4f} s); untraced norm_cpu_s "
              f"{report['untraced_norm_cpu_s']:.4f} s; tracing overhead {per_layer['trace.overhead_s']:.4f} s "
              f"(traced minus untraced norm_cpu_s)")
        for name, unit, _ in PER_LAYER:
            print(f"{workload} {name} = {per_layer[name]!r} {unit}")
    else:
        for name, unit, _ in END_TO_END:
            print(f"{workload} {name} = {report[name]!r} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny jobs, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sphlab")):
        print(f"error: no sphlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks import sphlab for stack rebuilds
    trace = bool(args.trace)
    try:
        report = run(args.workload, args.seed, args.seconds, trace, args.smoke)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(), sort_keys=True))
    print_report(args.workload, trace, report)
    if trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
