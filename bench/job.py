"""One benchmark job, run cold in its own interpreter.

Usage: python3 bench/job.py SPAWN_TIME TRACE JOB_JSON

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process.  On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
its difference to the moment ``sphlab.cli`` is imported is the set-up time a
user's ``sphlab`` command pays.  The job is timed from after the import to its
return.  The last stdout line is one JSON object describing the job; output
checks are the parent's business and run outside the timing.

The process pins itself to one CPU, and a ``SpeedProbe`` thread on that CPU
times fixed work through set-up and job.  The child reports how much slower
than the reference host that work ran; the parent divides the CPU times by
it, which cancels the host's speed phases.  See README.md.
"""

import contextlib
import importlib
import io
import json
import math
import os
import resource
import sys
import threading
import time
import traceback

PROBE_PERIOD_S = 0.05
PROBE_PAD_S = 0.25  # probe samples this far outside an interval still count for it
PROBE_LOOPS = 5_000  # interpreter steps per sample
PROBE_ROLLS = 12  # np.roll calls on a 256 KB complex array per sample
# CPU seconds of one sample's loop and rolls on the reference host: the fast
# phases of the 2-vCPU Xeon virtual machine the benchmark was built on
LOOP_REF_S = 0.0005
ROLL_REF_S = 0.0005


class SpeedProbe:
    """A thread that times fixed work every PROBE_PERIOD_S; it runs no sphlab code.

    Each sample times an interpreter loop, as the solver and the CLI mostly
    run, and, once ``arm`` has handed it numpy, array rolls, as the spherical
    averages run.  It takes about 2% of its CPU and 0.5 MB.  Its own CPU time
    is read from its thread clock, so the job's CPU time can leave it out.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float | None]] = []  # (end time, loop s, rolls s)
        self._field = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def arm(self, np) -> None:
        """Add the rolls; called once numpy is imported, so the probe does not import it."""
        self._roll = np.roll
        self._field = np.ones(16384, dtype=complex)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc = (acc + i * i) % 1000003
            loop_s = time.thread_time() - start
            rolls_s = None
            field = self._field
            if field is not None:
                start = time.thread_time()
                for _ in range(PROBE_ROLLS):
                    self._roll(field, 7)
                rolls_s = time.thread_time() - start
            self.samples.append((time.perf_counter(), loop_s, rolls_s))

    def cpu_s(self) -> float:
        return time.clock_gettime(self._clock)

    def others_cpu_s(self) -> float:
        """CPU seconds of this process but the probe, and of its waited-for children."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() - self.cpu_s() + children.ru_utime + children.ru_stime

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self, start: float, end: float, rolls: bool) -> float | None:
        """How many times slower than the reference host the probe ran in [start, end], padded.

        With ``rolls`` the loop and the rolls weigh equally; without, the loop alone.
        """
        ratios = []
        for at, loop_s, rolls_s in self.samples:
            if start - PROBE_PAD_S <= at <= end + PROBE_PAD_S and (rolls_s is not None or not rolls):
                ratio = loop_s / LOOP_REF_S
                ratios.append((ratio + rolls_s / ROLL_REF_S) / 2 if rolls else ratio)
        return sum(ratios) / len(ratios) if ratios else None


def run_cli(job: dict) -> tuple[int, dict]:
    cli = importlib.import_module("sphlab.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(job["argv"] + ["--no-banner"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, {"csv": buf.getvalue()}


def majorant_stack(job: dict):
    """A fixed seeded stack with every site turned by its own random unitary.

    The majorant problem is unitarily covariant: a -> U a U* solves the
    problem for U x_k U*, with the same value.  So the workload seed changes
    every number the solver sees but not the problem's difficulty, and the
    seed-to-seed spread of the solve time is the host's, not the inputs'.
    """
    import numpy as np

    ncmax = importlib.import_module("sphlab.ncmax")
    base = ncmax.random_hermitian_stack(4, job["sites"], job["n"], job["base_seed"]).matrices
    rng = np.random.Generator(np.random.Philox(job["seed"]))
    shape = base.shape[1:]
    unitary, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    turned = unitary @ base @ np.conj(np.swapaxes(unitary, -1, -2))
    return ncmax.HermitianStack((turned + np.conj(np.swapaxes(turned, -1, -2))) / 2.0)


def run_majorant(job: dict) -> tuple[int, dict]:
    ncmax = importlib.import_module("sphlab.ncmax")
    p = math.inf if job["p"] == "inf" else 2.0
    sol = ncmax.order_interval_majorant(majorant_stack(job), p)
    return 0, {
        "value": sol.value,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "majorant_re": sol.majorant.real.tolist(),
        "majorant_im": sol.majorant.imag.tolist(),
    }


RUNNERS = {"cli": run_cli, "majorant": run_majorant, "setup": lambda job: (0, {})}


def main() -> None:
    spawn_time = float(sys.argv[1])
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the probe thread inherits it
    probe = SpeedProbe()
    importlib.import_module("sphlab.cli")
    import_end = time.perf_counter()
    setup_cpu_s = probe.others_cpu_s()
    probe.arm(sys.modules["numpy"])

    trace = sys.argv[2] == "1"
    job = json.loads(sys.argv[3])
    tracer = None
    if trace:
        import spans  # this directory is first on sys.path

        tracer = spans.Tracer()
        tracer.install()
    result = {"setup_s": import_end - spawn_time, "setup_cpu_s": setup_cpu_s,
              "rc": None, "error": None, "output": {}}
    start, cpu_start = time.perf_counter(), probe.others_cpu_s()
    try:
        result["rc"], result["output"] = RUNNERS[job["kind"]](job)
    except Exception:  # reported as a failed job, never hidden
        result["error"] = traceback.format_exc()
    end, cpu_end = time.perf_counter(), probe.others_cpu_s()
    result["job_s"] = end - start
    result["job_cpu_s"] = cpu_end - cpu_start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    time.sleep(PROBE_PAD_S)  # probe samples just after the job
    probe.stop()
    result["setup_slowness"] = probe.slowness(spawn_time, import_end, rolls=False)
    result["job_slowness"] = probe.slowness(start, end, rolls=True)
    if tracer is not None:
        csv_bytes = len(result["output"].get("csv", "").encode())
        result["layers"] = tracer.report(result["job_s"], csv_bytes)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
