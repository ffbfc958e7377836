"""Self-test of the benchmark: tiny smoke runs and checks that must fail.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``.
The file name keeps it out of the tier-1 suite: the smoke runs start a
dozen interpreters, and the benchmark is not part of the package.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload,trace,table", [("surveys", 0, run.END_TO_END), ("majorant", 1, run.PER_LAYER)])
def test_smoke_prints_every_metric_with_unit(workload, trace, table):
    lines, result = smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(name for name, _, _ in table)
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
        assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac = 0/") for line in lines)


def test_traced_layers_account_for_the_job_time():
    _, result = smoke("maximal", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    layer_sum = sum(m[f"{layer}.self_s"] for layer in ("lattice", "symbols", "gauss", "fields", "ncmax"))
    assert layer_sum + m["cli.main.self_s"] + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["fields.spherical_average.calls"] > 0 and m["ncmax.order_interval_majorant.n2.self_s"] > 0


def test_corrupted_majorant_is_counted_in_fail_frac():
    job = run.majorant(5, smoke=True)[0]
    good, stderr = run.spawn(job, traced=False)
    assert checks.check(job, good, stderr) == []
    bad = json.loads(json.dumps(good))
    a = np.asarray(bad["output"]["majorant_re"]) - 0.1 * np.eye(job["n"])
    bad["output"]["majorant_re"] = a.tolist()
    assert any("eigenvalue" in msg for msg in checks.check(job, bad, stderr))
    tally = run.tally([job], [(False, [(good, stderr)]), (False, [(bad, stderr)])])
    assert (tally["attempted"], tally["failed"]) == (2, 1)


def test_wrong_r8_is_a_failure():
    job = run.surveys(5, smoke=True)[2]
    assert job["argv"][0] == "ratio-survey"
    good, stderr = run.spawn(job, traced=False)
    assert checks.check(job, good, stderr) == []
    header, first, *rest = good["output"]["csv"].splitlines()
    fields = first.split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-9))
    bad = {**good, "output": {"csv": "\n".join([header, ",".join(fields), *rest]) + "\n"}}
    assert any("r_8" in msg for msg in checks.check(job, bad, stderr))


def test_r8_oracle_against_small_cases():
    # r_8(1) = 16, r_8(2) = 112, r_8(3) = 448 (OEIS A000143)
    assert [checks.r8_jacobi(n) for n in (1, 2, 3)] == [16, 112, 448]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "surveys", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_rescales_by_its_own_slowness():
    import job

    probe = job.SpeedProbe()
    start = time.perf_counter()
    time.sleep(0.3)
    probe.arm(np)
    time.sleep(0.3)
    probe.stop()
    assert probe.cpu_s() > 0
    loop_only = probe.slowness(start, start + 0.6, rolls=False)
    with_rolls = probe.slowness(start + 0.3, start + 0.6, rolls=True)
    assert loop_only > 0 and with_rolls > 0
    result = {"job_cpu_s": 2.0, "job_slowness": 1.25, "setup_cpu_s": 1.0, "setup_slowness": None}
    assert run.rescaled(result, "job") == pytest.approx(1.6)
    assert run.rescaled(result, "setup") is None
