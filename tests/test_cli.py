import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sphlab
from sphlab import cli, decompose_arcs, residual_survey, SphereSpec
from sphlab.cli import main
from sphlab.symbols import _survey_points


def run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out), "--no-banner"])
    return code, out.read_text() if out.exists() else ""


def test_verify_gauss(tmp_path):
    code, text = run(["verify-gauss", "--qmax", "5", "--d", "4"], tmp_path)
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "q,p,d,max_abs_dev_sum_identity,max_bound_excess"
    # one row per reduced fraction: 1 + phi(2..5) = 1+1+2+2+4
    assert len(lines) - 1 == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) <= 1e-10
        assert float(fields[4]) <= 1e-12


def test_verify_gauss_single_q(tmp_path):
    code, text = run(["verify-gauss", "--qmax", "1", "--d", "2"], tmp_path)
    assert code == 0
    assert len(text.strip().splitlines()) == 2


def test_output_determinism(tmp_path):
    _, first = run(["verify-gauss", "--qmax", "6", "--d", "5"], tmp_path, "a.csv")
    _, second = run(["verify-gauss", "--qmax", "6", "--d", "5"], tmp_path, "b.csv")
    assert first == second
    _, third = run(
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20", "--seed", "9"],
        tmp_path,
        "c.csv",
    )
    _, fourth = run(
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20", "--seed", "9"],
        tmp_path,
        "d.csv",
    )
    assert third == fourth


def test_residual_zero_sample_row(tmp_path):
    code, text = run(
        ["residual", "--regime", "small", "--d", "25", "--lambda", "1", "--samples", "10", "--seed", "42"],
        tmp_path,
    )
    assert code == 0
    first = text.strip().splitlines()[1].split(",")
    assert float(first[3]) == 0.0  # injected xi = 0 has residual 0


def test_residual_regime_violation():
    code = main(
        ["residual", "--regime", "intermediate", "--d", "5", "--lambda", "100",
         "--samples", "5", "--seed", "1"]
    )
    assert code == 2


def test_residual_threshold_gate(tmp_path):
    thresholds = tmp_path / "pilot.txt"
    thresholds.write_text("residual_folded_d8_lam4_s20_seed9 = 1e-12\n")
    code = main(
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20",
         "--seed", "9", "--thresholds", str(thresholds), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 1
    code = main(
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20",
         "--seed", "9", "--thresholds", str(thresholds), "--refreeze",
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 0
    code = main(
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20",
         "--seed", "9", "--thresholds", str(thresholds), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 0


def test_ratio_survey(tmp_path):
    code, text = run(["ratio-survey", "--d", "4", "--lambdas", "1,2,3"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert rows[0][2] == repr(0.125)
    assert all(row[5] == "ok" for row in rows)
    code, text = run(["ratio-survey", "--d", "2", "--lambdas", "1,3"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert rows[1][5] == "empty"


def test_ratio_survey_past_the_float_range_of_the_power(tmp_path):
    # 120^149 overflows a float; the ratio is divided before it is rounded
    code, text = run(["ratio-survey", "--d", "300", "--lambdas", "120"], tmp_path)
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert math.isfinite(float(row[2])) and row[5] == "ok"


def test_ratio_survey_rejects_zero():
    with pytest.raises(SystemExit) as exc:
        main(["ratio-survey", "--d", "4", "--lambdas", "0,1"])
    assert exc.value.code == 2


def test_decompose_bookkeeping_columns(tmp_path):
    code, text = run(
        ["decompose", "--d", "2", "--lambda", "4", "--nmin", "1", "--nmax", "3",
         "--samples", "2", "--seed", "11"],
        tmp_path,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "d,lam,n,xi_index,abs_major,abs_minor,abs_error,paper_bound"
    assert len(lines) - 1 == 3 * 3  # three cutoffs, three frequencies (xi=0 injected)


def test_decompose_budget(tmp_path):
    code = main(
        ["decompose", "--d", "2", "--lambda", "100000", "--nmax", "1", "--samples", "1",
         "--seed", "1", "--budget", "1e6", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_maximal_survey_gate_and_solver(tmp_path):
    thresholds = tmp_path / "pilot.txt"
    thresholds.write_text("maxratio_d2_L16_m01_t3_seed5 = 0.0\n")
    out = tmp_path / "m.csv"
    code = main(
        ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1", "--trials", "3",
         "--seed", "5", "--fiber-trials", "1", "--thresholds", str(thresholds),
         "--out", str(out), "--no-banner"]
    )
    assert code == 1  # frozen value deliberately wrong
    code = main(
        ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1", "--trials", "3",
         "--seed", "5", "--fiber-trials", "1", "--thresholds", str(thresholds), "--refreeze",
         "--out", str(out), "--no-banner"]
    )
    assert code == 0
    code = main(
        ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1", "--trials", "3",
         "--seed", "5", "--fiber-trials", "1", "--thresholds", str(thresholds),
         "--out", str(out), "--no-banner"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    ratio_rows = [r for r in rows if r[0] == "ratio_max"]
    assert all(float(r[6]) <= len([0, 1]) for r in ratio_rows)
    solver_rows = [r for r in rows if r[0] == "majorant"]
    assert solver_rows
    assert all(float(r[7]) <= 1e-6 for r in solver_rows)


def test_maximal_survey_gate_fires_on_unmet_tolerance(tmp_path, capsys):
    # this stack certifies 1e-12 only after 99 sweeps, so a budget of 50 leaves it unmet
    code, text = run(
        ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1", "--trials", "1",
         "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "4", "--tol", "1e-12",
         "--max-iter", "50"],
        tmp_path,
    )
    assert code == 1
    gaps = [float(line.split(",")[7]) for line in text.splitlines() if line.startswith("majorant,")]
    assert gaps and max(gaps) > 1e-12
    # the gate names the stack, p, gap, tol, the work done and why the solve
    # stopped; p = inf is exact.  Three of the 4 sites froze after 13, 14 and
    # 22 sweeps, so 50 sweeps made 99 site-sweeps.
    fired = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# majorant ")]
    assert len(fired) == 1
    assert fired[0] == (
        f"# majorant seed 1007 p 2: certified gap {max(gaps)!r} above tol 1e-12 "
        "after 50 iterations, 99 site-sweeps (converged False)"
    )


def test_maximal_survey_max_iter_budget(tmp_path, capsys):
    # 2,048 sites need 182 sweeps to certify tol 1e-6 on stack seed 1007
    argv = ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1,2", "--trials", "1",
            "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "2048"]
    code, _ = run(argv + ["--max-iter", "100"], tmp_path)
    assert code == 1
    fired = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# majorant ")]
    assert len(fired) == 1
    assert fired[0].endswith("after 100 iterations, 32190 site-sweeps (converged False)")
    code, text = run(argv, tmp_path)
    assert code == 0
    gaps = [float(line.split(",")[7]) for line in text.splitlines() if line.startswith("majorant,")]
    assert len(gaps) == 2 and max(gaps) <= 1e-6
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--max-iter={bad}", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max-iter = 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def per_stack_majorant_rows(d, family, sites, trials, seed, tol, max_iter):
    """Oracle: the survey's majorant rows and gate lines from one lone solve per stack and p."""
    rows, fired = [], []
    for trial in range(trials):
        stack_seed = seed + 1000 + trial
        stack = sphlab.random_hermitian_stack(family, sites, 2, stack_seed)
        for p_label, p in (("2", 2.0), ("inf", math.inf)):
            sol = sphlab.order_interval_majorant(stack, p, tol=tol, max_iter=max_iter)
            gap = sol.value - sol.lower_bound
            rows.append(["majorant", d, sites, 2, family, p_label, sol.value, gap, stack_seed])
            if gap > tol:
                fired.append(
                    f"# majorant seed {stack_seed} p {p_label}: certified gap {gap!r} "
                    f"above tol {tol!r} after {sol.iterations} iterations, "
                    f"{sol.site_sweeps} site-sweeps (converged {sol.converged})"
                )
    return rows, fired


README_MAXIMAL = ["maximal-survey", "--dims", "2,3,4,5", "--sides", "32,32,16,12", "--scales", "0,1,2",
                  "--trials", "8", "--seed", "7", "--fiber-trials", "8", "--fiber-sites", "32"]


@pytest.mark.parametrize(
    "argv,oracle",
    [
        (README_MAXIMAL, (2, 3, 32, 8, 7, 1e-6, 500)),
        # three stacks of 4 sites: 50 sweeps leave the first short of 1e-12, the others certify it
        (["maximal-survey", "--dims", "3", "--sides", "8", "--scales", "0,1", "--trials", "1",
          "--seed", "7", "--fiber-trials", "3", "--fiber-sites", "4", "--tol", "1e-12",
          "--max-iter", "50"], (3, 2, 4, 3, 7, 1e-12, 50)),
    ],
)
def test_survey_majorant_rows_equal_the_per_stack_loop(tmp_path, monkeypatch, capsys, argv, oracle):
    code, _, (_, rows) = captured_run(argv, tmp_path, monkeypatch)
    expected, fired = per_stack_majorant_rows(*oracle)
    assert [row for row in rows if row[0] == "majorant"] == expected
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# majorant ")]
    assert err == fired
    assert code == (1 if fired else 0)
    assert len(fired) == (1 if oracle[5] == 1e-12 else 0)


def test_maximal_survey_without_fiber_trials(tmp_path, capsys):
    code, text = run(MAXIMAL_ARGV[:-4] + ["--fiber-trials", "0"], tmp_path)
    assert code == 0
    kinds = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert kinds == ["ratio_max", "ratio_mean"]
    assert "# majorant" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["maximal-survey", "--sides", "8", "--trials", "1", "--seed", "7"], "dims"),
        (["ratio-survey", "--d", "8"], "lambdas"),
    ],
)
def test_empty_int_list_exit_2(tmp_path, argv, flag):
    out = ["--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{flag}", ","] + out)
    assert exc.value.code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{flag} = ,\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv + out)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_maximal_survey_over_site_budget_exit_3(tmp_path, capsys):
    # 3^30 sites: the budget check must come before any torus array is allocated
    out = tmp_path / "x.csv"
    argv = ["maximal-survey", "--dims", "30", "--sides", "3", "--scales", "0", "--trials", "1",
            "--seed", "7", "--out", str(out)]
    assert main(argv) == 3
    assert "3^30 sites exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_maximal_survey_over_dense_work_budget_exit_3(tmp_path, capsys):
    # 4 x 33^5 multiply-adds per transform: side 32 is the largest within the budget at d = 4
    out = tmp_path / "x.csv"
    argv = ["maximal-survey", "--dims", "4", "--sides", "33", "--scales", "0,1,2", "--trials", "1",
            "--seed", "7", "--out", str(out)]
    assert main(argv) == 3
    assert "infeasible scale: 4 x 33^5 multiply-adds" in capsys.readouterr().err
    assert not out.exists()


def test_maximal_survey_over_fiber_budget_exit_3(tmp_path, capsys):
    # 10^15 fiber sites: the stack's entry budget is checked before it is drawn
    out = tmp_path / "x.csv"
    argv = ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1", "--trials", "1",
            "--seed", "7", "--fiber-trials", "1", "--fiber-sites", str(10**15), "--out", str(out)]
    assert main(argv) == 3
    assert "entry budget" in capsys.readouterr().err
    assert not out.exists()


def test_folded_residual_over_rule_budget_exit_3(tmp_path, capsys):
    # lambda = 10^20 puts radii near 10^10, where the sphere-measure rule needs ~10^10 cosines each
    out = tmp_path / "x.csv"
    argv = ["residual", "--regime", "folded", "--d", "8", "--lambda", str(10**20), "--samples", "5",
            "--seed", "9", "--out", str(out)]
    assert main(argv) == 3
    assert "sphere-measure rule" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,quantity",
    [
        (["ratio-survey", "--d", "400", "--lambdas", "1"], "surface measure"),
        (["decompose", "--d", "400", "--lambda", "4", "--nmax", "2", "--samples", "1", "--seed", "1"],
         "surface measure"),
        (["decompose", "--d", "190", "--lambda", "4", "--nmax", "2", "--samples", "1", "--seed", "1"],
         "envelope"),
    ],
)
def test_float_overflow_exits_3(tmp_path, capsys, argv, quantity):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible scale:") and quantity in err
    assert not out.exists()


def test_small_residual_in_2000_dimensions(tmp_path):
    # the count table is built in a loop over d, not one recursion level per dimension
    code, text = run(
        ["residual", "--regime", "small", "--d", "2000", "--lambda", "1", "--samples", "1", "--seed", "1"],
        tmp_path,
    )
    assert code == 0 and text.splitlines()[0] == "xi_hash,v_card,branch,residual,bound,ratio"


BAD_POSITIVE = ["nan", "inf", "-inf", "0", "-1"]
TOL_ARGV = ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1", "--trials", "1",
            "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "4"]
BUDGET_ARGV = ["decompose", "--d", "5", "--lambda", "100000", "--nmax", "1", "--samples", "0",
               "--seed", "1"]


@pytest.mark.parametrize("value", BAD_POSITIVE)
@pytest.mark.parametrize("name,argv", [("tol", TOL_ARGV), ("budget", BUDGET_ARGV)])
def test_bad_tol_and_budget_exit_2(tmp_path, name, argv, value):
    out = ["--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{name}={value}"] + out)
    assert exc.value.code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv + out)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


BASE_FLAGS = {
    "residual": {"regime": "folded", "d": "8", "lambda": "4", "samples": "5", "seed": "9"},
    "decompose": {"d": "2", "lambda": "4", "nmin": "1", "nmax": "1", "samples": "1", "seed": "1"},
    "maximal-survey": {"dims": "2", "sides": "8", "scales": "0,1", "trials": "1", "seed": "7",
                       "fiber-trials": "1", "fiber-sites": "4"},
}


@pytest.mark.parametrize(
    "command,name,bad,lowest",
    [
        ("residual", "samples", "-1", "0"),
        ("decompose", "samples", "-3", "0"),
        ("residual", "seed", "-1", "0"),
        ("decompose", "seed", "-1", "0"),
        ("maximal-survey", "seed", "-1", "0"),
        ("maximal-survey", "fiber-sites", "-2", "1"),
        ("maximal-survey", "fiber-trials", "-1", "0"),
        ("decompose", "nmin", "3", "1"),  # --nmax is 1
    ],
)
def test_bad_counts_and_seeds_exit_2(tmp_path, command, name, bad, lowest):
    flags = {k: v for k, v in BASE_FLAGS[command].items() if k != name}
    argv = [command] + [f"--{k}={v}" for k, v in flags.items()] + ["--out", str(tmp_path / "x.csv")]
    assert main(argv + [f"--{name}={lowest}"]) == 0  # the smallest accepted value runs
    (tmp_path / "x.csv").unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{name}={bad}"])
    assert exc.value.code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {bad}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qmax = 4\nd = 3\nno-banner = true\n")
    out = tmp_path / "cfg.csv"
    code = main(["--config", str(cfg), "verify-gauss", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("q,p,d,")
    # flags still override the config
    code = main(["--config", str(cfg), "verify-gauss", "--d", "2", "--out", str(out)])
    assert code == 0
    assert ",2," in out.read_text().splitlines()[1]


def test_missing_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--regime", "small"])
    assert exc.value.code == 2


def test_banner_toggle(tmp_path):
    out = tmp_path / "banner.csv"
    assert main(["verify-gauss", "--qmax", "2", "--d", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith("# sphlab verify-gauss ")
    assert main(["verify-gauss", "--qmax", "2", "--d", "2", "--out", str(out), "--no-banner"]) == 0
    assert out.read_text().startswith("q,p,d,")


def test_residual_folded_d13(tmp_path):
    # d = 13 is a dimension where an adaptive-quadrature symbol cannot certify 1e-10
    code, text = run(
        ["residual", "--regime", "folded", "--d", "13", "--lambda", "4", "--samples", "20", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    assert len(text.strip().splitlines()) == 1 + 21 + 1


def test_config_malformed_value_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("qmax = 4\nd = 3\nbogus = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify-gauss"])
    assert exc.value.code == 2


def test_missing_thresholds_file_exit_2(tmp_path):
    missing = tmp_path / "absent.txt"
    argv = ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "5",
            "--seed", "9", "--thresholds", str(missing), "--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not missing.exists()
    assert main(argv + ["--refreeze"]) == 0
    assert "residual_folded_d8_lam4_s5_seed9 = " in missing.read_text()
    assert main(argv) == 0


SCIPY_FREE_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import sphlab.cli
loaded = set(sys.modules)
codes = [sphlab.cli.main(argv) for argv in json.loads(sys.argv[1])]
from sphlab import order_interval_majorant, random_hermitian_stack
solution = order_interval_majorant(random_hermitian_stack(3, 4, 2, 5), 2.0)
late = sorted(m for m in set(sys.modules) - loaded if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"codes": codes, "converged": bool(solution.converged), "late_numpy": late}))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is blocked, so every command must run on numpy alone; and every numpy
    # submodule a command uses is imported with sphlab.cli, inside the set-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphlab.__file__)))
    commands = [
        ["maximal-survey", "--dims", "2,3", "--sides", "8,8", "--scales", "0,1", "--trials", "1",
         "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "4"],
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "20",
         "--seed", "9"],
        ["decompose", "--d", "5", "--lambda", "16", "--nmax", "5", "--samples", "1", "--seed", "1"],
        ["verify-gauss", "--qmax", "6", "--d", "8"],
        ["ratio-survey", "--d", "8", "--lambdas", "1,2,3"],
    ]
    argvs = [argv + ["--no-banner", "--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(commands)]
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0] * len(commands), "converged": True, "late_numpy": []}
    assert all((tmp_path / f"{i}.csv").stat().st_size > 0 for i in range(len(commands)))


RESIDUAL_ARGV = ["residual", "--regime", "folded", "--d", "8", "--lambda", "4", "--samples", "5",
                 "--seed", "9"]
MAXIMAL_ARGV = ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1", "--trials", "1",
                "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "4"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv,key",
    [(RESIDUAL_ARGV, "residual_folded_d8_lam4_s5_seed9"), (MAXIMAL_ARGV, "maxratio_d2_L8_m01_t1_seed7")],
)
def test_non_finite_frozen_threshold_exit_2(tmp_path, capsys, argv, key, value):
    # a nan ceiling or regression value would pass every comparison and disarm its gate
    thresholds = tmp_path / "pilot.txt"
    thresholds.write_text(f"# pilot\n{key} = {value}\n")
    out = tmp_path / "x.csv"
    assert main(argv + ["--thresholds", str(thresholds), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{thresholds}:2:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["residual_folded_d8_lam4_s5_seed9 = abc", "just some words", "= 1.0"])
def test_malformed_threshold_line_exit_2(tmp_path, capsys, line):
    thresholds = tmp_path / "pilot.txt"
    thresholds.write_text(f"# pilot\n\nresidual_small_d25_lam1_s10_seed1 = 1.5\n{line}\n")
    out = tmp_path / "x.csv"
    assert main(RESIDUAL_ARGV + ["--thresholds", str(thresholds), "--out", str(out)]) == 2
    assert f"{thresholds}:4:" in capsys.readouterr().err
    assert not out.exists()
    assert main(MAXIMAL_ARGV + ["--thresholds", str(thresholds), "--out", str(out)]) == 2


def sphlab_process(argv):
    """The command line run in a fresh interpreter, with the process's exit code and stderr as a user sees them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "sphlab.cli", *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio-survey", "--d", "8", "--lambdas", "5", "--out", "{tmp}/missing/x.csv"],
        RESIDUAL_ARGV + ["--thresholds", "{tmp}"],
        RESIDUAL_ARGV + ["--refreeze", "--thresholds", "{tmp}/missing/t.txt"],
    ],
    ids=["out-in-a-missing-directory", "thresholds-a-directory", "refreeze-into-a-missing-directory"],
)
def test_file_errors_exit_2_without_a_traceback(tmp_path, argv):
    done = sphlab_process([arg.format(tmp=tmp_path) for arg in argv] + ["--no-banner"])
    lines = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--regime", "folded", "--d", "8", "--lambda", "1"],
        ["decompose", "--d", "8", "--lambda", "1", "--nmax", "2"],
    ],
    ids=["residual", "decompose"],
)
def test_huge_samples_exit_3_before_the_draw(tmp_path, capsys, argv):
    # (10^14 + 1) x 8 float64 entries: the draw's entry budget is checked before it is allocated
    out = tmp_path / "x.csv"
    assert main(argv + ["--samples", str(10**14), "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("infeasible scale: 100000000000001 x 8 survey entries")
    assert not out.exists()


@pytest.mark.parametrize(
    "text,where",
    [
        ("qmax = 4\nd = 3\nmax_iters = 9\n", ":3: no subcommand has the flag --max-iters"),
        ("qmax = 4\nlam = 4\n", ":2: no subcommand has the flag --lam"),
        ("qmax = abc\n", ":1: --qmax cannot take 'abc'"),
        ("d = 2\nno-banner = maybe\n", ":2: --no-banner cannot take 'maybe'"),
        ("help = 1\n", ":1: no subcommand has the flag --help"),
    ],
)
def test_config_unknown_key_or_bad_value_exit_2(tmp_path, capsys, text, where):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify-gauss", "--qmax", "2", "--d", "2"])
    assert exc.value.code == 2
    assert f"{cfg}{where}" in capsys.readouterr().err


def test_config_keys_take_their_flags_types(tmp_path):
    from sphlab.cli import _apply_config, _build_parser

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "regime = folded\nd = 8\nlambda = 4\nsamples = 5\nseed = 9\nno_banner = yes\n"
        "fiber-sites = 3\nmax_iter = 7\ntol = 1e-3\nscales = 0,1\n"
    )
    parser = _build_parser()
    args = parser.parse_args(_apply_config(parser, ["--config", str(cfg), "maximal-survey"]))
    assert (args.fiber_sites, args.max_iter, args.tol, args.scales) == (3, 7, 1e-3, [0, 1])
    assert args.no_banner is True and args.seed == 9
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "residual", "--out", str(out)]) == 0
    assert out.read_text().startswith("xi_hash,")
    assert len(out.read_text().splitlines()) == 1 + 6 + 1


def per_cell_format(value) -> str:
    """Oracle: the formatting the CSV writer applied to each cell, one call per cell."""
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def per_row_xi_hash(xi) -> str:
    """Oracle: the residual frequency hash, one array conversion per row."""
    return hashlib.sha256(np.asarray(xi, dtype=float).tobytes()).hexdigest()[:12]


def per_cell_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([per_cell_format(v) for v in row])
    return buf.getvalue()


def captured_run(argv, tmp_path, monkeypatch):
    """Run a command; return its exit code, its CSV text and the (header, rows) it wrote."""
    captured = []
    write = cli._write_csv

    def capture(args, header, rows):
        captured.append((header, rows))
        write(args, header, rows)

    monkeypatch.setattr(cli, "_write_csv", capture)
    code, text = run(argv, tmp_path)
    (written,) = captured
    return code, text, written


RESIDUAL_SMALL = ["residual", "--regime", "small", "--d", "25", "--lambda", "1", "--samples", "40", "--seed", "42"]
RESIDUAL_INTERMEDIATE = ["residual", "--regime", "intermediate", "--d", "10", "--lambda", "1000",
                         "--samples", "20", "--seed", "42"]
# at this case numpy's vectorized complex abs differs from abs() in the last bit of two entries
DECOMPOSE = ["decompose", "--d", "3", "--lambda", "300", "--nmin", "2", "--nmax", "18", "--samples", "5", "--seed", "9"]


@pytest.mark.parametrize(
    "argv",
    [
        RESIDUAL_SMALL,
        RESIDUAL_INTERMEDIATE,
        RESIDUAL_ARGV,
        ["ratio-survey", "--d", "5", "--lambdas", "1,2,3,4,5,6,7,8,1000"],
        ["ratio-survey", "--d", "2", "--lambdas", "1,3,25"],
        DECOMPOSE,
        ["verify-gauss", "--qmax", "12", "--d", "8"],
        MAXIMAL_ARGV,
    ],
)
def test_csv_text_equals_per_cell_formatting(tmp_path, monkeypatch, argv):
    code, text, (header, rows) = captured_run(argv, tmp_path, monkeypatch)
    assert code == 0
    assert text == per_cell_csv(header, rows)


def test_csv_writer_formats_edge_floats_as_repr(tmp_path):
    edges = [1e16, 1e-5, 5e-324, math.nan, math.inf, -0.0, 0.1, 1 / 3, 2.0**53 + 2, 123456789.0]
    header = ["x", "minus_x", "n", "blank", "status"]
    rows = [[x, y, 7, "", "ok"] for x, y in zip(edges, np.negative(edges).tolist())]
    out = tmp_path / "edges.csv"
    cli._write_csv(argparse.Namespace(command="edges", no_banner=True, out=str(out)), header, rows)
    text = out.read_text()
    assert text == per_cell_csv(header, rows)
    assert text == per_cell_csv(header, [[np.float64(x), np.float64(y), *rest] for x, y, *rest in rows])


def csv_module_text(header, rows) -> str:
    """Oracle: the rows through ``csv.writer``, the route the CLI wrote its CSV by before it built the text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


README_COMMANDS = [
    ["verify-gauss", "--qmax", "12", "--d", "8"],
    ["residual", "--regime", "small", "--d", "25", "--lambda", "1", "--samples", "1000", "--seed", "42"],
    ["residual", "--regime", "intermediate", "--d", "10", "--lambda", "1000", "--samples", "200", "--seed", "42"],
    ["residual", "--regime", "folded", "--d", "16", "--lambda", "4", "--samples", "1000", "--seed", "42"],
    ["ratio-survey", "--d", "4", "--lambdas", "1,2,3,4,5"],
    ["decompose", "--d", "2", "--lambda", "4", "--nmin", "1", "--nmax", "3", "--samples", "2", "--seed", "7"],
    README_MAXIMAL[:-4],
    ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1,2", "--trials", "1", "--seed", "7",
     "--fiber-trials", "1", "--fiber-sites", "2048"],
]
# the benchmark's surveys jobs not already above; its ratio window starts at a seeded
# lambda in 980..1020 and its decompose seeds are drawn, so these cover every draw's shape
SURVEYS_COMMANDS = [
    *(["residual", "--regime", "folded", "--d", str(d), "--lambda", str(lam), "--samples", "1000", "--seed", "42"]
      for d in (8, 16) for lam in (1, 4, 16) if (d, lam) != (16, 4)),
    ["ratio-survey", "--d", "8", "--lambdas", ",".join(map(str, range(980, 1060)))],
    ["decompose", "--d", "5", "--lambda", "1024", "--nmax", "33", "--samples", "2", "--seed", "1"],
    ["decompose", "--d", "8", "--lambda", "400", "--nmax", "21", "--samples", "2", "--seed", "2"],
    ["verify-gauss", "--qmax", "48", "--d", "8"],
]


@pytest.mark.parametrize("argv", README_COMMANDS + SURVEYS_COMMANDS, ids=" ".join)
def test_csv_text_equals_the_csv_module_writer(tmp_path, monkeypatch, argv):
    code, text, (header, rows) = captured_run(argv, tmp_path, monkeypatch)
    assert code == 0 and rows
    assert text == csv_module_text(header, rows)


def test_banner_precedes_the_csv_module_text(tmp_path):
    out = tmp_path / "banner.csv"
    rows = [[1, 0.5, "ok"], [2, 1e-300, ""]]
    cli._write_csv(argparse.Namespace(command="edges", no_banner=False, out=str(out)), ["n", "x", "s"], rows)
    banner, rest = out.read_text().split("\n", 1)
    assert banner.startswith("# sphlab edges ") and banner.endswith("Z")
    assert rest == csv_module_text(["n", "x", "s"], rows)


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "two\nlines"])
def test_fields_the_csv_module_would_quote_make_the_writers_differ(tmp_path, field):
    # the CLI never writes such a field; the csv module quotes it, the CLI's join does not
    out = tmp_path / "quoted.csv"
    rows = [[1, 0.25, "plain"], [2, 0.5, field]]
    cli._write_csv(argparse.Namespace(command="edges", no_banner=True, out=str(out)), ["n", "x", "s"], rows)
    assert out.read_text() != csv_module_text(["n", "x", "s"], rows)
    plain = rows[:1]
    cli._write_csv(argparse.Namespace(command="edges", no_banner=True, out=str(out)), ["n", "x", "s"], plain)
    assert out.read_text() == csv_module_text(["n", "x", "s"], plain)


@pytest.mark.parametrize("argv", [RESIDUAL_SMALL, RESIDUAL_INTERMEDIATE, RESIDUAL_ARGV])
def test_residual_hashes_equal_per_row_hashes(tmp_path, monkeypatch, argv):
    _, _, (_, rows) = captured_run(argv, tmp_path, monkeypatch)
    flags = dict(zip(argv[1::2], argv[2::2]))
    survey = residual_survey(
        SphereSpec(int(flags["--d"]), int(flags["--lambda"])),
        flags["--regime"], int(flags["--samples"]), int(flags["--seed"]),
    )
    hashes = [row[0] for row in rows[: len(survey.xis)]]
    assert hashes == [per_row_xi_hash(xi) for xi in survey.xis]


def test_decompose_magnitudes_equal_scalar_abs(tmp_path, monkeypatch):
    # the column magnitudes are those of abs() on each complex entry
    _, _, (_, rows) = captured_run(DECOMPOSE, tmp_path, monkeypatch)
    points = _survey_points(3, 5, 9)
    arcs = decompose_arcs(SphereSpec(3, 300), points, range(2, 19))
    expected = [
        [3, 300, n, i, abs(arcs.major[k, i]), abs(arcs.minor[k, i]), abs(arcs.error[k, i]), arcs.paper_bound]
        for k, n in enumerate(range(2, 19))
        for i in range(len(points))
    ]
    assert [row[4:7] for row in rows] == [row[4:7] for row in expected]
    assert per_cell_csv([], rows) == per_cell_csv([], expected)
