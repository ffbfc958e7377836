import os
import subprocess
import sys

import pytest

import sphlab
from sphlab.cli import main


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
    # 1e-12 is below what the default iteration budget can certify
    code, text = run(
        ["maximal-survey", "--dims", "2", "--sides", "8", "--scales", "0,1", "--trials", "1",
         "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "4", "--tol", "1e-12"],
        tmp_path,
    )
    assert code == 1
    gaps = [float(line.split(",")[7]) for line in text.splitlines() if line.startswith("majorant,")]
    assert gaps and max(gaps) > 1e-12
    # the gate names the stack, p, gap, tol and why the solve stopped; p = inf is exact
    fired = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# majorant ")]
    assert len(fired) == 1
    assert fired[0] == (
        f"# majorant seed 1007 p 2: certified gap {max(gaps)!r} above tol 1e-12 "
        "after 500 iterations (converged False)"
    )


def test_maximal_survey_max_iter_budget(tmp_path, capsys):
    # 2,048 sites need 812 iterations to certify tol 1e-6 on stack seed 1007
    argv = ["maximal-survey", "--dims", "2", "--sides", "16", "--scales", "0,1,2", "--trials", "1",
            "--seed", "7", "--fiber-trials", "1", "--fiber-sites", "2048"]
    code, _ = run(argv, tmp_path)
    assert code == 1
    fired = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# majorant ")]
    assert len(fired) == 1 and fired[0].endswith("after 500 iterations (converged False)")
    code, text = run(argv + ["--max-iter", "1000"], tmp_path)
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


def test_cli_import_skips_scipy_integrate_and_optimize():
    # scipy.fft too: only the spherical average imports it, and most commands never average
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphlab.__file__)))
    probe = (
        "import sys, sphlab.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.fft') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
