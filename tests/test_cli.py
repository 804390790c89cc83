import json
import math
import os
import subprocess
import sys

import pytest

from chenfliess import (
    DataValidationError,
    analytic_bound,
    bilinear_bound,
    builtin_system,
    hopfield_bound,
    make_dataset,
)
from chenfliess.cli import main


@pytest.fixture
def capsys_json(capsys):
    def run(argv):
        main(argv)
        out = capsys.readouterr().out
        return json.loads(out)

    return run


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps({
        "m": 2,
        "breakpoints": [0.0, 0.15, 0.3],
        "values": [[1.0, 0.0], [0.0, 1.0]],
        "M": 1.0,
    }))
    return str(p)


@pytest.fixture
def system_file(tmp_path):
    p = tmp_path / "system.json"
    p.write_text(json.dumps({
        "n": 1, "m": 1, "g": [["x1"]], "c": [1.0],
        "r": 2.0, "M": 1.0, "T": 0.5,
    }))
    return str(p)


def test_parse_check(capsys_json):
    out = capsys_json(["parse-check", "--expr", "2*x1 + x2^2", "--n", "2"])
    assert out["ok"]
    assert "x1" in out["simplified"]


def test_parse_check_error_propagates():
    with pytest.raises(Exception):
        main(["parse-check", "--expr", "x9", "--n", "2"])


def test_signature_subcommand(capsys_json, path_file):
    out = capsys_json(["signature", "--path", path_file, "--order", "2"])
    entries = {tuple(e["word"]): e["value"] for e in out["entries"]}
    assert entries[()] == 1.0
    assert entries[(1,)] == pytest.approx(0.15)
    assert entries[(1, 2)] == pytest.approx(0.15 * 0.15)
    assert entries[(2, 1)] == 0.0


def test_signature_rejects_nan_control_without_output(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"m": 1, "breakpoints": [0.0, 1.0],
                                "values": [[math.nan]], "M": 1.0}))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match="must be finite"):
        main(["signature", "--path", str(path), "--order", "2"])
    assert capsys.readouterr().out == ""


def test_lie_subcommand(capsys_json):
    out = capsys_json([
        "lie", "--system", "bilinear2d", "--word", "1,2",
        "--point", "1.0,0.0", "--lambda-k", "2", "--grid", "16",
    ])
    assert out["expr"] == "x1"
    assert out["value"] == 1.0
    assert out["lambda_k"]["k"] == 2
    assert out["lambda_k"]["value"] <= 1.0 + 1e-12


def test_state_dimension_checked_by_subcommands(capsys, system_file, tmp_path):
    p = tmp_path / "u.json"
    p.write_text(json.dumps({
        "m": 1, "breakpoints": [0.0, 0.5], "values": [[1.0]], "M": 1.0,
    }))
    wrong_x0 = "x0 has 2 components, system has n = 1"
    argvs = [
        (["lie", "--system", "bilinear2d", "--word", "1", "--point=0.1,0.2,0.3"],
         "--point has 3 components, system has n = 2"),
        (["eval-series", "--system", system_file, "--path", str(p),
          "--x0", "0.1,0.2", "--order", "2"], wrong_x0),
        (["simulate", "--system", system_file, "--path", str(p),
          "--x0", "0.1,0.2", "--step", "1e-2"], wrong_x0),
    ]
    for argv, match in argvs:
        with pytest.raises(ValueError, match=match):
            main(argv)
        assert capsys.readouterr().out == ""


def test_eval_series_subcommand(capsys_json, system_file, tmp_path):
    p = tmp_path / "u.json"
    p.write_text(json.dumps({
        "m": 1, "breakpoints": [0.0, 0.5], "values": [[1.0]], "M": 1.0,
    }))
    contrib = tmp_path / "contrib.csv"
    out = capsys_json([
        "eval-series", "--system", system_file, "--path", str(p),
        "--x0", "1.0", "--order", "12", "--ode-step", "1e-3",
        "--family", json.dumps({"kind": "bilinear", "r": 2.0, "a": 1.0}),
        "--contributions-out", str(contrib),
    ])
    assert out["value"] == pytest.approx(math.exp(0.5), abs=1e-8)
    assert out["discrepancy"] <= out["tail_bound"] + 1e-8
    lines = contrib.read_text().splitlines()
    assert lines[0] == "order,contribution"
    assert len(lines) == 14  # header + orders 0..12
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


def test_simulate_subcommand(capsys_json, system_file, tmp_path):
    p = tmp_path / "u.json"
    p.write_text(json.dumps({
        "m": 1, "breakpoints": [0.0, 0.5], "values": [[1.0]], "M": 1.0,
    }))
    traj = tmp_path / "traj.csv"
    out = capsys_json([
        "simulate", "--system", system_file, "--path", str(p),
        "--x0", "1.0", "--step", "1e-3", "--trajectory-out", str(traj),
    ])
    assert out["y"] == pytest.approx(math.exp(0.5), abs=1e-9)
    header = traj.read_text().splitlines()[0]
    assert header == "t,x1"


def _closed_form_report(kind, inputs, total, ok=True):
    return {"kind": kind, "inputs": inputs, "K": None, "partial_sum": None,
            "tail": None, "total": total, "precondition_ok": ok}


def test_bound_subcommands(capsys_json, capsys, tmp_path):
    out = capsys_json([
        "bound", "bilinear", "--r", "1", "--m", "1", "--M", "1",
        "--T", "1", "--a", "1", "--N", "100",
    ])
    assert out["total"] == pytest.approx(math.e / 10.0)
    assert out == _closed_form_report(
        "bilinear", {"r": 1.0, "m": 1, "M": 1.0, "T": 1.0, "a": 1.0, "N": 100},
        bilinear_bound(1.0, 1, 1.0, 1.0, 1.0, 100))

    out = capsys_json([
        "bound", "analytic", "--r", "1", "--n", "1", "--m", "1", "--M", "1",
        "--T", "0.1", "--a_r", "1", "--N", "100",
    ])
    assert out["total"] == pytest.approx(0.375)
    assert out == _closed_form_report(
        "analytic",
        {"r": 1.0, "n": 1, "m": 1, "M": 1.0, "T": 0.1, "a_r": 1.0, "N": 100},
        analytic_bound(1.0, 1, 1, 1.0, 0.1, 1.0, 100))

    out = capsys_json([
        "bound", "hopfield", "--r", "1", "--n", "2", "--M", "1",
        "--T", "0.01", "--a", "1", "--b", "1", "--N", "100",
    ])
    assert out == _closed_form_report(
        "hopfield",
        {"r": 1.0, "n": 2, "M": 1.0, "T": 0.01, "a": 1.0, "b": 1.0, "N": 100},
        hopfield_bound(1.0, 2, 1.0, 0.01, 1.0, 1.0, 100))

    out = capsys_json([
        "bound", "hopfield", "--r", "1", "--n", "1", "--M", "1",
        "--T", "0.5", "--a", "1", "--b", "1", "--N", "100",
    ])
    assert out["total"] == "divergent"
    assert not out["precondition_ok"]
    assert out == _closed_form_report(
        "hopfield",
        {"r": 1.0, "n": 1, "M": 1.0, "T": 0.5, "a": 1.0, "b": 1.0, "N": 100},
        "divergent", ok=False)

    out_file = tmp_path / "bound.json"
    main([
        "bound", "theorem1",
        "--family", json.dumps({"kind": "bilinear", "r": 1.0, "a": 1.0}),
        "--m", "1", "--M", "1", "--T", "1", "--N", "100", "--order", "60",
        "--out", str(out_file),
    ])
    table = capsys.readouterr().out
    assert "partial_sum" in table  # human table on stdout when --out is set
    report = json.loads(out_file.read_text())
    assert report["total"] == pytest.approx(math.e / 10.0, rel=1e-10)


def test_bound_rejects_bad_family_parameters():
    with pytest.raises(ValueError, match=r"\ba must be"):
        main(["bound", "theorem1",
              "--family", json.dumps({"kind": "bilinear", "r": 1, "a": -1}),
              "--m", "1", "--M", "1", "--T", "1", "--N", "100", "--order", "4"])
    with pytest.raises(ValueError, match=r"\ba must be"):
        main(["bound", "hopfield", "--r", "1", "--n", "1", "--M", "1",
              "--T", "0.1", "--a", "0", "--b", "1", "--N", "100"])


def test_bound_beyond_float_range_raises_without_output(capsys):
    argvs = [
        ["bound", "bilinear", "--r", "1", "--m", "1", "--M", "1000", "--T", "1",
         "--a", "1", "--N", "100"],
        ["bound", "theorem1", "--family", json.dumps({"kind": "bilinear", "r": 1, "a": 1}),
         "--m", "1", "--M", "1000", "--T", "1", "--N", "100", "--order", "5"],
    ]
    for argv in argvs:
        with pytest.raises(OverflowError, match="exceeds the float range"):
            main(argv)
        assert capsys.readouterr().out == ""


def test_rademacher_and_erm_subcommands(capsys_json, tmp_path):
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 30, 3, seed=5)
    csv_path = tmp_path / "train.csv"
    data.to_csv(csv_path)
    out = capsys_json([
        "rademacher", "--system", "bilinear2d", "--data", str(csv_path),
        "--m1", str(data.m1), "--order", "3", "--n-controls", "16",
        "--n-eps", "32", "--seed", "7",
    ])
    assert 0.0 <= out["estimate"] <= 1.0
    out = capsys_json([
        "erm", "--system", "bilinear2d", "--data", str(csv_path),
        "--m1", str(data.m1), "--order", "3",
    ])
    assert out["train_risk"] <= 1e-8
    for row in out["coefficients"]:
        assert abs(row["theta"]) <= row["box"] * (1 + 1e-12)


def test_erm_rejects_bad_label_bound_and_wrong_width_without_output(capsys, tmp_path):
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 10, 2, seed=5)
    good, wide = tmp_path / "good.csv", tmp_path / "wide.csv"
    data.to_csv(good)
    wide.write_text("x1,x2,x3,y\n0.1,0.2,0.3,0.0\n0.0,0.1,0.0,0.5\n")
    cases = [(good, "nan", DataValidationError, "m1 must be finite"),
             (wide, str(data.m1), ValueError, r"X must be \(N, n\) with n = 2")]
    for path, m1, err, match in cases:
        with pytest.raises(err, match=match):
            main(["erm", "--system", "bilinear2d", "--data", str(path),
                  "--m1", m1, "--order", "2"])
        assert capsys.readouterr().out == ""


def test_pieces_below_one_rejected_without_output(capsys, tmp_path):
    built = builtin_system("bilinear2d")
    data, _ = make_dataset(built.spec, built.family, 10, 2, seed=5)
    csv_path, cfg = tmp_path / "d.csv", tmp_path / "cfg.json"
    data.to_csv(csv_path)
    cfg.write_text(json.dumps({"system": "bilinear2d", "seed": 1, "order": 2,
                               "n_train": 10, "n_test": 10, "pieces": 0}))
    for argv in (["rademacher", "--system", "bilinear2d", "--data", str(csv_path),
                  "--m1", str(data.m1), "--order", "2", "--n-controls", "4",
                  "--n-eps", "4", "--seed", "1", "--pieces", "0"],
                 ["experiment", "--config", str(cfg)]):
        with pytest.raises(ValueError, match="need pieces >= 1"):
            main(argv)
        assert capsys.readouterr().out == ""


def test_seed_required_for_stochastic_subcommands(tmp_path):
    with pytest.raises(SystemExit):
        main(["rademacher", "--system", "bilinear2d", "--data", "x.csv",
              "--m1", "1", "--order", "2"])


def _run_experiment_subprocess(config_path, out_path, threads):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["MKL_NUM_THREADS"] = str(threads)
    subprocess.run(
        [sys.executable, "-m", "chenfliess.cli", "experiment",
         "--config", str(config_path), "--out", str(out_path)],
        check=True, env=env, capture_output=True,
    )
    return out_path.read_bytes()


def test_experiment_byte_identical_across_thread_counts(tmp_path):
    config = {
        "system": "bilinear2d", "order": 3, "n_train": 60, "n_test": 60,
        "delta": 0.05, "seed": 33, "n_controls": 16, "n_eps": 32,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    a = _run_experiment_subprocess(cfg, tmp_path / "a.json", threads=1)
    b = _run_experiment_subprocess(cfg, tmp_path / "b.json", threads=4)
    assert a == b
    report = json.loads(a)
    assert report["checks"]["empirical_le_certified"]


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, chenfliess.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_lie_lambda_k_loads_no_scipy_module():
    code = (
        "import contextlib, io, json, sys\n"
        "from chenfliess.cli import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    main(['lie', '--system', 'bilinear2d', '--lambda-k', '4', '--grid', '128'])\n"
        "print(json.dumps({'n_words': json.loads(buf.getvalue())['lambda_k']['n_words'],\n"
        "                  'scipy': sorted(m for m in sys.modules\n"
        "                                  if m.split('.')[0] == 'scipy')}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"n_words": 16, "scipy": []}


def test_theorem1_term_overflow_exits_nonzero_without_output():
    family = json.dumps({"kind": "bilinear", "r": 1, "a": 1})
    for order in ("1000", "2000"):
        proc = subprocess.run(
            [sys.executable, "-m", "chenfliess.cli", "bound", "theorem1",
             "--family", family, "--m", "1", "--M", "1000", "--T", "1",
             "--N", "100", "--order", order],
            capture_output=True, text=True)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "exceeds the float range" in proc.stderr
        assert "math range error" not in proc.stderr


def test_absolute_loss_experiment_byte_identical_across_thread_counts(tmp_path):
    config = {
        "system": "bilinear2d", "order": 2, "loss": "absolute", "noise": 0.05,
        "n_train": 50, "n_test": 50, "delta": 0.05, "seed": 34,
        "n_controls": 16, "n_eps": 32,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    a = _run_experiment_subprocess(cfg, tmp_path / "a.json", threads=1)
    b = _run_experiment_subprocess(cfg, tmp_path / "b.json", threads=4)
    assert a == b
    report = json.loads(a)
    assert report["erm"]["solver"] == "linprog-highs"
    assert report["erm"]["converged"]
