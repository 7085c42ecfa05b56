import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from hsfusion import SolverConfig, read_tensor, write_tensor
from hsfusion.cli import _build_parser, main
from hsfusion.config import KEYS, RunConfig, build_run_config, parse_config_text, read_band_table
from hsfusion.degradation import IKONOS_BANDS, LANDSAT7_BANDS


# ------------------------------------------------------------------ config


def test_config_defaults():
    cfg = build_run_config()
    assert cfg.gamma == 0.1
    assert cfg.rho0 == 1e-3
    assert cfg.nu == 1.05
    assert cfg.eps == 1e-5
    assert cfg.max_iter == 500
    assert cfg.tau_mode == "safe"
    assert cfg.factor == 8
    assert cfg.kernel_size == 9
    assert cfg.sigma == 3.3973
    assert cfg.r is None and cfg.peak is None and cfg.band_table is None


def test_config_text_parsing_and_comments():
    values = parse_config_text("r = 5\n# comment\ngamma=0.2  # inline\n\nseed=7\n")
    assert values == {"r": 5, "gamma": 0.2, "seed": 7}


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("mystery=1\n")


def test_config_range_validation():
    with pytest.raises(ValueError):
        build_run_config(overrides={"nu": 1.0})
    with pytest.raises(ValueError):
        build_run_config(overrides={"kernel_size": 4})
    with pytest.raises(ValueError):
        build_run_config(overrides={"tau_mode": "fast"})


def test_config_flags_override_file():
    cfg = build_run_config(file_values={"gamma": 0.5, "r": 2}, overrides={"gamma": 0.9})
    assert cfg.gamma == 0.9 and cfg.r == 2


def test_config_requires_r_for_solver():
    with pytest.raises(ValueError, match="required"):
        build_run_config().solver_config()


def _config_flag_names(command):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    group = next(g for g in sub.choices[command]._action_groups
                 if g.title == "run configuration")
    return {a.dest for a in group._group_actions} - {"config"}


def test_config_keys_fields_and_flags_are_one_schema():
    names = set(KEYS)
    assert {f.name for f in fields(RunConfig)} == names
    for command in ("simulate", "fuse", "eval"):
        assert _config_flag_names(command) == names


def test_run_config_solver_defaults_are_solver_configs():
    run, solver = RunConfig(), SolverConfig(r=1)
    for f in fields(SolverConfig):
        if f.name != "r":
            assert getattr(run, f.name) == getattr(solver, f.name)


def test_band_table_names_and_files(tmp_path):
    assert read_band_table("landsat7") == LANDSAT7_BANDS
    assert read_band_table("ikonos") == IKONOS_BANDS
    path = tmp_path / "bands.txt"
    path.write_text("# two bands\n400 900\n1000 2500  # NIR-ish\n")
    assert read_band_table(str(path)) == ((400.0, 900.0), (1000.0, 2500.0))
    bad = tmp_path / "bad.txt"
    bad.write_text("400\n")
    with pytest.raises(ValueError, match="low_nm high_nm"):
        read_band_table(str(bad))


# ------------------------------------------------------------------ pipeline


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_synthetic_shapes(tmp_path, capsys):
    out = tmp_path / "sim"
    code, stdout, _ = _run(
        capsys,
        "simulate",
        "--synthetic", "64x64x32",
        "--r", "3",
        "--factor", "4",
        "--seed", "14",
        "--out-dir", str(out),
    )
    assert code == 0
    x = read_tensor(out / "x.cmt")
    y = read_tensor(out / "y.cmt")
    assert x.shape == (16, 16, 32)
    assert y.shape == (64, 64, 4)
    assert read_tensor(out / "z.cmt").shape == (64, 64, 32)
    assert read_tensor(out / "p1.cmt").shape == (16, 64)
    assert read_tensor(out / "p3.cmt").shape == (4, 32)


def test_simulate_paper_protocol_shapes(tmp_path, capsys):
    gt = tmp_path / "gt.cmt"
    write_tensor(gt, np.zeros((256, 256, 162)))
    out = tmp_path / "sim"
    code, _, _ = _run(
        capsys,
        "simulate",
        "--gt", str(gt),
        "--factor", "8",
        "--band-table", "landsat7",
        "--out-dir", str(out),
    )
    assert code == 0
    assert read_tensor(out / "x.cmt").shape == (32, 32, 162)
    assert read_tensor(out / "y.cmt").shape == (256, 256, 6)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    args = ["simulate", "--synthetic", "16x16x32", "--r", "2", "--factor", "2",
            "--kernel-size", "3", "--seed", "9"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = _run(capsys, *args, "--out-dir", str(out))
        assert code == 0
    for name in ("z.cmt", "x.cmt", "y.cmt", "p1.cmt", "p2.cmt", "p3.cmt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_rejects_both_sources(tmp_path, capsys):
    code, _, err = _run(
        capsys, "simulate", "--gt", "a.cmt", "--synthetic", "4x4x4",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """simulate + fuse on a small scene, shared across CLI tests."""
    out = tmp_path_factory.mktemp("pipeline")
    bands = out / "bands.txt"
    bands.write_text("400 900\n900.2 1400\n1400.2 1900\n1900.2 2500\n")
    code = main([
        "simulate", "--synthetic", "32x32x16", "--r", "2", "--factor", "4",
        "--seed", "5", "--band-table", str(bands), "--out-dir", str(out),
    ])
    assert code == 0
    code = main([
        "fuse",
        "--x", str(out / "x.cmt"), "--y", str(out / "y.cmt"),
        "--p1", str(out / "p1.cmt"), "--p2", str(out / "p2.cmt"),
        "--p3", str(out / "p3.cmt"),
        "--r", "2",
        "--out", str(out / "z_hat.cmt"),
        "--report", str(out / "report.json"),
    ])
    assert code == 0
    return out


def test_fuse_converges_and_reports(pipeline_dir, capsys):
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert report["converged"] is True
    assert report["tau_mode"] == "safe"
    finals = [report["res_x"][-1], report["res_y"][-1],
              report["res_g1"][-1], report["res_g2"][-1]]
    assert max(finals) <= report["eps"]
    assert report["iterations"] == len(report["res_x"])
    assert report["kkt"]["passed"] is True


def test_fuse_deterministic_output(pipeline_dir, tmp_path, capsys):
    out2 = tmp_path / "z2.cmt"
    code = main([
        "fuse",
        "--x", str(pipeline_dir / "x.cmt"), "--y", str(pipeline_dir / "y.cmt"),
        "--p1", str(pipeline_dir / "p1.cmt"), "--p2", str(pipeline_dir / "p2.cmt"),
        "--p3", str(pipeline_dir / "p3.cmt"),
        "--r", "2", "--out", str(out2),
    ])
    capsys.readouterr()
    assert code == 0
    assert out2.read_bytes() == (pipeline_dir / "z_hat.cmt").read_bytes()


def test_fuse_zero_inputs_give_zero_output(tmp_path, capsys):
    for name, shape in (("x", (4, 4, 8)), ("y", (8, 8, 2))):
        write_tensor(tmp_path / f"{name}.cmt", np.zeros(shape))
    write_tensor(tmp_path / "p1.cmt", np.full((4, 8), 1 / 8))
    write_tensor(tmp_path / "p2.cmt", np.full((4, 8), 1 / 8))
    write_tensor(tmp_path / "p3.cmt", np.full((2, 8), 1 / 8))
    code, _, _ = _run(
        capsys, "fuse",
        "--x", str(tmp_path / "x.cmt"), "--y", str(tmp_path / "y.cmt"),
        "--p1", str(tmp_path / "p1.cmt"), "--p2", str(tmp_path / "p2.cmt"),
        "--p3", str(tmp_path / "p3.cmt"),
        "--r", "2", "--out", str(tmp_path / "z.cmt"),
    )
    assert code == 0
    assert not read_tensor(tmp_path / "z.cmt").any()


def test_fuse_tau_mode_recorded(pipeline_dir, tmp_path, capsys):
    report_path = tmp_path / "rep.json"
    code, _, _ = _run(
        capsys, "fuse",
        "--x", str(pipeline_dir / "x.cmt"), "--y", str(pipeline_dir / "y.cmt"),
        "--p1", str(pipeline_dir / "p1.cmt"), "--p2", str(pipeline_dir / "p2.cmt"),
        "--p3", str(pipeline_dir / "p3.cmt"),
        "--r", "2", "--tau-mode", "paper", "--max-iter", "5",
        "--out", str(tmp_path / "z.cmt"), "--report", str(report_path),
    )
    assert code == 0
    assert json.loads(report_path.read_text())["tau_mode"] == "paper"


def test_fuse_eps_mode_from_config_file(pipeline_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nmax_iter=5\neps_mode=relative\n")
    report_path = tmp_path / "rep.json"
    code, _, _ = _run(
        capsys, "fuse",
        "--x", str(pipeline_dir / "x.cmt"), "--y", str(pipeline_dir / "y.cmt"),
        "--p1", str(pipeline_dir / "p1.cmt"), "--p2", str(pipeline_dir / "p2.cmt"),
        "--p3", str(pipeline_dir / "p3.cmt"),
        "--config", str(cfg),
        "--out", str(tmp_path / "z.cmt"), "--report", str(report_path),
    )
    assert code == 0
    assert json.loads(report_path.read_text())["eps_mode"] == "relative"


def test_fuse_bad_eps_mode_fails_before_reading_inputs(tmp_path, capsys):
    missing = [str(tmp_path / f"{name}.cmt") for name in ("x", "y", "p1", "p2", "p3")]
    code, _, err = _run(
        capsys, "fuse",
        "--x", missing[0], "--y", missing[1],
        "--p1", missing[2], "--p2", missing[3], "--p3", missing[4],
        "--r", "2", "--eps-mode", "scaled",
    )
    assert code == 1
    assert err.startswith("error:") and "eps_mode" in err


def test_eval_self_comparison(pipeline_dir, capsys):
    code, out, _ = _run(
        capsys, "eval",
        "--ref", str(pipeline_dir / "z.cmt"),
        "--est", str(pipeline_dir / "z.cmt"),
        "--factor", "4",
    )
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["psnr"]) == 100.0
    assert float(values["ergas"]) == 0.0
    assert float(values["sam"]) <= 1e-5
    assert float(values["ssim"]) == pytest.approx(1.0, abs=1e-12)


def test_eval_fused_beats_bicubic(pipeline_dir, tmp_path, capsys):
    from hsfusion import bicubic_upsample

    x = read_tensor(pipeline_dir / "x.cmt")
    write_tensor(tmp_path / "bicubic.cmt", bicubic_upsample(x, 4))

    def metrics(est):
        code, out, _ = _run(
            capsys, "eval",
            "--ref", str(pipeline_dir / "z.cmt"), "--est", str(est),
            "--factor", "4",
        )
        assert code == 0
        return {k: float(v) for k, v in
                (line.split("=") for line in out.strip().splitlines())}

    fused = metrics(pipeline_dir / "z_hat.cmt")
    bic = metrics(tmp_path / "bicubic.cmt")
    assert fused["psnr"] > bic["psnr"]
    assert fused["ergas"] < bic["ergas"]
    assert fused["sam"] < bic["sam"]
    assert fused["ssim"] > bic["ssim"]


def test_eval_report_roundtrip(pipeline_dir, tmp_path, capsys):
    out_file = tmp_path / "metrics.txt"
    code, stdout, _ = _run(
        capsys, "eval",
        "--ref", str(pipeline_dir / "z.cmt"),
        "--est", str(pipeline_dir / "z_hat.cmt"),
        "--factor", "4", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text() == stdout
    parsed = dict(line.split("=") for line in stdout.strip().splitlines())
    # 17 significant digits round-trip float64 exactly
    for key, val in parsed.items():
        assert repr(float(val)) == repr(float(parsed[key]))


def test_eval_shape_mismatch_exits_nonzero(pipeline_dir, capsys):
    code, _, err = _run(
        capsys, "eval",
        "--ref", str(pipeline_dir / "z.cmt"),
        "--est", str(pipeline_dir / "x.cmt"),
    )
    assert code == 1 and err.startswith("error:")


def test_diagnose_pass_line_and_csv(pipeline_dir, tmp_path, capsys):
    csv_path = tmp_path / "curves.csv"
    code, out, _ = _run(
        capsys, "diagnose",
        "--report", str(pipeline_dir / "report.json"),
        "--csv", str(csv_path),
    )
    assert code == 0
    assert "KKT: PASS" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "iter,res_x,res_y,res_g1,res_g2,rho,objective"
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert len(lines) - 1 == report["iterations"]


def test_diagnose_not_converged_line(tmp_path, capsys):
    report = {
        "converged": False,
        "iterations": 2,
        "tau": 8.0,
        "tau_mode": "safe",
        "res_x": [1.0, 0.5],
        "res_y": [1.0, 0.5],
        "res_g1": [0.0, 0.0],
        "res_g2": [0.0, 0.0],
        "rho": [1.0, 1.05],
        "objective": [0.0, 0.0],
        "kkt": None,
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    code, out, _ = _run(capsys, "diagnose", "--report", str(path))
    assert code == 0
    assert "KKT: NOT CONVERGED (max_iter)" in out


def test_diagnose_names_failed_kkt_checks(tmp_path, capsys):
    report = {
        "converged": True,
        "iterations": 1,
        "tau": 8.0,
        "tau_mode": "safe",
        "res_x": [1e-6],
        "res_y": [1e-6],
        "res_g1": [0.0],
        "res_g2": [0.0],
        "rho": [1.0],
        "objective": [0.0],
        "kkt": {
            "feasibility_ok": False,
            "stationarity_ok": True,
            "subgradient_ok": False,
            "multipliers_bounded": True,
            "passed": False,
        },
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    code, out, _ = _run(capsys, "diagnose", "--report", str(path))
    assert code == 0
    assert "KKT: FAIL (feasibility, subgradient)\n" in out


def test_diagnose_malformed_report(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "diagnose", "--report", str(path))
    assert code == 1 and err.startswith("error:")


def test_cli_error_on_bad_tensor_file(tmp_path, capsys):
    bad = tmp_path / "bad.cmt"
    bad.write_bytes(b"XXXX")
    code, _, err = _run(
        capsys, "eval", "--ref", str(bad), "--est", str(bad),
    )
    assert code == 1
    assert err.startswith("error:") and "\n" not in err.strip()


@pytest.mark.filterwarnings("error")
def test_fuse_divergence_exits_nonzero(pipeline_dir, tmp_path, capsys):
    code, _, err = _run(
        capsys, "fuse",
        "--x", str(pipeline_dir / "x.cmt"), "--y", str(pipeline_dir / "y.cmt"),
        "--p1", str(pipeline_dir / "p1.cmt"), "--p2", str(pipeline_dir / "p2.cmt"),
        "--p3", str(pipeline_dir / "p3.cmt"),
        "--r", "2", "--rho0", "1e307", "--eps", "1e-30",
        "--out", str(tmp_path / "z.cmt"),
    )
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err


def test_cli_missing_r_is_an_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, "simulate", "--synthetic", "8x8x4", "--factor", "2",
        "--kernel-size", "3", "--out-dir", str(tmp_path),
    )
    assert code == 1 and "r (subspace dimension) is required" in err


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nfactor=2\nkernel_size=3\nseed=3\n")
    out = tmp_path / "sim"
    code, _, _ = _run(
        capsys, "simulate", "--synthetic", "8x8x32",
        "--config", str(cfg), "--out-dir", str(out),
    )
    assert code == 0
    assert read_tensor(out / "x.cmt").shape == (4, 4, 32)
