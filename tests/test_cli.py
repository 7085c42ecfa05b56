import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hsfusion import MetricReport, SolverConfig, evaluate, read_tensor, write_tensor
from hsfusion.cli import _build_parser, main
from hsfusion.config import KEYS, RunConfig, build_run_config, parse_config_text
from hsfusion.degradation import IKONOS_BANDS, LANDSAT7_BANDS, read_band_table


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
    assert cfg.r is None and cfg.peak is None and cfg.band_table == "ikonos"


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


FLOAT_KEYS = ("gamma", "rho0", "nu", "eps", "sigma", "peak")


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_an_infinite_float_key(key):
    with pytest.raises(ValueError, match=rf"^{key} must .*finite.*, got inf$"):
        build_run_config(overrides={key: float("inf")})


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_text_that_overflows_to_inf(key):
    values = parse_config_text(f"{key} = 1e309\n")
    with pytest.raises(ValueError, match=rf"^{key} must .*finite.*, got inf$"):
        build_run_config(file_values=values)


def test_config_flags_override_file():
    cfg = build_run_config(file_values={"gamma": 0.5, "r": 2}, overrides={"gamma": 0.9})
    assert cfg.gamma == 0.9 and cfg.r == 2


def test_config_requires_r_for_solver():
    with pytest.raises(ValueError, match="required"):
        build_run_config().solver_config()


def _command_parser(command):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _config_flag_names(command):
    group = next(g for g in _command_parser(command)._action_groups
                 if g.title == "run configuration")
    return {a.dest for a in group._group_actions} - {"config"}


def test_config_keys_fields_and_flags_are_one_schema():
    names = set(KEYS)
    assert {f.name for f in fields(RunConfig)} == names
    for command in ("simulate", "fuse", "eval"):
        assert _config_flag_names(command) == names


def test_config_keys_keep_their_names_order_and_types():
    assert list(KEYS.items()) == [
        ("r", int), ("gamma", float), ("rho0", float), ("nu", float), ("eps", float),
        ("max_iter", int), ("tau_mode", str), ("eps_mode", str), ("factor", int),
        ("kernel_size", int), ("sigma", float), ("band_table", str), ("seed", int),
        ("peak", float),
    ]


def test_run_config_declares_no_solver_key_but_r():
    # every solver key is SolverConfig's; RunConfig only makes r optional
    assert issubclass(RunConfig, SolverConfig)
    assert set(inspect.get_annotations(RunConfig)) == {
        "r", "factor", "kernel_size", "sigma", "band_table", "seed", "peak"}


def test_run_config_solver_defaults_are_solver_configs():
    run, solver = RunConfig(), SolverConfig(r=1)
    for f in fields(SolverConfig):
        if f.name != "r":
            assert getattr(run, f.name) == getattr(solver, f.name)


@pytest.mark.parametrize("cls, key, value", [
    pytest.param(cls, key, value, id=f"{key}-{value}-{cls.__name__}")
    for key, value in [("max_iter", float("nan")), ("max_iter", 2.5), ("max_iter", True),
                       ("r", 2.0), ("r", True), ("factor", 2.0), ("factor", True),
                       ("kernel_size", 9.0), ("seed", 1.5), ("seed", True)]
    for cls in (SolverConfig, RunConfig) if key in {f.name for f in fields(cls)}])
def test_config_requires_integer_r_and_max_iter(cls, key, value):
    want = f"{key} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        cls(**{"r": 2, key: value})
    # numpy integers are integers
    assert getattr(cls(**{"r": 2, key: np.int64(3)}), key) == 3


@pytest.mark.parametrize("cls, key, value, kind", [
    pytest.param(cls, key, value, kind, id=f"{key}-{value!r}-{cls.__name__}")
    for key, value, kind in [("gamma", True, "a real number"), ("eps", True, "a real number"),
                             ("rho0", "1e-3", "a real number"), ("gamma", None, "a real number"),
                             ("sigma", True, "a real number"), ("peak", True, "a real number"),
                             ("band_table", 3, "a string"), ("tau_mode", None, "a string")]
    for cls in (SolverConfig, RunConfig) if key in {f.name for f in fields(cls)}])
def test_config_float_and_text_keys_require_their_type(cls, key, value, kind):
    want = f"{key} must be {kind}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        cls(**{"r": 2, key: value})


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), 2])
@pytest.mark.parametrize("cls, key", [(SolverConfig, "gamma"), (SolverConfig, "eps"),
                                      (RunConfig, "sigma"), (RunConfig, "peak")])
def test_config_float_keys_take_numpy_floats_and_integers(cls, key, value):
    assert getattr(cls(**{"r": 2, key: value}), key) == value


@pytest.mark.parametrize("make, message", [
    (lambda: SolverConfig(r=0), "subspace dimension must be >= 1, got 0"),
    (lambda: RunConfig(r=0), "subspace dimension must be >= 1, got 0"),
    (lambda: SolverConfig(r=1, max_iter=0), "max_iter must be >= 1, got 0"),
    (lambda: RunConfig(factor=0), "factor must be >= 1, got 0"),
    (lambda: RunConfig(seed=-1), "seed must be nonnegative, got -1"),
    (lambda: parse_config_text("r 5\n", "run.cfg"), "run.cfg:1: expected key=value, got 'r 5'"),
    (lambda: parse_config_text("\nr = two\n", "run.cfg"),
     "run.cfg:2: bad value for 'r': invalid literal for int() with base 10: 'two'"),
    (lambda: build_run_config(overrides={"mystery": 1}), "unknown config key 'mystery'"),
], ids=["r-solver", "r-run", "max_iter", "factor", "seed", "no-equals", "bad-value",
        "unknown-override"])
def test_config_guards_name_what_they_reject(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


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


@pytest.mark.parametrize("line", ["450 abc", "nan 500", "-inf inf"])
def test_band_table_rejects_bounds_that_are_not_finite_numbers(tmp_path, line):
    path = tmp_path / "bands.txt"
    path.write_text(f"400 500  # fine\n{line}\n")
    want = f"{path}:2: band bounds must be finite numbers, got {line!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_band_table(str(path))


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


def test_simulate_defaults_to_the_ikonos_band_table(tmp_path, capsys):
    args = ["simulate", "--synthetic", "16x16x32", "--r", "2", "--factor", "2",
            "--kernel-size", "3", "--seed", "9"]
    for out, extra in (("default", ()), ("ikonos", ("--band-table", "ikonos"))):
        code, _, _ = _run(capsys, *args, *extra, "--out-dir", str(tmp_path / out))
        assert code == 0
    for name in ("z.cmt", "x.cmt", "y.cmt", "p1.cmt", "p2.cmt", "p3.cmt"):
        default, ikonos = (tmp_path / out / name for out in ("default", "ikonos"))
        assert default.read_bytes() == ikonos.read_bytes()


@pytest.mark.parametrize("text", ["16x16x", "16x16", "16x16x4x2", "16xax4", "x"])
def test_simulate_rejects_unparsable_shape_text(tmp_path, capsys, text):
    code, _, err = _run(capsys, "simulate", "--synthetic", text, "--r", "2",
                        "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: expected a I1xI2xI3 shape, got {text!r}\n"


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


_FIVE_FILES = {"x.cmt", "y.cmt", "p1.cmt", "p2.cmt", "p3.cmt"}


def test_simulate_writes_the_five_files_and_z_only_for_a_synthetic_scene(
        pipeline_dir, tmp_path, capsys):
    synthetic, gt = tmp_path / "synthetic", tmp_path / "gt"
    code, _, _ = _run(capsys, "simulate", "--synthetic", "16x16x32", "--r", "2",
                      "--factor", "2", "--kernel-size", "3", "--out-dir", str(synthetic))
    assert code == 0
    assert {p.name for p in synthetic.iterdir()} == _FIVE_FILES | {"z.cmt"}
    code, _, _ = _run(capsys, "simulate", "--gt", str(pipeline_dir / "z.cmt"), "--factor", "4",
                      "--band-table", str(pipeline_dir / "bands.txt"), "--out-dir", str(gt))
    assert code == 0
    assert {p.name for p in gt.iterdir()} == _FIVE_FILES


@pytest.mark.parametrize("argv, want", [
    (("--synthetic", "0x4x4", "--r", "2"), "shape entries must be positive, got '0x4x4'"),
    (("--synthetic", "4x4", "--r", "2"), "expected a I1xI2xI3 shape, got '4x4'"),
    (("--synthetic", "8x8x6"), "r (subspace dimension) is required"),
    (("--synthetic", "10x10x6", "--r", "2", "--factor", "4"),
     "dimension 10 not divisible by factor 4"),
])
def test_a_rejected_simulate_writes_nothing(tmp_path, capsys, argv, want):
    fresh = tmp_path / "fresh"
    code, out, err = _run(capsys, "simulate", *argv, "--out-dir", str(fresh))
    assert code == 1 and out == "" and err.startswith(f"error: {want}")
    assert not fresh.exists()
    # a reused directory keeps an earlier run's files byte for byte, and gets no z.cmt
    reused = tmp_path / "reused"
    reused.mkdir()
    stale = {name: name.encode() * 3 for name in sorted(_FIVE_FILES)}
    for name, data in stale.items():
        (reused / name).write_bytes(data)
    code, _, err = _run(capsys, "simulate", *argv, "--out-dir", str(reused))
    assert code == 1 and err.startswith(f"error: {want}")
    assert {p.name: p.read_bytes() for p in reused.iterdir()} == stale


def test_fuse_requires_exactly_the_five_input_files():
    required = [a.option_strings for a in _command_parser("fuse")._actions if a.required]
    assert required == [["--x"], ["--y"], ["--p1"], ["--p2"], ["--p3"]]


@pytest.mark.parametrize("command", [(), ("simulate",), ("fuse",), ("eval",), ("diagnose",)])
def test_help_renders_and_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(" ".join(("usage: hsfusion", *command)))


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


@pytest.mark.parametrize("with_report", [False, True])
def test_fuse_traces_the_objective_only_for_its_report(
        pipeline_dir, tmp_path, capsys, monkeypatch, with_report):
    from hsfusion import solver as solver_module

    calls, objective = [], solver_module.nms_tctv

    def counting_objective(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(solver_module, "nms_tctv", counting_objective)
    d, report_path = pipeline_dir, tmp_path / "rep.json"
    code, _, _ = _run(
        capsys, "fuse",
        "--x", str(d / "x.cmt"), "--y", str(d / "y.cmt"),
        "--p1", str(d / "p1.cmt"), "--p2", str(d / "p2.cmt"), "--p3", str(d / "p3.cmt"),
        "--r", "2", "--max-iter", "4", "--out", str(tmp_path / "z.cmt"),
        *(("--report", str(report_path)) if with_report else ()),
    )
    assert code == 0
    assert len(calls) == (4 if with_report else 0)
    if with_report:
        assert len(json.loads(report_path.read_text())["objective"]) == 4


def test_fuse_names_an_operator_of_the_wrong_rank(pipeline_dir, tmp_path, capsys):
    write_tensor(tmp_path / "p1.cmt", read_tensor(pipeline_dir / "p1.cmt")[..., None])
    code, _, err = _run(
        capsys, "fuse",
        "--x", str(pipeline_dir / "x.cmt"), "--y", str(pipeline_dir / "y.cmt"),
        "--p1", str(tmp_path / "p1.cmt"), "--p2", str(pipeline_dir / "p2.cmt"),
        "--p3", str(pipeline_dir / "p3.cmt"),
        "--r", "2", "--out", str(tmp_path / "z.cmt"),
    )
    assert code == 1
    assert err == "error: P1: expected a matrix, got ndim=3\n"


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
    assert err.startswith("error:") and "eps_mode" in err and "'scaled'" in err


def test_fuse_rejects_an_infinite_eps(pipeline_dir, tmp_path, capsys):
    d = pipeline_dir
    code, _, err = _run(
        capsys, "fuse",
        "--x", str(d / "x.cmt"), "--y", str(d / "y.cmt"),
        "--p1", str(d / "p1.cmt"), "--p2", str(d / "p2.cmt"), "--p3", str(d / "p3.cmt"),
        "--r", "2", "--eps", "inf",
        "--out", str(tmp_path / "z.cmt"), "--report", str(tmp_path / "report.json"),
    )
    assert code == 1
    assert err.startswith("error:") and "eps must be positive and finite, got inf" in err
    assert list(tmp_path.iterdir()) == []


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


def test_eval_prints_one_line_per_metric_report_field(pipeline_dir, capsys):
    z, z_hat = pipeline_dir / "z.cmt", pipeline_dir / "z_hat.cmt"
    code, out, _ = _run(capsys, "eval", "--ref", str(z), "--est", str(z_hat), "--factor", "4")
    assert code == 0
    report = evaluate(read_tensor(z), read_tensor(z_hat), ratio=4.0)
    names = [f.name for f in fields(MetricReport)]
    assert names == ["psnr", "ergas", "sam", "ssim"]
    assert out.splitlines() == [f"{name}={getattr(report, name):.17g}" for name in names]
    assert out.endswith("\n")


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


@pytest.mark.parametrize("peak", ["1e200", "1e160", "1e80"])
def test_eval_rejects_a_peak_whose_square_overflows(pipeline_dir, peak):
    # SSIM multiplies its constants, each a square of the peak, so a peak whose fourth
    # power overflows fails before a cube is read, with one line and no traceback
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    z = str(pipeline_dir / "z.cmt")
    proc = subprocess.run(
        [sys.executable, "-m", "hsfusion.cli", "eval", "--ref", z, "--est", z,
         "--factor", "4", "--peak", peak],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1 and proc.stdout == ""
    want = f"error: peak must be positive and finite, its fourth power too, got {float(peak)!r}\n"
    assert proc.stderr == want


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


def _report(iterations, converged=True, kkt=None):
    """A hand-written fuse report with every key diagnose reads."""
    trace = [0.5] * iterations
    return {
        "converged": converged,
        "iterations": iterations,
        "tau": 8.0,
        "tau_mode": "safe",
        **{key: list(trace) for key in
           ("res_x", "res_y", "res_g1", "res_g2", "rho", "objective")},
        "kkt": kkt,
    }


# a kkt object whose PASS line diagnose can print
_PASSING_KKT = {"passed": True, **dict.fromkeys(
    ("residual_x", "residual_y", "residual_g1", "residual_g2", "grad_norm",
     "subgrad_dev_g1", "subgrad_dev_g2"), 1e-9)}


def _diagnose_fails(capsys, tmp_path, report, *flags):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    code, out, err = _run(capsys, "diagnose", "--report", str(path), *flags)
    assert code == 1 and out == ""
    assert err.startswith(f"error: malformed report {path}: ")
    assert "\n" not in err.strip()
    return err


@pytest.mark.parametrize("key", ["rho", "objective"])
def test_diagnose_csv_rejects_a_report_without_a_trace(tmp_path, capsys, key):
    report = _report(2)
    del report[key]
    csv_path = tmp_path / "curves.csv"
    err = _diagnose_fails(capsys, tmp_path, report, "--csv", str(csv_path))
    assert repr(key) in err and not csv_path.exists()


def test_diagnose_reads_no_trace_without_csv(tmp_path, capsys):
    # the summary lines read no trace, so only --csv needs them
    report = _report(2, converged=False)
    del report["res_x"]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    code, out, _ = _run(capsys, "diagnose", "--report", str(path))
    assert code == 0 and "KKT: NOT CONVERGED (max_iter)" in out
    csv_path = tmp_path / "curves.csv"
    err = _diagnose_fails(capsys, tmp_path, report, "--csv", str(csv_path))
    assert "'res_x'" in err and not csv_path.exists()


@pytest.mark.parametrize("key", ["residual_g2", "grad_norm", "subgrad_dev_g1"])
def test_diagnose_pass_line_rejects_a_kkt_without_its_fields(tmp_path, capsys, key):
    kkt = dict(_PASSING_KKT)
    del kkt[key]
    err = _diagnose_fails(capsys, tmp_path, _report(1, kkt=kkt))
    assert f"'kkt.{key}'" in err
    kkt[key] = None
    err = _diagnose_fails(capsys, tmp_path, _report(1, kkt=kkt))
    assert f"'kkt.{key}'" in err


def _boolean_entry(trace):
    trace[0] = True


@pytest.mark.parametrize("spoil", [list.pop, lambda trace: trace.__setitem__(0, None),
                                   _boolean_entry])
def test_diagnose_csv_rejects_traces_without_one_number_per_iteration(tmp_path, capsys, spoil):
    report = _report(3, converged=False)
    spoil(report["res_g1"])
    csv_path = tmp_path / "curves.csv"
    err = _diagnose_fails(capsys, tmp_path, report, "--csv", str(csv_path))
    assert "'res_g1'" in err and not csv_path.exists()


@pytest.mark.parametrize("key, value", [
    ("converged", "no"), ("converged", None), ("converged", 1),
    ("iterations", "many"), ("iterations", -3), ("iterations", True), ("iterations", 1.0),
    ("kkt.grad_norm", True), ("kkt.residual_x", False),
    ("tau", True), ("tau", None), ("tau", "8.0"), ("tau_mode", 3), ("tau_mode", None),
])
def test_diagnose_rejects_a_value_of_the_wrong_json_type(tmp_path, capsys, key, value):
    # true and false are no numbers, converged is a boolean, iterations a count and
    # tau_mode a string
    report = _report(1, kkt=dict(_PASSING_KKT))
    if key.startswith("kkt."):
        report["kkt"][key.removeprefix("kkt.")] = value
    else:
        report[key] = value
    err = _diagnose_fails(capsys, tmp_path, report)
    assert err.endswith(f": no usable {key!r}\n")


@pytest.mark.parametrize("extra, key", [({}, "tau"), ({"tau": True, "tau_mode": 3}, "tau"),
                                        ({"tau": 8.0}, "tau_mode")])
def test_diagnose_rejects_a_report_without_a_usable_tau(tmp_path, capsys, extra, key):
    report = {"converged": False, "iterations": 2, "kkt": None, **extra}
    err = _diagnose_fails(capsys, tmp_path, report)
    assert err.endswith(f": no usable {key!r}\n")


def test_diagnose_malformed_report(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "diagnose", "--report", str(path))
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("case", ["zero-side", "2-d-gt", "list-report"])
def test_cli_guards_name_what_they_reject(tmp_path, capsys, case):
    if case == "zero-side":
        argv = ("simulate", "--synthetic", "0x4x4", "--r", "1", "--out-dir", str(tmp_path))
        want = "shape entries must be positive, got '0x4x4'"
    elif case == "2-d-gt":
        write_tensor(tmp_path / "gt.cmt", np.ones((4, 4)))
        argv = ("simulate", "--gt", str(tmp_path / "gt.cmt"), "--out-dir", str(tmp_path))
        want = "ground truth must be 3-way, got ndim=2"
    else:
        (tmp_path / "rep.json").write_text("[1, 2]")
        argv = ("diagnose", "--report", str(tmp_path / "rep.json"))
        want = f"malformed report {tmp_path / 'rep.json'}: not a JSON object with a 'kkt' object"
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {want}\n"


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


# ------------------------------------------------------------------ start-up

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_loaded(*argv):
    """Run ``main(argv)`` in a fresh interpreter; returns its exit code and the
    modules loaded after ``import hsfusion.cli`` and after the command."""
    script = (
        "import json, sys\n"
        "import hsfusion.cli\n"
        "on_import = sorted(sys.modules)\n"
        "code = hsfusion.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, on_import, sorted(sys.modules)]))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    code, on_import, after = json.loads(proc.stdout.splitlines()[-1])
    return code, set(on_import), set(after)


def test_cli_import_and_diagnose_load_no_numpy(pipeline_dir, tmp_path):
    code, on_import, after = _modules_loaded(
        "diagnose", "--report", str(pipeline_dir / "report.json"),
        "--csv", str(tmp_path / "curves.csv"),
    )
    assert code == 0
    assert (tmp_path / "curves.csv").exists()
    assert "numpy" not in on_import
    assert "numpy" not in after


def test_each_command_loads_only_what_it_runs(pipeline_dir, tmp_path):
    d = pipeline_dir
    operators = [arg for name in ("x", "y", "p1", "p2", "p3")
                 for arg in (f"--{name}", str(d / f"{name}.cmt"))]
    commands = {
        "simulate": (["--gt", str(d / "z.cmt"), "--factor", "4", "--band-table",
                      str(d / "bands.txt"), "--out-dir", str(tmp_path)], "hsfusion.solver"),
        "fuse": ([*operators, "--r", "2", "--max-iter", "2",
                  "--out", str(tmp_path / "z_hat.cmt")], "hsfusion.metrics"),
        "eval": (["--ref", str(d / "z.cmt"), "--est", str(d / "z_hat.cmt"),
                  "--factor", "4"], "hsfusion.solver"),
    }
    for command, (args, skipped) in commands.items():
        code, _, after = _modules_loaded(command, *args)
        assert code == 0, command
        assert "numpy" in after, command
        assert skipped not in after, command
