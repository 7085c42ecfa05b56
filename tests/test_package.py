"""The package root resolves its public names on first use, and a value
that a config key shares with a library function meets one rule in both."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsfusion
from hsfusion import (
    IKONOS_BANDS, LogSurrogate, RunConfig, SceneSpec, SolverConfig, ergas, evaluate,
    gaussian_kernel_1d, lipschitz_tau, make_degradation, psnr, ssim,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_public_name_resolves_to_its_submodule_attribute():
    assert len(set(hsfusion.__all__)) == len(hsfusion.__all__) == 55
    listed = dir(hsfusion)
    for name in hsfusion.__all__:
        namespace = {}
        exec(f"from hsfusion import {name}", namespace)
        module = importlib.import_module("hsfusion." + hsfusion._MODULE_OF[name])
        assert namespace[name] is getattr(module, name), name
        assert getattr(hsfusion, name) is getattr(module, name), name
        assert name in listed, name
    assert hsfusion.SolverConfig is hsfusion.solver.SolverConfig


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        hsfusion.not_a_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hsfusion import not_a_name", {})


def test_package_import_loads_no_submodule():
    script = (
        "import json, sys\n"
        "import hsfusion\n"
        "bare = sorted(sys.modules)\n"
        "from hsfusion import FusionError, RunConfig\n"
        "after = sorted(sys.modules)\n"
        "print(json.dumps([bare, after, hsfusion.tensorfile.__name__]))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    bare, after, submodule = json.loads(proc.stdout)
    bare, after = set(bare), set(after)
    assert {m for m in bare if m.startswith("hsfusion")} == {"hsfusion"}
    assert {m for m in after if m.startswith("hsfusion")} == {
        "hsfusion", "hsfusion.config", "hsfusion.errors"}
    assert "numpy" not in after
    # a submodule is an attribute of the package before anything imported it
    assert submodule == "hsfusion.tensorfile"


def test_numpy_is_the_only_runtime_dependency():
    # every absolute import in the package names a standard-library module or numpy
    for path in sorted((SRC / "hsfusion").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name}: {name}"


def test_only_the_tensor_module_names_the_blocked_mode3_kernel():
    # every other module forms a mode-3 product as mode_n_product(t, m, 3)
    for path in sorted((SRC / "hsfusion").glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            assert not (named and getattr(node, named) == "_mode3_blocks"), path.name


_CUBE = np.full((12, 12, 3), 0.5)


# one bad value per rule, set as a config key and passed to a library function
@pytest.mark.parametrize("config, library", [
    (lambda: SolverConfig(r=1, gamma=0.0), lambda: LogSurrogate(0.0)),
    (lambda: SolverConfig(r=1, tau_mode="fast"),
     lambda: lipschitz_tau(np.eye(2, 4), np.eye(2, 4), np.eye(1, 3), np.eye(3, 1), "fast")),
    (lambda: RunConfig(kernel_size=4), lambda: gaussian_kernel_1d(4, 1.0)),
    (lambda: RunConfig(sigma=0.0), lambda: gaussian_kernel_1d(9, 0.0)),
    (lambda: RunConfig(seed=-1), lambda: SceneSpec(shape=(4, 4, 4), r=1, seed=-1)),
    (lambda: RunConfig(peak=1e100), lambda: psnr(_CUBE, _CUBE, 1e100)),
    (lambda: RunConfig(peak=1e100), lambda: ssim(_CUBE, _CUBE, 1e100)),
    (lambda: RunConfig(peak=1e100), lambda: evaluate(_CUBE, _CUBE, peak=1e100)),
], ids=["gamma", "tau_mode", "kernel_size", "sigma", "seed", "peak-psnr", "peak-ssim",
        "peak-evaluate"])
def test_a_config_key_and_its_library_argument_raise_the_same_error(config, library):
    with pytest.raises(ValueError) as from_config:
        config()
    with pytest.raises(ValueError, match=f"^{re.escape(str(from_config.value))}$"):
        library()


# True is not 1: a bool is refused as the config's type rule refuses it
@pytest.mark.parametrize("call, message", [
    (lambda: LogSurrogate(True), "gamma must be a real number, got True"),
    (lambda: gaussian_kernel_1d(9, True), "sigma must be a real number, got True"),
    (lambda: make_degradation((16, 16, 8), 4, 9, True, IKONOS_BANDS),
     "sigma must be a real number, got True"),
    (lambda: psnr(_CUBE, _CUBE, True), "peak must be a real number, got True"),
    (lambda: evaluate(_CUBE, _CUBE, peak=True, ratio=True), "peak must be a real number, got True"),
    (lambda: evaluate(_CUBE, _CUBE, ratio=True), "resolution ratio must be a real number, got True"),
    (lambda: ergas(_CUBE, _CUBE, True), "resolution ratio must be a real number, got True"),
], ids=["LogSurrogate", "gaussian_kernel_1d", "make_degradation", "psnr", "evaluate-peak",
        "evaluate-ratio", "ergas"])
def test_library_calls_reject_a_bool(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_HUGE = 10**400  # an int beyond float range: not finite, as inf is not


@pytest.mark.parametrize("call, message", [
    (lambda: LogSurrogate(_HUGE), f"gamma must be positive and finite, got {_HUGE}"),
    (lambda: SolverConfig(r=1, gamma=_HUGE), f"gamma must be positive and finite, got {_HUGE}"),
    (lambda: SolverConfig(r=1, rho0=_HUGE), f"rho0 must be positive and finite, got {_HUGE}"),
    (lambda: SolverConfig(r=1, nu=_HUGE), f"nu must be finite and exceed 1, got {_HUGE}"),
    (lambda: SolverConfig(r=1, eps=_HUGE), f"eps must be positive and finite, got {_HUGE}"),
    (lambda: RunConfig(sigma=_HUGE), f"sigma must be positive and finite, got {_HUGE}"),
    (lambda: RunConfig(peak=_HUGE),
     f"peak must be positive and finite, its fourth power too, got {_HUGE}"),
    (lambda: psnr(_CUBE, _CUBE, _HUGE),
     f"peak must be positive and finite, its fourth power too, got {_HUGE}"),
    (lambda: ssim(_CUBE, _CUBE, _HUGE),
     f"peak must be positive and finite, its fourth power too, got {_HUGE}"),
    (lambda: evaluate(_CUBE, _CUBE, peak=_HUGE),
     f"peak must be positive and finite, its fourth power too, got {_HUGE}"),
    (lambda: evaluate(_CUBE, _CUBE, ratio=_HUGE),
     f"resolution ratio must be positive and finite, got {_HUGE}"),
    (lambda: ergas(_CUBE, _CUBE, _HUGE), f"resolution ratio must be positive and finite, got {_HUGE}"),
    (lambda: gaussian_kernel_1d(9, _HUGE), f"sigma must be positive and finite, got {_HUGE}"),
], ids=["LogSurrogate", "gamma", "rho0", "nu", "eps", "sigma", "peak", "psnr", "ssim",
        "evaluate-peak", "evaluate-ratio", "ergas", "gaussian_kernel_1d"])
def test_an_int_beyond_float_range_is_not_finite(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
