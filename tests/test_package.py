"""The package root resolves its public names on first use."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsfusion

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
