"""The algorithm layers import no pandas: work items are numpy arrays,
and only the table code (``experiments``, ``oracle``) builds DataFrames.
No package binds a name over one of its submodules."""
from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = """
import importlib, pkgutil, sys
names = []
for pkg in ("core", "par", "baselines", "index"):
    mod = importlib.import_module("repro." + pkg)
    for info in pkgutil.iter_modules(mod.__path__, mod.__name__ + "."):
        importlib.import_module(info.name)
        names.append(info.name)
print(" ".join(names))
print("pandas" in sys.modules)
"""


def test_algorithm_layers_import_no_pandas():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    names = out[0].split()
    assert {"repro.core.scan", "repro.par.spark_map", "repro.baselines.lsh_ddp",
            "repro.index.kdtree"} <= set(names)
    assert out[1] == "False", "an algorithm layer imports pandas"


def test_import_as_gives_every_submodule():
    # ``import repro.a.b as m`` binds ``getattr(repro.a, "b")``: a package
    # attribute of the same name would stand in for the module.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        parent, _, leaf = info.name.rpartition(".")
        importlib.import_module(info.name)
        m = getattr(importlib.import_module(parent), leaf)
        assert isinstance(m, types.ModuleType), f"{info.name} is shadowed by {m!r}"
