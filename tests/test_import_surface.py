"""What ``import convpow`` loads, and what its root names resolve to.

A bare import loads the series path only; the verification modules load
when one of their root names is first read.  The CLI still loads every
module, which perfbench's tracer relies on: it wraps only the modules
loaded when it is installed.  Each check runs in a fresh interpreter, since
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

#: Each root name in ``convpow.__all__``, under the module that defines it.
SURFACE = {
    "series": ("DEFAULT_ORDER", "DEFAULT_PREC", "EvalResult", "PowerSeriesInvX"),
    "qcoeff": ("log_expansion_q_list", "q_closed_form", "q_via_recurrence"),
    "fdecomp": ("BetaTable", "beta_table", "f_eval", "make_f_evaluator"),
    "amatrix": ("compute_a_matrix",),
    "convolution": ("ConvParams", "conv_power_quadrature", "f_from_conv", "f_quadrature_oracle", "reconstruct_from_f"),
    "quadrature": ("QuadratureError",),
}

PROBE = """
import importlib, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "convpow")

import convpow
bare = loaded()
surface = json.loads(sys.argv[1])
same = {
    name: getattr(convpow, name) is getattr(importlib.import_module("convpow." + module), name)
    for module, names in surface.items()
    for name in names
}
try:
    convpow.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
import convpow.cli
print(json.dumps({
    "bare": bare, "all": convpow.__all__, "same": same, "dir": dir(convpow), "unknown": unknown, "cli": loaded(),
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SURFACE)],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_bare_import_loads_only_the_series_path(probe):
    assert probe["bare"] == ["convpow", "convpow.combinatorics", "convpow.fdecomp", "convpow.qcoeff", "convpow.series"]


def test_every_root_name_is_its_defining_modules_object(probe):
    assert sorted(probe["same"]) == sorted(probe["all"])
    assert [name for name, same in probe["same"].items() if not same] == []


def test_dir_lists_the_lazy_names(probe):
    assert "__all__" in probe["dir"]
    assert set(probe["all"]) <= set(probe["dir"])


def test_an_unknown_root_name_raises_attribute_error(probe):
    assert probe["unknown"] == "module 'convpow' has no attribute 'no_such_name'"


def test_the_cli_still_loads_every_module(probe):
    # perfbench's tracer wraps only the modules loaded when it is installed
    modules = [f"convpow.{p.stem}" for p in (SRC / "convpow").glob("*.py") if p.stem != "__init__"]
    assert probe["cli"] == sorted(["convpow", *modules])
    assert len(probe["cli"]) == 10
