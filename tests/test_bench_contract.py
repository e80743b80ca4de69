"""The names and argument positions that bench/tracer.py binds in twotone.

The tracer wraps public functions by name and its counting hooks read some
arguments by position. A rename or a reordered signature would make a traced
run miss a layer or read the wrong argument, so this checks the contract
from the library side. bench/tracer.py is loaded from its file and left as it
is (no bytecode is written next to it).
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from twotone import GaussianWindow, SqueezeConfig, TwoHarmonicModel, acceptance
from twotone.acceptance import CriterionResult

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# (position, parameter name) read by a tracer hook -> the functions it is read from
HOOK_ARGUMENTS = {
    (2, "config"): ("squeeze.squeeze_cross_section",),
    (4, "xis"): ("squeeze.squeeze_cross_section",),
    (3, "eta"): ("reassign.eta_s_values",),
    (0, "path"): ("cli.write_grid_csv", "cli.write_table_csv"),
    (0, "outdir"): ("cli.write_metadata",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _resolve(dotted: str):
    layer, name = dotted.split(".")
    return getattr(importlib.import_module(f"twotone.{layer}"), name)


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"twotone.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"twotone.{layer}.{name}"


def test_hook_argument_positions_match_signatures(tracer):
    read = set()
    for node in ast.walk(ast.parse(TRACER_PATH.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
            read.add((node.args[2].value, node.args[3].value))
    assert read == set(HOOK_ARGUMENTS)
    for (position, name), functions in HOOK_ARGUMENTS.items():
        for dotted in functions:
            params = list(inspect.signature(_resolve(dotted)).parameters)
            assert params[position] == name, (dotted, params)


def test_criteria_table(tracer):
    assert sorted(acceptance.CRITERIA) == list(range(1, tracer.N_CRITERIA + 1))
    for index, run in acceptance.CRITERIA.items():
        assert not inspect.signature(run).parameters, index
    result = acceptance.CRITERIA[9]()
    assert isinstance(result, CriterionResult) and result.index == 9


def test_installed_hooks_count(tracer, tmp_path):
    from twotone import cli, squeeze

    model = TwoHarmonicModel(xi0=1.0, delta=0.3, a=1.3)
    window = GaussianWindow(sigma=math.sqrt(2.0))
    config = SqueezeConfig(alpha=1e-3)
    xis = np.linspace(1.05, 1.25, 5)
    original = squeeze.squeeze_cross_section
    spans = tracer.Tracer()
    spans.install()
    try:
        squeeze.squeeze_cross_section(model, window, config, 0.0, xis)
        cli.write_table_csv(tmp_path / "t.csv", ["x"], [(1.0,)])
        acceptance.CRITERIA[9]()
    finally:
        spans.uninstall()
    assert squeeze.squeeze_cross_section is original
    # the base pass converges at t = 0: its T_h and T_2h rows agree
    assert spans.counts["squeeze.passes"] == 1
    assert spans.counts["squeeze.pair_evals"] == spans.counts["squeeze.nodes"] * xis.size
    assert spans.counts["cli.output_bytes"] == (tmp_path / "t.csv").stat().st_size
    assert spans.counts["acceptance.passed"] == 1
    times = spans.layer_times()
    assert times["squeeze.squeeze_cross_section"][0] == 1
    assert times["reassign.eta_s_values"][0] == spans.counts["squeeze.passes"]
