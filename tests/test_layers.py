"""The layer modules that the benchmark's per-layer tracer wraps.

`wncbench/spans.py` imports `wnc.<layer>` for each name in its `LAYERS`
and wraps the public functions it finds there; its `coloring.chi_s`
metric times `coloring.chromatic_index_exact` by that name. A refactor
that drops a layer module or that function would break
`wncbench/run.py --trace 1` without failing any other test.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

LAYERS = ("ringexpr", "rings", "classify", "graph", "invariants", "coloring",
          "theorems", "cli")


def _traced(module):
    """The functions of the module that the tracer wraps."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(obj)}


def test_the_layers_are_the_tracers():
    spans = pathlib.Path(__file__).resolve().parents[1] / "wncbench" / "spans.py"
    assigned = {target.id: node.value
                for node in ast.parse(spans.read_text()).body
                if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert ast.literal_eval(assigned["LAYERS"]) == LAYERS


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_imports_and_has_functions_to_trace(layer):
    assert _traced(importlib.import_module(f"wnc.{layer}"))


def test_the_chromatic_index_is_traced_by_name():
    assert "chromatic_index_exact" in _traced(
        importlib.import_module("wnc.coloring"))
