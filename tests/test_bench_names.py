"""BENCHMARK.json names its per-layer timings after topogate functions, as
``<module>.<function>.ms`` or ``.self_ms``; perfbench's tracer wraps only the
functions a module lists in ``__all__``, and a listed name that is missing
leaves its figure without spans. Every such name must stay a public function,
and every name any module lists in ``__all__`` must exist."""

import importlib
import inspect
import json
import os
import pkgutil

import pytest

import topogate

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


def timed_layers():
    with open(BENCHMARK) as f:
        names = [layer["name"] for layer in json.load(f)["per_layer"]]
    return [n.rsplit(".", 1)[0] for n in names if n.endswith((".ms", ".self_ms"))]


@pytest.mark.parametrize("layer", timed_layers())
def test_timed_layer_is_public_function(layer):
    module_name, function = layer.split(".")
    module = importlib.import_module(f"topogate.{module_name}")
    assert function in module.__all__
    fn = getattr(module, function)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


@pytest.mark.parametrize("module_name", sorted(m.name for m in pkgutil.iter_modules(topogate.__path__)))
def test_public_names_exist(module_name):
    """A stale ``__all__`` entry breaks ``import *`` and leaves the tracer a name to miss."""
    module = importlib.import_module(f"topogate.{module_name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
