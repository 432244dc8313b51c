"""The package names the benchmark harness relies on.

`bench/tracer.py` wraps the functions in its LAYER_FUNCTIONS by name, and `bench/child.py`
tells a `LyapunovProblem` from a bare drift matrix, so deleting or renaming any of them
breaks traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lindlyap

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_FUNCTIONS


@pytest.mark.parametrize("module, names", sorted(layer_functions().items()))
def test_traced_layer_functions_exist(module, names):
    mod = importlib.import_module(f"lindlyap.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"lindlyap.{module}.{name}"


def test_lyapunov_problem_is_exported():
    assert isinstance(lindlyap.LyapunovProblem, type)
