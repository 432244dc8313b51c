"""The package names the benchmark harness relies on.

`bench/tracer.py` wraps the functions in its LAYER_FUNCTIONS by name, `bench/child.py`
tells a `LyapunovProblem` from a bare drift matrix, and every benchmark file reads the
package as `L.<name>` or `lindlyap.<name>`, so deleting or renaming any of them breaks
benchmark runs.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import lindlyap
import lindlyap.cli  # noqa: F401  (the benchmark imports it, and reads L.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
PACKAGE_ALIASES = ("L", "lindlyap")  # the names the benchmark binds the package to


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


def dotted_read(node: ast.AST) -> str | None:
    """'a.b' for an attribute read L.a.b or lindlyap.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if names and isinstance(node, ast.Name) and node.id in PACKAGE_ALIASES:
        return ".".join(reversed(names))
    return None


def package_reads() -> dict:
    """Each dotted name the benchmark files read off the package, with the first place it is read."""
    reads = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (name := dotted_read(node)) is not None:
                reads.setdefault(name, f"{path.name}:{node.lineno}")
    return reads


BENCH_READS = package_reads()


def test_the_scan_sees_the_benchmark_reads():
    assert {"catalog_analytic", "steady_covariance", "LyapunovProblem", "cli.main", "lyapunov.solve"} <= set(
        BENCH_READS)


@pytest.mark.parametrize("name", sorted(BENCH_READS))
def test_every_package_name_the_benchmark_reads_exists(name):
    try:
        functools.reduce(getattr, name.split("."), lindlyap)
    except AttributeError:
        pytest.fail(f"{BENCH_READS[name]} reads lindlyap.{name}, which does not exist")
