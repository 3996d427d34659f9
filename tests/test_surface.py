"""The package's public surface: every exported name exists, and every
function the benchmark in perfbench/ traces is still defined."""

import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("linalg", "generators", "checks", "transfer", "spacetime", "su_n", "cli")


def _load_perfbench(name):
    """A module of perfbench/, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_names_a_defined_function():
    # perfbench/run.py --trace 1 exits when a per-layer metric names a
    # function lieforge no longer defines; deleting one should fail here first.
    tracer, run = _load_perfbench("tracer"), _load_perfbench("run")
    assert tracer.Tracer().missing(run.TRACED_METRICS) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"lieforge.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
