"""The package's public surface: every exported name exists, every
function the benchmark in perfbench/ traces is still defined, and every
parameter of every function is read."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "lieforge"
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


def _unread_parameters(path):
    """``name(parameter)`` for every parameter of a function or lambda in the
    file at ``path`` that its body never reads; ``self`` and ``_``-prefixed
    names are exempt."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        for p in params:
            if p and p.arg != "self" and not p.arg.startswith("_") and p.arg not in read:
                yield f"{path.stem}.{name}({p.arg})"


def test_every_parameter_is_read():
    # A parameter nothing reads is a setting that does nothing; callers pass
    # it along for no effect.
    unread = [u for path in sorted(SRC.glob("*.py")) for u in _unread_parameters(path)]
    assert unread == []
