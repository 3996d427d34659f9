"""Per-layer call counts and times, recorded from outside the package.

Every public module-level function of each lieforge module (a "layer") gets a
wrapper that counts calls and accumulates inclusive and self time.  Modules
import functions by name (``from .linalg import mat_exp``), so each module
namespace holds its own binding of the same function; the tracer rebinds
every one of them, including functions held in module-level dispatch tables
such as the CLI's ``_RUNNERS``.  Private helpers are not wrapped: their time
is self time of the public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "lieforge"
LAYERS = ("linalg", "generators", "checks", "transfer", "spacetime", "su_n", "cli")


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``stats`` maps ``"<layer>.<function>"`` to a :class:`Stat`, and
    ``"su_n.extract_structure.n<N>"`` to the calls of that function on su(N);
    it keeps accumulating across installs.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        self._bindings = self._find_bindings()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        split_by_dim = key == "su_n.extract_structure"
        stack = self._stack
        clock = time.perf_counter
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.incl_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if split_by_dim:  # also recorded per su(N), as ".n<N>"
                    generators = args[0] if args else kwargs["generators"]
                    sub = stats.setdefault(f"{key}.n{len(generators[0])}", Stat())
                    sub.calls += 1
                    sub.incl_s += elapsed

        return traced

    def _find_bindings(self) -> list[tuple]:
        """Every (namespace, name, original) that refers to a wrapped function:
        module attributes, and tuples of functions stored in module-level dicts."""
        found = []
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in vars(mod).items():
                if self._wrapper_for(value) is not None:
                    found.append((vars(mod), name, value))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if isinstance(v, tuple) and any(
                            self._wrapper_for(f) is not None for f in v
                        ):
                            found.append((value, k, v))
        return found

    def _wrapper_for(self, value):
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def install(self) -> None:
        for ns, name, original in self._bindings:
            if isinstance(original, tuple):
                ns[name] = tuple(self._wrapper_for(f) or f for f in original)
            else:
                ns[name] = self._wrapper_for(original)

    def uninstall(self) -> None:
        for ns, name, original in self._bindings:
            ns[name] = original

    def calls(self) -> dict[str, int]:
        return {k: s.calls for k, s in self.stats.items()}

    def missing(self, metrics) -> list[str]:
        """The metrics among ``metrics`` whose function the package does not
        define, so that they would read 0 without measuring anything."""
        out = []
        for metric in metrics:
            key = metric.rpartition(".")[0]
            if key not in LAYERS and ".".join(key.split(".")[:2]) not in self.stats:
                out.append(metric)
        return out

    def per_iteration(self, metric: str, calls: dict[str, int], iterations: int):
        """``(value, unit)`` of ``"<key>.calls"``, ``"<key>.self_s"`` or
        ``"<key>.s"``, where a bare layer name as key sums the layer's
        functions; ``calls`` holds one iteration's call counts."""
        key, _, kind = metric.rpartition(".")
        if key in LAYERS:
            keys = [k for k in self.stats if k.count(".") == 1 and k.startswith(key + ".")]
        else:
            keys = [key] if key in self.stats else []
        if kind == "calls":
            return sum(calls.get(k, 0) for k in keys), "count"
        field = {"self_s": "self_s", "s": "incl_s"}[kind]
        return sum(getattr(self.stats[k], field) for k in keys) / iterations, "s"

