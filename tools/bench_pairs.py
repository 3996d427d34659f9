"""Compare two git checkouts of lieforge with alternating perfbench runs and
write the record as one JSON file.

    python tools/bench_pairs.py OLD NEW --seed0 SEED --out FILE
        [--traced METRIC ...]

OLD and NEW are git checkouts of the repository (each with its own
``perfbench/`` and ``src/``), so each side runs its own benchmark on its own
committed sources.  Bytecode of both trees is compiled first: without it the
first runs compile the package, and ``peak_rss_mb`` follows the size of the
source.  Then, for every workload of ``perfbench/run.py``, 10 pairs of
``--trace 0`` runs, one per side, at seeds ``SEED``, ``SEED + 1``, ...,
each run as long as ``run_seconds`` of ``BENCHMARK.json``; OLD runs first in
even-numbered pairs counting from 0, so a drift in host speed loads both
sides alike.  Pick a ``SEED`` whose ten seeds no earlier record used.

``setup_s`` from 10 pairs does not resolve a few per cent: two sets of pairs
on the same import code read +8.3 % and -9.8 %.  So the tool also times 30
alternating ``import lieforge`` per side, each in a fresh interpreter with
the thread variables of ``perfbench/run.py``, raw wall time, OLD first in
even-numbered pairs, after one untimed import per side.

With ``--traced``, one ``--trace 1`` run of 4 s per side and workload at
seed ``SEED`` records the named per-layer metrics (``linalg.mat_exp.calls``,
say).

The file holds one entry per (workload, metric) under ``cases``, each with
the fixed fields ``case``, ``median`` and ``quartiles`` (per side, from
``statistics.quantiles(n=4)``), ``pairs`` (every pair's ``[old, new]``
values) and ``new_lower`` (pairs in which NEW read lower), plus
``gap_exceeds_old_iqr``: whether the medians differ by more than OLD's
quartile distance.  ``operations`` holds the attempted and failed
operations per workload and side, ``traced`` the traced metrics, and
``provenance`` each side's commit, the git tree ids of its ``src`` and
``perfbench`` (equal in any commit with the same sources), whether its tree
was clean, the host's Python, numpy and BLAS, the CPU count and the run
settings.  The tool writes every field of the file.  Not part of the
tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("invariants-1k", "suite-small", "sun-sweep")
METRICS = ("run_s.p50", "run_s.p90", "setup_s", "peak_rss_mb")
SIDES = ("old", "new")
PAIRS = 10
IMPORTS = 30
TRACED_SECONDS = 4.0
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import lieforge\n"
    "print(time.perf_counter() - t)\n"
)


def _thread_env() -> dict[str, str]:
    """perfbench's thread settings (BLAS on one thread), read from this
    checkout's ``perfbench/run.py`` without importing numpy."""
    namespace: dict = {}
    source = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    start = source.index("THREAD_ENV = {")
    exec(source[start : source.index("}", start) + 1], namespace)
    return namespace["THREAD_ENV"]


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _order(k: int) -> tuple[str, str]:
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _perfbench(tree: Path, env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in ``tree``."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _import_s(tree: Path, env) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(tree / "src")],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def _case(name: str, pairs: list[tuple[float, float]]) -> dict:
    """The fixed fields of one case from its ``(old, new)`` pairs."""
    summary = {}
    for side, values in zip(SIDES, zip(*pairs)):
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[side] = (median, [q1, q3])
    (old_median, (q1, q3)), new_median = summary["old"], summary["new"][0]
    return {
        "case": name,
        "median": {side: summary[side][0] for side in SIDES},
        "quartiles": {side: summary[side][1] for side in SIDES},
        "pairs": [list(p) for p in pairs],
        "new_lower": f"{sum(new < old for old, new in pairs)}/{len(pairs)}",
        "gap_exceeds_old_iqr": abs(new_median - old_median) > q3 - q1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--traced", action="append", default=[], metavar="METRIC")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for tree in trees.values():
        if not (tree / ".git").exists() or not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} is not a git checkout of lieforge")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    threads = _thread_env()
    env = {**os.environ, **threads}

    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, env=env, check=True)
    cases, operations, traced = [], {}, {}
    for workload in WORKLOADS:
        runs = []
        for k in range(PAIRS):
            pair = {}
            for side in _order(k):
                pair[side] = _perfbench(trees[side], env, workload, args.seed0 + k, seconds, 0)
                print(f"{workload} pair {k} {side}: "
                      f"{pair[side]['metrics']['run_s.p50']['value']:.6g} s", file=sys.stderr)
            runs.append(pair)
        operations[workload] = {
            side: {key: sum(run[side][key] for run in runs) for key in ("attempted", "failed")}
            for side in SIDES
        }
        for metric in METRICS:
            values = [tuple(run[side]["metrics"][metric]["value"] for side in SIDES) for run in runs]
            cases.append(_case(f"{workload} {metric}", values))
        if args.traced:
            result = {
                side: _perfbench(trees[side], env, workload, args.seed0, TRACED_SECONDS, 1)
                for side in SIDES
            }
            traced[workload] = {
                metric: {side: result[side]["metrics"][metric]["value"] for side in SIDES}
                for metric in args.traced
            }

    times = {side: [] for side in SIDES}
    for side in SIDES:
        _import_s(trees[side], env)  # untimed: warms the file cache
    for k in range(IMPORTS):
        for side in _order(k):
            times[side].append(_import_s(trees[side], env))
    cases.append(_case("import lieforge (raw s)", list(zip(times["old"], times["new"]))))

    numpy_info = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy as np\n"
         "try:\n"
         "    b = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
         "    b = f\"{b['name']} {b['version']}\"\n"
         "except (TypeError, KeyError):\n"
         "    b = None\n"
         "print(json.dumps([np.__version__, b]))"],
        env=env, capture_output=True, text=True, check=True,
    )
    numpy_version, blas = json.loads(numpy_info.stdout)
    provenance = {
        side: {"commit": _git(tree, "rev-parse", "HEAD"),
               "src_tree": _git(tree, "rev-parse", "HEAD:src"),
               "perfbench_tree": _git(tree, "rev-parse", "HEAD:perfbench"),
               "clean": _git(tree, "status", "--porcelain", "--untracked-files=no") == ""}
        for side, tree in trees.items()
    }
    provenance.update(
        python=platform.python_version(), numpy=numpy_version, blas=blas,
        nproc=os.cpu_count(), threads=threads,
        pairs=PAIRS, run_seconds=seconds,
        seeds=[args.seed0 + k for k in range(PAIRS)], imports=IMPORTS,
        traced_seconds=TRACED_SECONDS if args.traced else None,
    )
    record = {"cases": cases, "operations": operations, "traced": traced, "provenance": provenance}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
