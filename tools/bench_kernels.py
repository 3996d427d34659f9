"""Time lieforge's kernels and print one JSON line.

    python tools/bench_kernels.py [SRC]
    python tools/bench_kernels.py [SRC] --against OLD_SRC [--pairs N]

SRC and OLD_SRC are directories holding a ``lieforge`` package (a
checkout's ``src``; SRC defaults to the ``src`` beside this directory), so
one copy of this script times any version of the package whose
``_d4_stack`` takes no tolerance, which has ``_rotation_stack`` and whose
``intertwine_sweep`` takes a list of families.
Cases: ``extract_structure`` on the generalized Gell-Mann basis
T = lambda / 2 at N = 2..9 and 12, and on the su(N) bases, N = 2..6,
conjugated by a random unitary seeded with N (``perfbench/workloads.py``'s
``haar_unitary``, the kind of input ``sun-sweep`` extracts);
``adjoint_from_f`` on the Gell-Mann structure tensors at N = 4 and 6 and on
the Haar ones at N = 2 to 8; one ``sun-sweep``-shaped iteration over the Haar
bases at N = 2 to 6, each through ``extract_structure``, ``structure_reports``,
``boost_obstruction_report`` and ``adjoint_from_f`` (the bases are built
beforehand, where ``sun-sweep`` builds them in each iteration); the seeded sweeps
``boost_invariance_check`` and ``rotation_invariance_check`` at 1000
trials and ``translation_check`` at 100 (passed the 5-affine momentum set
where it takes one); ``_d4_stack``, the stacked
4-vector transform, at 256 seeded trials, and the rotation-only transform of
the rotation sweep (``_rotation_stack``) at the same 256 angle triples;
the generator factories ``gamma``, ``rep22_v`` at its default constants,
``rep22_jk`` and ``affine_generators`` (the ``np.kron`` and ``np.block``
layer every run builds its sets with);
``bracket_table`` on the 2+2 Lorentz jk table [J_i, K_j] = i eps_ijk K_k
(two different stacks) and the 2+2 self-table jj [J_i, J_j] = i eps_ijk
J_k, tables of the size the CLI forms (the su(N) tables that only the
tests' oracles form are not timed); ``check_lorentz`` of the 2+2
rep, ``vector_relation_reports`` of the 2+2 rep with gamma and
``transfer_reports`` of the tensors extracted from the 2+2 vector family;
``extract_coeffs`` of
the 2+2 vector family and of the single-block momentum family against the
2+2 rotation generators; ``intertwine_sweep`` of the 2+2 rep with gamma and
the 5-affine rep together at 100 draws, behind their precomputed closure
reports; the uncached ``cli.build_parser`` (``__wrapped__`` where the
parser is cached); and whole CLI runs through ``cli.main`` with stdout
captured: ``verify``, ``transfer``, ``sun`` and ``exercises`` at their
defaults, ``invariants --trials 1000 --format json`` (the command
perfbench's ``invariants-1k`` times, at the default seed), the same at one
trial (that command's fixed cost alone) and ``all --trials 10`` in text
mode (the command ``suite-small`` times).

Alone, the tool runs each case once untimed, then REPEATS times, and the
line gives the median and quartiles of the raw wall times in seconds and
the minor page faults per timed call, from ``ru_minflt`` read around each
call: a case whose temporaries cross glibc's mmap threshold faults on every
call, one that reuses the heap does not.  With
``--against``, both trees are loaded in one process, as the packages
``lieforge_old`` and ``lieforge_new``, and each case is called once per
side untimed and then
timed in ``--pairs`` pairs of one call per side, the old tree first in
even-numbered pairs counting from 0.  The line gives each side's median,
quartiles and faults per call, and the number of pairs in which the new
tree was faster.  A
kernel change of 10-20 % is then resolved: separate processes see the
host's speed change between them, alternating calls in one process see it
on both sides alike.  Either line carries the Python, numpy and BLAS
versions and a hash of each tree's package sources.

Every timed call runs with the garbage collector disabled, and the cyclic
garbage it left is collected after it, untimed (``gc.collect(0)``).  With
the collector on, a case that leaves cycles (``build_parser``) triggers a
collection every few calls at a period that locks onto the alternation
of sides, so one side pays for most of them: two copies of one tree read
107-155 of 200 pairs in favour of the package loaded second, and 93-103
of 200 with this rule.

The thread variables are set to ``perfbench/run.py``'s ``THREAD_ENV`` (BLAS
on one thread) before numpy is imported, so both tools run under the same
threading.  Not part of the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import functools
import importlib.util
import inspect
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str, package: bool = False):
    """Import the file ``path`` as the module ``name``, or the package whose
    ``__init__.py`` it is.  lieforge's modules import each other relatively,
    so two trees loaded under two names share nothing."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


THREAD_ENV = _load(ROOT / "perfbench" / "run.py", "perfbench_run").THREAD_ENV
EXTRACT_N = (*range(2, 10), 12)
ADJOINT_N = (4, 6)
HAAR_N = range(2, 7)
ADJOINT_HAAR_N = range(2, 9)
REPEATS = 5
PAIRS = 100


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _summary(calls: list[tuple[float, int]]) -> dict:
    """Median and quartiles of the wall times of ``(seconds, faults)``
    calls, and their mean minor page faults."""
    q1, median, q3 = statistics.quantiles([t for t, _ in calls], n=4)
    faults = sum(f for _, f in calls) / len(calls)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "minflt_per_call": faults}


def _call(fn, arg) -> tuple[float, int]:
    """The wall time of ``fn(arg)`` and the minor page faults it took, run
    with the collector disabled (as :func:`main` leaves it); the cyclic
    garbage of the call is collected after it, untimed and uncounted."""
    faults = _minflt()
    t0 = time.perf_counter()
    fn(arg)
    elapsed = time.perf_counter() - t0
    faults = _minflt() - faults
    gc.collect(0)
    return elapsed, faults


def _timed(fn, arg) -> dict:
    _call(fn, arg)
    calls = [_call(fn, arg) for _ in range(REPEATS)]
    return {**_summary(calls), "repeats": REPEATS}


def _interleaved(old, new, pairs: int) -> dict:
    """Time ``old`` and ``new``, each a (function, argument) tuple, once each
    per pair, the old first in even-numbered pairs."""
    sides = {"old": old, "new": new}
    calls = {"old": [], "new": []}
    for fn, arg in sides.values():
        _call(fn, arg)
    for k in range(pairs):
        for side in ("old", "new") if k % 2 == 0 else ("new", "old"):
            calls[side].append(_call(*sides[side]))
    faster = sum(b[0] < a[0] for a, b in zip(calls["old"], calls["new"]))
    return {
        "old": _summary(calls["old"]),
        "new": _summary(calls["new"]),
        "new_faster": f"{faster}/{pairs}",
    }


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "lieforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cases(package: str, haar_unitary) -> list[tuple[str, object, object]]:
    """Every case as (name, function, argument), on the package loaded as
    ``package``; inputs are built here, outside the timed calls."""
    import numpy as np

    def module(name):
        return importlib.import_module(f"{package}.{name}")

    checks, cli, generators, spacetime, su_n, transfer = (
        module(name) for name in ("checks", "cli", "generators", "spacetime", "su_n", "transfer")
    )
    extract_structure, adjoint_from_f = su_n.extract_structure, su_n.adjoint_from_f
    bases = {n: [g / 2 for g in su_n.generalized_gell_mann(n)] for n in EXTRACT_N}
    cases = [(f"extract_structure n={n}", extract_structure, bases[n]) for n in EXTRACT_N]
    haar = {}
    for n in sorted({*HAAR_N, *ADJOINT_HAAR_N}):
        u = haar_unitary(np.random.default_rng(n), n)
        haar[n] = [u @ g @ u.conj().T for g in bases[n]]
    cases += [(f"extract_structure haar n={n}", extract_structure, haar[n]) for n in HAAR_N]
    cases += [(f"adjoint_from_f n={n}", adjoint_from_f, extract_structure(bases[n])) for n in ADJOINT_N]
    cases += [
        (f"adjoint_from_f haar n={n}", adjoint_from_f, extract_structure(haar[n]))
        for n in ADJOINT_HAAR_N
    ]

    def sun_sweep(haar_bases):
        for basis in haar_bases:
            st = extract_structure(basis)
            su_n.structure_reports(st)
            su_n.boost_obstruction_report(st)
            adjoint_from_f(st)

    cases.append(("sun-sweep iteration haar n=2..6", sun_sweep, [haar[n] for n in HAAR_N]))
    cases += [
        (f"{check.__name__}(1000)", check, 1000)
        for check in (spacetime.boost_invariance_check, spacetime.rotation_invariance_check)
    ]
    translation = spacetime.translation_check
    if "p5" in inspect.signature(translation).parameters:
        translation = functools.partial(translation, spacetime.affine_generators()[2])
    cases.append(("translation_check(100)", translation, 100))
    rng = np.random.default_rng(1)

    def angles(max_norms, size):
        """``size`` 3-vectors per max norm m, as a sweep draws them: random
        directions, norms uniform in [0, m)."""
        v = rng.normal(size=(len(max_norms), size, 3))
        norms = np.array(max_norms)[:, None] * rng.random((len(max_norms), size))
        return v * (norms / np.linalg.norm(v, axis=-1))[..., None]

    J22, K22 = generators.rep22_jk()
    # The 2+2 draws that earlier versions of this tool timed are still taken,
    # so the transforms stay the trials that earlier records timed.
    angles((np.pi, 2.0), 100)
    transforms = angles((np.pi, 3.0), 256)
    cases.append(("_d4_stack (256 trials)", lambda a: spacetime._d4_stack(*a), transforms))
    cases.append(("rotation-only Lambda (256 trials)", spacetime._rotation_stack, transforms[0]))
    cases += [
        ("gamma", lambda _: generators.gamma(), None),
        ("rep22_v", generators.rep22_v, generators.VectorParams()),
        ("rep22_jk", lambda _: generators.rep22_jk(), None),
        ("affine_generators", lambda _: spacetime.affine_generators(), None),
    ]
    tables = {
        "2+2 Lorentz jk": (J22.stack, K22.stack, 1j * checks.EPS3, K22.stack, False),
        "2+2 Lorentz jj": (J22.stack, J22.stack, 1j * checks.EPS3, J22.stack, False),
    }
    bracket_table = checks.bracket_table
    cases += [
        (f"bracket_table {name}", lambda a: bracket_table(*a[:4], anti=a[4]), args)
        for name, args in tables.items()
    ]
    V22 = generators.rep22_v()
    extracted = (transfer.extract_coeffs(V22, J22), transfer.extract_coeffs(V22, K22))
    cases += [
        ("check_lorentz 2+2", lambda a: checks.check_lorentz(*a), (J22, K22)),
        ("vector_relation_reports 2+2 gamma", lambda a: checks.vector_relation_reports(*a),
         (J22, K22, generators.gamma())),
        ("transfer_reports", lambda a: transfer.transfer_reports(*a), extracted),
    ]
    families = {
        "vector": generators.rep22_v(),
        "single-block momentum": generators.momentum(
            generators.VectorParams(generators.GAMMA_C_PLUS, 0.0, 1.0)
        ),
    }
    cases += [
        (f"extract_coeffs {name} vs J22", lambda V: transfer.extract_coeffs(V, J22), V)
        for name, V in families.items()
    ]
    sweep_families = [(J22, K22, generators.gamma()), spacetime.affine_generators()]
    prechecks = [r for family in sweep_families for r in checks.check_poincare(*family)]
    cases.append(
        (
            "intertwine_sweep 2+2 and 5-affine (100 draws)",
            lambda draws: spacetime.intertwine_sweep(sweep_families, prechecks, draws),
            100,
        )
    )
    uncached = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
    cases.append(("build_parser", lambda _: uncached(), None))

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    commands = (["verify"], ["transfer"], ["sun"], ["exercises"],
                ["invariants", "--trials", "1000", "--format", "json"],
                ["invariants", "--trials", "1", "--format", "json"],
                ["all", "--trials", "10"])
    cases += [(f"cli {' '.join(argv)}", run, argv) for argv in commands]
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--against", type=Path, metavar="OLD_SRC",
                        help="time SRC against OLD_SRC in one process, alternating calls")
    parser.add_argument("--pairs", type=int, default=PAIRS,
                        help=f"alternating pairs per case with --against (default {PAIRS})")
    args = parser.parse_args(argv)
    trees = [args.src] + ([args.against] if args.against else [])
    for src in trees:
        if not (src / "lieforge").is_dir():
            parser.error(f"{src} holds no lieforge package")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    os.environ.update(THREAD_ENV)  # before numpy is imported
    import numpy as np

    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    gc.collect()
    gc.disable()
    if args.against:
        _load(args.against / "lieforge" / "__init__.py", "lieforge_old", package=True)
        _load(args.src / "lieforge" / "__init__.py", "lieforge_new", package=True)
        old = _cases("lieforge_old", workloads.haar_unitary)
        new = _cases("lieforge_new", workloads.haar_unitary)
        cases = [
            {"case": name, **_interleaved((f_old, a_old), (f_new, a_new), args.pairs)}
            for (name, f_old, a_old), (_, f_new, a_new) in zip(old, new)
        ]
        sources = {"old_source_sha256": _source_sha256(args.against),
                   "new_source_sha256": _source_sha256(args.src), "pairs": args.pairs}
    else:
        _load(args.src / "lieforge" / "__init__.py", "lieforge", package=True)
        cases = [
            {"case": name, **_timed(fn, arg)}
            for name, fn, arg in _cases("lieforge", workloads.haar_unitary)
        ]
        sources = {"source_sha256": _source_sha256(args.src)}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    provenance = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        **sources,
    }
    print(json.dumps({"cases": cases, "provenance": provenance}, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
