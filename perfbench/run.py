"""lieforge benchmark: run one workload as a closed loop with one caller.

    python3 perfbench/run.py --workload invariants-1k --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root or anywhere else: the package is imported from
``src/`` next to this directory, never from an installed copy.  Every
iteration's output goes through the workload's correctness gate.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose traced
iterations alternate with untraced ones to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every matrix here is at most 35x35: a second BLAS thread only adds noise.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 9
PERTURB = "1e-6"
CHILD_TIMEOUT_S = 120

# A check of the tracer itself: on the package sources of seed commit 02b17c6
# (hashed as in provenance()), invariants-1k makes exactly these calls per
# invocation whatever the seed, and a lower count means some binding of the
# function escaped the tracer.  Other sources may call these functions less
# often, so there the check does not apply.
SEED_SOURCE_SHA256 = "a003b12d343517c5b521658f671679fefda6a1ee821976f8d9603c2b8110aac3"
EXPECTED_CALLS = {"invariants-1k": {"linalg.mat_exp": 5700, "spacetime.d4": 2400}}

# Per-layer metrics read from the tracer: "<key>.calls" counts calls,
# "<key>.self_s" self time and "<key>.s" inclusive time per iteration, where
# <key> is a function ("linalg.mat_exp"), a split ("su_n.extract_structure.n2")
# or a whole layer ("linalg").
TRACED_METRICS = (
    *(f"linalg.{fn}.{kind}" for fn in ("mat_exp", "as_cmatrix", "decompose_in_basis")
      for kind in ("calls", "self_s")),
    "linalg.frobenius_distance.calls",
    "linalg.det.calls",
    "linalg.self_s",
    "generators.calls",
    "generators.self_s",
    "checks.check_lorentz.calls",
    "checks.check_lorentz.self_s",
    "checks.check_poincare.calls",
    "checks.vector_relation_reports.calls",
    "checks.self_s",
    "transfer.extract_coeffs.calls",
    "transfer.extract_coeffs.self_s",
    "transfer.self_s",
    "spacetime.d4.calls",
    "spacetime.d4.self_s",
    "spacetime.apply.calls",
    "spacetime.self_s",
    *(f"spacetime.{check}.s" for check in (
        "rotation_invariance_check",
        "boost_invariance_check",
        "det_interval_check",
        "affine_composition_check",
        "translation_check",
        "intertwine_sweep",
    )),
    *(f"su_n.extract_structure.n{n}.s" for n in range(2, 7)),
    "su_n.adjoint_from_f.s",
    "su_n.self_s",
    "cli.main.self_s",
)


def parse_args(argv=None, workloads=()):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_lieforge():
    """Import the package from ``src/`` beside this directory, or exit with an error."""
    if not (SRC / "lieforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lieforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lieforge
    import lieforge.cli

    if not Path(lieforge.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported lieforge from {lieforge.__file__}, not {SRC}")
    return lieforge


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV}


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median time of ``import lieforge`` in a fresh interpreter, raw and
    rescaled by the median of the reference kernel timed in the same children
    right after the import (past its first call).  The first, untimed child
    compiles bytecode and warms the file cache."""
    from hostspeed import NOMINAL_S

    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import lieforge\n"
        "elapsed = time.perf_counter() - t\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from hostspeed import reference_s\n"
        "reference_s()\n"
        "print(elapsed, reference_s(), reference_s())\n"
    )
    raw, refs = [], []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        if i:
            elapsed, *ref = (float(v) for v in done.stdout.split())
            raw.append(elapsed)
            refs.extend(ref)
    median = statistics.median(raw)
    return median, median * NOMINAL_S / statistics.median(refs)


def provenance(lieforge) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lieforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except FileNotFoundError:  # no git on this machine
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "lieforge": lieforge.__version__,
    }


def negative_control(lieforge) -> bool:
    """``verify`` with a perturbed generator must fail with exit code 1."""
    from workloads import run_cli

    from lieforge.cli import PERTURB_ENV

    saved = os.environ.get(PERTURB_ENV)
    os.environ[PERTURB_ENV] = PERTURB
    try:
        code, _ = run_cli(lieforge, ["verify", "--trials", "10"])
    finally:
        if saved is None:
            del os.environ[PERTURB_ENV]
        else:
            os.environ[PERTURB_ENV] = saved
    return code == 1


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to p90 with at least ten
    samples beyond it, but never below p75, so short runs still report a tail."""
    import numpy as np

    n = len(times)
    q = 90.0 if n < 2 else min(90.0, max(75.0, 100.0 * (n - 11) / (n - 1)))
    return q, float(np.percentile(times, q))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def iterate(workload, rng, tally: Tally, tracer=None):
    """One checked iteration; returns (seconds, outcome).  The timer covers
    only the workload call, not input generation or the gate."""
    inp = workload.make_input(rng)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = workload.run(inp)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = workload.check(inp, result)
    tally.add(outcome.attempted, outcome.failed)
    if outcome.failed:
        detail = result[1] if result[0] is None else ""  # the traceback, if it raised
        print(f"perfbench: {workload.name} iteration failed {outcome.failed} of "
              f"{outcome.attempted} operations: {'; '.join(outcome.problems)}\n{detail}",
              file=sys.stderr)
    return elapsed, outcome


def run_untraced(workload, rng, seconds: float, tally: Tally):
    """Timed iterations until ``seconds`` are up, each rescaled by the
    reference kernel timed just before and just after it; returns
    (raw, rescaled, reference) times."""
    from hostspeed import reference_s, rescale

    iterate(workload, rng, tally)  # warm-up, checked but not timed
    raw: list[float] = []
    scaled: list[float] = []
    refs = [reference_s()]
    start = time.perf_counter()
    while not raw or time.perf_counter() - start + statistics.median(raw) <= seconds:
        raw.append(iterate(workload, rng, tally)[0])
        refs.append(reference_s())
        scaled.append(rescale(raw[-1], refs[-2], refs[-1]))
    return raw, scaled, refs


def run_traced(workload, rng, seconds: float, tally: Tally, source_sha256: str):
    """Alternate untraced and traced iterations; return per-layer metrics,
    whether every traced iteration made identical call counts, and the tracer
    self-check (None where it does not apply).  Exits with an error when a
    metric names a function the package does not define."""
    from tracer import Tracer

    tracer = Tracer()
    missing = tracer.missing(TRACED_METRICS)
    if missing:
        sys.exit(f"perfbench: lieforge defines no function for {', '.join(missing)}")
    iterate(workload, rng, tally)
    plain: list[float] = []
    traced: list[float] = []
    counts: list[dict] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) <= seconds:
        plain.append(iterate(workload, rng, tally)[0])
        before = tracer.calls()
        elapsed, outcome = iterate(workload, rng, tally, tracer)
        traced.append(elapsed)
        after = tracer.calls()
        counts.append({k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)})

    counts_ok = all(c == counts[0] for c in counts)
    self_check = None
    if source_sha256 == SEED_SOURCE_SHA256 and workload.name in EXPECTED_CALLS:
        expected = EXPECTED_CALLS[workload.name]
        self_check = all(counts[0].get(key) == n for key, n in expected.items())

    n = len(traced)
    m = {name: tracer.per_iteration(name, counts[0], n) for name in TRACED_METRICS}
    emitted = outcome.reports  # the same in every iteration, like the call counts
    m["cli.reports_emitted"] = (emitted, "count")
    m["cli.unique_report_ratio"] = (outcome.unique_reports / emitted if emitted else 1.0, "ratio")
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return m, counts_ok, self_check, {"traced_iterations": n, "untraced_iterations": len(plain)}


def run_one(args) -> int:
    lieforge = import_lieforge()
    import numpy as np
    from workloads import WORKLOADS, load_expected_pairs

    workload = WORKLOADS[args.workload](lieforge, load_expected_pairs()[args.workload])
    rng = np.random.default_rng(args.seed)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **provenance(lieforge)}

    tally = Tally()
    correct = True
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        setup_raw_s, setup_s = measure_setup(SETUP_REPEATS)
    control_ok = negative_control(lieforge)
    tally.add(1, 0 if control_ok else 1)

    if args.trace == 0:
        raw, times, refs = run_untraced(workload, rng, args.seconds, tally)
        q, tail_value = tail(times)
        metrics["run_s.p50"] = (statistics.median(times), "s")
        metrics["run_s.p90"] = (tail_value, "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        info.update(samples=len(times), tail_percentile=q,
                    tail_samples_beyond=sum(1 for t in times if t > tail_value),
                    raw_run_s_p50=statistics.median(raw), raw_run_s_tail=tail(raw)[1],
                    raw_setup_s=setup_raw_s, reference_s_p50=statistics.median(refs),
                    setup_repeats=SETUP_REPEATS)
    else:
        metrics, counts_ok, self_check, extra = run_traced(
            workload, rng, args.seconds, tally, info["source_sha256"])
        info.update(extra, call_counts_repeat=counts_ok, tracer_self_check=self_check)
        correct = counts_ok

    correct = correct and tally.failed == 0
    info.update(attempted=tally.attempted, failed=tally.failed,
                fail_ratio=tally.failed / tally.attempted, negative_control=control_ok)
    print(json.dumps({"provenance": info}, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:40} {value:14.6g} {unit}")
    print(f"{args.workload:14} {'fail_ratio':40} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process, so each reports its own set-up and
    peak memory."""
    status = 0
    for name in workloads:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * args.seconds,
        )
        sys.stderr.write(done.stderr)
        sys.stdout.write(done.stdout)
        lines = done.stdout.splitlines()
        ok = done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
