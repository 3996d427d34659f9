"""The three benchmark workloads: their seeded inputs, one timed iteration
each, and the correctness gate applied to every iteration's output.

Each workload calls lieforge in-process through module attributes looked up
at call time (``cli.main``, ``su_n.extract_structure``), so the tracer's
wrappers are used when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_PAIRS = Path(__file__).with_name("expected_pairs.json")

# One text-mode report line, as rendered by lieforge.cli._render_text.
_TEXT_REPORT = re.compile(r"^  (\S+)\s+(\S+)\s+residual\s+\S+\s+tol\s+\S+\s+(PASS|FAIL)$")
_TEXT_SUMMARY = re.compile(r"^summary: (\d+) checks, (\d+) passed, (\d+) failed$")

# Sum rules of the su(N) structure tensors for tr(T_a T_b) = delta_ab / 2
# (Haber, arXiv:1912.13302), and max|d|, which is |d| of the last Cartan
# generator with itself: sqrt(2) (N - 2) / sqrt(N (N - 1)).
SUN_RANGE = range(2, 7)
SUN_REL_TOL = 1e-12


def sum_f2(n: int) -> float:
    return n * (n * n - 1)


def sum_d2(n: int) -> float:
    return (n * n - 4) * (n * n - 1) / n


def max_abs_d(n: int) -> float:
    return math.sqrt(2.0) * (n - 2) / math.sqrt(n * (n - 1))


@dataclass
class Outcome:
    """Operations attempted and failed in one iteration, and the reports the
    CLI emitted (zero for workloads that bypass the CLI)."""

    attempted: int = 0
    failed: int = 0
    reports: int = 0
    unique_reports: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def load_expected_pairs() -> dict[str, set[tuple[str, str]]]:
    with open(EXPECTED_PAIRS, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {name: {tuple(p) for p in pairs} for name, pairs in doc["pairs"].items()}


def run_cli(lieforge, argv: list[str]) -> tuple[int | None, str]:
    """``lieforge.cli.main(argv)`` with stdout captured; an exception yields
    exit code None and the traceback as output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = lieforge.cli.main(argv)
    except Exception:  # the iteration fails; the benchmark keeps running
        return None, traceback.format_exc()
    return code, buf.getvalue()


class CliWorkload:
    """One ``lieforge`` CLI invocation per iteration with a seeded ``--seed``."""

    def __init__(self, name: str, lieforge, args: list[str], fmt: str, pairs):
        self.name = name
        self.lieforge = lieforge
        self.args = args
        self.fmt = fmt
        self.pairs = pairs

    def make_input(self, rng: np.random.Generator) -> list[str]:
        seed = int(rng.integers(1, 2**31))
        return [*self.args, "--format", self.fmt, "--seed", str(seed)]

    def run(self, argv: list[str]):
        return run_cli(self.lieforge, argv)

    def check(self, argv: list[str], result) -> Outcome:
        code, out = result
        parsed = None
        if code is not None:
            parse = self._parse_json if self.fmt == "json" else self._parse_text
            parsed = parse(argv, out)
        out_ok = parsed is not None
        reports = parsed or []
        o = Outcome(reports=len(reports), unique_reports=len({p for p, _ in reports}))
        for pair, passed in reports:
            o.op(passed, f"report {pair} failed")
        o.op(code == 0, f"exit code {code}")
        o.op(out_ok and all(passed for _, passed in reports), "output malformed or a report failed")
        missing = self.pairs - {p for p, _ in reports}
        o.op(out_ok and not missing, f"missing pairs {sorted(missing)}")
        return o

    @staticmethod
    def _parse_json(argv: list[str], out: str):
        """Report ``((identity, subject), passed)`` pairs, or None when the
        output is malformed or its config record disagrees with ``argv``."""
        try:
            objs = [json.loads(line) for line in out.splitlines()]
        except json.JSONDecodeError:
            return None
        config = objs[0] if objs else {}
        seed = int(argv[argv.index("--seed") + 1])
        trials = int(argv[argv.index("--trials") + 1])
        if config.get("type") != "config" or (config.get("seed"), config.get("trials")) != (seed, trials):
            return None
        return [
            ((o["identity"], o["subject"]), o["passed"] is True)
            for o in objs
            if "identity" in o and "type" not in o
        ]

    @staticmethod
    def _parse_text(argv: list[str], out: str):
        """Report ``((identity, subject), passed)`` pairs, or None when the
        summary line is missing or disagrees with the report lines."""
        reports = []
        summary = None
        for line in out.splitlines():
            m = _TEXT_REPORT.match(line)
            if m:
                reports.append(((m.group(1), m.group(2)), m.group(3) == "PASS"))
            elif _TEXT_SUMMARY.match(line):
                summary = tuple(int(g) for g in _TEXT_SUMMARY.match(line).groups())
        passed = sum(1 for _, ok in reports if ok)
        if summary != (len(reports), passed, len(reports) - passed):
            return None
        return reports


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random unitary: QR of a complex Gaussian, phases fixed by diag(R)."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class SunSweep:
    """One sweep over su(N), N = 2..6: the generalized Gell-Mann basis,
    halved to tr(T_a T_b) = delta_ab / 2 and conjugated by a seeded random
    unitary, through extract_structure, structure_reports,
    boost_obstruction_report and adjoint_from_f.  f and d are invariant under
    the conjugation, so the exact sum rules stay the oracle."""

    name = "sun-sweep"

    def __init__(self, lieforge, pairs):
        self.su_n = lieforge.su_n
        self.pairs = pairs

    def make_input(self, rng: np.random.Generator) -> list[np.ndarray]:
        return [haar_unitary(rng, n) for n in SUN_RANGE]

    def run(self, unitaries: list[np.ndarray]):
        su_n = self.su_n
        results = []
        try:
            for n, u in zip(SUN_RANGE, unitaries):
                basis = [u @ (g / 2) @ u.conj().T for g in su_n.generalized_gell_mann(n)]
                st = su_n.extract_structure(basis)
                reports = su_n.structure_reports(st)
                obstruction = su_n.boost_obstruction_report(st)
                adjoint = su_n.adjoint_from_f(st)
                results.append((n, st, reports, obstruction, adjoint))
        except Exception:  # the iteration fails; the benchmark keeps running
            return None, traceback.format_exc()
        return results, ""

    def check(self, unitaries, result) -> Outcome:
        results, _ = result
        o = Outcome()
        seen = set()
        for n, st, reports, obstruction, adjoint in results or []:
            for r in reports:
                seen.add((r.identity.value, r.subject))
                o.op(r.passed, f"report {r.identity.value} {r.subject} failed")
            o.op(_close(float(np.sum(st.f**2)), sum_f2(n)), f"su{n}: sum f^2")
            o.op(_close(float(np.sum(st.d**2)), sum_d2(n)), f"su{n}: sum d^2")
            o.op(_close(obstruction.max_abs_d, max_abs_d(n)), f"su{n}: max|d|")
            o.op(obstruction.obstructed == (n >= 3), f"su{n}: obstruction flag")
            o.op(len(adjoint) == n * n - 1, f"su{n}: adjoint member count")
        complete = results is not None and len(results) == len(SUN_RANGE)
        o.op(complete, "sweep raised")
        o.op(complete and all(r.passed for _, _, rs, _, _ in results for r in rs), "a report failed")
        missing = self.pairs - seen
        o.op(not missing, f"missing pairs {sorted(missing)}")
        return o


def _close(got: float, exact: float) -> bool:
    return abs(got - exact) <= SUN_REL_TOL * max(1.0, abs(exact))


WORKLOADS = {
    # The default user run: seeded finite-transformation sweeps in spacetime
    # on top of linalg.mat_exp do almost all of the work.
    "invariants-1k": lambda lf, pairs: CliWorkload(
        "invariants-1k", lf, ["invariants", "--trials", "1000"], "json", pairs
    ),
    # Every suite at a small trial count: bracket tables in checks, transfer,
    # su(2)/su(3) and text rendering; per-call overhead in spacetime shows.
    "suite-small": lambda lf, pairs: CliWorkload(
        "suite-small", lf, ["all", "--trials", "10"], "text", pairs
    ),
    # su(N) structure extraction as N grows; spacetime is not touched.
    "sun-sweep": lambda lf, pairs: SunSweep(lf, pairs),
}
