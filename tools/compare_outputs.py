"""Compare the CLI output of two lieforge source trees, run by run.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``lieforge`` package (a
checkout's ``src``).  Each invocation of a fixed list runs as
``python -m lieforge ...`` once with each directory as ``PYTHONPATH``, and
its exit code, stderr and stdout are compared byte for byte.  Residuals may
move in the last digits when arithmetic is reordered, so a run whose outputs
differ only in residuals counts as matching: for JSON runs the records are
compared without their ``max_residual`` field, for text runs the lines are
compared with the residual column masked.  For each JSON report whose
residual moved and which passes in both trees, the largest move over all
runs is printed.  Moves of reports that fail in either tree are printed
apart, one line per run with its label: the residual of a failing check
(an out-of-range rapidity, say) can be any size, and folded into the same
summary it would hide how far the passing reports moved.  For each run that
differs beyond residuals, the first line (text) or record (JSON) at which
the two trees part is printed, one per side, from stdout or else stderr: a
deliberate output change can be reviewed from that alone.

Exit status: 0 when every run matches up to residuals, 1 when any other
field differs, 2 on a bad argument.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

TRANSFORM = ["--phi", "2", "0", "0", "--x", "1", "0", "0", "2"]


def _invocations() -> list[tuple[dict, list[str]]]:
    """The fixed run list, as (extra environment, argv) pairs."""
    pairs: list[tuple[dict, list[str]]] = []
    for command in ("verify", "transfer", "invariants", "sun", "exercises", "all"):
        pairs.append(({}, [command, "--trials", "10"]))
    for command in ("invariants", "exercises", "all"):
        for seed in ("1", "2", "7"):
            pairs.append(({}, [command, "--seed", seed]))
    pairs.append(({"LIEFORGE_PERTURB": "1e-6"}, ["all"]))
    # The smallest accepted tolerance, where rounding is a tenth of the bound.
    pairs.append(({"LIEFORGE_TOL": "1e-15"}, ["all", "--trials", "10"]))
    for alpha in ("2", "-1"):
        pairs.append(({}, ["all", "--alpha", alpha]))
    # A non-dyadic alpha, which rounds the vector-boost coefficients.
    pairs.append(({}, ["all", "--trials", "10", "--alpha", "0.3"]))
    pairs.append(({}, ["all", *TRANSFORM]))
    # Large rapidities: the interval check near the edge of the supported
    # range (7, 8), where rounding decides pass or fail under the flat bound,
    # the failing check (300) and the overflow errors (400: the interval
    # overflows, 1000: the transform does) print x' and the interval, which no
    # residual mask covers.  So does an identity transform of an x whose
    # interval overflows.
    for phi in ("7", "8", "300", "1000", "400"):
        pairs.append(({}, ["invariants", "--trials", "10", "--phi", phi, *TRANSFORM[2:]]))
    pairs.append(({}, ["invariants", "--trials", "10", "--x", "1e200", "0", "0", "2"]))
    # Large rotation angles, whose x' no residual mask covers: sin and cos
    # reduce them exactly, and the norm of 1e300 is taken without squaring it.
    for theta in ("1e20", "1e8", "1e300"):
        pairs.append(({}, ["invariants", "--trials", "10", "--theta", theta, "0", "0", "--x", "0", "1", "0", "2"]))
    # A negative value written with an exponent: trees whose argparse takes
    # -1e-3 for an option refuse it with exit 2.
    pairs.append(({}, ["invariants", "--trials", "10", "--theta", "-1e-3", "0", "0", *TRANSFORM[4:]]))
    # Three blocks of seeded trials: 2500 crosses the sweeps' 1024-trial block
    # twice, so trials drawn in the second and third blocks are compared too.
    pairs.append(({}, ["invariants", "--trials", "2500", "--seed", "3"]))
    runs = [(env, argv + fmt) for env, argv in pairs for fmt in ([], ["--format", "json"])]
    runs.append(({}, ["invariants", *TRANSFORM]))
    # A tolerance below the rounding floor: rejected as bad input.
    runs.append(({"LIEFORGE_TOL": "3e-16"}, ["transfer"]))
    # The help texts, which come from the parser alone.
    runs.append(({}, ["-h"]))
    for command in ("verify", "transfer", "invariants", "sun", "exercises", "all"):
        runs.append(({}, [command, "-h"]))
    return runs


def _run(src: Path, env: dict, argv: list[str]) -> subprocess.CompletedProcess:
    base = {k: v for k, v in os.environ.items() if not k.startswith("LIEFORGE_")}
    return subprocess.run(
        [sys.executable, "-m", "lieforge", *argv],
        capture_output=True,
        env={**base, **env, "PYTHONPATH": str(src)},
    )


# The residual column of a text report, or the residual field of a JSON one.
_RESIDUAL = re.compile(rb'residual +\S+|"max_residual":[^,}]+')


def _json_records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _compare(old: bytes, new: bytes, is_json: bool, moves: dict, failing: list, label: str) -> bool:
    """True when the outputs agree in everything but residuals.  Records the
    residual moves of JSON reports that pass in both trees in ``moves``, the
    largest per (identity, subject), and those of the others in ``failing``
    as (label, identity, subject, old, new)."""
    if not is_json:
        return _RESIDUAL.sub(b"residual *", old) == _RESIDUAL.sub(b"residual *", new)
    old_recs, new_recs = _json_records(old), _json_records(new)
    if len(old_recs) != len(new_recs):
        return False
    same = True
    for a, b in zip(old_recs, new_recs):
        if "max_residual" in a and "max_residual" in b:
            key = (a.get("identity"), a.get("subject"))
            before, after = a.pop("max_residual"), b.pop("max_residual")
            move = abs(after - before)
            if move > 0.0 and a.get("passed") and b.get("passed"):
                moves[key] = max(moves.get(key, 0.0), move)
            elif move > 0.0:
                failing.append((label, *key, before, after))
        same = same and a == b
    return same


def _first_difference(old: bytes, new: bytes) -> tuple | None:
    """The first line of each output, as ``(old, new)``, at which the two
    differ beyond residuals (``None`` for a side that has ended), or ``None``
    when they agree.  Text and JSON lines alike are compared with the
    residual masked."""
    for a, b in zip_longest(old.splitlines(), new.splitlines()):
        if a is None or b is None or _RESIDUAL.sub(b"*", a) != _RESIDUAL.sub(b"*", b):
            return a, b
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(p) / "lieforge" / "__init__.py").is_file() for p in argv):
        print("usage: compare_outputs.py OLD_SRC NEW_SRC (each holding a lieforge package)",
              file=sys.stderr)
        return 2
    old_src, new_src = (Path(p).resolve() for p in argv)
    runs, moves, failing, differing = _invocations(), {}, [], 0
    for env, args in runs:
        old, new = _run(old_src, env, args), _run(new_src, env, args)
        label = " ".join([*(f"{k}={v}" for k, v in env.items()), *args])
        if (old.returncode, old.stderr, old.stdout) == (new.returncode, new.stderr, new.stdout):
            status = "identical"
        elif (
            old.returncode == new.returncode
            and old.stderr == new.stderr
            and _compare(old.stdout, new.stdout, "json" in args, moves, failing, label)
        ):
            status = "residuals moved"
        else:
            status = "DIFFERS"
            differing += 1
        print(f"{status:<16} exit {old.returncode}->{new.returncode}  {label}")
        for stream in ("stdout", "stderr") if status == "DIFFERS" else ():
            parted = _first_difference(getattr(old, stream), getattr(new, stream))
            if parted:
                for side, line in zip(("old", "new"), parted):
                    shown = "(ended)" if line is None else line.decode(errors="replace")
                    print(f"    {side} {stream}: {shown}")
                break
    for (identity, subject), move in sorted(moves.items(), key=lambda kv: -kv[1]):
        print(f"largest residual move  {identity} {subject}: {move:.3g}")
    for label, identity, subject, before, after in failing:
        print(f"failing report moved   {identity} {subject}: {before:.3g} -> {after:.3g}  ({label})")
    print(f"{len(runs)} runs, {differing} differing beyond residuals")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
