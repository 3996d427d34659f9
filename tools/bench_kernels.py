"""Time lieforge's kernels and print one JSON line.

    python tools/bench_kernels.py [SRC]

SRC is a directory holding a ``lieforge`` package (a checkout's ``src``;
default: the ``src`` beside this directory), so one copy of this script
times any version of the package whose ``_d4_stack`` takes no tolerance and
whose ``intertwine_sweep`` takes a list of families.
Cases: ``extract_structure`` on the generalized Gell-Mann basis
T = lambda / 2 at N = 2..9 and 12, ``adjoint_from_f`` on its structure
tensors at N = 4 and 6, the seeded sweeps ``boost_invariance_check`` and
``rotation_invariance_check`` at 1000 trials, one ``mat_exp`` of a real
``(256, 4, 4)`` stack: the rotation exponents theta.(i J4) of 256 seeded
angle triples, one sweep block; one ``mat_exp`` of a complex ``(400, 4, 4)``
stack: the exponents +-theta.(i J) and +-phi.(i K) of the 2+2 rep at 100
seeded draws, as the 2+2 intertwining sweep stacks them (random directions,
norms uniform below pi and 2); ``_d4_stack``, the stacked 4-vector
transform, at 256 seeded trials, and the rotation-only transform of the
rotation sweep at the same 256 angle triples (``_rotation_stack``, or
``mat_exp`` of theta.(i J4) in versions without it); ``bracket_table`` on
the su(6) adjoint closure table (35 real 35 x 35 matrices with f as
coefficients), the su(6)
fundamental f and d tables (the two residual tables of
``extract_structure``) and the 2+2 Lorentz jk table
[J_i, K_j] = i eps_ijk K_k (two different stacks); ``extract_coeffs`` of
the 2+2 vector family and of the single-block momentum family against the
2+2 rotation generators; ``intertwine_sweep`` of the 2+2 rep with gamma and
the 5-affine rep together at 100 draws, behind their precomputed closure
reports; and the uncached ``cli.build_parser`` (``__wrapped__`` where the
parser is cached).  Each case runs once untimed, then REPEATS times; the
line gives the median and quartiles of the raw wall
times in seconds, with the Python, numpy and BLAS versions and a hash of the
package sources.
The thread variables are set to ``perfbench/run.py``'s ``THREAD_ENV`` (BLAS
on one thread) before numpy is imported, so both tools run under the same
threading.  Not part of the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_perfbench)
THREAD_ENV = _perfbench.THREAD_ENV
EXTRACT_N = (*range(2, 10), 12)
ADJOINT_N = (4, 6)
REPEATS = 5


def _timed(fn, arg) -> dict:
    fn(arg)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": REPEATS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if not (args.src / "lieforge").is_dir():
        parser.error(f"{args.src} holds no lieforge package")
    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(args.src))
    import numpy as np

    from lieforge.checks import EPS3, bracket_table, check_poincare
    from lieforge.cli import build_parser
    from lieforge.generators import (
        GAMMA_C_PLUS,
        VectorParams,
        gamma,
        momentum,
        rep22_jk,
        rep22_v,
    )
    from lieforge.linalg import mat_exp
    from lieforge import spacetime
    from lieforge.spacetime import (
        _d4_stack,
        affine_generators,
        boost_invariance_check,
        intertwine_sweep,
        rotation_invariance_check,
    )
    from lieforge.su_n import adjoint_from_f, extract_structure, generalized_gell_mann
    from lieforge.transfer import build_j4, extract_coeffs

    bases = {n: [g / 2 for g in generalized_gell_mann(n)] for n in EXTRACT_N}
    cases = [
        {"case": f"extract_structure n={n}", **_timed(extract_structure, bases[n])}
        for n in EXTRACT_N
    ]
    cases += [
        {"case": f"adjoint_from_f n={n}", **_timed(adjoint_from_f, extract_structure(bases[n]))}
        for n in ADJOINT_N
    ]
    cases += [
        {"case": f"{check.__name__}(1000)", **_timed(check, 1000)}
        for check in (boost_invariance_check, rotation_invariance_check)
    ]
    theta = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(256, 3))
    rotations = np.einsum("ti,iab->tab", theta, (1j * build_j4().stack).real)
    cases.append({"case": "mat_exp real (256, 4, 4)", **_timed(mat_exp, rotations)})
    rng = np.random.default_rng(1)

    def angles(max_norms, size):
        """``size`` 3-vectors per max norm m, as a sweep draws them: random
        directions, norms uniform in [0, m)."""
        v = rng.normal(size=(len(max_norms), size, 3))
        norms = np.array(max_norms)[:, None] * rng.random((len(max_norms), size))
        return v * (norms / np.linalg.norm(v, axis=-1))[..., None]

    J22, K22 = rep22_jk()
    rot, boost = (
        np.einsum("ti,iab->tab", v, 1j * G.stack)
        for v, G in zip(angles((np.pi, 2.0), 100), (J22, K22))
    )
    exponents = np.concatenate([rot, boost, -rot, -boost])
    cases.append({"case": "mat_exp complex (400, 4, 4)", **_timed(mat_exp, exponents)})
    transforms = angles((np.pi, 3.0), 256)
    cases.append(
        {"case": "_d4_stack (256 trials)", **_timed(lambda a: _d4_stack(*a), transforms)}
    )
    rotation = getattr(spacetime, "_rotation_stack", None) or (
        lambda th: mat_exp(np.einsum("ti,iab->tab", th, (1j * spacetime._J4.stack).real))
    )
    cases.append({"case": "rotation-only Lambda (256 trials)", **_timed(rotation, transforms[0])})
    st = extract_structure(bases[6])
    S = np.stack(bases[6])
    F = np.ascontiguousarray(st.f.transpose(1, 0, 2))
    d_coeffs = np.concatenate([st.d, st.delta_coeff * np.eye(len(S))[:, :, None]], axis=2)
    with_one = np.concatenate([S, np.eye(6, dtype=complex)[None]])
    tables = {
        "su(6) adjoint": (F, F, st.f, F, False),
        "su(6) f": (S, S, st.f, 1j * S, False),
        "su(6) d": (S, S, d_coeffs, with_one, True),
        "2+2 Lorentz jk": (J22.stack, K22.stack, 1j * EPS3, K22.stack, False),
    }
    cases += [
        {"case": f"bracket_table {name}", **_timed(lambda a: bracket_table(*a[:4], anti=a[4]), args)}
        for name, args in tables.items()
    ]
    families = {
        "vector": rep22_v(),
        "single-block momentum": momentum(VectorParams(GAMMA_C_PLUS, 0.0, 1.0)),
    }
    cases += [
        {"case": f"extract_coeffs {name} vs J22", **_timed(lambda V: extract_coeffs(V, J22), V)}
        for name, V in families.items()
    ]
    sweep_families = [(J22, K22, gamma()), affine_generators()]
    prechecks = [r for family in sweep_families for r in check_poincare(*family)]
    cases.append(
        {
            "case": "intertwine_sweep 2+2 and 5-affine (100 draws)",
            **_timed(lambda draws: intertwine_sweep(sweep_families, prechecks, draws), 100),
        }
    )
    uncached = getattr(build_parser, "__wrapped__", build_parser)
    cases.append({"case": "build_parser", **_timed(lambda _: uncached(), None)})
    digest = hashlib.sha256()
    for path in sorted((args.src / "lieforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
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
        "source_sha256": digest.hexdigest(),
    }
    print(json.dumps({"cases": cases, "provenance": provenance}, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
