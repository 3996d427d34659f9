"""Command line driver.

Subcommands walk the construction end to end: ``verify`` runs the bracket
tables, ``transfer`` extracts the spacetime generators, ``invariants`` runs
the finite-transformation checks, ``sun`` compares su(2) with su(3), and
``exercises`` runs the worked-problem suite; ``all`` chains everything.  Exit
code 0 means every emitted report passed.

Each command appends titled sections to one per-run object, whose table
computes each generator set, check, seeded sweep, coefficient tensor and
structure extraction once, however many sections print it.

Output is deterministic for a fixed configuration (including the seed); the
JSON format emits one object per line, with bare report objects and
``type``-tagged payloads.  The environment variable ``LIEFORGE_TOL``
overrides the absolute tolerance, within [1e-15, 1); ``LIEFORGE_PERTURB``
injects a perturbation of size at most 1 into the su(2) trio of verify's
fundamental relations (a negative-control hook used by the tests).  Bad
input (an out-of-range option or environment value, a requested transform
that overflows, an output path that cannot be written) ends with one
``lieforge: error: ...`` line on stderr and exit code 2, as argparse does for
its own errors; exit code 1 is reserved for a failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .checks import (
    CheckReport,
    Identity,
    all_passed,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_su2_fundamental,
    gamma_match_report,
    vector_relation_reports,
)
from .generators import (
    GAMMA_C_MINUS,
    GAMMA_C_PLUS,
    GeneratorSet,
    Kind,
    REP22,
    VectorParams,
    gamma,
    gamma5_projectors,
    j2,
    k2,
    momentum,
    rep22_jk,
    rep22_v,
)
from .linalg import Tolerance, matrix_to_json
from .spacetime import (
    RotBoostParams,
    affine_composition_check,
    affine_generators,
    apply,
    boost_invariance_check,
    det_interval_check,
    intertwine_sweep,
    interval_sq,
    rotation_invariance_check,
    translation_check,
)
from .spacetime import d4 as spacetime_d4
from .su_n import boost_obstruction_report, extract_structure, gell_mann, structure_reports
from .transfer import build_j4, build_k4, extract_coeffs, transfer_reports

__all__ = ["InputError", "RunConfig", "main"]

TOL_ENV = "LIEFORGE_TOL"
PERTURB_ENV = "LIEFORGE_PERTURB"


class InputError(ValueError):
    """A command-line or environment input is outside what lieforge accepts."""


@dataclass
class RunConfig:
    command: str
    seed: int = 1
    trials: int = 1000
    alpha: float = 1.0
    fmt: str = "text"
    out: str | None = None
    perturb: float = 0.0
    theta: tuple[float, float, float] | None = None
    phi: tuple[float, float, float] | None = None
    x: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        # Below |alpha| ~ 5.6e-309, 1/alpha overflows; at 1e308 the time member
        # 1/(2 alpha) is subnormal and vector-boost fails on rounding, not algebra.
        if not 1e-300 <= abs(self.alpha) <= 1e300:
            raise InputError(f"|alpha| must lie in [1e-300, 1e300], got {self.alpha:g}")
        # A perturbation is small next to the trio's entries of size 1/2; from
        # |perturb| ~ 1e100 the residual norms overflow.
        if not abs(self.perturb) <= 1.0:
            raise InputError(f"|{PERTURB_ENV}| must be at most 1, got {self.perturb:g}")
        for name in ("theta", "phi", "x"):
            if not np.all(np.isfinite(getattr(self, name) or ())):
                raise InputError(f"--{name} must be finite")
        if self.x is None and (self.theta is not None or self.phi is not None):
            raise InputError("--theta/--phi need --x to act on")


def _env_float(name: str, env) -> float | None:
    raw = env.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{name}={raw!r} is not a number") from None
    if not np.isfinite(value):
        raise InputError(f"{name}={raw!r} is not finite")
    return value


# Below this, exact identities fail on rounding alone: transfer's least-squares
# residuals reach 4.4e-16.
MIN_TOL = 1e-15


def tolerance_from_env(env=os.environ) -> Tolerance:
    abs_eps = _env_float(TOL_ENV, env)
    if abs_eps is None:
        return Tolerance()
    if abs_eps < MIN_TOL:
        raise InputError(f"{TOL_ENV}={abs_eps:g} is below {MIN_TOL:g}, the rounding floor")
    try:
        return Tolerance(abs_eps=abs_eps, exp_eps=max(Tolerance().exp_eps, abs_eps))
    except ValueError as exc:
        raise InputError(f"{TOL_ENV}: {exc}") from None


def _fmt_complex(z: complex, eps: float = 1e-12) -> str:
    re = 0.0 if abs(z.real) < eps else z.real
    im = 0.0 if abs(z.imag) < eps else z.imag
    if im == 0.0:
        return f"{re:g}"
    if im == 1.0:
        imag = "i"
    elif im == -1.0:
        imag = "-i"
    else:
        imag = f"{im:g}i"
    if re == 0.0:
        return imag
    return f"{re:g}{imag if imag.startswith('-') else '+' + imag}"


def _fmt_matrix(m: np.ndarray, indent: str = "    ") -> str:
    cells = [[_fmt_complex(complex(z)) for z in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(
        indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
    )


class _Run:
    """One run of a command: its settings, its output sections and extras,
    and a table of everything it computes.

    ``run(fn, *args)`` is ``fn(*args)``, computed at most once per run, on
    first use, and keyed on ``(fn, *args)``: numbers, strings, tolerances and
    parameter records compare by value, generator sets, structure tensors and
    coefficient tensors by identity (the key holds them, so an identity is
    never reused).  So the table's keys name each result's premises.
    Entries are shared: concatenate report lists, never extend one in place.
    The intertwining sweeps, which several sections print, are the property
    ``intertwining``, computed on first use.
    """

    def __init__(self, cfg: RunConfig, tol: Tolerance):
        self.cfg, self.tol = cfg, tol
        self.sections: list[tuple[str, list[CheckReport]]] = []
        self.json_extra: list[dict] = []
        self.text_extra: list[str] = []
        self._entries: dict = {}

    def __call__(self, fn, *args):
        key = (fn, *args)
        if key not in self._entries:
            self._entries[key] = fn(*args)
        return self._entries[key]

    def reports(self) -> list[CheckReport]:
        return [r for _, rs in self.sections for r in rs]

    def poincare(self, J, K, alpha, families) -> list[CheckReport]:
        """``check_poincare`` of each ``(subject, V)`` in ``families``: the
        one Lorentz table of ``J`` and ``K``, listed once, then each
        family's vector reports."""
        parts = (self(vector_relation_reports, J, K, V, self.tol, alpha, s) for s, V in families)
        return self(check_lorentz, J, K, self.tol) + [r for part in parts for r in part]

    # A property, not a table entry: an entry keyed on the run itself would
    # make the run reference itself and outlive main() until a garbage
    # collection.
    @functools.cached_property
    def intertwining(self) -> list[CheckReport]:
        """The intertwining sweeps of the 2+2 rep with gamma and of the
        5-affine rep, on one seeded draw, behind closure prechecks from the
        table."""
        cfg, tol = self.cfg, self.tol
        J22, K22 = self(rep22_jk)
        j5, k5, p5 = self(affine_generators)
        g = self(gamma)
        pre22 = self.poincare(J22, K22, 1.0, [("2+2-rep", g)])
        pre5 = self.poincare(j5, k5, 1.0, [("5-affine", p5)])
        families = [(J22, K22, g), (j5, k5, p5)]
        return intertwine_sweep(families, pre22 + pre5, min(100, cfg.trials), tol, cfg.seed)


def _projected(V: GeneratorSet) -> list[tuple[str, GeneratorSet]]:
    """The chiral projections of the doubled vector family ``V``."""
    return [
        (name, GeneratorSet(REP22, Kind.MOMENTUM, tuple(proj @ V[mu] for mu in range(1, 5))))
        for name, proj in zip(("projected-plus", "projected-minus"), gamma5_projectors())
    ]


def _structures(J: GeneratorSet) -> tuple:
    """Structure tensors of su(2), from the trio ``J``, and of su(3), both
    from bases with tr(T_a T_b) = delta_ab / 2."""
    return extract_structure(J.members), extract_structure([l / 2 for l in gell_mann()])


def _verify(run: _Run) -> None:
    cfg, tol = run.cfg, run.tol
    j = run(j2)
    if cfg.perturb != 0.0:
        bumped = j[1].copy()
        bumped[0, 0] += cfg.perturb
        j = j.with_member(1, bumped)
    fundamental = run(check_su2_fundamental, j, tol) + run(check_lorentz, j, run(k2), tol)
    fundamental.append(run(check_2rep_vk_asymmetry, tol))
    run.sections.append(("fundamental relations", fundamental))

    alpha = cfg.alpha
    J22, K22 = run(rep22_jk)
    generic_v = run(rep22_v, VectorParams(alpha=alpha))
    doubled = run.poincare(J22, K22, alpha, [("vector-generic", generic_v)])
    run.sections.append(("doubled-rep closure", doubled))

    families = [
        ("momentum-plus", run(momentum, VectorParams(GAMMA_C_PLUS, 0.0, alpha))),
        ("momentum-minus", run(momentum, VectorParams(0.0, GAMMA_C_MINUS, alpha))),
        *run(_projected, generic_v),
    ]
    run.sections.append(("momentum families", run.poincare(J22, K22, alpha, families)))


def _transfer(run: _Run) -> None:
    tol = run.tol
    J22, K22 = run(rep22_jk)
    V = run(rep22_v, VectorParams(alpha=1.0))
    a = run(extract_coeffs, V, J22, tol)
    b = run(extract_coeffs, V, K22, tol)
    p = run(momentum, VectorParams(GAMMA_C_PLUS, 0.0, 1.0))
    a_single = run(extract_coeffs, p, J22, tol)
    run.sections.append(("generator transfer", run(transfer_reports, a, b, tol)))

    for against, tensor, note in (
        ("rotations", a, {}),
        ("boosts", b, {}),
        ("rotations (single-block momentum family)", a_single, {"note": a_single.note}),
    ):
        run.json_extra.append(
            {"type": "coeff-tensor", "against": against, **note, **tensor.to_json()}
        )
    j4, k4 = run(build_j4), run(build_k4)
    for name, gens in (("rotation generator", j4), ("boost generator", k4)):
        for i in range(1, 4):
            run.json_extra.append(
                {"type": "matrix", "name": f"{name} {i}", **matrix_to_json(gens[i])}
            )
            run.text_extra.append(f"{name} {i}:\n" + _fmt_matrix(gens[i]))
    if a_single.note:
        run.text_extra.append(f"momentum-family extraction: {a_single.note}")


def _single_transform(run: _Run) -> None:
    """Transform one user-supplied vector with explicit angles/rapidities."""
    cfg, tol = run.cfg, run.tol
    params = RotBoostParams(theta=cfg.theta or (0.0, 0.0, 0.0), phi=cfg.phi or (0.0, 0.0, 0.0))
    x = np.asarray(cfg.x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        D = spacetime_d4(params)
        moved = apply(D, x, tol) if np.all(np.isfinite(D)) else None
        x_sq = float(np.dot(x, x))
        if moved is not None and np.all(np.isfinite(moved)):
            before, after = interval_sq(x), interval_sq(moved)
            scale = max(1.0, x_sq)
        else:
            before = after = scale = np.inf
    if not np.all(np.isfinite((before, after, scale))):
        norms = {"theta": params.theta, "phi": params.phi}
        if math.isinf(x_sq):  # x overflows whatever the transform
            norms["x"] = x
        named = ", ".join(f"|{k}| = {math.hypot(*v):g}" for k, v in norms.items())
        raise InputError(f"the requested transform of x overflows ({named})")
    report = CheckReport(
        Identity.INTERVAL_INVARIANCE,
        abs(after - before) / scale,
        tol.exp_eps,
        subject="single-input",
        note=f"theta={list(params.theta)}, phi={list(params.phi)}",
    )
    run.sections.append(("requested transform", [report]))
    run.json_extra.append(
        {
            "type": "transform",
            "theta": list(params.theta),
            "phi": list(params.phi),
            "x": x.tolist(),
            "x_out": moved.tolist(),
            "interval_in": before,
            "interval_out": after,
        }
    )
    run.text_extra.append(
        "requested transform detail\n"
        f"    x        = {x.tolist()}\n"
        f"    x'       = {moved.tolist()}\n"
        f"    interval = {before:.12g} -> {after:.12g}"
    )


def _invariants(run: _Run) -> None:
    cfg, tol = run.cfg, run.tol
    if cfg.x is not None:
        _single_transform(run)
    small = max(1, cfg.trials // 10)
    j5, k5, p5 = run(affine_generators)
    reports = [
        run(rotation_invariance_check, cfg.trials, tol, cfg.seed),
        run(boost_invariance_check, cfg.trials, tol, cfg.seed),
        run(det_interval_check, cfg.trials, tol, cfg.seed),
        run(affine_composition_check, small, tol, cfg.seed),
        run(translation_check, small, tol, cfg.seed),
        *run.intertwining,
    ]
    reports += run.poincare(j5, k5, 1.0, [("5-affine", p5)])
    run.sections.append(("spacetime invariants", reports))


def _group_comparison(run: _Run) -> tuple:
    """Append the su(2) and su(3) structure reports; return both tensors."""
    structures = run(_structures, run(j2))
    run.sections.append(
        ("group comparison", [r for st in structures for r in run(structure_reports, st, run.tol)])
    )
    return structures


def _sun(run: _Run) -> None:
    tol = run.tol
    groups = list(zip(("2", "3"), _group_comparison(run)))
    summary = ["structure-tensor comparison"]
    for n, st in groups:
        f_nz, d_nz = (int(np.count_nonzero(np.abs(c) > tol.abs_eps)) for c in (st.f, st.d))
        summary.append(
            f"    su({n}): f nonzeros {f_nz:3d}   d nonzeros {d_nz:3d}   "
            f"delta_coeff {st.delta_coeff:.12g}   max|d| {np.abs(st.d).max():.12g}"
        )
    run.text_extra.append("\n".join(summary))
    for n, st in groups:
        run.json_extra.append({"type": "structure-tensors", "group": f"su{n}", **st.to_json()})
    for n, st in groups:
        obstruction = run(boost_obstruction_report, st, tol).to_json()
        run.json_extra.append({"type": "obstruction", "group": f"su{n}", **obstruction})


def _exercises(run: _Run) -> None:
    cfg, tol = run.cfg, run.tol
    J22, K22 = run(rep22_jk)
    j5, k5, p5 = run(affine_generators)
    projected = run(_projected, run(rep22_v, VectorParams(alpha=1.0)))
    reports = [run(det_interval_check, cfg.trials, tol, cfg.seed)]
    reports += run(check_su2_fundamental, run(j2), tol)
    reports.append(run(gamma_match_report, tol))
    reports += run.poincare(J22, K22, 1.0, projected)
    reports += run.poincare(j5, k5, 1.0, [("5-affine", p5)])
    reports.append(run(translation_check, max(1, cfg.trials // 10), tol, cfg.seed))
    reports += run.intertwining
    run.sections.append(("worked problems", reports))
    _group_comparison(run)


# In the order ``all`` runs them.
_COMMANDS = {
    "verify": _verify,
    "transfer": _transfer,
    "invariants": _invariants,
    "sun": _sun,
    "exercises": _exercises,
}


def _render_text(run: _Run) -> str:
    cfg, tol = run.cfg, run.tol
    lines = [
        f"lieforge {cfg.command}  seed={cfg.seed} trials={cfg.trials} alpha={cfg.alpha:g} "
        f"abs_eps={tol.abs_eps:g} exp_eps={tol.exp_eps:g}"
    ]
    for title, reports in run.sections:
        lines.append("")
        lines.append(f"== {title} ==")
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"  {r.identity.value:<26} {r.subject:<18} residual {r.max_residual:10.3e}"
                f"  tol {r.tolerance:8.1e}  {status}"
            )
            if not r.passed and r.witness is not None:
                lines.append(f"      witness: {r.witness['description']}")
    for block in run.text_extra:
        lines.append("")
        lines.append(block)
    reports = run.reports()
    failed = sum(1 for r in reports if not r.passed)
    lines.append("")
    lines.append(f"summary: {len(reports)} checks, {len(reports) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_json(run: _Run) -> str:
    cfg, tol = run.cfg, run.tol
    objs: list[dict] = [
        {
            "type": "config",
            "command": cfg.command,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "alpha": cfg.alpha,
            "abs_eps": tol.abs_eps,
            "exp_eps": tol.exp_eps,
        }
    ]
    objs.extend(r.to_json() for r in run.reports())
    objs.extend(run.json_extra)
    return "\n".join(json.dumps(o, separators=(",", ":")) for o in objs) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls:
    it holds no per-run state."""
    parser = argparse.ArgumentParser(
        prog="lieforge",
        description="Build spacetime rotation, boost and translation generators "
        "from su(2) bracket relations and verify every closure numerically.",
    )
    # Options shared by subcommands, declared once and copied in by ``parents=``.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    common.add_argument("--trials", type=int, default=1000, help="random trials (default 1000)")
    alpha_help = "space-to-time ratio, 1e-300 <= |alpha| <= 1e300 (default 1)"
    common.add_argument("--alpha", type=float, default=1.0, help=alpha_help)
    common.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    transform = argparse.ArgumentParser(add_help=False)
    for flag, metavar, about in (
        ("--theta", ("T1", "T2", "T3"), "rotation angles for a single requested transform"),
        ("--phi", ("P1", "P2", "P3"), "boost rapidities for a single requested transform"),
        ("--x", ("X1", "X2", "X3", "X4"), "four-vector to transform (index 4 is time)"),
    ):
        transform.add_argument(flag, type=float, nargs=len(metavar), metavar=metavar, help=about)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "bracket tables: fundamental, doubled, momentum families"),
        ("transfer", "extract the spacetime generators and check the transfer"),
        ("invariants", "finite rotations, boosts, translations and their invariants"),
        ("sun", "su(2) vs su(3) structure constants and the boost obstruction"),
        ("exercises", "worked-problem suite"),
        ("all", "every suite in construction order"),
    ):
        parents = [common, transform] if name in ("invariants", "all") else [common]
        sub.add_parser(name, help=help_text, parents=parents)
    # argparse (3.11) takes -1e-3 for an option; any "-digit" or "-.digit" is a value.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            seed=args.seed,
            trials=args.trials,
            alpha=args.alpha,
            fmt=args.fmt,
            out=args.out,
            perturb=_env_float(PERTURB_ENV, os.environ) or 0.0,
            theta=tuple(args.theta) if getattr(args, "theta", None) else None,
            phi=tuple(args.phi) if getattr(args, "phi", None) else None,
            x=tuple(args.x) if getattr(args, "x", None) else None,
        )
        run = _Run(cfg, tolerance_from_env())
        for command in _COMMANDS if cfg.command == "all" else (cfg.command,):
            _COMMANDS[command](run)
        rendered = (_render_json if cfg.fmt == "json" else _render_text)(run)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (InputError, OSError) as exc:
        print(f"lieforge: error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_passed(run.reports()) else 1


if __name__ == "__main__":
    sys.exit(main())
