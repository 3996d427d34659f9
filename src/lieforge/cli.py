"""Command line driver.

Subcommands walk the construction end to end: ``verify`` runs the bracket
tables, ``transfer`` extracts the spacetime generators, ``invariants`` runs
the finite-transformation checks, ``sun`` compares su(2) with su(3), and
``exercises`` runs the worked-problem suite; ``all`` chains everything.  Exit
code 0 means every emitted report passed.

Output is deterministic for a fixed configuration (including the seed); the
JSON format emits one object per line, with bare report objects and
``type``-tagged payloads.  The environment variable ``LIEFORGE_TOL``
overrides the absolute tolerance; ``LIEFORGE_PERTURB`` injects a perturbation
into the verify suite (a negative-control hook used by the tests).  Bad input
(an out-of-range option or environment value, a requested transform that
overflows, an output path that cannot be written) ends with one
``lieforge: error: ...`` line on stderr and exit code 2, as argparse does for
its own errors; exit code 1 is reserved for a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .checks import (
    CheckReport,
    all_passed,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_poincare,
    check_su2_fundamental,
    gamma_match_report,
)
from .generators import (
    Branch,
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
from .checks import Identity, make_report
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
from .transfer import extract_coeffs, build_j4, build_k4, verify_transfer

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
        if not np.isfinite(self.alpha) or self.alpha == 0.0:
            raise InputError("alpha must be finite and nonzero")
        for name in ("theta", "phi", "x"):
            if not np.all(np.isfinite(getattr(self, name) or ())):
                raise InputError(f"--{name} must be finite")


@dataclass
class RunResult:
    """Titled report sections plus format-specific extra output."""

    sections: list[tuple[str, list[CheckReport]]] = field(default_factory=list)
    json_extra: list[dict] = field(default_factory=list)
    text_extra: list[str] = field(default_factory=list)

    def reports(self) -> list[CheckReport]:
        return [r for _, rs in self.sections for r in rs]

    def merge(self, other: "RunResult") -> None:
        self.sections.extend(other.sections)
        self.json_extra.extend(other.json_extra)
        self.text_extra.extend(other.text_extra)


def _env_float(name: str, env) -> float | None:
    raw = env.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"{name}={raw!r} is not a number") from None


def tolerance_from_env(env=os.environ) -> Tolerance:
    abs_eps = _env_float(TOL_ENV, env)
    if abs_eps is None:
        return Tolerance()
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


def run_verify(cfg: RunConfig, tol: Tolerance) -> RunResult:
    res = RunResult()
    j = j2()
    if cfg.perturb != 0.0:
        bumped = j[1].copy()
        bumped[0, 0] += cfg.perturb
        j = j.with_member(1, bumped)
    k = k2()
    fundamental = check_su2_fundamental(j, tol) + check_lorentz(j, k, tol)
    fundamental.append(check_2rep_vk_asymmetry(tol))
    res.sections.append(("fundamental relations", fundamental))

    alpha = cfg.alpha
    J22, K22 = rep22_jk()
    doubled = check_lorentz(J22, K22, tol)
    generic_v = rep22_v(VectorParams(alpha=alpha))
    doubled += check_poincare(J22, K22, generic_v, tol, alpha, subject="vector-generic")
    res.sections.append(("doubled-rep closure", doubled))

    momenta: list[CheckReport] = []
    p_plus = momentum(VectorParams(GAMMA_C_PLUS, 0.0, alpha), Branch.PLUS)
    p_minus = momentum(VectorParams(0.0, GAMMA_C_MINUS, alpha), Branch.MINUS)
    momenta += check_poincare(J22, K22, p_plus, tol, alpha, subject="momentum-plus")
    momenta += check_poincare(J22, K22, p_minus, tol, alpha, subject="momentum-minus")
    proj_plus, proj_minus = gamma5_projectors()
    projected_plus = GeneratorSet(
        REP22, Kind.MOMENTUM, tuple(proj_plus @ generic_v[mu] for mu in range(1, 5))
    )
    projected_minus = GeneratorSet(
        REP22, Kind.MOMENTUM, tuple(proj_minus @ generic_v[mu] for mu in range(1, 5))
    )
    momenta += check_poincare(J22, K22, projected_plus, tol, alpha, subject="projected-plus")
    momenta += check_poincare(J22, K22, projected_minus, tol, alpha, subject="projected-minus")
    res.sections.append(("momentum families", momenta))
    return res


def run_transfer(cfg: RunConfig, tol: Tolerance) -> RunResult:
    res = RunResult()
    res.sections.append(("generator transfer", verify_transfer(tol)))

    J22, K22 = rep22_jk()
    V = rep22_v(VectorParams(alpha=1.0))
    a = extract_coeffs(V, J22, tol)
    b = extract_coeffs(V, K22, tol)
    p = momentum(VectorParams(GAMMA_C_PLUS, 0.0, 1.0), Branch.PLUS)
    a_single = extract_coeffs(p, J22, tol)

    res.json_extra.append({"type": "coeff-tensor", "against": "rotations", **a.to_json()})
    res.json_extra.append({"type": "coeff-tensor", "against": "boosts", **b.to_json()})
    res.json_extra.append(
        {
            "type": "coeff-tensor",
            "against": "rotations (single-block momentum family)",
            "note": a_single.note,
            **a_single.to_json(),
        }
    )
    j4, k4 = build_j4(), build_k4()
    for name, gens in (("rotation generator", j4), ("boost generator", k4)):
        for i in range(1, 4):
            res.json_extra.append(
                {"type": "matrix", "name": f"{name} {i}", **matrix_to_json(gens[i])}
            )
            res.text_extra.append(f"{name} {i}:\n" + _fmt_matrix(gens[i]))
    if a_single.note:
        res.text_extra.append(f"momentum-family extraction: {a_single.note}")
    return res


def _single_transform(cfg: RunConfig, tol: Tolerance, res: RunResult) -> None:
    """Transform one user-supplied vector with explicit angles/rapidities."""
    params = RotBoostParams(theta=cfg.theta or (0.0, 0.0, 0.0), phi=cfg.phi or (0.0, 0.0, 0.0))
    x = np.asarray(cfg.x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        moved = apply(spacetime_d4(params, tol), x, tol)
    if not np.all(np.isfinite(moved)):
        rapidity = float(np.linalg.norm(params.phi))
        raise InputError(f"the requested transform of x overflows (rapidity |phi| = {rapidity:g})")
    before, after = interval_sq(x), interval_sq(moved)
    scale = max(1.0, float(np.dot(x, x)))
    res.sections.append(
        (
            "requested transform",
            [
                make_report(
                    Identity.INTERVAL_INVARIANCE,
                    abs(after - before) / scale,
                    tol.exp_eps,
                    subject="single-input",
                    note=f"theta={list(params.theta)}, phi={list(params.phi)}",
                )
            ],
        )
    )
    res.json_extra.append(
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
    res.text_extra.append(
        "requested transform detail\n"
        f"    x        = {x.tolist()}\n"
        f"    x'       = {moved.tolist()}\n"
        f"    interval = {before:.12g} -> {after:.12g}"
    )


def run_invariants(cfg: RunConfig, tol: Tolerance) -> RunResult:
    res = RunResult()
    if cfg.x is not None or cfg.theta is not None or cfg.phi is not None:
        if cfg.x is None:
            raise ValueError("--theta/--phi need --x to act on")
        _single_transform(cfg, tol, res)
    small = max(1, cfg.trials // 10)
    reports = [
        rotation_invariance_check(cfg.trials, tol, cfg.seed),
        boost_invariance_check(cfg.trials, tol, cfg.seed),
        det_interval_check(cfg.trials, tol, cfg.seed),
        affine_composition_check(small, tol, cfg.seed),
        translation_check(small, tol, cfg.seed),
    ]
    J22, K22 = rep22_jk()
    draws = min(100, cfg.trials)
    reports.append(intertwine_sweep(J22, K22, gamma(), draws, tol, cfg.seed))
    j5, k5, p5 = affine_generators()
    reports.append(intertwine_sweep(j5, k5, p5, draws, tol, cfg.seed))
    reports += check_poincare(j5, k5, p5, tol, alpha=1.0, subject="5-affine")
    res.sections.append(("spacetime invariants", reports))
    return res


def run_sun(cfg: RunConfig, tol: Tolerance) -> RunResult:
    res = RunResult()
    st2 = extract_structure(list(j2().members), tol)
    st3 = extract_structure([l / 2 for l in gell_mann()], tol)
    reports = structure_reports(st2, tol) + structure_reports(st3, tol)
    res.sections.append(("group comparison", reports))

    def tensor_summary(st):
        f_nonzero = int(np.count_nonzero(np.abs(st.f) > tol.abs_eps))
        d_nonzero = int(np.count_nonzero(np.abs(st.d) > tol.abs_eps))
        return f_nonzero, d_nonzero

    f2, d2 = tensor_summary(st2)
    f3, d3 = tensor_summary(st3)
    res.text_extra.append(
        "structure-tensor comparison\n"
        f"    su(2): f nonzeros {f2:3d}   d nonzeros {d2:3d}   delta_coeff {st2.delta_coeff:.12g}   max|d| {np.abs(st2.d).max():.12g}\n"
        f"    su(3): f nonzeros {f3:3d}   d nonzeros {d3:3d}   delta_coeff {st3.delta_coeff:.12g}   max|d| {np.abs(st3.d).max():.12g}"
    )
    res.json_extra.append({"type": "structure-tensors", "group": "su2", **st2.to_json()})
    res.json_extra.append({"type": "structure-tensors", "group": "su3", **st3.to_json()})
    res.json_extra.append(
        {"type": "obstruction", "group": "su2", **boost_obstruction_report(st2, tol).to_json()}
    )
    res.json_extra.append(
        {"type": "obstruction", "group": "su3", **boost_obstruction_report(st3, tol).to_json()}
    )
    return res


def run_exercises(cfg: RunConfig, tol: Tolerance) -> RunResult:
    res = RunResult()
    reports: list[CheckReport] = []
    reports.append(det_interval_check(cfg.trials, tol, cfg.seed))
    reports += check_su2_fundamental(j2(), tol)
    reports.append(gamma_match_report(tol))

    J22, K22 = rep22_jk()
    generic_v = rep22_v()
    proj_plus, proj_minus = gamma5_projectors()
    for name, proj in (("projected-plus", proj_plus), ("projected-minus", proj_minus)):
        projected = GeneratorSet(
            REP22, Kind.MOMENTUM, tuple(proj @ generic_v[mu] for mu in range(1, 5))
        )
        reports += check_poincare(J22, K22, projected, tol, alpha=1.0, subject=name)

    j5, k5, p5 = affine_generators()
    reports += check_poincare(j5, k5, p5, tol, alpha=1.0, subject="5-affine")
    reports.append(translation_check(max(1, cfg.trials // 10), tol, cfg.seed))

    draws = min(100, cfg.trials)
    reports.append(intertwine_sweep(J22, K22, gamma(), draws, tol, cfg.seed))
    reports.append(intertwine_sweep(j5, k5, p5, draws, tol, cfg.seed))
    res.sections.append(("worked problems", reports))

    st2 = extract_structure(list(j2().members), tol)
    st3 = extract_structure([l / 2 for l in gell_mann()], tol)
    res.sections.append(
        ("group comparison", structure_reports(st2, tol) + structure_reports(st3, tol))
    )
    return res


_RUNNERS = {
    "verify": (run_verify,),
    "transfer": (run_transfer,),
    "invariants": (run_invariants,),
    "sun": (run_sun,),
    "exercises": (run_exercises,),
    "all": (run_verify, run_transfer, run_invariants, run_sun, run_exercises),
}


def _render_text(cfg: RunConfig, tol: Tolerance, result: RunResult) -> str:
    lines = [
        f"lieforge {cfg.command}  seed={cfg.seed} trials={cfg.trials} alpha={cfg.alpha:g} "
        f"abs_eps={tol.abs_eps:g} exp_eps={tol.exp_eps:g}"
    ]
    for title, reports in result.sections:
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
    for block in result.text_extra:
        lines.append("")
        lines.append(block)
    reports = result.reports()
    failed = sum(1 for r in reports if not r.passed)
    lines.append("")
    lines.append(f"summary: {len(reports)} checks, {len(reports) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_json(cfg: RunConfig, tol: Tolerance, result: RunResult) -> str:
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
    objs.extend(r.to_json() for r in result.reports())
    objs.extend(result.json_extra)
    return "\n".join(json.dumps(o, separators=(",", ":")) for o in objs) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieforge",
        description="Build spacetime rotation, boost and translation generators "
        "from su(2) bracket relations and verify every closure numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "bracket tables: fundamental, doubled, momentum families"),
        ("transfer", "extract the spacetime generators and check the transfer"),
        ("invariants", "finite rotations, boosts, translations and their invariants"),
        ("sun", "su(2) vs su(3) structure constants and the boost obstruction"),
        ("exercises", "worked-problem suite"),
        ("all", "every suite in construction order"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
        p.add_argument("--trials", type=int, default=1000, help="random trials (default 1000)")
        p.add_argument("--alpha", type=float, default=1.0, help="space-to-time ratio (default 1)")
        p.add_argument(
            "--format", dest="fmt", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if name in ("invariants", "all"):
            p.add_argument(
                "--theta",
                type=float,
                nargs=3,
                default=None,
                metavar=("T1", "T2", "T3"),
                help="rotation angles for a single requested transform",
            )
            p.add_argument(
                "--phi",
                type=float,
                nargs=3,
                default=None,
                metavar=("P1", "P2", "P3"),
                help="boost rapidities for a single requested transform",
            )
            p.add_argument(
                "--x",
                type=float,
                nargs=4,
                default=None,
                metavar=("X1", "X2", "X3", "X4"),
                help="four-vector to transform (index 4 is time)",
            )
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
        tol = tolerance_from_env()
        result = RunResult()
        for runner in _RUNNERS[cfg.command]:
            result.merge(runner(cfg, tol))
        rendered = (
            _render_json(cfg, tol, result) if cfg.fmt == "json" else _render_text(cfg, tol, result)
        )
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (InputError, OSError) as exc:
        print(f"lieforge: error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_passed(result.reports()) else 1


if __name__ == "__main__":
    sys.exit(main())
