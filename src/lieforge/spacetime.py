"""Finite transformations and their invariants.

Four-vectors are plain length-4 float arrays; component mu lives at array
index mu - 1 and index 4 (the last slot) is time.  The metric convention is
(+, +, +, -): the squared interval is x1^2 + x2^2 + x3^2 - x4^2.

Transformations are built in complex arithmetic (the generators are imaginary
valued) and checked to be real before use; a failed purity check signals a
convention bug, typically a stray factor of i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import (
    CheckReport,
    Identity,
    all_passed,
    check_lorentz,
    make_report,
    residual_report,
    vector_relation_reports,
)
from .generators import (
    REP5_AFFINE,
    GeneratorSet,
    Kind,
    pauli,
)
from .linalg import DEFAULT_TOL, Tolerance, det, frobenius_norms, mat_exp
from .transfer import build_j4, build_k4

__all__ = [
    "PurityError",
    "PrecondError",
    "RotBoostParams",
    "AffineTransform",
    "d4",
    "apply",
    "interval_sq",
    "interval_sq_via_det",
    "affine_apply",
    "affine_compose",
    "affine_generators",
    "intertwine_check",
    "intertwine_sweep",
    "rotation_invariance_check",
    "boost_invariance_check",
    "det_interval_check",
    "affine_composition_check",
    "translation_check",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1


class PurityError(ValueError):
    """A transform or transformed vector has a non-negligible imaginary part."""


class PrecondError(ValueError):
    """Inputs fail the algebraic prechecks of a finite-transformation test."""


@dataclass(frozen=True)
class RotBoostParams:
    """Three rotation angles followed by three boost rapidities."""

    theta: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phi: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        th = tuple(float(v) for v in self.theta)
        ph = tuple(float(v) for v in self.phi)
        if len(th) != 3 or len(ph) != 3:
            raise ValueError("theta and phi must each have 3 components")
        if not all(np.isfinite(th)) or not all(np.isfinite(ph)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)


def _four_vector(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected 4 real components, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("four-vector must be finite")
    return a


@dataclass(frozen=True)
class AffineTransform:
    """A linear 4x4 part plus a displacement, applied as x -> linear @ x + shift."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        lin = np.array(self.linear, dtype=complex)
        if lin.shape != (4, 4):
            raise ValueError("linear part must be 4x4")
        if abs(det(lin)) < 1e-12:
            raise ValueError("linear part must be invertible")
        lin.flags.writeable = False
        sh = _four_vector(self.shift)
        sh.flags.writeable = False
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "shift", sh)

    def as_matrix5(self) -> np.ndarray:
        """The append-one device: [[linear, shift], [0, 1]]."""
        m = np.zeros((5, 5), dtype=complex)
        m[:4, :4] = self.linear
        m[:4, 4] = self.shift
        m[4, 4] = 1.0
        return m


def _generator_sum(coeffs, gens: GeneratorSet) -> np.ndarray:
    return sum(float(c) * gens[i + 1] for i, c in enumerate(coeffs))


# The closed-form generators are fixed data; build them once so transforming
# thousands of trial vectors stays cheap.
_J4 = build_j4()
_K4 = build_k4()


def d4(params: RotBoostParams, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Finite 4-vector transformation: rotation first, then boost,
    exp(i phi.K) exp(i theta.J) with the closed-form spacetime generators."""
    rot = mat_exp(1j * _generator_sum(params.theta, _J4), tol)
    boost = mat_exp(1j * _generator_sum(params.phi, _K4), tol)
    out = boost @ rot
    residue = float(np.abs(out.imag).max())
    if residue > tol.exp_eps * max(1.0, float(np.abs(out).max())):
        raise PurityError(f"transform has imaginary residue {residue:.3g}")
    return out


def apply(D, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a 4x4 transform to a four-vector, returning real components."""
    D = np.asarray(D, dtype=complex)
    if D.shape != (4, 4):
        raise ValueError("transform must be 4x4")
    y = D @ _four_vector(x).astype(complex)
    residue = float(np.abs(y.imag).max())
    if residue > tol.exp_eps * max(1.0, float(np.abs(y).max())):
        raise PurityError(f"transformed vector has imaginary residue {residue:.3g}")
    return y.real.copy()


def interval_sq(x) -> float:
    """Squared interval x1^2 + x2^2 + x3^2 - x4^2."""
    a = _four_vector(x)
    return float(a[0] ** 2 + a[1] ** 2 + a[2] ** 2 - a[3] ** 2)


def interval_sq_via_det(x) -> float:
    """The same interval computed as -det(sum_mu x^mu sigma^mu)."""
    a = _four_vector(x)
    m = sum(a[mu] * pauli(mu + 1) for mu in range(4))
    return float((-det(m)).real)


def affine_apply(t: AffineTransform, x) -> np.ndarray:
    """linear @ x + shift, routed through the 5x5 append-one matrix."""
    v5 = np.ones(5, dtype=complex)
    v5[:4] = _four_vector(x)
    out = t.as_matrix5() @ v5
    if out[4] != 1.0:
        raise PurityError("appended component did not come back as exactly 1")
    residue = float(np.abs(out[:4].imag).max())
    if residue > DEFAULT_TOL.exp_eps * max(1.0, float(np.abs(out[:4]).max())):
        raise PurityError(f"affine image has imaginary residue {residue:.3g}")
    return out[:4].real.copy()


def affine_compose(t2: AffineTransform, t1: AffineTransform) -> AffineTransform:
    """The transform equal to applying t1 first, then t2 (5x5 product)."""
    m = t2.as_matrix5() @ t1.as_matrix5()
    return AffineTransform(linear=m[:4, :4], shift=m[:4, 4].real)


def affine_generators() -> tuple[GeneratorSet, GeneratorSet, GeneratorSet]:
    """Generators of the 5x5 append-one representation.

    Rotations and boosts act in the upper-left 4x4 block; translations are
    nilpotent, with -i in the last column, so exp(i a.P) displaces by a after
    a single series term.  The boost members carry the opposite sign to the
    plain 4x4 embedding: that labeling is the one for which the triple
    satisfies the standard closure table with space-to-time ratio +1 (the
    direct embedding satisfies the same table with ratio -1, a time-reversed
    labeling of the identical subgroup).
    """
    gens = np.zeros((10, 5, 5), dtype=complex)
    gens[:3, :4, :4] = build_j4().stack
    gens[3:6, :4, :4] = -build_k4().stack
    gens[[6, 7, 8, 9], [0, 1, 2, 3], 4] = -1j
    return (
        GeneratorSet(REP5_AFFINE, Kind.ANGULAR_MOMENTUM, tuple(gens[:3])),
        GeneratorSet(REP5_AFFINE, Kind.BOOST, tuple(gens[3:6])),
        GeneratorSet(REP5_AFFINE, Kind.MOMENTUM, tuple(gens[6:])),
    )


def _require_closure(J: GeneratorSet, K: GeneratorSet, V: GeneratorSet, tol: Tolerance) -> None:
    """Raise :class:`PrecondError` unless the triple satisfies the closure
    table at ratio +1."""
    pre = check_lorentz(J, K, tol) + vector_relation_reports(J, K, V, tol, alpha=1.0)
    if not all_passed(pre):
        bad = [r.identity.value for r in pre if not r.passed]
        raise PrecondError(f"inputs fail the closure precheck: {', '.join(bad)}")


def _intertwine_residuals(
    J: GeneratorSet, K: GeneratorSet, V: GeneratorSet, params: RotBoostParams, tol: Tolerance
) -> np.ndarray:
    """Frobenius norms of D^-1 V^mu D - Lambda^mu_nu V^nu for mu = 1..4."""
    rot, boost = 1j * _generator_sum(params.theta, J), 1j * _generator_sum(params.phi, K)
    D = mat_exp(boost, tol) @ mat_exp(rot, tol)
    Dinv = mat_exp(-rot, tol) @ mat_exp(-boost, tol)
    lam = d4(params, tol)
    rhs = np.einsum("mn,nab->mab", lam, V.stack)
    return frobenius_norms(Dinv @ V.stack @ D - rhs)


def intertwine_check(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    params: RotBoostParams,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Conjugation moves a vector family by the 4-vector matrix.

    For any triple satisfying the closure table at ratio +1, with
    D = exp(i phi.K) exp(i theta.J) built in the triple's own rep and
    Lambda = d4(params), the identity

        D^-1 V^mu D = Lambda^mu_nu V^nu

    holds exactly (conjugating the other way around produces the inverse
    Lambda; the test suite pins that orientation numerically).  The algebraic
    precheck runs first and raises :class:`PrecondError` on failure.
    """
    _require_closure(J, K, V, tol)
    return residual_report(
        Identity.INTERTWINING,
        _intertwine_residuals(J, K, V, params, tol),
        tol.exp_eps,
        "member mu={}",
        subject=f"{V.rep.tag}-rep",
    )


def intertwine_sweep(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    draws: int = 100,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Worst intertwining residual over seeded random parameter draws."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    _require_closure(J, K, V, tol)
    rng = np.random.default_rng(seed)
    residuals = np.array(
        [_intertwine_residuals(J, K, V, _random_params(rng), tol) for _ in range(draws)]
    )
    t, mu = (int(k) for k in np.unravel_index(np.argmax(residuals), residuals.shape))
    return make_report(
        Identity.INTERTWINING,
        residuals[t, mu],
        tol.exp_eps,
        subject=f"{V.rep.tag}-rep",
        witness={"indices": [t, mu + 1], "description": f"draw {t}, member mu={mu + 1}"},
        note=f"seed={seed}, draws={draws}",
    )


def _random_direction_scaled(rng: np.random.Generator, max_norm: float) -> np.ndarray:
    v = rng.normal(size=3)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return np.zeros(3)
    return v * (rng.uniform(0.0, max_norm) / n)


def _random_params(rng: np.random.Generator) -> RotBoostParams:
    """A rotation by up to pi followed by a boost of rapidity up to 2."""
    return RotBoostParams(
        theta=tuple(_random_direction_scaled(rng, np.pi)),
        phi=tuple(_random_direction_scaled(rng, 2.0)),
    )


def rotation_invariance_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Finite rotations preserve the spatial square and the time component."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = None
    for t in range(trials):
        x = rng.uniform(-10.0, 10.0, size=4)
        theta = _random_direction_scaled(rng, np.pi)
        xr = apply(d4(RotBoostParams(theta=tuple(theta)), tol), x, tol)
        space = float(np.dot(x[:3], x[:3]))
        scale = max(1.0, space)
        r = max(
            abs(float(np.dot(xr[:3], xr[:3])) - space) / scale,
            abs(xr[3] - x[3]) / max(1.0, abs(x[3])),
        )
        if r > worst:
            worst = r
            wit = {"indices": [t], "description": f"trial {t}: x={x.tolist()}, theta={theta.tolist()}"}
    return make_report(
        Identity.ROTATION_INVARIANCE,
        worst,
        tol.exp_eps,
        subject="4-rep",
        witness=wit,
        note=f"seed={seed}, trials={trials}, residuals relative to max(1, |x_space|^2)",
    )


def boost_invariance_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Finite rotation-plus-boost transforms preserve the squared interval."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = None
    for t in range(trials):
        x = rng.uniform(-10.0, 10.0, size=4)
        theta = _random_direction_scaled(rng, np.pi)
        phi = _random_direction_scaled(rng, 3.0)
        xb = apply(d4(RotBoostParams(theta=tuple(theta), phi=tuple(phi)), tol), x, tol)
        scale = max(1.0, float(np.dot(x, x)))
        r = abs(interval_sq(xb) - interval_sq(x)) / scale
        if r > worst:
            worst = r
            wit = {
                "indices": [t],
                "description": f"trial {t}: x={x.tolist()}, theta={theta.tolist()}, phi={phi.tolist()}",
            }
    return make_report(
        Identity.INTERVAL_INVARIANCE,
        worst,
        tol.exp_eps,
        subject="4-rep",
        witness=wit,
        note=f"seed={seed}, trials={trials}, residuals relative to max(1, |x|^2)",
    )


def det_interval_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """The determinant route to the interval agrees with the direct formula."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = None
    for t in range(trials):
        x = rng.uniform(-10.0, 10.0, size=4)
        scale = max(1.0, float(np.dot(x, x)))
        r = abs(interval_sq_via_det(x) - interval_sq(x)) / scale
        if r > worst:
            worst = r
            wit = {"indices": [t], "description": f"trial {t}: x={x.tolist()}"}
    return make_report(
        Identity.DETERMINANT_INTERVAL,
        worst,
        tol.abs_eps,
        subject="4-vector",
        witness=wit,
        note=f"seed={seed}, trials={trials}",
    )


def affine_composition_check(
    trials: int = 100, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Applying two affine transforms in sequence equals applying their 5x5
    product, and pure translations leave coordinate differences alone."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = None
    eye = np.eye(4)
    for t in range(trials):
        p1, p2 = _random_params(rng), _random_params(rng)
        t1 = AffineTransform(d4(p1, tol).real, rng.uniform(-5, 5, size=4))
        t2 = AffineTransform(d4(p2, tol).real, rng.uniform(-5, 5, size=4))
        x = rng.uniform(-10.0, 10.0, size=4)
        seq = affine_apply(t2, affine_apply(t1, x))
        combined = affine_apply(affine_compose(t2, t1), x)
        scale = max(1.0, float(np.abs(seq).max()))
        r = float(np.abs(seq - combined).max()) / scale

        shift = AffineTransform(eye, rng.uniform(-5, 5, size=4))
        x0 = rng.uniform(-10.0, 10.0, size=4)
        diff = affine_apply(shift, x) - affine_apply(shift, x0)
        r = max(r, float(np.abs(diff - (x - x0)).max()) / scale)
        if r > worst:
            worst = r
            wit = {"indices": [t], "description": f"trial {t}"}
    return make_report(
        Identity.AFFINE_COMPOSITION,
        worst,
        tol.exp_eps,
        subject="5-affine",
        witness=wit,
        note=f"seed={seed}, trials={trials}",
    )


def translation_check(
    trials: int = 100, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """exp(i a.P) in the affine rep is exactly the displacement by a.

    The translation generators are nilpotent (any product of two vanishes), so
    the exponential terminates after its linear term and the check is exact.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _, _, p5 = affine_generators()
    sq = float(np.abs(p5.stack[:, None] @ p5.stack[None]).max())
    rng = np.random.default_rng(seed)
    worst = sq
    wit = None if sq == 0.0 else {"indices": [], "description": "generator products"}
    for t in range(trials):
        a = rng.uniform(-10.0, 10.0, size=4)
        g = mat_exp(1j * sum(a[mu] * p5[mu + 1] for mu in range(4)), tol)
        expected = np.eye(5, dtype=complex)
        expected[:4, 4] = a
        r = float(np.abs(g - expected).max())
        x5 = np.ones(5, dtype=complex)
        x = rng.uniform(-10.0, 10.0, size=4)
        x5[:4] = x
        moved = g @ x5
        r = max(r, float(np.abs(moved[:4] - (x + a)).max()), abs(moved[4] - 1.0))
        if r > worst:
            worst = r
            wit = {"indices": [t], "description": f"trial {t}: a={a.tolist()}"}
    return make_report(
        Identity.TRANSLATION_DISPLACEMENT,
        worst,
        tol.abs_eps,
        subject="5-affine",
        witness=wit,
        note=f"seed={seed}, trials={trials}, exact nilpotent exponential",
    )
