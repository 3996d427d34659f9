"""Finite transformations and their invariants.

Four-vectors are plain length-4 float arrays; component mu lives at array
index mu - 1 and index 4 (the last slot) is time.  The metric convention is
(+, +, +, -): the squared interval is x1^2 + x2^2 + x3^2 - x4^2.

The 4-vector generators are imaginary valued, so i J and i K are real: that
is checked exactly where they are read, and from there on every 4-vector and
5-affine transform, image and residual is float64.  A transform from outside
is checked once where it enters (:func:`apply`).  A failed purity check
signals a convention bug, typically a stray factor of i.

Every runtime exponential is summed in closed form from an identity of its
generators, with no series.  For a unit axis, N = n.(i J4) obeys N^3 = -N and
M = n.(i K4) obeys M^3 = M, so exp(theta.(i J4)) and exp(phi.(i K4)) are
finite trigonometric and hyperbolic polynomials in N and M, and Lambda is
the boost times the rotation.  The rep-side D and D^-1 of the intertwining
sweep come from the same kernel: the paper's spin-1/2 anticommutator
{J_a, J_b} = 1/2 delta_ab 1 gives the 2+2 rep N^2 = -1/4 and M^2 = +1/4,
hence N^3 = -N/4 and M^3 = M/4, and the 5-affine rotations and boosts obey
the 4-vector identities.  :func:`intertwine_sweep` checks each stack's
identity exactly before it draws.  The translation generators are
nilpotent, so exp(i a.P) is I + i a.P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import CheckReport, Identity
from .generators import (
    REP5_AFFINE,
    GeneratorSet,
    Kind,
    pauli,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _real_form,
    _times_real_form,
    frobenius_norms,
)
from .transfer import build_j4, build_k4

__all__ = [
    "PurityError",
    "PrecondError",
    "RotBoostParams",
    "d4",
    "apply",
    "interval_sq",
    "affine_generators",
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
    """A generator or transform that must be real has an imaginary part."""


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


def _real_transform(m, tol: Tolerance) -> np.ndarray:
    """A 4x4 transform from outside as float64: ``ValueError`` unless it is
    finite, :class:`PurityError` unless its imaginary parts are within
    ``tol.exp_eps`` of max(1, its largest entry)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("transform must be 4x4")
    if not np.all(np.isfinite(m)):
        raise ValueError("transform must be finite")
    residue = np.abs(m.imag).max()
    if residue > tol.exp_eps * max(1.0, np.abs(m).max()):
        raise PurityError(f"transform has imaginary residue {residue:.3g}")
    return m.real.copy()


def _affine5(linear: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The append-one matrices [[linear, shift], [0, 1]] of a stack of linear
    parts ``(T, 4, 4)`` and shifts ``(T, 4)``."""
    m = np.zeros((len(linear), 5, 5), dtype=np.result_type(linear, shift))
    m[:, :4, :4] = linear
    m[:, :4, 4] = shift
    m[:, 4, 4] = 1.0
    return m


def _append_one(x: np.ndarray) -> np.ndarray:
    """Rows of ``(T, 4)`` four-vectors extended to ``(T, 5)`` by a last entry 1."""
    return np.concatenate([x, np.ones((len(x), 1))], axis=1)


# The closed-form generators are fixed data; build them once so transforming
# thousands of trial vectors stays cheap.
_J4 = build_j4()
_K4 = build_k4()
_SIGMA4 = np.array([pauli(mu) for mu in range(1, 5)])

# Trials per block of a seeded sweep: a sweep holds one block of stacked
# inputs and transforms at a time, so its peak memory does not grow with the
# (user-supplied) trial count.  At 1024 the default 1000-trial sweeps run as
# one block each and pay their fixed per-block cost once.  Memory, measured
# with tracemalloc: the 1000-trial boost sweep peaks at 0.58 MB and sets the
# 0.59 MB peak of one ``invariants --trials 1000`` run.  In blocks of 256 it
# would peak at 0.19 MB, and the 0.51 MB of the 100-draw intertwining sweep
# would set the run's peak.
_BLOCK = 1024


def _times_i(G: GeneratorSet) -> np.ndarray:
    """The stack i G: float64 when it is exactly real, complex128 otherwise."""
    iG = 1j * G.stack
    return iG if iG.imag.any() else iG.real


def _real_generators(G: GeneratorSet) -> np.ndarray:
    """The stack i G as float64; :class:`PurityError` if any entry of it has
    an imaginary part, however small."""
    iG = _times_i(G)
    if iG.dtype != np.float64:
        residue = np.abs(iG.imag).max()
        raise PurityError(f"4-vector {G.kind.value} generators have imaginary part {residue:.3g}")
    return iG


def _combine(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The combinations sum_k c[..., k] stack[k] of a ``(K, n, n)`` stack, one
    per row of ``c``, as one matrix product."""
    return (c @ stack.reshape(len(stack), -1)).reshape(*c.shape[:-1], *stack.shape[1:])


def _norms_and_axes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The norms |v| and unit axes v / |v| of the rows of a ``(T, 3)`` array;
    a zero row has norm 0 and axis 0.  ``np.hypot`` scales by the larger
    operand before it squares, so no finite row overflows."""
    t = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    return t, v / np.where(t == 0.0, 1.0, t)[:, None]


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for two stacks of one dtype: numpy's product for float64, the
    product in real arithmetic (:func:`~lieforge.linalg._times_real_form`)
    for complex128."""
    return np.matmul(x, y) if x.dtype == np.float64 else _times_real_form(x, _real_form(y))


def _plus_identity(stack: np.ndarray) -> np.ndarray:
    """Add I to every matrix of a ``(T, n, n)`` stack, in place; return it."""
    stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1] += 1.0
    return stack


def _cubic_exp(v: np.ndarray, U: np.ndarray, sin, inverse: bool = False) -> tuple:
    """exp(v.U) for every row of the ``(T, 3)`` array ``v``, followed by
    exp(-v.U) when ``inverse``, as I +- sin(t) M + 2 sin^2(t/2) M^2 with
    t = |v| and M = (v/|v|).U, from one M and M^2.

    The formula is the exponential when every unit combination of the stack
    ``U`` obeys M^3 = -M with ``sin`` = ``np.sin`` (rotations) or M^3 = M
    with ``np.sinh`` (boosts): the series of exp(t M) then sums to it, since
    1 - cos t = 2 sin^2(t/2) and cosh t - 1 = 2 sinh^2(t/2).
    :func:`_cubic_unit` brings a stack with N^3 = -c N to that form.
    ``np.sin`` reduces any finite angle exactly, so a large angle still
    gives a rotation.  M and M^2 are scaled in place, so the only stacks it
    allocates are M, M^2 and, when ``inverse``, the second result.
    """
    t, axes = _norms_and_axes(v)
    odd = _combine(axes, U)
    even = _matmul(odd, odd)
    even *= (2.0 * sin(0.5 * t) ** 2)[:, None, None]
    odd *= sin(t)[:, None, None]
    minus = (_plus_identity(even - odd),) if inverse else ()
    return (_plus_identity(np.add(even, odd, out=even)), *minus)


def _rotation_stack(theta) -> np.ndarray:
    """exp(i theta.J) in the 4-vector rep, as float64, for every row of the
    ``(T, 3)`` array ``theta``."""
    return _cubic_exp(theta, _real_generators(_J4), np.sin)[0]


def _d4_stack(theta, phi) -> np.ndarray:
    """exp(i phi.K) exp(i theta.J) in the 4-vector rep, as float64, for every
    row of the ``(T, 3)`` arrays ``theta`` and ``phi``, in closed form."""
    return _cubic_exp(phi, _real_generators(_K4), np.sinh)[0] @ _rotation_stack(theta)


# The ten integer directions u at which the identity N^3 = -c |u|^2 N of
# N = u.(i G) is checked, and their |u|^2: e1, e2, e3, e1 +- e2, e1 +- e3,
# e2 +- e3 and e1 + e2 + e3.  Both sides are cubic forms in u, and the ten
# cubic monomials u_a u_b u_c take linearly independent values at these
# points (rank 10), so agreement at all ten is agreement at every u.
_DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
     [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1], [1, 1, 1]],
    dtype=float,
)
_DIRECTION_SQ = (_DIRECTIONS**2).sum(axis=1)


def _cubic_unit(G: GeneratorSet) -> tuple[np.ndarray, float, np.ufunc]:
    """The stack i G in the unit form :func:`_cubic_exp` takes, as
    ``(i G / lam, lam, sin)``: every combination N = u.(i G) must obey
    N^3 = -c |u|^2 N for one nonzero c, lam = sqrt(|c|), and ``sin`` is
    ``np.sin`` for c > 0 or ``np.sinh`` for c < 0, so that
    exp(v.(i G)) = exp((lam v).(i G / lam)).

    c is -<N, N^3> / <N, N> over the members, and the identity is checked
    exactly, in floating point, at the ten :data:`_DIRECTIONS`, hence at
    every u; :class:`PrecondError` if it fails or c is 0.  The generators of
    this package have dyadic entries, so both sides are exact at those
    integer directions.  A rep whose entries are not dyadic, such as a
    dyadic one in a rotated basis, meets the identity only up to rounding
    and is refused."""
    iG = _times_i(G)
    N = _combine(_DIRECTIONS, iG)
    cubes = N @ N @ N
    norm = np.vdot(N[:3], N[:3]).real
    c = float(-np.vdot(N[:3], cubes[:3]).real / norm) if norm else 0.0
    if c == 0.0 or not np.array_equal(cubes, (-c * _DIRECTION_SQ)[:, None, None] * N):
        raise PrecondError(
            f"{G.rep.tag}-rep {G.kind.value} generators fail the identity "
            "N^3 = -c |n|^2 N exactly, with c nonzero"
        )
    lam = math.sqrt(abs(c))
    return iG / lam, lam, np.sin if c > 0 else np.sinh


def _unit_families(families) -> list[tuple]:
    """Each ``(J, K, V)`` triple of ``families`` as ``(J, K, V)`` with J and
    K in the unit form of :func:`_cubic_unit`, which checks their identity."""
    return [(_cubic_unit(J), _cubic_unit(K), V) for J, K, V in families]


def _apply_stack(D: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D_t x_t for a ``(T, 4, 4)`` and a ``(T, 4)`` stack."""
    return (D @ x[:, :, None])[:, :, 0]


def _interval(x: np.ndarray) -> np.ndarray:
    """x1^2 + x2^2 + x3^2 - x4^2 along the last axis."""
    return x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2 - x[..., 3] ** 2


def _interval_via_det(x: np.ndarray) -> np.ndarray:
    """-det(sum_mu x^mu sigma^mu) for every row of a ``(T, 4)`` array."""
    return (-np.linalg.det(_combine(x, _SIGMA4))).real


def _affine_images(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """linear @ x + shift for each append-one matrix of a ``(T, 5, 5)`` stack
    and each row of a ``(T, 4)`` array."""
    out = (M @ _append_one(x)[:, :, None])[:, :, 0]
    if np.any(out[:, 4] != 1.0):
        raise PurityError("appended component did not come back as exactly 1")
    return out[:, :4]


def d4(params: RotBoostParams) -> np.ndarray:
    """Finite 4-vector transformation: rotation first, then boost,
    exp(i phi.K) exp(i theta.J) of the closed-form spacetime generators,
    summed from their cubic identities (no series)."""
    return _d4_stack(np.array([params.theta]), np.array([params.phi]))[0]


def apply(D, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a finite, real 4x4 transform to a four-vector."""
    return _apply_stack(_real_transform(D, tol)[None], _four_vector(x)[None])[0]


def interval_sq(x) -> float:
    """Squared interval x1^2 + x2^2 + x3^2 - x4^2."""
    return float(_interval(_four_vector(x)))


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
    gens[:3, :4, :4] = _J4.stack
    gens[3:6, :4, :4] = -_K4.stack
    gens[[6, 7, 8, 9], [0, 1, 2, 3], 4] = -1j
    return (
        GeneratorSet(REP5_AFFINE, Kind.ANGULAR_MOMENTUM, tuple(gens[:3])),
        GeneratorSet(REP5_AFFINE, Kind.BOOST, tuple(gens[3:6])),
        GeneratorSet(REP5_AFFINE, Kind.MOMENTUM, tuple(gens[6:])),
    )


def _rep_transforms(rot, boost, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """D = exp(i phi.K) exp(i theta.J) and D^-1 = exp(-i theta.J)
    exp(-i phi.K) in the rep of the stacks J and K, given in the unit form of
    :func:`_cubic_unit` as ``rot`` and ``boost``, for every row of the
    ``(T, 3)`` arrays ``theta`` and ``phi``: each factor summed by
    :func:`_cubic_exp` from one N and N^2 per stack.  Float64 when i J and
    i K are exactly real (the 5-affine rep), complex128 otherwise."""
    (e_rot, e_mrot), (e_boost, e_mboost) = (
        _cubic_exp(lam * v, U, sin, inverse=True)
        for v, (U, lam, sin) in ((theta, rot), (phi, boost))
    )
    return _matmul(e_boost, e_rot), _matmul(e_mrot, e_mboost)


def _intertwine_residuals(families, theta, phi) -> list[np.ndarray]:
    """Per ``(J, K, V)`` triple of ``families``, J and K in the unit form of
    :func:`_cubic_unit` (:func:`_unit_families`), the ``(T, 4)`` Frobenius
    norms of D^-1 V^mu D - Lambda^mu_nu V^nu for mu = 1..4 and every row of
    the ``(T, 3)`` arrays ``theta`` and ``phi``.  D and D^-1 are built in
    each triple's own rep (:func:`_rep_transforms`); Lambda, the 4-vector
    transform, is built once for all, from J4 and K4.

    D^-1 multiplies the members laid side by side, [V^1 ... V^4], in one
    2-D product over all draws; the rows of the D^-1 V^mu then multiply D
    in one product per draw.  Lambda^mu_nu V^nu is one 2-D product on V's
    float64 view, and the residual is formed in place.  A complex rep's
    products are formed in real arithmetic
    (:func:`~lieforge.linalg._times_real_form`); when i V, D and D^-1 are
    exactly real (the 5-affine rep), all of it is float64 on i V, whose
    residual norms are those of V.

    In the 5-affine rep the closed forms give R(theta)^T = R(-theta) and
    B(phi)^T = B(phi) bit for bit, so D^-1 P^mu D and Lambda^mu_nu P^nu are
    the same floating-point computation and the residual is exactly 0."""
    lam = _d4_stack(theta, phi)
    residuals = []
    for rot, boost, V in families:
        D, Dinv = _rep_transforms(rot, boost, theta, phi)
        W = _times_i(V)
        if D.dtype != np.float64 or W.dtype != np.float64:
            D, Dinv, W = (m.astype(complex, copy=False) for m in (D, Dinv, V.stack))
        t, n = D.shape[:2]
        moved = _matmul(Dinv.reshape(-1, n), np.concatenate(W, axis=1))
        conj = _matmul(moved.reshape(t, -1, n), D).reshape(t, n, len(W), n).swapaxes(1, 2)
        fit = _combine(lam, W.view(np.float64)).view(W.dtype)
        residuals.append(frobenius_norms(np.subtract(conj, fit, out=fit)))
    return residuals


def _streams(seed: int) -> list[np.random.Generator]:
    """The normal and the uniform stream of a seeded sweep, spawned from ``seed``."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def _seeded_sweep(
    identity: Identity,
    subjects: list[str],
    bound: float,
    note: str,
    trials: int,
    seed: int,
    draw,
    residuals,
    describe,
) -> list[CheckReport]:
    """One report per subject of the worst residual over ``trials`` seeded
    random trials, held to ``bound``; every subject sees the same trials.

    ``draw(streams, B)`` returns the inputs of ``B`` trials as a tuple of
    ``(B, ...)`` arrays, drawing once from each of ``streams`` (a normal and a
    uniform stream spawned from ``seed``), trial-major: a trial's values are
    one row of each draw.  Consecutive draws from a numpy ``Generator`` equal
    one draw of their total size, so a seed fixes each trial's inputs whatever
    the block size.  Versions that drew one trial at a time from a single
    stream gave other inputs for the same seed: their seeded residuals and
    witnesses are not comparable.  ``residuals`` maps those arrays to a
    sequence of ``(B, ...)`` residual arrays, one per subject.  Trials run
    in blocks of ``_BLOCK``, so memory is bounded by one block's inputs and
    residual temporaries whatever ``trials`` is: about 0.6 MB for a block of
    1024 boost trials (tracemalloc).

    The witness is the first maximum: earliest trial, then row-major over the
    trailing axes.  Its ``indices`` are the 0-based trial followed by the
    1-based trailing indices, described by ``describe(indices, inputs)`` with
    that trial's row of each input.  When no residual exceeds zero the
    residual is 0.0 and there is no witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = _streams(seed)
    worst, witness = [0.0] * len(subjects), [None] * len(subjects)
    for start in range(0, trials, _BLOCK):
        inputs = draw(streams, min(_BLOCK, trials - start))
        block = residuals(*inputs)
        for f, r in enumerate(block):
            at = np.unravel_index(int(np.argmax(r)), r.shape)
            if r[at] > worst[f]:
                worst[f] = float(r[at])
                indices = [start + int(at[0])] + [int(k) + 1 for k in at[1:]]
                row = [q[at[0]] for q in inputs]
                witness[f] = {"indices": indices, "description": describe(indices, row)}
    return [
        CheckReport(identity, w, bound, subject=s, witness=wit, note=note)
        for s, w, wit in zip(subjects, worst, witness)
    ]


def _random_direction_scaled(normals: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each 3-vector row of ``normals`` rescaled to the matching entry of
    ``norms``: a uniformly random direction when the rows are normal.  A row
    of exact zeros stays exactly zero."""
    n = np.sqrt(np.einsum("...i,...i->...", normals, normals))
    return normals * (norms / np.where(n == 0.0, 1.0, n))[..., None]


def _draw(streams, size: int, half_widths=(), max_norms=()) -> tuple[np.ndarray, ...]:
    """``size`` trials of a point uniform in [-h, h)^4 per half-width h, then
    a 3-vector in a random direction with norm uniform in [0, m) per max norm
    m.  A trial's uniforms are one row of the uniform draw, points first,
    mapped as ``Generator.uniform`` maps them; its directions are one row of
    the normal draw."""
    normal, uniform = streams
    h, m = np.repeat(half_widths, 4), np.asarray(max_norms)
    u = uniform.random((size, len(h) + len(m)))
    points = (-h + (2.0 * h) * u[:, : len(h)]).reshape(size, -1, 4)
    angles = _random_direction_scaled(normal.normal(size=(size, len(m), 3)), m * u[:, len(h) :])
    return *np.moveaxis(points, 1, 0), *np.moveaxis(angles, 1, 0)


def intertwine_sweep(
    families: list[tuple[GeneratorSet, GeneratorSet, GeneratorSet]],
    prechecks: list[CheckReport],
    draws: int = 100,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[CheckReport]:
    """Conjugation moves a vector family by the 4-vector matrix: per
    ``(J, K, V)`` triple of ``families``, in order, the report of the worst
    residual over the same seeded random parameter draws.

    For any triple satisfying the closure table at ratio +1, with
    D = exp(i phi.K) exp(i theta.J) built in the triple's own rep and
    Lambda the 4-vector transform of the same parameters, the identity

        D^-1 V^mu D = Lambda^mu_nu V^nu

    holds exactly (conjugating the other way around produces the inverse
    Lambda; the test suite pins that orientation numerically).  The caller
    passes that algebraic precheck in: ``prechecks`` holds the
    :func:`~lieforge.checks.check_poincare` reports of the triples, and any
    failed one raises :class:`PrecondError` before anything is drawn.  So
    does a rotation or boost stack that fails the identity its closed-form
    exponential rests on, N^3 = -c |n|^2 N, exactly in floating point
    (:func:`_cubic_unit`).  The sweep therefore accepts only reps whose
    generators meet that identity without rounding, such as the dyadic
    2+2 and 5-affine stacks of this package; the same rep conjugated by a
    random unitary passes the closure precheck but is refused here.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    bad = [r.identity.value for r in prechecks if not r.passed]
    if bad:
        raise PrecondError(f"inputs fail the closure precheck: {', '.join(bad)}")
    units = _unit_families(families)
    return _seeded_sweep(
        Identity.INTERTWINING,
        [f"{V.rep.tag}-rep" for _, _, V in families],
        tol.exp_eps,
        f"seed={seed}, draws={draws}",
        draws,
        seed,
        lambda streams, size: _draw(streams, size, (), (np.pi, 2.0)),
        lambda theta, phi: _intertwine_residuals(units, theta, phi),
        lambda idx, _: f"draw {idx[0]}, member mu={idx[1]}",
    )


def _draw_rotation(streams, size: int) -> tuple[np.ndarray, ...]:
    """A point in [-10, 10)^4 and rotation angles up to pi per trial."""
    return _draw(streams, size, (10.0,), (np.pi,))


def _rotation_residuals(x: np.ndarray, theta: np.ndarray) -> list[np.ndarray]:
    xr = _apply_stack(_rotation_stack(theta), x)
    space = np.einsum("ti,ti->t", x[:, :3], x[:, :3])
    moved = np.einsum("ti,ti->t", xr[:, :3], xr[:, :3])
    return [np.maximum(
        np.abs(moved - space) / np.maximum(1.0, space),
        np.abs(xr[:, 3] - x[:, 3]) / np.maximum(1.0, np.abs(x[:, 3])),
    )]


def rotation_invariance_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Finite rotations preserve the spatial square and the time component."""
    return _seeded_sweep(
        Identity.ROTATION_INVARIANCE,
        ["4-rep"],
        tol.exp_eps,
        f"seed={seed}, trials={trials}, residuals relative to max(1, |x_space|^2)",
        trials,
        seed,
        _draw_rotation,
        _rotation_residuals,
        lambda idx, inp: f"trial {idx[0]}: x={inp[0].tolist()}, theta={inp[1].tolist()}",
    )[0]


def _draw_boost(streams, size: int) -> tuple[np.ndarray, ...]:
    """A point in [-10, 10)^4, rotation angles up to pi and boost rapidities
    up to 3 per trial."""
    return _draw(streams, size, (10.0,), (np.pi, 3.0))


def _boost_residuals(x, theta, phi) -> list[np.ndarray]:
    xb = _apply_stack(_d4_stack(theta, phi), x)
    return [np.abs(_interval(xb) - _interval(x)) / np.maximum(1.0, np.einsum("ti,ti->t", x, x))]


def boost_invariance_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Finite rotation-plus-boost transforms preserve the squared interval."""
    return _seeded_sweep(
        Identity.INTERVAL_INVARIANCE,
        ["4-rep"],
        tol.exp_eps,
        f"seed={seed}, trials={trials}, residuals relative to max(1, |x|^2)",
        trials,
        seed,
        _draw_boost,
        _boost_residuals,
        lambda idx, inp: (
            f"trial {idx[0]}: x={inp[0].tolist()}, theta={inp[1].tolist()}, phi={inp[2].tolist()}"
        ),
    )[0]


def det_interval_check(
    trials: int = 1000, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """The determinant route to the interval agrees with the direct formula."""
    return _seeded_sweep(
        Identity.DETERMINANT_INTERVAL,
        ["4-vector"],
        tol.abs_eps,
        f"seed={seed}, trials={trials}",
        trials,
        seed,
        lambda streams, size: _draw(streams, size, (10.0,)),
        lambda x: [np.abs(_interval_via_det(x) - _interval(x))
                   / np.maximum(1.0, np.einsum("ti,ti->t", x, x))],
        lambda idx, inp: f"trial {idx[0]}: x={inp[0].tolist()}",
    )[0]


def _draw_affine(streams, size: int) -> tuple[np.ndarray, ...]:
    """Two shifts, a point, a pure shift and a second point, then the angles
    and rapidities of two rotation-boosts."""
    return _draw(streams, size, (5.0, 5.0, 10.0, 5.0, 10.0), (np.pi, 2.0, np.pi, 2.0))


def _affine_residuals(shift1, shift2, x, shift, x0, theta1, phi1, theta2, phi2) -> list:
    t = len(x)
    linear = _d4_stack(np.concatenate([theta1, theta2]), np.concatenate([phi1, phi2]))
    m1, m2 = _affine5(linear[:t], shift1), _affine5(linear[t:], shift2)
    seq = _affine_images(m2, _affine_images(m1, x))
    combined = _affine_images(m2 @ m1, x)
    scale = np.maximum(1.0, np.abs(seq).max(axis=1))
    translate = _affine5(np.broadcast_to(np.eye(4), (t, 4, 4)), shift)
    diff = _affine_images(translate, x) - _affine_images(translate, x0)
    composed = np.abs(seq - combined).max(axis=1)
    return [np.maximum(composed, np.abs(diff - (x - x0)).max(axis=1)) / scale]


def affine_composition_check(
    trials: int = 100, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Applying two affine transforms in sequence equals applying their 5x5
    product, and pure translations leave coordinate differences alone."""
    return _seeded_sweep(
        Identity.AFFINE_COMPOSITION,
        ["5-affine"],
        tol.exp_eps,
        f"seed={seed}, trials={trials}",
        trials,
        seed,
        _draw_affine,
        _affine_residuals,
        lambda idx, _: f"trial {idx[0]}",
    )[0]


def _translation_residuals(a, x, p5: GeneratorSet) -> list[np.ndarray]:
    g = _plus_identity(_combine(a, _times_i(p5)))
    expected = _affine5(np.broadcast_to(np.eye(4), (len(a), 4, 4)), a)
    moved = (g @ _append_one(x)[:, :, None])[:, :, 0]
    return [np.maximum.reduce(
        [
            np.abs(g - expected).max(axis=(1, 2)),
            np.abs(moved[:, :4] - (x + a)).max(axis=1),
            np.abs(moved[:, 4] - 1.0),
        ]
    )]


def translation_check(
    p5: GeneratorSet, trials: int = 100, tol: Tolerance = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CheckReport:
    """exp(i a.P) of the 5-affine momentum set ``p5`` (the third set of
    :func:`affine_generators`) is exactly the displacement by a.

    The translation generators are nilpotent (any product of two vanishes), so
    the exponential terminates after its linear term: it is built as
    I + i a.P and the check is exact.  That sum is the exponential only
    while the products vanish, so the report also holds the largest entry of
    any P_a P_b, with the witness "generator products" when it is the worst
    residual.
    """
    report = _seeded_sweep(
        Identity.TRANSLATION_DISPLACEMENT,
        ["5-affine"],
        tol.abs_eps,
        f"seed={seed}, trials={trials}, exact nilpotent exponential",
        trials,
        seed,
        lambda streams, size: _draw(streams, size, (10.0, 10.0)),
        lambda a, x: _translation_residuals(a, x, p5),
        lambda idx, inp: f"trial {idx[0]}: a={inp[0].tolist()}",
    )[0]
    sq = float(np.abs(p5.stack[:, None] @ p5.stack[None]).max())
    if sq >= report.max_residual and sq > 0.0:
        witness = {"indices": [], "description": "generator products"}
        return replace(report, max_residual=sq, witness=witness)
    return report
