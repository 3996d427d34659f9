"""Declarative verification engine.

Every algebraic identity the package claims is encoded as a named check over
generator sets; each run produces a :class:`CheckReport` with the worst
residual, the tolerance it was held to, and a witness when it failed.
Each family of bracket relations [A_i, B_j] (or {A_i, B_j}) = sum_k C_ijk T_k
is one call to :func:`bracket_table`, which takes stacked ``(m, n, n)``
generator arrays and a coefficient table and returns the Frobenius norm of
(left side - right side) for every index pair: the whole Lorentz algebra is
one table of [J; K] with itself, and each vector family one table of V
against [J; K], or [J; K; V] for momenta, whose blocks are the reports.  It
forms every table whole: the largest a run forms, the 5-affine momentum
table of 4 x 10 members of 5 x 5, takes 16 KB per complex array.
:func:`residual_report` turns any residual array into a report whose witness
is the first worst index tuple, so the same engine validates hand-built,
extracted and candidate generator sets alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .generators import GeneratorSet, Kind
from .linalg import DEFAULT_TOL, Tolerance, frobenius_norms

__all__ = [
    "ShapeError",
    "Identity",
    "CheckReport",
    "EPS3",
    "all_passed",
    "bracket_table",
    "residual_report",
    "check_su2_fundamental",
    "check_lorentz",
    "vector_relation_reports",
    "check_poincare",
    "check_2rep_vk_asymmetry",
    "gamma_match_report",
]


class ShapeError(ValueError):
    """A generator set has the wrong kind or member count for a check."""


class Identity(str, Enum):
    """Stable identifiers, one per verified relation."""

    JJ_COMMUTATION = "jj-commutation"
    JJ_ANTICOMMUTATION = "jj-anticommutation"
    LORENTZ_JJ = "lorentz-jj"
    LORENTZ_JK = "lorentz-jk"
    LORENTZ_KK = "lorentz-kk"
    VECTOR_ROTATION = "vector-rotation"
    VECTOR_BOOST = "vector-boost"
    MOMENTA_COMMUTE = "momenta-commute"
    VK_ANTISYMMETRY = "vk-antisymmetry"
    TRANSFER_COMMUTATION = "transfer-commutation"
    TRANSFER_CLOSED_FORM = "transfer-closed-form"
    GAMMA_VECTOR_MATCH = "gamma-vector-match"
    ROTATION_INVARIANCE = "rotation-invariance"
    INTERVAL_INVARIANCE = "interval-invariance"
    DETERMINANT_INTERVAL = "determinant-interval"
    AFFINE_COMPOSITION = "affine-composition"
    TRANSLATION_DISPLACEMENT = "translation-displacement"
    INTERTWINING = "intertwining"
    STRUCTURE_RECONSTRUCTION = "structure-reconstruction"
    ADJOINT_CLOSURE = "adjoint-closure"
    ANTICOMMUTATOR_OBSTRUCTION = "anticommutator-obstruction"


# Totally antisymmetric 3-index symbol, tabulated as literal data so checks
# never depend on the code paths they are checking.
EPS3 = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
EPS3.flags.writeable = False


@dataclass(frozen=True, init=False)
class CheckReport:
    """Outcome of one identity check.

    The record derives its verdict: ``max_residual`` and ``tolerance`` are
    held as Python floats and ``passed`` is exactly ``max_residual <
    tolerance``, so a NaN residual fails.  ``witness`` names the worst index
    tuple and is kept only on failure; a passing report drops it.
    """

    identity: Identity
    max_residual: float
    tolerance: float
    passed: bool = field(init=False)
    subject: str = ""
    witness: dict | None = None
    note: str | None = None

    def __init__(self, identity: Identity, max_residual: float, tolerance: float,
                 subject: str = "", witness: dict | None = None, note: str | None = None):
        max_residual, tolerance = float(max_residual), float(tolerance)
        passed = max_residual < tolerance
        # One write of the instance dict: cheaper than the object.__setattr__
        # per field of a frozen dataclass's own __init__.
        vars(self).update(identity=identity, max_residual=max_residual, tolerance=tolerance,
                          passed=passed, subject=subject, witness=None if passed else witness,
                          note=note)

    def to_json(self) -> dict:
        return {
            "identity": self.identity.value,
            "subject": self.subject,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witness": self.witness,
            "note": self.note,
        }


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def bracket_table(A, B, coeffs, T, anti: bool = False) -> np.ndarray:
    """Residuals of a whole bracket table over stacked generator arrays.

    ``A``, ``B`` and ``T`` are ``(m, n, n)``, ``(p, n, n)`` and ``(q, n, n)``
    stacks and ``coeffs`` has shape ``(m, p, q)``.  Entry ``(i, j)`` of the
    returned ``(m, p)`` array is the Frobenius norm of

        A_i B_j -/+ B_j A_i - sum_k coeffs[i, j, k] T_k

    with the commutator by default and the anticommutator when ``anti``.
    The table is formed whole: ``A[:, None] @ B[None]``, minus (plus when
    ``anti``) the reverse product, minus the sum over k as one BLAS product,
    ``coeffs`` cast to the stacks' dtype times T flattened to ``(q, n^2)``.
    It holds two ``(m, p, n, n)`` arrays at once, sized for the closure
    checks of this package and :mod:`~lieforge.transfer`, whose largest
    table is 4 x 10 members of 5 x 5 (16 KB per complex array); su(N)
    extraction and the adjoint closure have their own kernels in
    :mod:`~lieforge.su_n`.
    BLAS may reorder and fuse the sum, so an entry can differ from a hand
    loop's residual in the last bits; where every product and partial sum
    is exact (dyadic entries) it is the same exact value.
    """
    coeffs = np.asarray(coeffs)
    dtype = np.result_type(A, B, T, coeffs)
    A, B, T = (np.ascontiguousarray(X, dtype=dtype) for X in (A, B, T))
    m, p, q = len(A), len(B), len(T)
    if coeffs.shape != (m, p, q):
        raise ShapeError(
            f"coefficients of shape {coeffs.shape} do not match stacks of "
            f"{m}, {p} and {q} members"
        )
    table = A[:, None] @ B[None]
    if anti:
        table += B[None] @ A[:, None]
    else:
        table -= B[None] @ A[:, None]
    table -= (coeffs.astype(dtype).reshape(-1, q) @ T.reshape(q, -1)).reshape(table.shape)
    return frobenius_norms(table)


def residual_report(
    identity: Identity,
    residuals,
    tolerance: float,
    description: str,
    subject: str = "",
    note: str | None = None,
) -> CheckReport:
    """Report the largest entry of a residual array.

    The witness is the first maximum in row-major order, as 1-based indices,
    described by ``description.format(*indices)``.
    """
    residuals = np.asarray(residuals)
    flat = int(np.argmax(residuals))
    indices = [int(k) + 1 for k in np.unravel_index(flat, residuals.shape)]
    return CheckReport(
        identity,
        residuals.flat[flat],
        tolerance,
        subject=subject,
        witness={"indices": indices, "description": description.format(*indices)},
        note=note,
    )


# Structure constants i*eps of every su(2)-type commutator table.
_I_EPS3 = 1j * EPS3

# Lorentz structure constants over (J1, J2, J3, K1, K2, K3): [J, J] = i eps J,
# [J, K] = [K, J] = i eps K and [K, K] = -i eps J.
_LORENTZ = np.zeros((6, 6, 6), dtype=complex)
_LORENTZ[:3, :3, :3] = _LORENTZ[:3, 3:, 3:] = _LORENTZ[3:, :3, 3:] = _I_EPS3
_LORENTZ[3:, 3:, :3] = -_I_EPS3
_LORENTZ.flags.writeable = False

# Vector-family relations as (mu, j, k) coefficient tables of V^mu against
# (J1, J2, J3, K1, K2, K3) over V^1..V^4.  Rotations mix the spatial members
# with i*eps and leave the time member alone; boosts send spatial member j to
# the time member and the time member to member j.
_VECTOR_ROTATION = np.zeros((4, 6, 4), dtype=complex)
_VECTOR_ROTATION[:3, :3, :3] = _I_EPS3
_BOOST_TO_TIME = np.zeros((4, 6, 4))
_BOOST_TO_TIME[[0, 1, 2], [3, 4, 5], 3] = 1.0
_BOOST_FROM_TIME = np.zeros((4, 6, 4))
_BOOST_FROM_TIME[3, [3, 4, 5], [0, 1, 2]] = 1.0


def check_su2_fundamental(J: GeneratorSet, tol: Tolerance = DEFAULT_TOL) -> list[CheckReport]:
    """Fundamental bracket table of an angular-momentum trio.

    Commutators must close with the antisymmetric structure constants, and
    anticommutators must follow the two-dimensional pattern
    {J_i, J_j} = (1/2) delta_ij * identity, which holds only in the
    fundamental rep: a trio of any other dimension fails that table.
    """
    if J.kind is not Kind.ANGULAR_MOMENTUM or len(J) != 3:
        raise ShapeError("expected an angular-momentum set with 3 members")
    S = J.stack
    half_delta = 0.5 * np.eye(3)[:, :, None]
    eye = np.eye(J.rep.dim, dtype=complex)[None]
    tables = [
        (Identity.JJ_COMMUTATION, "commutator", _I_EPS3, S, False),
        (Identity.JJ_ANTICOMMUTATION, "anticommutator", half_delta, eye, True),
    ]
    return [
        residual_report(identity, bracket_table(S, S, coeffs, T, anti), tol.abs_eps,
                        f"{kind} pair (i={{}}, j={{}})", subject=f"{J.rep.tag}-rep")
        for identity, kind, coeffs, T, anti in tables
    ]


def check_lorentz(
    J: GeneratorSet, K: GeneratorSet, tol: Tolerance = DEFAULT_TOL, note: str | None = None
) -> list[CheckReport]:
    """Closure of rotations and boosts: [J,J] -> J, [J,K] -> K, [K,K] -> -J,
    all with the antisymmetric structure constants, over all 9 index pairs
    each.  One table of [J; K] with itself; the reports are its JJ, JK and
    KK blocks."""
    if len(J) != 3 or len(K) != 3:
        raise ShapeError("expected two 3-member sets")
    if J.rep.dim != K.rep.dim:
        raise ShapeError("rotation and boost sets must share a dimension")
    subject = f"{J.rep.tag}-rep"
    L = np.concatenate([J.stack, K.stack])
    table = bracket_table(L, L, _LORENTZ, L)
    return [
        residual_report(identity, block, tol.abs_eps, "pair (i={}, j={})",
                        subject=subject, note=n)
        for identity, block, n in (
            (Identity.LORENTZ_JJ, table[:3, :3], None),
            (Identity.LORENTZ_JK, table[:3, 3:], None),
            (Identity.LORENTZ_KK, table[3:, 3:], note),
        )
    ]


def vector_relation_reports(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    alpha: complex = 1.0,
    subject: str | None = None,
) -> list[CheckReport]:
    """The vector-family part of the Poincare table.

    Rotations mix only the spatial members: [V^mu, J^j] = i eps(mu,j,k) V^k
    with eps vanishing whenever mu is the time index.  Boosts swap each
    spatial member with the time member, scaled by alpha:
    [V^mu, K^j] = -i (alpha d(j,mu) V^4 + (1/alpha) d(4,mu) V^j).  When the
    vector family is a momentum set, its members also commute: [V^mu, V^nu]
    = 0 over all 16 pairs.

    One table of V against [J; K], or [J; K; V] for a momentum set; each
    report is a column block of it.
    """
    if len(V) != 4:
        raise ShapeError("expected a 4-member vector family")
    if not (J.rep.dim == K.rep.dim == V.rep.dim):
        raise ShapeError("all sets must share a dimension")
    alpha = complex(alpha)
    if alpha == 0:
        raise ShapeError("alpha must be nonzero")
    subject = subject if subject is not None else f"{V.rep.tag}-rep"
    Vs = V.stack
    boost = -1j * (alpha * _BOOST_TO_TIME + (1 / alpha) * _BOOST_FROM_TIME)
    others, coeffs = [J.stack, K.stack], [_VECTOR_ROTATION + boost]
    blocks = [
        (Identity.VECTOR_ROTATION, np.s_[:, :3], "pair (mu={}, j={})"),
        (Identity.VECTOR_BOOST, np.s_[:, 3:6], "pair (mu={}, j={})"),
    ]
    if V.kind is Kind.MOMENTUM:
        others.append(Vs)
        coeffs.append(np.zeros((4, 4, 4)))
        blocks.append((Identity.MOMENTA_COMMUTE, np.s_[:, 6:], "pair (mu={}, nu={})"))
    table = bracket_table(Vs, np.concatenate(others), np.concatenate(coeffs, axis=1), Vs)
    return [
        residual_report(identity, table[at], tol.abs_eps, description, subject=subject)
        for identity, at, description in blocks
    ]


def check_poincare(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    alpha: complex = 1.0,
    subject: str | None = None,
) -> list[CheckReport]:
    """Full bracket table of rotations, boosts and a vector family: the
    Lorentz closure followed by :func:`vector_relation_reports`."""
    return check_lorentz(J, K, tol) + vector_relation_reports(J, K, V, tol, alpha, subject)


def check_2rep_vk_asymmetry(
    V: GeneratorSet, K: GeneratorSet, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Demonstrate that the fundamental rep cannot host momenta.

    In the 2-dimensional family (``V`` = v2(1, 1), ``K`` = k2()) both V^i
    and K^j are multiples of the angular momenta, so [V^i, K^j] is
    antisymmetric in (i, j), while a translation algebra needs it symmetric
    (proportional to delta_ij).  The check passes when the symmetric part
    vanishes while the commutators themselves do not; a degenerate all-zero
    family would force the residual to 1.
    """
    if len(V) != 4 or len(K) != 3 or V.rep.dim != K.rep.dim:
        raise ShapeError("expected a 4-member vector family and a 3-member boost set")
    Vs, Ks = V.stack[:3, None], K.stack[None]
    comm = Vs @ Ks - Ks @ Vs
    sym = frobenius_norms(comm + comm.transpose(1, 0, 2, 3))
    largest = float(frobenius_norms(comm)[~np.eye(3, dtype=bool)].max())
    return residual_report(
        Identity.VK_ANTISYMMETRY,
        sym if largest > 0.1 else np.maximum(sym, 1.0),
        tol.abs_eps,
        "symmetric part of pair (i={}, j={})",
        subject=f"{V.rep.tag}-rep",
        note=f"largest off-diagonal commutator norm {largest:.6g} (must be nonzero)",
    )


def gamma_match_report(
    g: GeneratorSet, V: GeneratorSet, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """The gamma matrices ``g`` coincide with the doubled vector family ``V``
    at the default constants (c_plus = -2i, c_minus = +2i, alpha = 1)."""
    return residual_report(
        Identity.GAMMA_VECTOR_MATCH,
        frobenius_norms(g.stack - V.stack),
        tol.abs_eps,
        "member mu={}",
        subject=f"{V.rep.tag}-rep",
    )
