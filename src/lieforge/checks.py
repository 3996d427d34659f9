"""Declarative verification engine.

Every algebraic identity the package claims is encoded as a named check over
generator sets; each run produces a :class:`CheckReport` with the worst
residual, the tolerance it was held to, and a witness when it failed.
Each bracket relation [A_i, B_j] (or {A_i, B_j}) = sum_k C_ijk T_k is one
call to :func:`bracket_table`, which takes stacked ``(m, n, n)`` generator
arrays and a coefficient table and returns the Frobenius norm of (left side -
right side) for every index pair.  It forms one row i at a time in reused
``(p, n, n)`` buffers, so memory stays at two slabs where the whole table
would need m of them.  :func:`residual_report` turns any residual array into
a report whose witness is the first worst index tuple, so the same engine
validates hand-built, extracted and candidate generator sets alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .generators import GeneratorSet, Kind, gamma, k2, rep22_v, v2, VectorParams
from .linalg import DEFAULT_TOL, Tolerance, frobenius_norms

__all__ = [
    "ShapeError",
    "Identity",
    "CheckReport",
    "EPS3",
    "reports_to_json_lines",
    "all_passed",
    "bracket_table",
    "residual_report",
    "check_su2_fundamental",
    "check_lorentz",
    "vector_family_reports",
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    ``passed`` is exactly ``max_residual < tolerance``; ``witness`` is present
    only on failure and names the worst index pair.
    """

    identity: Identity
    max_residual: float
    tolerance: float
    passed: bool
    subject: str = ""
    witness: dict | None = None
    note: str | None = None

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


def make_report(
    identity: Identity,
    max_residual: float,
    tolerance: float,
    subject: str = "",
    witness: dict | None = None,
    note: str | None = None,
) -> CheckReport:
    max_residual = float(max_residual)
    passed = max_residual < tolerance
    return CheckReport(
        identity=identity,
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=passed,
        subject=subject,
        witness=witness if not passed else None,
        note=note,
    )


def reports_to_json_lines(reports) -> str:
    """One compact JSON object per line, in report order."""
    return "\n".join(
        json.dumps(r.to_json(), separators=(",", ":")) for r in reports
    )


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def bracket_table(A, B, coeffs, T, anti: bool = False) -> np.ndarray:
    """Residuals of a whole bracket table over stacked generator arrays.

    ``A``, ``B`` and ``T`` are ``(m, n, n)``, ``(p, n, n)`` and ``(q, n, n)``
    stacks and ``coeffs`` has shape ``(m, p, q)``.  Entry ``(i, j)`` of the
    returned ``(m, p)`` array is the Frobenius norm of

        A_i B_j -/+ B_j A_i - sum_k coeffs[i, j, k] T_k

    with the commutator by default and the anticommutator when ``anti``.
    Rows are formed one ``i`` at a time in two reused ``(p, n, n)`` buffers:
    the full ``(m, p, n, n)`` table of an su(6) adjoint (m = p = n = 35) would
    take 24 MB per complex temporary.  The sum over k runs through einsum in
    index order, as a hand loop adds it (a BLAS product reorders and fuses
    it), so every entry is bit-identical to the per-pair residual.
    """
    coeffs = np.asarray(coeffs)
    dtype = np.result_type(A, B, T, coeffs)
    A, B, T = (np.ascontiguousarray(X, dtype=dtype) for X in (A, B, T))
    if coeffs.shape != (len(A), len(B), len(T)):
        raise ShapeError(
            f"coefficients of shape {coeffs.shape} do not match stacks of "
            f"{len(A)}, {len(B)} and {len(T)} members"
        )
    out = np.empty((len(A), len(B)))
    table = np.empty(B.shape, dtype=dtype)
    scratch = np.empty(B.shape, dtype=dtype)
    for i, a in enumerate(A):
        np.matmul(a, B, out=table)
        np.matmul(B, a, out=scratch)
        (np.add if anti else np.subtract)(table, scratch, out=table)
        np.einsum("jk,kab->jab", coeffs[i], T, out=scratch)
        table -= scratch
        out[i] = frobenius_norms(table)
    return out


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
    return make_report(
        identity,
        residuals.flat[flat],
        tolerance,
        subject=subject,
        witness={"indices": indices, "description": description.format(*indices)},
        note=note,
    )


# Structure constants i*eps of every su(2)-type commutator table.
_I_EPS3 = 1j * EPS3

# Vector-family relations as (mu, j, k) coefficient tables over V^1..V^4.
# Rotations mix the spatial members with i*eps and leave the time member
# alone; boosts send spatial member j to the time member and the time member
# to member j.
_VECTOR_ROTATION = np.zeros((4, 3, 4), dtype=complex)
_VECTOR_ROTATION[:3, :, :3] = _I_EPS3
_BOOST_TO_TIME = np.zeros((4, 3, 4))
_BOOST_TO_TIME[[0, 1, 2], [0, 1, 2], 3] = 1.0
_BOOST_FROM_TIME = np.zeros((4, 3, 4))
_BOOST_FROM_TIME[3, [0, 1, 2], [0, 1, 2]] = 1.0


def check_su2_fundamental(
    J: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    anticommutators: bool | None = None,
) -> list[CheckReport]:
    """Fundamental bracket table of an angular-momentum trio.

    Commutators must close with the antisymmetric structure constants; the
    anticommutator check asserts the two-dimensional pattern
    {J_i, J_j} = (1/2) delta_ij * identity, which holds only in the
    fundamental rep, so by default it runs just for dimension-2 sets.  Pass
    ``anticommutators=True`` to force it (e.g. to exhibit how a dimension-3
    trio violates it).
    """
    if J.kind is not Kind.ANGULAR_MOMENTUM or len(J) != 3:
        raise ShapeError("expected an angular-momentum set with 3 members")
    S = J.stack
    tables = [(Identity.JJ_COMMUTATION, "commutator", _I_EPS3, S, False)]
    do_anti = anticommutators if anticommutators is not None else J.rep.dim == 2
    if do_anti:
        half_delta = 0.5 * np.eye(3)[:, :, None]
        eye = np.eye(J.rep.dim, dtype=complex)[None]
        tables.append((Identity.JJ_ANTICOMMUTATION, "anticommutator", half_delta, eye, True))
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
    each."""
    if len(J) != 3 or len(K) != 3:
        raise ShapeError("expected two 3-member sets")
    if J.rep.dim != K.rep.dim:
        raise ShapeError("rotation and boost sets must share a dimension")
    subject = f"{J.rep.tag}-rep"
    Js, Ks = J.stack, K.stack
    return [
        residual_report(identity, bracket_table(left, right, coeffs, target), tol.abs_eps,
                        "pair (i={}, j={})", subject=subject, note=n)
        for identity, left, right, coeffs, target, n in (
            (Identity.LORENTZ_JJ, Js, Js, _I_EPS3, Js, None),
            (Identity.LORENTZ_JK, Js, Ks, _I_EPS3, Ks, None),
            (Identity.LORENTZ_KK, Ks, Ks, -_I_EPS3, Js, note),
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
    """The two vector-family relations.

    Rotations mix only the spatial members: [V^mu, J^j] = i eps(mu,j,k) V^k
    with eps vanishing whenever mu is the time index.  Boosts swap each
    spatial member with the time member, scaled by alpha:
    [V^mu, K^j] = -i (alpha d(j,mu) V^4 + (1/alpha) d(4,mu) V^j).
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
    return [
        residual_report(identity, bracket_table(Vs, other, coeffs, Vs), tol.abs_eps,
                        "pair (mu={}, j={})", subject=subject)
        for identity, other, coeffs in (
            (Identity.VECTOR_ROTATION, J.stack, _VECTOR_ROTATION),
            (Identity.VECTOR_BOOST, K.stack, boost),
        )
    ]


def vector_family_reports(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    alpha: complex = 1.0,
    subject: str | None = None,
) -> list[CheckReport]:
    """The vector-family part of the Poincare table.

    Both vector relations at the given alpha and, when the vector family is a
    momentum set, the mutual-commutation check over all 16 pairs.
    """
    subject = subject if subject is not None else f"{V.rep.tag}-rep"
    reports = vector_relation_reports(J, K, V, tol, alpha, subject=subject)
    if V.kind is Kind.MOMENTUM:
        Vs = V.stack
        reports.append(
            residual_report(
                Identity.MOMENTA_COMMUTE,
                bracket_table(Vs, Vs, np.zeros((4, 4, 4)), Vs),
                tol.abs_eps,
                "pair (mu={}, nu={})",
                subject=subject,
            )
        )
    return reports


def check_poincare(
    J: GeneratorSet,
    K: GeneratorSet,
    V: GeneratorSet,
    tol: Tolerance = DEFAULT_TOL,
    alpha: complex = 1.0,
    subject: str | None = None,
) -> list[CheckReport]:
    """Full bracket table of rotations, boosts and a vector family: the
    Lorentz closure followed by :func:`vector_family_reports`."""
    return check_lorentz(J, K, tol) + vector_family_reports(J, K, V, tol, alpha, subject)


def check_2rep_vk_asymmetry(tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Demonstrate that the fundamental rep cannot host momenta.

    In the 2-dimensional family both V^i and K^j are multiples of the angular
    momenta, so [V^i, K^j] is antisymmetric in (i, j), while a translation
    algebra needs it symmetric (proportional to delta_ij).  The check passes
    when the symmetric part vanishes while the commutators themselves do not;
    a degenerate all-zero family would force the residual to 1.
    """
    V = v2(1.0, 1.0).stack[:3, None]
    K = k2().stack[None]
    comm = V @ K - K @ V
    norms = frobenius_norms(comm)
    sym = frobenius_norms(comm + comm.transpose(1, 0, 2, 3))
    largest = float(norms[~np.eye(3, dtype=bool)].max())
    return residual_report(
        Identity.VK_ANTISYMMETRY,
        sym if largest > 0.1 else np.maximum(sym, 1.0),
        tol.abs_eps,
        "symmetric part of pair (i={}, j={})",
        subject="2-rep",
        note=f"largest off-diagonal commutator norm {largest:.6g} (must be nonzero)",
    )


def gamma_match_report(tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """The gamma matrices coincide with the doubled vector family at the
    default constants (c_plus = -2i, c_minus = +2i, alpha = 1)."""
    return residual_report(
        Identity.GAMMA_VECTOR_MATCH,
        frobenius_norms(gamma().stack - rep22_v(VectorParams()).stack),
        tol.abs_eps,
        "member mu={}",
        subject="2+2-rep",
    )
