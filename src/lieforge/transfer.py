"""Carry the closure algebra from the doubled rep to the 4-vector rep.

The doubled vector family is off-block-diagonal, and its commutator with any
rotation or boost generator lands back in the family's span.  The coefficients
of that expansion, one 4x4 matrix per generator, are themselves a
representation: extracting them from the doubled rep produces the spacetime
rotation and boost generators.

The four doubled vector matrices are *not* linearly independent as
16-component objects, so the extraction must work per 2x2 block, where the
four upper blocks (and likewise the four lower blocks) do form an independent
basis.  When both blocks are present the two decompositions must agree; a
momentum family has one block identically zero and is extracted from the
other alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checks import (
    _LORENTZ,
    EPS3,
    CheckReport,
    Identity,
    bracket_table,
    check_lorentz,
    residual_report,
)
from .generators import REP4, GeneratorSet, Kind
from .linalg import (
    BasisError,
    DEFAULT_TOL,
    Tolerance,
    frobenius_norms,
)

__all__ = [
    "NotVClosedError",
    "InconsistentBlocksError",
    "SourceKind",
    "CoeffTensor",
    "extract_coeffs",
    "build_j4",
    "build_k4",
    "transfer_reports",
]


class NotVClosedError(ValueError):
    """A commutator fell outside the span of the vector family."""


class InconsistentBlocksError(ValueError):
    """Upper- and lower-block decompositions disagree."""


class SourceKind(str, Enum):
    FROM_J = "from-j"
    FROM_K = "from-k"


@dataclass(frozen=True, eq=False)
class CoeffTensor:
    """Expansion coefficients values[mu, i, nu] of [V^mu, A^i] over the V^nu.

    The 4x4 slices with (mu, nu) entry values[mu, i, nu], one per generator
    A^i, are the transferred generators.
    """

    values: np.ndarray  # complex, shape (4, 3, 4)
    source_kind: SourceKind
    note: str | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (4, 3, 4):
            raise ValueError(f"expected shape (4, 3, 4), got {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_json(self) -> dict:
        return {
            "source_kind": self.source_kind.value,
            "values": [
                [
                    [[float(z.real), float(z.imag)] for z in self.values[mu, i, :]]
                    for i in range(3)
                ]
                for mu in range(4)
            ],
        }


# Where the two block families of a doubled 4x4 matrix live, and the mask of
# its diagonal blocks, where no vector matrix lives.
_BLOCKS = {"upper": np.s_[..., :2, 2:], "lower": np.s_[..., 2:, :2]}
_DIAGONAL = np.kron(np.eye(2), np.ones((2, 2))).astype(bool)


def _solve_blocks(basis: np.ndarray, targets: np.ndarray, name: str) -> tuple[np.ndarray, ...]:
    """Least-squares coefficients of the ``(4, 3, 2, 2)`` target blocks over
    the four ``(4, 2, 2)`` basis blocks, ``(4, 3, 4)``, and their ``(4, 3)``
    residual norms, from one solve with twelve right-hand sides."""
    a = basis.reshape(4, 4).T
    b = targets.reshape(12, 4).T
    coeffs, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 4:
        raise BasisError(f"{name} 2x2 blocks are linearly dependent")
    return coeffs.T.reshape(4, 3, 4), frobenius_norms((b - a @ coeffs).T.reshape(4, 3, 2, 2))


def extract_coeffs(
    V: GeneratorSet, A: GeneratorSet, tol: Tolerance = DEFAULT_TOL
) -> CoeffTensor:
    """Expand every commutator [V^mu, A^i] over the vector family, per block.

    The twelve commutators form one ``(4, 3, 4, 4)`` stack.  Each nonzero
    block family of V (a momentum branch has one identically zero) is the
    basis of one least-squares solve for that block of all twelve; the
    coefficients come from the upper blocks when present.

    Raises ``ValueError`` when V has a diagonal block, then
    :class:`BasisError` when V is zero or a nonzero block family is linearly
    dependent.  Then the first pair (mu, i) in row-major order that fails a
    check is reported, with the first check it fails: a leak into the
    diagonal blocks (:class:`NotVClosedError`), a non-finite commutator
    (``ValueError``), an upper, then a lower, block off the family's span
    (:class:`NotVClosedError`), disagreeing block decompositions
    (:class:`InconsistentBlocksError`).  Each bound is ``tol.abs_eps`` times
    max(1, ||[V^mu, A^i]||_F).
    """
    if V.rep.dim != 4 or len(V) != 4:
        raise ValueError("expected a 4-dimensional 4-member vector family")
    if len(A) != 3 or A.rep.dim != 4:
        raise ValueError("expected a 4-dimensional 3-member generator set")
    v, a = V.stack, A.stack
    if np.abs(v[:, _DIAGONAL]).max() > tol.abs_eps:
        raise ValueError("vector family must be off-block-diagonal")
    names = [name for name, at in _BLOCKS.items() if np.abs(v[at]).max() > tol.abs_eps]
    if not names:
        raise BasisError("vector family is identically zero")

    comm = v[:, None] @ a[None] - a[None] @ v[:, None]
    solved = {name: _solve_blocks(v[_BLOCKS[name]], comm[_BLOCKS[name]], name) for name in names}
    bound = tol.abs_eps * np.fmax(1.0, frobenius_norms(comm))
    leak = np.abs(comm[..., _DIAGONAL]).max(axis=-1)
    infinite = ~np.isfinite(comm).all(axis=(-2, -1))
    # (exception, message formatting the pair's value, value per pair, failing pairs)
    faults = [
        (NotVClosedError, "has diagonal blocks outside the family span", leak, leak > bound),
        (ValueError, "is not finite", infinite, infinite),
    ]
    faults += [
        (NotVClosedError, f"{name} block off-span, residual {{:.3g}}", resid, resid > bound)
        for name, (_, resid) in solved.items()
    ]
    if len(solved) == 2:
        gap = np.abs(solved["upper"][0] - solved["lower"][0]).max(axis=-1)
        faults.append(
            (InconsistentBlocksError, "block decompositions differ by {:.3g}", gap, gap > bound)
        )
    failed = np.array([mask for *_, mask in faults])
    if failed.any():
        mu, i = np.argwhere(failed.any(axis=0))[0]
        error, message, value, _ = faults[int(np.argmax(failed[:, mu, i]))]
        raise error(f"[V^{mu + 1}, A^{i + 1}] " + message.format(value[mu, i]))

    note = None if len(names) == 2 else (
        f"single-block family: extracted from the {names[0]} blocks alone, "
        "cross-block consistency not applicable"
    )
    kind = SourceKind.FROM_J if A.kind is Kind.ANGULAR_MOMENTUM else SourceKind.FROM_K
    return CoeffTensor(values=solved[names[0]][0], source_kind=kind, note=note)


def build_j4() -> GeneratorSet:
    """Closed-form spacetime rotation generators: entries i*eps(row, i, col).

    These are the adjoint-rep matrices padded with a zero time row and column,
    so rotations never touch the time component.
    """
    members = np.zeros((3, 4, 4), dtype=complex)
    members[:, :3, :3] = 1j * EPS3.transpose(1, 0, 2)
    return GeneratorSet(REP4, Kind.ANGULAR_MOMENTUM, tuple(members))


def build_k4() -> GeneratorSet:
    """Closed-form spacetime boost generators: -i on the (i, 4) and (4, i)
    entries, symmetric and purely space-time mixing."""
    members = np.zeros((3, 4, 4), dtype=complex)
    members[[0, 1, 2], [0, 1, 2], 3] = -1j
    members[[0, 1, 2], 3, [0, 1, 2]] = -1j
    return GeneratorSet(REP4, Kind.BOOST, tuple(members))


def transfer_reports(
    rotations: CoeffTensor, boosts: CoeffTensor, tol: Tolerance = DEFAULT_TOL
) -> list[CheckReport]:
    """The coefficient tensors extracted against rotations and boosts obey the
    same bracket table (its structure constants tabulated as literal data,
    independent of the extraction) and coincide with the closed forms, and
    the closed forms close the Lorentz algebra directly.

    The extracted slices [J; K] are bracketed with themselves in one Lorentz
    table, the one :func:`~lieforge.checks.check_lorentz` uses; its JJ, JK,
    KJ and KK blocks are the four commutation reports."""
    # slices[X][i - 1][mu, nu] is values[mu, i - 1, nu]: the slice of generator i.
    slices = {"J": rotations.values.transpose(1, 0, 2), "K": boosts.values.transpose(1, 0, 2)}
    L = np.concatenate([slices["J"], slices["K"]])
    table = bracket_table(L, L, _LORENTZ, L)
    halves = {"J": slice(0, 3), "K": slice(3, 6)}
    reports = [
        residual_report(
            Identity.TRANSFER_COMMUTATION,
            table[halves[left], halves[right]],
            tol.abs_eps,
            f"extracted pair ({left}^{{}}, {right}^{{}})",
            subject=f"{left}{right}",
        )
        for left in "JK"
        for right in "JK"
    ]

    j4, k4 = build_j4(), build_k4()
    reports.extend(
        residual_report(
            Identity.TRANSFER_CLOSED_FORM,
            frobenius_norms(slices[key] - closed.stack),
            tol.abs_eps,
            f"{name} slice {{}}",
            subject=name,
        )
        for name, key, closed in (("rotations", "J", j4), ("boosts", "K", k4))
    )

    # Direct closure of the closed forms.  The boost-boost bracket lands in
    # the rotation family; closing it onto the boosts instead is a tempting
    # mislabeling, so its residual is recorded alongside as a rejected
    # alternative.
    kk_alt = bracket_table(k4.stack, k4.stack, -1j * EPS3, k4.stack).max()
    reports.extend(
        check_lorentz(
            j4,
            k4,
            tol,
            note=f"[K,K] closes onto J; the K-valued alternative misses by {kk_alt:.6g}",
        )
    )
    return reports
