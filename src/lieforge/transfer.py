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
    EPS3,
    CheckReport,
    Identity,
    bracket_table,
    check_lorentz,
    residual_report,
)
from .generators import REP4, GeneratorSet, Kind, rep22_jk, rep22_v
from .linalg import (
    BasisError,
    DEFAULT_TOL,
    Tolerance,
    commutator,
    decompose_in_basis,
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
    "verify_transfer",
    "transfer_reports",
]


class NotVClosedError(ValueError):
    """A commutator fell outside the span of the vector family."""


class InconsistentBlocksError(ValueError):
    """Upper- and lower-block decompositions disagree."""


class SourceKind(str, Enum):
    FROM_J = "from-j"
    FROM_K = "from-k"


@dataclass(frozen=True)
class CoeffTensor:
    """Expansion coefficients values[mu, i, nu] of [V^mu, A^i] over the V^nu.

    ``slice(i)`` is the 4x4 matrix with (mu, nu) entry values[mu, i, nu]; those
    slices are the transferred generators.
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

    def slice(self, i: int) -> np.ndarray:
        """4x4 coefficient matrix for the 1-based generator index ``i``."""
        if not 1 <= i <= 3:
            raise IndexError(f"slice index {i} out of range 1..3")
        return self.values[:, i - 1, :].copy()

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

    @classmethod
    def from_json(cls, obj: dict) -> "CoeffTensor":
        vals = np.array(
            [
                [[complex(e[0], e[1]) for e in row] for row in plane]
                for plane in obj["values"]
            ],
            dtype=complex,
        )
        return cls(values=vals, source_kind=SourceKind(obj["source_kind"]))


def _split_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]


def extract_coeffs(
    V: GeneratorSet, A: GeneratorSet, tol: Tolerance = DEFAULT_TOL
) -> CoeffTensor:
    """Expand every commutator [V^mu, A^i] over the vector family, per block.

    Raises :class:`NotVClosedError` when a commutator leaves the family's
    span (including any leak into the diagonal blocks, where no vector matrix
    lives), :class:`BasisError` when a nonzero block family is linearly
    dependent, and :class:`InconsistentBlocksError` when the two block
    decompositions of a generic family disagree.
    """
    if V.rep.dim != 4 or len(V) != 4:
        raise ValueError("expected a 4-dimensional 4-member vector family")
    if len(A) != 3 or A.rep.dim != 4:
        raise ValueError("expected a 4-dimensional 3-member generator set")

    uppers, lowers = [], []
    for mu in range(1, 5):
        ul, ur, ll, lr = _split_blocks(V[mu])
        if max(np.abs(ul).max(), np.abs(lr).max()) > tol.abs_eps:
            raise ValueError("vector family must be off-block-diagonal")
        uppers.append(ur)
        lowers.append(ll)

    def family_nonzero(blocks) -> bool:
        return max(np.abs(b).max() for b in blocks) > tol.abs_eps

    use_upper = family_nonzero(uppers)
    use_lower = family_nonzero(lowers)
    if not use_upper and not use_lower:
        raise BasisError("vector family is identically zero")
    for use, blocks, name in ((use_upper, uppers, "upper"), (use_lower, lowers, "lower")):
        if use:
            stack = np.stack([b.reshape(-1) for b in blocks], axis=1)
            if np.linalg.matrix_rank(stack) < 4:
                raise BasisError(f"{name} 2x2 blocks are linearly dependent")

    values = np.zeros((4, 3, 4), dtype=complex)
    for mu in range(1, 5):
        for i in range(1, 4):
            c = commutator(V[mu], A[i])
            ul, ur, ll, lr = _split_blocks(c)
            scale = max(1.0, float(np.linalg.norm(c)))
            if max(np.abs(ul).max(), np.abs(lr).max()) > tol.abs_eps * scale:
                raise NotVClosedError(
                    f"[V^{mu}, A^{i}] has diagonal blocks outside the family span"
                )
            coeffs_u = coeffs_l = None
            if use_upper:
                coeffs_u, resid = decompose_in_basis(ur, uppers, tol)
                if resid > tol.abs_eps * scale:
                    raise NotVClosedError(
                        f"[V^{mu}, A^{i}] upper block off-span, residual {resid:.3g}"
                    )
            if use_lower:
                coeffs_l, resid = decompose_in_basis(ll, lowers, tol)
                if resid > tol.abs_eps * scale:
                    raise NotVClosedError(
                        f"[V^{mu}, A^{i}] lower block off-span, residual {resid:.3g}"
                    )
            if coeffs_u is not None and coeffs_l is not None:
                gap = max(abs(u - l) for u, l in zip(coeffs_u, coeffs_l))
                if gap > tol.abs_eps * scale:
                    raise InconsistentBlocksError(
                        f"[V^{mu}, A^{i}] block decompositions differ by {gap:.3g}"
                    )
            values[mu - 1, i - 1, :] = coeffs_u if coeffs_u is not None else coeffs_l

    note = None
    if not (use_upper and use_lower):
        side = "upper" if use_upper else "lower"
        note = f"single-block family: extracted from the {side} blocks alone, cross-block consistency not applicable"
    kind = SourceKind.FROM_J if A.kind is Kind.ANGULAR_MOMENTUM else SourceKind.FROM_K
    return CoeffTensor(values=values, source_kind=kind, note=note)


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


# Bracket table for pairs drawn from the rotation (J) and boost (K) families:
# (sign of i*eps on the right-hand side, which family the result lives in).
_BRACKET_TABLE = {
    ("J", "J"): (+1.0, "J"),
    ("J", "K"): (+1.0, "K"),
    ("K", "J"): (+1.0, "K"),
    ("K", "K"): (-1.0, "J"),
}


def verify_transfer(tol: Tolerance = DEFAULT_TOL) -> list[CheckReport]:
    """End-to-end check that extraction transfers the algebra: the canonical
    doubled family's coefficient tensors against its rotations and boosts,
    checked by :func:`transfer_reports`."""
    J22, K22 = rep22_jk()
    V = rep22_v()
    return transfer_reports(extract_coeffs(V, J22, tol), extract_coeffs(V, K22, tol), tol)


def transfer_reports(
    rotations: CoeffTensor, boosts: CoeffTensor, tol: Tolerance = DEFAULT_TOL
) -> list[CheckReport]:
    """The coefficient tensors extracted against rotations and boosts obey the
    same bracket table (its structure constants tabulated as literal data,
    independent of the extraction) and coincide with the closed forms, and
    the closed forms close the Lorentz algebra directly."""
    # slices[X][i - 1] is the 4x4 matrix CoeffTensor.slice(i).
    slices = {"J": rotations.values.transpose(1, 0, 2), "K": boosts.values.transpose(1, 0, 2)}

    reports = [
        residual_report(
            Identity.TRANSFER_COMMUTATION,
            bracket_table(slices[left], slices[right], sign * 1j * EPS3, slices[target]),
            tol.abs_eps,
            f"extracted pair ({left}^{{}}, {right}^{{}})",
            subject=f"{left}{right}",
        )
        for (left, right), (sign, target) in _BRACKET_TABLE.items()
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
