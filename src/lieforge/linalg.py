"""Dense complex square-matrix kernels shared by every other module.

Matrices are plain ``numpy`` arrays of ``complex128``.  Everything here is a
pure function; nothing mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimError",
    "BasisError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "commutator",
    "anticommutator",
    "mat_exp",
    "decompose_in_basis",
    "det",
    "frobenius_distance",
    "frobenius_norms",
    "matrix_to_json",
    "matrix_from_json",
]


class DimError(ValueError):
    """Operands are not square or their dimensions do not match."""


class BasisError(ValueError):
    """A decomposition basis is empty or linearly dependent."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: ``abs_eps`` for exact algebraic identities,
    ``exp_eps`` for anything that went through a matrix exponential."""

    abs_eps: float = 1e-12
    exp_eps: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_eps <= self.exp_eps < 1.0):
            raise ValueError(
                f"need 0 < abs_eps <= exp_eps < 1, got {self.abs_eps}, {self.exp_eps}"
            )


DEFAULT_TOL = Tolerance()


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a finite square complex128 array (a fresh copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains a non-finite entry")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    a, b = as_cmatrix(a), as_cmatrix(b)
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """AB + BA."""
    a, b = as_cmatrix(a), as_cmatrix(b)
    _check_same_dim(a, b)
    return a @ b + b @ a


def mat_exp(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The argument is halved until its infinity norm is at most one, the series
    is summed until the next term falls below the machine-precision ratio of
    the partial sum, and the result is squared back up.  For the matrices this
    package handles (dimension <= 10, norms of order 10) the element-wise
    error stays well below ``tol.exp_eps``; the inverse-product identity
    ``mat_exp(A) @ mat_exp(-A) == I`` is the advertised accuracy contract.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, np.inf))
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = max(0, int(math.ceil(math.log2(norm)))) if norm > 1.0 else 0
    b = a / (2.0**squarings)
    term = np.eye(n, dtype=complex)
    acc = np.eye(n, dtype=complex)
    eps = float(np.finfo(float).eps)
    for k in range(1, 64):
        term = term @ b / k
        acc = acc + term
        if np.linalg.norm(term) <= eps * np.linalg.norm(acc):
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def decompose_in_basis(
    m, basis, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[complex], float]:
    """Least-squares coefficients of ``m`` in a list of basis matrices.

    Returns ``(coeffs, residual)`` minimising the Frobenius norm of
    ``m - sum(c_k * basis_k)``.  The basis must be linearly independent over
    the complex scalars; a rank-deficient basis raises :class:`BasisError`
    instead of silently producing one of infinitely many answers.
    """
    m = as_cmatrix(m)
    mats = [as_cmatrix(b) for b in basis]
    if not mats:
        raise BasisError("empty basis")
    for b in mats:
        _check_same_dim(m, b)
    a = np.stack([b.reshape(-1) for b in mats], axis=1)
    rhs = m.reshape(-1)
    coeffs, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < len(mats):
        raise BasisError(f"basis is linearly dependent (rank {rank} < {len(mats)})")
    residual = float(np.linalg.norm(rhs - a @ coeffs))
    return [complex(c) for c in coeffs], residual


def det(a) -> complex:
    """Determinant via LU with partial pivoting (intended for dims 2..4)."""
    return complex(np.linalg.det(as_cmatrix(a)))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of A - B."""
    a, b = as_cmatrix(a), as_cmatrix(b)
    _check_same_dim(a, b)
    return float(np.linalg.norm(a - b))


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of every matrix in a ``(..., n, n)`` stack, real or complex.

    Each norm is summed as ``np.linalg.norm`` sums a single matrix (a dot
    product of the real parts plus one of the imaginary parts), so entry ``k``
    is bit-identical to ``np.linalg.norm(stack[k])``; ``axis=(-2, -1)`` sums
    in another order and can differ in the last bit.
    """
    stack = np.asarray(stack)
    flat = stack.reshape(*stack.shape[:-2], 1, -1)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(x @ x.swapaxes(-1, -2) for x in parts)[..., 0, 0])


def matrix_to_json(m) -> dict:
    """JSON form: ``{"dim": n, "entries": [[[re, im], ...], ...]}`` row-major."""
    a = as_cmatrix(m)
    return {
        "dim": int(a.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise DimError(f"entry grid does not match dim={dim}")
    a = np.array(
        [[complex(e[0], e[1]) for e in row] for row in entries], dtype=complex
    )
    return as_cmatrix(a)
