"""Dense square-matrix kernels shared by every other module.

Matrices are plain ``numpy`` arrays: ``complex128`` in general, ``float64``
where a kernel keeps an exactly real input real (:func:`mat_exp`).
Everything here is a pure function; nothing mutates its inputs.

Stacks of small complex matrices are multiplied in real arithmetic
(:func:`_real_form`, :func:`_times_real_form`), as the intertwining sweep and
the su(N) structure extraction do: 400 complex 4x4 products take 118 us as
a stacked complex128 ``matmul`` and 44 us through the real form, 19 us of it
the float64 product itself (numpy 2.4, BLAS on one thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimError",
    "BasisError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "mat_exp",
    "decompose_in_basis",
    "det",
    "frobenius_distance",
    "frobenius_norms",
    "matrix_to_json",
]


class DimError(ValueError):
    """Operands are not square or their dimensions do not match."""


class BasisError(ValueError):
    """A decomposition basis is empty or linearly dependent."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: ``abs_eps`` for exact algebraic identities,
    ``exp_eps`` for the closed-form sweeps of finite transforms (rotation and
    interval invariance, affine composition, intertwining), the requested
    transform and the imaginary-residue guard of ``apply``."""

    abs_eps: float = 1e-12
    exp_eps: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_eps <= self.exp_eps < 1.0):
            raise ValueError(
                f"need 0 < abs_eps <= exp_eps < 1, got {self.abs_eps}, {self.exp_eps}"
            )


DEFAULT_TOL = Tolerance()


def _square_finite(a: np.ndarray) -> np.ndarray:
    """``a``; :class:`DimError` unless a square stack, ``ValueError`` unless finite."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains a non-finite entry")
    return a


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a finite square complex128 array (a fresh copy)."""
    a = _square_finite(np.array(m, dtype=complex))
    if a.ndim != 2:
        raise DimError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _real_form(y: np.ndarray) -> np.ndarray:
    """The real ``(..., 2m, 2n)`` form R(y) of a complex ``(..., m, n)`` stack:
    entry y_kj becomes the 2x2 block [[Re, Im], [-Im, Re]] at rows 2k, 2k + 1
    and columns 2j, 2j + 1, so that x.view(float64) @ R(y), read back as
    complex128, is x @ y (:func:`_times_real_form`).  Rows 2k and 2k + 1 are
    row k of y and of i y laid out as (Re, Im) pairs; multiplying by i only
    swaps and negates, so R(y) holds y's entries exactly."""
    n = y.shape[-1]
    r = np.empty((*y.shape[:-1], 2, n), dtype=np.complex128)
    r[..., 0, :] = y
    np.multiply(y, 1j, out=r[..., 1, :])
    return r.view(np.float64).reshape(*y.shape[:-2], 2 * y.shape[-2], 2 * n)


def _times_real_form(
    x: np.ndarray, r: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """x @ y for a complex128 stack ``x`` whose last axis is contiguous and
    ``r`` = :func:`_real_form` (y), broadcast over the leading axes as
    ``matmul`` broadcasts them, computed as one float64 product; written to
    ``out``, a complex128 array of the result's shape whose last axis is
    contiguous, when one is given.

    Each real and imaginary part of the result is a dot product of 2n real
    terms: Re(x_ik) Re(y_kj) - Im(x_ik) Im(y_kj) summed over k for the real
    part, and likewise for the imaginary one.  Its rounding error is bounded
    by gamma_2n = 2nu / (1 - 2nu) times the sum of those terms' magnitudes
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3),
    in any summation order; when every product and partial sum is exact (the
    dyadic entries of the package's generators) it equals numpy's complex
    product exactly."""
    out = None if out is None else out.view(np.float64)
    return np.matmul(x.view(np.float64), r, out=out).view(np.complex128)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a matrix or of every matrix in a ``(..., n, n)``
    stack, by scaling and squaring with a fixed-degree Taylor polynomial.

    Each matrix A is scaled by its own power of two, B = A / 2^s, with s the
    least integer making ||B||_inf <= 1.  The degree-18 Taylor polynomial
    T_18(B) = sum_k B^k / k! is evaluated on the whole stack by Horner's rule,
    T_18(B) = I + B (I + B/2 (I + ... (I + B/18))).  Its truncation error is
    bounded, as in Higham (SIAM J. Matrix Anal. Appl. 26(4), 2005), by the
    tail of the series at ||B|| <= 1:

        ||exp(B) - T_18(B)|| <= sum_{k >= 19} ||B||^k / k!
                             <= (20/19) / 19!  <  9e-18,

    far below the unit roundoff 1.1e-16.  Each result is then squared s
    times, the squares applied only to the matrices that still need them.

    A float64 stack, or a complex one whose imaginary part is exactly zero
    (the exponents of the real 5-affine rep), is exponentiated in float64
    and returned as float64; any nonzero imaginary part, however small,
    keeps the whole stack complex128.  Other dtypes are promoted to
    complex128 first.  The input is never written to.

    No run of the package calls it: every spacetime exponential is summed in
    closed form from its generators' identity (:mod:`lieforge.spacetime`).
    It stays as the general exponential the tests hold those closed forms
    against.  For matrices of dimension <= 10 and norms of order 10 the
    element-wise error stays well below 1e-10 on either path; the
    inverse-product identity ``mat_exp(A) @ mat_exp(-A) == I`` is the
    advertised accuracy contract.
    A zero matrix comes out as exactly I, with no special case: s = 0 and
    every Horner step adds I to a product with B = 0.  A nilpotent B with
    B @ B == 0 (the translation generators) comes out as exactly I + A.
    """
    a = np.asarray(a)
    a = _square_finite(a if a.dtype == np.float64 else a.astype(complex, copy=False))
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    if a.dtype == complex and not a.imag.any():
        a = a.real
    norms = np.abs(a).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms, 1.0))).astype(int)
    b = a / (2.0**squarings)[:, None, None]
    eye = series = np.eye(n)
    for k in range(18, 0, -1):  # Horner's rule for T_18(B)
        series = eye + series @ b / k
    for i in range(int(squarings.max(initial=0))):
        more = squarings > i
        square = series[more]
        series[more] = square @ square
    return series.reshape(shape)


def decompose_in_basis(m, basis) -> tuple[list[complex], float]:
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

