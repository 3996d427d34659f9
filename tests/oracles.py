"""Reference computations for the tests, in plain numpy.

They share no code with lieforge, so a test that checks the package against
them does not check the package against itself.
"""

import numpy as np

_SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]], [[1, 0], [0, 1]]],
    dtype=complex,
)


def doubled_jk() -> tuple[np.ndarray, np.ndarray]:
    """The doubled angular momenta diag(T, T) and boosts diag(iT, -iT), for
    T = sigma / 2, each a (3, 4, 4) stack of 2x2-block matrices."""
    z = np.zeros((2, 2))
    half = _SIGMA[:3] / 2
    return (
        np.array([np.block([[t, z], [z, t]]) for t in half]),
        np.array([np.block([[1j * t, z], [z, -1j * t]]) for t in half]),
    )


def doubled_vector(c_plus, c_minus, alpha) -> np.ndarray:
    """The doubled vector family as a (4, 4, 4) stack of 2x2-block matrices:
    c_plus (T, 1 / (2 alpha)) in the upper-right blocks and
    c_minus (T, -1 / (2 alpha)) in the lower-left, for T = sigma / 2."""
    z = np.zeros((2, 2))
    upper = [c_plus * t for t in _SIGMA[:3] / 2] + [c_plus * _SIGMA[3] / (2 * alpha)]
    lower = [c_minus * t for t in _SIGMA[:3] / 2] + [-c_minus * _SIGMA[3] / (2 * alpha)]
    return np.array([np.block([[z, u], [l, z]]) for u, l in zip(upper, lower)])


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """AB + BA."""
    return a @ b + b @ a


def is_hermitian_traceless(members) -> bool:
    """Whether every matrix of ``members`` is hermitian and traceless to within 1e-9."""
    return all(
        np.abs(m - m.conj().T).max() <= 1e-9 and abs(np.trace(m)) <= 1e-9 for m in members
    )


def interval_sq_via_det(x) -> float:
    """The squared interval x1^2 + x2^2 + x3^2 - x4^2 as -det(sum_mu x^mu sigma^mu)."""
    return float(-np.linalg.det(np.tensordot(x, _SIGMA, axes=1)).real)


def affine_matrix(linear, shift) -> np.ndarray:
    """The 5x5 append-one matrix [[linear, shift], [0, 1]]."""
    m = np.eye(5)
    m[:4, :4] = linear
    m[:4, 4] = shift
    return m


def affine_apply(m, x) -> np.ndarray:
    """The image linear @ x + shift of a four-vector under a 5x5 append-one matrix."""
    return (m @ np.append(x, 1.0))[:4]
