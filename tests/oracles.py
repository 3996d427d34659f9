"""Reference computations for the tests, in plain numpy.

They share no code with lieforge, so a test that checks the package against
them does not check the package against itself.  The exceptions are
:func:`three_pass_structure`, an earlier form of the package's own su(N)
extraction, :func:`adjoint_closure_table`, the earlier adjoint closure
check, and the ``per_relation_*`` tables, the earlier one call per
relation of the Lorentz, vector-family and transfer tables, kept as
bit-for-bit references; they call ``bracket_table``, which has its own
double-loop tests.  ``bracket_table`` forms each table whole, two
``(m, p, n, n)`` arrays at once; the largest table here, the adjoint
closure of su(7) (48 members of 48 x 48, real), is formed one row at a
time, two arrays of about 0.9 MB.
"""

import numpy as np

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k], _EPS3[_j, _i, _k] = 1.0, -1.0

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


def _half_angle(v, rotation: bool) -> np.ndarray:
    """exp(i v.sigma / 2) if ``rotation`` else exp(v.sigma / 2), for every row
    of a (T, 3) array, as cos|v|/2 + i sin|v|/2 n.sigma or
    cosh|v|/2 + sinh|v|/2 n.sigma with n = v / |v|."""
    t = np.linalg.norm(v, axis=1)
    n_sigma = np.einsum("ti,iab->tab", v / np.where(t == 0.0, 1.0, t)[:, None], _SIGMA[:3])
    if rotation:
        even, odd = np.cos(t / 2), 1j * np.sin(t / 2)
    else:
        even, odd = np.cosh(t / 2), np.sinh(t / 2)
    return even[:, None, None] * _SIGMA[3] + odd[:, None, None] * n_sigma


def covering_map(theta, phi) -> np.ndarray:
    """The 4-vector transforms Lambda^mu_nu = 1/2 tr(sigma^mu A sigma^nu A^dagger)
    of A = exp(phi.sigma / 2) exp(i theta.sigma / 2) in SL(2, C), for every
    row of the (T, 3) arrays ``theta`` and ``phi`` (Sexl and Urbantke,
    Relativity, Groups, Particles, 2001), as a real (T, 4, 4) stack."""
    a = _half_angle(np.asarray(phi, float), False) @ _half_angle(np.asarray(theta, float), True)
    lam = 0.5 * np.einsum("mab,tbc,ncd,tda->tmn", _SIGMA, a, _SIGMA, a.conj().swapaxes(1, 2))
    return lam.real


def three_pass_structure(S) -> tuple[np.ndarray, np.ndarray, float, float]:
    """f, d and the worst commutator and anticommutator reconstruction
    residuals of a hermitian traceless, trace-orthogonal ``(m, n, n)`` stack,
    in three passes: the whole complex trace tensor t[a, b, c] =
    trace(S_a S_b S_c), a row at a time, then one ``bracket_table`` call per
    bracket, with the identity as an extra member of the anticommutator
    table.  f = (Im t_abc - Im t_bac) / kappa and
    d = (Re t_abc + Re t_bac) / kappa, each plus 0.0 so no entry is -0.0."""
    from lieforge.checks import bracket_table

    S = np.asarray(S, dtype=complex)
    m, n = len(S), S.shape[1]
    kappa = float(np.trace(S[0] @ S[0]).real)
    rows = S.transpose(0, 2, 1).reshape(m, -1).T
    t = np.empty((m, m, m), dtype=complex)
    slab = np.empty_like(S)
    for a in range(m):
        np.matmul(S[a], S, out=slab)
        np.matmul(slab.reshape(m, -1), rows, out=t[a])
    f = np.subtract(t.imag, t.imag.transpose(1, 0, 2))
    d = np.add(t.real, t.real.transpose(1, 0, 2))
    for x in (f, d):
        x /= kappa
        x += 0.0
    delta_coeff = 2.0 * kappa / n
    f_res = float(bracket_table(S, S, f, 1j * S).max())
    d_coeffs = np.concatenate([d, delta_coeff * np.eye(m)[:, :, None]], axis=2)
    with_one = np.concatenate([S, np.eye(n, dtype=complex)[None]])
    d_res = float(bracket_table(S, S, d_coeffs, with_one, anti=True).max())
    return f, d, f_res, d_res


def adjoint_closure_table(f) -> np.ndarray:
    """The ``(m, m)`` Frobenius norms of [F_a, F_b] - f_abc F_c for the
    adjoint matrices (F_a)_ce = f_cae of a real ``(m, m, m)`` tensor f, from
    every product F_a F_b: one ``bracket_table`` call per row a, about
    1.5 m^5 multiply-adds in all.  It assumes nothing of f."""
    from lieforge.checks import bracket_table

    F = np.ascontiguousarray(np.transpose(f, (1, 0, 2)))
    return np.concatenate([bracket_table(F[a : a + 1], F, f[a : a + 1], F) for a in range(len(F))])


def _mirrored(table) -> np.ndarray:
    """``table`` with its upper triangle copied into the lower, as the kernel
    returned a stack's table with itself under (anti)symmetric coefficients."""
    lower = np.tril_indices(len(table), -1)
    table[lower] = table.T[lower]
    return table


def per_relation_lorentz(J, K) -> list[np.ndarray]:
    """The JJ, JK and KK residual tables of the ``(3, n, n)`` rotation and
    boost stacks, one ``bracket_table`` call per relation."""
    from lieforge.checks import bracket_table

    i_eps = 1j * _EPS3
    return [
        _mirrored(bracket_table(J, J, i_eps, J)),
        bracket_table(J, K, i_eps, K),
        _mirrored(bracket_table(K, K, -i_eps, J)),
    ]


def per_relation_vector(J, K, V, alpha, momentum: bool) -> list[np.ndarray]:
    """The residual tables of [V^mu, J^j] = i eps(mu, j, k) V^k (eps zero
    at the time index), [V^mu, K^j] = -i (alpha d(j, mu) V^4 +
    (1/alpha) d(4, mu) V^j) and, for a momentum set, [V^mu, V^nu] = 0, one
    ``bracket_table`` call per relation."""
    from lieforge.checks import bracket_table

    alpha = complex(alpha)
    rotation = np.zeros((4, 3, 4), dtype=complex)
    rotation[:3, :, :3] = 1j * _EPS3
    to_time, from_time = np.zeros((2, 4, 3, 4))
    to_time[[0, 1, 2], [0, 1, 2], 3] = from_time[3, [0, 1, 2], [0, 1, 2]] = 1.0
    boost = -1j * (alpha * to_time + (1 / alpha) * from_time)
    tables = [bracket_table(V, J, rotation, V), bracket_table(V, K, boost, V)]
    if momentum:
        tables.append(_mirrored(bracket_table(V, V, np.zeros((4, 4, 4)), V)))
    return tables


def per_relation_transfer(rotations, boosts) -> list[np.ndarray]:
    """The JJ, JK, KJ and KK commutation tables of the 4x4 slices of the
    ``(4, 3, 4)`` coefficient tensors extracted against rotations and boosts,
    one ``bracket_table`` call per relation."""
    from lieforge.checks import bracket_table

    J, K = rotations.transpose(1, 0, 2), boosts.transpose(1, 0, 2)
    i_eps = 1j * _EPS3
    return [
        _mirrored(bracket_table(J, J, i_eps, J)),
        bracket_table(J, K, i_eps, K),
        bracket_table(K, J, i_eps, K),
        _mirrored(bracket_table(K, K, -i_eps, J)),
    ]


def unit_cubic_exp(v, iG, sin) -> np.ndarray:
    """exp(v.iG) as I + sin|v| N + 2 sin^2(|v|/2) N^2 with N = (v/|v|).iG,
    for every row of a (T, 3) array ``v`` and a real (3, n, n) stack ``iG``
    whose unit combinations obey N^3 = -N (``sin`` = ``np.sin``) or
    N^3 = N (``np.sinh``), written as one expression: a bit-for-bit
    reference for the package's kernel on the 4-vector stacks; a zero row
    has axis 0 and gives I."""
    t = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    axes = v / np.where(t == 0.0, 1.0, t)[:, None]
    N = (axes @ iG.reshape(len(iG), -1)).reshape(len(v), *iG.shape[1:])
    out = sin(t)[:, None, None] * N + (2.0 * sin(0.5 * t) ** 2)[:, None, None] * (N @ N)
    return out + np.eye(iG.shape[-1])
