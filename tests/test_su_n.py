import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from lieforge.checks import EPS3
from lieforge.generators import Rep, adjoint_rep, j2, pauli
from lieforge.linalg import DEFAULT_TOL, BasisError
from lieforge.su_n import (
    StructureTensors,
    _jacobiator_norms,
    adjoint_from_f,
    boost_obstruction_report,
    extract_structure,
    gell_mann,
    generalized_gell_mann,
    structure_reports,
)
from lieforge.transfer import build_j4
from oracles import adjoint_closure_table, is_hermitian_traceless, three_pass_structure

GOLDEN = pathlib.Path(__file__).parent / "golden" / "su3_obstruction.json"

# Standard su(3) structure constants (independent reference values), given on
# ordered index triples; the full tensors follow by (anti)symmetry.
F_TABLE = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5,
    (1, 5, 6): -0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 6, 7): -0.5,
    (4, 5, 8): math.sqrt(3) / 2,
    (6, 7, 8): math.sqrt(3) / 2,
}
D_TABLE = {
    (1, 1, 8): 1 / math.sqrt(3),
    (2, 2, 8): 1 / math.sqrt(3),
    (3, 3, 8): 1 / math.sqrt(3),
    (8, 8, 8): -1 / math.sqrt(3),
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
    (4, 4, 8): -1 / (2 * math.sqrt(3)),
    (5, 5, 8): -1 / (2 * math.sqrt(3)),
    (6, 6, 8): -1 / (2 * math.sqrt(3)),
    (7, 7, 8): -1 / (2 * math.sqrt(3)),
}


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def full_tensor(table, antisymmetric):
    t = np.zeros((8, 8, 8))
    for (a, b, c), v in table.items():
        for perm in itertools.permutations((a, b, c)):
            s = perm_sign(perm) if antisymmetric else 1
            t[perm[0] - 1, perm[1] - 1, perm[2] - 1] = s * v
    return t


def test_gell_mann_table():
    lam = gell_mann()
    assert len(lam) == 8
    np.testing.assert_array_equal(lam[0][:2, :2], pauli(1))
    assert np.abs(lam[0][2, :]).max() == 0.0
    np.testing.assert_allclose(np.diag(lam[2]), [1, -1, 0], atol=0)
    np.testing.assert_allclose(
        np.diag(lam[7]), np.array([1, 1, -2]) / math.sqrt(3), atol=1e-15
    )


def test_gell_mann_trace_orthogonality():
    lam = gell_mann()
    for a in range(8):
        for b in range(8):
            expected = 2.0 if a == b else 0.0
            assert complex(np.trace(lam[a] @ lam[b])) == pytest.approx(expected, abs=1e-13)


def test_generalized_reduces_to_pauli():
    for built, ref in zip(generalized_gell_mann(2), (pauli(1), pauli(2), pauli(3))):
        np.testing.assert_array_equal(built, ref)


def test_generalized_su4():
    gens = generalized_gell_mann(4)
    assert len(gens) == 15
    for a, g in enumerate(gens):
        assert np.abs(g - g.conj().T).max() < 1e-14
        assert abs(np.trace(g)) < 1e-14
        for b, h in enumerate(gens):
            expected = 2.0 if a == b else 0.0
            assert complex(np.trace(g @ h)) == pytest.approx(expected, abs=1e-13)


def test_generalized_requires_n_at_least_two():
    with pytest.raises(ValueError):
        generalized_gell_mann(1)


def test_extract_structure_su2():
    st = extract_structure(list(j2().members))
    assert st.n == 2
    np.testing.assert_allclose(st.f, EPS3, atol=1e-14)
    assert np.abs(st.d).max() == 0.0
    assert st.delta_coeff == pytest.approx(0.5)
    assert st.f_residual < 1e-14 and st.d_residual < 1e-14


def test_extract_structure_su3_matches_reference_tables():
    st = extract_structure([l / 2 for l in gell_mann()])
    assert st.n == 3
    np.testing.assert_allclose(st.f, full_tensor(F_TABLE, antisymmetric=True), atol=1e-13)
    np.testing.assert_allclose(st.d, full_tensor(D_TABLE, antisymmetric=False), atol=1e-13)
    assert st.delta_coeff == pytest.approx(1.0 / 3.0)
    assert st.f_residual < 1e-12 and st.d_residual < 1e-12


def test_structure_tensor_symmetries():
    st = extract_structure([l / 2 for l in gell_mann()])
    for perm in itertools.permutations(range(3)):
        s = perm_sign(perm)
        np.testing.assert_allclose(st.f, s * np.transpose(st.f, perm), atol=1e-13)
        np.testing.assert_allclose(st.d, np.transpose(st.d, perm), atol=1e-13)


def test_extract_single_generator():
    st = extract_structure([pauli(3) / 2])
    assert np.abs(st.f).max() == 0.0
    assert np.abs(st.d).max() == 0.0  # trace of J^3 vanishes
    assert st.delta_coeff == pytest.approx(0.5)
    assert st.d_residual < 1e-14


def test_extract_rejects_bad_bases():
    J = j2()
    with pytest.raises(BasisError):
        extract_structure([J[1], J[1] + J[2], J[3]])
    with pytest.raises(BasisError):
        extract_structure([np.eye(2)])
    with pytest.raises(BasisError):
        extract_structure([])


def test_extract_accepts_a_valid_basis_at_any_scale():
    # The input checks are relative to max|S| and kappa: scaled by 1e4, a
    # Haar-conjugated su(4) basis still passes them, and f and d scale with it.
    st = extract_structure(haar_basis(4))
    big = extract_structure([1e4 * g for g in haar_basis(4)])
    np.testing.assert_allclose(big.f, 1e4 * st.f, rtol=0, atol=1e-10)
    np.testing.assert_allclose(big.d, 1e4 * st.d, rtol=0, atol=1e-10)


def test_extract_rejects_a_non_orthogonal_basis_at_small_scale():
    basis = [1e-5 * g / 2 for g in gell_mann()]
    basis[1] = basis[0] + basis[1]
    with pytest.raises(BasisError, match="generators 1, 2 are not trace-orthogonal"):
        extract_structure(basis)


def test_extract_rejects_a_non_hermitian_generator_at_small_scale():
    basis = [1e-10 * g for g in j2().members]
    basis[2] = 1j * basis[2]
    with pytest.raises(BasisError, match="generator 3 is not hermitian traceless"):
        extract_structure(basis)


def test_adjoint_from_f_su2_matches_spatial_blocks():
    st = extract_structure(list(j2().members))
    adj = adjoint_from_f(st)
    assert adj.rep.dim == 3
    j4 = build_j4()
    for i in (1, 2, 3):
        np.testing.assert_allclose(adj[i], j4[i][:3, :3], atol=1e-14)
    assert is_hermitian_traceless(adj.members)


def test_adjoint_from_f_su3():
    st = extract_structure([l / 2 for l in gell_mann()])
    adj = adjoint_from_f(st)
    assert len(adj) == 8 and adj.rep.dim == 8
    assert is_hermitian_traceless(adj.members)
    # closure is verified inside adjoint_from_f; spot-check one bracket
    lhs = adj[1] @ adj[2] - adj[2] @ adj[1]
    rhs = 1j * sum(st.f[0, 1, c] * adj[c + 1] for c in range(8))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def su2_plus_u1():
    lam = gell_mann()
    return [lam[a] / 2 for a in (0, 1, 2, 7)]


@pytest.mark.parametrize(
    "basis, rep",
    [
        ([l / 2 for l in gell_mann()], adjoint_rep(3)),
        ([pauli(3) / 2], Rep("adjoint", 1)),
        (su2_plus_u1(), Rep("adjoint", 4)),
    ],
    ids=["su3", "single-generator", "su2+u1"],
)
def test_adjoint_from_f_labels_by_member_count(basis, rep):
    # Only a full su(N) family is an su(N) adjoint; a smaller closed family
    # gets a plain label of its own dimension instead of a guessed N.
    st = extract_structure(basis)
    adj = adjoint_from_f(st)
    m = len(basis)
    assert adj.rep == rep and len(adj) == m
    assert is_hermitian_traceless(adj.members)
    for a in range(m):
        for b in range(m):
            lhs = adj[a + 1] @ adj[b + 1] - adj[b + 1] @ adj[a + 1]
            rhs = 1j * sum(st.f[a, b, c] * adj[c + 1] for c in range(m))
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def haar_unitary(rng, n):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_basis(n):
    """The generalized Gell-Mann basis / 2 conjugated by a seeded Haar unitary."""
    u = haar_unitary(np.random.default_rng(n), n)
    return [u @ (g / 2) @ u.conj().T for g in generalized_gell_mann(n)]


@pytest.mark.parametrize("n", range(2, 7))
def test_trace_tensor_matches_per_triple_traces(n):
    # The parts of t_abc = trace(S_a S_b S_c) that extract_structure returns,
    # f_abc = (t_abc - t_bac) / (i kappa) and d_abc = (t_abc + t_bac) / kappa,
    # against traces taken one triple at a time.  Each is two traces over
    # kappa, and each trace is held to 1e-15 kappa.
    S = np.stack(haar_basis(n))
    m = len(S)
    kappa = np.trace(S[0] @ S[0]).real
    traces = np.array(
        [[[np.trace(S[a] @ S[b] @ S[c]) for c in range(m)] for b in range(m)] for a in range(m)]
    )
    ref_f = (traces - traces.transpose(1, 0, 2)).imag / kappa
    ref_d = (traces + traces.transpose(1, 0, 2)).real / kappa
    st = extract_structure(list(S))
    assert np.abs(st.f - ref_f).max() <= 2e-15
    assert np.abs(st.d - ref_d).max() <= 2e-15


def gamma(k):
    """gamma_k = k u / (1 - k u), u = 2^-53 (Higham 2002, ch. 3)."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def two_route_bounds(S, f, d, f_res, d_res):
    """Bounds on the difference between two extractions of the stack S: one
    per entry of f and d, one per residual, given the f, d and residuals of
    one of them.  Each extraction forms every product of two matrices, every
    trace and every reconstruction as sums of real products, so for either,
    with T_abc = trace(|S_a||S_b||S_c|) + trace(|S_b||S_a||S_c|), an entry of
    f or d is within E_abc = sqrt(2) gamma_{2n^2 + 2n + 3} T_abc / kappa of
    its exact value; a reconstruction residual matrix is within
    W_ab = sqrt(2) gamma_{2n + 2} H_ab + sum_c (sqrt(2) gamma_{2m + 3} |g_abc|
    + E_abc) |M_c| of its exact one, with H_ab = |S_a||S_b| + |S_b||S_a|, g
    and M the coefficients and members (f and i S, or d plus delta_coeff
    delta_ab and [S; 1]), and its norm is rounded by gamma_{2n^2 + 1}
    relative.  The derivation is in CHANGES.md; magnitudes are taken from the
    given extraction, which moves them only at second order in u."""
    m, n = len(S), S.shape[1]
    kappa = float(np.trace(S[0] @ S[0]).real)
    abs_S = np.abs(S)
    rows = abs_S.reshape(m, n * n)
    G = abs_S[:, None] @ abs_S[None]
    H = (G + G.transpose(1, 0, 2, 3)).reshape(m * m, n * n)
    E = math.sqrt(2) * gamma(2 * n * n + 2 * n + 3) * (H @ abs_S.transpose(0, 2, 1).reshape(m, -1).T) / kappa
    g = math.sqrt(2) * gamma(2 * m + 3)
    W = math.sqrt(2) * gamma(2 * n + 2) * H + E @ rows
    W_f = W + g * np.abs(f).reshape(m * m, m) @ rows
    W_d = W + g * np.abs(d).reshape(m * m, m) @ rows
    W_d.reshape(m, m, -1)[np.arange(m), np.arange(m), :: n + 1] += g * 2.0 * kappa / n
    norm = gamma(2 * n * n + 1)
    return (
        2 * E.reshape(m, m, m),
        2 * np.linalg.norm(W_f, axis=1).max() + 2 * norm * f_res,
        2 * np.linalg.norm(W_d, axis=1).max() + 2 * norm * d_res,
    )


def oracle_and_bounds(basis):
    ref = three_pass_structure(np.stack(basis))
    return ref, two_route_bounds(np.stack(basis), *ref)


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("conjugated", [False, True], ids=["gell-mann", "haar"])
def test_extract_structure_matches_the_three_pass_oracle(n, conjugated):
    # The single pass forms its products in real arithmetic, the oracle with
    # complex matmul, so they round differently: f, d and both residuals
    # agree to within the sum of the two routes' gamma_k bounds.  On the
    # sigma / 2 trio every step is exact and they agree bit for bit.
    basis = haar_basis(n) if conjugated else [g / 2 for g in generalized_gell_mann(n)]
    st = extract_structure(basis)
    (f, d, f_res, d_res), (entry, f_res_bound, d_res_bound) = oracle_and_bounds(basis)
    assert (np.abs(st.f - f) <= entry).all() and (np.abs(st.d - d) <= entry).all()
    assert abs(st.f_residual - f_res) <= f_res_bound
    assert abs(st.d_residual - d_res) <= d_res_bound
    if n == 2 and not conjugated:
        for x, y in zip((st.f, st.d, st.f_residual, st.d_residual), (f, d, f_res, d_res)):
            np.testing.assert_array_equal(x, y)


def test_a_bumped_generator_fails_the_two_route_bound():
    # A 2^-40 bump to one entry of one generator (still hermitian, and
    # traceless and orthogonal to within the input checks) moves f and d by
    # more than the rounding bound: the bound does not hide a change of that
    # size, at the N where it is loosest.
    basis = haar_basis(9)
    (f, d, _, _), (entry, _, _) = oracle_and_bounds(basis)
    basis[0] = basis[0].copy()
    basis[0][0, 0] += 2.0**-40
    st = extract_structure(basis)
    assert (np.abs(st.f - f) > entry).any() and (np.abs(st.d - d) > entry).any()


def test_su2_structure_tensors_have_no_negative_zeros():
    st = extract_structure(list(j2().members))
    for tensor in (st.f, st.d):
        assert not np.signbit(tensor[tensor == 0.0]).any()


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("conjugated", [False, True], ids=["gell-mann", "haar"])
def test_structure_tensors_satisfy_exact_sum_rules(n, conjugated):
    # With trace(T_a T_b) = delta_ab / 2 (Haber, arXiv:1912.13302):
    # sum f^2 = N (N^2 - 1), sum d^2 = (N^2 - 4)(N^2 - 1) / N, and max|d| is
    # |d| of the last Cartan generator with itself.  All three are invariant
    # under conjugation by a unitary.
    st = extract_structure(haar_basis(n) if conjugated else [g / 2 for g in generalized_gell_mann(n)])

    def close(got, exact):
        return abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    assert close(float(np.sum(st.f**2)), n * (n * n - 1))
    assert close(float(np.sum(st.d**2)), (n * n - 4) * (n * n - 1) / n)
    assert close(float(np.abs(st.d).max()), math.sqrt(2.0) * (n - 2) / math.sqrt(n * (n - 1)))
    assert st.f_residual < 1e-12 and st.d_residual < 1e-12


def test_adjoint_stack_is_i_times_the_transposed_f():
    st = extract_structure([g / 2 for g in generalized_gell_mann(4)])
    adj = adjoint_from_f(st)
    np.testing.assert_array_equal(adj.stack, 1j * st.f.transpose(1, 0, 2))
    assert not adj.stack.flags.writeable


def test_adjoint_from_zero_f():
    st = StructureTensors(
        n=2, f=np.zeros((3, 3, 3)), d=np.zeros((3, 3, 3)), delta_coeff=0.5,
        f_residual=0.0, d_residual=0.0,
    )
    adj = adjoint_from_f(st)
    assert all(np.abs(adj[i]).max() == 0.0 for i in (1, 2, 3))


@pytest.mark.parametrize("antisymmetric", [True, False], ids=["breaks-jacobi", "not-antisymmetric"])
def test_adjoint_from_f_rejects_an_f_that_does_not_close(antisymmetric):
    # A random f antisymmetric in (a, b) fails the Jacobi identity, so its
    # adjoint matrices do not close; the closure table then has coefficients
    # (anti)symmetric or not, covering the mirrored and the full table.
    raw = np.random.default_rng(11).normal(size=(3, 3, 3))
    f = raw - raw.transpose(1, 0, 2) if antisymmetric else raw
    st = StructureTensors(
        n=2, f=f, d=np.zeros((3, 3, 3)), delta_coeff=0.5, f_residual=0.0, d_residual=0.0,
    )
    with pytest.raises(ValueError, match="fail to close"):
        adjoint_from_f(st)


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("conjugated", [False, True], ids=["gell-mann", "haar"])
def test_extracted_f_is_exactly_antisymmetric_and_d_exactly_symmetric(n, conjugated):
    # f_bac is 0.0 - f_abc and d_bac is d_abc bit for bit, with no -0.0,
    # including the pairs that one row block forms in both orders.
    st = extract_structure(haar_basis(n) if conjugated else [g / 2 for g in generalized_gell_mann(n)])
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
    assert np.array_equal(bits(st.f), bits(0.0 - st.f.swapaxes(0, 1)))
    assert np.array_equal(bits(st.d), bits(st.d.swapaxes(0, 1)))
    for tensor in (st.f, st.d):
        assert not np.signbit(tensor[tensor == 0.0]).any()


def jacobiator_and_oracle(f):
    f = np.array(f, dtype=float)
    return _jacobiator_norms(f), adjoint_closure_table(f)


def assert_close_to_oracle(got, ref):
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-14 * np.maximum(1.0, ref)).all()


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("conjugated", [False, True], ids=["gell-mann", "haar"])
def test_jacobiator_norms_match_the_product_table(n, conjugated):
    # Per pair, the sorted-triple Jacobiator against every product F_a F_b:
    # su(2) and su(3) take the one-block route, su(4) to su(7) the sorted
    # triples one middle index at a time.
    st = extract_structure(haar_basis(n) if conjugated else [g / 2 for g in generalized_gell_mann(n)])
    got, ref = jacobiator_and_oracle(st.f)
    assert_close_to_oracle(got, ref)
    assert got.max() < 1e-14


@pytest.mark.parametrize("n", [4, 6])
def test_a_bumped_f_fails_both_closure_routes(n):
    # A 1e-9 bump to f_abc, and -1e-9 to f_bac, keeps f exactly
    # antisymmetric but breaks the Jacobi identity: both routes see it.
    f = extract_structure(haar_basis(n)).f.copy()
    f[0, 1, 2] += 1e-9
    f[1, 0, 2] -= 1e-9
    got, ref = jacobiator_and_oracle(f)
    assert_close_to_oracle(got, ref)
    assert ref.max() > DEFAULT_TOL.abs_eps
    st = StructureTensors(n=n, f=f, d=np.zeros_like(f), delta_coeff=0.5, f_residual=0.0, d_residual=0.0)
    with pytest.raises(ValueError, match="fail to close, residual"):
        adjoint_from_f(st)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16])
def test_jacobiator_norms_of_a_random_antisymmetric_f(m):
    # Random f antisymmetric in (a, b) breaks the Jacobi identity at m >= 3;
    # m <= 9 takes the one-block route, 10 and 16 the sorted triples.  At
    # m = 1 and 2 every triple repeats an index, so the residual is 0.
    raw = np.random.default_rng(m).normal(size=(m, m, m))
    f = raw - raw.transpose(1, 0, 2)
    got, ref = jacobiator_and_oracle(f)
    assert_close_to_oracle(got, ref)
    st = StructureTensors(n=2, f=f, d=np.zeros_like(f), delta_coeff=0.5, f_residual=0.0, d_residual=0.0)
    if m < 3:
        assert got.max() == 0.0
        assert len(adjoint_from_f(st)) == m
    else:
        assert ref.max() > DEFAULT_TOL.abs_eps
        with pytest.raises(ValueError, match="fail to close, residual"):
            adjoint_from_f(st)


@pytest.mark.parametrize(
    "basis, rep",
    [
        ([pauli(3) / 2], Rep("adjoint", 1)),
        ([gell_mann()[a] / 2 for a in (2, 7)], Rep("adjoint", 2)),
        (su2_plus_u1(), Rep("adjoint", 4)),
    ],
    ids=["m=1", "m=2 commuting", "su2+u1"],
)
def test_small_families_close_on_both_routes(basis, rep):
    st = extract_structure(basis)
    got, ref = jacobiator_and_oracle(st.f)
    assert_close_to_oracle(got, ref)
    assert adjoint_from_f(st).rep == rep


def test_zero_f_has_zero_jacobiator_on_both_routes():
    for m in (3, 12):
        got, ref = jacobiator_and_oracle(np.zeros((m, m, m)))
        assert got.max() == 0.0 and ref.max() == 0.0


def test_adjoint_from_f_takes_signed_zeros_as_antisymmetric():
    # -0.0 below the diagonal mirrors 0.0 above it.
    f = np.zeros((3, 3, 3))
    f[np.tril_indices(3)] = -0.0
    st = StructureTensors(n=2, f=f, d=f, delta_coeff=0.5, f_residual=0.0, d_residual=0.0)
    assert all(np.abs(g).max() == 0.0 for g in adjoint_from_f(st).members)


@pytest.mark.parametrize(
    "entry, value, message",
    [
        ((1, 0, 2), 0.75, r"f\[1, 2, 3\] = 0\.5 but f\[2, 1, 3\] = 0\.75"),
        ((0, 0, 1), 1e-300, r"f\[1, 1, 2\] = 1e-300 but f\[1, 1, 2\] = 1e-300"),
        ((1, 0, 2), np.nan, r"f\[1, 2, 3\] = 0\.5 but f\[2, 1, 3\] = nan"),
    ],
    ids=["off by 0.25", "nonzero diagonal", "nan"],
)
def test_adjoint_from_f_refuses_an_f_that_is_not_antisymmetric(entry, value, message):
    f = 0.5 * EPS3
    f[entry] = value
    st = StructureTensors(n=2, f=f, d=np.zeros((3, 3, 3)), delta_coeff=0.5, f_residual=0.0, d_residual=0.0)
    with pytest.raises(ValueError, match="not antisymmetric in \\(a, b\\), " + message):
        adjoint_from_f(st)


def test_adjoint_from_f_refuses_a_non_finite_residual():
    # An infinite entry, antisymmetric, makes the residual NaN: refused.
    f = 0.5 * EPS3
    f[0, 1, 2], f[1, 0, 2] = np.inf, -np.inf
    st = StructureTensors(n=2, f=f, d=np.zeros((3, 3, 3)), delta_coeff=0.5, f_residual=0.0, d_residual=0.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="fail to close, residual nan"):
        adjoint_from_f(st)


def test_adjoint_from_f_holds_no_m4_table():
    # At su(6) (m = 35) the closure holds F, the m^3 triple sums and two
    # buffers of m^3 / 4, and lets F go before the returned complex stack
    # is built (1j F and its copy, 4 m^3): far below one m^4 table (35 m^3).
    st = extract_structure(haar_basis(6))
    m = st.f.shape[0]
    tracemalloc.start()
    try:
        adjoint_from_f(st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * m**3 * 8


def test_extract_structure_holds_no_whole_table_copy():
    # Beyond f and d (2 m^3 floats together), the extraction may hold only a
    # few (m, n, n) slabs: S, its transposed rows, i S and S with 1; both
    # products of a row block (one row at N = 9), their traces, the
    # commutators and the coefficients.  No trace tensor, no complex copy of
    # f or of the d table, and no second copy of f and d in StructureTensors.
    n = 9
    basis = [g / 2 for g in generalized_gell_mann(n)]
    m = len(basis)
    slab = m * n * n * 16
    tracemalloc.start()
    try:
        extract_structure(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m**3 * 8 + 12 * slab


def test_structure_tensors_copy_what_the_caller_can_write():
    # A caller's writeable array, or a read-only view of one, is copied; the
    # read-only tensors extract_structure builds are kept as they are.
    f = np.zeros((3, 3, 3))
    d = np.ones((3, 3, 3))
    read_only = d.view()
    read_only.flags.writeable = False
    for d_in in (d, read_only):
        st = StructureTensors(
            n=2, f=f, d=d_in, delta_coeff=0.5, f_residual=0.0, d_residual=0.0,
        )
        assert not np.shares_memory(st.f, f) and not np.shares_memory(st.d, d)
        assert not st.f.flags.writeable and not st.d.flags.writeable
    f[0, 1, 2] = d[0, 0, 0] = 7.0
    assert st.f[0, 1, 2] == 0.0 and st.d[0, 0, 0] == 1.0
    built = extract_structure(list(j2().members))
    again = StructureTensors(
        n=2, f=built.f, d=built.d, delta_coeff=0.5, f_residual=0.0, d_residual=0.0,
    )
    assert again.f is built.f and again.d is built.d


def test_obstruction_reports():
    st2 = extract_structure(list(j2().members))
    ob2 = boost_obstruction_report(st2)
    assert not ob2.obstructed
    assert ob2.max_abs_d == 0.0

    st3 = extract_structure([l / 2 for l in gell_mann()])
    ob3 = boost_obstruction_report(st3)
    assert ob3.obstructed
    assert ob3.max_abs_d == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    assert ob3.argmax == (1, 1, 8)
    assert ob3.delta_coeff == pytest.approx(1.0 / 3.0)


def test_obstruction_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    st3 = extract_structure([l / 2 for l in gell_mann()])
    ob3 = boost_obstruction_report(st3)
    assert abs(ob3.max_abs_d - golden["max_abs_d"]) < 1e-12
    assert list(ob3.argmax) == golden["argmax"]
    assert abs(ob3.delta_coeff - golden["delta_coeff"]) < 1e-12


def test_structure_reports_expectations():
    st2 = extract_structure(list(j2().members))
    st3 = extract_structure([l / 2 for l in gell_mann()])
    assert all(r.passed for r in structure_reports(st2))
    assert all(r.passed for r in structure_reports(st3))
    # wrong expectation flips the obstruction report
    flipped = structure_reports(st3, expect_obstructed=False)
    assert not all(r.passed for r in flipped)


def test_structure_tensors_json_round_trip():
    st = extract_structure(list(j2().members))
    back = json.loads(json.dumps(st.to_json()))
    assert back["n"] == st.n
    assert np.array_equal(back["f"], st.f)
    assert np.array_equal(back["d"], st.d)
    assert back["delta_coeff"] == st.delta_coeff
