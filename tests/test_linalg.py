import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lieforge.linalg import (
    BasisError,
    DimError,
    Tolerance,
    as_cmatrix,
    anticommutator,
    commutator,
    decompose_in_basis,
    det,
    frobenius_distance,
    frobenius_norms,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
)
from lieforge.generators import j2, pauli

S1, S2, S3, S4 = (pauli(i) for i in (1, 2, 3, 4))


def small_complex_matrices(dim, bound=2.0):
    reals = arrays(
        np.float64,
        (dim, dim),
        elements=st.floats(min_value=-bound, max_value=bound, allow_nan=False),
    )
    return st.builds(lambda a, b: a + 1j * b, reals, reals)


def test_commutator_su2_fundamental():
    J = j2()
    np.testing.assert_allclose(commutator(J[1], J[2]), 1j * J[3], atol=1e-15)


def test_commutator_self_is_zero():
    a = S1 + 2j * S3
    assert np.abs(commutator(a, a)).max() == 0.0


def test_commutator_paulis():
    # sigma1 @ sigma2 = i sigma3 by direct 2x2 multiplication, so the
    # commutator is 2i sigma3.
    expected = np.array([[2j, 0], [0, -2j]])
    np.testing.assert_allclose(commutator(S1, S2), expected, atol=0)


def test_commutator_dim_mismatch():
    with pytest.raises(DimError):
        commutator(S1, np.eye(3))


def test_anticommutator_su2():
    J = j2()
    assert np.abs(anticommutator(J[1], J[2])).max() < 1e-15
    np.testing.assert_allclose(anticommutator(J[1], J[1]), 0.5 * np.eye(2), atol=1e-15)


def test_anticommutator_with_zero():
    z = np.zeros((2, 2))
    assert np.abs(anticommutator(S2, z)).max() == 0.0


@settings(max_examples=50, deadline=None)
@given(small_complex_matrices(3), small_complex_matrices(3))
def test_commutator_antisymmetry(a, b):
    np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(small_complex_matrices(3), small_complex_matrices(3))
def test_anticommutator_symmetry(a, b):
    np.testing.assert_allclose(anticommutator(a, b), anticommutator(b, a), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(small_complex_matrices(4), small_complex_matrices(4))
def test_commutator_traceless(a, b):
    assert abs(np.trace(commutator(a, b))) < 1e-12


def test_mat_exp_zero():
    np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=0)


def test_mat_exp_diagonal():
    # exp(i * 2pi * J3) = diag(e^{i pi}, e^{-i pi}) = -identity.
    J = j2()
    np.testing.assert_allclose(mat_exp(2j * np.pi * J[3]), -np.eye(2), atol=1e-14)


def test_mat_exp_boost_block():
    # The generator with -i at (1,4) and (4,1): i*phi times it exponentiates,
    # on the {1,4} block, to [[cosh, sinh], [sinh, cosh]].
    k1 = np.zeros((4, 4), dtype=complex)
    k1[0, 3] = -1j
    k1[3, 0] = -1j
    got = mat_exp(1j * k1)
    expected = np.eye(4, dtype=complex)
    expected[0, 0] = expected[3, 3] = math.cosh(1.0)
    expected[0, 3] = expected[3, 0] = math.sinh(1.0)
    np.testing.assert_allclose(got, expected, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(small_complex_matrices(3, bound=1.5))
def test_mat_exp_inverse_product(a):
    np.testing.assert_allclose(mat_exp(a) @ mat_exp(-a), np.eye(3), atol=1e-10)


def test_mat_exp_similarity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = np.eye(4) + 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        pinv = np.linalg.inv(p)
        lhs = mat_exp(p @ a @ pinv)
        rhs = p @ mat_exp(a) @ pinv
        assert frobenius_distance(lhs, rhs) < 1e-10 * max(1.0, float(np.abs(rhs).max()))


def test_mat_exp_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert frobenius_distance(mat_exp(a), scipy.linalg.expm(a)) < 1e-11


def test_decompose_basis_member():
    basis = [S1, S2, S3, S4]
    coeffs, residual = decompose_in_basis(S3, basis)
    np.testing.assert_allclose(coeffs, [0, 0, 1, 0], atol=1e-14)
    assert residual < 1e-14


def test_decompose_round_trip():
    basis = [S1, S2, S3, S4]
    coeffs, residual = decompose_in_basis(2 * S1 + 3j * S4, basis)
    np.testing.assert_allclose(coeffs, [2, 0, 0, 3j], atol=1e-14)
    assert residual < 1e-13


def test_decompose_off_span():
    _, residual = decompose_in_basis(S3, [S4])
    assert residual > 0.1


def test_decompose_random_round_trip():
    rng = np.random.default_rng(3)
    basis = [S1, S2, S3, S4]
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = sum(ck * bk for ck, bk in zip(c, basis))
        coeffs, residual = decompose_in_basis(m, basis)
        np.testing.assert_allclose(coeffs, c, atol=1e-12)
        assert residual < 1e-12


def test_decompose_rank_deficient():
    with pytest.raises(BasisError):
        decompose_in_basis(S3, [S1, 2 * S1])


def test_decompose_empty_basis():
    with pytest.raises(BasisError):
        decompose_in_basis(S3, [])


def test_det_values():
    assert det(np.eye(2)) == pytest.approx(1)
    # sigma1 + 2*identity = [[2,1],[1,2]], determinant 2*2 - 1*1 = 3
    assert det(S1 + 2 * S4) == pytest.approx(3)
    assert det(S3) == pytest.approx(-1)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 35])
def test_frobenius_norms_are_bit_identical_to_single_norms(n):
    rng = np.random.default_rng(n)
    real = rng.normal(size=(6, n, n)) * 1e-16
    stack = real + 1j * rng.normal(size=(6, n, n)) * 1e-16
    for s in (stack, real):
        assert frobenius_norms(s).tolist() == [np.linalg.norm(m) for m in s]
    pairs = stack.reshape(2, 3, n, n)
    assert frobenius_norms(pairs).tolist() == [[np.linalg.norm(m) for m in row] for row in pairs]


def test_frobenius_distance():
    assert frobenius_distance(S1, S1) == 0.0
    assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(math.sqrt(2))
    # sigma1 - sigma2 has entries 1+i and 1-i, each of squared modulus 2.
    assert frobenius_distance(S1, S2) == pytest.approx(2.0)
    with pytest.raises(DimError):
        frobenius_distance(S1, np.eye(3))


def test_matrix_json_round_trip():
    m = np.array([[1 + 2j, 0], [-0.5j, 3]])
    obj = matrix_to_json(m)
    assert obj["dim"] == 2
    np.testing.assert_allclose(matrix_from_json(obj), m, atol=0)


def test_matrix_json_malformed():
    with pytest.raises(DimError):
        matrix_from_json({"dim": 2, "entries": [[[1, 0]]]})


def test_as_cmatrix_validation():
    with pytest.raises(DimError):
        as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.nan, 0], [0, 0]]))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=1e-8, exp_eps=1e-10)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)
