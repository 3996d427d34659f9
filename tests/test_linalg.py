import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lieforge.linalg
from lieforge.linalg import (
    BasisError,
    DimError,
    Tolerance,
    _real_form,
    _times_real_form,
    as_cmatrix,
    decompose_in_basis,
    det,
    frobenius_distance,
    frobenius_norms,
    mat_exp,
    matrix_to_json,
)
from lieforge.generators import j2, pauli
from oracles import anticommutator, commutator

S1, S2, S3, S4 = (pauli(i) for i in (1, 2, 3, 4))


def small_complex_matrices(dim, bound=2.0):
    reals = arrays(
        np.float64,
        (dim, dim),
        elements=st.floats(min_value=-bound, max_value=bound, allow_nan=False),
    )
    return st.builds(lambda a, b: a + 1j * b, reals, reals)


# Checks of the bracket oracles in tests/oracles.py, which the suite compares
# lieforge against.


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


def test_mat_exp_stack_against_scipy_and_single():
    # One seeded stack whose infinity norms are 0, 1e-3, 1, 10 and 40, so the
    # matrices of one batch need 0 to 6 squarings.  As in the real ladder
    # below, the norm-40 members are checked against a 40-digit mpmath
    # exponential, since scipy's own error grows with the norm.
    mpmath = pytest.importorskip("mpmath")
    a = _complex_norm_ladder()
    got = mat_exp(a)
    assert got.shape == a.shape
    for k in range(len(a)):
        if _LADDER_NORMS[k // 4] > 10.0:
            ref = _mpmath_expm(a[k], mpmath)
        else:
            ref = scipy.linalg.expm(a[k])
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert frobenius_distance(got[k], ref) < 1e-12 * scale
        assert frobenius_distance(got[k], mat_exp(a[k])) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 4, 5])
def test_mat_exp_series_equals_the_term_by_term_sum(n):
    # At ||B||_inf <= 1 nothing is squared, so mat_exp returns its degree-18
    # Taylor polynomial; summed term by term, the same polynomial may differ
    # only by rounding, a few units of u = 2^-53 (at most 5.7 u seen).
    u = 2.0**-53
    rng = np.random.default_rng(30 + n)
    real = rng.normal(size=(100, n, n))
    for b in (real, real + 1j * rng.normal(size=(100, n, n))):
        norms = np.abs(b).sum(axis=-1).max(axis=-1)
        b *= (rng.uniform(0.0, 1.0, size=100) / norms)[:, None, None]
        series, term = np.eye(n) + b, b
        for k in range(2, 19):
            term = term @ b / k
            series = series + term
        got = mat_exp(b)
        for k in range(len(b)):
            scale = max(1.0, float(np.linalg.norm(series[k])))
            assert frobenius_distance(got[k], series[k]) <= 16 * u * scale


_LADDER_NORMS = (0.0, 1e-3, 1.0, 10.0, 40.0)


def _real_norm_ladder(seed=12):
    """A seeded real (20, 4, 4) stack whose infinity norms are 0, 1e-3, 1, 10,
    40, four members each."""
    a = np.random.default_rng(seed).normal(size=(5, 4, 4, 4))
    a /= np.abs(a).sum(axis=-1).max(axis=-1)[..., None, None]
    a *= np.array(_LADDER_NORMS)[:, None, None, None]
    return a.reshape(20, 4, 4)


def _complex_norm_ladder(seed=12):
    """The complex counterpart of :func:`_real_norm_ladder`."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 4, 4, 4)) + 1j * rng.normal(size=(5, 4, 4, 4))
    a /= np.abs(a).sum(axis=-1).max(axis=-1)[..., None, None]
    a *= np.array(_LADDER_NORMS)[:, None, None, None]
    return a.reshape(20, 4, 4)


def _mpmath_expm(a, mpmath):
    """exp(a) of a real or complex matrix to 40 digits, rounded to complex128."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)


def test_mat_exp_real_stack_against_scipy():
    # An exactly real stack, float64 or complex with zero imaginary part, takes
    # the float64 path and comes back as float64, bit for bit the same either
    # way, and the input is left as it was.  At norm 40 scipy's expm is itself
    # off by up to 1.8e-12 relative on some seeds (seed 13, member 19), so
    # those members are checked against a 40-digit mpmath exponential instead.
    mpmath = pytest.importorskip("mpmath")
    for seed in (12, 13):
        a = _real_norm_ladder(seed)
        real_path = mat_exp(a).tobytes()
        for stack in (a, a.astype(complex)):
            before = stack.copy()
            got = mat_exp(stack)
            np.testing.assert_array_equal(stack, before)
            assert got.dtype == np.float64 and got.shape == a.shape
            assert got.tobytes() == real_path
            for k in range(len(a)):
                if _LADDER_NORMS[k // 4] > 10.0:
                    ref = _mpmath_expm(a[k], mpmath)
                else:
                    ref = scipy.linalg.expm(a[k])
                scale = max(1.0, float(np.linalg.norm(ref)))
                assert frobenius_distance(got[k], ref) < 1e-12 * scale


def test_mat_exp_complex_norm_ladder_against_mpmath():
    # Every member of the complex ladder (norms 0, 1e-3, 1, 10 and 40, so 0
    # to 6 squarings), products formed by numpy's complex128 matmul, against
    # a 40-digit exponential.  The worst relative error seen on seeds 12-15 is
    # 1.3e-14, at norm 40.
    mpmath = pytest.importorskip("mpmath")
    for seed in (12, 13):
        a = _complex_norm_ladder(seed)
        got = mat_exp(a)
        assert got.dtype == np.complex128
        for k in range(len(a)):
            ref = _mpmath_expm(a[k], mpmath)
            scale = max(1.0, float(np.linalg.norm(ref)))
            assert frobenius_distance(got[k], ref) < 1e-13 * scale


def test_mat_exp_shares_no_kernel_with_the_real_form_products(monkeypatch):
    # The closed forms of the intertwining sweep multiply through the real
    # form; the oracle they are held against must not.
    def refuse(*args, **kwargs):
        raise AssertionError("mat_exp used a real-form product")

    for name in ("_real_form", "_times_real_form"):
        monkeypatch.setattr(lieforge.linalg, name, refuse)
    for a in (_complex_norm_ladder()[:16], _real_norm_ladder()[:16]):
        got = mat_exp(a)
        for k in range(len(a)):
            ref = scipy.linalg.expm(a[k])
            scale = max(1.0, float(np.linalg.norm(ref)))
            assert frobenius_distance(got[k], ref) < 1e-12 * scale


def _gaussian_dyadic(rng, shape):
    """Complex entries with real and imaginary parts in 2^-4 Z, |part| <= 4."""
    return (rng.integers(-64, 65, size=shape) + 1j * rng.integers(-64, 65, size=shape)) / 16


def _real_form_products(x, y):
    """``(x @ y through the real form, x, y)`` for the three layouts the
    package uses, with the complex factors as ``matmul`` broadcasts them:
    matching stacks, each x against every y, and every member of x against
    its trial's y (the intertwining sweep's two products)."""
    layouts = [(x[:, 0], y[:, 0], _real_form(y[:, 0])),
               (x[:, :1], y[0], _real_form(y[0])),
               (x, y[:, :1], _real_form(y[:, 0])[:, None])]
    return [(_times_real_form(a, r), a, b) for a, b, r in layouts]


@pytest.mark.parametrize("n", [2, 4, 5])
def test_real_form_product_is_exact_on_gaussian_dyadic_stacks(n):
    # Entries in 2^-4 Z[i] with small numerators: every product and partial
    # sum is exact, so the real-arithmetic product equals numpy's complex one.
    rng = np.random.default_rng(40 + n)
    x, y = _gaussian_dyadic(rng, (6, 4, n, n)), _gaussian_dyadic(rng, (6, 4, n, n))
    r = _real_form(y[0, 0])
    assert r.shape == (2 * n, 2 * n)
    for k, j in np.ndindex(n, n):
        z = y[0, 0, k, j]
        block = r[2 * k : 2 * k + 2, 2 * j : 2 * j + 2]
        np.testing.assert_array_equal(block, [[z.real, z.imag], [-z.imag, z.real]])
    for got, a, b in _real_form_products(x, y):
        want = a @ b
        assert got.dtype == np.complex128 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _exact_parts(x, y):
    """Per entry of the 2-D product x @ y: the exact real and imaginary
    parts, and the sums of the magnitudes of the 2n real terms of each."""
    F = Fraction
    parts = []
    for i, j in np.ndindex(x.shape[0], y.shape[1]):
        pairs = [(F(x[i, k].real), F(x[i, k].imag), F(y[k, j].real), F(y[k, j].imag))
                 for k in range(x.shape[1])]
        re = [t for a, b, c, d in pairs for t in (a * c, -b * d)]
        im = [t for a, b, c, d in pairs for t in (a * d, b * c)]
        parts.append(((i, j), sum(re), sum(map(abs, re)), sum(im), sum(map(abs, im))))
    return parts


@pytest.mark.parametrize("n", [2, 4, 5])
def test_real_form_product_is_within_gamma_2n_of_the_exact_product(n):
    # Each part of an entry is a real dot product of 2n terms, so in any
    # summation order its error is at most gamma_2n = 2nu / (1 - 2nu) times
    # the sum of the terms' magnitudes (Higham 2002, ch. 3), measured here
    # against the exact rational product.
    u = Fraction(1, 2**53)
    gamma = 2 * n * u / (1 - 2 * n * u)
    rng = np.random.default_rng(50 + n)
    shape = (3, 4, n, n)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for got, a, b in _real_form_products(x, y):
        lead = got.shape[:-2]
        assert np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) == lead
        a, b = np.broadcast_to(a, (*lead, n, n)), np.broadcast_to(b, (*lead, n, n))
        for index in np.ndindex(lead):
            for (i, j), re, re_mag, im, im_mag in _exact_parts(a[index], b[index]):
                z = got[index][i, j]
                assert abs(Fraction(z.real) - re) <= gamma * re_mag
                assert abs(Fraction(z.imag) - im) <= gamma * im_mag


def test_mat_exp_real_nilpotent_stack_is_exactly_i_plus_a():
    a = np.zeros((3, 5, 5))
    a[:, :4, 4] = np.random.default_rng(14).uniform(-10.0, 10.0, size=(3, 4))
    np.testing.assert_array_equal(mat_exp(a), np.eye(5) + a)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_mat_exp_mixed_stack_keeps_zero_and_nilpotent_members_exact(dtype):
    # Zero matrices run the same series as the others: exp(0) = I comes out
    # of the last Horner step, I plus a product with 0, and a nilpotent N
    # (N @ N == 0) comes out as I + N after its squarings.  The general
    # member A equals its own exponential, computed alone, bit for bit.
    rng = np.random.default_rng(15)
    A = 3.0 * rng.normal(size=(4, 4)).astype(dtype)
    N = np.zeros((4, 4), dtype=dtype)
    N[:3, 3] = rng.uniform(-10.0, 10.0, size=3)
    if dtype == np.complex128:
        A += 3j * rng.normal(size=(4, 4))
        N[:3, 3] *= 1.0 - 2.0j
    zero = np.zeros((4, 4), dtype=dtype)
    got = mat_exp(np.stack([zero, A, N, zero]))
    assert got.dtype == dtype
    np.testing.assert_array_equal(got[0], np.eye(4))
    assert got[1].tobytes() == mat_exp(A).tobytes()
    ref = scipy.linalg.expm(A)
    assert frobenius_distance(got[1], ref) < 1e-12 * max(1.0, float(np.linalg.norm(ref)))
    np.testing.assert_array_equal(got[2], np.eye(4) + N)
    np.testing.assert_array_equal(got[3], np.eye(4))


def test_mat_exp_tiny_imaginary_part_takes_the_complex_path():
    # One 1e-300j entry sends the whole stack through complex arithmetic; the
    # real members still agree with their own (real-path) exponentials.
    a = _real_norm_ladder().astype(complex)
    a[7, 2, 1] += 1e-300j
    got = mat_exp(a)
    assert got.dtype == np.complex128 and got[7].imag.any()
    for k in range(len(a)):
        scale = max(1.0, float(np.linalg.norm(got[k])))
        assert frobenius_distance(got[k], mat_exp(a[k])) <= 1e-14 * scale


def test_mat_exp_stack_shapes_and_validation():
    a = 0.5j * np.stack([S1, S2, S3, S4]).reshape(2, 2, 2, 2)
    got = mat_exp(a)
    assert got.shape == (2, 2, 2, 2)
    np.testing.assert_allclose(got[1, 0], mat_exp(a[1, 0]), atol=1e-15)
    with pytest.raises(DimError):
        mat_exp(np.zeros((3, 2, 3)))
    with pytest.raises(DimError):
        mat_exp(np.zeros(3))
    with pytest.raises(ValueError):
        mat_exp(np.array([np.eye(2), [[np.inf, 0], [0, 0]]]))


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
    obj = json.loads(json.dumps(matrix_to_json(m)))
    assert obj == {"dim": 2, "entries": [[[1.0, 2.0], [0.0, 0.0]], [[0.0, -0.5], [3.0, 0.0]]]}
    entries = np.array(obj["entries"])
    np.testing.assert_array_equal(entries[..., 0] + 1j * entries[..., 1], m)


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
