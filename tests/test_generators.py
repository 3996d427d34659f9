import numpy as np
import pytest

from lieforge.generators import (
    GeneratorSet,
    Kind,
    ParamError,
    REP2,
    REP22,
    VectorParams,
    gamma,
    gamma5,
    gamma5_projectors,
    j2,
    k2,
    momentum,
    pauli,
    rep22_jk,
    rep22_v,
    v2,
)
from oracles import (
    anticommutator,
    commutator,
    doubled_jk,
    doubled_vector,
    is_hermitian_traceless,
)


def test_pauli_table():
    np.testing.assert_array_equal(pauli(1), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(pauli(2), [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(pauli(3), [[1, 0], [0, -1]])
    np.testing.assert_array_equal(pauli(4), np.eye(2))


@pytest.mark.parametrize("bad", [0, 5, -1])
def test_pauli_index_error(bad):
    with pytest.raises(IndexError):
        pauli(bad)


def test_j2_members():
    J = j2()
    np.testing.assert_array_equal(J[3], [[0.5, 0], [0, -0.5]])
    for i in (1, 2, 3):
        assert abs(np.trace(J[i])) == 0.0
    np.testing.assert_allclose(J[1] @ J[1], np.eye(2) / 4, atol=0)
    assert is_hermitian_traceless(J.members)


def test_k2_members():
    K = k2()
    J = j2()
    np.testing.assert_array_equal(K[3], [[0.5j, 0], [0, -0.5j]])
    for i in (1, 2, 3):
        assert np.abs(K[i] - 1j * J[i]).max() == 0.0
    # boosts close back onto rotations with a minus sign
    np.testing.assert_allclose(commutator(K[1], K[2]), -1j * J[3], atol=1e-15)


def test_v2_members():
    assert np.abs(v2(1, 1)[4] - np.eye(2)).max() == 0.0
    np.testing.assert_array_equal(v2(2, 0)[1], pauli(1))
    zeros = v2(0, 0)
    assert all(np.abs(zeros[m]).max() == 0.0 for m in range(1, 5))


def test_v2_rotation_relation_random_constants():
    rng = np.random.default_rng(5)
    J = j2()
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    for _ in range(10):
        c = complex(rng.normal(), rng.normal())
        c4 = complex(rng.normal(), rng.normal())
        V = v2(c, c4)
        for mu in range(1, 5):
            for j in range(1, 4):
                if mu <= 3:
                    rhs = 1j * sum(eps[mu - 1, j - 1, k - 1] * V[k] for k in range(1, 4))
                else:
                    rhs = np.zeros((2, 2))
                np.testing.assert_allclose(commutator(V[mu], J[j]), rhs, atol=1e-14)


def test_rep22_blocks():
    J, K = rep22_jk()
    np.testing.assert_allclose(np.diag(J[3]), [0.5, -0.5, 0.5, -0.5], atol=0)
    np.testing.assert_allclose(np.diag(K[3]), [0.5j, -0.5j, -0.5j, 0.5j], atol=0)
    np.testing.assert_allclose(commutator(J[1], J[2]), 1j * J[3], atol=1e-15)
    assert is_hermitian_traceless(J.members)


@pytest.mark.parametrize("alpha", [1.0, -1.0, 2.0, 0.5 + 0.5j])
def test_doubled_construction_matches_block_forms(alpha):
    # The Kronecker construction equals the hand-placed 2x2 blocks entry for
    # entry, for generic complex constants and on both momentum branches.
    rng = np.random.default_rng(15)
    cp, cm = (complex(*rng.normal(size=2)) for _ in range(2))
    J, K = rep22_jk()
    J_ref, K_ref = doubled_jk()
    np.testing.assert_array_equal(J.stack, J_ref)
    np.testing.assert_array_equal(K.stack, K_ref)
    np.testing.assert_array_equal(rep22_v(VectorParams(cp, cm, alpha)).stack,
                                  doubled_vector(cp, cm, alpha))
    for plus, minus in ((cp, 0), (0, cm)):
        P = momentum(VectorParams(plus, minus, alpha))
        assert P.kind is Kind.MOMENTUM
        np.testing.assert_array_equal(P.stack, doubled_vector(plus, minus, alpha))


def test_rep22_v_time_member():
    V = rep22_v(VectorParams(1, 1, 1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = np.eye(2) / 2
    expected[2:, :2] = -np.eye(2) / 2
    np.testing.assert_allclose(V[4], expected, atol=0)


def test_rep22_v_zero_constants():
    V = rep22_v(VectorParams(0, 0, 1))
    assert all(np.abs(V[m]).max() == 0.0 for m in range(1, 5))


def test_alpha_zero_rejected():
    with pytest.raises(ParamError):
        VectorParams(1, 1, 0)


def test_vk_collapses_onto_time_member():
    # For any constants, the spatial [V, K] commutators are delta_ij times
    # the time member scaled by -i*alpha, and [V4, K] returns the spatial
    # members scaled by -i/alpha.
    rng = np.random.default_rng(9)
    _, K = rep22_jk()
    for alpha in (1.0, -1.0, 2.0, float(rng.uniform(0.5, 3.0))):
        cp = complex(rng.normal(), rng.normal())
        cm = complex(rng.normal(), rng.normal())
        V = rep22_v(VectorParams(cp, cm, alpha))
        for i in range(1, 4):
            for j in range(1, 4):
                rhs = -1j * alpha * V[4] if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(commutator(V[i], K[j]), rhs, atol=1e-13)
        for j in range(1, 4):
            np.testing.assert_allclose(
                commutator(V[4], K[j]), (-1j / alpha) * V[j], atol=1e-13
            )


def test_momentum_branches():
    p_plus = momentum(VectorParams(1, 0, 1))
    p_minus = momentum(VectorParams(0, 1, 1))
    for P in (p_plus, p_minus):
        for mu in range(1, 5):
            for nu in range(1, 5):
                # strictly one-sided blocks: products (not just commutators) vanish
                assert np.abs(P[mu] @ P[nu]).max() == 0.0
    assert np.abs(p_plus[1][2:, :]).max() == 0.0
    assert np.abs(p_minus[1][:2, :]).max() == 0.0


def test_momentum_rejects_mixed_constants():
    with pytest.raises(ParamError):
        momentum(VectorParams(1, 1, 1))


def test_momentum_zero_constants_give_zero_family():
    P = momentum(VectorParams(0, 0, 1))
    assert P.kind is Kind.MOMENTUM
    np.testing.assert_array_equal(P.stack, np.zeros((4, 4, 4)))


def test_gamma_table():
    g = gamma()
    expected4 = np.zeros((4, 4), dtype=complex)
    expected4[:2, 2:] = -1j * np.eye(2)
    expected4[2:, :2] = -1j * np.eye(2)
    np.testing.assert_allclose(g[4], expected4, atol=0)


def test_gamma_equals_default_vector_family():
    g = gamma()
    V = rep22_v()
    for mu in range(1, 5):
        assert np.abs(g[mu] - V[mu]).max() == 0.0


def test_gamma_clifford_pattern():
    # {g_i, g_j} = +2 delta_ij, {g_4, g_4} = -2, mixed pairs vanish: the
    # anticommutators reproduce the (+,+,+,-) metric.
    g = gamma()
    eye = np.eye(4)
    for mu in range(1, 5):
        for nu in range(1, 5):
            ac = anticommutator(g[mu], g[nu])
            if mu != nu:
                assert np.abs(ac).max() < 1e-14
            elif mu <= 3:
                np.testing.assert_allclose(ac, 2 * eye, atol=1e-14)
            else:
                np.testing.assert_allclose(ac, -2 * eye, atol=1e-14)


def test_gamma5_and_projectors():
    np.testing.assert_allclose(gamma5(gamma()), np.diag([1, 1, -1, -1]), atol=1e-15)
    p_plus, p_minus = gamma5_projectors(gamma())
    np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-15)
    np.testing.assert_allclose(p_minus @ p_minus, p_minus, atol=1e-15)
    assert np.abs(p_plus @ p_minus).max() < 1e-15
    np.testing.assert_allclose(p_plus + p_minus, np.eye(4), atol=0)


def test_gamma5_reads_its_gamma_set():
    # Negating one member negates the product: the chirality comes from the
    # set passed in.
    g = gamma()
    flipped = g.with_member(2, -g[2])
    assert np.abs(gamma5(flipped) - np.diag([1, 1, -1, -1])).max() == 2.0
    np.testing.assert_array_equal(gamma5(flipped), -gamma5(g))


def test_projectors_cut_momentum_branches():
    g = gamma()
    p_plus, p_minus = gamma5_projectors(g)
    from_proj_plus = [p_plus @ g[mu] for mu in range(1, 5)]
    from_proj_minus = [p_minus @ g[mu] for mu in range(1, 5)]
    branch_plus = momentum(VectorParams(-2j, 0, 1))
    branch_minus = momentum(VectorParams(0, 2j, 1))
    for mu in range(4):
        assert np.abs(from_proj_plus[mu] - branch_plus[mu + 1]).max() < 1e-15
        assert np.abs(from_proj_minus[mu] - branch_minus[mu + 1]).max() < 1e-15


def test_generator_set_indexing():
    J = j2()
    assert len(J) == 3
    with pytest.raises(IndexError):
        J[0]
    with pytest.raises(IndexError):
        J[4]


def test_generator_set_with_member():
    J = j2()
    replaced = J.with_member(1, pauli(1))
    assert np.abs(replaced[1] - pauli(1)).max() == 0.0
    # original untouched
    assert np.abs(J[1] - pauli(1) / 2).max() == 0.0


def test_generator_set_members_read_only():
    J = j2()
    with pytest.raises(ValueError):
        J[1][0, 0] = 5.0


def test_generator_set_members_are_views_of_one_stack():
    V = rep22_v()
    assert V.stack.shape == (4, 4, 4) and not V.stack.flags.writeable
    for mu in range(1, 5):
        assert V[mu].base is V.stack
        assert np.array_equal(V[mu], V.stack[mu - 1])


def test_generator_set_shape_validation():
    with pytest.raises(ValueError):
        GeneratorSet(REP2, Kind.VECTOR, (pauli(1), pauli(2)))
    with pytest.raises(ValueError):
        GeneratorSet(REP22, Kind.BOOST, (pauli(1), pauli(2), pauli(3)))
    nan = pauli(3)
    nan[0, 1] = np.nan
    for members in (
        (pauli(1), np.zeros((2, 3)), pauli(3)),  # a non-square member
        (pauli(1), nan, pauli(2)),  # a non-finite member
        (pauli(1), np.eye(3), pauli(3)),  # members of mixed dimension
    ):
        with pytest.raises(ValueError):
            GeneratorSet(REP2, Kind.BOOST, members)
