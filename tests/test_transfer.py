import json

import numpy as np
import pytest

from lieforge.checks import EPS3, Identity, all_passed
from lieforge.generators import (
    GeneratorSet,
    Kind,
    REP22,
    VectorParams,
    gamma,
    momentum,
    rep22_jk,
    rep22_v,
)
from lieforge.linalg import BasisError, decompose_in_basis
from lieforge.transfer import (
    InconsistentBlocksError,
    NotVClosedError,
    SourceKind,
    build_j4,
    build_k4,
    extract_coeffs,
    transfer_reports,
)
from oracles import commutator


def rotation_tensor():
    """Closed-form expectation: values[mu, i, nu] = i * eps(mu, i, nu)."""
    t = np.zeros((4, 3, 4), dtype=complex)
    for mu in range(3):
        for i in range(3):
            for nu in range(3):
                t[mu, i, nu] = 1j * EPS3[mu, i, nu]
    return t


def boost_tensor(alpha=1.0):
    """Closed-form expectation:
    values[mu, j, nu] = -i (alpha d(j,mu) d(4,nu) + d(j,nu) d(4,mu) / alpha)."""
    t = np.zeros((4, 3, 4), dtype=complex)
    for j in range(3):
        t[j, j, 3] += -1j * alpha
        t[3, j, j] += -1j / alpha
    return t


def test_closed_forms():
    j4, k4 = build_j4(), build_k4()
    assert j4[3][0, 1] == -1j and j4[3][1, 0] == 1j
    assert np.count_nonzero(j4[3]) == 2
    assert k4[1][0, 3] == -1j and k4[1][3, 0] == -1j
    assert np.count_nonzero(k4[1]) == 2
    for i in (1, 2, 3):
        # rotations never touch the time slot; boosts are symmetric
        assert np.abs(j4[i][3, :]).max() == 0.0
        assert np.abs(j4[i][:, 3]).max() == 0.0
        assert np.abs(j4[i] + j4[i].T).max() == 0.0
        assert np.abs(k4[i] - k4[i].T).max() == 0.0


def test_extract_canonical():
    J22, K22 = rep22_jk()
    V = rep22_v()
    a = extract_coeffs(V, J22)
    b = extract_coeffs(V, K22)
    assert a.source_kind is SourceKind.FROM_J
    assert b.source_kind is SourceKind.FROM_K
    assert a.note is None and b.note is None
    np.testing.assert_allclose(a.values, rotation_tensor(), atol=1e-14)
    np.testing.assert_allclose(b.values, boost_tensor(), atol=1e-14)
    j4, k4 = build_j4(), build_k4()
    for i in (1, 2, 3):
        assert np.abs(a.values[:, i - 1] - j4[i]).max() < 1e-14
        assert np.abs(b.values[:, i - 1] - k4[i]).max() < 1e-14


def test_extract_random_constants():
    # The rotation tensor is independent of the constants and of alpha; the
    # boost tensor depends on alpha exactly through its two delta terms.
    rng = np.random.default_rng(21)
    J22, K22 = rep22_jk()
    for alpha in (1.0, -1.0, 2.0):
        for _ in range(5):
            cp = complex(*rng.uniform(0.5, 2.0, 2))
            cm = complex(*rng.uniform(0.5, 2.0, 2))
            V = rep22_v(VectorParams(cp, cm, alpha))
            a = extract_coeffs(V, J22)
            b = extract_coeffs(V, K22)
            np.testing.assert_allclose(a.values, rotation_tensor(), atol=1e-12)
            np.testing.assert_allclose(b.values, boost_tensor(alpha), atol=1e-12)


def _per_pair_coeffs(V, A):
    """The definition, one pair at a time: each [V^mu, A^i] has its upper
    block (its lower block for a family with zero upper blocks) decomposed
    over the same blocks of V."""
    at = np.s_[:2, 2:] if np.abs(V.stack[:, :2, 2:]).max() > 0 else np.s_[2:, :2]
    basis = [V[mu][at] for mu in range(1, 5)]
    return np.array(
        [
            [decompose_in_basis(commutator(V[mu], A[i])[at], basis)[0] for i in range(1, 4)]
            for mu in range(1, 5)
        ]
    )


def test_extract_equals_the_per_pair_definition():
    rng = np.random.default_rng(23)
    params = [
        VectorParams(complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2)), alpha)
        for alpha in (1.0, -1.0, 2.0, 0.37)
        for _ in range(3)
    ]
    families = [gamma()] + [rep22_v(p) for p in params]
    families += [momentum(VectorParams(1.5, 0.0, 1.0))]
    families += [momentum(VectorParams(0.0, -0.7j, 2.0))]
    for V in families:
        for A in rep22_jk():
            np.testing.assert_array_equal(extract_coeffs(V, A).values, _per_pair_coeffs(V, A))


def test_extract_reports_the_first_failing_pair():
    # The lower time block is flipped, so the pairs [V^j, K^j] have
    # inconsistent blocks; the off-diagonal member [[0, s3], [s3, 0]] leaks
    # into the diagonal blocks.  The earliest failing pair is reported, with
    # the first check it fails.
    V = rep22_v(VectorParams(1.0, 1.0, 1.0))
    bad_time = V[4].copy()
    bad_time[2:, :2] = -bad_time[2:, :2]
    broken = GeneratorSet(REP22, Kind.VECTOR, (V[1], V[2], V[3], bad_time))
    K22 = rep22_jk()[1]
    leak = np.kron([[0, 1], [1, 0]], np.diag([1.0, -1.0]))
    gap_first = GeneratorSet(REP22, Kind.BOOST, (K22[1], K22[2], leak))
    with pytest.raises(InconsistentBlocksError, match=r"^\[V\^1, A\^1\] block decompositions"):
        extract_coeffs(broken, gap_first)
    leak_first = GeneratorSet(REP22, Kind.BOOST, (K22[2], leak, K22[1]))
    with pytest.raises(NotVClosedError, match=r"^\[V\^1, A\^2\] has diagonal blocks"):
        extract_coeffs(broken, leak_first)


def test_extract_single_block_families():
    J22, K22 = rep22_jk()
    plus = momentum(VectorParams(1.5, 0.0, 1.0))
    minus = momentum(VectorParams(0.0, -0.7j, 1.0))
    for fam, side in ((plus, "upper"), (minus, "lower")):
        a = extract_coeffs(fam, J22)
        b = extract_coeffs(fam, K22)
        assert side in a.note
        np.testing.assert_allclose(a.values, rotation_tensor(), atol=1e-13)
        np.testing.assert_allclose(b.values, boost_tensor(), atol=1e-13)


def test_extract_identity_trio_gives_zero():
    eye = np.eye(4, dtype=complex)
    trio = GeneratorSet(REP22, Kind.BOOST, (eye, eye, eye))
    t = extract_coeffs(rep22_v(), trio)
    assert np.abs(t.values).max() == 0.0


def test_extract_rejects_zero_family():
    V = rep22_v(VectorParams(0.0, 0.0, 1.0))
    with pytest.raises(BasisError):
        extract_coeffs(V, rep22_jk()[0])


def test_extract_rejects_dependent_blocks():
    V = rep22_v(VectorParams(1.0, 0.0, 1.0))
    # overwrite the time member with a copy of the first: upper blocks now
    # span only three directions
    broken = GeneratorSet(REP22, Kind.VECTOR, (V[1], V[2], V[3], V[1]))
    with pytest.raises(BasisError):
        extract_coeffs(broken, rep22_jk()[0])


def test_extract_rejects_off_span_commutators():
    # Commuting against off-diagonal generators leaks into the diagonal
    # blocks, where no vector matrix lives.
    g = gamma()
    trio = GeneratorSet(REP22, Kind.BOOST, (g[1], g[2], g[3]))
    with pytest.raises(NotVClosedError):
        extract_coeffs(rep22_v(), trio)


def test_extract_rejects_inconsistent_blocks():
    # Flip the sign of the lower time block: each block family is still an
    # independent basis, but the two decompositions of [V^i, K^j] disagree.
    V = rep22_v(VectorParams(1.0, 1.0, 1.0))
    bad_time = V[4].copy()
    bad_time[2:, :2] = -bad_time[2:, :2]
    broken = GeneratorSet(REP22, Kind.VECTOR, (V[1], V[2], V[3], bad_time))
    with pytest.raises(InconsistentBlocksError):
        extract_coeffs(broken, rep22_jk()[1])


def test_extract_requires_off_diagonal_family():
    J22, K22 = rep22_jk()
    with pytest.raises(ValueError):
        extract_coeffs(GeneratorSet(REP22, Kind.VECTOR, (J22[1], J22[2], J22[3], np.eye(4))), J22)


def test_extract_deterministic():
    J22, _ = rep22_jk()
    a = extract_coeffs(rep22_v(), J22)
    b = extract_coeffs(rep22_v(), J22)
    assert np.array_equal(a.values, b.values)


def test_verify_transfer_all_pass():
    J22, K22 = rep22_jk()
    reports = transfer_reports(extract_coeffs(rep22_v(), J22), extract_coeffs(rep22_v(), K22))
    assert all_passed(reports)
    subjects = {r.subject for r in reports if r.identity is Identity.TRANSFER_COMMUTATION}
    assert subjects == {"JJ", "JK", "KJ", "KK"}
    kk = [r for r in reports if r.identity is Identity.LORENTZ_KK][0]
    assert "alternative" in kk.note


def test_extracted_slices_close_like_the_originals():
    # Transferred generators satisfy the same bracket table as their sources.
    J22, K22 = rep22_jk()
    V = rep22_v()
    a = extract_coeffs(V, J22)
    b = extract_coeffs(V, K22)
    from lieforge.checks import check_lorentz
    from lieforge.generators import REP4

    jt = GeneratorSet(REP4, Kind.ANGULAR_MOMENTUM, tuple(a.values.transpose(1, 0, 2)))
    kt = GeneratorSet(REP4, Kind.BOOST, tuple(b.values.transpose(1, 0, 2)))
    assert all_passed(check_lorentz(jt, kt))


def test_coeff_tensor_json_round_trip():
    J22, _ = rep22_jk()
    t = extract_coeffs(rep22_v(), J22)
    back = json.loads(json.dumps(t.to_json()))
    assert SourceKind(back["source_kind"]) is t.source_kind
    values = np.array(back["values"])
    assert np.array_equal(values[..., 0] + 1j * values[..., 1], t.values)


def test_adjoint_pattern_matches_spatial_blocks():
    # The extracted rotation slices are the adjoint rep of the fundamental
    # trio, padded with a zero time row and column.
    j4 = build_j4()
    for i in range(3):
        np.testing.assert_allclose(j4[i + 1][:3, :3], 1j * EPS3[:, i, :], atol=0)
