import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from lieforge.checks import EPS3
from lieforge.generators import SU3_ADJOINT, Rep, j2, pauli
from lieforge.linalg import BasisError
from lieforge.su_n import (
    StructureTensors,
    adjoint_from_f,
    boost_obstruction_report,
    extract_structure,
    gell_mann,
    generalized_gell_mann,
    structure_reports,
)
from lieforge.transfer import build_j4

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


def test_adjoint_from_f_su2_matches_spatial_blocks():
    st = extract_structure(list(j2().members))
    adj = adjoint_from_f(st)
    assert adj.rep.dim == 3
    j4 = build_j4()
    for i in (1, 2, 3):
        np.testing.assert_allclose(adj[i], j4[i][:3, :3], atol=1e-14)
    assert adj.is_hermitian_traceless()


def test_adjoint_from_f_su3():
    st = extract_structure([l / 2 for l in gell_mann()])
    adj = adjoint_from_f(st)
    assert len(adj) == 8 and adj.rep.dim == 8
    assert adj.is_hermitian_traceless()
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
        ([l / 2 for l in gell_mann()], SU3_ADJOINT),
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
    assert adj.is_hermitian_traceless()
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


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("conjugated", [False, True], ids=["gell-mann", "haar"])
def test_structure_tensors_satisfy_exact_sum_rules(n, conjugated):
    # With trace(T_a T_b) = delta_ab / 2 (Haber, arXiv:1912.13302):
    # sum f^2 = N (N^2 - 1), sum d^2 = (N^2 - 4)(N^2 - 1) / N, and max|d| is
    # |d| of the last Cartan generator with itself.  All three are invariant
    # under conjugation by a unitary.
    basis = [g / 2 for g in generalized_gell_mann(n)]
    if conjugated:
        u = haar_unitary(np.random.default_rng(n), n)
        basis = [u @ g @ u.conj().T for g in basis]
    st = extract_structure(basis)

    def close(got, exact):
        return abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    assert close(float(np.sum(st.f**2)), n * (n * n - 1))
    assert close(float(np.sum(st.d**2)), (n * n - 4) * (n * n - 1) / n)
    assert close(float(np.abs(st.d).max()), math.sqrt(2.0) * (n - 2) / math.sqrt(n * (n - 1)))
    assert st.f_residual < 1e-12 and st.d_residual < 1e-12


def test_adjoint_from_zero_f():
    st = StructureTensors(
        n=2, f=np.zeros((3, 3, 3)), d=np.zeros((3, 3, 3)), delta_coeff=0.5,
        f_residual=0.0, d_residual=0.0,
    )
    adj = adjoint_from_f(st)
    assert all(np.abs(adj[i]).max() == 0.0 for i in (1, 2, 3))


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
    back = StructureTensors.from_json(st.to_json())
    assert back.n == st.n
    assert np.array_equal(back.f, st.f)
    assert np.array_equal(back.d, st.d)
    assert back.delta_coeff == st.delta_coeff
