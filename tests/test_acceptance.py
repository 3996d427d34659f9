"""Acceptance suite: every exit criterion, at its stated tolerance.

Each test prints one line so a plain run (``pytest tests/test_acceptance.py
-v -s``) reads as a checklist.  Tolerances are pinned here, not derived.
"""

import json
import math
import pathlib
import time

import numpy as np

from lieforge.checks import (
    Identity,
    all_passed,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_poincare,
    check_su2_fundamental,
)
from lieforge.generators import (
    GeneratorSet,
    Kind,
    REP4,
    REP22,
    VectorParams,
    gamma,
    gamma5_projectors,
    j2,
    k2,
    momentum,
    rep22_jk,
    rep22_v,
)
from lieforge.linalg import Tolerance, mat_exp
from lieforge.spacetime import (
    affine_generators,
    boost_invariance_check,
    det_interval_check,
    intertwine_sweep,
    rotation_invariance_check,
    translation_check,
)
from lieforge.su_n import boost_obstruction_report, extract_structure, gell_mann
from lieforge.transfer import build_j4, build_k4, extract_coeffs, transfer_reports
from oracles import commutator

TOL = Tolerance()  # abs_eps 1e-12, exp_eps 1e-10
GOLDEN = pathlib.Path(__file__).parent / "golden" / "su3_obstruction.json"


def announce(number, text):
    print(f"ACCEPTANCE {number:2d}: {text} ... PASS")


def test_c01_su2_fundamental_relations():
    J = j2()
    reports = check_su2_fundamental(J, TOL)
    assert len(reports) == 2
    for r in reports:
        assert r.passed and r.max_residual < 1e-12
    check_su2_fundamental(J, TOL)  # warm-up for the timing below
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        check_su2_fundamental(J, TOL)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"runtime {best * 1e3:.3f} ms"
    announce(1, f"18 fundamental bracket identities < 1e-12, runtime {best * 1e3:.3f} ms")


def test_c02_lorentz_closure_three_reps():
    J22, K22 = rep22_jk()
    V = rep22_v()
    a = extract_coeffs(V, J22, TOL)
    b = extract_coeffs(V, K22, TOL)
    extracted_j = GeneratorSet(REP4, Kind.ANGULAR_MOMENTUM, tuple(a.values.transpose(1, 0, 2)))
    extracted_k = GeneratorSet(REP4, Kind.BOOST, tuple(b.values.transpose(1, 0, 2)))
    for name, (J, K) in (
        ("2-rep", (j2(), k2())),
        ("doubled rep", (J22, K22)),
        ("extracted 4-rep", (extracted_j, extracted_k)),
    ):
        reports = check_lorentz(J, K, TOL)
        assert len(reports) == 3  # 3 relations x 9 pairs = 27 identities
        assert all_passed(reports), name
        assert max(r.max_residual for r in reports) < 1e-12
    announce(2, "Lorentz closure (27 identities per rep) in 2-rep, doubled rep, extracted 4-rep")


def test_c03_2rep_failure_demonstration():
    from lieforge.generators import v2

    V, K = v2(1.0, 1.0), k2()
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                sym = commutator(V[i], K[j]) + commutator(V[j], K[i])
                assert float(np.linalg.norm(sym)) < 1e-12
                assert float(np.linalg.norm(commutator(V[i], K[j]))) > 0.1
    assert check_2rep_vk_asymmetry(V, K, TOL).passed
    announce(3, "2-rep [V,K] is antisymmetric (symmetric part < 1e-12), so no momenta there")


def test_c04_poincare_closure_momentum_and_projected():
    J22, K22 = rep22_jk()
    families = {
        "momentum-plus": momentum(VectorParams(-2j, 0.0, 1.0)),
        "momentum-minus": momentum(VectorParams(0.0, 2j, 1.0)),
    }
    p_plus, p_minus = gamma5_projectors(gamma())
    V = rep22_v()
    families["projected-plus"] = GeneratorSet(
        REP22, Kind.MOMENTUM, tuple(p_plus @ V[mu] for mu in range(1, 5))
    )
    families["projected-minus"] = GeneratorSet(
        REP22, Kind.MOMENTUM, tuple(p_minus @ V[mu] for mu in range(1, 5))
    )
    for name, fam in families.items():
        reports = check_poincare(J22, K22, fam, TOL, alpha=1.0, subject=name)
        # 3 closure relations (9 pairs each) + 12 + 12 vector pairs + 16
        # mutual-commutation pairs
        assert {r.identity for r in reports} == {
            Identity.LORENTZ_JJ,
            Identity.LORENTZ_JK,
            Identity.LORENTZ_KK,
            Identity.VECTOR_ROTATION,
            Identity.VECTOR_BOOST,
            Identity.MOMENTA_COMMUTE,
        }
        assert all_passed(reports), name
        assert max(r.max_residual for r in reports) < 1e-12
    announce(4, "Poincaré closure for both momentum branches and both projected families")


def test_c05_extraction_matches_closed_forms():
    rng = np.random.default_rng(17)
    J22, K22 = rep22_jk()
    j4, k4 = build_j4(), build_k4()

    def constants():
        return complex(*rng.uniform(0.5, 2.0, 2))

    cases = []
    for _ in range(5):
        cases.append(VectorParams(constants(), constants(), 1.0))  # both blocks
    for _ in range(3):
        cases.append(VectorParams(constants(), 0.0, 1.0))  # upper only
        cases.append(VectorParams(0.0, constants(), 1.0))  # lower only (swapped)
    for params in cases:
        V = rep22_v(params)
        a = extract_coeffs(V, J22, TOL)
        b = extract_coeffs(V, K22, TOL)
        for i in (1, 2, 3):
            assert float(np.linalg.norm(a.values[:, i - 1] - j4[i])) < 1e-12
            assert float(np.linalg.norm(b.values[:, i - 1] - k4[i])) < 1e-12
    V = rep22_v()
    transfer = transfer_reports(extract_coeffs(V, J22, TOL), extract_coeffs(V, K22, TOL), TOL)
    pair_reports = [r for r in transfer if r.identity is Identity.TRANSFER_COMMUTATION]
    assert {r.subject for r in pair_reports} == {"JJ", "JK", "KJ", "KK"}
    assert all_passed(transfer)
    announce(5, "extracted coefficients equal closed forms; transfer identity holds for all pairs")


def test_c06_finite_transformation_invariants():
    t0 = time.perf_counter()
    rot = rotation_invariance_check(trials=1000, tol=TOL, seed=2)
    boost = boost_invariance_check(trials=1000, tol=TOL, seed=2)
    elapsed = time.perf_counter() - t0
    assert rot.max_residual < 1e-9 and rot.passed
    assert boost.max_residual < 1e-9 and boost.passed
    assert elapsed < 1.0, f"runtime {elapsed:.3f} s"
    announce(
        6,
        f"1000-trial rotation/boost invariance, worst relative error "
        f"{max(rot.max_residual, boost.max_residual):.2e}, runtime {elapsed:.2f} s",
    )


def test_c07_determinant_identity():
    report = det_interval_check(trials=1000, tol=TOL, seed=2)
    assert report.passed and report.max_residual < 1e-12
    announce(7, "-det(x.sigma) equals the squared interval over 1000 draws")


def test_c08_intertwining_gamma_and_affine():
    J22, K22 = rep22_jk()
    j5, k5, p5 = affine_generators()
    families = [(J22, K22, gamma()), (j5, k5, p5)]
    prechecks = [r for J, K, V in families for r in check_poincare(J, K, V, TOL)]
    g, aff = intertwine_sweep(families, prechecks, draws=100, tol=TOL, seed=2)
    assert g.max_residual < 1e-9 and g.passed
    assert aff.max_residual < 1e-9 and aff.passed
    announce(8, "conjugation intertwines with the 4-vector transform (gamma and affine reps)")


def test_c09_affine_generators():
    j5, k5, p5 = affine_generators()
    reports = check_poincare(j5, k5, p5, TOL, alpha=1.0, subject="5-affine")
    assert all_passed(reports)
    assert max(r.max_residual for r in reports) < 1e-12
    # nilpotent translations: one series term, exact displacement
    for mu in range(1, 5):
        for nu in range(1, 5):
            assert np.abs(p5[mu] @ p5[nu]).max() == 0.0
    a = np.array([3.7, -0.25, 1.5, -9.0])
    g = mat_exp(1j * sum(a[m] * p5[m + 1] for m in range(4)))
    expected = np.eye(5, dtype=complex)
    expected[:4, 4] = a
    assert np.abs(g - expected).max() == 0.0
    assert translation_check(p5, trials=100, tol=TOL, seed=2).passed
    announce(9, "5x5 generator families close the full table; translations exponentiate exactly")


def test_c10_su3_obstruction():
    st2 = extract_structure(list(j2().members))
    st3 = extract_structure([l / 2 for l in gell_mann()])
    assert st3.f_residual < 1e-12  # all 64 commutators reconstruct
    assert st3.d_residual < 1e-12
    assert np.abs(st2.d).max() == 0.0
    ob3 = boost_obstruction_report(st3, TOL)
    assert ob3.max_abs_d > 0.5
    golden = json.loads(GOLDEN.read_text())
    assert abs(ob3.max_abs_d - golden["max_abs_d"]) < 1e-12
    assert list(ob3.argmax) == golden["argmax"]
    assert abs(st3.delta_coeff - golden["delta_coeff"]) < 1e-12
    announce(
        10,
        f"su(3) commutators reconstruct but max|d| = {ob3.max_abs_d:.6f} obstructs boosts; "
        "su(2) d-tensor is identically zero",
    )


def test_c11_negative_controls():
    eps = 1e-6
    flips = 0

    def bump(gen_set, member, r, c):
        m = gen_set[member].copy()
        m[r, c] += eps
        return gen_set.with_member(member, m)

    J = j2()
    for member in (1, 2, 3):
        for r in range(2):
            for c in range(2):
                assert not all_passed(check_su2_fundamental(bump(J, member, r, c), TOL))
                flips += 1

    J22, K22 = rep22_jk()
    for gen_set, partner in ((J22, K22), (K22, J22)):
        for member in (1, 2, 3):
            for r in range(4):
                for c in range(4):
                    broken = bump(gen_set, member, r, c)
                    pair = (broken, partner) if gen_set is J22 else (partner, broken)
                    assert not all_passed(check_lorentz(*pair, TOL))
                    flips += 1

    V = rep22_v()
    for member in (1, 2, 3, 4):
        for r in range(4):
            for c in range(4):
                broken = bump(V, member, r, c)
                assert not all_passed(check_poincare(J22, K22, broken, TOL))
                flips += 1

    announce(11, f"every one of {flips} single-entry 1e-6 perturbations flips a check")
