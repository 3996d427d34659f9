import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from lieforge.checks import (
    EPS3,
    Identity,
    ShapeError,
    all_passed,
    bracket_table,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_poincare,
    check_su2_fundamental,
    gamma_match_report,
    make_report,
    reports_to_json_lines,
    residual_report,
)
from lieforge.generators import (
    Branch,
    GAMMA_C_PLUS,
    GeneratorSet,
    Kind,
    REP22,
    Rep,
    VectorParams,
    j2,
    k2,
    momentum,
    pauli,
    rep22_jk,
    rep22_v,
    v2,
)
from lieforge.linalg import commutator
from lieforge.su_n import gell_mann
from lieforge.transfer import build_j4, build_k4

WITNESSES = pathlib.Path(__file__).parent / "golden" / "witnesses.json"


def by_identity(reports, identity):
    return [r for r in reports if r.identity is identity]


def test_su2_fundamental_passes():
    reports = check_su2_fundamental(j2())
    assert [r.identity for r in reports] == [
        Identity.JJ_COMMUTATION,
        Identity.JJ_ANTICOMMUTATION,
    ]
    for r in reports:
        assert r.passed and r.max_residual < 1e-14
        assert r.witness is None


def test_su2_fundamental_broken_scaling():
    # Doubling the first member breaks the commutation table; the worst
    # offender in iteration order is the (1, 2) pair.
    broken = j2().with_member(1, pauli(1))
    reports = check_su2_fundamental(broken)
    comm = by_identity(reports, Identity.JJ_COMMUTATION)[0]
    assert not comm.passed
    assert comm.witness["indices"] == [1, 2]


def test_su2_anticommutators_fail_for_su3_subset():
    # The first three Gell-Mann halves close under commutation (an embedded
    # su(2)) but their anticommutators are not delta_ij / 2 in dimension 3.
    lam = gell_mann()
    trio = GeneratorSet(
        Rep("su3-fund", 3), Kind.ANGULAR_MOMENTUM, tuple(l / 2 for l in lam[:3])
    )
    default = check_su2_fundamental(trio)
    assert [r.identity for r in default] == [Identity.JJ_COMMUTATION]
    assert default[0].passed

    forced = check_su2_fundamental(trio, anticommutators=True)
    anti = by_identity(forced, Identity.JJ_ANTICOMMUTATION)[0]
    assert not anti.passed


def test_su2_fundamental_shape_error():
    with pytest.raises(ShapeError):
        check_su2_fundamental(k2())


def test_lorentz_closure_all_reps():
    assert all_passed(check_lorentz(j2(), k2()))
    assert all_passed(check_lorentz(*rep22_jk()))
    assert all_passed(check_lorentz(build_j4(), build_k4()))


def test_lorentz_shape_errors():
    J, _ = rep22_jk()
    with pytest.raises(ShapeError):
        check_lorentz(J, k2())


def test_poincare_momentum_branches():
    J, K = rep22_jk()
    for params, branch, name in (
        (VectorParams(1.0, 0.0, 1.0), Branch.PLUS, "plus"),
        (VectorParams(0.0, 1.0, 1.0), Branch.MINUS, "minus"),
    ):
        reports = check_poincare(J, K, momentum(params, branch), subject=name)
        assert all_passed(reports), name
        assert by_identity(reports, Identity.MOMENTA_COMMUTE)


def test_poincare_generic_vector_family():
    # A family with both blocks populated satisfies the rotation/boost
    # relations but is not a momentum family: no commutation report is
    # emitted for it, and forcing one (by mislabeling the kind) fails.
    J, K = rep22_jk()
    V = rep22_v(VectorParams(1.0, 1.0, 1.0))
    reports = check_poincare(J, K, V)
    assert all_passed(reports)
    assert not by_identity(reports, Identity.MOMENTA_COMMUTE)

    mislabeled = GeneratorSet(REP22, Kind.MOMENTUM, V.members)
    reports = check_poincare(J, K, mislabeled)
    commute = by_identity(reports, Identity.MOMENTA_COMMUTE)[0]
    assert not commute.passed


def test_poincare_alpha_variants():
    J, K = rep22_jk()
    for alpha in (-1.0, 2.0):
        V = rep22_v(VectorParams(1.0, 1.0, alpha))
        assert all_passed(check_poincare(J, K, V, alpha=alpha))
    # checking at the wrong alpha must fail
    V = rep22_v(VectorParams(1.0, 1.0, 2.0))
    reports = check_poincare(J, K, V, alpha=1.0)
    assert not all_passed(reports)


def test_2rep_vk_asymmetry():
    report = check_2rep_vk_asymmetry()
    assert report.passed
    assert report.identity is Identity.VK_ANTISYMMETRY
    # the demonstration itself: [V^i, K^j] = -[V^j, K^i] != 0 off the diagonal
    V, K = v2(1.0, 1.0), k2()
    c12 = commutator(V[1], K[2])
    c21 = commutator(V[2], K[1])
    assert np.abs(c12 + c21).max() < 1e-15
    assert np.abs(c12).max() > 0.1
    assert np.abs(commutator(V[1], K[1])).max() < 1e-15


def test_gamma_match_report():
    assert gamma_match_report().passed


def test_sensitivity_to_single_entry_perturbation():
    # Any single-entry bump of 1e-6 must flip at least one report.
    base = j2()
    for member in (1, 2, 3):
        for r in range(2):
            for c in range(2):
                bumped = base[member].copy()
                bumped[r, c] += 1e-6
                reports = check_su2_fundamental(base.with_member(member, bumped))
                assert not all_passed(reports), (member, r, c)


def test_report_invariants_and_json_lines():
    good = make_report(Identity.LORENTZ_JJ, 1e-15, 1e-12, subject="x")
    bad = make_report(
        Identity.LORENTZ_JJ, 1.0, 1e-12, subject="x", witness={"indices": [1], "description": "d"}
    )
    assert good.passed and good.witness is None
    assert not bad.passed and bad.witness is not None

    lines = reports_to_json_lines([good, bad]).splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["identity"] == "lorentz-jj"
    assert parsed[0]["passed"] is True
    assert parsed[1]["passed"] is False
    assert set(parsed[0]) >= {"identity", "max_residual", "tolerance", "passed", "witness"}


def test_reports_are_reproducible():
    first = check_su2_fundamental(j2())
    second = check_su2_fundamental(j2())
    for a, b in zip(first, second):
        assert a.max_residual == b.max_residual


def reference_table(A, B, coeffs, T, anti):
    """Plain double loop over index pairs."""
    sign = 1.0 if anti else -1.0
    out = np.zeros((len(A), len(B)))
    for i in range(len(A)):
        for j in range(len(B)):
            lhs = A[i] @ B[j] + sign * (B[j] @ A[i])
            rhs = sum(coeffs[i, j, k] * T[k] for k in range(len(T)))
            out[i, j] = np.linalg.norm(lhs - rhs)
    return out


def random_stack(rng, count, n):
    return rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))


@pytest.mark.parametrize("n", [2, 4, 5, 8])
@pytest.mark.parametrize("anti", [False, True])
def test_bracket_table_matches_double_loop(n, anti):
    rng = np.random.default_rng(100 * n + anti)
    m, p, q = 3, 5, 4
    A, B, T = random_stack(rng, m, n), random_stack(rng, p, n), random_stack(rng, q, n)
    for coeffs in (rng.normal(size=(m, p, q)), rng.normal(size=(m, p, q)) * (1 + 1j)):
        got = bracket_table(A, B, coeffs, T, anti=anti)
        ref = reference_table(A, B, coeffs, T, anti)
        assert got.shape == (m, p)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        report = residual_report(Identity.LORENTZ_JJ, got, 1e-12, "pair (i={}, j={})")
        i, j = (int(k) + 1 for k in np.unravel_index(np.argmax(ref), ref.shape))
        assert report.witness == {"indices": [i, j], "description": f"pair (i={i}, j={j})"}
        assert report.max_residual == got.max()


def test_bracket_table_exact_closure_and_shape_check():
    S = j2().stack
    assert bracket_table(S, S, 1j * EPS3, S).max() < 1e-15
    with pytest.raises(ShapeError):
        bracket_table(S, S, 1j * EPS3[:, :2], S)


def test_residual_report_witness_is_first_maximum_in_row_major_order():
    residuals = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 2.0]])
    report = residual_report(Identity.MOMENTA_COMMUTE, residuals, 1e-12, "pair (mu={}, nu={})")
    assert report.witness == {"indices": [1, 2], "description": "pair (mu=1, nu=2)"}
    assert report.max_residual == 2.0 and not report.passed
    ok = residual_report(Identity.MOMENTA_COMMUTE, np.zeros(4), 1e-12, "member mu={}")
    assert ok.passed and ok.witness is None


def test_bracket_table_forms_one_row_at_a_time():
    # The whole (m, p, n, n) table would be m = 35 slabs; the kernel may hold
    # only a few (p, n, n) slabs at once.
    rng = np.random.default_rng(7)
    size = 35
    A, B, T = (random_stack(rng, size, size) for _ in range(3))
    coeffs = random_stack(rng, size, size)
    slab = B.nbytes
    tracemalloc.start()
    try:
        bracket_table(A, B, coeffs, T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * slab


def failed_witnesses(objs):
    return [
        [o["identity"], o["subject"], o["witness"]["indices"], o["witness"]["description"]]
        for o in objs
        if not o["passed"]
    ]


def test_perturbed_verify_witnesses_match_golden(monkeypatch, capsys):
    from lieforge.cli import main

    monkeypatch.setenv("LIEFORGE_PERTURB", "1e-6")
    assert main(["verify", "--format", "json"]) == 1
    objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reports = [o for o in objs if "identity" in o and "type" not in o]
    golden = json.loads(WITNESSES.read_text())
    assert failed_witnesses(reports) == golden["perturbed-verify"]


def test_perturbed_momentum_witnesses_match_golden():
    J, K = rep22_jk()
    P = momentum(VectorParams(GAMMA_C_PLUS, 0.0, 1.0), Branch.PLUS)
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 0] = 1e-6
    reports = check_poincare(J, K, P.with_member(2, P[2] + bump), subject="momentum-perturbed")
    golden = json.loads(WITNESSES.read_text())
    assert failed_witnesses([r.to_json() for r in reports]) == golden["perturbed-momentum"]
