import dataclasses
import json
import pathlib

import numpy as np
import pytest

import lieforge.checks as checks
import lieforge.transfer as transfer
from lieforge.checks import (
    EPS3,
    CheckReport,
    Identity,
    ShapeError,
    all_passed,
    bracket_table,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_poincare,
    check_su2_fundamental,
    gamma_match_report,
    residual_report,
    vector_relation_reports,
)
from lieforge.cli import _projected
from lieforge.generators import (
    GAMMA_C_MINUS,
    GAMMA_C_PLUS,
    GeneratorSet,
    Kind,
    REP22,
    Rep,
    VectorParams,
    gamma,
    j2,
    k2,
    momentum,
    pauli,
    rep22_jk,
    rep22_v,
    v2,
)
from lieforge.linalg import frobenius_norms
from lieforge.spacetime import affine_generators
from lieforge.su_n import gell_mann
from lieforge.transfer import build_j4, build_k4, extract_coeffs, transfer_reports
from oracles import commutator, per_relation_lorentz, per_relation_transfer, per_relation_vector

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
    reports = check_su2_fundamental(trio)
    assert [r.identity for r in reports] == [
        Identity.JJ_COMMUTATION,
        Identity.JJ_ANTICOMMUTATION,
    ]
    assert reports[0].passed
    assert not reports[1].passed


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
    for params, name in (
        (VectorParams(1.0, 0.0, 1.0), "plus"),
        (VectorParams(0.0, 1.0, 1.0), "minus"),
    ):
        reports = check_poincare(J, K, momentum(params), subject=name)
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


def test_vector_relation_reports_adds_momenta_commute_for_momenta_only():
    J, K = rep22_jk()
    V = rep22_v(VectorParams(1.0, 1.0, 1.0))
    P = momentum(VectorParams(1.0, 0.0, 1.0))
    pinned = [
        (V, ["vector-rotation", "vector-boost"]),
        (P, ["vector-rotation", "vector-boost", "momenta-commute"]),
    ]
    for family, identities in pinned:
        reports = vector_relation_reports(J, K, family, subject="pinned")
        assert [r.identity.value for r in reports] == identities
        assert {r.subject for r in reports} == {"pinned"}
        assert all_passed(reports)
        assert check_poincare(J, K, family) == check_lorentz(J, K) + vector_relation_reports(
            J, K, family
        )


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
    good = CheckReport(Identity.LORENTZ_JJ, 1e-15, 1e-12, subject="x")
    bad = CheckReport(
        Identity.LORENTZ_JJ, 1.0, 1e-12, subject="x", witness={"indices": [1], "description": "d"}
    )
    assert good.passed and good.witness is None
    assert not bad.passed and bad.witness is not None

    parsed = [json.loads(json.dumps(r.to_json())) for r in (good, bad)]
    assert parsed[0]["identity"] == "lorentz-jj"
    assert parsed[0]["passed"] is True
    assert parsed[1]["passed"] is False
    assert set(parsed[0]) >= {"identity", "max_residual", "tolerance", "passed", "witness"}


def test_a_report_derives_its_verdict():
    # The record, not its caller, decides: passed is exactly residual <
    # tolerance over Python floats, and a passing report keeps no witness.
    witness = {"indices": [1], "description": "d"}
    with pytest.raises(TypeError):
        CheckReport(Identity.LORENTZ_JJ, 1.0, 1e-12, passed=True)
    nan = CheckReport(Identity.LORENTZ_JJ, np.float64(np.nan), 1e-12, witness=witness)
    assert nan.passed is False and nan.witness == witness
    edge = CheckReport(Identity.LORENTZ_JJ, 1e-12, 1e-12, witness=witness)
    assert edge.passed is False and edge.witness == witness
    good = CheckReport(Identity.LORENTZ_JJ, np.float64(1e-13), np.float64(1e-12), witness=witness)
    assert good.passed is True and good.witness is None
    assert type(good.max_residual) is float and type(good.tolerance) is float
    rebuilt = dataclasses.replace(edge, max_residual=0.0)
    assert rebuilt.passed is True and rebuilt.witness is None


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


@pytest.mark.parametrize("n", [2, 4, 5, 8])
@pytest.mark.parametrize("anti", [False, True])
def test_self_bracket_table_matches_double_loop(n, anti):
    # A with itself and coefficients with coeffs[j, i] = -/+ coeffs[i, j]:
    # entries (i, j) and (j, i) are formed apart and agree.  The 40 x 40
    # table is formed whole at every n.
    rng = np.random.default_rng(1000 + 100 * n + anti)
    m, q = 40, 4
    A, T = random_stack(rng, m, n), random_stack(rng, q, n)
    sign = 1 if anti else -1
    for raw in (rng.normal(size=(m, m, q)), random_stack(rng, m, m)[:, :, :q]):
        coeffs = raw + sign * raw.transpose(1, 0, 2)
        got = bracket_table(A, A, coeffs, T, anti=anti)
        ref = reference_table(A, A, coeffs, T, anti)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(bracket_table(A, A.copy(), coeffs, T, anti=anti), got, rtol=1e-13, atol=0)
        i, j = residual_report(Identity.LORENTZ_JJ, got, 1e-12, "pair (i={}, j={})").witness["indices"]
        assert i <= j


@pytest.mark.parametrize("anti", [False, True])
def test_self_bracket_table_with_broken_symmetry_shows_the_defect(anti):
    # j2 closes exactly (dyadic entries); one coefficient c[j, i, k] with
    # j > i off by 1e-6 breaks the (anti)symmetry, and entry (j, i) shows
    # it while the exact entry (i, j) stays 0.
    S = j2().stack
    if anti:
        coeffs, T = 0.5 * np.eye(3)[:, :, None], np.eye(2, dtype=complex)[None]
    else:
        coeffs, T = 1j * EPS3, S
    coeffs = coeffs.copy()
    coeffs[2, 0, 0] += 1e-6
    got = bracket_table(S, S, coeffs, T, anti=anti)
    assert got[2, 0] == pytest.approx(1e-6 * np.linalg.norm(T[0]), rel=1e-9)
    got[2, 0] = 0.0
    assert got.max() == 0.0


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("coeffs", ["symmetric", "antisymmetric", "broken"])
def test_one_block_self_table_is_formed_whole(monkeypatch, anti, coeffs):
    # A self-table is formed whole, as one block, whatever its coefficients:
    # 40 members of 2 x 2 and of 8 x 8 take one frobenius_norms call each.
    formed = []

    def counting_norms(stack):
        formed.append(frobenius_norms(stack).size)
        return frobenius_norms(stack)

    monkeypatch.setattr(checks, "frobenius_norms", counting_norms)
    rng = np.random.default_rng(11)
    for m, n in ((40, 2), (40, 8)):
        A, T = random_stack(rng, m, n), random_stack(rng, 4, n)
        raw = random_stack(rng, m, m)[:, :, :4]
        table = {
            "symmetric": raw + raw.transpose(1, 0, 2),
            "antisymmetric": raw - raw.transpose(1, 0, 2),
            "broken": raw,
        }[coeffs]
        formed.clear()
        got = bracket_table(A, A, table, T, anti=anti)
        assert formed == [m * m]
        np.testing.assert_array_equal(got, bracket_table(A, A.copy(), table, T, anti=anti))


def test_bracket_table_exact_closure_and_shape_check():
    S = j2().stack
    # j2 has dyadic entries, so every product and sum is exact, BLAS or not.
    assert bracket_table(S, S, 1j * EPS3, S).max() == 0.0
    with pytest.raises(ShapeError):
        bracket_table(S, S, 1j * EPS3[:, :2], S)


def test_residual_report_witness_is_first_maximum_in_row_major_order():
    residuals = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 2.0]])
    report = residual_report(Identity.MOMENTA_COMMUTE, residuals, 1e-12, "pair (mu={}, nu={})")
    assert report.witness == {"indices": [1, 2], "description": "pair (mu=1, nu=2)"}
    assert report.max_residual == 2.0 and not report.passed
    ok = residual_report(Identity.MOMENTA_COMMUTE, np.zeros(4), 1e-12, "member mu={}")
    assert ok.passed and ok.witness is None


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
    P = momentum(VectorParams(GAMMA_C_PLUS, 0.0, 1.0))
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 0] = 1e-6
    reports = check_poincare(J, K, P.with_member(2, P[2] + bump), subject="momentum-perturbed")
    golden = json.loads(WITNESSES.read_text())
    assert failed_witnesses([r.to_json() for r in reports]) == golden["perturbed-momentum"]


@pytest.fixture
def residual_tables(monkeypatch):
    """The residual arrays that the reports of a check are made from, in order."""
    tables = []

    def recording(identity, residuals, *args, **kwargs):
        tables.append(np.array(residuals))
        return residual_report(identity, residuals, *args, **kwargs)

    for module in (checks, transfer):
        monkeypatch.setattr(module, "residual_report", recording)
    return tables


def assert_reports_match_oracle(reports, tables, oracle):
    """Each report's residual table is the oracle's bit for bit, and so are
    its residual and witness."""
    assert len(reports) == len(tables) == len(oracle)
    for report, table, expected in zip(reports, tables, oracle):
        np.testing.assert_array_equal(table, expected)
        assert report.max_residual == expected.max()
        worst = [int(k) + 1 for k in np.unravel_index(np.argmax(expected), expected.shape)]
        assert report.passed or report.witness["indices"] == worst


def noisy(G, rng, size=1e-3):
    """``G`` with seeded complex noise of about ``size`` on every entry."""
    return GeneratorSet(G.rep, G.kind, tuple(G.stack + size * random_stack(rng, len(G), G.rep.dim)))


def perturbed_trio():
    """verify's perturbed su(2) trio: 1e-6 added to entry (1, 1) of member 1."""
    J = j2()
    bumped = J[1].copy()
    bumped[0, 0] += 1e-6
    return J.with_member(1, bumped)


LORENTZ_SETS = {
    "2": lambda: (j2(), k2()),
    "perturbed 2": lambda: (perturbed_trio(), k2()),
    "2+2": rep22_jk,
    "4": lambda: (build_j4(), build_k4()),
    "5-affine": lambda: affine_generators()[:2],
    "noisy 2+2": lambda: tuple(noisy(G, np.random.default_rng(12)) for G in rep22_jk()),
}


@pytest.mark.parametrize("name", LORENTZ_SETS)
def test_lorentz_table_equals_one_call_per_relation(residual_tables, name):
    J, K = LORENTZ_SETS[name]()
    reports = check_lorentz(J, K, note="n")
    assert [(r.identity, r.subject, r.note) for r in reports] == [
        (Identity.LORENTZ_JJ, f"{J.rep.tag}-rep", None),
        (Identity.LORENTZ_JK, f"{J.rep.tag}-rep", None),
        (Identity.LORENTZ_KK, f"{J.rep.tag}-rep", "n"),
    ]
    assert_reports_match_oracle(reports, residual_tables, per_relation_lorentz(J.stack, K.stack))


def vector_families(alpha):
    """The vector and momentum families of the 2+2 rep at ``alpha``."""
    generic = rep22_v(VectorParams(alpha=alpha))
    return [
        generic,
        momentum(VectorParams(GAMMA_C_PLUS, 0.0, alpha)),
        momentum(VectorParams(0.0, GAMMA_C_MINUS, alpha)),
        *(V for _, V in _projected(generic)),
    ]


@pytest.mark.parametrize("alpha", [1.0, 0.3, -1.0, 0.5 + 0.5j])
def test_vector_table_equals_one_call_per_relation(residual_tables, alpha):
    J, K = rep22_jk()
    families = [(J, K, V) for V in vector_families(alpha)]
    if alpha == 1.0:
        rng = np.random.default_rng(13)
        families += [(J, K, gamma()), affine_generators()]
        families += [(J, K, noisy(V, rng)) for V in vector_families(alpha)[:2]]
    for J, K, V in families:
        residual_tables.clear()
        reports = vector_relation_reports(J, K, V, alpha=alpha)
        momenta = V.kind is Kind.MOMENTUM
        assert [r.identity for r in reports] == [
            Identity.VECTOR_ROTATION, Identity.VECTOR_BOOST, *[Identity.MOMENTA_COMMUTE] * momenta
        ]
        oracle = per_relation_vector(J.stack, K.stack, V.stack, alpha, momenta)
        assert_reports_match_oracle(reports, residual_tables, oracle)


@pytest.mark.parametrize("alpha", [1.0, 0.3, -1.0, 0.5 + 0.5j])
@pytest.mark.parametrize("family", ["vector", "momentum"])
def test_transfer_table_equals_one_call_per_relation(residual_tables, alpha, family):
    J, K = rep22_jk()
    if family == "vector":
        V = rep22_v(VectorParams(alpha=alpha))
    else:
        V = momentum(VectorParams(GAMMA_C_PLUS, 0.0, alpha))
    a, b = extract_coeffs(V, J), extract_coeffs(V, K)
    reports = transfer_reports(a, b)[:4]
    assert [r.subject for r in reports] == ["JJ", "JK", "KJ", "KK"]
    oracle = per_relation_transfer(a.values, b.values)
    assert_reports_match_oracle(reports, residual_tables[:4], oracle)
