import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lieforge import spacetime
from lieforge.checks import all_passed, check_lorentz, check_poincare
from lieforge.cli import main
from lieforge.generators import GeneratorSet, Kind, REP5_AFFINE, Rep, gamma, j2, rep22_jk, v2
from lieforge.linalg import DEFAULT_TOL, Tolerance, mat_exp
from lieforge.spacetime import (
    PrecondError,
    PurityError,
    RotBoostParams,
    affine_composition_check,
    affine_generators,
    apply,
    boost_invariance_check,
    d4,
    det_interval_check,
    intertwine_sweep,
    interval_sq,
    rotation_invariance_check,
    translation_check,
)
from lieforge.transfer import build_j4, build_k4
import scipy.linalg
import scipy.stats

from oracles import (
    affine_apply,
    affine_matrix,
    covering_map,
    interval_sq_via_det,
    stacked_conjugation_residuals,
    unit_cubic_exp,
)

MINKOWSKI = np.diag([1.0, 1.0, 1.0, -1.0])


def test_d4_identity():
    np.testing.assert_allclose(d4(RotBoostParams()), np.eye(4), atol=0)


def test_d4_pure_boost():
    got = d4(RotBoostParams(phi=(1.0, 0.0, 0.0)))
    expected = np.eye(4, dtype=complex)
    expected[0, 0] = expected[3, 3] = math.cosh(1.0)
    expected[0, 3] = expected[3, 0] = math.sinh(1.0)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_d4_quarter_turn():
    got = d4(RotBoostParams(theta=(0.0, 0.0, math.pi / 2)))
    expected = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
    )
    np.testing.assert_allclose(got.real, expected, atol=1e-14)
    assert np.abs(got.imag).max() < 1e-14


def test_d4_rotation_block_structure():
    rng = np.random.default_rng(2)
    for _ in range(5):
        r = d4(RotBoostParams(theta=tuple(rng.uniform(-3, 3, 3)))).real
        # identity on the time row and column
        np.testing.assert_allclose(r[3, :], [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(r[:, 3], [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(r[:3, :3] @ r[:3, :3].T, np.eye(3), atol=1e-12)


def test_d4_boost_symmetric_and_metric_preserving():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = RotBoostParams(
            theta=tuple(rng.uniform(-3, 3, 3)), phi=tuple(rng.uniform(-2, 2, 3))
        )
        lam = d4(params).real
        np.testing.assert_allclose(lam.T @ MINKOWSKI @ lam, MINKOWSKI, atol=1e-10)
        pure_boost = d4(RotBoostParams(phi=params.phi)).real
        np.testing.assert_allclose(pure_boost, pure_boost.T, atol=1e-12)


def test_apply_basics():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(apply(np.eye(4), x), x, atol=0)
    boosted = apply(d4(RotBoostParams(phi=(1, 0, 0))), [0, 0, 0, 1])
    np.testing.assert_allclose(
        boosted, [math.sinh(1.0), 0, 0, math.cosh(1.0)], atol=1e-14
    )
    fixed = apply(d4(RotBoostParams(theta=(0, 0, 1.3))), [0, 0, 5, 7])
    np.testing.assert_allclose(fixed, [0, 0, 5, 7], atol=1e-13)


def test_apply_purity_error():
    with pytest.raises(PurityError):
        apply(1j * np.eye(4), [1.0, 0, 0, 0])
    D = np.eye(4, dtype=complex)
    D[1, 2] += 1e-6j
    with pytest.raises(PurityError, match="transform has imaginary residue"):
        apply(D, [1.0, 0, 0, 0])


def test_apply_rejects_a_non_finite_transform():
    for bad in (np.nan, np.inf, -np.inf):
        D = np.eye(4)
        D[0, 3] = bad
        with pytest.raises(ValueError, match="transform must be finite"):
            apply(D, [1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="transform must be finite"):
        apply(np.full((4, 4), np.nan), [1.0, 0, 0, 0])


def test_transforms_are_float64():
    params = RotBoostParams(theta=(0.3, -1.0, 2.0), phi=(0.5, 0.1, -0.7))
    assert d4(params).dtype == np.float64
    assert apply(np.eye(4, dtype=complex), np.ones(4)).dtype == np.float64


def test_interval_values():
    assert interval_sq([1, 0, 0, 2]) == pytest.approx(-3.0)
    assert interval_sq([0, 0, 0, 0]) == 0.0
    assert interval_sq([3, 4, 0, 5]) == pytest.approx(0.0)


def test_interval_via_det_values():
    got = spacetime._interval_via_det(np.array([[1.0, 0, 0, 2], [0, 0, 0, 1]]))
    assert got.tolist() == pytest.approx([-3.0, -1.0])


def test_interval_det_agreement_random():
    x = np.random.default_rng(4).uniform(-10, 10, (1000, 4))
    for row, via_det in zip(x, spacetime._interval_via_det(x)):
        assert abs(via_det - interval_sq(row)) <= 1e-12 * max(1.0, float(np.dot(row, row)))


def _affine(linear, shift):
    """The package's 5x5 append-one matrix of one transform, as a stack of one."""
    return spacetime._affine5(np.asarray(linear, float)[None], np.asarray(shift, float)[None])


def _image(m, x):
    """linear @ x + shift of one four-vector under a stack of one 5x5 matrix."""
    return spacetime._affine_images(m, np.asarray(x, float)[None])[0]


def test_affine_apply():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(_image(_affine(np.eye(4), np.zeros(4)), x), x, atol=0)
    shift = _affine(np.eye(4), [1, 2, 3, 4])
    np.testing.assert_allclose(_image(shift, np.zeros(4)), [1, 2, 3, 4], atol=0)
    # coordinate differences ignore translations
    x0 = np.array([-3.0, 0.5, 2.0, 1.0])
    diff = _image(shift, x) - _image(shift, x0)
    np.testing.assert_allclose(diff, x - x0, atol=1e-14)


def test_affine_composition_matches_sequential():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m1 = _affine(d4(RotBoostParams(phi=tuple(rng.uniform(-1, 1, 3)))), rng.uniform(-5, 5, 4))
        m2 = _affine(d4(RotBoostParams(theta=tuple(rng.uniform(-2, 2, 3)))), rng.uniform(-5, 5, 4))
        x = rng.uniform(-10, 10, 4)
        np.testing.assert_allclose(_image(m2 @ m1, x), _image(m2, _image(m1, x)), atol=1e-10)


def test_affine_generators_translation_is_exact():
    _, _, p5 = affine_generators()
    for mu in range(1, 5):
        for nu in range(1, 5):
            assert np.abs(p5[mu] @ p5[nu]).max() == 0.0
    a = np.array([0.3, -1.2, 4.0, 2.5])
    g = mat_exp(1j * sum(a[m] * p5[m + 1] for m in range(4)))
    expected = np.eye(5, dtype=complex)
    expected[:4, 4] = a
    assert np.abs(g - expected).max() == 0.0


def test_affine_generators_close_the_full_table():
    j5, k5, p5 = affine_generators()
    assert all_passed(check_poincare(j5, k5, p5, alpha=1.0))


def test_affine_boost_labeling():
    # The returned boosts are the sign-reversed embeddings of the 4x4 ones;
    # the direct embedding closes the same table only with the space-to-time
    # ratio -1 (a time-reversed labeling of the same subgroup).
    j5, k5, p5 = affine_generators()
    k4 = build_k4()
    for i in (1, 2, 3):
        np.testing.assert_allclose(k5[i][:4, :4], -k4[i], atol=0)
    natural = GeneratorSet(
        REP5_AFFINE, Kind.BOOST, tuple(-m for m in k5.members)
    )
    assert all_passed(check_poincare(j5, natural, p5, alpha=-1.0))
    assert not all_passed(check_poincare(j5, natural, p5, alpha=1.0))


def _intertwine_at(J, K, V, params):
    """The four intertwining residuals, one per member V^mu, of one draw."""
    theta, phi = np.array([params.theta]), np.array([params.phi])
    units = spacetime._unit_families([(J, K, V)])
    return spacetime._intertwine_residuals(units, theta, phi)[0][0]


def _intertwine_one(J, K, V, draws=100, tol=DEFAULT_TOL, seed=1):
    """The intertwining report of one triple, behind its own closure precheck."""
    return intertwine_sweep([(J, K, V)], check_poincare(J, K, V, tol), draws, tol, seed)[0]


def test_intertwine_zero_params():
    J22, K22 = rep22_jk()
    assert _intertwine_at(J22, K22, gamma(), RotBoostParams()).max() < 1e-14


def test_intertwine_gamma_and_affine():
    J22, K22 = rep22_jk()
    params = RotBoostParams(theta=(0.4, -0.2, 1.1), phi=(0.5, 0.3, -0.8))
    assert _intertwine_at(J22, K22, gamma(), params).max() < DEFAULT_TOL.exp_eps
    j5, k5, p5 = affine_generators()
    assert _intertwine_at(j5, k5, p5, params).max() < DEFAULT_TOL.exp_eps


def test_intertwine_orientation_is_pinned():
    # Conjugating the other way (D V D^-1) produces the inverse 4-vector
    # matrix, not Lambda itself; the residual of that reading is large.
    J22, K22 = rep22_jk()
    V = gamma()
    params = RotBoostParams(theta=(0.3, 0.1, -0.5), phi=(0.4, -0.2, 0.6))
    D = mat_exp(1j * sum(params.phi[i] * K22[i + 1] for i in range(3))) @ mat_exp(
        1j * sum(params.theta[i] * J22[i + 1] for i in range(3))
    )
    lam = d4(params)
    wrong = max(
        float(
            np.linalg.norm(
                D @ V[mu] @ np.linalg.inv(D)
                - sum(lam[mu - 1, nu - 1] * V[nu] for nu in range(1, 5))
            )
        )
        for mu in range(1, 5)
    )
    assert wrong > 0.1
    assert _intertwine_at(J22, K22, V, params).max() < 1e-12


def test_intertwine_precheck():
    with pytest.raises(PrecondError):
        _intertwine_one(j2(), j2(), v2(1.0, 1.0))


def test_intertwine_sweep_passes():
    J22, K22 = rep22_jk()
    assert _intertwine_one(J22, K22, gamma(), draws=25, seed=3).passed


def test_real_rep_conjugation_equals_the_complex_route(monkeypatch):
    # The closed form returns the 5-affine exponentials as float64, and D and
    # D^-1 are then float64 products.  Cast to complex and multiplied in real
    # arithmetic, as every complex rep's are, they give the same residuals
    # bit for bit.
    theta, phi = spacetime._draw(spacetime._streams(1), 100, (), (np.pi, 2.0))
    family = spacetime._unit_families([affine_generators()])
    (real,) = spacetime._intertwine_residuals(family, theta, phi)
    rep_transforms = spacetime._rep_transforms
    monkeypatch.setattr(
        spacetime,
        "_rep_transforms",
        lambda *a: tuple(e.astype(complex) for e in rep_transforms(*a)),
    )
    (complex_route,) = spacetime._intertwine_residuals(family, theta, phi)
    np.testing.assert_array_equal(real, complex_route)


def _families():
    return [(*rep22_jk(), gamma()), affine_generators()]


@pytest.mark.parametrize("draws", [1, 7, 100])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conjugation_equals_the_stacked_route_bit_for_bit(seed, draws):
    # The two-product conjugation, float64 throughout in the 5-affine rep,
    # against the 4T + 4T stacked complex products it replaced, on the same
    # D, D^-1 and Lambda.
    theta, phi = spacetime._draw(spacetime._streams(seed), draws, (), (np.pi, 2.0))
    units = spacetime._unit_families(_families())
    lam = spacetime._d4_stack(theta, phi)
    for (rot, boost, V), got in zip(units, spacetime._intertwine_residuals(units, theta, phi)):
        D, Dinv = spacetime._rep_transforms(rot, boost, theta, phi)
        expected = stacked_conjugation_residuals(D, Dinv, lam, V.stack)
        assert got.dtype == np.float64 and got.shape == (draws, 4)
        np.testing.assert_array_equal(got, expected)


def _intertwine_alone(J, K, V, draws, seed):
    """The residual and the first-maximum witness of one triple swept alone,
    with its own streams, its own draws and its own Lambda per block."""
    streams, worst, witness = spacetime._streams(seed), 0.0, None
    units = spacetime._unit_families([(J, K, V)])
    for start in range(0, draws, spacetime._BLOCK):
        size = min(spacetime._BLOCK, draws - start)
        theta, phi = spacetime._draw(streams, size, (), (np.pi, 2.0))
        (r,) = spacetime._intertwine_residuals(units, theta, phi)
        t, mu = np.unravel_index(int(np.argmax(r)), r.shape)
        if r[t, mu] > worst:
            worst, witness = float(r[t, mu]), f"draw {start + t}, member mu={mu + 1}"
    return worst, witness


@pytest.mark.parametrize("draws", [100, 300])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_shared_intertwining_sweep_equals_the_separate_sweeps(monkeypatch, seed, draws):
    # One draw and one Lambda serve both families; each report must be the one
    # its family gives alone, bit for bit.  In blocks of 256, 300 draws span
    # two blocks.  At a bound nothing inexact meets, the 2+2 report fails and
    # keeps its witness; the 5-affine residual is exactly 0, with none.
    monkeypatch.setattr(spacetime, "_BLOCK", 256)
    families = _families()
    prechecks = [r for J, K, V in families for r in check_poincare(J, K, V)]
    reports = intertwine_sweep(families, prechecks, draws, Tolerance(1e-300, 1e-300), seed)
    assert [r.subject for r in reports] == ["2+2-rep", "5-affine-rep"]
    for report, family in zip(reports, families):
        worst, witness = _intertwine_alone(*family, draws, seed)
        assert report.max_residual == worst
        assert (report.witness and report.witness["description"]) == witness
        assert report.note == f"seed={seed}, draws={draws}"
    assert reports[1].max_residual == 0.0 and reports[1].witness is None


def test_a_failed_precheck_raises_before_anything_is_drawn(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew after a failed precheck")

    monkeypatch.setattr(spacetime, "_draw", no_draw)
    families = _families()
    failed = check_poincare(j2(), j2(), v2(1.0, 1.0))
    assert not all_passed(failed)
    with pytest.raises(PrecondError, match="closure precheck"):
        intertwine_sweep(families, check_poincare(*families[0]) + failed)


def test_invariance_checks_pass_and_are_deterministic():
    a = rotation_invariance_check(trials=50, seed=9)
    b = rotation_invariance_check(trials=50, seed=9)
    assert a.passed and a.max_residual == b.max_residual
    assert boost_invariance_check(trials=50, seed=9).passed
    assert det_interval_check(trials=50, seed=9).passed
    assert affine_composition_check(trials=10, seed=9).passed
    assert translation_check(affine_generators()[2], trials=10, seed=9).passed


def test_rotation_preserves_distance_and_time():
    x = np.array([1.0, 1.0, 0.0, 9.0])
    xr = apply(d4(RotBoostParams(theta=(0, 0, math.pi / 3))), x)
    assert np.dot(xr[:3], xr[:3]) == pytest.approx(2.0, abs=1e-12)
    assert xr[3] == pytest.approx(9.0, abs=1e-12)
    assert abs(xr[0] - x[0]) > 0.1  # the components themselves do move


def test_boost_changes_components_but_not_interval():
    x = np.array([1.0, 0.0, 0.0, 2.0])
    xb = apply(d4(RotBoostParams(phi=(2.0, 0.0, 0.0))), x)
    assert interval_sq(xb) == pytest.approx(-3.0, abs=1e-10)
    assert abs(xb[0] - x[0]) > 1.0
    assert abs(xb[3] - x[3]) > 1.0


def test_lorentz_closure_of_closed_forms():
    from lieforge.checks import check_lorentz

    assert all_passed(check_lorentz(build_j4(), build_k4()))


def test_params_validation():
    with pytest.raises(ValueError):
        RotBoostParams(theta=(1.0, 2.0))
    with pytest.raises(ValueError):
        RotBoostParams(phi=(np.inf, 0.0, 0.0))
    with pytest.raises(ValueError):
        rotation_invariance_check(trials=0)


def _cross(n):
    """Cross-product matrices [n]_x of a (T, 3) array."""
    z = np.zeros(len(n))
    return np.array(
        [[z, -n[:, 2], n[:, 1]], [n[:, 2], z, -n[:, 0]], [-n[:, 1], n[:, 0], z]]
    ).transpose(2, 0, 1)


def _rodrigues(theta):
    """Rotation by |theta| about theta/|theta| (Rodrigues), embedded in 4x4."""
    angle = np.linalg.norm(theta, axis=1)
    k = _cross(theta / angle[:, None])
    out = np.tile(np.eye(4), (len(theta), 1, 1))
    sin, one_minus_cos = np.sin(angle)[:, None, None], (1 - np.cos(angle))[:, None, None]
    out[:, :3, :3] += sin * k + one_minus_cos * (k @ k)
    return out


def _boost_closed_form(phi):
    """I + (cosh - 1) n n^T in space, sinh * n in the space-time entries."""
    rapidity = np.linalg.norm(phi, axis=1)
    n = phi / rapidity[:, None]
    out = np.tile(np.eye(4), (len(phi), 1, 1))
    out[:, :3, :3] += (np.cosh(rapidity) - 1)[:, None, None] * n[:, :, None] * n[:, None, :]
    out[:, :3, 3] = out[:, 3, :3] = np.sinh(rapidity)[:, None] * n
    out[:, 3, 3] = np.cosh(rapidity)
    return out


def test_stacked_d4_matches_closed_forms():
    # exp(i theta.J4) is Rodrigues' rotation at -theta; exp(i phi.K4) is the
    # cosh/sinh boost along phi.
    from lieforge.spacetime import _d4_stack

    rng = np.random.default_rng(21)
    theta = rng.uniform(-np.pi, np.pi, size=(200, 3))
    phi = rng.uniform(-2.0, 2.0, size=(200, 3))
    zeros = np.zeros_like(theta)
    rot = _d4_stack(theta, zeros)
    boost = _d4_stack(zeros, phi)
    both = _d4_stack(theta, phi)
    np.testing.assert_allclose(rot, _rodrigues(-theta), rtol=0, atol=1e-12)
    np.testing.assert_allclose(boost, _boost_closed_form(phi), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        both, _boost_closed_form(phi) @ _rodrigues(-theta), rtol=0, atol=1e-12
    )
    for t in range(0, 200, 20):
        single = d4(RotBoostParams(theta=tuple(theta[t]), phi=tuple(phi[t])))
        np.testing.assert_allclose(both[t], single, rtol=0, atol=1e-14)


def _exponential_route(theta, phi):
    """exp(phi.(i K4)) exp(theta.(i J4)) by scaling and squaring, the route to
    Lambda the package took before its closed form."""
    iJ, iK = ((1j * G.stack).real for G in (build_j4(), build_k4()))
    return mat_exp(np.einsum("ti,iab->tab", phi, iK)) @ mat_exp(np.einsum("ti,iab->tab", theta, iJ))


@pytest.mark.parametrize("seed", [4, 17, 60])
def test_d4_stack_matches_the_covering_map_and_the_exponential_route(seed):
    rng = np.random.default_rng(seed)
    theta, phi = (
        spacetime._random_direction_scaled(rng.normal(size=(500, 3)), rng.uniform(0.0, m, 500))
        for m in (np.pi, 3.0)
    )
    theta[:5], phi[5:10] = 0.0, 0.0
    lam = spacetime._d4_stack(theta, phi)
    bound = 1e-13 * np.maximum(1.0, np.abs(lam).max(axis=(1, 2)))
    for oracle in (covering_map, _exponential_route):
        assert np.all(np.abs(lam - oracle(theta, phi)).max(axis=(1, 2)) <= bound)


def _symmetrised_cube_defect(iG, sign):
    """Per (a, b, c), the sum over the orderings of G_a G_b G_c minus ``sign``
    times the same sum of delta_ab G_c.  Zero for every (a, b, c) exactly when
    (u.G)^3 = sign |u|^2 (u.G) for every axis u."""
    cube = np.einsum("aij,bjk,ckl->abcil", iG, iG, iG)
    linear = np.einsum("ab,cil->abcil", np.eye(3), iG)
    orders = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(np.transpose(cube - sign * linear, (*p, 3, 4)) for p in orders)


@pytest.mark.parametrize("name, sign", [("_J4", -1.0), ("_K4", 1.0)])
def test_the_closed_form_rests_on_exact_cubic_identities(name, sign):
    # The stacks i J4 and i K4 have integer entries, so every triple product
    # is exact: N^3 = -N for rotations and M^3 = M for boosts, bit for bit.
    iG = spacetime._real_generators(getattr(spacetime, name))
    np.testing.assert_array_equal(_symmetrised_cube_defect(iG, sign), 0.0)
    bumped = iG.copy()
    bumped[1, 2, 3] += 1.0
    assert np.abs(_symmetrised_cube_defect(bumped, sign)).max() > 0.0


def test_stack_combinations_equal_their_einsum_forms():
    # Every canonical generator entry is dyadic and every entry of a
    # combination sums at most two nonzero terms, so one matrix product gives
    # the values of the einsum contractions it replaced; only the sign of an
    # exact zero may differ, which assert_array_equal does not see.
    rng = np.random.default_rng(31)
    J22, K22 = rep22_jk()
    j5, k5, p5 = affine_generators()
    stacks = [spacetime._real_generators(spacetime._J4), spacetime._real_generators(spacetime._K4)]
    stacks += [1j * G.stack for G in (J22, K22, j5, k5)] + [spacetime._SIGMA4, p5.stack]
    for stack in stacks:
        c = rng.uniform(-10.0, 10.0, size=(300, len(stack)))
        np.testing.assert_array_equal(
            spacetime._combine(c, stack), np.einsum("tk,kab->tab", c, stack)
        )
    theta, phi = rng.uniform(-np.pi, np.pi, size=(2, 300, 3))
    lam = spacetime._d4_stack(theta, phi)
    for V in (gamma(), p5):
        np.testing.assert_array_equal(
            spacetime._combine(lam, V.stack), np.einsum("tmn,nab->tmab", lam, V.stack)
        )


def test_d4_stack_is_the_unit_cubic_formula_bit_for_bit():
    # The kernel also serves the intertwining reps, with an inverse and a
    # complex product; on the 4-vector stacks it is the one-expression
    # formula, bit for bit.
    iJ, iK = ((1j * G.stack).real for G in (build_j4(), build_k4()))
    rng = np.random.default_rng(13)
    theta, phi = rng.uniform(-np.pi, np.pi, size=(2, 500, 3))
    theta[:5], phi[5:10] = 0.0, 0.0
    expected = unit_cubic_exp(phi, iK, np.sinh) @ unit_cubic_exp(theta, iJ, np.sin)
    np.testing.assert_array_equal(spacetime._d4_stack(theta, phi), expected)
    np.testing.assert_array_equal(
        spacetime._rotation_stack(theta), unit_cubic_exp(theta, iJ, np.sin)
    )


def test_the_identity_directions_determine_every_cubic_form():
    # N^3 + c |u|^2 N is a cubic form in u with ten matrix coefficients, one
    # per monomial u_a u_b u_c (a <= b <= c); it vanishes for every u when it
    # vanishes at ten points where the monomials are independent.
    u = spacetime._DIRECTIONS
    triples = [(a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)]
    monomials = np.array([[p[a] * p[b] * p[c] for a, b, c in triples] for p in u])
    assert monomials.shape == (10, 10)
    assert np.linalg.matrix_rank(monomials) == 10


def _series_transforms(J, K, theta, phi, exp):
    """D and D^-1 of a rep by a general matrix exponential ``exp``."""
    rot, boost = (np.einsum("ti,iab->tab", v, 1j * G.stack) for v, G in ((theta, J), (phi, K)))
    return exp(boost) @ exp(rot), exp(-rot) @ exp(-boost)


@pytest.mark.parametrize("family", ["2+2", "5-affine"])
@pytest.mark.parametrize("seed", [1, 5])
def test_rep_transforms_match_expm_and_mat_exp(family, seed):
    J, K = rep22_jk() if family == "2+2" else affine_generators()[:2]
    theta, phi = spacetime._draw(spacetime._streams(seed), 500, (), (np.pi, 2.0))
    theta[:5], phi[5:10] = 0.0, 0.0
    D, Dinv = spacetime._rep_transforms(
        spacetime._cubic_unit(J), spacetime._cubic_unit(K), theta, phi
    )
    assert D.dtype == Dinv.dtype == (np.float64 if family == "5-affine" else np.complex128)
    bound = 1e-14 * np.maximum(1.0, np.abs(D).max(axis=(1, 2)))
    for exp in (scipy.linalg.expm, mat_exp):
        for got, want in zip((D, Dinv), _series_transforms(J, K, theta, phi, exp)):
            assert np.all(np.abs(got - want).max(axis=(1, 2)) <= bound)
    np.testing.assert_allclose(Dinv @ D, np.broadcast_to(np.eye(len(J[1])), D.shape), atol=1e-14)


def _bumped(family, index):
    """The 2+2 triple (with gamma) or the 5-affine one, its ``index``-th
    stack's first member moved by 2^-40 at its first nonzero entry."""
    J, K, V = (*rep22_jk(), gamma()) if family == "2+2" else affine_generators()
    stacks = [J, K, V]
    m = stacks[index][1].copy()
    m[tuple(np.argwhere(m != 0)[0])] += 2.0**-40
    stacks[index] = stacks[index].with_member(1, m)
    return tuple(stacks)


def _spin_three_halves():
    """The spin-3/2 trio J and K = i J, which close the Lorentz table."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    raising = np.diag(np.sqrt(1.5 * 2.5 - m[1:] * (m[1:] + 1)), 1)
    lowering = raising.T
    trio = np.array([(raising + lowering) / 2, (raising - lowering) / 2j, np.diag(m)])
    rep = Rep("spin-3/2", 4)
    return GeneratorSet(rep, Kind.ANGULAR_MOMENTUM, trio), GeneratorSet(rep, Kind.BOOST, 1j * trio)


def test_the_spin_three_halves_trio_closes_but_is_not_cubic():
    # Its minimal polynomial has degree 4: i J3 has four distinct eigenvalues.
    J, K = _spin_three_halves()
    assert all_passed(check_lorentz(J, K))
    assert len(np.unique(np.round(np.linalg.eigvals(1j * J[3]), 12))) == 4


@pytest.mark.parametrize(
    "case, match",
    [
        (("2+2", 0), "2[+]2-rep angular-momentum"),
        (("2+2", 1), "2[+]2-rep boost"),
        (("5-affine", 0), "5-affine-rep angular-momentum"),
        (("5-affine", 1), "5-affine-rep boost"),
        ("spin-3/2", "spin-3/2-rep angular-momentum"),
    ],
)
def test_a_stack_off_its_identity_raises_before_anything_is_drawn(monkeypatch, case, match):
    # A 2^-40 bump is below the closure bound of 1e-12 in the 5-affine rep;
    # only the identity guard sees it.  The closure prechecks passed in are
    # those of the unbumped families.
    def no_draw(*args):
        raise AssertionError("drew before the identity guard")

    monkeypatch.setattr(spacetime, "_draw", no_draw)
    families = _families()
    prechecks = [r for J, K, V in families for r in check_poincare(J, K, V)]
    if case == "spin-3/2":
        families.append((*_spin_three_halves(), gamma()))
    else:
        family, index = case
        at = ["2+2", "5-affine"].index(family)
        families[at] = _bumped(family, index)
        if family == "5-affine":
            assert all_passed(check_poincare(*families[at]))
    with pytest.raises(PrecondError, match=f"^{match} generators fail the identity N\\^3"):
        intertwine_sweep(families, prechecks)


def test_a_rotated_basis_is_refused_though_it_closes():
    # The known limit of the exact guard: the 2+2 triple conjugated by a
    # random unitary closes the table and meets N^3 = -c |n|^2 N up to
    # rounding, but not exactly, so the sweep refuses it.
    u = scipy.stats.unitary_group.rvs(4, random_state=3)
    J, K, V = (
        GeneratorSet(G.rep, G.kind, tuple(u @ m @ u.conj().T for m in G.members))
        for G in (*rep22_jk(), gamma())
    )
    prechecks = check_poincare(J, K, V)
    assert all_passed(prechecks)
    for G in (J, K):
        N = np.einsum("ui,iab->uab", spacetime._DIRECTIONS, 1j * G.stack)
        c = 0.25 if G.kind is Kind.ANGULAR_MOMENTUM else -0.25
        miss = N @ N @ N + (c * spacetime._DIRECTION_SQ)[:, None, None] * N
        assert 0.0 < np.abs(miss).max() < 1e-14
    with pytest.raises(PrecondError, match="^2[+]2-rep angular-momentum .* exactly"):
        intertwine_sweep([(J, K, V)], prechecks)


def test_the_exact_affine_intertwining_is_earned():
    # The correctly labelled 5-affine boosts give exactly 0 because the
    # closed forms give R(theta)^T = R(-theta) and B(phi)^T = B(phi) bit for
    # bit; the naturally labelled boosts (ratio -1) conjugate to the inverse
    # boost and miss by order 1 on the same draws.
    j5, k5, p5 = affine_generators()
    natural = GeneratorSet(REP5_AFFINE, Kind.BOOST, tuple(-m for m in k5.members))
    theta, phi = spacetime._draw(spacetime._streams(1), 100, (), (np.pi, 2.0))
    labelled, relabelled = spacetime._intertwine_residuals(
        spacetime._unit_families([(j5, k5, p5), (j5, natural, p5)]), theta, phi
    )
    assert labelled.max() == 0.0
    assert relabelled.max() > 1.0
    iJ, iK = spacetime._times_i(j5), spacetime._times_i(k5)
    rot, inverse_rot = spacetime._cubic_exp(theta, iJ, np.sin, inverse=True)
    (boost,) = spacetime._cubic_exp(phi, iK, np.sinh)
    np.testing.assert_array_equal(rot.transpose(0, 2, 1), inverse_rot)
    np.testing.assert_array_equal(boost.transpose(0, 2, 1), boost)


# Per-trial references for the batched sweeps: the loops the sweeps replaced,
# written with the public one-transform functions.  They draw from the same two
# spawned streams, a normal and a uniform one, but one trial and one quantity at
# a time, in the order a sweep lays out a trial's row; a match against sweeps
# drawn in blocks of 256 checks that the layout does not depend on block size.


def _streams(seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def _direction(normal, uniform, max_norm):
    v = normal.normal(size=3)
    # The norm the sweeps take: np.linalg.norm can differ from it in the last bit.
    n = float(np.sqrt(np.einsum("...i,...i->...", v, v)))
    scale = uniform.uniform(0.0, max_norm)
    return np.zeros(3) if n == 0.0 else v * (scale / n)


def _rotation_trial(normal, uniform):
    return uniform.uniform(-10.0, 10.0, size=4), _direction(normal, uniform, np.pi)


def _ref_rotation(trials, seed):
    normal, uniform = _streams(seed)
    worst = 0.0
    for _ in range(trials):
        x, theta = _rotation_trial(normal, uniform)
        xr = apply(d4(RotBoostParams(theta=tuple(theta))), x)
        space = float(np.dot(x[:3], x[:3]))
        worst = max(
            worst,
            abs(float(np.dot(xr[:3], xr[:3])) - space) / max(1.0, space),
            abs(xr[3] - x[3]) / max(1.0, abs(x[3])),
        )
    return worst


def _boost_trial(normal, uniform):
    x = uniform.uniform(-10.0, 10.0, size=4)
    return x, _direction(normal, uniform, np.pi), _direction(normal, uniform, 3.0)


def _ref_boost(trials, seed):
    normal, uniform = _streams(seed)
    worst = 0.0
    for _ in range(trials):
        x, theta, phi = _boost_trial(normal, uniform)
        xb = apply(d4(RotBoostParams(theta=tuple(theta), phi=tuple(phi))), x)
        worst = max(worst, abs(interval_sq(xb) - interval_sq(x)) / max(1.0, float(np.dot(x, x))))
    return worst


def _ref_det(trials, seed):
    _, uniform = _streams(seed)
    worst = 0.0
    for _ in range(trials):
        x = uniform.uniform(-10.0, 10.0, size=4)
        r = abs(interval_sq_via_det(x) - interval_sq(x)) / max(1.0, float(np.dot(x, x)))
        worst = max(worst, r)
    return worst


def _ref_params(normal, uniform):
    theta = _direction(normal, uniform, np.pi)
    return RotBoostParams(theta=tuple(theta), phi=tuple(_direction(normal, uniform, 2.0)))


def _affine_trial(normal, uniform):
    shift1, shift2 = uniform.uniform(-5, 5, size=4), uniform.uniform(-5, 5, size=4)
    x = uniform.uniform(-10.0, 10.0, size=4)
    shift, x0 = uniform.uniform(-5, 5, size=4), uniform.uniform(-10.0, 10.0, size=4)
    p1, p2 = _ref_params(normal, uniform), _ref_params(normal, uniform)
    return shift1, shift2, x, shift, x0, p1.theta, p1.phi, p2.theta, p2.phi


def _ref_affine(trials, seed):
    normal, uniform = _streams(seed)
    worst = 0.0
    for _ in range(trials):
        shift1, shift2, x, shift, x0, *angles = _affine_trial(normal, uniform)
        p1, p2 = RotBoostParams(*angles[:2]), RotBoostParams(*angles[2:])
        m1, m2 = affine_matrix(d4(p1), shift1), affine_matrix(d4(p2), shift2)
        seq = affine_apply(m2, affine_apply(m1, x))
        scale = max(1.0, float(np.abs(seq).max()))
        r = float(np.abs(seq - affine_apply(m2 @ m1, x)).max()) / scale
        translate = affine_matrix(np.eye(4), shift)
        diff = affine_apply(translate, x) - affine_apply(translate, x0)
        worst = max(worst, r, float(np.abs(diff - (x - x0)).max()) / scale)
    return worst


def _ref_translation(trials, seed):
    _, _, p5 = affine_generators()
    _, uniform = _streams(seed)
    worst = 0.0
    for _ in range(trials):
        a = uniform.uniform(-10.0, 10.0, size=4)
        g = mat_exp(1j * sum(a[mu] * p5[mu + 1] for mu in range(4)))
        expected = np.eye(5, dtype=complex)
        expected[:4, 4] = a
        x = uniform.uniform(-10.0, 10.0, size=4)
        moved = g @ np.append(x, 1.0)
        worst = max(
            worst,
            float(np.abs(g - expected).max()),
            float(np.abs(moved[:4] - (x + a)).max()),
            abs(moved[4] - 1.0),
        )
    return worst


def _ref_intertwine(J, K, V, draws, seed):
    normal, uniform = _streams(seed)
    worst = 0.0
    for _ in range(draws):
        p = _ref_params(normal, uniform)
        rot = 1j * sum(p.theta[i] * J[i + 1] for i in range(3))
        boost = 1j * sum(p.phi[i] * K[i + 1] for i in range(3))
        D = mat_exp(boost) @ mat_exp(rot)
        Dinv = mat_exp(-rot) @ mat_exp(-boost)
        lam = d4(p)
        for mu in range(4):
            rhs = sum(lam[mu, nu] * V[nu + 1] for nu in range(4))
            worst = max(worst, float(np.linalg.norm(Dinv @ V[mu + 1] @ D - rhs)))
    return worst


def _sweeps():
    J22, K22 = rep22_jk()
    j5, k5, p5 = affine_generators()
    return [
        (rotation_invariance_check, _ref_rotation),
        (boost_invariance_check, _ref_boost),
        (det_interval_check, _ref_det),
        (affine_composition_check, _ref_affine),
        (lambda trials, seed: translation_check(p5, trials, seed=seed), _ref_translation),
        (
            lambda trials, seed: _intertwine_one(J22, K22, gamma(), trials, seed=seed),
            lambda trials, seed: _ref_intertwine(J22, K22, gamma(), trials, seed),
        ),
        (
            lambda trials, seed: _intertwine_one(j5, k5, p5, trials, seed=seed),
            lambda trials, seed: _ref_intertwine(j5, k5, p5, trials, seed),
        ),
    ]


@pytest.mark.parametrize("seed", [1, 9, 123])
def test_reference_inputs_are_the_sweep_inputs_bit_for_bit(seed):
    # The references below match the sweeps to 1e-14 only if both transform
    # the same inputs: a last-bit change in an angle moves a residual by more.
    for draw, trial in (
        (spacetime._draw_rotation, _rotation_trial),
        (spacetime._draw_boost, _boost_trial),
        (spacetime._draw_affine, _affine_trial),
    ):
        normal, uniform = _streams(seed)
        for row in zip(*draw(spacetime._streams(seed), 200)):
            ref = trial(normal, uniform)
            assert [np.asarray(q).tobytes() for q in ref] == [q.tobytes() for q in row]


@pytest.mark.parametrize("seed", [1, 9, 123])
def test_batched_sweeps_reproduce_per_trial_loops(seed):
    reports = []
    for check, reference in _sweeps():
        reports.append(check(trials=200, seed=seed))
        expected = reference(200, seed)
        assert abs(reports[-1].max_residual - expected) <= 1e-14
        assert reports[-1].passed == (expected < reports[-1].tolerance)
    assert [(r.identity.value, r.subject) for r in reports] == [
        ("rotation-invariance", "4-rep"),
        ("interval-invariance", "4-rep"),
        ("determinant-interval", "4-vector"),
        ("affine-composition", "5-affine"),
        ("translation-displacement", "5-affine"),
        ("intertwining", "2+2-rep"),
        ("intertwining", "5-affine-rep"),
    ]


def _six_sweeps(trials, tol):
    """The six seeded sweeps of an ``invariants`` run, each a function of the
    seed returning its list of reports."""
    families = _families()
    prechecks = [r for family in families for r in check_poincare(*family)]
    p5 = affine_generators()[2]
    return [
        lambda seed: [rotation_invariance_check(trials, tol, seed)],
        lambda seed: [boost_invariance_check(trials, tol, seed)],
        lambda seed: [det_interval_check(trials, tol, seed)],
        lambda seed: [affine_composition_check(trials, tol, seed)],
        lambda seed: [translation_check(p5, trials, tol, seed)],
        lambda seed: intertwine_sweep(families, prechecks, trials, tol, seed),
    ]


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
def test_rewound_streams_give_each_sweep_the_reports_of_a_fresh_spawn(monkeypatch, block):
    # The kept streams are rewound for every sweep with the last seed and
    # respawned for another.  Run in shuffled order with a second seed between
    # them, every sweep must report what it reports from fresh streams (the
    # _streams oracle above), field for field.  At a bound nothing inexact
    # meets, every inexact report fails and keeps its witness.
    if block is not None:
        monkeypatch.setattr(spacetime, "_BLOCK", block)
    sweeps = _six_sweeps(30, Tolerance(1e-300, 1e-300))
    schedule = []
    for k, i in enumerate(np.random.default_rng(11).permutation(6)):
        schedule.append((int(i), 1))
        if k % 2:
            schedule.append((5 - int(i), 8))
    with monkeypatch.context() as fresh:
        fresh.setattr(spacetime, "_streams", _streams)
        expected = [sweeps[i](seed) for i, seed in schedule]
    got = [sweeps[i](seed) for i, seed in schedule]
    assert got == expected
    inexact = [r for reports in got for r in reports if r.max_residual > 0.0]
    assert inexact and all(r.witness for r in inexact)


def test_an_unseeded_sweep_spawns_fresh_streams_every_time():
    # seed=None asks SeedSequence for fresh entropy, so it is never rewound.
    first, second = (spacetime._streams(None)[0].random() for _ in range(2))
    assert first != second
    assert rotation_invariance_check(10, seed=None).passed


@pytest.mark.parametrize(
    "name, check", [("_K4", boost_invariance_check), ("_J4", rotation_invariance_check)]
)
def test_perturbed_generator_fails_the_sweep(monkeypatch, name, check):
    # An imaginary bump keeps exp(i theta.G) real but no longer Lorentz.
    gens = getattr(spacetime, name)
    bumped = gens[1].copy()
    bumped[1, 2] += 1e-6j
    monkeypatch.setattr(spacetime, name, gens.with_member(1, bumped))
    report = check(trials=200, seed=5)
    assert not report.passed
    assert 0 <= report.witness["indices"][0] < 200
    assert report.witness["description"].startswith(f"trial {report.witness['indices'][0]}:")


@pytest.mark.parametrize(
    "name, check", [("_K4", boost_invariance_check), ("_J4", rotation_invariance_check)]
)
def test_real_bump_to_a_generator_fails_the_purity_check(monkeypatch, name, check):
    # A real bump makes i G non-real; the generator check must catch it
    # before any transform is built.
    gens = getattr(spacetime, name)
    bumped = gens[1].copy()
    bumped[1, 2] += 1e-6
    monkeypatch.setattr(spacetime, name, gens.with_member(1, bumped))
    with pytest.raises(PurityError, match="4-vector .* generators have imaginary part"):
        check(trials=200, seed=5)


def _traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, in bytes, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_trials():
    def peak(trials):
        return _traced_peak(lambda: boost_invariance_check(trials=trials))

    assert peak(20000) < 2 * peak(2048)


# A (1000, 4, 4) float64 stack is 128,000 bytes.  The 1000-trial boost sweep
# holds at most three at once: the boost B with the rotation's M and M^2
# (scaled in place into sin|theta| M and the even term), then B, the rotation
# and their product.  With the 0.19 MB of draws and per-trial vectors beside
# them that is 0.58 MB; 0.65 MB leaves half a stack of slack.  Summing with
# sin|theta| M and the scaled M^2 as new arrays beside M and M^2 holds five,
# 0.83 MB.  One default run peaks in that sweep, plus the 0.01 MB its run
# table holds by then: 0.59 MB against 0.70 MB, where five stacks gave 0.84 MB.
BOOST_PEAK_BOUND = 650_000
RUN_PEAK_BOUND = 700_000


def test_the_boost_sweep_holds_three_transform_stacks():
    assert _traced_peak(lambda: boost_invariance_check(1000)) < BOOST_PEAK_BOUND


def test_the_default_invariants_run_stays_below_its_allocation_bound(capsys):
    argv = ["invariants", "--trials", "1000", "--format", "json"]
    assert _traced_peak(lambda: main(argv)) < RUN_PEAK_BOUND
    capsys.readouterr()


def _all_seven(trials, tol, seed):
    families = _families()
    prechecks = [r for J, K, V in families for r in check_poincare(J, K, V, tol)]
    return [
        rotation_invariance_check(trials, tol, seed),
        boost_invariance_check(trials, tol, seed),
        det_interval_check(trials, tol, seed),
        affine_composition_check(trials, tol, seed),
        translation_check(families[1][2], trials, tol, seed),
        *intertwine_sweep(families, prechecks, trials, tol, seed),
    ]


def test_sweep_reports_do_not_depend_on_the_block_size(monkeypatch):
    # At a tolerance nothing meets, every inexact sweep fails and carries the
    # witness of its first worst trial, which must be the same whether the
    # 300 trials run as one block or as 43 blocks of 7.  Translation and the
    # 5-affine intertwining are exact.
    tol = Tolerance(1e-300, 1e-300)
    whole = [r.to_json() for r in _all_seven(300, tol, 4)]
    monkeypatch.setattr(spacetime, "_BLOCK", 7)
    assert [r.to_json() for r in _all_seven(300, tol, 4)] == whole
    assert [r["passed"] for r in whole] == [False] * 4 + [True, False, True]
    assert whole[4]["max_residual"] == whole[6]["max_residual"] == 0.0
    assert all(r["witness"] is not None for i, r in enumerate(whole) if i not in (4, 6))
    assert [r["note"] for r in whole] == [
        "seed=4, trials=300, residuals relative to max(1, |x_space|^2)",
        "seed=4, trials=300, residuals relative to max(1, |x|^2)",
        "seed=4, trials=300",
        "seed=4, trials=300",
        "seed=4, trials=300, exact nilpotent exponential",
        "seed=4, draws=300",
        "seed=4, draws=300",
    ]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_invariants_output_does_not_depend_on_the_block_size(monkeypatch, capsys, seed):
    # The default run's 1000-trial sweeps in one block or in four.
    def output(block):
        monkeypatch.setattr(spacetime, "_BLOCK", block)
        assert main(["invariants", "--trials", "1000", "--format", "json", "--seed", str(seed)]) == 0
        return capsys.readouterr().out

    assert output(1024) == output(256)


class _ZeroRow:
    """A normal stream whose every draw is exactly 0 at one index."""

    def __init__(self, rng, at):
        self._rng, self._at = rng, at

    def normal(self, size):
        v = self._rng.normal(size=size)
        v[self._at] = 0.0
        return v


@pytest.mark.parametrize(
    "draw, member, at, check",
    [
        (spacetime._draw_rotation, 1, (3, 0), rotation_invariance_check),
        (spacetime._draw_boost, 1, (3, 0), boost_invariance_check),
        (spacetime._draw_boost, 2, (3, 1), boost_invariance_check),
    ],
    ids=["rotation-theta", "boost-theta", "boost-phi"],
)
def test_a_zero_normal_row_gives_exactly_zero_angles(monkeypatch, draw, member, at, check):
    normal, uniform = spacetime._streams(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angles = draw((_ZeroRow(normal, at), uniform), 8)[member]
        monkeypatch.setattr(spacetime, "_streams", lambda seed: (_ZeroRow(normal, at), uniform))
        assert check(trials=8).passed
    assert angles[3].tolist() == [0.0, 0.0, 0.0]
    assert np.all(np.delete(angles, 3, axis=0) != 0.0)


def test_seeded_inputs_are_pinned():
    # Trials 0 and 1 at seed 1.  The points are -h + 2h u of the uniform
    # stream, exact in any IEEE arithmetic; the angles pass through a sum of
    # squares and a square root, so they are held to 1e-15 relative.  A
    # reordered stream or column moves every value by far more.
    x, theta, phi = spacetime._draw_boost(spacetime._streams(1), 2)
    np.testing.assert_array_equal(
        x,
        [
            [-0.48470962820018926, 2.0117680781695633, -5.098275519278694, -5.492171970976938],
            [9.602229974811806, -2.768186288469634, -3.2497251802384053, 6.084168111156551],
        ],
    )
    np.testing.assert_allclose(
        [theta, phi],
        [
            [
                [-1.4540723582083332, 0.8919310049496959, -0.8927931777041553],
                [-0.3023623077181099, 1.2365496295110907, 1.0290609566723923],
            ],
            [
                [0.22001548236904872, -0.5359271051878363, -0.2220184210370371],
                [0.38646606951593654, -0.20465500134404935, -0.5184116917833091],
            ],
        ],
        rtol=1e-15,
        atol=0,
    )
    shift1, shift2, x, shift, x0, *angles = spacetime._draw_affine(spacetime._streams(1), 2)
    np.testing.assert_array_equal(
        [shift1, shift2, x, shift, x0],
        [
            [
                [-0.24235481410009463, 1.0058840390847816, -2.549137759639347, -2.746085985488469],
                [-4.317278142549624, 3.455067603148297, 1.9402525636754753, -1.5540109728575358],
            ],
            [
                [1.1285582121960083, -2.9319444080197288, 4.801114987405903, -1.384093144234817],
                [-3.461043033312584, 2.1949772807691144, 2.347532637248678, -3.104599531498551],
            ],
            [
                [-3.2497251802384053, 6.084168111156551, 0.42083448691181147, -5.478493984228203],
                [-8.454987964060134, -1.924877159338802, -8.397753697461525, 5.927656176801001],
            ],
            [
                [3.004012124812469, -1.6934461571766155, -1.6017172824048975, 2.924806700942952],
                [-3.4636481179642056, -0.6638250582450302, 2.222677264836893, -4.446892559451438],
            ],
            [
                [-4.225397305265258, 4.269856670582389, -1.7673405885304572, -2.399606541140469],
                [3.391562701159419, -4.954615484040941, 9.273003405715336, -0.5426632894469954],
            ],
        ],
    )
    np.testing.assert_allclose(
        angles,
        [
            [
                [-1.7046503340631491, 1.0456360558440234, -1.0466468054574196],
                [0.5905791698205981, -1.00655682121923, -2.1725804780686144],
            ],
            [
                [0.20367086973722287, -0.4961139027764807, -0.20552501316452607],
                [0.4182576184375813, -0.6165113145704189, 0.14716421117473627],
            ],
            [
                [-0.035664432328067396, 0.14585429286744958, 0.12138045620724253],
                [-0.8234931721357017, -0.7550226518186707, -1.7992306028901612],
            ],
            [
                [0.014404058448191034, -0.007627739751555967, -0.019321831585436138],
                [0.30436730411360496, -0.7280842710588391, 1.0570473319513596],
            ],
        ],
        rtol=1e-15,
        atol=0,
    )


@pytest.mark.parametrize("index", range(8))
def test_every_sweep_rejects_zero_trials(index):
    # The last triple does not close: the draw count is checked before the
    # closure precheck, which would raise a PrecondError naming neither.
    sweeps = [
        rotation_invariance_check,
        boost_invariance_check,
        det_interval_check,
        affine_composition_check,
        lambda trials: translation_check(affine_generators()[2], trials),
        lambda trials: _intertwine_one(*rep22_jk(), gamma(), trials),
        lambda trials: _intertwine_one(*affine_generators(), trials),
        lambda trials: _intertwine_one(j2(), j2(), v2(1.0, 1.0), trials),
    ]
    with pytest.raises(ValueError, match="(trials|draws) must be >= 1"):
        sweeps[index](0)


def test_a_momentum_family_whose_members_do_not_commute_fails_the_precheck():
    # gamma closes the vector relations, so as a vector family it passes;
    # labelled as momenta it must also commute, and its members do not.
    J22, K22 = rep22_jk()
    V = gamma()
    assert _intertwine_one(J22, K22, V, draws=1).passed
    relabelled = GeneratorSet(V.rep, Kind.MOMENTUM, V.members)
    with pytest.raises(PrecondError, match="momenta-commute$"):
        _intertwine_one(J22, K22, relabelled, draws=1)


def test_non_nilpotent_translations_fail_with_the_generator_products():
    # exp(i a.P) is built as I + i a.P, so the products P_a P_b are the only
    # guard of nilpotency.  With 100 at the corner of i P1, (i P1)^2 has
    # 100^2 there, more than any trial's miss, |a1| 100 < 1000.
    _, _, p5 = affine_generators()
    corner = p5[1].copy()
    corner[4, 4] = -100j
    report = translation_check(p5.with_member(1, corner), trials=50)
    assert not report.passed
    assert report.max_residual == 1e4
    assert report.witness == {"indices": [], "description": "generator products"}
