"""Structure constants of su(N) and the boost obstruction beyond N = 2.

The commutator structure constants f are totally antisymmetric for every N,
so the adjoint-rep construction of rotation generators always goes through.
The anticommutators, however, are proportional to delta_ab * identity only
for N = 2; for N >= 3 they pick up a symmetric d-tensor, and the reduction
that funnels every spatial [V, K] commutator into a single time member no
longer closes.  This module extracts f and d by trace formulas and reports
how large the obstruction is.

As the paper takes rotations from the commutators of su(2) and boosts from
its anticommutators, :func:`extract_structure` takes f from the commutators,
f_abc = Im trace([S_a, S_b] S_c) / kappa, and d from the anticommutators,
d_abc = Re trace({S_a, S_b} S_c) / kappa, in one pass over the pairs b >= a
that forms each product S_a S_b once, as a float64 product on real forms
(``linalg._real_form``), within the rounding bound it states.  It forms
the pairs in its own row blocks of 64 KB, or one ``(m, n, n)`` slab once S
is larger, so it holds f, d and a few such slabs, and no m^3 trace tensor.
:func:`adjoint_from_f` checks the closure of the adjoint matrices as the
Jacobi identity of f, over the sorted index triples a < b < c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import CheckReport, Identity, make_report
from .generators import GeneratorSet, Kind, Rep, adjoint_rep
from .linalg import (
    BasisError,
    DEFAULT_TOL,
    Tolerance,
    _real_form,
    _times_real_form,
)

__all__ = [
    "StructureTensors",
    "ObstructionReport",
    "gell_mann",
    "generalized_gell_mann",
    "extract_structure",
    "adjoint_from_f",
    "boost_obstruction_report",
    "structure_reports",
]


def _frozen(x) -> bool:
    return (
        isinstance(x, np.ndarray)
        and x.dtype == np.float64
        and not x.flags.writeable
        and x.flags.owndata
    )


@dataclass(frozen=True)
class StructureTensors:
    """f and d tensors of a generator family, with the identity coefficient of
    the anticommutator ansatz {J_a, J_b} = delta_coeff * delta_ab * 1 + d_abc J_c
    and the worst reconstruction residuals of both brackets."""

    n: int
    f: np.ndarray
    d: np.ndarray
    delta_coeff: float
    f_residual: float
    d_residual: float

    def __post_init__(self):
        # A read-only float array that owns its memory (as extract_structure
        # returns them) is kept; anything else, a caller's writeable array
        # included, is copied.
        f, d = (
            x if _frozen(x) else np.array(x, dtype=float) for x in (self.f, self.d)
        )
        if f.ndim != 3 or f.shape != d.shape or len(set(f.shape)) != 1:
            raise ValueError("f and d must be cubic tensors of equal shape")
        f.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "d", d)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "f": self.f.tolist(),
            "d": self.d.tolist(),
            "delta_coeff": self.delta_coeff,
            "f_residual": self.f_residual,
            "d_residual": self.d_residual,
        }


@dataclass(frozen=True)
class ObstructionReport:
    """How far the anticommutators are from the N = 2 pattern.

    The boost construction needs {J_a, J_b} proportional to delta_ab times the
    identity, so that the spatial [V, K] commutators all collapse onto one
    time member.  A nonzero d-tensor breaks that collapse; ``max_abs_d`` is
    the size of the breakage and ``argmax`` the first 1-based triple attaining
    it.
    """

    n: int
    max_abs_d: float
    argmax: tuple[int, int, int]
    delta_coeff: float
    obstructed: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "max_abs_d": self.max_abs_d,
            "argmax": list(self.argmax),
            "delta_coeff": self.delta_coeff,
            "obstructed": self.obstructed,
            "detail": self.detail,
        }


def generalized_gell_mann(n: int) -> list[np.ndarray]:
    """The n^2 - 1 standard traceless hermitian basis matrices of su(n),
    normalised to trace(L_a L_b) = 2 delta_ab.

    The enumeration interleaves the off-diagonal symmetric/antisymmetric pairs
    with the diagonal members so that n = 2 yields the Pauli matrices in their
    usual order and n = 3 the Gell-Mann matrices in theirs.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[np.ndarray] = []
    for k in range(2, n + 1):
        for j in range(1, k):
            m = np.zeros((n, n), dtype=complex)
            m[j - 1, k - 1] = 1.0
            m[k - 1, j - 1] = 1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j - 1, k - 1] = -1j
            m[k - 1, j - 1] = 1j
            out.append(m)
        m = np.zeros((n, n), dtype=complex)
        for l in range(k - 1):
            m[l, l] = 1.0
        m[k - 1, k - 1] = -(k - 1)
        out.append(m * math.sqrt(2.0 / (k * (k - 1))))
    return out


def gell_mann() -> list[np.ndarray]:
    """The eight 3x3 Gell-Mann matrices in standard order."""
    return generalized_gell_mann(3)


# Byte budget of one row block of extract_structure's stack of pairs, and
# of the Jacobiator that _jacobiator_norms forms whole.
_BLOCK_BYTES = 64 * 1024

# Relative tolerance of extract_structure's input checks: hermitian and
# traceless to within _INPUT_TOL max|S|, trace-orthogonal to within
# _INPUT_TOL kappa, so that a valid basis passes at any scale.
_INPUT_TOL = 1e-9


def _trace_forms(S: np.ndarray) -> np.ndarray:
    """The real ``(2, 2n^2, m)`` forms of the transposed basis: for a complex
    ``(..., n, n)`` stack X, X.view(float64) flattened to ``(..., 2n^2)``
    times form 0 is Re trace(X S_c) and times form 1 is Im trace(X S_c), in
    column c.  Column c of form 0 is conj(S_c^T) and of form 1 i conj(S_c^T),
    laid out as (Re, Im) pairs; both hold S's entries exactly."""
    m, n = len(S), S.shape[-1]
    forms = np.empty((2, m, n, n), dtype=complex)
    np.conjugate(S.transpose(0, 2, 1), out=forms[0])
    np.multiply(forms[0], 1j, out=forms[1])
    return forms.view(np.float64).reshape(2, m, -1).transpose(0, 2, 1)


def _flat(x: np.ndarray) -> np.ndarray:
    """A complex stack's ``(..., n, n)`` matrices as float64 rows of 2n^2
    (Re, Im) pairs, a view of a contiguous ``x``."""
    return x.view(np.float64).reshape(*x.shape[:-2], -1)


def _largest_norms(x: np.ndarray, n: int) -> np.ndarray:
    """The largest Frobenius norm of the n x n matrices laid out row-major in
    each row of a complex array whose last axis is contiguous, each squared
    norm a dot product of its matrix's 2n^2 (Re, Im) values."""
    rows = x.view(np.float64).reshape(len(x), -1, 1, 2 * n * n)
    return np.sqrt((rows @ rows.swapaxes(-1, -2)).max(axis=(1, 2, 3)))


def _validated_kappa(S: np.ndarray, forms: np.ndarray) -> float:
    """kappa = trace(S_1 S_1) of a stack that is hermitian and traceless to
    within _INPUT_TOL max|S| and whose Gram matrix trace(S_a S_b), taken
    through its ``forms`` (:func:`_trace_forms`), is kappa * delta_ab to
    within _INPUT_TOL kappa; :class:`BasisError` otherwise."""
    asymmetry = np.abs(S - S.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    trace = np.abs(np.trace(S, axis1=1, axis2=2))
    bad = np.maximum(asymmetry, trace) > _INPUT_TOL * np.abs(S).max()
    if bad.any():
        raise BasisError(f"generator {np.argmax(bad) + 1} is not hermitian traceless")
    kappa = float(np.trace(S[0] @ S[0]).real)
    if kappa <= 0:
        raise BasisError("trace normalisation must be positive")
    gram_re, gram_im = _flat(S) @ forms
    off = np.hypot(gram_re - kappa * np.eye(len(S)), gram_im) > _INPUT_TOL * kappa
    if off.any():
        a, b = np.unravel_index(np.argmax(off), off.shape)
        raise BasisError(
            f"generators {a + 1}, {b + 1} are not trace-orthogonal with common norm"
        )
    return kappa


def extract_structure(generators) -> StructureTensors:
    """Extract f, d and the identity coefficient by the trace oracle.

    Requires hermitian traceless generators, mutually orthogonal under the
    trace pairing trace(S_a S_b) = kappa * delta_ab for a common kappa, to
    within 1e-9 times the largest entry |S_a|_ij and 1e-9 kappa, so that
    the checks hold a basis to the same standard at any scale; then

        f_abc = Im trace([S_a, S_b] S_c) / kappa
        d_abc = Re trace({S_a, S_b} S_c) / kappa
        delta_coeff = 2 kappa / dim

    and the reconstruction residuals of both brackets,
    ||[S_a, S_b] - f_abc (i S_c)|| and
    ||{S_a, S_b} - delta_coeff delta_ab 1 - d_abc S_c||, are computed and
    stored (they vanish for a complete su(N) basis but are reported, not
    assumed).

    One pass over the pairs b >= a, in row blocks of at most 64 KB
    (``_BLOCK_BYTES``) or one row, forms each product S_a S_b and
    S_b S_a once, in real arithmetic (:func:`~lieforge.linalg._times_real_form`
    with R(S) built once), and takes from their commutator and
    anticommutator the (a, b) and (b, a) entries of f and d and both
    residuals.  Every other product is a float64 product too: the traces
    are the brackets' (Re, Im) rows times the real forms of the transposed
    basis (:func:`_trace_forms`), and the reconstructions multiply the real
    f and d into the float views of i S and [S; 1].  Each real part of
    S_a S_b is a sum of 2n products and each trace a sum of 2n^2, so an
    entry of f or d is within sqrt(2) gamma_{2n^2 + 2n + 3} of
    (trace(|S_a||S_b||S_c|) + trace(|S_b||S_a||S_c|)) / kappa of its exact
    value, gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3); on dyadic entries, such as the
    sigma / 2 trio's, every step is exact.  Beyond f and d (m^3 floats each,
    read-only and not copied again) it holds a few ``(m, n, n)`` slabs.
    f is exactly antisymmetric and d exactly symmetric in (a, b).
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise BasisError("empty generator list")
    m = len(gens)
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise BasisError("generators must share one dimension")
    # The anticommutators are reconstructed with 1 as an extra member; S is
    # a view of the others.
    with_one = np.empty((m + 1, dim, dim), dtype=complex)
    S = np.stack(gens, out=with_one[:m])
    with_one[m] = np.eye(dim)
    forms = _trace_forms(S)
    kappa = _validated_kappa(S, forms)
    delta_coeff = 2.0 * kappa / dim
    R = _real_form(S)
    i_S = _flat(1j * S)
    rows = min(max(1, _BLOCK_BYTES // S.nbytes), m)
    # A block's anticommutators, commutators and one more product.
    buffers = np.empty((3, rows * S.size), dtype=complex)
    # A block's f and d coefficients; d's carry delta_coeff delta_ab, the
    # coefficient of the identity, in an extra column.
    f_buf = np.empty(rows * m * m)
    d_buf = np.empty(rows * m * (m + 1))
    f = np.empty((m, m, m))
    d = np.empty((m, m, m))
    worst = np.zeros(2)  # the largest residual norms, {,} first, then [,]
    # Floats: a run's first int64 comparison pages in 132 KB of numpy code.
    on_or_above = (np.arange(float(m)) >= np.arange(float(rows))[:, None])[..., None]
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        block = (hi - lo, m - lo)
        pairs = math.prod(block)
        A, C, Q = buffers[:, : pairs * dim * dim].reshape(3, *block, dim, dim)
        # A[i, j] = S_a S_b and Q[i, j] = S_b S_a for a = lo + i, b = lo + j,
        # then A[i, j] = {S_a, S_b} and C[i, j] = [S_a, S_b].
        _times_real_form(S[lo:hi, None], R[None, lo:], out=A)
        _times_real_form(S[None, lo:], R[lo:hi, None], out=Q)
        np.subtract(A, Q, out=C)
        A += Q
        anti = f_buf[: pairs * m].reshape(*block, m)
        d_coeffs = d_buf[: pairs * (m + 1)].reshape(*block, m + 1)
        sym = d_coeffs[..., :m]
        np.matmul(_flat(C), forms[1], out=anti)
        np.matmul(_flat(A), forms[0], out=sym)
        anti /= kappa
        sym /= kappa
        # Entries (b, a) are written first; the (a, b) ones skip the diagonal
        # block's lower triangle, so f is exactly antisymmetric and d exactly
        # symmetric.  0.0 - x and x + 0.0 turn -0.0 into 0.0; they are taken
        # in place (0.0 - (0.0 - x) is x + 0.0) and copied out, which is
        # faster than a transposed ufunc.
        upper = on_or_above[: hi - lo, : m - lo]
        np.subtract(0.0, anti, out=anti)
        np.copyto(f[lo:, lo:hi], anti.transpose(1, 0, 2))
        np.subtract(0.0, anti, out=anti)
        np.copyto(f[lo:hi, lo:], anti, where=upper)
        sym += 0.0
        np.copyto(d[lo:, lo:hi], sym.transpose(1, 0, 2))
        np.copyto(d[lo:hi, lo:], sym, where=upper)

        # [S_a, S_b] = f_abc (i S_c) and {S_a, S_b} = delta_coeff delta_ab 1
        # + d_abc S_c: each right side is formed in Q and subtracted.
        right = _flat(Q).reshape(pairs, -1)
        np.matmul(anti.reshape(pairs, m), i_S, out=right)
        C -= Q
        d_coeffs[..., m] = delta_coeff * np.eye(*block)
        np.matmul(d_coeffs.reshape(pairs, m + 1), _flat(with_one), out=right)
        A -= Q
        worst = np.maximum(worst, _largest_norms(buffers[:2, : pairs * dim * dim], dim))
    d_res, f_res = (float(x) for x in worst)
    f.flags.writeable = False
    d.flags.writeable = False
    return StructureTensors(
        n=dim, f=f, d=d, delta_coeff=delta_coeff, f_residual=f_res, d_residual=d_res
    )


def _jacobiator_norms(f: np.ndarray) -> np.ndarray:
    """The ``(m, m)`` norms of [F_a, F_b] - f_abg F_g from the Jacobiator R
    of :func:`adjoint_from_f`: whole when its m^4 entries fit
    ``_BLOCK_BYTES``, the 64 KB of one row block of :func:`extract_structure`
    (m <= 9), else on the triples a < b < c, one b at a time."""
    m = len(f)
    if m**4 * f.itemsize <= _BLOCK_BYTES:
        T = (f.reshape(m * m, m) @ f.reshape(m, -1)).reshape((m,) * 4)
        R = T + T.transpose(1, 2, 0, 3)
        R += T.transpose(2, 0, 1, 3)
        R *= R  # squared and summed, not einsum, which pages in 112 KB of code
        return np.sqrt(R.sum(axis=(2, 3)))
    F = np.ascontiguousarray(f.transpose(1, 0, 2))
    # One allocation: sum_e R_abce^2 at [a, b, c], a < b < c, then two
    # buffers of the largest block; three smaller separate ones stayed on
    # the heap and raised sun-sweep's peak RSS.
    work = np.zeros(m**3 + 2 * ((m - 1) ** 2 // 4 * m))
    triples, buffers = work[: m**3].reshape(m, m, m), work[m**3 :].reshape(2, -1)
    for b in range(1, m - 1):
        above = m - 1 - b
        R, T = buffers[:, : b * above * m].reshape(2, b, above, m)
        np.matmul(F[b, :b], f[:, b + 1 :].reshape(m, -1), out=R.reshape(b, -1))
        np.matmul(f[b, b + 1 :], f[:, :b].reshape(m, -1), out=T.reshape(above, -1))
        R += T.reshape(above, b, m).transpose(1, 0, 2)
        np.matmul(f[:b, b + 1 :], F[b], out=T)
        R -= T
        R *= R
        R.sum(axis=2, out=triples[:b, b, b + 1 :])
    pairs = triples.sum(axis=2) + triples.sum(axis=1) + triples.sum(axis=0)
    return np.sqrt(pairs + pairs.T)


def adjoint_from_f(st: StructureTensors, tol: Tolerance = DEFAULT_TOL) -> GeneratorSet:
    """Adjoint-rep generators (J_a)_{bc} = i f_{bac}, verified to close with
    the same f before being returned.

    This is the same index pattern that produces the spatial block of the
    spacetime rotation generators out of the N = 2 structure constants.  A
    full su(N) family (N^2 - 1 members) gets the su(N) adjoint label; any
    other closed family of m members, such as su(2) plus a commuting u(1),
    gets a plain dimension-m label.

    With J_a = i F_a, (F_a)_ce = f_cae, the closure [F_a, F_b] = f_abg F_g
    is the Jacobi identity of f (Georgi, *Lie Algebras in Particle Physics*,
    1999, ch. 2).  For f exactly antisymmetric in (a, b), as
    :func:`extract_structure` returns it (signed zeros equal, NaN never; a
    ``ValueError`` names the first entry that is not), entry (c, e) of the
    residual is R_abce = T_abce + T_bcae + T_cabe, T_xyze = sum_d f_xyd
    f_dze, totally antisymmetric in (a, b, c).  So it is formed on the
    triples a < b < c only: about m^5 / 2 multiply-adds against 1.5 m^5 for
    every product F_a F_b.  A NaN residual fails.  One core, Haar bases
    (``tools/bench_kernels.py``, three runs): 1.7-2.1 ms at N = 6, 6.3-7.8
    ms at N = 7, 23-28 ms at N = 8, growing like N^10; N <= 8 is supported.
    """
    f = st.f
    if not np.array_equal(f, -f.swapaxes(0, 1)):
        a, b, c = np.argwhere(f != -f.swapaxes(0, 1))[0]
        raise ValueError(
            "adjoint matrices fail to close: f is not antisymmetric in (a, b), "
            f"f[{a + 1}, {b + 1}, {c + 1}] = {float(f[a, b, c])!r} but "
            f"f[{b + 1}, {a + 1}, {c + 1}] = {float(f[b, a, c])!r}"
        )
    worst = float(_jacobiator_norms(f).max())
    if not worst <= tol.abs_eps:
        raise ValueError(f"adjoint matrices fail to close, residual {worst:.3g}")
    rep = adjoint_rep(st.n) if len(f) == st.n * st.n - 1 else Rep("adjoint", len(f))
    return GeneratorSet(rep, Kind.ANGULAR_MOMENTUM, 1j * f.transpose(1, 0, 2))


def boost_obstruction_report(
    st: StructureTensors, tol: Tolerance = DEFAULT_TOL
) -> ObstructionReport:
    """Quantify the anticommutator obstruction for a structure-tensor pair."""
    abs_d = np.abs(st.d)
    flat = np.argmax(abs_d)
    idx = np.unravel_index(flat, st.d.shape)
    max_abs_d = float(abs_d.flat[flat])
    obstructed = max_abs_d > tol.abs_eps
    if obstructed:
        detail = (
            f"anticommutators carry generator-valued terms up to |d| = {max_abs_d:.12g}; "
            "the spatial boost commutators no longer collapse onto a single time member, "
            "so the interval-preserving boost construction does not carry over"
        )
    else:
        detail = (
            "anticommutators are pure delta_ab * identity; the boost construction "
            "closes and the squared interval is preserved"
        )
    return ObstructionReport(
        n=st.n,
        max_abs_d=max_abs_d,
        argmax=tuple(int(i) + 1 for i in idx),
        delta_coeff=st.delta_coeff,
        obstructed=obstructed,
        detail=detail,
    )


def structure_reports(
    st: StructureTensors,
    tol: Tolerance = DEFAULT_TOL,
    expect_obstructed: bool | None = None,
) -> list[CheckReport]:
    """Reports for one structure-tensor extraction.

    Reconstruction must hold at abs_eps; the obstruction report passes when the
    d-tensor matches the expectation for the group (identically zero for
    N = 2, nonzero otherwise, unless overridden with ``expect_obstructed``).
    """
    subject = f"su{st.n}"
    reports = [
        make_report(
            Identity.STRUCTURE_RECONSTRUCTION,
            max(st.f_residual, st.d_residual),
            tol.abs_eps,
            subject=subject,
            note=f"f residual {st.f_residual:.3g}, d residual {st.d_residual:.3g}, "
            f"delta_coeff {st.delta_coeff:.12g}",
        )
    ]
    ob = boost_obstruction_report(st, tol)
    expected = expect_obstructed if expect_obstructed is not None else st.n >= 3
    residual = 0.0 if ob.obstructed == expected else 1.0
    reports.append(
        make_report(
            Identity.ANTICOMMUTATOR_OBSTRUCTION,
            residual,
            tol.abs_eps,
            subject=subject,
            witness=None if residual == 0.0 else {"indices": list(ob.argmax), "description": ob.detail},
            note=f"max|d| = {ob.max_abs_d:.12g} at {ob.argmax}; " + ob.detail,
        )
    )
    return reports
