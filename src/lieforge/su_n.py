"""Structure constants of su(N) and the boost obstruction beyond N = 2.

The commutator structure constants f are totally antisymmetric for every N,
so the adjoint-rep construction of rotation generators always goes through.
The anticommutators, however, are proportional to delta_ab * identity only
for N = 2; for N >= 3 they pick up a symmetric d-tensor, and the reduction
that funnels every spatial [V, K] commutator into a single time member no
longer closes.  This module extracts f and d by trace formulas and reports
how large the obstruction is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import CheckReport, Identity, bracket_table, make_report
from .generators import GeneratorSet, Kind, Rep, adjoint_rep
from .linalg import (
    BasisError,
    DEFAULT_TOL,
    Tolerance,
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
        f = np.array(self.f, dtype=float)
        d = np.array(self.d, dtype=float)
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

    @classmethod
    def from_json(cls, obj: dict) -> "StructureTensors":
        return cls(
            n=int(obj["n"]),
            f=np.array(obj["f"], dtype=float),
            d=np.array(obj["d"], dtype=float),
            delta_coeff=float(obj["delta_coeff"]),
            f_residual=float(obj.get("f_residual", 0.0)),
            d_residual=float(obj.get("d_residual", 0.0)),
        )


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


def extract_structure(generators, tol: Tolerance = DEFAULT_TOL) -> StructureTensors:
    """Extract f, d and the identity coefficient by the trace oracle.

    Requires hermitian traceless generators, mutually orthogonal under the
    trace pairing trace(J_a J_b) = kappa * delta_ab for a common kappa; then

        f_abc = trace([J_a, J_b] J_c) / (i kappa)
        d_abc = trace({J_a, J_b} J_c) / kappa
        delta_coeff = 2 kappa / dim

    and the reconstruction residuals of both brackets are computed and
    stored (they vanish for a complete su(N) basis but are reported, not
    assumed).
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise BasisError("empty generator list")
    m = len(gens)
    dim = gens[0].shape[0]
    ortho_tol = 1e-9
    for a, g in enumerate(gens):
        if g.shape != (dim, dim):
            raise BasisError("generators must share one dimension")
        if np.abs(g - g.conj().T).max() > ortho_tol or abs(np.trace(g)) > ortho_tol:
            raise BasisError(f"generator {a + 1} is not hermitian traceless")
    S = np.stack(gens)
    kappa = float(np.trace(gens[0] @ gens[0]).real)
    if kappa <= 0:
        raise BasisError("trace normalisation must be positive")
    gram = np.einsum("aij,bji->ab", S, S)
    off = np.abs(gram - kappa * np.eye(m)) > ortho_tol
    if off.any():
        a, b = np.unravel_index(np.argmax(off), off.shape)
        raise BasisError(
            f"generators {a + 1}, {b + 1} are not trace-orthogonal with common norm"
        )

    # t[a, b, c] = trace(J_a J_b J_c); f and d are its parts antisymmetric and
    # symmetric in (a, b).
    t = np.einsum("aij,bjk,cki->abc", S, S, S, optimize=True)
    f = (t.imag - t.imag.transpose(1, 0, 2)) / kappa
    d = (t.real + t.real.transpose(1, 0, 2)) / kappa
    del t  # frees 0.7 MB at N = 6 before the residual tables
    delta_coeff = 2.0 * kappa / dim

    # [J_a, J_b] = f_abc (i J_c).
    f_res = float(bracket_table(S, S, f, 1j * S).max())
    # {J_a, J_b} = delta_coeff delta_ab 1 + d_abc J_c, with 1 as an extra member.
    d_coeffs = np.concatenate([d, delta_coeff * np.eye(m)[:, :, None]], axis=2)
    with_one = np.concatenate([S, np.eye(dim, dtype=complex)[None]])
    d_res = float(bracket_table(S, S, d_coeffs, with_one, anti=True).max())
    return StructureTensors(
        n=dim, f=f, d=d, delta_coeff=delta_coeff, f_residual=f_res, d_residual=d_res
    )


def adjoint_from_f(st: StructureTensors, tol: Tolerance = DEFAULT_TOL) -> GeneratorSet:
    """Adjoint-rep generators (J_a)_{bc} = i f_{bac}, verified to close with
    the same f before being returned.

    This is the same index pattern that produces the spatial block of the
    spacetime rotation generators out of the N = 2 structure constants.  A
    full su(N) family (N^2 - 1 members) gets the su(N) adjoint label; any
    other closed family of m members, such as su(2) plus a commuting u(1),
    gets a plain dimension-m label.
    """
    m = st.f.shape[0]
    # With J_a = i F_a, the closure [J_a, J_b] = i f_abc J_c is the real
    # table [F_a, F_b] = f_abc F_c, which has the same residuals.
    F = np.ascontiguousarray(st.f.transpose(1, 0, 2))
    worst = float(bracket_table(F, F, st.f, F).max())
    if worst > tol.abs_eps:
        raise ValueError(f"adjoint matrices fail to close, residual {worst:.3g}")
    rep = adjoint_rep(st.n) if m == st.n * st.n - 1 else Rep("adjoint", m)
    return GeneratorSet(rep, Kind.ANGULAR_MOMENTUM, tuple(1j * F))


def boost_obstruction_report(
    st: StructureTensors, tol: Tolerance = DEFAULT_TOL
) -> ObstructionReport:
    """Quantify the anticommutator obstruction for a structure-tensor pair."""
    flat = np.argmax(np.abs(st.d))
    idx = np.unravel_index(flat, st.d.shape)
    max_abs_d = float(np.abs(st.d).max())
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
