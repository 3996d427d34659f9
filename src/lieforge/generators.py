"""Concrete generator families.

Factories for every matrix set the rest of the package manipulates: the Pauli
matrices, the fundamental su(2) angular-momentum trio and its boost and vector
companions, the doubled (block) four-dimensional family with its two momentum
branches, and the Dirac gamma matrices with their chiral projectors.

Member indexing is 1-based throughout (``set[1]`` is the first generator,
index 4 is the time slot of a vector family), matching the usual physics
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import as_cmatrix, matrix_from_json, matrix_to_json

__all__ = [
    "ParamError",
    "Rep",
    "REP2",
    "REP22",
    "REP4",
    "REP5_AFFINE",
    "SU3_FUND",
    "SU3_ADJOINT",
    "adjoint_rep",
    "fundamental_rep",
    "Kind",
    "Branch",
    "GeneratorSet",
    "VectorParams",
    "pauli",
    "j2",
    "k2",
    "v2",
    "rep22_jk",
    "rep22_v",
    "momentum",
    "gamma",
    "gamma5",
    "gamma5_projectors",
]


class ParamError(ValueError):
    """A constructor parameter is outside its admissible range."""


@dataclass(frozen=True)
class Rep:
    """Representation label: a short tag plus the matrix dimension."""

    tag: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"rep dimension must be positive, got {self.dim}")


REP2 = Rep("2", 2)
REP22 = Rep("2+2", 4)
REP4 = Rep("4", 4)
REP5_AFFINE = Rep("5-affine", 5)
SU3_FUND = Rep("su3-fund", 3)
SU3_ADJOINT = Rep("su3-adjoint", 8)

_CANONICAL_REPS = {r.tag: r for r in (REP2, REP22, REP4, REP5_AFFINE, SU3_FUND, SU3_ADJOINT)}


def fundamental_rep(n: int) -> Rep:
    """Defining-rep label for su(n)."""
    if n == 2:
        return REP2
    if n == 3:
        return SU3_FUND
    return Rep(f"su{n}-fund", n)


def adjoint_rep(n: int) -> Rep:
    """Adjoint-rep label for su(n) (dimension n^2 - 1)."""
    if n == 3:
        return SU3_ADJOINT
    return Rep(f"su{n}-adjoint", n * n - 1)


class Kind(str, Enum):
    ANGULAR_MOMENTUM = "angular-momentum"
    BOOST = "boost"
    VECTOR = "vector"
    MOMENTUM = "momentum"


# Boost trios and vector/momentum quadruples have fixed sizes; angular-momentum
# families are 3 for su(2) but n^2 - 1 in an su(n) adjoint, so only a lower
# bound is enforced here (checks that need exactly three verify it themselves).
_MEMBER_COUNT = {
    Kind.BOOST: 3,
    Kind.VECTOR: 4,
    Kind.MOMENTUM: 4,
}


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered, immutable family of same-dimension generators.

    Angular-momentum and boost families have three members, vector and
    momentum families four.  The members are held as one read-only
    ``(m, n, n)`` array, ``stack``, and ``members`` are views of its slabs;
    use :meth:`with_member` to obtain a modified copy.
    """

    rep: Rep
    kind: Kind
    members: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        count = len(self.members)
        expected = _MEMBER_COUNT.get(self.kind)
        if expected is not None and count != expected:
            raise ValueError(
                f"{self.kind.value} family needs {expected} members, got {count}"
            )
        if not count:
            raise ValueError("a generator family needs at least one member")
        stack = np.empty((count, self.rep.dim, self.rep.dim), dtype=complex)
        for k, m in enumerate(self.members):
            a = as_cmatrix(m)
            if a.shape[0] != self.rep.dim:
                raise ValueError(
                    f"member dimension {a.shape[0]} does not match rep dim {self.rep.dim}"
                )
            stack[k] = a
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "members", tuple(stack))

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> np.ndarray:
        """1-based member access: ``j[1]`` .. ``j[3]``, ``v[1]`` .. ``v[4]``."""
        if not 1 <= i <= len(self.members):
            raise IndexError(f"member index {i} out of range 1..{len(self.members)}")
        return self.members[i - 1]

    def with_member(self, i: int, matrix) -> "GeneratorSet":
        """Copy of this set with the 1-based member ``i`` replaced."""
        if not 1 <= i <= len(self.members):
            raise IndexError(f"member index {i} out of range 1..{len(self.members)}")
        new = list(self.members)
        new[i - 1] = as_cmatrix(matrix)
        return GeneratorSet(self.rep, self.kind, tuple(new))

    def is_hermitian_traceless(self, eps: float = 1e-9) -> bool:
        """Whether every member is hermitian and traceless to within ``eps``."""
        return all(
            np.abs(m - m.conj().T).max() <= eps and abs(np.trace(m)) <= eps
            for m in self.members
        )

    def to_json(self) -> dict:
        return {
            "rep": self.rep.tag,
            "kind": self.kind.value,
            "members": [matrix_to_json(m) for m in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorSet":
        members = tuple(matrix_from_json(m) for m in obj["members"])
        tag = obj["rep"]
        rep = _CANONICAL_REPS.get(tag, Rep(tag, members[0].shape[0] if members else 1))
        return cls(rep, Kind(obj["kind"]), members)


# Default vector-family constants chosen so that rep22_v() equals gamma().
GAMMA_C_PLUS = -2j
GAMMA_C_MINUS = 2j


@dataclass(frozen=True)
class VectorParams:
    """Scale constants for the two blocks of a doubled vector family, plus the
    space-to-time ratio ``alpha`` (the speed of light, 1 by default)."""

    c_plus: complex = GAMMA_C_PLUS
    c_minus: complex = GAMMA_C_MINUS
    alpha: complex = 1.0

    def __post_init__(self):
        for name in ("c_plus", "c_minus", "alpha"):
            z = complex(getattr(self, name))
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ParamError(f"{name} must be finite")
        if complex(self.alpha) == 0:
            raise ParamError("alpha must be nonzero")


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.eye(2, dtype=complex),
)


def pauli(i: int) -> np.ndarray:
    """Pauli matrix, 1-based; index 4 is the 2x2 identity."""
    if i not in (1, 2, 3, 4):
        raise IndexError(f"pauli index must be 1..4, got {i}")
    return _SIGMA[i - 1].copy()


def j2() -> GeneratorSet:
    """Fundamental angular-momentum trio: half the Pauli matrices."""
    return GeneratorSet(REP2, Kind.ANGULAR_MOMENTUM, tuple(s / 2 for s in _SIGMA[:3]))


def k2() -> GeneratorSet:
    """Fundamental boosts, +i times the angular momenta.

    The sign of i here is a convention; the opposite choice appears as the
    lower block of the doubled boost family.
    """
    return GeneratorSet(REP2, Kind.BOOST, tuple(1j * s / 2 for s in _SIGMA[:3]))


def v2(c: complex, c4: complex) -> GeneratorSet:
    """Fundamental vector family {c*J1, c*J2, c*J3, c4*identity}."""
    half = [s / 2 for s in _SIGMA[:3]]
    members = tuple(c * h for h in half) + (c4 * np.eye(2, dtype=complex),)
    return GeneratorSet(REP2, Kind.VECTOR, members)


def _block(ul, ur, ll, lr) -> np.ndarray:
    return np.block([[ul, ur], [ll, lr]])


_Z2 = np.zeros((2, 2), dtype=complex)


def rep22_jk() -> tuple[GeneratorSet, GeneratorSet]:
    """Doubled 4x4 angular momenta and boosts.

    J is two diagonal copies of the fundamental trio; K carries +iJ in the
    upper block and -iJ in the lower, which is what later turns block
    commutators with the vector family into anticommutators.
    """
    jj = [s / 2 for s in _SIGMA[:3]]
    j_members = tuple(_block(h, _Z2, _Z2, h) for h in jj)
    k_members = tuple(_block(1j * h, _Z2, _Z2, -1j * h) for h in jj)
    return (
        GeneratorSet(REP22, Kind.ANGULAR_MOMENTUM, j_members),
        GeneratorSet(REP22, Kind.BOOST, k_members),
    )


def _upper_blocks(p: VectorParams) -> list[np.ndarray]:
    half = [s / 2 for s in _SIGMA[:3]]
    return [p.c_plus * h for h in half] + [
        p.c_plus * np.eye(2, dtype=complex) / (2 * p.alpha)
    ]


def _lower_blocks(p: VectorParams) -> list[np.ndarray]:
    half = [s / 2 for s in _SIGMA[:3]]
    return [p.c_minus * h for h in half] + [
        -p.c_minus * np.eye(2, dtype=complex) / (2 * p.alpha)
    ]


def rep22_v(p: VectorParams = VectorParams()) -> GeneratorSet:
    """Doubled off-diagonal vector family.

    The time member's blocks carry 1/(2*alpha) with opposite signs; that is
    exactly the constraint under which the spatial [V, K] commutators collapse
    onto the time member.  With the default constants the result is the Dirac
    gamma family.
    """
    up, lo = _upper_blocks(p), _lower_blocks(p)
    members = tuple(_block(_Z2, up[m], lo[m], _Z2) for m in range(4))
    return GeneratorSet(REP22, Kind.VECTOR, members)


def momentum(p: VectorParams, branch: Branch) -> GeneratorSet:
    """One of the two commuting momentum branches: a vector family with a
    single nonzero off-diagonal block.

    The branch being built forces the other block's constant to vanish;
    passing a nonzero one raises :class:`ParamError`.
    """
    branch = Branch(branch)
    if branch is Branch.PLUS:
        if complex(p.c_minus) != 0:
            raise ParamError("plus branch requires c_minus = 0")
        up = _upper_blocks(p)
        members = tuple(_block(_Z2, up[m], _Z2, _Z2) for m in range(4))
    else:
        if complex(p.c_plus) != 0:
            raise ParamError("minus branch requires c_plus = 0")
        lo = _lower_blocks(p)
        members = tuple(_block(_Z2, _Z2, lo[m], _Z2) for m in range(4))
    return GeneratorSet(REP22, Kind.MOMENTUM, members)


def gamma() -> GeneratorSet:
    """Dirac gamma matrices, built directly from their 2x2-block table.

    Equal (entry for entry) to ``rep22_v()`` with the default constants;
    the equality is checked in the test suite rather than assumed here.
    """
    members = tuple(
        -1j * _block(_Z2, _SIGMA[i], -_SIGMA[i], _Z2) for i in range(3)
    ) + (-1j * _block(_Z2, _SIGMA[3], _SIGMA[3], _Z2),)
    return GeneratorSet(REP22, Kind.VECTOR, members)


def gamma5() -> np.ndarray:
    """The chirality matrix -i * g4 g1 g2 g3 (diag(1, 1, -1, -1))."""
    g = gamma()
    return -1j * (g[4] @ g[1] @ g[2] @ g[3])


def gamma5_projectors() -> tuple[np.ndarray, np.ndarray]:
    """The two chiral projectors (1 +/- gamma5)/2.

    Multiplying any doubled vector family by these projects onto its plus and
    minus momentum branches.
    """
    g5 = gamma5()
    eye = np.eye(4, dtype=complex)
    return (eye + g5) / 2, (eye - g5) / 2
