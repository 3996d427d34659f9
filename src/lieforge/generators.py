"""Concrete generator families.

Factories for every matrix set the rest of the package manipulates: the Pauli
matrices, the fundamental su(2) angular-momentum trio and its boost and vector
companions, the doubled four-dimensional families built from that trio by
Kronecker products with fixed 2x2 block patterns (the vector family and its
two single-block momentum branches), and the Dirac gamma matrices with their
chiral projectors.

Member indexing is 1-based throughout (``set[1]`` is the first generator,
index 4 is the time slot of a vector family), matching the usual physics
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ParamError",
    "Rep",
    "REP2",
    "REP22",
    "REP4",
    "REP5_AFFINE",
    "adjoint_rep",
    "Kind",
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


def adjoint_rep(n: int) -> Rep:
    """Adjoint-rep label for su(n) (dimension n^2 - 1)."""
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


@dataclass(frozen=True, eq=False)
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
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        count = len(self.members)
        expected = _MEMBER_COUNT.get(self.kind)
        if expected is not None and count != expected:
            raise ValueError(
                f"{self.kind.value} family needs {expected} members, got {count}"
            )
        if not count:
            raise ValueError("a generator family needs at least one member")
        dim = self.rep.dim
        shapes = {np.shape(m) for m in self.members}
        if shapes != {(dim, dim)}:
            raise ValueError(f"member shapes {sorted(shapes)} do not match rep dim {dim}")
        stack = np.array(self.members, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("a member contains a non-finite entry")
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
        new[i - 1] = matrix
        return GeneratorSet(self.rep, self.kind, tuple(new))


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
# The fundamental angular-momentum trio, sigma_i / 2, as one (3, 2, 2) stack.
_HALF_SIGMA = np.array(_SIGMA[:3]) / 2
_EYE2 = _SIGMA[3]

# 2x2 block patterns of the doubled construction: kron(pattern, W) places the
# 2x2 matrix W in the 4x4 blocks where the pattern is nonzero, scaled by it.
_DIAGONAL = np.diag([1.0, 1.0])
_SPLIT = np.diag([1.0, -1.0])
_UPPER = np.array([[0.0, 1.0], [0.0, 0.0]])
_LOWER = _UPPER.T


def pauli(i: int) -> np.ndarray:
    """Pauli matrix, 1-based; index 4 is the 2x2 identity."""
    if i not in (1, 2, 3, 4):
        raise IndexError(f"pauli index must be 1..4, got {i}")
    return _SIGMA[i - 1].copy()


def j2() -> GeneratorSet:
    """Fundamental angular-momentum trio: half the Pauli matrices."""
    return GeneratorSet(REP2, Kind.ANGULAR_MOMENTUM, _HALF_SIGMA)


def k2() -> GeneratorSet:
    """Fundamental boosts, +i times the angular momenta.

    The sign of i here is a convention; the opposite choice appears as the
    lower block of the doubled boost family.
    """
    return GeneratorSet(REP2, Kind.BOOST, 1j * _HALF_SIGMA)


def v2(c: complex, c4: complex) -> GeneratorSet:
    """Fundamental vector family {c*J1, c*J2, c*J3, c4*identity}."""
    return GeneratorSet(REP2, Kind.VECTOR, (*(c * _HALF_SIGMA), c4 * _EYE2))


def rep22_jk() -> tuple[GeneratorSet, GeneratorSet]:
    """Doubled 4x4 angular momenta and boosts.

    J is two diagonal copies of the fundamental trio; K carries +iJ in the
    upper block and -iJ in the lower, which is what later turns block
    commutators with the vector family into anticommutators.
    """
    return (
        GeneratorSet(REP22, Kind.ANGULAR_MOMENTUM, np.kron(_DIAGONAL, _HALF_SIGMA)),
        GeneratorSet(REP22, Kind.BOOST, np.kron(_SPLIT, 1j * _HALF_SIGMA)),
    )


def _vector_blocks(c: complex, c_time: complex, alpha: complex) -> np.ndarray:
    """The (4, 2, 2) stack c*J1, c*J2, c*J3, c_time * identity / (2*alpha).

    The time member divides by 2*alpha rather than scaling by 1/(2*alpha):
    the two round differently unless alpha is a power of two.
    """
    return np.concatenate([c * _HALF_SIGMA, [c_time * _EYE2 / (2 * alpha)]])


def _doubled_vector(p: VectorParams) -> np.ndarray:
    """c_plus (J, 1/(2 alpha)) in the upper-right blocks, c_minus (J, -1/(2 alpha))
    in the lower-left."""
    upper = _vector_blocks(p.c_plus, p.c_plus, p.alpha)
    lower = _vector_blocks(p.c_minus, -p.c_minus, p.alpha)
    return np.kron(_UPPER, upper) + np.kron(_LOWER, lower)


def rep22_v(p: VectorParams = VectorParams()) -> GeneratorSet:
    """Doubled off-diagonal vector family.

    The time member's blocks carry 1/(2*alpha) with opposite signs; that is
    exactly the constraint under which the spatial [V, K] commutators collapse
    onto the time member.  With the default constants the result is the Dirac
    gamma family.
    """
    return GeneratorSet(REP22, Kind.VECTOR, _doubled_vector(p))


def momentum(p: VectorParams) -> GeneratorSet:
    """One of the two commuting momentum branches: the doubled vector family
    of ``p`` with a single nonzero off-diagonal block.

    The branch is the block whose constant is nonzero; both constants nonzero
    raises :class:`ParamError`, both zero gives the zero family.
    """
    if complex(p.c_plus) != 0 and complex(p.c_minus) != 0:
        raise ParamError("a momentum branch needs c_plus = 0 or c_minus = 0")
    return GeneratorSet(REP22, Kind.MOMENTUM, _doubled_vector(p))


def gamma() -> GeneratorSet:
    """Dirac gamma matrices, built directly from their 2x2-block table.

    Equal (entry for entry) to ``rep22_v()`` with the default constants;
    the equality is checked in the test suite rather than assumed here.
    """
    z = np.zeros((2, 2), dtype=complex)
    spatial = [np.block([[z, s], [-s, z]]) for s in _SIGMA[:3]]
    time = np.block([[z, _EYE2], [_EYE2, z]])
    return GeneratorSet(REP22, Kind.VECTOR, tuple(-1j * m for m in (*spatial, time)))


def gamma5(g: GeneratorSet) -> np.ndarray:
    """The chirality matrix -i * g4 g1 g2 g3 (diag(1, 1, -1, -1) for :func:`gamma`)."""
    return -1j * (g[4] @ g[1] @ g[2] @ g[3])


def gamma5_projectors(g: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """The two chiral projectors (1 +/- gamma5)/2 of a gamma set ``g``.

    Multiplying any doubled vector family by those of :func:`gamma` projects
    onto its plus and minus momentum branches.
    """
    g5 = gamma5(g)
    eye = np.eye(4, dtype=complex)
    return (eye + g5) / 2, (eye - g5) / 2
