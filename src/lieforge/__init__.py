"""lieforge: build spacetime rotation, boost and translation generators out of
su(2) bracket relations, and verify every closure numerically."""

from .checks import (
    CheckReport,
    Identity,
    ShapeError,
    all_passed,
    check_2rep_vk_asymmetry,
    check_lorentz,
    check_poincare,
    check_su2_fundamental,
)
from .generators import (
    GeneratorSet,
    Kind,
    ParamError,
    Rep,
    VectorParams,
    gamma,
    gamma5,
    gamma5_projectors,
    j2,
    k2,
    momentum,
    pauli,
    rep22_jk,
    rep22_v,
    v2,
)
from .linalg import (
    BasisError,
    DimError,
    Tolerance,
    decompose_in_basis,
    det,
    frobenius_distance,
    mat_exp,
    matrix_to_json,
)
from .spacetime import (
    PrecondError,
    PurityError,
    RotBoostParams,
    affine_generators,
    apply,
    boost_invariance_check,
    d4,
    intertwine_sweep,
    interval_sq,
    rotation_invariance_check,
)
from .su_n import (
    ObstructionReport,
    StructureTensors,
    adjoint_from_f,
    boost_obstruction_report,
    extract_structure,
    gell_mann,
    generalized_gell_mann,
)
from .transfer import (
    CoeffTensor,
    InconsistentBlocksError,
    NotVClosedError,
    SourceKind,
    build_j4,
    build_k4,
    extract_coeffs,
)

__version__ = "0.1.0"
