"""Exact mirror-symmetry computations for the quintic threefold.

The package follows one pipeline and several satellites, all over exact
arithmetic (rationals, a nilpotent log ring, and the fifth cyclotomic
field): period series of the quintic's hypergeometric operator feed the
mirror map and the Yukawa coupling, whose q-expansion yields the curve
counts 2875, 609250, 317206375, ...; around it sit reflexive-polytope
duality, the transpose construction for gauged linear sigma models,
cohomology-level monodromy transforms, and the combinatorics of torus
fibrations.  The ``quintic-mirror`` entry point exposes everything on
the command line.
"""

from .enumerative import (
    InstantonTable,
    IntegralityError,
    MirrorMap,
    QuantumRing,
    build_mirror_map,
    extract_instantons,
    quantum_ring,
    yukawa_normalized,
)
from .exactnum import (
    CyclotomicElement,
    CyclotomicField,
    NilpotentElement,
    NilpotentRing,
    QQ,
    RationalField,
    RingMismatchError,
    TruncatedSeries,
    ZETA5_FIELD,
)
from .glsm import (
    AbelianGroupStructure,
    ChargeFactorization,
    ExponentMatrix,
    FactorizationError,
    group_from_charges,
    invariant_coordinates,
    kahler_parameter,
    transpose_mirror,
    verify_factorization,
)
from .kontsevich import (
    CharacteristicClasses,
    chern_from_adjunction,
    euler_number,
    jordan_profile,
    matrix_order,
    spherical_matrix,
    todd_class,
    twist_matrix,
)
from .linalg import SquareExactMatrix, smith_normal_form
from .picard_fuchs import (
    FrobeniusBundle,
    MonodromyMatrix,
    PeriodOperator,
    frobenius_at_zero,
    monodromy_at_infinity,
    monodromy_at_zero,
    solutions_at_infinity,
)
from .syz import (
    FibrationGraphSummary,
    ProductConditionError,
    UnipotentMonodromy3,
    VertexData,
    classify_vertex,
    k3_semistable_check,
    mirror_swap,
    quintic_graph_counts,
    sl2_mirror_selfconjugacy,
)
from .toric import (
    GorensteinWitness,
    LatticePolytope,
    cy_dimension,
    gorenstein_check,
    moduli_dimension,
    projective_space_fan_polytope,
    quintic_newton_polytope,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "ChargeFactorization",
    "CharacteristicClasses",
    "CyclotomicElement",
    "CyclotomicField",
    "ExponentMatrix",
    "FactorizationError",
    "FibrationGraphSummary",
    "FrobeniusBundle",
    "GorensteinWitness",
    "InstantonTable",
    "IntegralityError",
    "LatticePolytope",
    "MirrorMap",
    "MonodromyMatrix",
    "NilpotentElement",
    "NilpotentRing",
    "PeriodOperator",
    "ProductConditionError",
    "QQ",
    "QuantumRing",
    "RationalField",
    "RingMismatchError",
    "SquareExactMatrix",
    "TruncatedSeries",
    "UnipotentMonodromy3",
    "VertexData",
    "ZETA5_FIELD",
    "build_mirror_map",
    "chern_from_adjunction",
    "classify_vertex",
    "cy_dimension",
    "euler_number",
    "extract_instantons",
    "frobenius_at_zero",
    "gorenstein_check",
    "group_from_charges",
    "invariant_coordinates",
    "jordan_profile",
    "k3_semistable_check",
    "kahler_parameter",
    "matrix_order",
    "mirror_swap",
    "moduli_dimension",
    "monodromy_at_infinity",
    "monodromy_at_zero",
    "projective_space_fan_polytope",
    "quantum_ring",
    "quintic_graph_counts",
    "quintic_newton_polytope",
    "sl2_mirror_selfconjugacy",
    "smith_normal_form",
    "solutions_at_infinity",
    "spherical_matrix",
    "todd_class",
    "transpose_mirror",
    "twist_matrix",
    "verify_factorization",
    "yukawa_normalized",
]
