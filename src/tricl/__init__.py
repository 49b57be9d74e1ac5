"""Exact computation of divisor class groups of trinomial varieties.

The library computes divisor class groups, total-coordinate-space data,
iteration chains of Cox rings, and the associated surface correspondences
for trinomial varieties, in exact integer arithmetic.  Every closed-form
group computation can be cross-checked against an independent Smith normal
form presentation.
"""

from .errors import (
    DuplicateThetaError,
    EmptyBlockError,
    FactorialInputError,
    FreeVariablesPresentError,
    InvalidVarietyError,
    IterationNotAdmittedError,
    NonPositiveExponentError,
    NotAdjustedError,
    NotHyperplatonicError,
    NotRationalError,
    OracleMismatchError,
    ResourceLimitError,
    TriclError,
)
from .exactlinalg import (
    TRIVIAL_GROUP,
    FgAbelianGroup,
    IntMatrix,
    SmithData,
    cokernel,
    smith_invariants,
)
from .variety import (
    AdjustmentRecord,
    BlockInvariants,
    MAX_N_PRIME,
    RationalityClass,
    RationalityKind,
    TrinomialVariety,
    adjust,
    block_invariants,
    dimension,
    is_adjusted,
    rationality_class,
    render_relations,
)
from .coxring import (
    DuvalDiagram,
    IterationChain,
    IterationStep,
    PlatonicTriple,
    basic_platonic_triple,
    duval_diagram,
    duval_surface,
    is_hyperplatonic,
    iterate_cox_rings,
    p1_matrix,
    total_coordinate_space,
)
from .classgroup import (
    NOT_FINITELY_GENERATED,
    ClassGroupPredicates,
    ClassGroupReport,
    GroupMethod,
    IsolatedSingularityCase,
    IsolatedSingularityReport,
    NotFinitelyGenerated,
    class_group_formula,
    class_group_report,
    class_group_snf,
    compulsory_torsion,
    grading_matrix,
    isolated_singularity_report,
    n_tilde,
    predicates,
)
from .type1 import (
    Type1Variety,
    adjust_type1,
    class_group_type1,
    lift_to_type2,
    type1_n_tilde,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
