"""Exact contextuality analysis for content-context systems.

Random variables are indexed by what they measure (content) and the
conditions they are measured under (context).  This package decides, by
exact rational arithmetic, whether such a system is contextual: whether the
variables' identity across contexts can be reconciled by any joint
distribution no worse than each content pair allows in isolation (the
Contextuality-by-Default criterion, cnt = system_delta - delta_sum > 0).
"""

from .analysis import (
    AnalysisReport,
    PairDelta,
    analyze,
    analyze_deterministic,
    is_deterministic,
)
from .coupling import (
    DEFAULT_ATOM_CAP,
    CouplingWitness,
    LPInstance,
    LPSolution,
    build_coupling_lp,
    delta_pairs,
    solve_lp,
    system_delta,
    verify_solution,
)
from .cyclic import CyclicCriterion, CyclicStructure, cyclic_criterion, detect_cyclic
from .epistemic import (
    ContextConstraint,
    DeterministicVariant,
    EpistemicContext,
    EpistemicSpec,
    enumerate_variants,
    liar_system,
    uniform_mixture,
)
from .errors import (
    CapExceeded,
    CbdError,
    DomainMismatch,
    DuplicateCell,
    DuplicateContentInContext,
    DuplicateContext,
    EmptySystem,
    EmptyVariantSet,
    InternalError,
    InvalidArgument,
    InvalidProbability,
    NotCyclic,
    NotDeterministic,
    NotPlusMinusOne,
    ProbabilitySumMismatch,
    SystemFileError,
    UnknownContent,
    VariableNotInContext,
)
from .serialization import (
    parse_system,
    parse_system_data,
    parse_system_text,
    system_to_dict,
    write_system,
)
from .systems import (
    MINUS,
    PLUS,
    Consistency,
    ContextBlock,
    Marginal,
    System,
    is_consistently_connected,
    marginal,
    to_fraction,
    validate_system,
)

__version__ = "5.0.0"
