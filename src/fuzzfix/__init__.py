"""Contraction mappings and fixed-point solvers on fuzzy metric spaces.

The package builds the standard fuzzy metric t / (t + d) over finite,
interval, and Euclidean spaces, verifies its axioms and the contraction
hypotheses by seeded sampling with an exact threshold reduction of the
time quantifier, and runs horizon-certified iteration to coincidence
points (single-valued) and inclusion points (set-valued).
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    FuzzfixError,
    HorizonExceeded,
    InvalidK,
    InverseUndefined,
    NoAdmissibleSuccessor,
    NotBijective,
    NotDemicompact,
    ParseError,
    PhiInvalid,
    UnknownPoint,
    ValidationError,
)
from .report import LawCheck, Report
from .tnorm import (
    TNorm,
    delta_for_lambda,
    fold,
    verify_tnorm_axioms,
)
from .phi import (
    InducedPhi,
    LinearPhi,
    RationalPhi,
    TablePhi,
    crossing_time,
    ensure_phi_class,
    horizon,
    iterate,
    verify_phi_class,
)
from .fmspace import (
    EuclideanSpace,
    FiniteSpace,
    FuzzyMetric,
    IntervalSpace,
    in_uniformity,
    is_cauchy_window,
    onset,
    threshold,
    verify_fm_axioms,
)
from .maps import (
    AffineBijection,
    AffineMap,
    ConstantMap,
    InverseComposite,
    PermutationBijection,
    TableMap,
    identity_for,
)
from .contraction import (
    ContractionReport,
    CounterExample,
    check_g_phi,
    sample_pairs,
)
from .solver import (
    IterationRecord,
    PairGrade,
    SolveResult,
    SolverConfig,
    UniquenessReport,
    solve_coincidence,
    trace_records,
    uniqueness_probe,
)
from .multivalued import (
    MemberEvidence,
    OrbitResult,
    SetValuedMap,
    check_setvalued_contraction,
    select_successor,
    solve_inclusion,
    validate_setvalued,
)
from .cli import ProblemConfig, RunReport, parse_config, render_report, run

# Every public name imported above; the submodules are not part of it.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
