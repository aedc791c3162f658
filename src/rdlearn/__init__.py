"""Physically consistent reaction terms for reaction-diffusion systems.

The package builds smooth cutoff functions, wraps learned or analytic
reaction terms so that quasipositivity and mass control hold by
construction, solves the resulting PDE systems with an IMEX scheme, and
learns reaction terms from noisy measurements through an all-at-once
variational problem with level-indexed regularization schedules.
"""

from rdlearn.consistency import (
    ConsistentReaction,
    WrapperSchedule,
    rate_preservation_study,
    strict_rate_estimate,
    wrap,
)
from rdlearn.learn import (
    AllAtOnceProblem,
    LevelResult,
    LevelSchedule,
    MeasurementOperator,
    SweepRow,
    generate_measurements,
    identification_sweep,
    make_schedule,
    solve_level,
)
from rdlearn.quasipos import (
    BoundaryLayer,
    BoundaryMeasure,
    approximation_experiment,
    modify,
    nonlinear_volume_report,
    sample_members,
    section_profile,
)
from rdlearn.rdsolve import (
    BlowUpError,
    DiffusionSpec,
    SpaceTimeGrid,
    StabilityError,
    StateField,
    estimate_mass_tolerance,
    manufactured_convergence,
    mass_audit,
    solve,
)
from rdlearn.reaction import (
    AnalyticReaction,
    ConditionReport,
    MLPReaction,
    ReactionTerm,
    check_conditions,
    load_params,
    make_reaction,
    save_params,
)
from rdlearn.transition import (
    MollifierKernel,
    TransitionFunction,
    build_mollified_heaviside,
    default_kernel,
    derivative_bound,
)

__all__ = [
    "AllAtOnceProblem",
    "AnalyticReaction",
    "BlowUpError",
    "BoundaryLayer",
    "BoundaryMeasure",
    "ConditionReport",
    "ConsistentReaction",
    "DiffusionSpec",
    "LevelResult",
    "LevelSchedule",
    "MLPReaction",
    "MeasurementOperator",
    "MollifierKernel",
    "ReactionTerm",
    "SpaceTimeGrid",
    "StabilityError",
    "StateField",
    "SweepRow",
    "TransitionFunction",
    "WrapperSchedule",
    "approximation_experiment",
    "build_mollified_heaviside",
    "check_conditions",
    "default_kernel",
    "derivative_bound",
    "estimate_mass_tolerance",
    "generate_measurements",
    "identification_sweep",
    "load_params",
    "make_reaction",
    "make_schedule",
    "manufactured_convergence",
    "mass_audit",
    "modify",
    "nonlinear_volume_report",
    "rate_preservation_study",
    "sample_members",
    "section_profile",
    "solve",
    "solve_level",
    "strict_rate_estimate",
    "wrap",
]

__version__ = "0.1.0"
