"""Prize allocation rules for rank-order competitions.

Allocation rule families (equal division, winner-takes-all and -surplus,
interval, single-parametric, parametric, geometric, proportional), empirical
axiom checkers with counterexample witnesses, and fitting/classification of
observed prize tables.
"""

from .core import (
    Allocation,
    Competition,
    EventSet,
    PrizeAllocError,
    PrizeTable,
    Ranking,
    make_competition,
    standard_competition,
    subranking,
    validate_allocation,
)
from .rules import (
    ED,
    WTA,
    WTS,
    Counterexample,
    Geometric,
    Interval,
    IntervalList,
    MonotoneFn,
    Parametric,
    Proportional,
    RuleSpec,
    SingleParametric,
    allocate,
    arithmetic_rule,
    describe,
    hyperarithmetic_rule,
    prize_vector,
    step_rule,
    trace_path,
)
from .solver import SolverConfig, SolverFailure, solve_level
from .axioms import SampleBudget, Verdict, Witness, run_axiom_matrix, verify_witness
from .analysis import (
    Classification,
    FitReport,
    classify,
    check_data_top_consistency,
    detect_interval_pattern,
    fit_family,
    fit_geometric,
    fit_proportional,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "Competition", "EventSet", "PrizeAllocError", "PrizeTable",
    "Ranking", "make_competition", "standard_competition", "subranking",
    "validate_allocation",
    "ED", "WTA", "WTS", "Counterexample", "Geometric", "Interval",
    "IntervalList", "MonotoneFn", "Parametric", "Proportional", "RuleSpec",
    "SingleParametric", "allocate", "arithmetic_rule", "describe",
    "hyperarithmetic_rule", "prize_vector", "step_rule",
    "SolverConfig", "SolverFailure", "solve_level", "trace_path",
    "SampleBudget", "Verdict", "Witness", "run_axiom_matrix", "verify_witness",
    "Classification", "FitReport", "classify", "check_data_top_consistency",
    "detect_interval_pattern", "fit_family", "fit_geometric", "fit_proportional",
    "__version__",
]
