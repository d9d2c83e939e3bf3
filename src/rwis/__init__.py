"""Robust maximum-weight independent set solvers on interval graphs.

Deterministic core solver, max-min and min-max regret criteria under discrete
scenario sets and per-vertex weight ranges, approximation algorithms with
certified worst-case ratios, exact Pareto-frontier solvers and scaling
schemes, hardness-gadget instance generators, and a JSON instance format.
"""

from .approx import adversarial_ratio, k_approx_regret, midpoint_approx_regret
from .core import (
    Interval,
    IntervalFamily,
    enumerate_independent_sets,
    is_independent,
    max_weight_is,
    max_weight_is_all_optima,
    overlaps,
)
from .errors import (
    FrontierCapError,
    GuardError,
    ParseError,
    RwisError,
    UnsupportedCombinationError,
    ValidationError,
)
from .fileformat import dumps_instance, parse_instance, write_instance
from .gen import (
    PartitionInput,
    UndirectedGraph,
    gen_partition,
    gen_random,
    gen_tight_k,
    gen_tight_midpoint,
    gen_vertex_cover,
    has_partition,
    has_vertex_cover_within,
    vertex_cover_number,
)
from .robust import (
    ParetoFrontier,
    RegretReport,
    fptas_max_min,
    fptas_regret_discrete,
    max_min_value,
    max_regret_discrete,
    max_regret_interval,
    opt_weight,
    pareto_frontier,
    solve_max_min_bruteforce,
    solve_max_min_exact,
    solve_max_min_interval,
    solve_regret_discrete_bruteforce,
    solve_regret_discrete_exact,
    solve_regret_interval_bruteforce,
    solve_regret_interval_exact,
    weight_under,
)
from .scenarios import (
    DiscreteScenarioSet,
    Instance,
    IntervalUncertainty,
    extreme_scenarios,
    worst_case_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "IntervalFamily",
    "overlaps",
    "is_independent",
    "max_weight_is",
    "max_weight_is_all_optima",
    "enumerate_independent_sets",
    "DiscreteScenarioSet",
    "IntervalUncertainty",
    "Instance",
    "worst_case_scenario",
    "extreme_scenarios",
    "RegretReport",
    "ParetoFrontier",
    "weight_under",
    "opt_weight",
    "max_min_value",
    "max_regret_discrete",
    "max_regret_interval",
    "solve_max_min_interval",
    "pareto_frontier",
    "solve_max_min_exact",
    "solve_regret_discrete_exact",
    "solve_max_min_bruteforce",
    "solve_regret_discrete_bruteforce",
    "solve_regret_interval_exact",
    "solve_regret_interval_bruteforce",
    "fptas_max_min",
    "fptas_regret_discrete",
    "k_approx_regret",
    "midpoint_approx_regret",
    "adversarial_ratio",
    "UndirectedGraph",
    "PartitionInput",
    "gen_vertex_cover",
    "gen_partition",
    "gen_tight_k",
    "gen_tight_midpoint",
    "gen_random",
    "has_vertex_cover_within",
    "vertex_cover_number",
    "has_partition",
    "parse_instance",
    "write_instance",
    "dumps_instance",
    "RwisError",
    "ParseError",
    "ValidationError",
    "GuardError",
    "FrontierCapError",
    "UnsupportedCombinationError",
]
