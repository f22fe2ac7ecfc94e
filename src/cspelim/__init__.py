"""Satisfiability-conserving variable elimination for binary constraint
networks: five elimination rules with definitional checkers and
incremental fixpoint engines, arc consistency, neighbourhood
substitution, solution reconstruction, a MAC solver with restarts, and
verification oracles.
"""

from .consistency import (CAUSE_AC, CAUSE_ELIM, CAUSE_NS,
                          NotArcConsistentError, eliminate_singletons,
                          eliminate_variable, enforce_ac, is_arc_consistent,
                          ns_fixpoint)
from .engines import ENGINES, Engine, check_engine_precondition, run_engine
from .model import (FormatError, Instance, format_instance, iter_bits,
                    load_instance, parse_instance, save_instance)
from .oracle import (GeneratorConfig, SizeGuardExceeded, brute_force_solve,
                     count_solutions, is_solution, naive_fixpoint,
                     random_instance)
from .patterns import (MIN_LIVE, RULES, bt_degree, check_aebtp,
                       check_bt_degree_property, check_de_snake,
                       check_exists_snake, check_triangle, checker_accepts)
from .solver import (ReconstructionError, SearchConfig, TimeBudgetExceeded,
                     mac_solve, reconstruct_solution, solve_with_preprocessing)
from .trace import (Deletion, TraceEntry, format_trace, make_entry,
                    parse_trace, write_trace)

__version__ = "0.1.0"

__all__ = [
    "CAUSE_AC", "CAUSE_ELIM", "CAUSE_NS",
    "NotArcConsistentError", "eliminate_singletons", "eliminate_variable",
    "enforce_ac", "is_arc_consistent", "ns_fixpoint",
    "ENGINES", "Engine", "check_engine_precondition", "run_engine",
    "FormatError", "Instance", "format_instance",
    "iter_bits", "load_instance", "parse_instance", "save_instance",
    "GeneratorConfig", "SizeGuardExceeded", "brute_force_solve",
    "count_solutions", "is_solution", "naive_fixpoint", "random_instance",
    "MIN_LIVE", "RULES", "bt_degree", "check_aebtp",
    "check_bt_degree_property", "check_de_snake", "check_exists_snake",
    "check_triangle", "checker_accepts",
    "ReconstructionError", "SearchConfig", "TimeBudgetExceeded", "mac_solve",
    "reconstruct_solution", "solve_with_preprocessing",
    "Deletion", "TraceEntry", "format_trace", "make_entry", "parse_trace",
    "write_trace",
    "__version__",
]
