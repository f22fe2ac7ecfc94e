"""Incremental fixpoint engines, one per elimination rule.

Engines reproduce exactly the eliminations (and traces) of the naive
smallest-index rescan, but maintain incremental tables instead of
re-running the definitional checkers after every elimination.
"""

from typing import Optional

from ..model import Instance
from ..trace import TraceEntry
from .base import Engine, check_engine_precondition
from .snake import DeSnakeEngine, ExistsSnakeEngine
from .triangle import TriangleEngine
from .bt_degree import BTDegreeEngine
from .aebtp import AEBTPEngine

ENGINES = {
    "exists-snake": ExistsSnakeEngine,
    "de-snake": DeSnakeEngine,
    "triangle": TriangleEngine,
    "bt-degree": BTDegreeEngine,
    "aebtp": AEBTPEngine,
}


def run_engine(inst: Instance, rule: str, ns: bool = False,
               deadline: Optional[float] = None):
    """Run the incremental engine for `rule` on a copy of `inst`, which
    it reduces in place, and return (that copy, trace entries).  The
    input must be arc consistent with no empty domain; only `ns` deletes
    values, from the same copy.  Past `deadline` (a ``time.monotonic()``
    reading) the run raises TimeBudgetExceeded."""
    if rule not in ENGINES:
        raise ValueError("unknown rule %r" % rule)
    check_engine_precondition(inst)
    engine = ENGINES[rule](inst.copy())
    return engine.run(ns, deadline)
