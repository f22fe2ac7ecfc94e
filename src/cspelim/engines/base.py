"""Shared machinery for the incremental elimination engines.

Every rule has one shape: x_i can go when, for some key (a value v_i
for the snake rules, a justifier x_j for triangle, x_i itself for the
broken-triangle rules), a forbidden pattern occurs on none of a fixed
list of items.  Engines check this with watched scans (Gent, Jefferson
& Miguel, "Watched literals for constraint propagation in Minion",
CP 2006).  A scan is a generator over the items that fail, in a fixed
order; resumed, it tests the item it last yielded again and goes on
past it once it holds.  An item that holds never fails again, so a
scan never goes back, and x_i is eliminable exactly when one of its
scans has run out.  A scan must not refer to the engine: the engine
holds the scan, and the cycle would keep a finished engine's tables
alive until the cycle collector runs.

Candidates sit in a min-priority queue on variable index, so the engine
eliminates the same variable the naive smallest-index rescan would;
with exact scans the produced traces coincide with the naive fixpoint's.

An engine reads x_i's witness off its own tables (`witness(i)`); no
definitional checker runs.  The tests certify every witness against
the checkers, and `cspelim verify` compares whole trace entries with
the naive fixpoint's.

The engine's instance is the only record of what is live: `run`
removes x_i from it before `propagate`, and scans test membership in
`inst.live`, the set that removal shrinks.

With `ns`, neighbourhood substitution (Cooper, AIJ 1997) follows each
elimination on the same instance, in place, and a pass that deletes
values restarts the engine.  Exact: the tables are a function of the
live instance; NS keeps it arc consistent, as the dominating value has
every support of the deleted one; and `run`'s support-deletion guard
still checks that premise, raising NotArcConsistentError as
`run_engine`'s precondition does.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Optional

from ..consistency import (NotArcConsistentError, check_deadline,
                           eliminate_variable, is_arc_consistent, ns_fixpoint)
from ..model import Instance
# uncalled: `bench/layers.py` times the name here and is its only reader
from ..patterns import MIN_LIVE, checker_accepts  # noqa: F401
from ..trace import TraceEntry, make_entry


class Engine:
    """Base fixpoint loop.  Subclasses set `rule`, implement
    `initialise()`, `propagate(var, neighbors)` and `witness(i)`, start
    x_i's scans with `watch(i, key, scan)` and resume them with
    `resume(i)`; both queue x_i with `push(i)` once a scan runs out."""

    rule = ""
    # set by `run`; None for an engine driven without it
    deadline: Optional[float] = None

    def __init__(self, inst: Instance):
        self.inst = inst

    def _start(self) -> None:
        self._heap, self._queued = [], set()
        # i -> {key: [scan, watched item], or None once the scan ran out}
        self.scans: dict = {i: {} for i in self.inst.variables}
        self.initialise()

    # -- queue -------------------------------------------------------

    def push(self, i: int) -> None:
        if i in self._queued or i not in self.inst.live:
            return
        self._queued.add(i)
        heapq.heappush(self._heap, i)

    def _pop(self):
        while self._heap:
            i = heapq.heappop(self._heap)
            self._queued.discard(i)
            if i in self.inst.live:
                return i
        return None

    def revalidate(self, i: int) -> bool:
        """Is a queued candidate still eliminable?  Hereditary rules
        never invalidate; the triangle engine overrides this."""
        return True

    # -- watched scans -----------------------------------------------

    def watch(self, i: int, key, scan) -> None:
        """Start `scan` for x_i under `key`; queue x_i if it runs out.
        Checks the deadline first, so set-up stops within one scan."""
        check_deadline(self.deadline)
        item = next(scan, None)
        self.scans[i][key] = None if item is None else [scan, item]
        if item is None:
            self.push(i)

    def resume(self, i: int) -> None:
        """Test the watched item of each running scan of x_i again and
        move the scan on if it holds; queue x_i if one runs out."""
        scans = self.scans[i]
        for key, w in scans.items():
            if w is None:
                continue
            item = next(w[0], None)
            if item == w[1]:
                continue
            if item is None:
                scans[key] = None
                self.push(i)
            else:
                w[1] = item

    # -- main loop ---------------------------------------------------

    def run(self, ns: bool = False, deadline: Optional[float] = None
            ) -> tuple[Instance, list[TraceEntry]]:
        """Eliminate to the fixpoint, NS after each elimination with
        `ns`.  Checks `deadline` (`check_deadline`) before each
        elimination, in each NS pass and as set-up starts each scan."""
        inst = self.inst
        self.deadline = deadline
        self._start()
        entries: list[TraceEntry] = []
        min_live = MIN_LIVE[self.rule]
        while inst.n >= min_live:
            check_deadline(deadline)
            i = self._pop()
            if i is None:
                break
            if not self.revalidate(i):
                continue
            nbrs = inst.neighbors(i)
            entries.append(make_entry(inst, self.rule, i, self.witness(i)))
            # a rule elimination on an arc-consistent instance never
            # deletes values
            if eliminate_variable(inst, i)[0]:
                raise NotArcConsistentError(
                    "support deletion during engine run: input was "
                    "not arc consistent")
            self.propagate(i, nbrs)
            del self.scans[i]
            log = ns_fixpoint(inst, deadline) if ns else ()
            if log:
                entries[-1] = replace(entries[-1], deletions=tuple(log))
                self._start()
        return inst, entries

    # -- subclass API ------------------------------------------------

    def initialise(self) -> None:
        raise NotImplementedError

    def witness(self, i: int):
        """The witness of x_i, a popped candidate that `revalidate`
        accepted, read off the tables; the rule's checker gives the
        same one."""
        raise NotImplementedError

    def propagate(self, var: int, neighbors: list[int]) -> None:
        """Update tables and resume scans for the elimination of `var`,
        whose neighbours were `neighbors`.  Called once `var` has left
        the instance: its rows are gone and it is not in `inst.live`."""
        raise NotImplementedError


def check_engine_precondition(inst: Instance) -> None:
    if not is_arc_consistent(inst):
        raise NotArcConsistentError(
            "elimination engines require an arc-consistent instance "
            "with no empty domain")
