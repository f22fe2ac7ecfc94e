"""Shared machinery for the incremental elimination engines.

Each engine maintains bookkeeping tables that certify, at every point,
exactly which live variables its rule can eliminate.  Candidates sit in
a min-priority queue on variable index, so the engine eliminates the
same variable the naive smallest-index rescan would; with exact tables
the produced traces coincide with the naive fixpoint's.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import repeat
from operator import and_, invert, or_

from ..consistency import (NotArcConsistentError, eliminate_variable,
                           is_arc_consistent)
from ..model import Instance
from ..patterns import MIN_LIVE, checker_accepts
from ..trace import TraceEntry, make_entry


class EngineAudit:
    """Engine diagnostics: how often each table-update branch fired per
    (label, key), and the (var, phase) of every queue insertion."""

    def __init__(self) -> None:
        self.branch_fires: Counter = Counter()
        self.insertions: list[tuple] = []


class Engine:
    """Base fixpoint loop.  Subclasses set `rule`, implement
    `initialise()` and `propagate(var, neighbors)`, and push candidates
    through `push()` whenever their tables certify eliminability."""

    rule = ""
    # Certify each elimination over x_i's neighbours only.  The extension
    # rules set it: on the arc-consistent instances engines run on, their
    # checkers give the same answer over that scope (see `check_aebtp`);
    # the support-deletion check in `run` guards that premise.
    certify_neighbours = False

    def __init__(self, inst: Instance, audit: EngineAudit | None = None):
        self.inst = inst
        self.audit = audit
        self._heap: list[int] = []
        self._queued: set[int] = set()
        self.eliminated: set[int] = set()

    # -- queue -------------------------------------------------------

    def push(self, i: int, phase: str) -> None:
        if i in self.eliminated or i in self._queued:
            return
        self._queued.add(i)
        heapq.heappush(self._heap, i)
        if self.audit is not None:
            self.audit.insertions.append((i, phase))

    def _pop(self):
        while self._heap:
            i = heapq.heappop(self._heap)
            self._queued.discard(i)
            if i not in self.eliminated:
                return i
        return None

    def revalidate(self, i: int) -> bool:
        """Is a queued candidate still eliminable?  Hereditary rules
        never invalidate; the triangle engine overrides this."""
        return True

    def check_witness(self, i: int, witness) -> None:
        """Cross-check the recomputed witness against the tables.
        Optional; engines override it as a cheap exactness canary."""

    # -- main loop ---------------------------------------------------

    def run(self) -> tuple[Instance, list[TraceEntry]]:
        self.initialise()
        entries: list[TraceEntry] = []
        min_live = MIN_LIVE[self.rule]
        while self.inst.n >= min_live:
            i = self._pop()
            if i is None:
                break
            if not self.revalidate(i):
                continue
            nbrs = self.inst.neighbors(i)
            witness = checker_accepts(
                self.inst, self.rule, i,
                among=nbrs if self.certify_neighbours else None)
            if witness is None:
                raise AssertionError(
                    "engine tables certified %d for %s but the checker "
                    "disagrees" % (i, self.rule))
            self.check_witness(i, witness)
            entries.append(make_entry(self.inst, self.rule, i, witness))
            self.eliminated.add(i)
            self.propagate(i, nbrs)
            # a rule elimination on an arc-consistent instance never
            # deletes values
            if eliminate_variable(self.inst, i)[0]:
                raise AssertionError(
                    "support deletion during engine run: input was "
                    "not arc consistent")
        return self.inst, entries

    # -- subclass API ------------------------------------------------

    def initialise(self) -> None:
        raise NotImplementedError

    def propagate(self, var: int, neighbors: list[int]) -> None:
        """Update tables for the elimination of `var`.  Called while
        `var` is still present in the instance (its rows are readable);
        implementations must treat it as gone."""
        raise NotImplementedError


def escape_masks(inst: Instance, nbrs: list, mcols: dict, i: int,
                 v_i: int, r_i: int) -> tuple[list, list]:
    """Escape masks of (x_i, v_i) towards x_m, one per neighbour of x_m,
    read off x_m's reverse rows (Lecoutre & Vion, CPL 2008).

    `nbrs` lists the neighbours of x_m, x_i among them; `mcols` maps
    each value u of x_m to [row(m, t, u) for t in nbrs]; r_i is
    row(i, m, v_i).  The two lists, aligned with `nbrs` and 0 at x_i,
    hold per x_j the values compatible with v_i whose row to x_m has a
    value outside r_i (`e`), and those whose row misses a value of r_i
    (`d`):

        e = row(i, j, v_i) & OR(row(m, j, u) for u in D(m) & ~r_i)
        d = row(i, j, v_i) & ~AND(row(m, j, u) for u in r_i)
    """
    # the folds stay lazy: each neighbour's column is combined once, when
    # the lists below are built
    outside = repeat(0)
    inside = repeat(-1)
    for u, col in mcols.items():
        if (r_i >> u) & 1:
            inside = map(and_, inside, col)
        else:
            outside = map(or_, outside, col)
    rows = [inst.row(i, j, v_i) if j != i else 0 for j in nbrs]
    return (list(map(and_, rows, outside)),
            list(map(and_, rows, map(invert, inside))))


def check_engine_precondition(inst: Instance) -> None:
    if not is_arc_consistent(inst):
        raise NotArcConsistentError(
            "elimination engines require an arc-consistent instance "
            "with no empty domain")
