"""Complete search and solution reconstruction.

`mac_solve` is a MAC backtracker (arc consistency re-established after
every assignment) with conflict-weighted degree (dom/wdeg) variable
ordering and geometric restarts.  It keeps one list of domain masks and
a trail of (variable, old mask) pairs, undone on failure, so memory is
linear in the search depth (Schulte, "Comparing trailing and copying
for constraint programming", ICLP 1999).  Weight sums toward unassigned
neighbours are kept incrementally, and the dom/wdeg pick (Boussemart,
Hemery, Lecoutre and Sais, ECAI 2004) takes the top of a heap of scores
that is re-keyed lazily, so a pick costs O(log n) per entry it pushes,
pops or re-keys rather than a scan of every unassigned variable.
Propagation is `revise_to_fixpoint`'s reverse-row revise over arc
records built once per solve (`arc_records`): a queue pop reads its
rows off the record, with no tuple hashing or relation lookup, and pops
the same arcs in the same order as a queue of variable pairs would.
`reconstruct_solution` replays an elimination trace backwards,
extending a solution of the reduced instance to the original.
`preprocess` is the one reduction the `preprocess`, `solve` and
`compare` commands run, and the one solve path is
`solve_with_preprocessing`: `preprocess`, `mac_solve`, reconstruction,
under one deadline.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .consistency import (TimeBudgetExceeded, arc_records, check_deadline,
                          eliminate_singletons, enforce_ac, revise_to_fixpoint)
from .model import Instance, iter_bits


@dataclass(frozen=True)
class SearchConfig:
    initial_backtracks: int = 100
    restart_factor: float = 1.1
    time_limit: Optional[float] = None

    def __post_init__(self):
        if self.initial_backtracks < 1:
            raise ValueError("initial_backtracks must be >= 1")
        # the negated comparisons also reject NaN
        if not 1.0 <= self.restart_factor < math.inf:
            raise ValueError("restart_factor must be finite and >= 1.0")
        if self.time_limit is not None and not self.time_limit >= 0.0:
            raise ValueError("time_limit must be >= 0")


class ReconstructionError(RuntimeError):
    """Trace replay failed: the trace does not match the instance, or an
    elimination's extension guarantee did not hold."""


class _Restart(Exception):
    pass


def _log(log, line: str) -> None:
    if log is not None:
        log.append(line)


# ---------------------------------------------------------------------------
# MAC search


class _Attempt:
    """One restart: depth-first MAC limited to `budget` backtracks.

    The live domains are one list of masks indexed by variable, changed
    in place; `into` holds the arc records (`arc_records`).  Every
    change pushes (variable, old mask) on a trail, and each search frame
    remembers the trail length before its variable was assigned; each
    value tried pops the trail back to that mark first.
    ``wsum[i]`` is the weight of x_i's constraints toward unassigned
    neighbours, kept current on assign, unassign and weight bump.
    ``heap`` holds (score, variable) entries, re-keyed lazily: at each
    pick, every unassigned variable has an entry no greater than its
    current score.  ``dropped`` collects the variables whose score may
    have dropped since the last pick: those a successful propagation
    narrowed, an unassigned variable and its neighbours, and both ends
    of a bumped weight; the pick pushes their current scores.  What a
    failed propagation narrows is undone before the next pick, and
    undoing the trail or assigning a neighbour only raises scores.
    """

    def __init__(self, inst: Instance, neighbors: dict, into: list,
                 weights: dict, budget: int, deadline: Optional[float]):
        self.neighbors = neighbors
        self.into = into
        self.weights = weights
        self.budget = budget
        self.deadline = deadline
        self.backtracks = 0
        self.assigned: dict = {}
        self.masks = masks = [0] * len(into)
        for i in neighbors:
            masks[i] = inst.dom_mask(i)
        self.trail: list = []
        self.wsum = {i: sum(weights[(min(i, j), max(i, j))] for j in nbrs)
                     for i, nbrs in neighbors.items()}
        self.heap = self._fresh_heap()
        self.dropped: set = set()

    def run(self) -> Optional[dict]:
        masks = self.masks
        trail = self.trail
        # one frame per assigned variable: (variable, trail length before
        # its assignment, its untried values)
        stack = []
        while True:
            check_deadline(self.deadline)
            x = self._pick()
            if x is None:
                return dict(self.assigned)
            stack.append((x, len(trail), iter_bits(masks[x])))
            placed = False
            while not placed:
                x, mark, values = stack[-1]
                for v in values:
                    self._undo(mark)
                    trail.append((x, masks[x]))
                    masks[x] = 1 << v
                    if self._propagate(x):
                        self._assign(x, v)
                        self.dropped.update(i for i, _ in trail[mark:])
                        placed = True
                        break
                else:
                    if self.backtracks >= self.budget:
                        raise _Restart()
                    self.backtracks += 1
                    stack.pop()
                    if not stack:
                        return None
                    self._unassign(stack[-1][0])

    def _undo(self, mark: int) -> None:
        masks = self.masks
        trail = self.trail
        while len(trail) > mark:
            i, old = trail.pop()
            masks[i] = old

    def _assign(self, x: int, v: int) -> None:
        self.assigned[x] = v
        for j in self.neighbors[x]:
            self.wsum[j] -= self.weights[(min(x, j), max(x, j))]

    def _unassign(self, x: int) -> None:
        del self.assigned[x]
        self.dropped.add(x)
        self.dropped.update(self.neighbors[x])
        for j in self.neighbors[x]:
            self.wsum[j] += self.weights[(min(x, j), max(x, j))]

    def _score(self, i: int) -> float:
        """Live values per unit of weight toward unassigned neighbours;
        infinite for a variable with no such weight."""
        w = self.wsum[i]
        return self.masks[i].bit_count() / w if w else math.inf

    def _fresh_heap(self) -> list:
        """One current entry per unassigned variable."""
        assigned = self.assigned
        heap = [(self._score(i), i) for i in self.neighbors
                if i not in assigned]
        heapq.heapify(heap)
        return heap

    def _pick(self) -> Optional[int]:
        """Smallest ratio of live values to weights of constraints toward
        uninstantiated neighbours; unconstrained variables last; ties by
        variable index.  Pushes the dropped scores, then pops entries of
        assigned variables and re-keys stale ones until the top entry's
        score is current."""
        heap = self.heap
        assigned = self.assigned
        for i in self.dropped:
            if i not in assigned:
                heapq.heappush(heap, (self._score(i), i))
        self.dropped.clear()
        if len(heap) > 4 * len(self.neighbors):
            heap = self.heap = self._fresh_heap()
        while heap:
            score, i = heap[0]
            if i in assigned:
                heapq.heappop(heap)
                continue
            now = self._score(i)
            if now == score:
                return i
            heapq.heapreplace(heap, (now, i))
        return None

    def _propagate(self, start: int) -> bool:
        """Re-establish arc consistency after narrowing `start`.  On a
        wipeout, bump the culprit constraint's weight and fail."""
        wipeout = revise_to_fixpoint(self.into, self.masks,
                                     deque(self.into[start]), self.trail)
        if wipeout is None:
            return True
        j, i = wipeout
        self.weights[(min(i, j), max(i, j))] += 1
        # wsum counts the pair from an end whose other end is unassigned
        if j not in self.assigned:
            self.wsum[i] += 1
        if i not in self.assigned:
            self.wsum[j] += 1
            # a score dropped only where both ends are unassigned
            if j not in self.assigned:
                self.dropped.add(i)
                self.dropped.add(j)
        return False


def mac_solve(inst: Instance, config: Optional[SearchConfig] = None,
              log: Optional[list] = None) -> Optional[dict]:
    """Solve by MAC with restarts; a solution dict (internal values) or
    None if unsatisfiable.  Raises TimeBudgetExceeded past the limit.

    It searches `inst` as given, with no arc consistency at the root
    (`preprocess` runs that); each assignment still filters its
    neighbours, so it is sound and complete on any input.

    Restart k allows floor(initial * factor**k) backtracks.  Constraint
    weights persist across restarts.  `log` (a list) receives one
    ``restart <k> <budget>`` line per attempt, then ``backtracks
    <total>`` and ``verdict <sat|unsat|timeout>``.
    """
    cfg = config or SearchConfig()
    deadline = None
    if cfg.time_limit is not None:
        deadline = time.monotonic() + cfg.time_limit
    weights = {pair: 1 for pair in inst.pairs()}
    neighbors = {i: inst.neighbors(i) for i in inst.variables}
    into = arc_records(inst.relations, neighbors)[0]
    total = 0
    k = 0
    while True:
        budget = int(cfg.initial_backtracks * cfg.restart_factor ** k)
        _log(log, "restart %d %d" % (k, budget))
        attempt = _Attempt(inst, neighbors, into, weights, budget, deadline)
        try:
            solution = attempt.run()
        except _Restart:
            total += attempt.backtracks
            k += 1
            continue
        except TimeBudgetExceeded:
            total += attempt.backtracks
            _log(log, "backtracks %d" % total)
            _log(log, "verdict timeout")
            raise
        total += attempt.backtracks
        _log(log, "backtracks %d" % total)
        _log(log, "verdict %s" % ("unsat" if solution is None else "sat"))
        return solution


# ---------------------------------------------------------------------------
# reconstruction


def _snapshot_compatible(entry, s: dict, v: int) -> bool:
    for j, rows in entry.rel_snapshot.items():
        if not (rows[v] >> s[j]) & 1:
            return False
    return True


def reconstruct_solution(original: Instance, entries, reduced_solution: dict) -> dict:
    """Extend a solution of the reduced instance to one of the original
    by replaying the trace in reverse.  Values are internal throughout;
    each entry's rule says what its witness holds (`TraceEntry`)."""
    s = dict(reduced_solution)
    for entry in reversed(entries):
        rule, var, w = entry.rule, entry.var, entry.witness
        for j in entry.rel_snapshot:
            if j not in s:
                raise ReconstructionError(
                    "neighbour %d of %d unassigned during replay" % (j, var))
        if rule == "singleton":
            s[var] = w
        elif rule == "triangle":
            just, v_map = w
            if just not in s:
                raise ReconstructionError(
                    "justifier %d of %d unassigned" % (just, var))
            v_j = s[just]
            if v_j not in v_map:
                raise ReconstructionError(
                    "no dominating value for %d=%d at %d" % (just, v_j, var))
            s[var] = v_map[v_j]
        elif rule in ("aebtp", "bt-degree"):
            for v in entry.dom_snapshot:
                if _snapshot_compatible(entry, s, v):
                    s[var] = v
                    break
            else:
                raise ReconstructionError(
                    "no extension for %d: elimination guarantee violated" % var)
        elif rule == "de-snake":
            v_i, u_map = w
            conflicts = [j for j, rows in entry.rel_snapshot.items()
                         if not (rows[v_i] >> s[j]) & 1]
            s[var] = v_i
            for j in conflicts:
                key = (j, s[j])
                if key not in u_map:
                    raise ReconstructionError(
                        "no replacement for %d=%d at %d" % (j, s[j], var))
                s[j] = u_map[key]
        elif rule == "exists-snake":
            v_i = s[var] = w
            for j, rows in entry.rel_snapshot.items():
                if not (rows[v_i] >> s[j]) & 1:
                    repl = next(iter_bits(rows[v_i]), None)
                    if repl is None:
                        raise ReconstructionError(
                            "no replacement for %d at %d" % (j, var))
                    s[j] = repl
        else:
            raise ReconstructionError("unknown rule %r" % rule)
    missing = [i for i in original.variables if i not in s]
    if missing:
        raise ReconstructionError("variables %r left unassigned" % (missing,))
    return s


# ---------------------------------------------------------------------------
# pipeline


def preprocess(inst: Instance, rule: Optional[str] = None, ns: bool = False,
               deadline: Optional[float] = None):
    """Arc consistency, then singleton removal and `rule`'s engine to
    fixpoint; for None or "none", arc consistency only.  Returns
    (reduced instance, AC log, trace entries, sat flag, stage times).
    Only arc consistency can wipe a domain: singleton removal and NS
    cannot on arc-consistent input, and `run_engine` checks its input.
    The engine raises TimeBudgetExceeded past `deadline`, a
    ``time.monotonic()`` reading."""
    from .engines import run_engine

    times = {"ac": 0.0, "singletons": 0.0, "engine": 0.0}
    t0 = time.perf_counter()
    cur, ac_log, sat = enforce_ac(inst)
    times["ac"] = time.perf_counter() - t0
    entries = []
    if sat and rule not in (None, "none"):
        t1 = time.perf_counter()
        cur, entries = eliminate_singletons(cur)
        t2 = time.perf_counter()
        times["singletons"] = t2 - t1
        cur, rule_entries = run_engine(cur, rule, ns=ns, deadline=deadline)
        entries += rule_entries
        times["engine"] = time.perf_counter() - t2
    return cur, ac_log, entries, sat, times


def solve_with_preprocessing(inst: Instance, rule: Optional[str] = None,
                             config: Optional[SearchConfig] = None,
                             log: Optional[list] = None) -> Optional[dict]:
    """`preprocess` under `rule`, MAC on the remainder, then
    reconstruction back to the original instance (for None or "none",
    MAC on the arc-consistent closure).  A refutation by arc consistency
    logs no restart.  The time limit covers the whole pipeline: the
    engine stops at the deadline, logging ``backtracks 0`` and ``verdict
    timeout`` with no restart, and the search gets what preprocessing
    left of it."""
    start = time.monotonic()
    deadline = None
    if config is not None and config.time_limit is not None:
        deadline = start + config.time_limit
    try:
        cur, _, entries, sat, _ = preprocess(inst, rule, deadline=deadline)
    except TimeBudgetExceeded:
        _log(log, "backtracks 0")
        _log(log, "verdict timeout")
        raise
    if not sat:
        _log(log, "backtracks 0")
        _log(log, "verdict unsat")
        return None
    if deadline is not None:
        left = deadline - time.monotonic()
        config = dataclasses.replace(config, time_limit=max(0.0, left))
    reduced_solution = mac_solve(cur, config, log)
    if reduced_solution is None:
        return None
    return reconstruct_solution(inst, entries, reduced_solution)
