"""Incremental engine for the triangle (domination) rule.

x_j justifies eliminating x_i when every v_j has a compatible v_i that
covers it: row(j, k, v_j) lies in row(i, k, v_i) at every other
neighbour x_k of x_i.

Candidates.  Let NF(v_i) be the neighbours x_k where row(i, k, v_i) is
not all of D(x_k).  A k that x_j does not constrain gives
row(j, k, v_j) = D(x_k), which only a full row covers; so x_j can
justify x_i only if, for some v_i, j is in the intersection of N(x_k)
plus k over k in NF(v_i).  Rows never change and engines delete no
values, so NF only shrinks: the candidates only grow, and only at the
neighbours of an eliminated variable.

Watched scans (see `base.py`).  x_i keeps one scan per started
candidate x_j, keyed by j, over the values v_j that no v_i covers; j
justifies i once it runs out.  A covered v_j stays covered while x_i
and x_j are live, since an elimination only shrinks N(x_i) and leaves
the covering v_i fewer rows to cover.  So a justifier stays one while
both are live, and a scan resumes only when a neighbour of x_i goes.

The engine reads only whether x_i has a live justifier and which is
the smallest, so x_i's candidates start in index order up to the first
justifier; the rest wait until a neighbour of x_i or that justifier
(`held`) goes.  The rule is not hereditary: a queued x_i is still
resumed, and goes only if it still has a live justifier.  Its witness
names the smallest and maps each v_j to the first v_i that covers it.

Universal variables.  x_i is universal once some v_i has NF(v_i)
empty: every row of v_i toward a live neighbour is full, so v_i is
compatible with every v_j and covers it, and every other live variable
justifies x_i.  NF only shrinks, so x_i stays universal; it is queued
once, with no scans and no candidates, and its witness names the
smallest other live variable.
"""

from __future__ import annotations

from ..consistency import check_deadline
from ..model import iter_bits
from .base import Engine


def _losses(inst, i: int) -> dict:
    """v_i -> (x_k, the values v_i forbids there) at each neighbour x_k of
    x_i where v_i's row is not full; callers skip the x_k that are gone."""
    lose = {v_i: [] for v_i in inst.dom(i)}
    for k in inst.neighbors(i):
        dom_k, rows = inst.dom_mask(k), inst.relations[i, k]
        for v_i, losses in lose.items():
            if m := dom_k & ~rows[v_i]:
                losses.append((k, m))
    return lose


def _candidates(inst, i: int, lose: dict) -> list:
    """The live x_j that pass the structural filter of x_i, which is not
    universal, in index order."""
    live = inst.live
    closed = {k: {k, *inst.neighbors(k)} for k in inst.neighbors(i)}
    found = set()
    for losses in lose.values():
        found |= set.intersection(*[closed[k] for k, _ in losses
                                    if k in live])
    return sorted(found - {i})


def _cover(inst, j: int, i: int, lose: dict, v_j: int):
    """The first value of x_i compatible with v_j that covers it at
    every live neighbour of x_i other than x_j, or None."""
    live = inst.live
    return next((v_i for v_i in iter_bits(inst.row(j, i, v_j))
                 if all(k == j or k not in live or not inst.row(j, k, v_j) & m
                        for k, m in lose[v_i])), None)


def _uncovered(inst, j: int, i: int, lose: dict):
    """The values of x_j that no compatible value of x_i covers, in scan
    order; the one last yielded is tested again on each resumption."""
    for v_j in inst.dom(j):
        while _cover(inst, j, i, lose, v_j) is None:
            yield v_j


class TriangleEngine(Engine):
    rule = "triangle"

    def initialise(self) -> None:
        # x_j -> the x_i whose candidates wait while x_j justifies them
        self.held: dict = {}
        self.universal: set = set()
        # the variables in index order; those before `gone` are all gone
        self.order = self.inst.variables
        self.gone = 0
        self.lose = {i: _losses(self.inst, i) for i in self.order}
        for i in self.order:
            self._extend(i)

    def _extend(self, i: int) -> None:
        """Queue x_i once if it is universal; else start its candidates
        below its smallest live justifier in index order, stopping at
        the first that runs out."""
        if i in self.universal:
            return
        inst, scans, lose = self.inst, self.scans[i], self.lose[i]
        live = inst.live
        if any(all(k not in live for k, _ in losses)
               for losses in lose.values()):
            # as `watch` does, so set-up stops within one variable
            check_deadline(self.deadline)
            self.universal.add(i)
            scans.clear()
            self.push(i)
            return
        first = min(self._justifiers(i), default=None)
        for j in _candidates(inst, i, lose):
            if first is not None and j > first:
                break
            if j not in scans:
                self.watch(i, j, _uncovered(inst, j, i, lose))
                if scans[j] is None:
                    first = j
        if first is not None:
            self.held.setdefault(first, set()).add(i)

    def _justifiers(self, i: int) -> list:
        live = self.inst.live
        return [j for j, w in self.scans[i].items()
                if w is None and j in live]

    def revalidate(self, i: int) -> bool:
        if i in self.universal:
            return self.inst.n > 1
        return bool(self._justifiers(i))

    def witness(self, i: int) -> tuple:
        inst, lose = self.inst, self.lose[i]
        if i in self.universal:
            live, order = inst.live, self.order
            while order[self.gone] not in live:
                self.gone += 1
            j = next(order[p] for p in range(self.gone, len(order))
                     if order[p] != i and order[p] in live)
        else:
            j = min(self._justifiers(i))
        return j, {v_j: _cover(inst, j, i, lose, v_j) for v_j in inst.dom(j)}

    def propagate(self, var: int, neighbors: list) -> None:
        live = self.inst.live
        for i in neighbors:
            scans = self.scans[i]
            for j in scans.keys() - live:
                del scans[j]
            self.resume(i)
            self._extend(i)
        # x_i is queued while x_var justifies it, so these queue nothing
        for i in self.held.pop(var, set()) & live:
            self._extend(i)
