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
(`held`) goes.  A value with only full rows makes every live variable
a justifier.  The rule is not hereditary: a queued x_i is still
resumed, and goes only if it still has a live justifier.  Its witness
names the smallest and maps each v_j to the first v_i that covers it.
"""

from __future__ import annotations

from ..model import iter_bits
from ..trace import TriangleWitness
from .base import Engine


def _losses(inst, i: int) -> dict:
    """v_i -> (x_k, the values v_i forbids there) at each neighbour x_k of
    x_i where v_i's row is not full; callers skip the x_k that are gone."""
    return {v_i: [(k, m) for k in inst.neighbors(i)
                  if (m := inst.dom_mask(k) & ~inst.row(i, k, v_i))]
            for v_i in inst.dom(i)}


def _candidates(inst, i: int, lose: dict):
    """The live x_j that pass x_i's structural filter, in index order."""
    live = inst.live
    closed = {k: {k, *inst.neighbors(k)} for k in inst.neighbors(i)}
    found = set()
    for losses in lose.values():
        nf = [k for k, _ in losses if k in live]
        if not nf:
            return (j for j in inst.variables if j != i)
        found |= set.intersection(*[closed[k] for k in nf])
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
        self.lose = {i: _losses(self.inst, i) for i in self.inst.variables}
        for i in self.inst.variables:
            self._extend(i)

    def _extend(self, i: int) -> None:
        """Start x_i's candidates below its smallest live justifier in
        index order, stopping at the first that runs out."""
        inst, scans, lose = self.inst, self.scans[i], self.lose[i]
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
        return bool(self._justifiers(i))

    def witness(self, i: int) -> TriangleWitness:
        inst, lose = self.inst, self.lose[i]
        j = min(self._justifiers(i))
        return TriangleWitness(j, {v_j: _cover(inst, j, i, lose, v_j)
                                   for v_j in inst.dom(j)})

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
