"""Incremental engines for the two snake rules.

Both rest on one table, `vars_plus_minus`: for each ordered value pair
(v_j, v'_j) of x_j, the mask over variable index of the neighbours x_k
of x_j where v_j has a compatible value that v'_j lacks, i.e. where
replacing v_j by v'_j would lose support.  The pair is "bad for x_i"
while its mask holds a live variable other than x_i (`live[0]` is the
mask of live variables); eliminations only ever clear that.  Entries
are built on first read (`loss_mask`), exact as rows never change in a
run and every read masks with `live[0]`; most are never built.

Each value v_i of x_i has one watched scan (see `base.py`).  The
existential rule scans the pairs (v_j incompatible, v'_j compatible
with v_i) at the neighbours x_j, failing on the bad ones: v_i is
snake-free once none is left.  The directional (replacement) rule
scans the incompatible v_j, failing on those with no replacement v'_j
compatible with v_i that is bad for nobody but x_i.  An elimination
changes the pairs only at its neighbours x_j, so only scans at
distance two or less resume.  Both rules are hereditary, so a queued
variable's scans are left alone.

The witness value is the smallest whose scan has run out, once the
scans below it, left alone while x_i was queued, have moved on.
"""

from __future__ import annotations

from ..model import iter_bits
from ..trace import DeSnakeWitness, SnakeWitness
from .base import Engine


def loss_mask(inst, vpm: dict, j: int, v: int, vp: int) -> int:
    """The loss mask of (v, v') at x_j; `vpm[j]` holds x_j's neighbours,
    its rows per value and the masks built so far."""
    if j not in vpm:
        nbrs = inst.neighbors(j)
        vpm[j] = (nbrs, {u: [inst.row(j, k, u) for k in nbrs]
                         for u in inst.dom(j)}, {})
    nbrs, rows, masks = vpm[j]
    if (v, vp) not in masks:
        masks[(v, vp)] = sum(1 << k for k, a, b in
                             zip(nbrs, rows[v], rows[vp]) if a & ~b)
    return masks[(v, vp)]


def _bad_pairs(inst, live: list, vpm: dict, i: int, v_i: int):
    """The pairs (j, v_j, v'_j) that are bad for x_i with v_j forbidden
    and v'_j allowed by v_i, in scan order."""
    others = ~(1 << i)
    for j in inst.neighbors(i):
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            for vp_j in iter_bits(row):
                while (live[0] >> j & 1 and others & live[0]
                       & loss_mask(inst, vpm, j, v_j, vp_j)):
                    yield j, v_j, vp_j


def _replacement(inst, live: list, vpm: dict, i: int, j: int, v_j: int,
                 row: int):
    """The first v'_j in `row` (the values of x_j allowed by v_i) that
    is bad for nobody but x_i as replacement of v_j, or None."""
    others = ~(1 << i)
    return next((vp_j for vp_j in iter_bits(row) if not
                 others & live[0] & loss_mask(inst, vpm, j, v_j, vp_j)),
                None)


def _unreplaced(inst, live: list, vpm: dict, i: int, v_i: int):
    """The (j, v_j) with v_j forbidden by v_i and every v'_j allowed by
    v_i bad for x_i, in scan order."""
    for j in inst.neighbors(i):
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            while live[0] >> j & 1 and _replacement(
                    inst, live, vpm, i, j, v_j, row) is None:
                yield j, v_j


class _SnakeEngine(Engine):
    """The loss-mask table, one scan per value and the distance-two
    `propagate`.  Subclasses set `rule` and `scan`."""

    def initialise(self) -> None:
        inst = self.inst
        # j -> (neighbours, rows per value, {(v, v'): loss mask})
        self.vars_plus_minus = vpm = {}
        # the mask of live variables, in a list so that the scans see it
        # shrink
        self.live = [sum(1 << i for i in inst.variables)]
        for i in inst.variables:
            for v_i in inst.dom(i):
                if i in self._queued:  # one value is enough
                    break
                self.watch(i, v_i, self.scan(inst, self.live, vpm, i, v_i))

    def propagate(self, var: int, neighbors: list) -> None:
        self.live[0] &= ~(1 << var)
        near = set(neighbors)
        for j in neighbors:
            near.update(self.inst.neighbors(j))
        for i in near - self.eliminated - self._queued:
            self.resume(i)

    def _free_value(self, i: int) -> int:
        """The smallest value of x_i whose scan has run out; the scans
        below it move on in place (x_i goes next, so no push)."""
        for v_i, w in self.scans[i].items():  # in value order
            if w is None or next(w[0], None) is None:
                return v_i


class ExistsSnakeEngine(_SnakeEngine):
    rule = "exists-snake"
    scan = staticmethod(_bad_pairs)

    def witness(self, i: int) -> SnakeWitness:
        return SnakeWitness(self._free_value(i))


class DeSnakeEngine(_SnakeEngine):
    rule = "de-snake"
    scan = staticmethod(_unreplaced)

    def witness(self, i: int) -> DeSnakeWitness:
        inst, v_i = self.inst, self._free_value(i)
        u_map = {}
        for j in inst.neighbors(i):
            row = inst.row(i, j, v_i)
            for v_j in iter_bits(inst.dom_mask(j) & ~row):
                u_map[(j, v_j)] = _replacement(
                    inst, self.live, self.vars_plus_minus, i, j, v_j, row)
        return DeSnakeWitness(v_i, u_map)
