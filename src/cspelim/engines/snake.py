"""Incremental engines for the two snake rules.

Both rest on one table of dominance masks.  For a value v of x_j and a
neighbour x_k of x_j, nd_k(v) is the mask over D(x_j) of the values v'
whose row toward x_k lacks a value that v's row has:

    nd_k(v) = D(x_j) & ~AND_{b in row(j, k, v)} row(k, j, b)

so replacing v by v' loses support at x_k exactly when v' is in
nd_k(v) (the per-neighbour test of neighbourhood substitutability,
Cooper, AIJ 1997).  The pair (v, v') is "bad for x_i" while v' is in
nd_k(v) for some live x_k other than x_i; one OR over those neighbours
answers it for every v' at once.  `dominated` builds the masks of
(j, v) one neighbour at a time, in x_j's neighbour order, and only as
far as a read needs; a neighbour already gone gets 0, as no read looks
at it again.  Exact: rows and domains never change in a run, and every
read skips the neighbours that are not in `inst.live`; eliminations
only ever shrink the OR.

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


def dominance(inst, j: int, k: int, v: int) -> int:
    """nd_k(v) at x_j, or 0 once x_k is gone."""
    rel = inst.relations
    rows_kj = rel.get((k, j))
    if rows_kj is None:
        return 0
    r = rel[(j, k)][v] & inst.dom_mask(k)
    both = dom_j = inst.dom_mask(j)
    while r:
        low = r & -r
        both &= rows_kj[low.bit_length() - 1]
        r ^= low
    return dom_j ^ both


def dominated(inst, tables: tuple, i: int, j: int, v: int, want: int) -> int:
    """The OR of nd_k(v) at x_j over the live neighbours x_k other than
    x_i, or, once it covers `want`, the OR over the neighbours read so
    far.  `tables` is (x_j -> x_j's neighbours at initialisation,
    (j, v) -> the masks built so far, one per neighbour in order)."""
    nbrs, nd = tables
    masks = nd.get((j, v))
    if masks is None:
        masks = nd[(j, v)] = []
    live = inst.live
    acc = 0
    for idx, k in enumerate(nbrs[j]):
        if idx == len(masks):
            masks.append(dominance(inst, j, k, v))
        if k != i and k in live:
            acc |= masks[idx]
            if not want & ~acc:
                return acc
    return acc


def _bad_pairs(inst, tables: tuple, i: int, v_i: int):
    """The pairs (j, v_j, v'_j) that are bad for x_i with v_j forbidden
    and v'_j allowed by v_i, in scan order."""
    live = inst.live
    for j in tables[0][i]:
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            rest = row  # v'_j from the watched one up
            while rest and j in live:
                bad = rest & dominated(inst, tables, i, j, v_j, rest & -rest)
                if not bad:
                    break
                low = bad & -bad
                yield j, v_j, low.bit_length() - 1
                rest &= -low


def _replacement(inst, tables: tuple, i: int, j: int, v_j: int, row: int):
    """The first v'_j in `row` (the values of x_j allowed by v_i) that
    is bad for nobody but x_i as replacement of v_j, or None."""
    free = row & ~dominated(inst, tables, i, j, v_j, row)
    return (free & -free).bit_length() - 1 if free else None


def _unreplaced(inst, tables: tuple, i: int, v_i: int):
    """The (j, v_j) with v_j forbidden by v_i and every v'_j allowed by
    v_i bad for x_i, in scan order."""
    live = inst.live
    for j in tables[0][i]:
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            while j in live and _replacement(
                    inst, tables, i, j, v_j, row) is None:
                yield j, v_j


class _SnakeEngine(Engine):
    """The dominance-mask table, one scan per value and the distance-two
    `propagate`.  Subclasses set `rule` and `scan`."""

    def initialise(self) -> None:
        inst = self.inst
        # (x_j -> neighbours, (j, v) -> dominance masks), see `dominated`
        self.tables = tables = ({i: inst.neighbors(i)
                                 for i in inst.variables}, {})
        for i in inst.variables:
            for v_i in inst.dom(i):
                if i in self._queued:  # one value is enough
                    break
                self.watch(i, v_i, self.scan(inst, tables, i, v_i))

    def propagate(self, var: int, neighbors: list) -> None:
        near = set(neighbors)
        for j in neighbors:
            near.update(self.inst.neighbors(j))
        for i in near - self._queued:
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
                u_map[(j, v_j)] = _replacement(inst, self.tables, i, j, v_j,
                                               row)
        return DeSnakeWitness(v_i, u_map)
