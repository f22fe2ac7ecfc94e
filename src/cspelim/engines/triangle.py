"""Incremental engine for the triangle (domination) rule.

x_j justifies eliminating x_i when every v_j has a compatible v_i whose
supports cover v_j's at every other neighbour of x_i.  The tables keep
`badcnt`, which maps each row (j, v_j, i) no v_i covers yet to the
per-v_i number of neighbours still breaking the covering, `count`, the
number of such rows per (j, i), and `zero_just`, the live justifiers
of each x_i.  A row's key goes when some v_i reaches count zero, and
x_j justifies x_i once none of its rows is left.  Unlike the other
rules this one is not hereditary — justifiers can themselves be
eliminated — so queued candidates are revalidated before use.
"""

from __future__ import annotations

from ..model import iter_bits
from .base import Engine


class TriangleEngine(Engine):
    rule = "triangle"

    def initialise(self) -> None:
        inst = self.inst
        live = inst.variables
        # rows (j, v_j, i) that no compatible v_i covers yet -> per
        # candidate v_i, the number of neighbours k of x_i where covering
        # fails
        self.badcnt: dict = {}
        # (j, i) -> number of rows in badcnt; i -> live justifiers
        self.count: dict = {}
        self.zero_just: dict = {}

        rowd = {}
        lose = {}
        for i in live:
            nbrs = inst.neighbors(i)
            for v in inst.dom(i):
                rowd[(i, v)] = {k: inst.row(i, k, v) for k in nbrs}
                lose[(i, v)] = [
                    (k, m) for k in nbrs
                    if (m := inst.dom_mask(k) & ~inst.row(i, k, v))]

        for i in live:
            ilen = inst.dom_mask(i).bit_length()
            for j in live:
                if j == i:
                    continue
                c = 0
                for v_j in inst.dom(j):
                    rows_j = rowd[(j, v_j)]
                    cnts = [0] * ilen
                    for v_i in iter_bits(inst.row(j, i, v_j)):
                        bad = 0
                        for k, lo in lose[(i, v_i)]:
                            if k == j:
                                continue
                            r = rows_j.get(k)
                            if r is None or r & lo:
                                bad += 1
                        if bad == 0:
                            break
                        cnts[v_i] = bad
                    else:
                        c += 1
                        self.badcnt[(j, v_j, i)] = cnts
                self.count[(j, i)] = c
                if c == 0:
                    self.zero_just.setdefault(i, set()).add(j)
            self.zero_just.setdefault(i, set())
            if self.zero_just[i]:
                self.push(i, "init")

    def revalidate(self, i: int) -> bool:
        return bool(self.zero_just.get(i))

    def check_witness(self, i: int, witness) -> None:
        expect = min(self.zero_just[i])
        if witness.justifier != expect:
            raise AssertionError(
                "tables name %d as smallest justifier of %d, checker "
                "found %d" % (expect, i, witness.justifier))

    def propagate(self, var: int, neighbors: list) -> None:
        inst = self.inst
        mask_var = inst.dom_mask(var)
        # rows counted var as a covering breaker only at its neighbours
        for i in neighbors:
            lose = {v_i: mask_var & ~inst.row(i, var, v_i)
                    for v_i in inst.dom(i)}
            for j in inst.variables:
                if j == i or j == var:
                    continue
                for v_j in inst.dom(j):
                    key = (j, v_j, i)
                    cnts = self.badcnt.get(key)
                    if cnts is None:
                        continue
                    row_jv = inst.row(j, var, v_j)
                    for v_i in iter_bits(inst.row(j, i, v_j)):
                        if row_jv & lose[v_i]:
                            cnts[v_i] -= 1
                            if cnts[v_i] == 0:
                                if self.audit is not None:
                                    self.audit.branch_fires[
                                        ("row-supported", key)] += 1
                                del self.badcnt[key]
                                c = self.count[(j, i)] - 1
                                self.count[(j, i)] = c
                                if c == 0:
                                    self.zero_just[i].add(j)
                                    self.push(i, "prop")
                                break
        # the eliminated variable can no longer justify anyone
        self.zero_just.pop(var, None)
        for i in inst.variables:
            if i != var:
                self.zero_just[i].discard(var)
