"""Incremental engines for the two snake rules.

Both rest on one table: for each ordered value pair (v_j, v'_j) of x_j,
the neighbours k of x_j where v_j has a compatible value that v'_j
lacks, i.e. where replacing v_j by v'_j would lose support.  The table
is an int bitmask over variable index; it only ever shrinks as
variables are eliminated, and a pair is "bad for x_i" while its mask
holds a variable other than x_i.

Each value v_i of x_i keeps a dict of the neighbours x_j that still
block it.  The existential rule counts, per x_j, the bad pairs
(v_j incompatible, v'_j compatible with v_i); v_i is snake-free once
every count is zero.  The directional (replacement) rule holds, per
x_j, the mask of incompatible values v_j with no replacement v'_j
compatible with v_i that is bad for nobody but x_i.  Either way x_i is
eliminable when some value's dict is empty.
"""

from __future__ import annotations

from ..model import iter_bits
from .base import Engine


class _SnakeEngine(Engine):
    """The shared loss-mask table and the propagate loop that clears
    pairs as their loss masks empty out."""

    def initialise(self) -> None:
        inst = self.inst
        # (j, v, v') -> mask of neighbours k of x_j where replacing v by
        # v' loses support
        self.vars_plus_minus = vpm = {}
        for j in inst.variables:
            dom_j = inst.dom(j)
            nbrs = inst.neighbors(j)
            rows = {v: [(k, inst.row(j, k, v)) for k in nbrs] for v in dom_j}
            for v in dom_j:
                row_v = dict(rows[v])
                for vp in dom_j:
                    if vp == v:
                        continue
                    s = 0
                    for k, r in rows[vp]:
                        if row_v[k] & ~r:
                            s |= 1 << k
                    vpm[(j, v, vp)] = s
        # (i, v_i) -> {j: what still blocks v_i at x_j} (nonzero only)
        self.bad: dict = {}
        for i in inst.variables:
            nbrs = inst.neighbors(i)
            for v_i in inst.dom(i):
                bad = self.bad[(i, v_i)] = self._init_value(i, v_i, nbrs)
                if not bad:
                    self.push(i, "init")

    def propagate(self, var: int, neighbors: list) -> None:
        inst = self.inst
        vpm = self.vars_plus_minus
        bit = 1 << var
        for j in neighbors:
            dom_j = inst.dom(j)
            for v_j in dom_j:
                for vp_j in dom_j:
                    if vp_j == v_j:
                        continue
                    key = (j, v_j, vp_j)
                    s = vpm[key]
                    if not s & bit:
                        continue
                    s ^= bit
                    vpm[key] = s
                    if s and not s & (s - 1):
                        # the pair is now bad for nobody except the one
                        # variable left in its loss mask
                        if self.audit is not None:
                            self.audit.branch_fires[("pair-last", key)] += 1
                        i = s.bit_length() - 1
                        if i not in self.eliminated:
                            self._pair_cleared(i, j, v_j, vp_j)
                    elif not s:
                        if self.audit is not None:
                            self.audit.branch_fires[("pair-none", key)] += 1
                        for i in inst.neighbors(j):
                            if i not in self.eliminated:
                                self._pair_cleared(i, j, v_j, vp_j)
        # the eliminated variable no longer blocks anyone
        for i in neighbors:
            for v_i in inst.dom(i):
                bad = self.bad[(i, v_i)]
                if bad.pop(var, None) is not None and not bad:
                    self.push(i, "prop")

    # -- rule API ----------------------------------------------------

    def _init_value(self, i: int, v_i: int, nbrs: list) -> dict:
        """The blockers of v_i, keyed by neighbour, nonzero entries only."""
        raise NotImplementedError

    def _pair_cleared(self, i: int, j: int, v_j: int, vp_j: int) -> None:
        """The pair (v_j, v'_j) stopped being bad for x_i; update every
        v_i that v'_j supports and v_j does not."""
        raise NotImplementedError


class ExistsSnakeEngine(_SnakeEngine):
    rule = "exists-snake"

    def _init_value(self, i: int, v_i: int, nbrs: list) -> dict:
        inst = self.inst
        vpm = self.vars_plus_minus
        others = ~(1 << i)
        bad = {}
        for j in nbrs:
            row_ij = inst.row(i, j, v_i)
            c = 0
            for v_j in iter_bits(inst.dom_mask(j) & ~row_ij):
                for vp_j in iter_bits(row_ij):
                    if vpm[(j, v_j, vp_j)] & others:
                        c += 1
            if c:
                bad[j] = c
        return bad

    def _pair_cleared(self, i: int, j: int, v_j: int, vp_j: int) -> None:
        inst = self.inst
        sel = inst.row(j, i, vp_j) & ~inst.row(j, i, v_j)
        for v_i in iter_bits(sel):
            bad = self.bad[(i, v_i)]
            c = bad[j] - 1
            if c:
                bad[j] = c
            else:
                del bad[j]
                if not bad:
                    self.push(i, "prop")


class DeSnakeEngine(_SnakeEngine):
    rule = "de-snake"

    def _init_value(self, i: int, v_i: int, nbrs: list) -> dict:
        inst = self.inst
        vpm = self.vars_plus_minus
        others = ~(1 << i)
        bad = {}
        for j in nbrs:
            row_ij = inst.row(i, j, v_i)
            m = 0
            for v_j in iter_bits(inst.dom_mask(j) & ~row_ij):
                for vp_j in iter_bits(row_ij):
                    if not vpm[(j, v_j, vp_j)] & others:
                        break
                else:
                    m |= 1 << v_j
            if m:
                bad[j] = m
        return bad

    def _pair_cleared(self, i: int, j: int, v_j: int, vp_j: int) -> None:
        # v'_j now loses nothing outside x_i: it replaces v_j
        inst = self.inst
        sel = inst.row(j, i, vp_j) & ~inst.row(j, i, v_j)
        for v_i in iter_bits(sel):
            bad = self.bad[(i, v_i)]
            m = bad.get(j, 0)
            if (m >> v_j) & 1:
                m ^= 1 << v_j
                if m:
                    bad[j] = m
                else:
                    del bad[j]
                    if not bad:
                        self.push(i, "prop")
