"""Incremental engine for the broken-triangle degree rule.

x_m is eliminable when every consistent base pair at its neighbours
reaches it through a value whose triangle degree vanishes on one side,
or failing that is 3-safe (every broken triangle on the base has a
degree-one apex side).  Per x_m the tables keep `btv`, the variables
completing a broken triangle for each (i, v_i, apex u); two masks over
D(x_m) per (i, v_i), `many` (apexes of degree above one) and `zero`
(apexes of degree zero); and `bad`, the base pairs with neither
property.  When an elimination lowers a degree, the masks change and
the bad pairs through (i, v_i) are tested again; x_m fires once `bad`
is empty.  Bases with a non-neighbour variable hold automatically on
arc-consistent input, so the tables only ever track neighbour pairs.
"""

from __future__ import annotations

from itertools import combinations

from ..model import iter_bits
from .base import Engine


def _fails(st: dict, i: int, v_i: int, j: int, v_j: int) -> bool:
    """Does the base pair (i, v_i, j, v_j) have neither a degree-free
    extension nor a 3-safe one?  With r the rows to x_m and c their
    common apexes: no u in c has degree zero on either side, and either
    c is empty or each side has an apex escaping the other whose degree
    on the other's side is above one."""
    rm, many, zero = st["rm"], st["many"], st["zero"]
    r_i, r_j = rm[(i, v_i)], rm[(j, v_j)]
    c = r_i & r_j
    if c & (zero[(i, v_i)] | zero[(j, v_j)]):
        return False
    return not c or bool(r_i & ~r_j & many[(j, v_j)]
                         and r_j & ~r_i & many[(i, v_i)])


class BTDegreeEngine(Engine):
    rule = "bt-degree"
    certify_neighbours = True

    def initialise(self) -> None:
        self.st: dict = {}
        for m in self.inst.variables:
            self._init_var(m)

    def _init_var(self, m: int) -> None:
        inst = self.inst
        nbrs = inst.neighbors(m)
        # rows to and from x_m, each read once
        rm = {(t, v): inst.row(t, m, v) for t in nbrs for v in inst.dom(t)}
        mrow = {u: {t: inst.row(m, t, u) for t in nbrs} for u in inst.dom(m)}

        # btv[(i, v_i, u)]: neighbours j completing a broken triangle on
        # x_m with (x_i, v_i) in the base and u as one apex; many/zero:
        # per (i, v_i), the apexes u where that set has more than one
        # member / none
        btv: dict = {}
        many: dict = {}
        zero: dict = {}
        for i in nbrs:
            for v_i in inst.dom(i):
                r_i = rm[(i, v_i)]
                # per j: v_j compatible with v_i with an apex escaping
                # v_i / escaped by v_i
                esc = []
                for j in nbrs:
                    if j == i:
                        continue
                    e_mask = d_mask = 0
                    for v in iter_bits(inst.row(i, j, v_i)):
                        r_jv = rm[(j, v)]
                        if r_jv & ~r_i:
                            e_mask |= 1 << v
                        if r_i & ~r_jv:
                            d_mask |= 1 << v
                    esc.append((j, e_mask, d_mask))
                mn = zr = 0
                for u in inst.dom(m):
                    row_m = mrow[u]
                    if (r_i >> u) & 1:
                        s = {j for j, e, _ in esc if e & ~row_m[j]}
                    else:
                        s = {j for j, _, d in esc if d & row_m[j]}
                    btv[(i, v_i, u)] = s
                    if len(s) > 1:
                        mn |= 1 << u
                    elif not s:
                        zr |= 1 << u
                many[(i, v_i)] = mn
                zero[(i, v_i)] = zr

        st = {"rm": rm, "btv": btv, "many": many, "zero": zero}
        bad: set = set()
        for i, j in combinations(nbrs, 2):
            for v_i in inst.dom(i):
                for v_j in iter_bits(inst.row(i, j, v_i)):
                    if _fails(st, i, v_i, j, v_j):
                        bad.add((i, v_i, j, v_j))
        st["bad"] = bad
        self.st[m] = st
        if not bad:
            self.push(m, "init")

    def propagate(self, var: int, neighbors: list) -> None:
        self.st.pop(var, None)
        for m in neighbors:
            st = self.st[m]
            bad = st["bad"]
            had_bad = bool(bad)
            for t in [t for t in bad if t[0] == var or t[2] == var]:
                bad.discard(t)

            btv = st["btv"]
            dead = []
            for key, s in btv.items():
                if key[0] == var:
                    dead.append(key)
                    continue
                if var not in s:
                    continue
                s.discard(var)
                i, v_i, u = key
                if len(s) == 1:
                    if self.audit is not None:
                        self.audit.branch_fires[("deg-one", (m,) + key)] += 1
                    st["many"][(i, v_i)] &= ~(1 << u)
                    self._retest(m, st, i, v_i)
                elif not s:
                    if self.audit is not None:
                        self.audit.branch_fires[("deg-zero", (m,) + key)] += 1
                    st["zero"][(i, v_i)] |= 1 << u
                    self._retest(m, st, i, v_i)
            for key in dead:
                del btv[key]

            if had_bad and not bad:
                self.push(m, "prop")

    def _retest(self, m: int, st: dict, i: int, v_i: int) -> None:
        """Drop the bad pairs through (i, v_i) that now hold."""
        bad = st["bad"]
        for j in self.inst.neighbors(m):
            if j == i or j in self.eliminated:
                continue
            for v_j in iter_bits(self.inst.row(i, j, v_i)):
                t = (i, v_i, j, v_j) if i < j else (j, v_j, i, v_i)
                if t in bad and not _fails(st, *t):
                    bad.discard(t)
