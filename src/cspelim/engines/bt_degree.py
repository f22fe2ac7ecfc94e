"""Incremental engine for the broken-triangle degree rule.

x_m is eliminable when every consistent base pair at its neighbours
reaches it through a value whose triangle degree vanishes on one side,
or failing that is 3-safe (every broken triangle on the base has a
degree-one apex side).  Base pairs with neither property sit in a "bad"
set per m; they leave it as eliminations lower degrees, and x_m fires
once its set empties.  Bases with a non-neighbour variable hold
automatically on arc-consistent input, so the tables only ever track
neighbour pairs.
"""

from __future__ import annotations

from itertools import combinations

from ..model import iter_bits
from .base import Engine


def _canon(a: int, v_a: int, b: int, v_b: int) -> tuple:
    return (a, v_a, b, v_b) if a < b else (b, v_b, a, v_a)


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
        # x_m with (x_i, v_i) in the base and u as one apex
        btv: dict = {}
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
                for u in inst.dom(m):
                    row_m = mrow[u]
                    if (r_i >> u) & 1:
                        s = {j for j, e, _ in esc if e & ~row_m[j]}
                    else:
                        s = {j for j, _, d in esc if d & row_m[j]}
                    btv[(i, v_i, u)] = s

        # degree-derived masks over u, then pair counts
        deg_many: dict = {}
        deg_zero: dict = {}
        for i in nbrs:
            for v_i in inst.dom(i):
                many = zero = 0
                for u in inst.dom(m):
                    n = len(btv[(i, v_i, u)])
                    if n > 1:
                        many |= 1 << u
                    elif n == 0:
                        zero |= 1 << u
                deg_many[(i, v_i)] = many
                deg_zero[(i, v_i)] = zero

        # mpm[(a, v_a, b, v_b)]: apexes compatible with v_a, incompatible
        # with v_b, of degree above one on v_b's side
        mpm: dict = {}
        for a in nbrs:
            for b in nbrs:
                if b == a:
                    continue
                for v_a in inst.dom(a):
                    r_a = rm[(a, v_a)]
                    for v_b in inst.dom(b):
                        mpm[(a, v_a, b, v_b)] = (
                            r_a & ~rm[(b, v_b)] & deg_many[(b, v_b)]
                        ).bit_count()

        bad: set = set()
        for i, j in combinations(nbrs, 2):
            for v_i in inst.dom(i):
                r_i = rm[(i, v_i)]
                z_i = deg_zero[(i, v_i)]
                for v_j in iter_bits(inst.row(i, j, v_i)):
                    common = r_i & rm[(j, v_j)]
                    if common & (z_i | deg_zero[(j, v_j)]):
                        continue
                    if common and (mpm[(i, v_i, j, v_j)] == 0
                                   or mpm[(j, v_j, i, v_i)] == 0):
                        continue
                    bad.add((i, v_i, j, v_j))

        self.st[m] = {"rm": rm, "btv": btv, "mpm": mpm, "bad": bad}
        if not bad:
            self.push(m, "init")

    def propagate(self, var: int, neighbors: list) -> None:
        inst = self.inst
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
                if len(s) == 1:
                    if self.audit is not None:
                        self.audit.branch_fires[("deg-one", (m,) + key)] += 1
                    self._degree_now_one(m, st, *key)
                elif not s:
                    if self.audit is not None:
                        self.audit.branch_fires[("deg-zero", (m,) + key)] += 1
                    self._degree_now_zero(m, st, *key)
            for key in dead:
                del btv[key]

            if had_bad and not bad:
                self.push(m, "prop")

    def _degree_now_one(self, m, st, i, v_i, u):
        """deg(i, v_i, u) dropped to one: u stops blocking 3-safety of
        bases pairing (i, v_i) against values compatible with u."""
        inst = self.inst
        rm, mpm, bad = st["rm"], st["mpm"], st["bad"]
        r_i = rm[(i, v_i)]
        for a in inst.neighbors(m):
            if a == i or a in self.eliminated:
                continue
            for v_a in inst.dom(a):
                if not ((rm[(a, v_a)] >> u) & 1) or ((r_i >> u) & 1):
                    continue
                key = (a, v_a, i, v_i)
                mpm[key] -= 1
                if mpm[key] == 0:
                    t = _canon(a, v_a, i, v_i)
                    if t in bad and rm[(a, v_a)] & r_i:
                        bad.discard(t)
                        if not bad:
                            self.push(m, "prop")

    def _degree_now_zero(self, m, st, i, v_i, u):
        """deg(i, v_i, u) vanished: u is now a degree-free extension for
        every base with (i, v_i) that reaches it."""
        inst = self.inst
        rm, bad = st["rm"], st["bad"]
        if not ((rm[(i, v_i)] >> u) & 1):
            return
        for j in inst.neighbors(m):
            if j == i or j in self.eliminated:
                continue
            for v_j in iter_bits(inst.row(i, j, v_i)):
                if (rm[(j, v_j)] >> u) & 1:
                    t = _canon(i, v_i, j, v_j)
                    if t in bad:
                        bad.discard(t)
                        if not bad:
                            self.push(m, "prop")
