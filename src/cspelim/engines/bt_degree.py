"""Incremental engine for the broken-triangle degree rule.

x_m is eliminable when every consistent base pair at its neighbours
reaches it through a value whose triangle degree vanishes on one side,
or failing that is 3-safe (every broken triangle on the base has a
degree-one apex side).  Per x_m the tables keep `btv`, the variables
completing a broken triangle for each (i, v_i, apex u); two masks over
D(x_m) per (i, v_i), `many` (apexes of degree above one) and `zero`
(apexes of degree zero); and one watched base pair with neither
property, found by a scan over the base pairs in a fixed order
(neighbour pairs, then v_i, then v_j) that stops at the first failing
pair.  x_m fires once the scan runs out.

A base pair that holds never fails again, so the scan never goes back:
the rows to x_m never change (engines delete no values), `many` only
loses bits and `zero` only gains them as eliminations lower degrees,
and a pair only disappears when one of its variables is eliminated.
After an elimination the watched pair is tested again, and the scan
resumes past it when it holds or is gone.  Bases with a non-neighbour
variable hold automatically on arc-consistent input, so only neighbour
pairs are scanned.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import and_

from ..model import iter_bits
from .base import Engine, escape_masks


def _fails(st: dict, i: int, v_i: int, j: int, v_j: int) -> bool:
    """Does the base pair (i, v_i, j, v_j) have neither a degree-free
    extension nor a 3-safe one?  With r the rows to x_m and c their
    common apexes: no u in c has degree zero on either side, and either
    c is empty or each side has an apex escaping the other whose degree
    on the other's side is above one.  Once false it stays false."""
    rm, many, zero = st["rm"], st["many"], st["zero"]
    r_i, r_j = rm[(i, v_i)], rm[(j, v_j)]
    c = r_i & r_j
    if c & (zero[(i, v_i)] | zero[(j, v_j)]):
        return False
    return not c or bool(r_i & ~r_j & many[(j, v_j)]
                         and r_j & ~r_i & many[(i, v_i)])


def _failing_pairs(inst, gone: set, st: dict, nbrs: list):
    """The base pairs at x_m's neighbours that fail, in scan order,
    each tested when the scan reaches it; pairs through an eliminated
    variable are skipped."""
    for i, j in combinations(nbrs, 2):
        for v_i in inst.dom(i):
            for v_j in iter_bits(inst.row(i, j, v_i)):
                if i in gone or j in gone:
                    break
                if _fails(st, i, v_i, j, v_j):
                    yield i, v_i, j, v_j


class BTDegreeEngine(Engine):
    rule = "bt-degree"
    certify_neighbours = True

    def initialise(self) -> None:
        self.st: dict = {}
        # m -> the scan that found st[m]["watch"].  It reads st[m], so it
        # is kept out of it: a reference cycle would hold a finished
        # engine's tables until the cycle collector runs
        self.scans: dict = {}
        for m in self.inst.variables:
            self._init_var(m)

    def _init_var(self, m: int) -> None:
        inst = self.inst
        nbrs = inst.neighbors(m)
        # rows to and from x_m, each read once
        rm = {(t, v): inst.row(t, m, v) for t in nbrs for v in inst.dom(t)}
        mcols = {u: [inst.row(m, t, u) for t in nbrs] for u in inst.dom(m)}
        ncols = {u: [~r for r in col] for u, col in mcols.items()}

        # btv[(i, v_i, u)]: neighbours j completing a broken triangle on
        # x_m with (x_i, v_i) in the base and u as one apex: through a
        # v_j escaping v_i that u forbids when u is in r_i, through a
        # v_j escaped by v_i that u allows when it is not.  many/zero:
        # per (i, v_i), the apexes u where that set has more than one
        # member / none
        btv: dict = {}
        many: dict = {}
        zero: dict = {}
        for i in nbrs:
            for v_i in inst.dom(i):
                r_i = rm[(i, v_i)]
                e, d = escape_masks(inst, nbrs, mcols, i, v_i, r_i)
                mn = zr = 0
                for u, col in mcols.items():
                    if (r_i >> u) & 1:
                        s = set(compress(nbrs, map(and_, e, ncols[u])))
                    else:
                        s = set(compress(nbrs, map(and_, d, col)))
                    btv[(i, v_i, u)] = s
                    if len(s) > 1:
                        mn |= 1 << u
                    elif not s:
                        zr |= 1 << u
                many[(i, v_i)] = mn
                zero[(i, v_i)] = zr

        st = {"rm": rm, "btv": btv, "many": many, "zero": zero}
        scan = _failing_pairs(inst, self.eliminated, st, nbrs)
        st["watch"] = next(scan, None)
        self.st[m] = st
        self.scans[m] = scan
        if st["watch"] is None:
            self.push(m, "init")

    def propagate(self, var: int, neighbors: list) -> None:
        self.st.pop(var, None)
        self.scans.pop(var, None)
        for m in neighbors:
            st = self.st[m]
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
                elif not s:
                    if self.audit is not None:
                        self.audit.branch_fires[("deg-zero", (m,) + key)] += 1
                    st["zero"][(i, v_i)] |= 1 << u
            for key in dead:
                del btv[key]

            w = st["watch"]
            if w is not None and (var in (w[0], w[2]) or not _fails(st, *w)):
                st["watch"] = next(self.scans[m], None)
                if st["watch"] is None:
                    self.push(m, "prop")
