"""Incremental engines for the two broken-triangle extension rules.

Both rules read one table per x_m.  For each neighbour assignment
(x_i, v_i) and apex u of x_m, `btv[(i, v_i, u)]` holds the variables
completing a broken triangle on x_m with (x_i, v_i) in the base and u
as one apex (the triangle degree of u on that side); per (i, v_i) two
masks over D(x_m) keep the apexes where that set has more than one
member (`many`) and none (`zero`); a set that empties is dropped, as
its bit in `zero` records it.  Eliminations only shrink the sets, so
`many` only loses bits and `zero` only gains them.

Each rule scans its own items in a fixed order and watches the first
one that fails; x_m fires once the scan runs out.  An item that holds
never fails again (the rows to x_m never change, since engines delete
no values, and the masks only move as above), so the scan never goes
back.  After an elimination next to x_m the watched item is tested
again, and the scan resumes past it when it holds or its variable is
gone.  Items at a non-neighbour hold automatically on arc-consistent
input, so only neighbours are scanned.

bt-degree: every consistent base pair at x_m's neighbours reaches x_m
through a value whose triangle degree vanishes on one side, or failing
that is 3-safe (every broken triangle on the base has a degree-one apex
side).  Its items are the base pairs (neighbour pairs, then v_i, then
v_j), and it reads apexes outside r_i too.  aebtp (see `aebtp.py`) is
the case that needs one compatible apex of degree zero per assignment.
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from operator import and_, invert, or_

from ..model import iter_bits
from .base import Engine


class BrokenTriangleEngine(Engine):
    """The shared table, initialiser and `propagate`.  Subclasses set
    `rule`, `scan` and `out_of_row`.  `scan(inst, gone, st, nbrs)` is a
    generator over x_m's failing items in scan order that re-tests the
    item it last yielded each time it is resumed; it must not refer to
    the engine, or finished engines would wait for the cycle collector.
    `out_of_row` says whether apexes outside r_i are tracked."""

    certify_neighbours = True
    out_of_row = True

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
        out_of_row = self.out_of_row
        nbrs = inst.neighbors(m)
        # rows to and from x_m, each read once
        rm = {(t, v): inst.row(t, m, v) for t in nbrs for v in inst.dom(t)}
        mcols = {u: [inst.row(m, t, u) for t in nbrs] for u in inst.dom(m)}
        ncols = {u: [~r for r in col] for u, col in mcols.items()}

        btv: dict = {}
        many: dict = {}
        zero: dict = {}
        for i in nbrs:
            for v_i in inst.dom(i):
                r_i = rm[(i, v_i)]
                # escape masks of (x_i, v_i), read off x_m's reverse rows
                # (Lecoutre & Vion, CPL 2008): per neighbour j, the values
                # compatible with v_i whose row to x_m has a value outside
                # r_i (e) and those whose row misses a value of r_i (d).
                # The folds stay lazy until e and d are built
                outside = repeat(0)
                inside = repeat(-1)
                for u, col in mcols.items():
                    if not (r_i >> u) & 1:
                        outside = map(or_, outside, col)
                    elif out_of_row:
                        inside = map(and_, inside, col)
                rows = [inst.row(i, j, v_i) if j != i else 0 for j in nbrs]
                e = list(map(and_, rows, outside))
                if out_of_row:
                    d = list(map(and_, rows, map(invert, inside)))
                # an apex u in r_i is completed through a v_j escaping
                # v_i that u forbids, one outside r_i through a v_j
                # escaped by v_i that u allows
                mn = zr = 0
                for u, col in mcols.items():
                    if (r_i >> u) & 1:
                        s = set(compress(nbrs, map(and_, e, ncols[u])))
                    elif out_of_row:
                        s = set(compress(nbrs, map(and_, d, col)))
                    else:
                        continue
                    if not s:
                        zr |= 1 << u
                        continue
                    if len(s) > 1:
                        mn |= 1 << u
                    btv[(i, v_i, u)] = s
                many[(i, v_i)] = mn
                zero[(i, v_i)] = zr

        st = {"rm": rm, "btv": btv, "many": many, "zero": zero}
        scan = self.scan(inst, self.eliminated, st, nbrs)
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
                    dead.append(key)
            for key in dead:
                del btv[key]

            if st["watch"] is not None:
                st["watch"] = next(self.scans[m], None)
                if st["watch"] is None:
                    self.push(m, "prop")


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
    """The base pairs at x_m's neighbours that fail, in scan order;
    pairs through an eliminated variable are skipped."""
    for i, j in combinations(nbrs, 2):
        for v_i in inst.dom(i):
            for v_j in iter_bits(inst.row(i, j, v_i)):
                while (i not in gone and j not in gone
                       and _fails(st, i, v_i, j, v_j)):
                    yield i, v_i, j, v_j


class BTDegreeEngine(BrokenTriangleEngine):
    rule = "bt-degree"
    scan = staticmethod(_failing_pairs)
