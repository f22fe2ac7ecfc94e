"""Incremental engines for the two broken-triangle extension rules.

Both rules read one table per x_m.  For each neighbour assignment
(x_i, v_i) and apex u of x_m, `btv[(i, v_i, u)]` holds the variables
completing a broken triangle on x_m with (x_i, v_i) in the base and u
as one apex (the triangle degree of u on that side); per (i, v_i) two
masks over D(x_m) keep the apexes where that set has more than one
member (`many`, bt-degree only) and none (`zero`); a set that empties
is dropped, as its bit in `zero` records it.  Eliminations only shrink
the sets, so `many` only loses bits and `zero` only gains them.

Each rule runs one watched scan per x_m (see `base.py`), keyed by m,
over its own neighbours' items (a non-neighbour's hold on
arc-consistent input); x_m fires once the scan runs out.  An item that
holds never fails again: the rows to x_m never change and the masks
only move as above.  After an elimination next to x_m the scan resumes
and moves past the watched item once that holds or its variable is
gone.  An entry is built when the scan first reads it, leaving out the
eliminated variables.  Engines delete no values, so the table is a
function of the live instance and a late entry equals an eager one
updated by every `propagate` since; most are never built.

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
    """The shared table and `propagate`.  Subclasses set `rule`, `scan`
    (x_m's one watched scan, `scan(inst, st, nbrs)`, keyed by m)
    and `out_of_row` (whether apexes outside r_i and `many` are kept).
    Both rules' witness is certificate-free."""

    out_of_row = True

    def initialise(self) -> None:
        inst = self.inst
        self.st: dict = {}
        for m in inst.variables:
            nbrs = inst.neighbors(m)
            # rows to and from x_m, each read once
            st = self.st[m] = {
                "rm": {(t, v): inst.row(t, m, v)
                       for t in nbrs for v in inst.dom(t)},
                "mcols": {u: [inst.row(m, t, u) for t in nbrs]
                          for u in inst.dom(m)},
                "btv": {}, "many": {}, "zero": {}}
            self.watch(m, m, self.scan(inst, st, nbrs))

    def propagate(self, var: int, neighbors: list) -> None:
        del self.st[var]
        for m in neighbors:
            st = self.st[m]
            btv, many, zero = st["btv"], st["many"], st["zero"]
            # only the entries built so far are walked
            for key, s in list(btv.items()):
                if key[0] == var:
                    del btv[key]
                elif var in s:
                    s.discard(var)
                    i, v_i, u = key
                    if not s:
                        zero[(i, v_i)] |= 1 << u
                        del btv[key]
                    elif len(s) == 1 and self.out_of_row:
                        many[(i, v_i)] &= ~(1 << u)
            self.resume(m)

    def witness(self, i: int) -> tuple:
        return ()


def zero_mask(inst, st: dict, nbrs: list, i: int, v_i: int,
              out_of_row: bool) -> int:
    """The `zero` mask of (x_i, v_i) in x_m's table; on the first read
    the entry is built from the instance as it stands."""
    zr = st["zero"].get((i, v_i))
    if zr is not None:
        return zr
    mcols, r_i = st["mcols"], st["rm"][(i, v_i)]
    # escape masks of (x_i, v_i) off x_m's reverse rows (Lecoutre & Vion,
    # CPL 2008): per live neighbour j, the values compatible with v_i
    # whose row to x_m has a value outside r_i (e) or misses one of r_i (d)
    outside, inside = repeat(0), repeat(-1)
    for u, col in mcols.items():
        if not (r_i >> u) & 1:
            outside = map(or_, outside, col)
        elif out_of_row:
            inside = map(and_, inside, col)
    live = inst.live
    rows = [inst.row(i, j, v_i) if j != i and j in live else 0
            for j in nbrs]
    e = list(map(and_, rows, outside))
    if out_of_row:
        d = list(map(and_, rows, map(invert, inside)))
    # an apex u in r_i is completed through a v_j escaping v_i that u
    # forbids, one outside r_i through a v_j escaped by v_i that u allows
    mn = zr = 0
    for u, col in mcols.items():
        if (r_i >> u) & 1:
            s = set(compress(nbrs, map(and_, e, map(invert, col))))
        elif out_of_row:
            s = set(compress(nbrs, map(and_, d, col)))
        else:
            continue
        zr |= (not s) << u
        mn |= (len(s) > 1) << u
        if s:
            st["btv"][(i, v_i, u)] = s
    if out_of_row:
        st["many"][(i, v_i)] = mn
    st["zero"][(i, v_i)] = zr
    return zr


def _fails(inst, st: dict, nbrs: list,
           i: int, v_i: int, j: int, v_j: int) -> bool:
    """Does the base pair (i, v_i, j, v_j) have neither a degree-free
    extension nor a 3-safe one?  With r the rows to x_m and c their
    common apexes: no u in c has degree zero on either side, and either
    c is empty or each side has an apex escaping the other whose degree
    on the other's side is above one.  Once false it stays false."""
    r_i, r_j = st["rm"][(i, v_i)], st["rm"][(j, v_j)]
    c = r_i & r_j
    if not c:
        return True
    if (c & zero_mask(inst, st, nbrs, i, v_i, True)
            or c & zero_mask(inst, st, nbrs, j, v_j, True)):
        return False
    many = st["many"]
    return bool(r_i & ~r_j & many[(j, v_j)] and r_j & ~r_i & many[(i, v_i)])


def _failing_pairs(inst, st: dict, nbrs: list):
    """The base pairs at x_m's neighbours that fail, in scan order;
    pairs through an eliminated variable are skipped."""
    live = inst.live
    for i, j in combinations(nbrs, 2):
        for v_i in inst.dom(i):
            for v_j in iter_bits(inst.row(i, j, v_i)):
                while (i in live and j in live
                       and _fails(inst, st, nbrs, i, v_i, j, v_j)):
                    yield i, v_i, j, v_j


class BTDegreeEngine(BrokenTriangleEngine):
    rule = "bt-degree"
    scan = staticmethod(_failing_pairs)
