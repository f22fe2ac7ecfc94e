"""Incremental engine for the forall-exists broken-triangle rule.

x_m is eliminable when every assignment (x_j, v_j) elsewhere reaches it
through some v_m that is apex of no broken triangle containing that
assignment in its base.  Per x_m the tables keep `lbt`, which maps each
(j, v_j, v_m) to the variables still witnessing such a triangle (v_m
becomes usable when its set empties and its key goes), and `unsup`, the
neighbour assignments (j, v_j) with no usable value yet; x_m fires once
`unsup` is empty.  Assignments at non-neighbours always extend on
arc-consistent input, so only neighbours are tracked.
"""

from __future__ import annotations

from itertools import compress
from operator import and_

from ..model import iter_bits
from .base import Engine, escape_masks


class AEBTPEngine(Engine):
    rule = "aebtp"
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
        mcols = {u: [inst.row(m, t, u) for t in nbrs] for u in inst.dom(m)}
        ncols = {u: [~r for r in col] for u, col in mcols.items()}
        lbt: dict = {}     # (j, v_j, v_m) -> conflict witnesses
        unsup: set = set()  # (j, v_j) with no conflict-free v_m
        for j in nbrs:
            for v_j in inst.dom(j):
                r_jm = rm[(j, v_j)]
                # per i2: values compatible with v_j whose own row to m
                # escapes v_j's row; v_m conflicts through those it
                # forbids
                w = escape_masks(inst, nbrs, mcols, j, v_j, r_jm)[0]
                free = False
                for v_m in iter_bits(r_jm):
                    s = set(compress(nbrs, map(and_, w, ncols[v_m])))
                    if s:
                        lbt[(j, v_j, v_m)] = s
                    else:
                        free = True
                if not free:
                    unsup.add((j, v_j))
        self.st[m] = (lbt, unsup)
        if not unsup:
            self.push(m, "init")

    def propagate(self, var: int, neighbors: list) -> None:
        self.st.pop(var, None)
        for m in neighbors:
            lbt, unsup = self.st[m]
            had_unsup = bool(unsup)
            dead = []
            freed = []
            for key, s in lbt.items():
                if key[0] == var:
                    dead.append(key)
                elif var in s:
                    s.discard(var)
                    if not s:
                        freed.append(key)
            for key in dead:
                del lbt[key]
            for key in freed:
                if self.audit is not None:
                    self.audit.branch_fires[("support-found", (m,) + key)] += 1
                del lbt[key]
                unsup.discard(key[:2])
            # assignments at the eliminated variable no longer need a value
            unsup.difference_update((var, v) for v in self.inst.dom(var))
            if had_unsup and not unsup:
                self.push(m, "prop")
