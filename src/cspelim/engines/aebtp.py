"""Incremental engine for the forall-exists broken-triangle rule.

x_m is eliminable when every assignment (x_j, v_j) elsewhere reaches it
through some v_m that is apex of no broken triangle containing that
assignment in its base: a compatible apex of degree zero in the
broken-triangle table shared with bt-degree (`bt_degree.py`).  aebtp
reads that table only at the apexes in r_j, and its items are the
neighbour assignments (neighbours, then values); the watched one has
`zero[(j, v_j)] & rm[(j, v_j)] == 0`, and x_m fires once none is left.
"""

from __future__ import annotations

from .bt_degree import BrokenTriangleEngine


def _unsupported(st: dict, j: int, v_j: int) -> bool:
    """Is every value of x_m compatible with (x_j, v_j) still apex of a
    broken triangle with it in the base?  Once false it stays false:
    `zero` only gains bits."""
    return not st["zero"][(j, v_j)] & st["rm"][(j, v_j)]


def _unsupported_assignments(inst, gone: set, st: dict, nbrs: list):
    """The assignments at x_m's neighbours with no conflict-free value
    of x_m, in scan order; eliminated variables are skipped."""
    for j in nbrs:
        for v_j in inst.dom(j):
            while j not in gone and _unsupported(st, j, v_j):
                yield j, v_j


class AEBTPEngine(BrokenTriangleEngine):
    rule = "aebtp"
    scan = staticmethod(_unsupported_assignments)
    out_of_row = False
