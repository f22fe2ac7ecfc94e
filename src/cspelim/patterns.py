"""Definitional checkers for the five elimination rules and the patterns
they are built from (snakes, justifiers, broken-triangle degrees).

Everything here is a direct, naive transcription of the defining
conditions, quantifier by quantifier.  These functions are the ground
truth that the incremental engines are checked against.  All existential
choices are deterministic: smallest value, then smallest variable index.

Values are internal indices; checkers run on arbitrary instances (arc
consistency is not assumed).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .model import Instance, iter_bits

RULES = ("exists-snake", "de-snake", "triangle", "bt-degree", "aebtp")

# Fewest live variables for which a rule may fire.  The snake rules work
# down to a single variable; triangle needs a justifying second variable;
# the extension rules quantify over one resp. two other variables.
MIN_LIVE = {
    "exists-snake": 1,
    "de-snake": 1,
    "triangle": 2,
    "aebtp": 2,
    "bt-degree": 3,
}


# ---------------------------------------------------------------------------
# snake rules


def snake_occurs(inst: Instance, i: int, v_i: int) -> Optional[tuple]:
    """First occurrence (j, v_j, v'_j, k, v_k) of the snake pattern on
    (x_i, v_i): (v_i,v_j) forbidden, (v_i,v'_j) allowed, (v_j,v_k)
    allowed, (v'_j,v_k) forbidden.  None if the pattern is absent."""
    for j in inst.neighbors(i):
        row_ij = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row_ij):
            for vp_j in iter_bits(row_ij):
                for k in inst.neighbors(j):
                    if k == i:
                        continue
                    diff = inst.row(j, k, v_j) & ~inst.row(j, k, vp_j)
                    if diff:
                        v_k = (diff & -diff).bit_length() - 1
                        return (j, v_j, vp_j, k, v_k)
    return None


def check_exists_snake(inst: Instance, i: int) -> Optional[int]:
    """Smallest v_i on which the snake pattern does not occur at all."""
    for v in inst.dom(i):
        if snake_occurs(inst, i, v) is None:
            return v
    return None


def _gains_nowhere_else(inst: Instance, j: int, v_j: int, vp_j: int, i: int) -> bool:
    """True iff no third variable k has a value compatible with v_j but
    not with vp_j (i.e. swapping v_j -> vp_j loses no support outside x_i)."""
    for k in inst.neighbors(j):
        if k == i:
            continue
        if inst.row(j, k, v_j) & ~inst.row(j, k, vp_j):
            return False
    return True


def check_de_snake(inst: Instance, i: int) -> Optional[tuple]:
    """Smallest v_i such that every incompatible (x_j, v_j) has a
    replacement v'_j compatible with v_i whose only possible support loss
    is at x_i itself."""
    for v in inst.dom(i):
        u_map: dict = {}
        ok = True
        for j in inst.neighbors(i):
            row_ij = inst.row(i, j, v)
            for v_j in iter_bits(inst.dom_mask(j) & ~row_ij):
                u = None
                for vp in iter_bits(row_ij):
                    if _gains_nowhere_else(inst, j, v_j, vp, i):
                        u = vp
                        break
                if u is None:
                    ok = False
                    break
                u_map[(j, v_j)] = u
            if not ok:
                break
        if ok:
            return v, u_map
    return None


# ---------------------------------------------------------------------------
# triangle rule


def justifies(inst: Instance, j: int, i: int) -> Optional[dict]:
    """v_j -> v_i map proving x_j justifies eliminating x_i: each v_j has
    a compatible v_i whose supports cover v_j's everywhere else."""
    v_map: dict = {}
    for v_j in inst.dom(j):
        found = None
        for v_i in iter_bits(inst.row(j, i, v_j)):
            if all(not (inst.row(j, k, v_j) & ~inst.row(i, k, v_i))
                   for k in inst.neighbors(i) if k != j):
                found = v_i
                break
        if found is None:
            return None
        v_map[v_j] = found
    return v_map


def check_triangle(inst: Instance, i: int) -> Optional[tuple]:
    for j in inst.variables:
        if j == i:
            continue
        v_map = justifies(inst, j, i)
        if v_map is not None:
            return j, v_map
    return None


# ---------------------------------------------------------------------------
# broken triangles


def bt_degree(inst: Instance, i: int, v_i: int, m: int, v_m: int) -> int:
    """Number of distinct x_j forming a broken triangle on x_m whose base
    contains (x_i, v_i) and one of whose apexes is v_m."""
    if i == m:
        raise ValueError("i and m must differ")
    if not (inst.dom_mask(i) >> v_i) & 1 or not (inst.dom_mask(m) >> v_m) & 1:
        raise ValueError("value out of domain")
    rim = inst.row(i, m, v_i)
    on_i_side = bool((rim >> v_m) & 1)
    count = 0
    for j in inst.neighbors(m):
        if j == i:
            continue
        if on_i_side:
            # v_m compatible with v_i: need v_j incompatible with v_m and
            # a second apex compatible with v_j but not v_i
            cand = inst.row(i, j, v_i) & inst.dom_mask(j) & ~inst.row(m, j, v_m)
            hit = any(inst.row(j, m, v_j) & ~rim for v_j in iter_bits(cand))
        else:
            cand = inst.row(i, j, v_i) & inst.row(m, j, v_m)
            hit = any(rim & ~inst.row(j, m, v_j) for v_j in iter_bits(cand))
        if hit:
            count += 1
    return count


def _is_3safe(inst, i, v_i, j, v_j, m, deg) -> bool:
    """Every broken triangle on x_m with base (v_i, v_j) has an apex side
    of degree one; `deg(a, v_a, u)` is bt_degree toward x_m."""
    rim = inst.row(i, m, v_i)
    rjm = inst.row(j, m, v_j)
    a_set = rim & ~rjm
    b_set = rjm & ~rim
    if not a_set or not b_set:
        return True  # no broken triangle on this base
    if all(deg(i, v_i, b) == 1 for b in iter_bits(b_set)):
        return True
    return all(deg(j, v_j, a) == 1 for a in iter_bits(a_set))


# ---------------------------------------------------------------------------
# extension rules


def check_bt_degree_property(inst: Instance, m: int,
                             among: Optional[Iterable[int]] = None) -> bool:
    """Every consistent base pair extends to x_m through a value that is
    degree-free on one side, or the base itself is 3-safe.

    `among` restricts the base pairs to those variables (default: every
    other variable).  Over x_m's neighbours the answer is the full one
    whenever D(x_m) is non-empty and every value at a neighbour has a
    support in it, as on any arc-consistent instance.  A non-neighbour
    x_i sees all of D(x_m), so (x_i, v_i) is in the base of no broken
    triangle on x_m and its degree is 0 at every apex; a pair containing
    it then holds as soon as the two rows to x_m intersect, and the
    intersection is the other value's support, or D(x_m) itself."""
    if inst.n < 3:
        raise ValueError("need at least 3 variables")
    memo: dict = {}

    def deg(a, va, u):
        key = (a, va, u)
        if key not in memo:
            memo[key] = bt_degree(inst, a, va, m, u)
        return memo[key]

    others = [t for t in (inst.variables if among is None else among)
              if t != m]
    for i, j in combinations(others, 2):
        for v_i in inst.dom(i):
            rim = inst.row(i, m, v_i)
            for v_j in iter_bits(inst.row(i, j, v_i)):
                common = rim & inst.row(j, m, v_j)
                if not common:
                    return False
                if any(deg(i, v_i, u) == 0 or deg(j, v_j, u) == 0
                       for u in iter_bits(common)):
                    continue
                if not _is_3safe(inst, i, v_i, j, v_j, m, deg):
                    return False
    return True


def _apex_conflict(inst: Instance, m: int, i1: int, v1: int, vm: int, r1m: int) -> bool:
    """Is vm an apex of some broken triangle with a base containing
    (x_i1, v1)?  (vm is known compatible with v1.)"""
    for i2 in inst.neighbors(m):
        if i2 == i1:
            continue
        cand = inst.row(i1, i2, v1) & inst.dom_mask(i2) & ~inst.row(m, i2, vm)
        for v2 in iter_bits(cand):
            if inst.row(i2, m, v2) & ~r1m:
                return True
    return False


def check_aebtp(inst: Instance, m: int,
                among: Optional[Iterable[int]] = None) -> bool:
    """For every assignment elsewhere there is a compatible value of x_m
    that is apex of no broken triangle through that assignment.

    `among` restricts the assignments to those variables (default: every
    other variable).  Over x_m's neighbours the answer is the full one
    whenever D(x_m) is non-empty, as on any arc-consistent instance.  A
    non-neighbour x_i1 sees all of D(x_m), so no value of x_m escapes
    its row, (x_i1, v1) is in the base of no broken triangle on x_m, and
    every value of x_m extends it."""
    for i1 in (inst.variables if among is None else among):
        if i1 == m:
            continue
        for v1 in inst.dom(i1):
            r1m = inst.row(i1, m, v1)
            if not any(not _apex_conflict(inst, m, i1, v1, vm, r1m)
                       for vm in iter_bits(r1m)):
                return False
    return True


# ---------------------------------------------------------------------------
# dispatch


def checker_accepts(inst: Instance, rule: str, i: int,
                    among: Optional[Iterable[int]] = None):
    """Witness if `rule` licenses eliminating x_i right now, else None;
    the witness has the form `TraceEntry` gives for the rule.
    Applies the per-rule minimum-live-variable guard.  `among` is passed
    to the extension rules' checkers (see `check_aebtp`); any other rule
    rejects it."""
    if rule not in RULES:
        raise ValueError("unknown rule %r" % rule)
    if among is not None and rule not in ("aebtp", "bt-degree"):
        raise ValueError("rule %r takes no variable scope" % rule)
    if inst.n < MIN_LIVE[rule]:
        return None
    if rule == "exists-snake":
        return check_exists_snake(inst, i)
    if rule == "de-snake":
        return check_de_snake(inst, i)
    if rule == "triangle":
        return check_triangle(inst, i)
    if rule == "aebtp":
        return () if check_aebtp(inst, i, among) else None
    return () if check_bt_degree_property(inst, i, among) else None
