"""Definitional checkers for the elimination rules and the patterns they
are built from (snakes, broken triangles, broken polyhedra).

Everything here is a direct, naive transcription of the defining
conditions, quantifier by quantifier.  These functions are the ground
truth that the incremental engines are checked against.  All existential
choices are deterministic: smallest value, then smallest variable index.

Values are internal indices; checkers run on arbitrary instances (arc
consistency is not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
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
# witnesses


@dataclass(frozen=True)
class SnakeWitness:
    value: int


@dataclass(frozen=True)
class DeSnakeWitness:
    value: int
    # (neighbour j, v_j incompatible with value) -> replacement u_j(v_j)
    u_map: dict


@dataclass(frozen=True)
class TriangleWitness:
    justifier: int
    # v_j -> dominating v_i(v_j)
    v_map: dict


@dataclass(frozen=True)
class ExtensionWitness:
    """Certificate-free witness: the rule guarantees any solution of the
    reduced instance extends, value found by scanning the snapshot."""


@dataclass(frozen=True)
class SingletonWitness:
    value: int


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class BrokenTriangle:
    """Apexes apex_i, apex_j in D(x_m) over base (x_i,v_i),(x_j,v_j):
    the base pair is compatible, apex_i is compatible with v_i only and
    apex_j with v_j only."""
    m: int
    i: int
    v_i: int
    j: int
    v_j: int
    apex_i: int
    apex_j: int

    def holds_in(self, inst: Instance) -> bool:
        return (self.apex_i != self.apex_j
                and inst.compatible(self.i, self.v_i, self.j, self.v_j)
                and inst.compatible(self.i, self.v_i, self.m, self.apex_i)
                and inst.compatible(self.j, self.v_j, self.m, self.apex_j)
                and not inst.compatible(self.i, self.v_i, self.m, self.apex_j)
                and not inst.compatible(self.j, self.v_j, self.m, self.apex_i))


@dataclass(frozen=True)
class BrokenPolyhedron:
    """k base assignments (var, value) plus k distinct apexes in D(x_m);
    apex h conflicts with base point h and is compatible with the rest."""
    m: int
    base: tuple
    apexes: tuple

    @property
    def k(self) -> int:
        return len(self.base)

    def holds_in(self, inst: Instance) -> bool:
        if len(set(self.apexes)) != len(self.apexes):
            return False
        for (a, va), (b, vb) in combinations(self.base, 2):
            if not inst.compatible(a, va, b, vb):
                return False
        for h, (a, va) in enumerate(self.base):
            for g, u in enumerate(self.apexes):
                if inst.compatible(a, va, self.m, u) != (g != h):
                    return False
        return True


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


def check_exists_snake(inst: Instance, i: int) -> Optional[SnakeWitness]:
    """Smallest v_i on which the snake pattern does not occur at all."""
    for v in inst.dom(i):
        if snake_occurs(inst, i, v) is None:
            return SnakeWitness(v)
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


def check_de_snake(inst: Instance, i: int) -> Optional[DeSnakeWitness]:
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
            return DeSnakeWitness(v, u_map)
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


def check_triangle(inst: Instance, i: int) -> Optional[TriangleWitness]:
    for j in inst.variables:
        if j == i:
            continue
        v_map = justifies(inst, j, i)
        if v_map is not None:
            return TriangleWitness(j, v_map)
    return None


# ---------------------------------------------------------------------------
# broken triangles


def enumerate_broken_triangles(inst: Instance, m: int) -> list[BrokenTriangle]:
    """All broken triangles on x_m, base ordered by variable index."""
    out = []
    ns = inst.neighbors(m)
    for i, j in combinations(ns, 2):
        for v_i in inst.dom(i):
            rim = inst.row(i, m, v_i)
            for v_j in iter_bits(inst.row(i, j, v_i)):
                rjm = inst.row(j, m, v_j)
                for a in iter_bits(rim & ~rjm):
                    for b in iter_bits(rjm & ~rim):
                        out.append(BrokenTriangle(m, i, v_i, j, v_j, a, b))
    return out


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
    rim = inst.row(i, m, v_i)
    rjm = inst.row(j, m, v_j)
    a_set = rim & ~rjm
    b_set = rjm & ~rim
    if not a_set or not b_set:
        return True  # no broken triangle on this base
    if all(deg(i, v_i, b) == 1 for b in iter_bits(b_set)):
        return True
    return all(deg(j, v_j, a) == 1 for a in iter_bits(a_set))


def is_3safe(inst: Instance, i: int, v_i: int, j: int, v_j: int, m: int) -> bool:
    """Every broken triangle on x_m with base (v_i, v_j) has an apex side
    of degree one."""
    if len({i, j, m}) != 3:
        raise ValueError("i, j, m must be pairwise distinct")
    if not inst.compatible(i, v_i, j, v_j):
        raise ValueError("base pair is not consistent")
    return _is_3safe(inst, i, v_i, j, v_j, m,
                     lambda a, va, u: bt_degree(inst, a, va, m, u))


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


def _consistent_assignments(inst: Instance, subset: tuple):
    """All pairwise-consistent assignments to subset, lexicographic."""
    def go(idx, partial):
        if idx == len(subset):
            yield tuple(partial)
            return
        t = subset[idx]
        allowed = inst.dom_mask(t)
        for s, v in zip(subset, partial):
            allowed &= inst.row(s, t, v)
        for v in iter_bits(allowed):
            partial.append(v)
            yield from go(idx + 1, partial)
            partial.pop()
    yield from go(0, [])


def check_ae_broken_polyhedron(inst: Instance, m: int, k: int) -> bool:
    """Generalisation of check_aebtp to k-dimensional polyhedra; k=2
    coincides with it.  Exhaustive (oracle use only for k >= 3)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if inst.n < k:
        raise ValueError("need at least k variables")
    others = [t for t in inst.variables if t != m]
    for subset in combinations(others, k - 1):
        for assign in _consistent_assignments(inst, subset):
            rows_m = [inst.row(t, m, v) for t, v in zip(subset, assign)]
            candidates = inst.dom_mask(m)
            for r in rows_m:
                candidates &= r
            ok = False
            for vm in iter_bits(candidates):
                if not _poly_conflict(inst, m, subset, assign, rows_m, vm):
                    ok = True
                    break
            if not ok:
                return False
    return True


def _poly_conflict(inst, m, subset, assign, rows_m, vm) -> bool:
    """Is vm an apex of a broken |subset|+1-polyhedron extending the
    subset assignment by one more variable?"""
    taken = set(subset)
    for t in inst.neighbors(m):
        if t == m or t in taken:
            continue
        cand = inst.dom_mask(t) & ~inst.row(m, t, vm)
        for s, v in zip(subset, assign):
            cand &= inst.row(s, t, v)
        for v_t in iter_bits(cand):
            rtm = inst.row(t, m, v_t)
            ok_all = True
            for idx in range(len(subset)):
                c = inst.dom_mask(m) & ~rows_m[idx] & rtm
                for h in range(len(subset)):
                    if h != idx:
                        c &= rows_m[h]
                if not c:
                    ok_all = False
                    break
            if ok_all:
                return True
    return False


def find_broken_polyhedron(inst: Instance, m: int, k: int) -> Optional[BrokenPolyhedron]:
    """First broken k-dimensional polyhedron on x_m, or None."""
    if k < 2:
        raise ValueError("k must be at least 2")
    others = [t for t in inst.variables if t != m]
    if len(others) < k:
        return None
    for subset in combinations(others, k):
        for assign in _consistent_assignments(inst, subset):
            rows_m = [inst.row(t, m, v) for t, v in zip(subset, assign)]
            apexes = []
            for idx in range(k):
                c = inst.dom_mask(m) & ~rows_m[idx]
                for h in range(k):
                    if h != idx:
                        c &= rows_m[h]
                if not c:
                    break
                apexes.append((c & -c).bit_length() - 1)
            if len(apexes) == k:
                return BrokenPolyhedron(m, tuple(zip(subset, assign)), tuple(apexes))
    return None


# ---------------------------------------------------------------------------
# 1-fBTP (checker only; used for rule comparison, no engine)


def check_1fbtp(inst: Instance, m: int) -> bool:
    """Every broken triangle on x_m has a support variable: a fourth
    variable on which the base pair shares no common compatible value."""
    for bt in enumerate_broken_triangles(inst, m):
        if not any(not (inst.row(bt.i, ell, bt.v_i) & inst.row(bt.j, ell, bt.v_j))
                   for ell in inst.variables if ell not in (bt.i, bt.j, m)):
            return False
    return True


# ---------------------------------------------------------------------------
# dispatch


def checker_accepts(inst: Instance, rule: str, i: int,
                    among: Optional[Iterable[int]] = None):
    """Witness if `rule` licenses eliminating x_i right now, else None.
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
        return ExtensionWitness() if check_aebtp(inst, i, among) else None
    return (ExtensionWitness() if check_bt_degree_property(inst, i, among)
            else None)
