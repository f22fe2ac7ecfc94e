"""Theory-only checkers and search oracles.

The broken-triangle theory around the rules (broken triangles and
polyhedra, 1-fBTP, 3-safety of a single base), isomorphism testing and
exhaustive elimination-order search.  No command, engine or library
path of the package calls them; the acceptance criteria and the checker
and oracle tests do, and import them with ``from theory import ...``.
Like the checkers in ``cspelim.patterns`` they transcribe the
definitions directly and favour obviousness over speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from cspelim import (Instance, SizeGuardExceeded, bt_degree,
                     checker_accepts, eliminate_variable, iter_bits)
from cspelim.patterns import _is_3safe

ISO_GUARD = 7


def canonical_key(inst: Instance) -> tuple:
    """Hashable snapshot of the live structure (for memoization)."""
    def pairs_by_name(i, j):
        return tuple(sorted((inst.value_name(i, v), inst.value_name(j, w))
                            for v in inst.dom(i)
                            for w in iter_bits(inst.row(i, j, v))))

    doms = tuple((i, tuple(inst.value_names(i))) for i in inst.variables)
    rels = tuple((i, j, pairs_by_name(i, j)) for i, j in inst.pairs())
    return (doms, rels)


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
# broken polyhedra


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
# isomorphism


def _semantic_degree(inst: Instance, i: int) -> int:
    """Number of neighbours whose relation actually forbids something."""
    deg = 0
    for j in inst.neighbors(i):
        full = inst.dom_mask(j)
        if any(inst.row(i, j, v) != full for v in inst.dom(i)):
            deg += 1
    return deg


def are_isomorphic(a: Instance, b: Instance) -> bool:
    """Variable and per-variable value bijections preserving every
    compatibility.  Exhaustive with (domain size, effective degree)
    pruning; guarded to n <= 7."""
    if a.n > ISO_GUARD or b.n > ISO_GUARD:
        raise SizeGuardExceeded("isomorphism test limited to n <= %d" % ISO_GUARD)
    va, vb = list(a.variables), list(b.variables)
    if len(va) != len(vb):
        return False
    sig_a = {i: (a.dom_size(i), _semantic_degree(a, i)) for i in va}
    sig_b = {j: (b.dom_size(j), _semantic_degree(b, j)) for j in vb}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    sigma: dict = {}
    vmaps: dict = {}
    used: set = set()

    def consistent(x: int, y: int, pi: dict) -> bool:
        for x2, y2 in sigma.items():
            pi2 = vmaps[x2]
            for v in a.dom(x):
                for v2 in a.dom(x2):
                    if (a.compatible(x, v, x2, v2)
                            != b.compatible(y, pi[v], y2, pi2[v2])):
                        return False
        return True

    def extend(idx: int) -> bool:
        if idx == len(va):
            return True
        x = va[idx]
        for y in vb:
            if y in used or sig_a[x] != sig_b[y]:
                continue
            for perm in permutations(b.dom(y)):
                pi = dict(zip(a.dom(x), perm))
                if consistent(x, y, pi):
                    sigma[x] = y
                    vmaps[x] = pi
                    used.add(y)
                    if extend(idx + 1):
                        return True
                    del sigma[x], vmaps[x]
                    used.discard(y)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# elimination-order search


def max_eliminations_by_order(inst: Instance, rule: str) -> int:
    """Maximum eliminations over every order of rule-valid choices
    (not just the greedy smallest-first order).  Memoized exhaustive
    search, guarded to n <= 7."""
    if inst.n > ISO_GUARD:
        raise SizeGuardExceeded("order search limited to n <= %d" % ISO_GUARD)
    memo: dict = {}

    def go(cur: Instance) -> int:
        key = canonical_key(cur)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = 0
        for i in cur.variables:
            if checker_accepts(cur, rule, i) is None:
                continue
            nxt = cur.copy()
            _, ok = eliminate_variable(nxt, i)
            score = 1 + (go(nxt) if ok else 0)
            if score > best:
                best = score
        memo[key] = best
        return best

    return go(inst)
