"""Arc consistency, variable elimination, singleton removal, neighbourhood
substitution.

Unsatisfiability (a wiped-out domain) is reported through a boolean flag,
never an exception: preprocessing legitimately discovers it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from .model import Instance, iter_bits
from .trace import Deletion, TraceEntry, make_entry

CAUSE_AC = "AC"
CAUSE_ELIM = "elimination-support"
CAUSE_NS = "NS"


class NotArcConsistentError(ValueError):
    """An operation that requires arc consistency got a non-AC instance."""


class TimeBudgetExceeded(Exception):
    """Wall-clock limit expired during preprocessing or search."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise TimeBudgetExceeded once ``time.monotonic()`` is past
    `deadline`; None means no limit."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded()


def is_arc_consistent(inst: Instance) -> bool:
    """Every live value has a support at every constraining variable:
    no domain is empty and, for every stored constraint (i, j), every
    live value of x_i has a row meeting the live domain of x_j."""
    if inst.wiped:
        return False
    for (i, j), rows in inst.relations.items():
        mask = inst.dom_mask(j)
        for v in inst.dom(i):
            if not rows[v] & mask:
                return False
    return True


def arc_records(relations: dict, neighbors: dict) -> tuple[list, list]:
    """The arcs of a constraint graph as records for `revise_to_fixpoint`.

    `relations` holds the rows of every constraint as in
    ``Instance.relations``; `neighbors` maps each variable to its
    constrained variables, ascending.  The record (j, i, rows) revises
    x_j against x_i, with ``rows = relations[i, j]``.  Returns (into,
    arcs): ``into``, indexed by variable, lists at j the records
    (k, j, relations[j, k]) for each neighbour k of x_j, ascending, and
    `arcs` holds the same record objects in the order (i, j) for each
    variable i ascending and each neighbour j ascending.
    """
    into: list = [[] for _ in range(max(neighbors, default=-1) + 1)]
    arcs = []
    for i in sorted(neighbors):
        for j in neighbors[i]:
            arc = (i, j, relations[j, i])
            into[j].append(arc)
            arcs.append(arc)
    return into, arcs


# The set-bit positions of each mask `revise_to_fixpoint` has read, keyed
# by mask.  4,096 entries hold every mask of a 12-value domain.
_BITS: dict = {}
_BITS_BOUND = 1 << 12


def revise_to_fixpoint(into: list, masks, queue: deque,
                       trail: list) -> tuple[int, int] | None:
    """AC-3 revise loop over live-value masks, narrowed in place.

    `queue` holds arc records from `arc_records`, and `into` is its
    requeue table.  Popping (j, i, rows) keeps in ``masks[j]`` the values
    with a support in ``masks[i]``.  That is the OR of the reverse rows
    over ``masks[i]``, one row per live value of x_i, stopping as soon as
    it covers ``masks[j]`` (Lecoutre and Vion, CPL 2008).  The live
    values of ``masks[i]`` are read from `_BITS`, which maps a mask to
    ``tuple(iter_bits(mask))``: filled on first read and cleared once it
    holds `_BITS_BOUND` entries, so its size is bounded at any domain
    width.  Each narrowing pushes (j, old mask) on `trail`, so a caller
    can undo it.  When x_j shrinks, every record of ``into[j]`` but the
    one from x_i is queued again (duplicates included), so a pop costs no
    tuple hashing or relation lookup.  Returns the arc (j, i) whose
    revision wiped x_j out, or None at the fixpoint.  `masks` is indexed
    by variable, and every mask must lie within its variable's live
    domain.
    """
    popleft = queue.popleft
    bits_of = _BITS
    while queue:
        j, i, rows = popleft()
        mj = masks[j]
        mi = masks[i]
        try:
            bits = bits_of[mi]
        except KeyError:
            if len(bits_of) >= _BITS_BOUND:
                bits_of.clear()
            bits = bits_of[mi] = tuple(iter_bits(mi))
        sup = 0
        for v in bits:
            sup |= rows[v]
            if not mj & ~sup:
                break
        else:
            kept = mj & sup
            if kept != mj:
                trail.append((j, mj))
                masks[j] = kept
                if not kept:
                    return j, i
                queue.extend([a for a in into[j] if a[0] != i])
    return None


def enforce_ac(inst: Instance) -> tuple[Instance, list[Deletion], bool]:
    """Establish arc consistency by revising every arc to a fixpoint.

    Returns (new instance, deletion log, sat flag), the log in (variable,
    value) order.  The flag is False iff some domain is empty, one that
    no constraint touches included.
    Propagation stops at the first wipeout, so which other values are
    deleted by then depends on the revise order.
    """
    cur = inst.copy()
    into, arcs = arc_records(cur.relations,
                             {i: cur.neighbors(i) for i in cur.variables})
    masks = {i: cur.dom_mask(i) for i in cur.variables}
    wipeout = revise_to_fixpoint(into, masks, deque(arcs), [])
    log: list[Deletion] = []
    for i in cur.variables:
        for v in iter_bits(cur.dom_mask(i) & ~masks[i]):
            cur.delete_value(i, v)
            log.append(Deletion(i, v, CAUSE_AC))
    return cur, log, wipeout is None and not cur.wiped


def eliminate_variable(inst: Instance, i: int) -> tuple[list[Deletion], bool]:
    """Remove x_i from `inst` in place: first delete neighbour values with
    no support at x_i, then drop x_i and its constraints.  Returns
    (deletion log, ok); ok is False iff some neighbour's domain is empty.
    Satisfiability is unchanged when a rule licensed the elimination; on
    an arc-consistent instance the deletion log is always empty."""
    log: list[Deletion] = []
    ok = True
    for j in inst.neighbors(i):
        for w in list(inst.dom(j)):
            if not inst.row(j, i, w):
                inst.delete_value(j, w)
                log.append(Deletion(j, w, CAUSE_ELIM))
        if not inst.dom(j):
            ok = False
    inst.remove_variable(i)
    return log, ok


def eliminate_singletons(inst: Instance):
    """Remove the singleton-domain variables of an arc-consistent
    instance from a copy, in index order.  Returns (instance, trace
    entries).  Every value of a neighbour of a singleton is compatible
    with its one value, so a removal deletes nothing: no new singleton
    and no wipeout can follow.  A removal that would delete a value
    raises NotArcConsistentError."""
    cur = inst.copy()
    entries: list[TraceEntry] = []
    for single in cur.variables:
        if cur.dom_size(single) != 1:
            continue
        entries.append(make_entry(cur, "singleton", single,
                                  cur.dom(single)[0]))
        if eliminate_variable(cur, single)[0]:
            raise NotArcConsistentError(
                "singleton removal requires an arc-consistent instance")
    return cur, entries


def _substitutable(inst: Instance, i: int, v: int, v2: int) -> bool:
    """Every support of (i, v) is also a support of (i, v2)."""
    for j in inst.neighbors(i):
        if inst.row(i, j, v) & ~inst.row(i, j, v2):
            return False
    return True


def ns_fixpoint(inst: Instance,
                deadline: Optional[float] = None) -> list[Deletion]:
    """Delete neighbourhood-substitutable values of `inst` in place until
    none remain, and return the deletion log.

    A value v goes when some live v2 covers all its supports and either
    the containment is strict or v2 < v (ties drop the larger index).
    Each pass over the variables first checks `deadline`
    (`check_deadline`).
    """
    log: list[Deletion] = []
    changed = True
    while changed:
        check_deadline(deadline)
        changed = False
        for i in inst.variables:
            for v in list(inst.dom(i)):
                for v2 in inst.dom(i):
                    if v2 == v or not _substitutable(inst, i, v, v2):
                        continue
                    if v2 < v or not _substitutable(inst, i, v2, v):
                        inst.delete_value(i, v)
                        log.append(Deletion(i, v, CAUSE_NS))
                        changed = True
                        break
    return log
