"""Arc consistency, variable elimination, singleton removal, and
neighbourhood substitution."""

import hashlib
import random
import time
from collections import deque

import pytest

from cspelim import (CAUSE_AC, CAUSE_ELIM, CAUSE_NS, GeneratorConfig,
                     Instance, NotArcConsistentError, SearchConfig,
                     TimeBudgetExceeded, brute_force_solve, consistency,
                     eliminate_singletons, eliminate_variable, enforce_ac,
                     is_arc_consistent, iter_bits, mac_solve, ns_fixpoint,
                     random_instance, solver)
from cspelim.consistency import arc_records, revise_to_fixpoint
from cspelim.trace import TraceEntry, capture_snapshot
from conftest import (broken_triangle_instance, clique_instance,
                      degree_gap_instance, disjoint_union,
                      random_tree_instance, small_random, star_instance,
                      structured_families)


def slow_ac_domains(inst):
    """Reference fixpoint: rescan every (value, neighbour) pair until no
    deletion applies; returns the surviving domains."""
    cur = inst.copy()
    changed = True
    while changed:
        changed = False
        for i in cur.variables:
            for v in list(cur.dom(i)):
                for j in cur.neighbors(i):
                    if not cur.row(i, j, v):
                        cur.delete_value(i, v)
                        changed = True
                        break
    return {i: cur.dom(i) for i in cur.variables}


def test_broken_triangle_wipes_out(bt_inst):
    assert not is_arc_consistent(bt_inst)
    reduced, log, ok = enforce_ac(bt_inst)
    assert not ok
    assert reduced.wiped
    deleted = [(d.var, d.value) for d in log]
    # c loses its support at x1, then d at x1... both values of x2 go
    assert set(deleted) == {(2, 0), (2, 1)}
    assert all(d.cause == CAUSE_AC for d in log)
    assert brute_force_solve(bt_inst) is None


def test_star_already_arc_consistent(star):
    inst = star(5)
    assert is_arc_consistent(inst)
    reduced, log, ok = enforce_ac(inst)
    assert ok and log == []
    assert reduced == inst


def test_gap_instance_loses_one_value(gap_inst):
    reduced, log, ok = enforce_ac(gap_inst)
    assert ok
    assert [(d.var, d.value) for d in log] == [(2, 0)]
    assert is_arc_consistent(reduced)
    assert brute_force_solve(gap_inst) is not None


def revise_cases():
    """Structured families and uniform random instances, d from 2 to 12;
    about a fifth wipe out under AC."""
    cases = []
    for seed in range(4):
        for d in (5, 12):
            cases += structured_families(seed, 14, d).values()
    for seed in range(80):
        cases.append(random_instance(GeneratorConfig(
            6 + seed % 7, 2 + seed % 11, 0.5, 0.3 + 0.05 * (seed % 9), seed)))
    return cases


def test_enforce_ac_matches_slow_fixpoint():
    cases = [small_random(seed, n=6, d=3, p2=0.55) for seed in range(60)]
    cases += [random_tree_instance(9, 2 + seed % 2, seed) for seed in range(12)]
    cases += [disjoint_union(small_random(seed, n=5, d=3, p2=0.55),
                             random_tree_instance(6, 2, seed))
              for seed in range(12)]
    cases.append(disjoint_union(star_instance(4), broken_triangle_instance()))
    cases += revise_cases()
    for inst in cases:
        before = {i: list(inst.dom(i)) for i in inst.variables}
        reduced, log, ok = enforce_ac(inst)
        expect = slow_ac_domains(inst)
        assert ok == all(expect.values())
        if ok:
            assert {i: reduced.dom(i) for i in reduced.variables} == expect
            assert is_arc_consistent(reduced)
            assert [(d.var, d.value) for d in log] == [
                (i, v) for i in before for v in before[i] if v not in expect[i]]
        else:
            assert reduced.wiped
        # the original is untouched
        assert {i: inst.dom(i) for i in inst.variables} == before


def reference_is_arc_consistent(inst):
    """The scan `is_arc_consistent` replaced: every variable in order,
    every neighbour, every live value through ``row``."""
    for i in inst.variables:
        if not inst.dom(i):
            return False
        for j in inst.neighbors(i):
            for v in inst.dom(i):
                if not inst.row(i, j, v):
                    return False
    return True


def test_is_arc_consistent_matches_reference_scan():
    """Raw, arc-consistent and wiped instances, each also with removed
    variables and with a deleted value, and wiped variables left without
    neighbours, give the reference's answer."""
    bases = []
    for seed in range(30):
        raw = small_random(seed, n=6, d=3, p2=0.55)
        bases += [raw, enforce_ac(raw)[0]]
    for seed in range(3):
        for inst in structured_families(seed, 12).values():
            bases += [inst, enforce_ac(inst)[0]]
    cases = []
    for k, base in enumerate(bases):
        rng = random.Random(k)
        cases.append(base)
        cut = base.copy()
        for i in rng.sample(cut.variables, 2):
            cut.remove_variable(i)
        cases.append(cut)
        shrunk = base.copy()
        live = [(i, v) for i in shrunk.variables for v in shrunk.dom(i)]
        if live:
            shrunk.delete_value(*rng.choice(live))
        cases.append(shrunk)
        # a wiped variable whose neighbours are all gone
        for i in base.variables:
            if not base.dom(i):
                bare = base.copy()
                for j in bare.neighbors(i):
                    bare.remove_variable(j)
                cases.append(bare)
                break
    answers = {True: 0, False: 0, "wiped": 0}
    for case, inst in enumerate(cases):
        got = is_arc_consistent(inst)
        assert got == reference_is_arc_consistent(inst), case
        answers[got] += 1
        answers["wiped"] += inst.wiped
    assert min(answers.values()) >= 10, answers


# sha256 of the wipeout arc, the live masks at that point and the AC
# deletion log of every wiped case, recorded with the per-value revise
# that the reverse-row revise replaced
WIPEOUT_DIGEST = (
    "1f8ccef8005e27b7ad6a06d85207dcd9af332f2588d07ff39d61c4593e5ec7d9")


def test_revise_wipeout_is_pinned():
    # on a wipeout, AC's result depends on the revise order, which the
    # search's weight bumps also depend on
    wiped = 0
    digest = hashlib.sha256()
    for case, inst in enumerate(revise_cases()):
        _, log, ok = enforce_ac(inst)
        if ok:
            continue
        wiped += 1
        into, arcs = arc_records(inst.relations, {
            i: inst.neighbors(i) for i in inst.variables})
        masks = {i: inst.dom_mask(i) for i in inst.variables}
        queue = deque(arcs)
        trail = []
        arc = revise_to_fixpoint(into, masks, queue, trail)
        assert arc is not None and masks[arc[0]] == 0, case
        digest.update(repr((case, arc, sorted(masks.items()), len(queue),
                            [(d.var, d.value) for d in log])).encode())
        # the trail undoes every narrowing
        for i, old in reversed(trail):
            masks[i] = old
        assert masks == {i: inst.dom_mask(i) for i in inst.variables}, case
    assert wiped >= 20
    assert digest.hexdigest() == WIPEOUT_DIGEST


def pair_revise(relations, neighbors, masks, queue, trail):
    """The pair-keyed revise that arc records replaced: a queued (j, i)
    looks up ``relations[i, j]`` at every pop, and a narrowing of x_j
    queues (k, j) for every neighbour k != i."""
    while queue:
        j, i = queue.popleft()
        mj = masks[j]
        rows = relations[i, j]
        mi = masks[i]
        sup = 0
        while mi:
            low = mi & -mi
            sup |= rows[low.bit_length() - 1]
            if not mj & ~sup:
                break
            mi ^= low
        else:
            kept = mj & sup
            if kept != mj:
                trail.append((j, mj))
                masks[j] = kept
                if not kept:
                    return j, i
                queue.extend([(k, j) for k in neighbors[j] if k != i])
    return None


def checked_revise(inst, calls):
    """`revise_to_fixpoint` for revisions over `inst`'s constraints,
    checked against `pair_revise` run on copies of its arguments: the
    same narrowings in the same order, the same wipeout arc, the same
    final masks and the same arcs left queued.  Appends each result to
    `calls`."""
    neighbors = {i: inst.neighbors(i) for i in inst.variables}

    def revise(into, masks, queue, trail):
        ref_masks, ref_trail = masks.copy(), list(trail)
        ref_queue = deque((j, i) for j, i, _ in queue)
        expect = pair_revise(inst.relations, neighbors, ref_masks,
                             ref_queue, ref_trail)
        got = revise_to_fixpoint(into, masks, queue, trail)
        assert got == expect
        assert trail == ref_trail
        assert masks == ref_masks
        assert [(j, i) for j, i, _ in queue] == list(ref_queue)
        calls.append(got)
        return got
    return revise


def test_record_revise_matches_pair_revise_in_enforce_ac(monkeypatch):
    calls = []
    for inst in revise_cases():
        monkeypatch.setattr(consistency, "revise_to_fixpoint",
                            checked_revise(inst, calls))
        enforce_ac(inst)
    assert len(calls) == len(revise_cases())
    assert sum(arc is not None for arc in calls) >= 20


def test_record_revise_matches_pair_revise_in_mac(monkeypatch):
    # every propagation of MAC runs, restarts and weight bumps included:
    # the structured families raw and after arc consistency (all
    # satisfiable, few wipeouts), then cliques and random instances near
    # the threshold for d = 6, where most propagations wipe out
    cases = []
    for seed in range(3):
        for d in (3, 5):
            for inst in structured_families(seed, 16, d).values():
                cases += [inst, enforce_ac(inst)[0]]
    cases += [clique_instance(5, 4), clique_instance(6, 4)]
    cases += [small_random(seed, n=24 + seed % 9, d=6, p1=0.3,
                           p2=(0.33, 0.4)[seed % 2]) for seed in range(12)]
    calls = []
    verdicts = set()
    for inst in cases:
        monkeypatch.setattr(solver, "revise_to_fixpoint",
                            checked_revise(inst, calls))
        log = []
        mac_solve(inst, SearchConfig(initial_backtracks=1), log)
        verdicts.add(log[-1])
    assert verdicts == {"verdict sat", "verdict unsat"}
    assert sum(arc is not None for arc in calls) >= 500


def test_record_revise_matches_pair_revise_on_wide_domains(monkeypatch):
    # 13 to 20 values per domain, more than the 4,096 cached masks can
    # cover, near the threshold: MAC wipes out often, and at p2 = 0.8
    # arc consistency alone wipes out three of the four
    ac_calls, mac_calls = [], []
    verdicts = set()
    for seed in range(16):
        inst = small_random(seed, n=16, d=13 + seed % 8, p1=0.5,
                            p2=(0.55, 0.6, 0.65, 0.8)[seed % 4])
        monkeypatch.setattr(consistency, "revise_to_fixpoint",
                            checked_revise(inst, ac_calls))
        enforce_ac(inst)
        monkeypatch.setattr(solver, "revise_to_fixpoint",
                            checked_revise(inst, mac_calls))
        log = []
        mac_solve(inst, SearchConfig(initial_backtracks=1), log)
        verdicts.add(log[-1])
    assert verdicts == {"verdict sat", "verdict unsat"}
    assert sum(arc is not None for arc in ac_calls) >= 3
    assert sum(arc is not None for arc in mac_calls) >= 500


def test_revise_bit_cache_is_bounded():
    # x_0 == x_1 over 13 values: revising x_0 against x_1 narrows x_0 to
    # the mask of x_1, which is read through the cache; every 13-bit mask
    # is twice the bound, so the cache is cleared on the way
    bits_of = consistency._BITS
    bound = consistency._BITS_BOUND
    assert bound == 4096
    rows = [1 << v for v in range(13)]
    into = [[(1, 0, rows)], [(0, 1, rows)]]
    full = (1 << 13) - 1
    sizes = []
    for mask in range(1, full + 1):
        masks = [full, mask]
        queue = deque([into[1][0]])
        assert revise_to_fixpoint(into, masks, queue, []) is None
        assert masks == [mask, mask] and not queue
        assert bits_of[mask] == tuple(iter_bits(mask))
        sizes.append(len(bits_of))
    assert max(sizes) == bound
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert all(bits == tuple(iter_bits(mask))
               for mask, bits in bits_of.items())


def test_ns_fixpoint_checks_deadline():
    inst = small_random(0, n=6, d=3, p2=0.55)
    with pytest.raises(TimeBudgetExceeded):
        ns_fixpoint(inst, deadline=time.monotonic() - 1.0)
    # before its first pass, so nothing was deleted
    assert inst == small_random(0, n=6, d=3, p2=0.55)


def test_enforce_ac_preserves_satisfiability():
    for seed in range(40):
        inst = small_random(seed, n=5, d=3, p2=0.6)
        reduced, _, ok = enforce_ac(inst)
        before = brute_force_solve(inst) is not None
        after = ok and brute_force_solve(reduced) is not None
        assert before == after


def test_eliminate_variable_star_center(star):
    inst = star(5)
    log, ok = eliminate_variable(inst, 0)
    assert ok and log == []
    # the elimination happens in place
    assert inst.variables == (1, 2, 3, 4)
    assert inst.e == 0
    assert 0 not in inst.live


def test_eliminate_variable_deletes_unsupported_values():
    inst = Instance.build([[0], [0, 1]], {(0, 1): [(0, 0)]})
    log, ok = eliminate_variable(inst, 0)
    assert ok
    assert [(d.var, d.value) for d in log] == [(1, 1)]
    assert all(d.cause == CAUSE_ELIM for d in log)
    assert inst.dom(1) == [0]


def test_eliminate_variable_reports_wipeout():
    inst = Instance.build([[0, 1], [0]], {(0, 1): []})
    log, ok = eliminate_variable(inst, 0)
    assert not ok
    assert inst.wiped


def test_singletons_on_arc_consistent_input(gap_inst):
    ac, _, ok = enforce_ac(gap_inst)
    assert ok
    reduced, entries = eliminate_singletons(ac)
    assert [e.var for e in entries] == [0]
    assert entries[0].rule == "singleton"
    assert entries[0].witness == 0
    assert entries[0].deletions == ()
    assert reduced.variables == (1, 2)
    assert is_arc_consistent(reduced)


def test_singletons_cascade(monkeypatch):
    # x0 fixed; arc consistency along the equality chain fixes x1 and x2
    inst = Instance.build([[0], [0, 1], [0, 1]],
                          {(0, 1): [(0, 0)], (1, 2): [(0, 0), (1, 1)]})
    ac, _, ok = enforce_ac(inst)
    assert ok
    reduced, entries = eliminate_singletons(ac)
    assert [e.var for e in entries] == [0, 1, 2]
    assert reduced.n == 0

    # a long chain is removed after one copy of the input, which stays
    # untouched
    n = 300
    cons = {(i, i + 1): [(0, 0), (1, 1)] for i in range(1, n - 1)}
    cons[(0, 1)] = [(0, 0)]
    chain = Instance.build([[0]] + [[0, 1]] * (n - 1), cons)
    ac, _, ok = enforce_ac(chain)
    assert ok
    copies = []
    real_copy = Instance.copy
    monkeypatch.setattr(Instance, "copy",
                        lambda self: copies.append(1) or real_copy(self))
    reduced, entries = eliminate_singletons(ac)
    assert [e.var for e in entries] == list(range(n))
    assert reduced.n == 0
    assert len(copies) == 1
    assert ac.n == n


def rescan_singletons(inst):
    """Reference singleton removal: after each elimination, rescan the
    variables for the smallest-index singleton."""
    cur = inst.copy()
    entries = []
    while True:
        single = next((i for i in cur.variables if cur.dom_size(i) == 1),
                      None)
        if single is None:
            break
        value = cur.dom(single)[0]
        doms, rels = capture_snapshot(cur, single)
        log, ok = eliminate_variable(cur, single)
        entries.append(TraceEntry("singleton", single, value, doms, rels,
                                  deletions=tuple(log)))
        if not ok:
            break
    return cur, entries


def test_singleton_removal_matches_rescan():
    # arc-consistent closures of inputs with values deleted at random,
    # so that many variables are singletons
    rng = random.Random(5)
    checked = removed = 0
    for seed in range(600):
        inst = small_random(seed, n=12, d=3, p1=0.4, p2=0.3)
        for i in inst.variables:
            for v in list(inst.dom(i)):
                if inst.dom_size(i) > 1 and rng.random() < 0.3:
                    inst.delete_value(i, v)
        ac, _, ok = enforce_ac(inst)
        if not ok:
            continue
        got, entries = eliminate_singletons(ac)
        assert (got, entries) == rescan_singletons(ac), seed
        # on arc-consistent input removal deletes nothing, so
        # `preprocess` needs no wipeout check after it
        assert not any(e.deletions for e in entries), seed
        assert not got.wiped, seed
        checked += 1
        removed += len(entries)
    assert checked >= 30 and removed >= 200, (checked, removed)


def test_singleton_removal_rejects_input_that_is_not_arc_consistent():
    # x1 = 1 has no support at the singleton x0
    inst = Instance.build([[0], [0, 1]], {(0, 1): [(0, 0)]})
    with pytest.raises(NotArcConsistentError):
        eliminate_singletons(inst)
    assert inst.variables == (0, 1) and inst.dom(1) == [0, 1]


def test_ns_deletes_dominated_values():
    inst = Instance.build([[0, 1], [0, 1]],
                          {(0, 1): [(0, 0), (0, 1), (1, 0)]})
    log = ns_fixpoint(inst)
    assert all(d.cause == CAUSE_NS for d in log)
    deleted = {(d.var, d.value) for d in log}
    assert deleted == {(0, 1), (1, 1)}
    # the deletions happen in place
    assert inst.dom(0) == [0] and inst.dom(1) == [0]


def test_ns_keeps_incomparable_values(star):
    inst = star(4)  # inequality rows are incomparable
    assert ns_fixpoint(inst) == []
    assert inst == star(4)


def test_ns_interchangeable_values_drop_larger_index():
    # x0's two values have identical supports; exactly one survives
    inst = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 0)]})
    log = ns_fixpoint(inst)
    assert (0, 1) in {(d.var, d.value) for d in log}
    assert inst.dom(0) == [0]


def test_ns_preserves_satisfiability():
    for seed in range(40):
        inst = small_random(seed, n=5, d=3, p2=0.5)
        sat = brute_force_solve(inst) is not None
        ns_fixpoint(inst)
        assert sat == (brute_force_solve(inst) is not None)
