"""Incremental engines against the reference fixpoint, the queue and
table-update events an `EngineRecorder` reads off the engines' methods,
and the work-bound bookkeeping.  Every engine witness in this module is
certified by its rule's checker (`certified_witnesses` in conftest)."""

import gc
import hashlib
import os
import sys
import weakref
from collections import Counter

import pytest

import cspelim.engines.aebtp as aebtp_engine
import cspelim.engines.base as engine_base
import cspelim.engines.bt_degree as bt_degree_engine
import cspelim.engines.snake as snake_engine
import cspelim.engines.triangle as triangle_engine
from cspelim import (ENGINES, MIN_LIVE, GeneratorConfig, Instance,
                     NotArcConsistentError, RULES, check_engine_precondition,
                     eliminate_singletons, enforce_ac, naive_fixpoint,
                     parse_instance, random_instance, run_engine)
from cspelim.engines.bt_degree import BrokenTriangleEngine
from cspelim.engines.triangle import TriangleEngine, _candidates, _losses
from cspelim.model import iter_bits
from cspelim.oracle import battery_ac_instances
from cspelim.patterns import check_triangle, checker_accepts, justifies
from conftest import (random_tree_instance, small_random, star_instance,
                      structured_families)


pytestmark = pytest.mark.usefixtures("certified_witnesses")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ac_instance(seed, **kw):
    inst = small_random(seed, **kw)
    ac, _, ok = enforce_ac(inst)
    return ac if ok else None


class EngineRecorder:
    """What the engines' queues and tables do, recorded by wrapping
    engine methods with `monkeypatch`; `clear()` starts a new record.

    `insertions` lists (var, phase) for every `push` that queued var:
    phase "init" inside the rule's `initialise`, "prop" after.
    `branch_fires` counts per (label, key) the table updates:
    ("advance", (i, key, old item)) when `resume` finds the watched item
    of x_i's scan under key held or ran out, and ("deg-zero" or
    "deg-one", (m, i, v_i, u)) when the broken-triangle `propagate` sets
    a `zero` bit or clears a `many` bit of an entry built before it."""

    def __init__(self, monkeypatch):
        self.clear()
        self.initialising = False
        push, resume = engine_base.Engine.push, engine_base.Engine.resume

        def recorded_push(engine, i):
            queued = i in engine._queued
            push(engine, i)
            if not queued and i in engine._queued:
                self.insertions.append(
                    (i, "init" if self.initialising else "prop"))

        def recorded_resume(engine, i):
            watched = {key: w[1] for key, w in engine.scans[i].items()
                       if w is not None}
            resume(engine, i)
            scans = engine.scans[i]
            for key, item in watched.items():
                if scans[key] is None or scans[key][1] != item:
                    self.branch_fires[("advance", (i, key, item))] += 1

        monkeypatch.setattr(engine_base.Engine, "push", recorded_push)
        monkeypatch.setattr(engine_base.Engine, "resume", recorded_resume)
        # on each rule's class, not the base it inherits from, so that a
        # copy of the base's method set on the rule's class is wrapped too
        for cls in ENGINES.values():
            monkeypatch.setattr(cls, "initialise",
                                self._initialising(cls.initialise))
            if issubclass(cls, BrokenTriangleEngine):
                monkeypatch.setattr(cls, "propagate",
                                    self._diffing(cls.propagate))

    def clear(self):
        self.insertions = []
        self.branch_fires = Counter()

    def _initialising(self, initialise):
        def recorded_initialise(engine):
            self.initialising = True
            try:
                initialise(engine)
            finally:
                self.initialising = False
        return recorded_initialise

    def _diffing(self, propagate):
        """`propagate` diffing the `zero` and `many` masks of the entries
        built at each neighbour x_m before the call; entries the resumed
        scans build during it are new and not diffed."""
        def recorded_propagate(engine, var, neighbors):
            before = {m: (dict(engine.st[m]["zero"]),
                          dict(engine.st[m]["many"])) for m in neighbors}
            propagate(engine, var, neighbors)
            fires = self.branch_fires
            for m, (zero, many) in before.items():
                st = engine.st[m]
                for key, mask in zero.items():
                    for u in iter_bits(st["zero"][key] & ~mask):
                        fires[("deg-zero", (m,) + key + (u,))] += 1
                for key, mask in many.items():
                    for u in iter_bits(mask & ~st["many"][key]):
                        fires[("deg-one", (m,) + key + (u,))] += 1
        return recorded_propagate


def test_engine_registry():
    assert set(ENGINES) == set(RULES)
    for rule, cls in ENGINES.items():
        assert cls.rule == rule


def test_precondition_rejected(bt_inst):
    with pytest.raises(NotArcConsistentError):
        check_engine_precondition(bt_inst)
    with pytest.raises(NotArcConsistentError):
        run_engine(bt_inst, "triangle")
    with pytest.raises(ValueError):
        run_engine(bt_inst, "no-such-rule")


def test_input_instance_left_untouched(star):
    inst = star(4)
    reduced, entries = run_engine(inst, "de-snake")
    assert inst.n == 4
    assert reduced.n == 0
    assert len(entries) == 4


@pytest.mark.parametrize("rule", ["exists-snake", "de-snake"])
def test_engine_run_rejects_support_deletion(rule):
    # not arc consistent: x1 = 1 has no support at x0.  Building the
    # engine directly skips run_engine's precondition, so the guard in
    # run() is what catches it when x0 is eliminated.
    inst = Instance.build([[0], [0, 1]], {(0, 1): [(0, 0)]})
    with pytest.raises(NotArcConsistentError, match="support deletion"):
        ENGINES[rule](inst).run()


def test_star_eliminates_completely(star):
    # the center goes first, then the now-free leaves one by one
    for rule in ("exists-snake", "de-snake"):
        reduced, entries = run_engine(star(5), rule)
        assert [e.var for e in entries] == [0, 1, 2, 3, 4]
        assert reduced.n == 0


def test_triangle_respects_live_minimum(star):
    reduced, entries = run_engine(star(5), "triangle")
    assert reduced.n == 1
    assert len(entries) == 4
    # leaves go first (the center is justified only once leaves thin out)
    assert entries[0].var == 1


class NSRuns:
    """Compares `run_engine` with the naive fixpoint, both with or both
    without neighbourhood substitution after each elimination, and
    counts the runs where NS deleted values (each restarts the engine)."""

    def __init__(self, ns):
        self.ns = ns
        self.runs = self.deleting = 0

    def check(self, ac, rule, label):
        ref_inst, ref_entries = naive_fixpoint(ac, rule, ns_interleave=self.ns)
        eng_inst, eng_entries = run_engine(ac, rule, ns=self.ns)
        assert eng_inst == ref_inst, label
        assert eng_entries == ref_entries, label
        self.runs += 1
        self.deleting += any(e.deletions for e in eng_entries)
        return eng_entries

    def assert_restarts_exercised(self):
        if self.ns:
            assert self.deleting > self.runs / 2, (self.deleting, self.runs)
        else:
            assert self.deleting == 0, self.deleting


@pytest.mark.parametrize("ns", [False, True])
def test_engines_match_reference_fixpoint(ns):
    checked = 0
    runs = NSRuns(ns)
    for seed in range(150):
        ac = ac_instance(seed, n=6, d=3, p2=0.45)
        if ac is None:
            continue
        checked += 1
        for rule in RULES:
            runs.check(ac, rule, (seed, rule))
    assert checked > 100
    runs.assert_restarts_exercised()


@pytest.mark.parametrize("ns", [False, True])
def test_engines_match_reference_on_denser_instances(monkeypatch, ns):
    runs = NSRuns(ns)
    for seed in range(40):
        ac = ac_instance(seed, n=7, d=4, p1=0.7, p2=0.3)
        if ac is None:
            continue
        for rule in RULES:
            runs.check(ac, rule, (seed, rule))
    # trees after singleton removal: the live indices are non-contiguous
    # and run above 63, so the snake loss masks span several 64-bit words
    checked = 0
    for seed in range(12):
        ac, _, ok = enforce_ac(random_tree_instance(80, 3, seed))
        if not ok:
            continue
        ac, _ = eliminate_singletons(ac)
        live = ac.variables
        assert live != tuple(range(ac.n)) and live[-1] > 63, seed
        checked += 1
        for rule in ("exists-snake", "de-snake"):
            runs.check(ac, rule, ("tree", seed, rule))
    assert checked >= 3
    # sparse instances at n=20-30, every rule
    for seed, n in enumerate((20, 22, 24, 26, 28, 30)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 4, 2.5 / n, 0.25, seed)))
        assert ok, seed
        ac, _ = eliminate_singletons(ac)
        assert ac.n >= 20, seed
        for rule in RULES:
            runs.check(ac, rule, ("sparse", seed, rule))
    # d = 9, near the benchmark's d = 10: every engine's scans have to
    # advance, and every table-update branch of the broken-triangle
    # table has to fire, in each rule's own run
    branches = {"exists-snake": {"advance"}, "de-snake": {"advance"},
                "triangle": {"advance"}, "aebtp": {"advance", "deg-zero"},
                "bt-degree": {"advance", "deg-one", "deg-zero"}}
    fired = {rule: set() for rule in branches}
    recorder = EngineRecorder(monkeypatch)
    for seed, n in enumerate((14, 16, 18, 20)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 9, 2.5 / n, 0.3, seed)))
        assert ok, seed
        ac, _ = eliminate_singletons(ac)
        for rule in branches:
            recorder.clear()
            runs.check(ac, rule, ("d=9", seed, rule))
            fired[rule] |= {label for label, _ in recorder.branch_fires}
    for rule in branches:
        assert branches[rule] <= fired[rule], rule
    runs.assert_restarts_exercised()


def d9_and_dense_cases():
    """The d = 9 sparse cases after AC, then the n = 7 dense seeds (None
    where AC wipes out)."""
    cases = []
    for seed, n in enumerate((14, 16, 18, 20)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 9, 2.5 / n, 0.3, seed)))
        assert ok, seed
        cases.append(ac)
    return cases + [ac_instance(seed, n=7, d=4, p1=0.7, p2=0.3)
                    for seed in range(20)]


def run_checking_every_step(monkeypatch, rule, cases, check,
                            ns=False) -> int:
    """Run `rule`'s engine on each case, every other one after singleton
    removal, calling check(engine) after initialisation and after each
    elimination's `propagate`, once the variable is gone (with `ns`,
    before its NS pass).  Returns the number of runs."""
    cls = ENGINES[rule]
    initialise, propagate = cls.initialise, cls.propagate

    def initialise_then_check(self):
        initialise(self)
        check(self)

    def propagate_then_check(self, var, neighbors):
        propagate(self, var, neighbors)
        check(self)

    monkeypatch.setattr(cls, "initialise", initialise_then_check)
    monkeypatch.setattr(cls, "propagate", propagate_then_check)
    runs = 0
    for k, ac in enumerate(cases):
        if ac is None:
            continue
        if k % 2:
            ac, _ = eliminate_singletons(ac)
        run_engine(ac, rule, ns=ns)
        runs += 1
    return runs


@pytest.mark.parametrize("rule", RULES)
def test_extension_engine_tables_exact_for_every_variable(monkeypatch, rule):
    """For every live x_i, not only the smallest one the queue consults,
    one of x_i's scans has run out exactly when the rule's checker
    accepts it: after initialisation and after each elimination, as the
    instance stands once the variable is gone.  For triangle that scan
    is keyed by a live justifier, or x_i is universal and needs none.
    This shows that `propagate` resumes every scan an elimination can
    move."""
    compared = [0]

    def compare(engine):
        inst = engine.inst
        if inst.n < MIN_LIVE[rule]:
            return
        for i in inst.variables:
            # triangle keys its scans by justifier, the others by value
            # or by x_i itself
            certified = (i in getattr(engine, "universal", ())
                         or any(w is None and (rule != "triangle"
                                               or key in inst.live)
                                for key, w in engine.scans[i].items()))
            assert certified == (checker_accepts(inst, rule, i)
                                 is not None), i
            compared[0] += 1

    cases = d9_and_dense_cases()
    if rule != "bt-degree":
        # bt-degree's checker is too slow for thousands more comparisons
        cases += [ac for label, ac in structured_ac_instances()
                  if label[2] == 20]
    runs = run_checking_every_step(monkeypatch, rule, cases, compare)
    assert runs >= 15, runs
    assert compared[0] > (500 if rule == "bt-degree" else 5000), compared[0]


def scratch_entry(inst, m, i, v_i, out_of_row):
    """The broken-triangle entry of (x_i, v_i) at x_m from the definition:
    per apex u (only those in r_i unless `out_of_row`), the neighbours x_j
    of x_m with a v_j compatible with v_i that completes a broken
    triangle with u, and the masks of the apexes with more than one such
    x_j (`many`) and none (`zero`)."""
    r_i = inst.row(i, m, v_i)
    sets = {}
    for u in inst.dom(m):
        inside = (r_i >> u) & 1
        if not (inside or out_of_row):
            continue
        sets[u] = set()
        for j in inst.neighbors(m):
            for v_j in iter_bits(inst.row(i, j, v_i)) if j != i else ():
                r_j = inst.row(j, m, v_j)
                if inside:  # v_j forbids u and allows a u' v_i forbids
                    broken = not (r_j >> u) & 1 and r_j & ~r_i
                else:  # v_j allows u and forbids a u' v_i allows
                    broken = (r_j >> u) & 1 and r_i & ~r_j
                if broken:
                    sets[u].add(j)
    many = sum(1 << u for u, s in sets.items() if len(s) > 1)
    zero = sum(1 << u for u, s in sets.items() if not s)
    return sets, many, zero


@pytest.mark.parametrize("rule", ["aebtp", "bt-degree"])
def test_lazy_broken_triangle_entries_are_exact(monkeypatch, rule):
    """After initialisation and after each elimination, every entry built
    so far at every live x_m, however late and however many eliminations
    `propagate` has applied to it since, equals the entry built from
    scratch on the instance as it stands: its sets, `many` and `zero`."""
    compared = [0]

    def compare(engine):
        inst = engine.inst
        for m in inst.variables:
            st = engine.st[m]
            assert all(key[0] in inst.live for key in st["btv"]), m
            for (i, v_i), zero in st["zero"].items():
                if i not in inst.live:
                    continue
                sets, many, want = scratch_entry(inst, m, i, v_i,
                                                 engine.out_of_row)
                assert zero == want, (m, i, v_i)
                if engine.out_of_row:
                    assert st["many"][(i, v_i)] == many, (m, i, v_i)
                for u, s in sets.items():
                    assert st["btv"].get((i, v_i, u), set()) == s, \
                        (m, i, v_i, u)
                compared[0] += 1
            assert all(s and (key[0], key[1]) in st["zero"]
                       for key, s in st["btv"].items()), m

    runs = run_checking_every_step(monkeypatch, rule, d9_and_dense_cases(),
                                   compare)
    assert runs >= 15, runs
    assert compared[0] > 1000, compared[0]


# per extension rule: the module and name of its failing-item predicate
PREDICATES = {"bt-degree": (bt_degree_engine, "_fails"),
              "aebtp": (aebtp_engine, "_unsupported")}


@pytest.mark.parametrize("rule", ["aebtp", "bt-degree"])
def test_bt_degree_scan_stops_at_the_first_failing_pair(monkeypatch, rule):
    """One failing item per variable (a base pair for bt-degree, a
    neighbour assignment for aebtp) keeps it off the queue, so the
    failing-item predicate is not evaluated on every item."""
    module, predicate = PREDICATES[rule]
    calls = [0]
    fails = getattr(module, predicate)

    def counted(*args):
        calls[0] += 1
        return fails(*args)

    monkeypatch.setattr(module, predicate, counted)
    ac, _, ok = enforce_ac(
        random_instance(GeneratorConfig(40, 10, 0.25, 0.35, 7)))
    assert ok
    run_engine(ac, rule)
    assert calls[0] <= 4 * ac.n, calls[0]


@pytest.mark.parametrize("rule", ["aebtp", "bt-degree"])
def test_broken_triangle_entries_are_built_on_first_read(monkeypatch, rule):
    """Scans stop at their first failing item, so they read few entries
    of the broken-triangle table, and only those are built: the eager
    table on this instance has 3,880."""
    module = PREDICATES[rule][0]
    built = [0]
    zero_mask = module.zero_mask

    def counted(inst, st, nbrs, i, v_i, out_of_row):
        built[0] += (i, v_i) not in st["zero"]
        return zero_mask(inst, st, nbrs, i, v_i, out_of_row)

    monkeypatch.setattr(module, "zero_mask", counted)
    ac, _, ok = enforce_ac(
        random_instance(GeneratorConfig(40, 10, 0.25, 0.35, 7)))
    assert ok
    run_engine(ac, rule)
    assert 0 < built[0] <= 4 * ac.n, built[0]


def scratch_dominance(inst, j, k, v) -> int:
    """nd_k(v) at x_j from the definition: the values v' of x_j whose row
    toward x_k lacks a value that v's row has."""
    return sum(1 << vp for vp in inst.dom(j)
               if inst.row(j, k, v) & ~inst.row(j, k, vp))


@pytest.mark.parametrize("rule", ["exists-snake", "de-snake"])
def test_lazy_snake_loss_masks_are_exact(monkeypatch, rule):
    """After initialisation and after each elimination, every dominance
    mask built so far at a live x_j toward a live x_k, however late,
    equals the one built from scratch on the instance as it stands;
    masks toward gone neighbours are never read again."""
    compared = [0]

    def compare(engine):
        inst, live = engine.inst, engine.inst.live
        nbrs, nd = engine.tables
        for (j, v), masks in nd.items():
            assert len(masks) <= len(nbrs[j]), (j, v)
            if j not in live:
                continue
            for k, mask in zip(nbrs[j], masks):
                if k in live:
                    assert mask == scratch_dominance(inst, j, k, v), (j, v, k)
                    compared[0] += 1

    runs = run_checking_every_step(monkeypatch, rule, d9_and_dense_cases(),
                                   compare)
    assert runs >= 15, runs
    assert compared[0] > 1000, compared[0]


@pytest.mark.parametrize("rule, share", [("exists-snake", 10),
                                         ("de-snake", 4)])
def test_snake_loss_masks_are_built_on_first_read(rule, share):
    """Scans stop at their first failing item, and a read stops at the
    first neighbour that settles it, so only a few dominance masks are
    built: at most 1/share of the eager table, one mask per value of
    each variable and neighbour."""
    ac, _, ok = enforce_ac(
        random_instance(GeneratorConfig(40, 10, 0.25, 0.35, 7)))
    assert ok
    eager = sum(ac.dom_size(j) * len(ac.neighbors(j)) for j in ac.variables)
    engine = ENGINES[rule](ac.copy())
    engine.run()
    built = sum(len(masks) for masks in engine.tables[1].values())
    assert eager == 3880 and 0 < built <= eager // share, built


# The loss-mask scans the dominance masks replaced, kept as the
# reference: one mask over variable index per ordered value pair
# (v, v') of x_j, the neighbours x_k of x_j where v has a compatible
# value that v' lacks.

def reference_loss_mask(inst, vpm: dict, j: int, v: int, vp: int) -> int:
    if j not in vpm:
        nbrs = inst.neighbors(j)
        vpm[j] = (nbrs, {u: [inst.row(j, k, u) for k in nbrs]
                         for u in inst.dom(j)}, {})
    nbrs, rows, masks = vpm[j]
    if (v, vp) not in masks:
        masks[(v, vp)] = sum(1 << k for k, a, b in
                             zip(nbrs, rows[v], rows[vp]) if a & ~b)
    return masks[(v, vp)]


def reference_bad(inst, vpm: dict, i: int, j: int, v: int, vp: int) -> bool:
    """Does (v, vp) of x_j lose support at a live x_k other than x_i?"""
    return any(k != i and k in inst.live
               for k in iter_bits(reference_loss_mask(inst, vpm, j, v, vp)))


def reference_bad_pairs(inst, vpm: dict, i: int, v_i: int):
    for j in inst.neighbors(i):
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            for vp_j in iter_bits(row):
                while (j in inst.live
                       and reference_bad(inst, vpm, i, j, v_j, vp_j)):
                    yield j, v_j, vp_j


def reference_replacement(inst, vpm: dict, i: int, j: int, v_j: int,
                          row: int):
    return next((vp_j for vp_j in iter_bits(row)
                 if not reference_bad(inst, vpm, i, j, v_j, vp_j)), None)


def reference_unreplaced(inst, vpm: dict, i: int, v_i: int):
    for j in inst.neighbors(i):
        row = inst.row(i, j, v_i)
        for v_j in iter_bits(inst.dom_mask(j) & ~row):
            while j in inst.live and reference_replacement(
                    inst, vpm, i, j, v_j, row) is None:
                yield j, v_j


REFERENCE_SCANS = {"exists-snake": reference_bad_pairs,
                   "de-snake": reference_unreplaced}


def recorded_scan(log: list, key, scan):
    """`scan`, appending (key, item) to `log` for every item it yields."""
    for item in scan:
        log.append((key, item))
        yield item


def recorded_snake_run(rule, ac, ns, reference):
    """(reduced instance, entries, every scan item in the order yielded)
    of `rule`'s engine on a copy of `ac`, with the dominance-mask scans
    or, if `reference`, the loss-mask ones."""
    log = []
    base = ENGINES[rule]

    class Recorded(base):
        def initialise(self):
            scan = base.scan
            if reference:
                vpm = self.vars_plus_minus = {}

                def scan(inst, tables, i, v_i):
                    return REFERENCE_SCANS[rule](inst, vpm, i, v_i)
            self.scan = lambda inst, tables, i, v_i: recorded_scan(
                log, (i, v_i), scan(inst, tables, i, v_i))
            super().initialise()

        def witness(self, i):
            if not reference or rule == "exists-snake":
                return super().witness(i)
            inst, v_i = self.inst, self._free_value(i)
            u_map = {}
            for j in inst.neighbors(i):
                row = inst.row(i, j, v_i)
                for v_j in iter_bits(inst.dom_mask(j) & ~row):
                    u_map[(j, v_j)] = reference_replacement(
                        inst, self.vars_plus_minus, i, j, v_j, row)
            return v_i, u_map

    reduced, entries = Recorded(ac.copy()).run(ns)
    return reduced, entries, log


@pytest.mark.parametrize("ns", [False, True])
@pytest.mark.parametrize("rule", ["exists-snake", "de-snake"])
def test_snake_scans_match_the_loss_mask_reference(monkeypatch, rule, ns):
    """The dominance-mask scans against the loss-mask ones they replaced.
    After initialisation and after each elimination, for every live x_i
    and value v_i: a fresh scan yields the reference's first item, and
    so does x_i's running scan unless x_i is queued; every (j, v_j)
    forbidden by v_i has the reference's replacement and, for
    exists-snake, the reference's bad v'_j.  The fresh reads go to a copy
    of the engine's tables, so they build masks toward neighbours gone
    since initialisation without moving what the engine builds.  Whole
    runs yield the same scan items in the same order, and give the same
    entries and reduced instance."""
    scan = ENGINES[rule].scan
    counts = Counter()

    def compare(engine):
        inst = engine.inst
        nbrs, nd = engine.tables
        tables = (nbrs, {key: list(masks) for key, masks in nd.items()})
        built = {key: len(masks) for key, masks in tables[1].items()}
        vpm = {}
        for i in inst.variables:
            for v_i in inst.dom(i):
                want = next(REFERENCE_SCANS[rule](inst, vpm, i, v_i), None)
                assert next(scan(inst, tables, i, v_i), None) == want
                w = engine.scans[i].get(v_i, False)
                if i not in engine._queued and w is not False:
                    assert (None if w is None else w[1]) == want, (i, v_i)
                    counts["running"] += 1
                for j in inst.neighbors(i):
                    row = inst.row(i, j, v_i)
                    for v_j in iter_bits(inst.dom_mask(j) & ~row):
                        assert snake_engine._replacement(
                            inst, tables, i, j, v_j, row) == \
                            reference_replacement(inst, vpm, i, j, v_j,
                                                  row), (i, v_i, j, v_j)
                        bad = sum(1 << vp for vp in iter_bits(row)
                                  if reference_bad(inst, vpm, i, j, v_j, vp))
                        assert row & snake_engine.dominated(
                            inst, tables, i, j, v_j, -1) == bad
                        counts["pairs"] += 1
        for key, masks in tables[1].items():
            for k in nbrs[key[0]][built.get(key, 0):len(masks)]:
                if k not in inst.live:
                    counts["gone"] += 1

    cases = d9_and_dense_cases() + [ac for label, ac in
                                    structured_ac_instances()
                                    if label[2] == 20]
    runs = run_checking_every_step(monkeypatch, rule, cases, compare, ns=ns)
    monkeypatch.undo()
    sequences = 0
    for k, ac in enumerate(cases):
        if ac is None:
            continue
        if k % 2:
            ac, _ = eliminate_singletons(ac)
        want = recorded_snake_run(rule, ac, ns, reference=True)
        assert recorded_snake_run(rule, ac, ns, reference=False) == want, k
        sequences += len(want[2])
    assert runs >= 40, runs
    assert counts["running"] > 5000 and counts["pairs"] > 30000, counts
    assert counts["gone"] > 1000 and sequences > 1000, (counts, sequences)


@pytest.mark.parametrize("rule", ["aebtp", "bt-degree"])
def test_engine_certification_rejects_uncertified_candidates(
        monkeypatch, rule):
    """Every variable queued regardless of the tables: the extension
    engines' witness is certificate-free, so only the module's witness
    certification can catch an elimination the rule does not allow, and
    it must catch some."""
    cls = ENGINES[rule]
    initialise = cls.initialise

    def push_everything(self):
        initialise(self)
        for i in self.inst.variables:
            self.push(i)

    monkeypatch.setattr(cls, "initialise", push_everything)
    rejected = 0
    for seed in range(60):
        ac = ac_instance(seed, n=6, d=3, p2=0.45)
        if ac is None:
            continue
        try:
            run_engine(ac, rule)
        except AssertionError as exc:
            assert "checker disagrees" in str(exc), (rule, seed)
            rejected += 1
    assert rejected >= 5, rule


def structured_ac_instances():
    """(label, arc-consistent instance) over the structured families at
    n = 20-40, d = 3 and 4; instances that wipe out under AC are left out."""
    for seed in range(4):
        for n in (20, 30, 40):
            for d in (3, 4):
                for family, inst in structured_families(seed, n, d).items():
                    ac, _, ok = enforce_ac(inst)
                    if ok:
                        yield (family, seed, n, d), ac


@pytest.mark.parametrize("ns", [False, True])
def test_triangle_engine_matches_reference_on_structured_families(ns):
    """For every rule, entries (variable, witness, snapshot, NS
    deletions) and the reduced instance equal the naive fixpoint's on
    every structured family.  bt-degree's naive rescan is the slowest by
    far, so it runs at n <= 30 only."""
    runs = NSRuns(ns)
    for rule in RULES:
        eliminated = {}
        for label, ac in structured_ac_instances():
            if rule == "bt-degree" and label[2] > 30:
                continue
            eng_entries = runs.check(ac, rule, (rule, label))
            eliminated[label[0]] = (eliminated.get(label[0], 0)
                                    + len(eng_entries))
        assert set(eliminated) == set(structured_families(0, 20)), rule
        assert all(count >= 10 for count in eliminated.values()), \
            (rule, eliminated)
    runs.assert_restarts_exercised()


def test_ns_reduces_one_copy_of_the_input_in_place(monkeypatch):
    """With `ns`, `run_engine` copies its input once and every rule's
    engine reduces that copy: NS deletes values after several
    eliminations, each pass restarting the engine, and `engine.inst` is
    the copy at every initialisation and every `propagate`."""
    ac, _, ok = enforce_ac(structured_families(0, 30, 4)["sparse"])
    assert ok
    copies, seen = [], []
    copy = Instance.copy

    def recorded_copy(inst):
        copies.append(copy(inst))
        return copies[-1]

    def recorded(method):
        def wrapper(engine, *args):
            seen.append(engine.inst)
            return method(engine, *args)
        return wrapper

    monkeypatch.setattr(Instance, "copy", recorded_copy)
    for cls in ENGINES.values():
        for name in ("initialise", "propagate"):
            monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
    for rule in RULES:
        copies.clear()
        seen.clear()
        reduced, entries = run_engine(ac, rule, ns=True)
        assert len(copies) == 1, (rule, len(copies))
        assert sum(1 for e in entries if e.deletions) >= 2, rule
        assert reduced is copies[0], rule
        assert len(seen) > len(entries), rule
        assert all(inst is reduced for inst in seen), rule


# sha256 prefixes of each rule's eliminations and queue insertions over
# the 500 battery instances and the structured families
RUN_DIGESTS = {
    "exists-snake": "a82ff294aadca722",
    "de-snake": "5bdef111b05675b4",
    "triangle": "85183bdaddb20936",
    "bt-degree": "7bdb6805b632c439",
    "aebtp": "aa0e946ea29f4f2f",
}


@pytest.mark.parametrize("rule", RULES)
def test_engine_runs_match_pinned_digest(monkeypatch, rule):
    """Per run, the elimination sequence and, between consecutive
    eliminations, the multiset of queue insertions (var, phase) hash to
    the pinned digest; only the order of insertions within one
    `propagate` is free."""
    recorder = EngineRecorder(monkeypatch)
    cuts = []
    cls = ENGINES[rule]
    propagate = cls.propagate

    def propagate_and_cut(engine, var, neighbors):
        propagate(engine, var, neighbors)
        cuts.append((var, len(recorder.insertions)))

    monkeypatch.setattr(cls, "propagate", propagate_and_cut)
    digest = hashlib.sha256()
    runs = 0
    cases = [ac for _, ac in battery_ac_instances(500, seed=0)]
    cases += [ac for _, ac in structured_ac_instances()]
    for ac in cases:
        recorder.clear()
        cuts.clear()
        run_engine(ac, rule)
        insertions = recorder.insertions
        start = 0
        segments = []
        for _, end in cuts + [(None, len(insertions))]:
            segments.append(sorted(insertions[start:end]))
            start = end
        digest.update(repr(([i for i, _ in cuts], segments)).encode())
        runs += 1
    assert runs > 600
    assert digest.hexdigest()[:16] == RUN_DIGESTS[rule], digest.hexdigest()


def test_triangle_candidates_contain_every_justifier(monkeypatch):
    """After initialisation and after each elimination, for every live
    x_i: every live x_j that justifies x_i is among its structural
    candidates; a started scan that ran out, with its x_j live, names a
    justifier; the started scans hold a live justifier exactly when x_i
    has one, and the smallest of them is x_i's smallest justifier; and
    an x_i that is not queued has no justifier.  x_i is queued only
    while a started scan holds a live justifier or once it is universal.
    A universal x_i is queued, and every other live x_j justifies it."""
    engines = []
    compared = [0]

    def compare():
        engine = engines[-1]
        inst = engine.inst
        for i in inst.variables:
            found = [j for j in inst.variables
                     if j != i and justifies(inst, j, i) is not None]
            if i in engine.universal:
                assert found == [j for j in inst.variables if j != i], i
                assert i in engine._queued, i
                compared[0] += len(found)
                continue
            started = engine._justifiers(i)
            assert set(found) <= set(_candidates(inst, i,
                                                 _losses(inst, i))), i
            assert set(started) <= set(found), (i, started, found)
            assert bool(started) == bool(found), (i, found)
            if started:
                assert min(started) == found[0], (i, started, found)
            if i not in engine._queued:
                assert not found, (i, found)
            compared[0] += len(found)

    initialise = TriangleEngine.initialise
    propagate = TriangleEngine.propagate
    push = TriangleEngine.push

    def push_justified(self, i):
        assert i in self.universal or self._justifiers(i), i
        push(self, i)

    def initialise_then_compare(self):
        initialise(self)
        engines.append(self)
        compare()

    def propagate_then_compare(self, var, neighbors):
        propagate(self, var, neighbors)
        compare()

    monkeypatch.setattr(TriangleEngine, "initialise", initialise_then_compare)
    monkeypatch.setattr(TriangleEngine, "propagate", propagate_then_compare)
    monkeypatch.setattr(TriangleEngine, "push", push_justified)
    runs = 0
    for _, ac in battery_ac_instances(500, seed=0):
        run_engine(ac, "triangle")
        runs += 1
    for _, ac in structured_ac_instances():
        run_engine(ac, "triangle")
        runs += 1
    assert runs > 600 and compared[0] > 100000, (runs, compared[0])


def planted_tree_ac(seed: int):
    """`bench/gen.py`'s planted sparse family as a tree (no chords) at
    n = 80, after AC and singleton removal."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    text, _ = gen.planted_sparse("tree/%d" % seed, 80, 4, 0, 0.3, 0.25)
    ac, _, ok = enforce_ac(parse_instance(text))
    assert ok
    return eliminate_singletons(ac)[0]


def test_triangle_universal_variables_are_queued_once(monkeypatch):
    """On planted trees most variables become universal.  The engine's
    trace is the naive fixpoint's, each universal witness is the
    checker's, and a universal x_i never reaches `_candidates` again."""
    engines = []
    initialise, witness = TriangleEngine.initialise, TriangleEngine.witness
    candidates = triangle_engine._candidates
    checked = [0]

    def initialise_recorded(self):
        engines.append(self)
        initialise(self)

    def candidates_checked(inst, i, lose):
        assert i not in engines[-1].universal, i
        return candidates(inst, i, lose)

    def witness_checked(self, i):
        got = witness(self, i)
        if i in self.universal:
            assert got == check_triangle(self.inst, i), i
            checked[0] += 1
        return got

    monkeypatch.setattr(TriangleEngine, "initialise", initialise_recorded)
    monkeypatch.setattr(TriangleEngine, "witness", witness_checked)
    monkeypatch.setattr(triangle_engine, "_candidates", candidates_checked)
    for seed in range(3):
        ac = planted_tree_ac(seed)
        assert run_engine(ac, "triangle") == naive_fixpoint(ac, "triangle")
        assert len(engines[-1].universal) > ac.n // 2, seed
    assert checked[0] > 100, checked[0]


def test_triangle_engine_scales_to_a_thousand_variables():
    """n = 1000, d = 10, e about 3000: every elimination's witness is
    certified by the checker, and the candidate pairs stay a few per
    variable instead of all n^2."""
    n = 1000
    ac, _, ok = enforce_ac(random_instance(
        GeneratorConfig(n, 10, 3000 / (n * (n - 1) / 2), 0.35, seed=7)))
    assert ok and 2800 <= ac.e <= 3200, ac.e
    engine = TriangleEngine(ac.copy())
    reduced, entries = engine.run()
    assert entries and reduced.n == n - len(entries)
    assert sum(map(len, engine.scans.values())) < 10 * n


def test_triangle_scans_stop_at_the_first_justifier():
    """A third of this sparse instance's constraints have full rows, so
    many variables have a value with only full rows there: those are
    universal and start no scans.  Started in index order up to the
    first justifier, the scans `initialise` starts stay linear in n; one
    per candidate pair would be quadratic."""
    ac, _, ok = enforce_ac(structured_families(0, 400, 4)["sparse"])
    assert ok and ac.n == 400
    engine = TriangleEngine(ac)
    engine._start()
    assert sum(map(len, engine.scans.values())) < 4 * ac.n


def test_stronger_rules_eliminate_supersets():
    """On arc-consistent input de-snake eliminates every variable that
    exists-snake does, and bt-degree every variable that aebtp does:
    over the structured families at n = 20, 40 and 80 and over uniform
    random instances at n = 20-59.  bt-degree stops at two live
    variables, so its inclusion is asserted only when it ends above."""
    cases = [inst for seed in range(6) for n in (20, 40, 80)
             for inst in structured_families(seed, n).values()]
    cases += [random_instance(GeneratorConfig(n, 4, 3.0 / n, 0.3, seed))
              for seed, n in enumerate(range(20, 60))]
    compared = 0
    for k, inst in enumerate(cases):
        ac, _, ok = enforce_ac(inst)
        if not ok:
            continue
        runs = {rule: run_engine(ac, rule) for rule in
                ("exists-snake", "de-snake", "aebtp", "bt-degree")}
        gone = {rule: {e.var for e in entries}
                for rule, (_, entries) in runs.items()}
        assert gone["exists-snake"] <= gone["de-snake"], k
        compared += 1
        if runs["bt-degree"][0].n > 2:
            assert gone["aebtp"] <= gone["bt-degree"], k
            compared += 1
    assert compared > 150, compared


@pytest.mark.parametrize("rule", RULES)
def test_finished_engine_is_freed_without_the_cycle_collector(rule):
    """Scans do not refer to their engine, so a finished engine and its
    tables go as soon as the last reference to it does, also after NS
    deletions restarted it."""
    for ns, seed in ((False, 3), (True, 1)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(12, 4, 0.3, 0.3, seed)))
        assert ok
        engine = ENGINES[rule](ac.copy())
        _, entries = engine.run(ns)
        assert any(e.deletions for e in entries) == ns, ns
        assert any(w is not None for scans in engine.scans.values()
                   for w in scans.values()), "no scan left running"
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None, ns
        finally:
            gc.enable()


def test_justifiers_are_live_at_elimination_time():
    for seed in range(60):
        ac = ac_instance(seed, n=6, d=3, p2=0.5)
        if ac is None:
            continue
        _, entries = run_engine(ac, "triangle")
        gone = set()
        for entry in entries:
            assert entry.witness[0] not in gone, seed
            gone.add(entry.var)


def test_update_branches_fire_at_most_once_per_key(monkeypatch):
    recorder = EngineRecorder(monkeypatch)
    for rule in RULES:
        seen_any = False
        for seed in range(40):
            ac = ac_instance(seed, n=6, d=3, p2=0.5)
            if ac is None:
                continue
            recorder.clear()
            run_engine(ac, rule)
            if recorder.branch_fires:
                seen_any = True
            assert all(count == 1
                       for count in recorder.branch_fires.values()), \
                (rule, seed)
        assert seen_any, rule


def test_candidates_inserted_once(monkeypatch, star):
    recorder = EngineRecorder(monkeypatch)
    run_engine(star_instance(5), "exists-snake")
    # the center is certified during initialisation and never re-queued
    phases = [phase for var, phase in recorder.insertions if var == 0]
    assert phases == ["init"]
    inserted = [var for var, _ in recorder.insertions]
    assert sorted(inserted) == sorted(set(inserted))


def test_work_scales_with_declared_size(monkeypatch):
    """Branch firings stay within the table sizes, each key hit once:
    scan advances, roughly e*d^2 watched items for the snake rules and
    n^2*d (rows (j, v_j, i)) for triangle, and the table updates and
    advances, n*e*d^2, for the extension rules."""
    budgets = {
        "exists-snake": lambda n, e, d: e * d * d,
        "de-snake": lambda n, e, d: e * d * d,
        "triangle": lambda n, e, d: n * n * d,
        "bt-degree": lambda n, e, d: n * e * d * d,
        "aebtp": lambda n, e, d: n * e * d * d,
    }
    recorder = EngineRecorder(monkeypatch)
    checked = 0
    for seed in range(1, 100):
        ac = ac_instance(seed, n=12, d=3, p1=0.4, p2=0.4)
        if ac is None:
            continue
        checked += 1
        n, e, d = ac.n, ac.e, ac.max_dom_size()
        for rule in RULES:
            recorder.clear()
            run_engine(ac, rule)
            fired = sum(recorder.branch_fires.values())
            assert fired <= 4 * budgets[rule](n, e, d), (rule, seed, fired)
    # most seeds wipe out under AC at this density
    assert checked >= 10, checked


def test_empty_and_tiny_instances():
    empty = Instance.build([])
    for rule in RULES:
        reduced, entries = run_engine(empty, rule)
        assert reduced.n == 0 and entries == []
    lone = Instance.build([[0, 1]])
    for rule in ("triangle", "aebtp", "bt-degree"):
        reduced, entries = run_engine(lone, rule)
        assert reduced.n == 1 and entries == []
    reduced, entries = run_engine(lone, "de-snake")
    assert reduced.n == 0 and [e.var for e in entries] == [0]
