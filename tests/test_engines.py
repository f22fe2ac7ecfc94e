"""Incremental engines against the reference fixpoint, audit invariants,
and the work-bound bookkeeping."""

import pytest

import cspelim.engines.aebtp as aebtp_engine
import cspelim.engines.base as engine_base
import cspelim.engines.bt_degree as bt_degree_engine
from cspelim import (ENGINES, MIN_LIVE, GeneratorConfig, Instance,
                     NotArcConsistentError, RULES, check_aebtp,
                     check_bt_degree_property, check_engine_precondition,
                     eliminate_singletons, enforce_ac, naive_fixpoint,
                     random_instance, run_engine)
from cspelim.engines import EngineAudit
from conftest import random_tree_instance, small_random, star_instance


def ac_instance(seed, **kw):
    inst = small_random(seed, **kw)
    ac, _, ok = enforce_ac(inst)
    return ac if ok else None


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
    with pytest.raises(AssertionError, match="support deletion"):
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


def test_engines_match_reference_fixpoint():
    checked = 0
    for seed in range(150):
        ac = ac_instance(seed, n=6, d=3, p2=0.45)
        if ac is None:
            continue
        checked += 1
        for rule in RULES:
            ref_inst, ref_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule)
            assert eng_inst == ref_inst, (seed, rule)
            assert eng_entries == ref_entries, (seed, rule)
    assert checked > 100


def test_engines_match_reference_on_denser_instances():
    for seed in range(40):
        ac = ac_instance(seed, n=7, d=4, p1=0.7, p2=0.3)
        if ac is None:
            continue
        for rule in RULES:
            ref_inst, ref_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule)
            assert eng_inst == ref_inst, (seed, rule)
            assert eng_entries == ref_entries, (seed, rule)
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
            ref_inst, ref_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule)
            assert eng_inst == ref_inst, ("tree", seed, rule)
            assert eng_entries == ref_entries, ("tree", seed, rule)
    assert checked >= 3
    # sparse instances at n=20-30, every rule
    for seed, n in enumerate((20, 22, 24, 26, 28, 30)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 4, 2.5 / n, 0.25, seed)))
        assert ok, seed
        ac, _ = eliminate_singletons(ac)
        assert ac.n >= 20, seed
        for rule in RULES:
            ref_inst, ref_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule)
            assert eng_inst == ref_inst, ("sparse", seed, rule)
            assert eng_entries == ref_entries, ("sparse", seed, rule)
    # d = 9, near the benchmark's d = 10: every table-update branch of
    # the three value-pair engines has to fire, in each rule's own run
    branches = {"triangle": {"row-supported"}, "aebtp": {"deg-zero"},
                "bt-degree": {"deg-one", "deg-zero"}}
    audits = {rule: EngineAudit() for rule in branches}
    for seed, n in enumerate((14, 16, 18, 20)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 9, 2.5 / n, 0.3, seed)))
        assert ok, seed
        ac, _ = eliminate_singletons(ac)
        for rule, audit in audits.items():
            ref_inst, ref_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule, audit)
            assert eng_inst == ref_inst, ("d=9", seed, rule)
            assert eng_entries == ref_entries, ("d=9", seed, rule)
    for rule, audit in audits.items():
        fired = {label for label, _ in audit.branch_fires}
        assert branches[rule] <= fired, rule


CHECKERS = {"bt-degree": check_bt_degree_property, "aebtp": check_aebtp}


@pytest.mark.parametrize("rule", ["aebtp", "bt-degree"])
def test_extension_engine_tables_exact_for_every_variable(monkeypatch, rule):
    """For every live x_m, not only the smallest one the queue consults,
    the tables certify x_m exactly when the rule's checker accepts it:
    after initialisation and after each elimination, as the instance
    stands once the variable is gone."""
    check = CHECKERS[rule]
    engines = []
    compared = [0]

    def compare():
        engine = engines[-1]
        if engine.inst.n < MIN_LIVE[rule]:
            return
        for m in engine.inst.variables:
            certified = engine.st[m]["watch"] is None
            assert certified == bool(check(engine.inst, m)), m
            compared[0] += 1

    cls = ENGINES[rule]
    initialise = cls.initialise
    eliminate = engine_base.eliminate_variable

    def initialise_then_compare(self):
        initialise(self)
        engines.append(self)
        compare()

    def eliminate_then_compare(inst, i):
        result = eliminate(inst, i)
        compare()
        return result

    monkeypatch.setattr(cls, "initialise", initialise_then_compare)
    monkeypatch.setattr(engine_base, "eliminate_variable",
                        eliminate_then_compare)
    cases = []
    for seed, n in enumerate((14, 16, 18, 20)):
        ac, _, ok = enforce_ac(
            random_instance(GeneratorConfig(n, 9, 2.5 / n, 0.3, seed)))
        assert ok, seed
        cases.append(ac)
    cases += [ac_instance(seed, n=7, d=4, p1=0.7, p2=0.3)
              for seed in range(20)]
    runs = 0
    for k, ac in enumerate(cases):
        if ac is None:
            continue
        if k % 2:
            ac, _ = eliminate_singletons(ac)
        run_engine(ac, rule)
        runs += 1
    assert runs >= 15 and compared[0] > 500, (runs, compared[0])


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
def test_engine_certification_rejects_uncertified_candidates(
        monkeypatch, rule):
    """Every variable queued regardless of the tables: the run-time
    certification must catch some elimination the rule does not allow."""
    cls = ENGINES[rule]
    initialise = cls.initialise

    def push_everything(self):
        initialise(self)
        for i in self.inst.variables:
            self.push(i, "forced")

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


def test_justifiers_are_live_at_elimination_time():
    for seed in range(60):
        ac = ac_instance(seed, n=6, d=3, p2=0.5)
        if ac is None:
            continue
        _, entries = run_engine(ac, "triangle")
        gone = set()
        for entry in entries:
            assert entry.witness.justifier not in gone, seed
            gone.add(entry.var)


def test_update_branches_fire_at_most_once_per_key():
    for rule in RULES:
        seen_any = False
        for seed in range(40):
            ac = ac_instance(seed, n=6, d=3, p2=0.5)
            if ac is None:
                continue
            audit = EngineAudit()
            run_engine(ac, rule, audit=audit)
            if audit.branch_fires:
                seen_any = True
            assert all(count == 1 for count in audit.branch_fires.values()), \
                (rule, seed)
        assert seen_any, rule


def test_candidates_inserted_once(star):
    audit = EngineAudit()
    run_engine(star_instance(5), "exists-snake", audit=audit)
    # the center is certified during initialisation and never re-queued
    phases = [phase for var, phase in audit.insertions if var == 0]
    assert phases == ["init"]
    inserted = [var for var, _ in audit.insertions]
    assert sorted(inserted) == sorted(set(inserted))


def test_work_scales_with_declared_size():
    """Branch firings stay within the table sizes: roughly e*d^2 keys
    for the snake rules and n*e*d^2 for the rest, each hit once."""
    budgets = {
        "exists-snake": lambda n, e, d: e * d * d,
        "de-snake": lambda n, e, d: e * d * d,
        "triangle": lambda n, e, d: n * e * d * d,
        "bt-degree": lambda n, e, d: n * e * d * d,
        "aebtp": lambda n, e, d: n * e * d * d,
    }
    for seed in (1, 2, 3):
        ac = ac_instance(seed, n=12, d=3, p1=0.4, p2=0.4)
        if ac is None:
            continue
        n, e, d = ac.n, ac.e, ac.max_dom_size()
        for rule in RULES:
            audit = EngineAudit()
            run_engine(ac, rule, audit=audit)
            fired = sum(audit.branch_fires.values())
            assert fired <= 4 * budgets[rule](n, e, d), (rule, seed, fired)


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
