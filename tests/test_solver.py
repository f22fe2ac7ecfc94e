"""MAC search, restarts, reconstruction, and the end-to-end pipeline."""

import dataclasses
import hashlib
import math
import time
import tracemalloc
from collections import Counter

import pytest

import cspelim.engines
from cspelim import (GeneratorConfig, Instance, ReconstructionError,
                     SearchConfig, TimeBudgetExceeded, brute_force_solve,
                     enforce_ac, is_solution, mac_solve, naive_fixpoint,
                     random_instance, reconstruct_solution, solver,
                     solve_with_preprocessing)
from cspelim.solver import preprocess
from conftest import (clique_instance, disjoint_union, random_tree_instance,
                      small_random, star_instance)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(initial_backtracks=0)
    with pytest.raises(ValueError):
        SearchConfig(restart_factor=0.99)
    cfg = SearchConfig()
    assert cfg.initial_backtracks == 100 and cfg.restart_factor == 1.1


def test_search_config_rejects_nan_restart_factor():
    # NaN compares false with everything, so `< 1.0` let it through and
    # the second restart failed converting the budget to an int
    with pytest.raises(ValueError, match="restart_factor"):
        SearchConfig(restart_factor=math.nan)


def test_search_config_rejects_infinite_restart_factor():
    with pytest.raises(ValueError, match="restart_factor"):
        SearchConfig(restart_factor=math.inf)


def test_search_config_rejects_nan_time_limit():
    with pytest.raises(ValueError, match="time_limit"):
        SearchConfig(time_limit=math.nan)


def test_search_config_rejects_negative_time_limit():
    with pytest.raises(ValueError, match="time_limit"):
        SearchConfig(time_limit=-1.0)
    assert SearchConfig(time_limit=0.0).time_limit == 0.0


def test_mac_agrees_with_brute_force():
    sat = unsat = 0
    cases = [small_random(seed, n=6, d=3, p2=0.55) for seed in range(80)]
    cases += [random_tree_instance(7, 2 + seed % 2, seed) for seed in range(12)]
    cases += [disjoint_union(small_random(seed, n=4, d=3, p2=0.55),
                             small_random(seed + 1, n=4, d=3, p2=0.55))
              for seed in range(12)]
    for case, inst in enumerate(cases):
        expected = brute_force_solve(inst)
        got = mac_solve(inst)
        assert (got is None) == (expected is None), case
        if got is None:
            unsat += 1
        else:
            assert is_solution(inst, got), case
            sat += 1
    assert sat > 10 and unsat > 10  # exercised both verdicts


def test_mac_solves_chain_longer_than_recursion_limit():
    # one stack frame per assigned variable would overflow at ~1,000, and
    # a copy of every domain per search node would need n**2 / 2 masks,
    # about 170 MB here
    n = 2400
    neq = [(a, b) for a in range(3) for b in range(3) if a != b]
    chain = Instance.build([[0, 1, 2]] * n,
                           {(i, i + 1): neq for i in range(n - 1)})
    tracemalloc.start()
    try:
        sol = mac_solve(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_solution(chain, sol)
    assert peak < 10 * 2**20, peak


def test_mac_memory_is_linear_in_constraints():
    # a star's centre has n - 1 neighbours: a requeue list per arc, of
    # the arcs to revise again when it narrows, would hold about n**2
    # records (some 200 MB here) where the records themselves hold 2e
    n = 5000
    neq = [(a, b) for a in range(3) for b in range(3) if a != b]
    star = Instance.build([[0, 1, 2]] * n, {(0, k): neq for k in range(1, n)})
    tracemalloc.start()
    try:
        sol = mac_solve(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_solution(star, sol)
    assert peak < 10 * 2**20, peak


# sha256 of every log and solution below, recorded with the copying
# search that the trail replaced
SEARCH_ORDER_DIGEST = (
    "6fa59f4931d2958747ad51472b801e80c6b6f5142a2b1d8cb0422e30cc72f195")


def test_search_order_is_pinned():
    # near the satisfiability threshold for d = 8, both verdicts, and
    # small budgets so that most unsat runs restart several times
    digest = hashlib.sha256()
    verdicts = set()
    restarted = 0
    for seed in range(16):
        inst = random_instance(GeneratorConfig(
            30 + seed % 11, 8, 0.25, (0.28, 0.37)[seed % 2], seed))
        log = []
        sol = solve_with_preprocessing(
            inst, "none", SearchConfig(initial_backtracks=10), log)
        verdicts.add(log[-1])
        restarted += sum(line.startswith("restart") for line in log) > 1
        if sol is not None:
            assert is_solution(inst, sol), seed
        digest.update(repr((seed, log, None if sol is None
                            else sorted(sol.items()))).encode())
    assert verdicts == {"verdict sat", "verdict unsat"}
    assert restarted >= 4
    assert digest.hexdigest() == SEARCH_ORDER_DIGEST


# the heap pick under test, bound before any test patches solver._Attempt
HeapAttempt = solver._Attempt


class ScanAttempt(HeapAttempt):
    """The reference dom/wdeg pick: scan the unassigned variables in
    index order for the first smallest score, skipping those with no
    weight, which come last.  It keeps no heap, so it discards the
    variables recorded for the heap's next push."""

    def _fresh_heap(self):
        return []

    def _pick(self):
        self.dropped.clear()
        free = [i for i in self.neighbors if i not in self.assigned]
        if not free:
            return None
        best, best_score = free[0], math.inf
        for i in free:
            if self.wsum[i]:
                score = self._score(i)
                if score < best_score:
                    best, best_score = i, score
        return best


def run_recorded(monkeypatch, attempt, inst, config=None):
    """mac_solve with `attempt` as the restart class: (picks, log,
    solution), the picks of every restart in order."""
    picks = []

    class Recorded(attempt):
        def _pick(self):
            x = super()._pick()
            picks.append(x)
            return x

    monkeypatch.setattr(solver, "_Attempt", Recorded)
    log = []
    sol = mac_solve(inst, config, log)
    return picks, log, sol


def isolated_variables_instance(seed: int) -> Instance:
    """A random instance with every third variable left unconstrained,
    so that several variables score infinity at once (most seeds are
    satisfiable)."""
    inst = small_random(seed, n=12, d=3, p1=0.6, p2=0.3)
    return Instance.build(
        [inst.dom(i) for i in inst.variables],
        {(i, j): [(v, w) for v in inst.dom(i) for w in inst.dom(j)
                  if inst.compatible(i, v, j, w)]
         for i, j in inst.pairs() if i % 3 and j % 3})


def test_heap_pick_matches_scan(monkeypatch):
    # near the threshold for d = 6, budgets of 1 to 3 so that restarts
    # and weight bumps reorder the picks
    cases = [(small_random(seed, n=24 + seed % 9, d=6, p1=0.3,
                           p2=(0.33, 0.4)[seed % 2]), 1 + seed % 3)
             for seed in range(24)]
    # found by a wider search: the first two need the unassigned
    # variable's own push, the last its neighbours' (a weight bumped
    # while a neighbour was assigned)
    cases += [(small_random(seed, n=n, d=d, p1=0.3, p2=p2), initial)
              for seed, n, d, p2, initial in ((14, 26, 6, 0.33, 3),
                                              (80, 29, 6, 0.33, 1),
                                              (58, 28, 5, 0.3, 1))]
    cases += [(clique_instance(n, d), 2) for n, d in ((4, 3), (5, 4), (6, 4))]
    cases += [(random_tree_instance(25, 2 + seed % 2, seed), 1)
              for seed in range(4)]
    cases += [(disjoint_union(clique_instance(4, 3),
                              small_random(seed, n=8, d=3, p2=0.5)), 2)
              for seed in range(4)]
    cases += [(isolated_variables_instance(seed), 1) for seed in range(6)]
    restarted = Counter()
    for case, (inst, initial) in enumerate(cases):
        config = SearchConfig(initial_backtracks=initial)
        heap = run_recorded(monkeypatch, HeapAttempt, inst, config)
        scan = run_recorded(monkeypatch, ScanAttempt, inst, config)
        assert heap == scan, case
        log = heap[1]
        restarted[log[-1]] += sum(line.startswith("restart")
                                  for line in log) > 1
    assert restarted["verdict sat"] >= 2 and restarted["verdict unsat"] >= 4


def test_backtrack_free_pick_computes_linear_scores(monkeypatch):
    # the scan visits every unassigned variable at every node, n*(n+1)/2
    # visits in all, and scores those with weight left: over n**2/4 here
    # (1.4 million at n = 2400, so it runs at n = 600 only).  The heap
    # scores each variable a bounded number of times.
    neq = [(a, b) for a in range(3) for b in range(3) if a != b]
    for n, attempts in ((600, (HeapAttempt, ScanAttempt)),
                        (2400, (HeapAttempt,))):
        chain = Instance.build([[0, 1, 2]] * n,
                               {(i, i + 1): neq for i in range(n - 1)})
        for attempt in attempts:
            scored = []

            class Counted(attempt):
                def _score(self, i):
                    scored.append(i)
                    return super()._score(i)

            picks, log, sol = run_recorded(monkeypatch, Counted, chain)
            assert is_solution(chain, sol)
            assert log[-2:] == ["backtracks 0", "verdict sat"]
            if attempt is ScanAttempt:
                assert len(scored) > n * n // 4
            else:
                assert len(scored) < 5 * n, (n, len(scored))


def test_backtrack_free_run_logs_single_restart(star):
    log = []
    sol = mac_solve(star(5), log=log)
    assert is_solution(star(5), sol)
    assert log == ["restart 0 100", "backtracks 0", "verdict sat"]


def test_root_wipeout_skips_search(bt_inst):
    log = []
    assert solve_with_preprocessing(bt_inst, "none", log=log) is None
    assert log == ["backtracks 0", "verdict unsat"]


def test_restart_budgets_grow_geometrically():
    # 4-clique over 3 values: refuting it costs 4 backtracks, so every
    # attempt below that budget aborts after consuming exactly its budget.
    log = []
    inst = clique_instance(4, 3)
    assert mac_solve(inst, SearchConfig(initial_backtracks=2), log) is None
    budgets = [int(line.split()[2]) for line in log if line.startswith("restart")]
    assert budgets == [2, 2, 2, 2, 2, 3, 3, 3, 4]
    assert log[-2:] == ["backtracks 23", "verdict unsat"]


def test_time_limit_raises_and_logs():
    log = []
    with pytest.raises(TimeBudgetExceeded):
        mac_solve(clique_instance(6, 5), SearchConfig(time_limit=0.0), log)
    assert log == ["restart 0 100", "backtracks 0", "verdict timeout"]


def test_time_limit_counts_preprocessing(monkeypatch):
    # the engine alone outlasts the limit, so the search gets no time
    run_engine = cspelim.engines.run_engine

    def slow_engine(inst, rule, ns=False, deadline=None):
        time.sleep(0.05)
        return run_engine(inst, rule, ns=ns)

    monkeypatch.setattr(cspelim.engines, "run_engine", slow_engine)
    log = []
    with pytest.raises(TimeBudgetExceeded):
        solve_with_preprocessing(clique_instance(6, 5), "triangle",
                                 SearchConfig(time_limit=0.01), log)
    assert log == ["restart 0 100", "backtracks 0", "verdict timeout"]


def test_deadline_stops_engine_mid_run(monkeypatch):
    # each elimination takes at least a tenth of the limit, so the
    # engine stops well before its fixpoint, and no search starts
    inst = random_tree_instance(60, 3, 1)
    eliminated = len(preprocess(inst, "de-snake")[2])
    engine = cspelim.engines.ENGINES["de-snake"]
    propagate = engine.propagate
    calls = []

    def slow_propagate(self, var, neighbors):
        calls.append(var)
        time.sleep(0.01)
        return propagate(self, var, neighbors)

    monkeypatch.setattr(engine, "propagate", slow_propagate)
    log = []
    with pytest.raises(TimeBudgetExceeded):
        solve_with_preprocessing(inst, "de-snake",
                                 SearchConfig(time_limit=0.1), log)
    assert log == ["backtracks 0", "verdict timeout"]
    assert 1 <= len(calls) < eliminated // 2, (len(calls), eliminated)


def test_deadline_stops_engine_set_up(monkeypatch):
    # each variable's set-up takes a fifth of the limit, so set-up stops
    # after a few of the 30 variables, before any elimination
    inst = Instance.build([[0, 1]] * 30)
    engine = cspelim.engines.ENGINES["triangle"]
    extend = engine._extend
    calls = []

    def slow_extend(self, i):
        calls.append(i)
        time.sleep(0.02)
        return extend(self, i)

    monkeypatch.setattr(engine, "_extend", slow_extend)
    with pytest.raises(TimeBudgetExceeded):
        cspelim.engines.run_engine(inst, "triangle",
                                   deadline=time.monotonic() + 0.1)
    assert 1 <= len(calls) < inst.n // 2, len(calls)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_replays_full_trace(star):
    original = star(5)
    for rule in ("de-snake", "exists-snake"):
        reduced, entries = naive_fixpoint(original, rule)
        assert reduced.n == 0
        sol = reconstruct_solution(original, entries, {})
        assert is_solution(original, sol)


def test_reconstruction_uses_dominating_values(star):
    original = star(5)
    reduced, entries = naive_fixpoint(original, "triangle")
    (survivor,) = reduced.variables
    for value in (0, 1):
        sol = reconstruct_solution(original, entries, {survivor: value})
        assert is_solution(original, sol)
        assert all(sol[0] != sol[leaf] for leaf in range(1, 5))


def test_reconstruction_repairs_conflicting_neighbours(star):
    # hand the replay a stale assignment that the de-snake repair map fixes
    original = star(5)
    _, entries = naive_fixpoint(original, "de-snake")
    centre = entries[0]
    assert centre.var == 0
    s = reconstruct_solution(original, [centre], {1: 0, 2: 1, 3: 0, 4: 1})
    assert is_solution(original, s)
    assert s[0] == 0 and s[1] == 1 and s[3] == 1  # conflicts repaired


def test_reconstruction_missing_neighbour(star):
    original = star(5)
    _, entries = naive_fixpoint(original, "de-snake")
    with pytest.raises(ReconstructionError):
        reconstruct_solution(original, entries[:1], {})  # leaves unassigned


def test_reconstruction_leftover_variables(star):
    with pytest.raises(ReconstructionError):
        reconstruct_solution(star(3), [], {0: 0})


def test_reconstruction_rejects_foreign_values(star):
    original = star(5)
    reduced, entries = naive_fixpoint(original, "triangle")
    (survivor,) = reduced.variables
    with pytest.raises(ReconstructionError):
        reconstruct_solution(original, entries, {survivor: 7})


def test_reconstruction_extension_guarantee():
    eq = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    reduced, entries = naive_fixpoint(eq, "aebtp")
    assert reduced.n == 1 and entries[0].var == 0
    assert reconstruct_solution(eq, entries, {1: 1}) == {0: 1, 1: 1}
    with pytest.raises(ReconstructionError):
        reconstruct_solution(eq, entries, {1: 5})


def test_reconstruction_unknown_witness(star):
    _, entries = naive_fixpoint(star(5), "de-snake")
    bogus = dataclasses.replace(entries[0], witness=None)
    with pytest.raises(ReconstructionError):
        reconstruct_solution(star(5), [bogus] + list(entries[1:]), {})


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_solves_and_reconstructs(star, bt_inst):
    for rule in (None, "none", "triangle", "de-snake", "bt-degree"):
        sol = solve_with_preprocessing(star(5), rule=rule)
        assert sol is not None and is_solution(star(5), sol), rule
    assert solve_with_preprocessing(bt_inst, rule="triangle") is None
    assert solve_with_preprocessing(clique_instance(4, 3), rule="aebtp") is None


def test_pipeline_agrees_with_brute_force():
    for seed in range(40):
        inst = small_random(seed, n=6, d=3, p2=0.5)
        expected = brute_force_solve(inst)
        for rule in ("exists-snake", "triangle", "aebtp"):
            got = solve_with_preprocessing(inst, rule=rule)
            assert (got is None) == (expected is None), (seed, rule)
            if got is not None:
                assert is_solution(inst, got), (seed, rule)


def test_pipeline_handles_singleton_only_instances():
    inst = Instance.build([[0], [0, 1]], {(0, 1): [(0, 1)]})
    sol = solve_with_preprocessing(inst, rule="triangle")
    assert sol == {0: 0, 1: 1}
