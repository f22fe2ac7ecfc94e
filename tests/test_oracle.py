"""Brute-force search, random generation, isomorphism, order search and
the verification battery."""

from dataclasses import replace

import pytest

import cspelim.engines as engines

from cspelim import (GeneratorConfig, Instance, NotArcConsistentError,
                     SizeGuardExceeded, brute_force_solve, count_solutions,
                     enforce_ac, is_solution, naive_fixpoint,
                     random_instance)
from cspelim.oracle import verify_one
from conftest import (clique_instance, small_random, star_instance)
from theory import are_isomorphic, canonical_key, max_eliminations_by_order


def test_brute_force_basics(bt_inst, star):
    assert brute_force_solve(bt_inst) is None
    assert count_solutions(bt_inst) == 0
    sol = brute_force_solve(star(5))
    assert sol is not None
    assert is_solution(star(5), sol)
    assert count_solutions(star(5)) == 2


def test_brute_force_counts_by_enumeration():
    # check the counter against per-assignment validation
    for seed in range(20):
        inst = small_random(seed, n=4, d=3, p2=0.5)
        from itertools import product
        total = 0
        ranges = [inst.dom(i) for i in inst.variables]
        for combo in product(*ranges):
            assignment = dict(zip(inst.variables, combo))
            total += is_solution(inst, assignment)
        assert count_solutions(inst) == total
        assert (brute_force_solve(inst) is not None) == (total > 0)


def test_solution_validation_rejects_bad_assignments(star):
    inst = star(3)
    assert not is_solution(inst, {0: 0})
    assert not is_solution(inst, {0: 0, 1: 0, 2: 1})
    assert not is_solution(inst, {0: 0, 1: 1, 2: 5})
    assert is_solution(inst, {0: 0, 1: 1, 2: 1})


def test_search_space_guard():
    big = Instance.build([[0, 1]] * 30)
    with pytest.raises(SizeGuardExceeded):
        brute_force_solve(big)
    with pytest.raises(SizeGuardExceeded):
        count_solutions(big)


def test_clique_colouring_counts():
    assert count_solutions(clique_instance(3, 3)) == 6
    assert brute_force_solve(clique_instance(4, 3)) is None


def test_generator_is_deterministic():
    cfg = GeneratorConfig(6, 3, 0.5, 0.4, seed=9)
    a, b = random_instance(cfg), random_instance(cfg)
    assert a == b
    assert canonical_key(a) == canonical_key(b)
    c = random_instance(GeneratorConfig(6, 3, 0.5, 0.4, seed=10))
    assert canonical_key(a) != canonical_key(c)


def test_generator_edge_probabilities():
    full = random_instance(GeneratorConfig(5, 2, 1.0, 0.0, seed=1))
    assert full.e == 10
    assert all(full.row(i, j, v) == full.dom_mask(j)
               for i, j in full.pairs() for v in full.dom(i))
    empty = random_instance(GeneratorConfig(5, 2, 0.0, 0.9, seed=1))
    assert empty.e == 0
    with pytest.raises(ValueError):
        GeneratorConfig(5, 2, 1.5, 0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(-1, 2, 0.5, 0.5)


def test_naive_fixpoint_requires_arc_consistency(bt_inst, gap_inst):
    with pytest.raises(NotArcConsistentError):
        naive_fixpoint(bt_inst, "triangle")
    with pytest.raises(NotArcConsistentError):
        naive_fixpoint(gap_inst, "bt-degree")
    ac, _, ok = enforce_ac(gap_inst)
    assert ok
    reduced, entries = naive_fixpoint(ac, "bt-degree")
    assert [e.var for e in entries]  # something is eliminated
    assert gap_inst.n == 3  # input untouched


def test_naive_fixpoint_eliminates_smallest_first(star):
    _, entries = naive_fixpoint(star_instance(4), "de-snake")
    assert [e.var for e in entries] == [0, 1, 2, 3]


def test_isomorphism_accepts_relabelings():
    for seed in range(15):
        inst = small_random(seed, n=5, d=3, p2=0.4)
        assert are_isomorphic(inst, inst.copy())
        # permute variable indices by rebuilding in reverse order
        n = inst.n
        remap = {i: n - 1 - i for i in inst.variables}
        doms = [inst.value_names(n - 1 - i) for i in range(n)]
        cons = {}
        for i, j in inst.pairs():
            a, b = remap[i], remap[j]
            pairs = [(inst.value_name(i, v), inst.value_name(j, w))
                     for v in inst.dom(i)
                     for w in range(inst.dom_size(j))
                     if (inst.row(i, j, v) >> w) & 1]
            if a < b:
                cons[(a, b)] = pairs
            else:
                cons[(b, a)] = [(y, x) for x, y in pairs]
        mirrored = Instance.build(doms, cons)
        assert are_isomorphic(inst, mirrored), seed


def test_isomorphism_rejects_structural_changes():
    a = star_instance(4)
    b = clique_instance(4, 2)
    assert not are_isomorphic(a, b)
    c = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    d = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (0, 1), (1, 1)]})
    assert not are_isomorphic(c, d)
    assert not are_isomorphic(a, c)


def test_isomorphism_ignores_value_names():
    c = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    e = Instance.build([[3, 8], [1, 2]], {(0, 1): [(3, 2), (8, 1)]})
    assert are_isomorphic(c, e)


def test_isomorphism_guard():
    with pytest.raises(SizeGuardExceeded):
        are_isomorphic(star_instance(8), star_instance(8))


def test_max_eliminations_matches_exhaustive_orders(star):
    inst = star_instance(5)
    assert max_eliminations_by_order(inst, "de-snake") == 5
    assert max_eliminations_by_order(inst, "triangle") == 4
    with pytest.raises(SizeGuardExceeded):
        max_eliminations_by_order(star_instance(8), "triangle")


def test_max_eliminations_at_least_greedy():
    for seed in range(25):
        inst = small_random(seed, n=5, d=3, p2=0.45)
        ac, _, ok = enforce_ac(inst)
        if not ok:
            continue
        for rule in ("triangle", "aebtp"):
            greedy = len(naive_fixpoint(ac, rule)[1])
            assert max_eliminations_by_order(ac, rule) >= greedy, (seed, rule)


def test_verify_one_compares_whole_trace_entries(monkeypatch):
    """An engine entry that differs from the fixpoint's only in a witness
    detail reconstruction never reads, an extra `u_map` key, still makes
    a discrepancy: the variable sequence and the reconstruction agree."""
    run_engine = engines.run_engine

    def padded_run(inst, rule):
        reduced, entries = run_engine(inst, rule)
        first = entries[0]
        u_map = {**first.witness.u_map, (first.var, 0): 0}
        entries[0] = replace(first, witness=replace(first.witness,
                                                    u_map=u_map))
        return reduced, entries

    star = star_instance(5)
    assert verify_one(star, "de-snake", 0)[1]
    monkeypatch.setattr(engines, "run_engine", padded_run)
    row, ok = verify_one(star, "de-snake", 0)
    assert row["n_eliminated_naive"] == row["n_eliminated_engine"] == 5
    assert row["sat_after"] == row["reconstruction_ok"] == 1
    assert not ok
