"""Acceptance suite: thirteen end-to-end guarantees of the toolkit.

Each test prints a single ``acceptance NN <label>: PASS|FAIL`` line (visible
with ``pytest -s``) and asserts the same condition, so the -v report doubles
as the acceptance checklist.  The randomized battery (criteria 1-3, 7, 12)
is computed once in a module-scoped fixture and shared.  Every engine
witness in the module is certified by its rule's checker
(`certified_witnesses` in conftest).
"""

import itertools
import time

import pytest

from cspelim import (GeneratorConfig, Instance, RULES, brute_force_solve,
                     bt_degree, check_aebtp, check_bt_degree_property,
                     checker_accepts, count_solutions, eliminate_variable,
                     enforce_ac, is_solution, mac_solve, naive_fixpoint,
                     ns_fixpoint, random_instance, reconstruct_solution,
                     run_engine, solve_with_preprocessing)
from cspelim.oracle import battery_ac_instances
from cspelim.patterns import justifies
from conftest import (broken_tetrahedron_instance, clique_instance,
                      clone_pair_instance, degree_gap_instance,
                      pendant_chain_instance, random_tree_instance,
                      star_instance)
from theory import (are_isomorphic, check_1fbtp, check_ae_broken_polyhedron,
                    enumerate_broken_triangles, max_eliminations_by_order)

BATTERY_SIZE = 500

pytestmark = pytest.mark.usefixtures("certified_witnesses")


def replay_swaps(reduced, entries, reduced_sol):
    """Replay the trace one entry at a time, as `reconstruct_solution`
    does in one call, and yield for each step the neighbours it
    reassigned.  Every step's result covers the variables of `reduced`,
    the instance the trace ends in."""
    s = dict(reduced_sol)
    for entry in reversed(entries):
        step = reconstruct_solution(reduced, [entry], s)
        yield [j for j in entry.rel_snapshot if step[j] != s[j]]
        s = step


def report(num, label, ok, detail=""):
    line = "acceptance %02d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    print(line)
    assert ok, line + (": " + detail if detail else "")


@pytest.fixture(scope="module")
def battery(certified_witnesses):
    """One pass over the 500-instance battery, recording every failure
    relevant to criteria 1, 2, 3, 7 and 12.  For criterion 3 it also
    counts the exists-snake entries whose replay swaps several neighbours
    at once, and those among them where two swapped neighbours constrain
    each other."""
    f = {"count": 0, "engine": [], "sat": [], "recon": [], "subsume": [],
         "verdict": [], "multi_swap": 0, "adjacent_swap": 0}
    for seed, ac in battery_ac_instances(BATTERY_SIZE, seed=0):
        f["count"] += 1
        sat_before = brute_force_solve(ac) is not None

        mac_sol = mac_solve(ac)
        if (mac_sol is not None) != sat_before or \
                (mac_sol is not None and not is_solution(ac, mac_sol)):
            f["verdict"].append((seed, "none"))

        for rule in RULES:
            naive_inst, naive_entries = naive_fixpoint(ac, rule)
            eng_inst, eng_entries = run_engine(ac, rule)
            if naive_inst != eng_inst or naive_entries != eng_entries:
                f["engine"].append((seed, rule))
            reduced_sol = brute_force_solve(eng_inst)
            if (reduced_sol is not None) != sat_before:
                f["sat"].append((seed, rule))
            if reduced_sol is not None:
                full = reconstruct_solution(ac, eng_entries, reduced_sol)
                if not is_solution(ac, full):
                    f["recon"].append((seed, rule))
                if rule == "exists-snake":
                    for swapped in replay_swaps(eng_inst, eng_entries,
                                                reduced_sol):
                        if len(swapped) < 2:
                            continue
                        f["multi_swap"] += 1
                        if any(b in ac.neighbors(a)
                               for a, b in itertools.combinations(swapped, 2)):
                            f["adjacent_swap"] += 1
            pipe_sol = solve_with_preprocessing(ac, rule)
            if (pipe_sol is not None) != sat_before or \
                    (pipe_sol is not None and not is_solution(ac, pipe_sol)):
                f["verdict"].append((seed, rule))

        for m in ac.variables:
            ex = checker_accepts(ac, "exists-snake", m) is not None
            de = checker_accepts(ac, "de-snake", m) is not None
            ae = checker_accepts(ac, "aebtp", m) is not None
            bt = checker_accepts(ac, "bt-degree", m) is not None
            if ex and not de:
                f["subsume"].append((seed, m, "exists-snake/de-snake"))
            if ae and not bt:
                f["subsume"].append((seed, m, "aebtp/bt-degree"))
            if bt and not check_ae_broken_polyhedron(ac, m, 3):
                f["subsume"].append((seed, m, "bt-degree/3-polyhedron"))
    return f


def test_criterion_01_engines_match_reference(battery):
    ok = battery["count"] == BATTERY_SIZE and not battery["engine"]
    report(1, "engine-vs-reference equivalence", ok,
           "failures %r" % battery["engine"][:5])


def test_criterion_02_satisfiability_conserved(battery):
    report(2, "satisfiability conservation", not battery["sat"],
           "failures %r" % battery["sat"][:5])


def test_criterion_03_solutions_reconstruct(battery):
    # exists-snake replay swaps every conflicting neighbour to its first
    # compatible value; the battery must reach entries that swap several
    # at once, some of them neighbours of each other
    ok = (not battery["recon"] and battery["multi_swap"] >= 10
          and battery["adjacent_swap"] >= 1)
    report(3, "solution reconstruction", ok,
           "failures %r, multi-swap entries %d, of which swap two "
           "neighbours of each other %d"
           % (battery["recon"][:5], battery["multi_swap"],
              battery["adjacent_swap"]))


def test_criterion_04_star_solution_counts():
    ok = True
    for n in (5, 6, 7, 8):
        star = star_instance(n)
        ok = ok and count_solutions(star) == 2
        ok = ok and checker_accepts(star, "de-snake", 0) is not None
        reduced = star.copy()
        _, elim_ok = eliminate_variable(reduced, 0)
        ok = ok and elim_ok and count_solutions(reduced) == 2 ** (n - 1)
    report(4, "star counts 2 -> 2^(n-1)", ok)


def test_criterion_05_degree_gap_separation():
    gap = degree_gap_instance()
    ok = bool(check_bt_degree_property(gap, 2)) and not check_aebtp(gap, 2)
    report(5, "degree property strictly wider on the gap instance", ok)


def test_criterion_06_tetrahedron_facts():
    tetra = broken_tetrahedron_instance()
    ok = len(enumerate_broken_triangles(tetra, 3)) == 3
    # (variable, value, apex) -> witnessing-variable count
    expected = {(0, 0, 2): 2, (1, 0, 1): 2, (0, 0, 0): 1, (1, 0, 0): 1}
    for (i, v, u), degree in expected.items():
        ok = ok and bt_degree(tetra, i, v, 3, u) == degree
    ok = ok and not check_1fbtp(tetra, 3)
    report(6, "tetrahedron triangle census and degrees", ok)


def test_criterion_07_subsumption_chain(battery):
    report(7, "per-variable subsumption chain", not battery["subsume"],
           "counterexamples %r" % battery["subsume"][:5])


def universal_value_instance():
    """The first value of x0 is compatible with everything, so every
    extension-style rule accepts x0; the broken triangle between its other
    two values has no support variable."""
    return Instance.build(
        [[0, 1, 2], [0], [0]],
        {(0, 1): [(0, 0), (1, 0)], (0, 2): [(0, 0), (2, 0)]})


def test_criterion_08_incomparability_directions():
    names = ("snake", "triangle", "aebtp", "1fbtp")

    def flags(inst, m):
        family = any(checker_accepts(inst, r, m) is not None
                     for r in ("de-snake", "exists-snake"))
        return {"snake": family,
                "triangle": checker_accepts(inst, "triangle", m) is not None,
                "aebtp": checker_accepts(inst, "aebtp", m) is not None,
                "1fbtp": check_1fbtp(inst, m)}

    need = set(itertools.permutations(names, 2))

    def scan(inst):
        for m in inst.variables:
            accepted = flags(inst, m)
            for a, b in list(need):
                if accepted[a] and not accepted[b]:
                    need.discard((a, b))

    scan(universal_value_instance())
    scan(pendant_chain_instance())
    for seed in range(10000):
        if not need:
            break
        n = 4 + seed % 2
        d = 2 + seed % 3
        p2 = (0.35, 0.55)[seed % 2]
        scan(random_instance(GeneratorConfig(n, d, 0.7, p2, seed=seed)))
    report(8, "all twelve incomparability directions", not need,
           "missing %r" % sorted(need))


def test_criterion_09_hereditary_confluence():
    rules = ("exists-snake", "de-snake", "aebtp", "bt-degree")
    checked = 0
    seed = 0
    failures = []
    while checked < 100:
        n = 4 + seed % 3
        cfg = GeneratorConfig(n, 2 + seed % 2, 0.5, (0.3, 0.5)[seed % 2],
                              seed=seed)
        seed += 1
        ac, _, ok = enforce_ac(random_instance(cfg))
        if not ok:
            continue
        checked += 1
        for rule in rules:
            greedy = len(naive_fixpoint(ac, rule)[1])
            if max_eliminations_by_order(ac, rule) != greedy:
                failures.append((seed - 1, rule))
    report(9, "greedy fixpoint is order-optimal", not failures,
           "failures %r" % failures[:5])


def test_criterion_10_triangle_confluence_modulo_substitution():
    def ns_after_eliminating(inst, i):
        reduced = inst.copy()
        _, ok = eliminate_variable(reduced, i)
        assert ok
        ns_fixpoint(reduced)
        return reduced

    clone = clone_pair_instance()
    ok = justifies(clone, 0, 1) is not None and justifies(clone, 1, 0) is not None
    ok = ok and are_isomorphic(ns_after_eliminating(clone, 0),
                               ns_after_eliminating(clone, 1))

    pairs = 0
    for seed in range(3000):
        if pairs >= 30:
            break
        cfg = GeneratorConfig(4 + seed % 3, 2 + seed % 2, 0.7, 0.45, seed=seed)
        inst = random_instance(cfg)
        for i in inst.variables:
            for j in inst.variables:
                if j <= i:
                    continue
                if justifies(inst, i, j) is None or \
                        justifies(inst, j, i) is None:
                    continue
                a, b = inst.copy(), inst.copy()
                _, ok_a = eliminate_variable(a, i)
                _, ok_b = eliminate_variable(b, j)
                if not (ok_a and ok_b):
                    continue
                pairs += 1
                ns_fixpoint(a)
                ns_fixpoint(b)
                ok = ok and are_isomorphic(a, b)
    report(10, "mutual justification commutes modulo substitution",
           ok and pairs >= 30, "pairs found %d" % pairs)


def test_criterion_11_trees_collapse_to_one_variable():
    reduced_counts = []
    for s in range(40):
        n = 5 + (s * 7) % 26
        ac, _, ok = enforce_ac(random_tree_instance(n, 2 + s % 3, s))
        if not ok:
            continue
        reduced, _ = run_engine(ac, "triangle")
        reduced_counts.append(reduced.n)
    ok = len(reduced_counts) >= 25 and all(n == 1 for n in reduced_counts)
    report(11, "arc-consistent trees reduce to one variable", ok,
           "sizes %r" % sorted(set(reduced_counts)))


def test_criterion_12_search_verdicts_and_restart_schedule(battery):
    ok = not battery["verdict"]
    log = []
    assert mac_solve(clique_instance(7, 6), log=log) is None
    budgets = [int(line.split()[2]) for line in log
               if line.startswith("restart")]
    ok = ok and len(budgets) > 1
    ok = ok and budgets == [int(100 * 1.1 ** k) for k in range(len(budgets))]
    ok = ok and log[-1] == "verdict unsat"
    report(12, "search verdicts and geometric restart schedule", ok,
           "verdict failures %r budgets %r" % (battery["verdict"][:5],
                                               budgets[:6]))


def test_criterion_13_engine_scaling():
    inst = random_instance(GeneratorConfig(100, 10, 300 / 4950, 0.35, seed=7))
    ac, _, ok = enforce_ac(inst)
    assert ok
    timings = {}
    for rule in RULES:
        t0 = time.perf_counter()
        run_engine(ac, rule)
        timings[rule] = time.perf_counter() - t0
    ok = 250 <= inst.e <= 350 and all(t < 10.0 for t in timings.values())
    report(13, "hundred-variable engines under ten seconds", ok,
           "timings %r" % {r: round(t, 2) for r, t in timings.items()})
