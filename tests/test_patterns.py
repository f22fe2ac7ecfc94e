"""Elimination-rule checkers: canonical-instance facts, brute-force
cross-checks, and the subsumption lattice."""

from itertools import combinations, product

import pytest

from cspelim import (Instance, MIN_LIVE, RULES, bt_degree, check_aebtp,
                     check_bt_degree_property, check_de_snake,
                     check_exists_snake, check_triangle, checker_accepts,
                     eliminate_singletons, enforce_ac)
from cspelim.patterns import justifies, snake_occurs
from conftest import (pendant_chain_instance, random_tree_instance,
                      small_random, star_instance)
from theory import (BrokenPolyhedron, BrokenTriangle, check_1fbtp,
                    check_ae_broken_polyhedron, enumerate_broken_triangles,
                    find_broken_polyhedron, is_3safe)


# ---------------------------------------------------------------------------
# definitional brute-force oracles


def snake_oracle(inst, i, v_i):
    """Quadruple loop straight from the pattern definition: (v_i,v_j)
    forbidden, (v_i,v'_j) allowed, (v_j,v_k) allowed, (v'_j,v_k)
    forbidden, with k distinct from i and j."""
    for j in inst.variables:
        if j == i:
            continue
        for v_j, vp_j in product(inst.dom(j), repeat=2):
            if inst.compatible(i, v_i, j, v_j):
                continue
            if not inst.compatible(i, v_i, j, vp_j):
                continue
            for k in inst.variables:
                if k in (i, j):
                    continue
                for v_k in inst.dom(k):
                    if (inst.compatible(j, v_j, k, v_k)
                            and not inst.compatible(j, vp_j, k, v_k)):
                        return True
    return False


def exists_snake_oracle(inst, i):
    return any(not snake_oracle(inst, i, v) for v in inst.dom(i))


def de_snake_oracle(inst, i):
    """Some v_i such that every conflicting (j, v_j) owns a replacement
    v'_j compatible with v_i that loses support nowhere outside x_i."""
    for v_i in inst.dom(i):
        if all(any(inst.compatible(i, v_i, j, vp)
                   and not any(inst.compatible(j, v_j, k, v_k)
                               and not inst.compatible(j, vp, k, v_k)
                               for k in inst.variables if k not in (i, j)
                               for v_k in inst.dom(k))
                   for vp in inst.dom(j))
               for j in inst.variables if j != i
               for v_j in inst.dom(j)
               if not inst.compatible(i, v_i, j, v_j)):
            return True
    return False


def triangle_oracle(inst, i):
    for j in inst.variables:
        if j == i:
            continue
        if all(any(inst.compatible(j, v_j, i, v_i)
                   and all(inst.compatible(i, v_i, k, v_k)
                           for k in inst.variables if k not in (i, j)
                           for v_k in inst.dom(k)
                           if inst.compatible(j, v_j, k, v_k))
                   for v_i in inst.dom(i))
               for v_j in inst.dom(j)):
            return True
    return False


# ---------------------------------------------------------------------------
# broken-triangle geometry on the canonical instances


def test_single_broken_triangle(bt_inst):
    assert bt_inst.compatible(0, 0, 2, 0)
    assert not bt_inst.compatible(0, 0, 2, 1)
    found = enumerate_broken_triangles(bt_inst, 2)
    assert found == [BrokenTriangle(2, 0, 0, 1, 0, 0, 1)]
    assert found[0].holds_in(bt_inst)


def test_tetrahedron_has_three_triangles(tetra_inst):
    found = enumerate_broken_triangles(tetra_inst, 3)
    assert len(found) == 3
    assert all(bt.holds_in(tetra_inst) for bt in found)
    shapes = {(bt.i, bt.j, bt.apex_i, bt.apex_j) for bt in found}
    assert shapes == {(0, 1, 1, 2), (0, 2, 0, 2), (1, 2, 0, 1)}


def test_star_triangles_sit_on_the_center(star):
    # mixed-value leaf pairs are complete-relation bases, so the center
    # carries 2 triangles per leaf pair; the leaves carry none
    inst = star(5)
    found = enumerate_broken_triangles(inst, 0)
    assert len(found) == 12
    assert all(bt.holds_in(inst) for bt in found)
    for leaf in (1, 2, 3, 4):
        assert enumerate_broken_triangles(inst, leaf) == []
    # every (leaf value, center value) pair is witnessed by the 3 other leaves
    assert all(bt_degree(inst, i, v, 0, u) == 3
               for i in (1, 2, 3, 4) for v in (0, 1) for u in (0, 1))


def test_tetrahedron_degrees(tetra_inst):
    # the two double-witnessed broken edges
    assert bt_degree(tetra_inst, 0, 0, 3, 2) == 2
    assert bt_degree(tetra_inst, 1, 0, 3, 1) == 2
    # the apex value u participates once per base variable
    assert bt_degree(tetra_inst, 0, 0, 3, 0) == 1
    assert bt_degree(tetra_inst, 1, 0, 3, 0) == 1
    assert bt_degree(tetra_inst, 2, 0, 3, 0) == 2
    with pytest.raises(ValueError):
        bt_degree(tetra_inst, 3, 0, 3, 0)
    with pytest.raises(ValueError):
        bt_degree(tetra_inst, 0, 5, 3, 0)


def test_degree_counts_distinct_third_variables():
    """The degree counts witnessing variables, not witnessing triangles."""
    # x0's value 0 pairs with two values of x2 both completing a broken
    # triangle through apex 0 of x3; a second witness comes from x1
    inst = Instance.build(
        [[0, 1], [0, 1], [0, 1, 2], [0, 1]],
        {(0, 3): [(0, 0), (1, 0), (1, 1)],
         (1, 3): [(0, 1), (1, 0), (1, 1)],
         (2, 3): [(0, 1), (1, 1), (2, 1)],
         (0, 1): [(0, 0), (0, 1), (1, 1)],
         (0, 2): [(0, 0), (0, 1), (0, 2), (1, 0)]})
    assert bt_degree(inst, 0, 0, 3, 0) == 2


def test_no_base_is_3safe(tetra_inst):
    assert not is_3safe(tetra_inst, 0, 0, 1, 0, 3)
    assert not is_3safe(tetra_inst, 0, 0, 2, 0, 3)
    assert not is_3safe(tetra_inst, 1, 0, 2, 0, 3)


# ---------------------------------------------------------------------------
# degree property vs extension property


def test_degree_property_separates(gap_inst):
    assert check_bt_degree_property(gap_inst, 2)
    assert not check_aebtp(gap_inst, 2)


def test_tetrahedron_blocks_both(tetra_inst):
    assert not check_bt_degree_property(tetra_inst, 3)
    assert not check_aebtp(tetra_inst, 3)
    assert not check_ae_broken_polyhedron(tetra_inst, 3, 3)


def test_degree_property_needs_three_variables():
    inst = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    with pytest.raises(ValueError):
        check_bt_degree_property(inst, 0)


def test_find_broken_polyhedron(bt_inst, tetra_inst, star):
    bp = find_broken_polyhedron(tetra_inst, 3, 3)
    assert bp == BrokenPolyhedron(3, ((0, 0), (1, 0), (2, 0)), (2, 1, 0))
    assert bp.holds_in(tetra_inst)
    bp2 = find_broken_polyhedron(bt_inst, 2, 2)
    assert bp2 == BrokenPolyhedron(2, ((0, 0), (1, 0)), (1, 0))
    assert bp2.holds_in(bt_inst)
    inst = star(5)
    bp3 = find_broken_polyhedron(inst, 0, 2)
    assert bp3 is not None and bp3.holds_in(inst)
    # leaf apexes would need a value conflicting with another leaf
    assert find_broken_polyhedron(inst, 1, 2) is None
    assert find_broken_polyhedron(inst, 1, 3) is None


def test_1fbtp(bt_inst, tetra_inst, star, gap_inst):
    # no third variable can support the triangles of these instances
    assert not check_1fbtp(tetra_inst, 3)
    assert not check_1fbtp(bt_inst, 2)
    assert not check_1fbtp(gap_inst, 2)
    assert not check_1fbtp(star(5), 0)
    # vacuous without broken triangles
    free = Instance.build([[0, 1]] * 3)
    assert all(check_1fbtp(free, m) for m in free.variables)


def test_1fbtp_support_variable():
    # x3 gives the base pair of the only broken triangle no common
    # support, so the property holds on x2
    inst = Instance.build(
        [[0], [0], [0, 1], [0, 1]],
        {(0, 1): [(0, 0)], (0, 2): [(0, 0)], (1, 2): [(0, 1)],
         (0, 3): [(0, 0)], (1, 3): [(0, 1)]})
    assert len(enumerate_broken_triangles(inst, 2)) == 1
    assert check_1fbtp(inst, 2)


# ---------------------------------------------------------------------------
# snake rules on the canonical instances


def test_star_center_snake(star):
    inst = star(5)
    assert snake_occurs(inst, 0, 0) is None
    assert check_exists_snake(inst, 0) == 0


def test_star_center_de_snake(star):
    assert check_de_snake(star(5), 0) == (0, {(j, 0): 1 for j in (1, 2, 3, 4)})


def test_gap_values_carry_no_snake(gap_inst):
    assert all(snake_occurs(gap_inst, 2, v) is None for v in (0, 1, 2))
    assert check_exists_snake(gap_inst, 2) == 0


def test_snake_occurrence_positive():
    # v0=0 conflicts with x1's 0, is compatible with 1, and swapping
    # 0 -> 1 at x1 loses the support (0, x2=0)
    inst = Instance.build(
        [[0, 1], [0, 1], [0, 1]],
        {(0, 1): [(0, 1), (1, 0), (1, 1)],
         (1, 2): [(0, 0), (0, 1), (1, 1)]})
    assert snake_occurs(inst, 0, 0) == (1, 0, 1, 2, 0)


def test_triangle_on_pendants(pendant_inst):
    assert check_triangle(pendant_inst, 0) == (1, {0: 1, 1: 0, 2: 0})
    assert check_triangle(pendant_inst, 2) == (1, {0: 0, 1: 1, 2: 2})
    # the middle variable has no justifier
    assert check_triangle(pendant_inst, 1) is None


def test_star_center_has_no_justifier(star):
    inst = star(5)
    assert check_triangle(inst, 0) is None
    for leaf in (1, 2, 3, 4):
        assert justifies(inst, 0, leaf) is not None


# ---------------------------------------------------------------------------
# dispatch and live-variable guards


def test_checker_accepts_guards():
    lone = Instance.build([[0, 1]])
    assert checker_accepts(lone, "exists-snake", 0) is not None
    assert checker_accepts(lone, "de-snake", 0) is not None
    assert checker_accepts(lone, "triangle", 0) is None
    assert checker_accepts(lone, "aebtp", 0) is None
    assert checker_accepts(lone, "bt-degree", 0) is None
    pair = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    assert checker_accepts(pair, "bt-degree", 0) is None
    assert checker_accepts(pair, "triangle", 0) is not None
    with pytest.raises(ValueError):
        checker_accepts(pair, "btp", 0)
    # only the extension rules take a variable scope
    for rule in ("exists-snake", "de-snake", "triangle"):
        with pytest.raises(ValueError):
            checker_accepts(pair, rule, 0, among=[1])


def test_checker_dispatch_matches_direct_calls():
    inst = small_random(3, n=5, d=3)
    ac, _, ok = enforce_ac(inst)
    assert ok
    for i in ac.variables:
        assert (checker_accepts(ac, "exists-snake", i) is not None) \
            == (check_exists_snake(ac, i) is not None)
        assert (checker_accepts(ac, "bt-degree", i) is not None) \
            == check_bt_degree_property(ac, i)
        assert (checker_accepts(ac, "aebtp", i) is not None) \
            == check_aebtp(ac, i)
    # on arc-consistent input, the extension rules scoped to x_i's
    # neighbours answer as the full definition does
    battery = [enforce_ac(small_random(seed, n=7, d=3, p1=p1, p2=0.4))
               for seed in range(30) for p1 in (0.3, 0.6)]
    tree, _, ok = enforce_ac(random_tree_instance(30, 3, 5))
    assert ok
    battery.append((eliminate_singletons(tree)[0], None, True))
    answers = {True: 0, False: 0}
    for ac, _, ok in battery:
        if not ok or ac.n < 3:
            continue
        for i in ac.variables:
            nbrs = ac.neighbors(i)
            assert (checker_accepts(ac, "aebtp", i, among=nbrs)
                    is not None) == check_aebtp(ac, i)
            full = check_bt_degree_property(ac, i)
            assert (checker_accepts(ac, "bt-degree", i, among=nbrs)
                    is not None) == full
            answers[full] += 1
    assert min(answers.values()) >= 20, answers


# ---------------------------------------------------------------------------
# brute-force cross-checks and subsumption


def test_checkers_match_brute_oracles():
    for seed in range(40):
        inst = small_random(seed, n=5, d=3, p2=0.45)
        for i in inst.variables:
            for v in inst.dom(i):
                assert (snake_occurs(inst, i, v) is not None) \
                    == snake_oracle(inst, i, v), (seed, i, v)
            assert (check_exists_snake(inst, i) is not None) \
                == exists_snake_oracle(inst, i), (seed, i)
            assert (check_de_snake(inst, i) is not None) \
                == de_snake_oracle(inst, i), (seed, i)
            assert (check_triangle(inst, i) is not None) \
                == triangle_oracle(inst, i), (seed, i)


def test_broken_triangle_enumeration_is_sound_and_complete():
    for seed in range(25):
        inst = small_random(seed, n=5, d=3, p2=0.5)
        for m in inst.variables:
            found = set(enumerate_broken_triangles(inst, m))
            assert all(bt.holds_in(inst) for bt in found)
            others = [t for t in inst.variables if t != m]
            for i, j in combinations(others, 2):
                for v_i in inst.dom(i):
                    for v_j in inst.dom(j):
                        for a in inst.dom(m):
                            for b in inst.dom(m):
                                bt = BrokenTriangle(m, i, v_i, j, v_j, a, b)
                                assert (bt in found) == bt.holds_in(inst)


def test_subsumption_on_random_instances():
    for seed in range(60):
        inst = small_random(seed, n=5, d=3, p2=0.4)
        ac, _, ok = enforce_ac(inst)
        if not ok:
            continue
        for i in ac.variables:
            if check_exists_snake(ac, i) is not None:
                assert check_de_snake(ac, i) is not None, (seed, i)
            if check_aebtp(ac, i):
                assert check_bt_degree_property(ac, i), (seed, i)
            if check_bt_degree_property(ac, i):
                assert check_ae_broken_polyhedron(ac, i, 3), (seed, i)
            assert check_ae_broken_polyhedron(ac, i, 2) == check_aebtp(ac, i)
