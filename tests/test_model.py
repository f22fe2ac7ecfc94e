"""Instance representation, file format, and low-level accessors."""

import gc
import io
import random
import warnings

import pytest

from cspelim import (FormatError, Instance, format_instance,
                     iter_bits, load_instance, parse_instance, save_instance)
from conftest import broken_tetrahedron_instance, small_random, star_instance


def test_build_renumbers_and_keeps_names():
    inst = Instance.build([[5, 3], [10, 20, 30]], {(0, 1): [(3, 10), (5, 30)]})
    assert inst.variables == (0, 1)
    assert inst.dom(0) == [0, 1]
    assert inst.value_names(0) == [3, 5]
    assert inst.value_names(1) == [10, 20, 30]
    # external (3, 10) maps to internal (0, 0)
    assert inst.compatible(0, 0, 1, 0)
    assert inst.compatible(0, 1, 1, 2)
    assert not inst.compatible(0, 0, 1, 1)
    assert inst.internal_value(1, 30) == 2
    assert inst.value_name(1, 2) == 30


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        Instance.build([[0, 0]])
    with pytest.raises(ValueError):
        Instance.build([[-1, 0]])
    with pytest.raises(ValueError):
        Instance.build([[0]], {(0, 0): [(0, 0)]})
    with pytest.raises(ValueError):
        Instance.build([[0], [0]], {(0, 1): [(0, 1)]})


def test_absent_constraint_is_complete():
    inst = Instance.build([[0, 1], [0, 1]])
    assert inst.e == 0
    assert inst.neighbors(0) == []
    assert inst.compatible(0, 0, 1, 1)
    assert inst.row(0, 1, 0) == inst.dom_mask(1)


def test_neighbors_and_pairs(star):
    inst = star(5)
    assert inst.neighbors(0) == [1, 2, 3, 4]
    for leaf in (1, 2, 3, 4):
        assert inst.neighbors(leaf) == [0]
    assert inst.pairs() == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert inst.e == 4


def test_row_masks_follow_deletions():
    inst = Instance.build([[0, 1], [0, 1, 2]],
                          {(0, 1): [(0, 0), (0, 2), (1, 1)]})
    assert inst.row(0, 1, 0) == 0b101
    inst.delete_value(1, 2)
    assert inst.row(0, 1, 0) == 0b001
    assert inst.dom(1) == [0, 1]
    assert not inst.wiped
    inst.delete_value(1, 0)
    inst.delete_value(1, 1)
    assert inst.wiped


def test_compatible_validates_membership():
    inst = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0)]})
    inst.delete_value(0, 1)
    with pytest.raises(ValueError):
        inst.compatible(0, 1, 1, 0)
    with pytest.raises(ValueError):
        inst.compatible(0, 0, 1, 5)


def test_remove_variable_drops_adjacency(star):
    inst = star(4)
    inst.remove_variable(0)
    assert inst.variables == (1, 2, 3)
    assert inst.n == 3
    assert inst.e == 0
    assert inst.neighbors(1) == []
    assert not inst.is_active(0)


def test_copy_is_independent():
    inst = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    dup = inst.copy()
    dup.delete_value(0, 0)
    dup.remove_variable(1)
    assert inst.dom(0) == [0, 1]
    assert inst.variables == (0, 1)
    assert dup.variables == (0,)


def test_semantic_equality_and_canonical_key():
    a = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    b = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 1)]})
    c = Instance.build([[0, 1], [0, 1]], {(0, 1): [(0, 0), (1, 0)]})
    assert a == b
    assert a.canonical_key() == b.canonical_key()
    assert a != c
    assert a.canonical_key() != c.canonical_key()


def test_format_parse_round_trip():
    inst = broken_tetrahedron_instance()
    text = format_instance(inst)
    back = parse_instance(text)
    assert back == inst
    # round-trip again through a file object
    again = parse_instance(io.StringIO(format_instance(back)).read())
    assert again == inst


def test_load_instance_closes_the_file(tmp_path):
    path = tmp_path / "inst.bcsp"
    save_instance(star_instance(3), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_instance(path) == star_instance(3)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_round_trip_random_instances():
    for seed in range(25):
        inst = small_random(seed)
        assert parse_instance(format_instance(inst)) == inst


def test_format_renumbers_after_removal():
    inst = star_instance(4)
    inst.remove_variable(0)
    text = format_instance(inst)
    assert "source-vars" in text
    back = parse_instance(text)
    assert back.n == 3
    assert back.e == 0


def test_parse_rejects_malformed_input():
    good = format_instance(star_instance(3))
    for bad in [
        "",
        "BCSP 2\nvars 1\ndom 0 1 0\n",
        good.replace("BCSP 1", "NOPE 1"),
        good.replace("vars 3", "vars 2"),
        "BCSP 1\nvars 1\ndom 0 2 0\n",
        "BCSP 1\nvars 1\ndom 0 1 x\n",
        "BCSP 1\nvars 1\ndom 0 1 -3\nend\n",
        "BCSP 1\nvars 2\ndom 0 1 0\ndom 1 1 0\ncon 0 1 2\n0 0\n",
        "BCSP 1\nvars 2\ndom 0 1 0\ndom 1 1 0\ncon 0 1 1\n0 7\n",
    ]:
        with pytest.raises(FormatError):
            parse_instance(bad)


def test_parse_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_instance("BCSP 1\nvars 1\ndom 0 1 x\n")
    assert "line 3" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_instance("BCSP 1\nvars 2\ndom 0 1 0\ndom 1 2 4 -3\nend\n")
    assert str(err.value) == "line 4: negative value in domain of variable 1"


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    rng = random.Random(7)
    for _ in range(50):
        bits = sorted(rng.sample(range(40), rng.randrange(8)))
        mask = sum(1 << b for b in bits)
        assert list(iter_bits(mask)) == bits
