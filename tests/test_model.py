"""Instance representation, file format, and low-level accessors."""

import gc
import hashlib
import io
import os
import random
import sys
import tracemalloc
import warnings
from itertools import combinations_with_replacement

import pytest

from cspelim import (FormatError, Instance, format_instance,
                     iter_bits, load_instance, parse_instance, save_instance)
from conftest import (broken_tetrahedron_instance, small_random,
                      star_instance, structured_families)
from theory import canonical_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    assert 0 not in inst.live


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
    assert canonical_key(a) == canonical_key(b)
    assert a != c
    assert canonical_key(a) != canonical_key(c)


def reference_equal(a: Instance, b: Instance) -> bool:
    """Equality by pairwise names: the same live variables, the same
    domains by external name, the same constrained pairs, and on each
    the same allowed (name, name) pairs."""
    if a.live != b.live or a.relations.keys() != b.relations.keys():
        return False
    if any(a.value_names(i) != b.value_names(i) for i in a.live):
        return False

    def named(inst, i, j):
        return {(inst.value_name(i, v), inst.value_name(j, w))
                for v in inst.dom(i) for w in iter_bits(inst.row(i, j, v))}

    return all(named(a, i, j) == named(b, i, j) for i, j in a.pairs())


def rebuilt(inst: Instance, rename=lambda i, name: name,
            extra=None) -> Instance:
    """`inst`, all of whose variables are live, built again from its
    allowed pairs with each value of x_i named ``rename(i, name)``, plus
    the `extra` constraints (in the new names)."""
    domains = [[rename(i, a) for a in inst.value_names(i)]
               for i in inst.variables]
    constraints = {(i, j): [(rename(i, inst.value_name(i, v)),
                             rename(j, inst.value_name(j, w)))
                            for v in inst.dom(i)
                            for w in iter_bits(inst.row(i, j, v))]
                   for i, j in inst.pairs()}
    constraints.update(extra or {})
    return Instance.build(domains, constraints)


def test_equality_is_the_reference_pairwise_equality():
    rng = random.Random(31)
    pool = []
    for seed in range(40):
        inst = small_random(seed, n=rng.randint(2, 6), d=rng.randint(1, 4),
                            p1=rng.choice((0.3, 0.6, 1.0)),
                            p2=rng.choice((0.0, 0.3, 0.6)))
        top = inst.max_dom_size()
        deleted, removed = inst.copy(), inst.copy()
        i = rng.choice(inst.variables)
        deleted.delete_value(i, rng.choice(deleted.dom(i)))
        removed.remove_variable(i)
        variants = [inst.copy(), deleted, removed, rebuilt(inst),
                    rebuilt(inst, lambda i, a: a + 1),
                    rebuilt(inst, lambda i, a: top - 1 - a)]
        free = [(i, j) for i in inst.variables for j in inst.variables
                if i < j and j not in inst.neighbors(i)]
        if free:
            # an explicit relation that allows every pair
            i, j = free[0]
            variants.append(rebuilt(inst, extra={free[0]: [
                (a, b) for a in inst.value_names(i)
                for b in inst.value_names(j)]}))
        for other in variants:
            assert (inst == other) == reference_equal(inst, other)
            assert (other == inst) == reference_equal(other, inst)
        assert inst == variants[0] and inst == variants[3]
        assert inst != deleted and inst != removed and inst != variants[4]
        if free:
            assert inst != variants[-1]
        pool += [inst] + variants
    # both definitions are symmetric, so each unordered pair is enough
    pairs = list(combinations_with_replacement(pool, 2))
    equal = 0
    for a, b in pairs:
        same = a == b
        assert same == reference_equal(a, b)
        equal += same
    assert len(pool) < equal < len(pairs)


def bench_workload_texts():
    """The instance files of the benchmark's `mid` and `large-sparse`
    workloads at seeds 0-2, as `bench/gen.py` writes them."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    return [case.text for name in ("mid", "large-sparse")
            for seed in range(3) for case in run.WORKLOADS[name](seed)]


def test_format_parse_round_trip():
    inst = broken_tetrahedron_instance()
    text = format_instance(inst)
    back = parse_instance(text)
    assert back == inst
    # round-trip again through a file object
    again = parse_instance(io.StringIO(format_instance(back)).read())
    assert again == inst
    # canonical text comes back byte for byte
    texts = bench_workload_texts()
    assert len(texts) == 3 * (32 + 8)
    for text in [format_instance(inst)] + texts:
        assert format_instance(parse_instance(text)) == text


def test_load_instance_closes_the_file(tmp_path):
    path = tmp_path / "inst.bcsp"
    save_instance(star_instance(3), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_instance(path) == star_instance(3)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def renamed(inst: Instance, names: list) -> Instance:
    """A copy of `inst` whose value v is named names[v]."""
    domains = [[names[v] for v in inst.dom(i)] for i in inst.variables]
    constraints = {(i, j): [(names[v], names[w])
                            for v in inst.dom(i) for w in inst.dom(j)
                            if inst.compatible(i, v, j, w)]
                   for i, j in inst.pairs()}
    return Instance.build(domains, constraints)


def test_round_trip_random_instances():
    for seed in range(25):
        inst = small_random(seed)
        assert parse_instance(format_instance(inst)) == inst
    # unsorted, non-contiguous value names; deleted values and a removed
    # variable (which writes a '# source-vars:' header)
    names = [40, 7, 2, 19, 0, 33, 5, 12, 88, 3, 61, 25]
    rng = random.Random(3)
    cases = 0
    for seed in range(2):
        for inst in structured_families(seed, 12, d=12).values():
            inst = renamed(inst, names)
            for _ in range(3):
                assert parse_instance(format_instance(inst)) == inst
                i = rng.choice(inst.variables)
                inst.delete_value(i, rng.choice(inst.dom(i)))
            text = format_instance(inst)
            assert parse_instance(text) == inst
            inst.remove_variable(rng.choice(inst.variables[:-1]))
            text = format_instance(inst)
            assert text.startswith("# source-vars: ")
            back = parse_instance(text)
            assert format_instance(back) == text.split("\n", 1)[1]
            assert back.e == inst.e and back.n == inst.n
            cases += 1
    assert cases == 10


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


def test_parse_memory_stays_linear_in_the_text():
    """Wide domains with a short constraint block: the parse builds no
    lookup table larger than the text."""
    wide = list(range(0, 900, 3))
    text = format_instance(Instance.build([wide, wide],
                                          {(0, 1): [(3, 6), (9, 0)]}))
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert format_instance(inst) == text
    assert peak < 1_000_000, peak


def test_format_memory_stays_linear_on_wide_domains():
    """Wide domains with a short constraint block: the writer builds no
    table of d_i * d_j pair strings."""
    wide = list(range(0, 900, 3))
    inst = Instance.build([wide, wide], {(0, 1): [(3, 6), (9, 0)]})
    dom = " ".join(map(str, wide))
    want = ("BCSP 1\nvars 2\ndom 0 300 %s\ndom 1 300 %s\n"
            "con 0 1 2\n3 6\n9 0\nend\n" % (dom, dom))
    tracemalloc.start()
    try:
        text = format_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == want
    assert peak < 1_000_000, peak


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    rng = random.Random(7)
    for _ in range(50):
        bits = sorted(rng.sample(range(40), rng.randrange(8)))
        mask = sum(1 << b for b in bits)
        assert list(iter_bits(mask)) == bits


FUZZ_TOKENS = ("0", "1", "2", "9", "-1", "+1", "01", "x", "#", "con",
               "end", "0 0", "\t", "")
FUZZ_LINES = ("", "   ", "# note", "0 0", "0\t1", "1  0", "+1 01",
              "con 0 1 1", "con 1 0 2", "end", "dom 0 1 0", "0 7")


def fuzz_mutants(count: int = 3000):
    """`count` seeded one-line mutations (delete, insert, swap, append a
    token, replace a token) of formatted `small_random` and
    `structured_families` instances."""
    rng = random.Random("parse-fuzz")
    sources = [format_instance(small_random(seed, n=5, d=2)) for seed in range(8)]
    sources += [format_instance(inst) for seed in range(2)
                for inst in structured_families(seed, 6).values()]
    for _ in range(count):
        lines = rng.choice(sources).split("\n")
        k = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[k]
        elif op == 1:
            m = rng.randrange(len(lines))
            lines[k:k] = (lines[m:m + rng.randrange(1, 4)]
                          if rng.random() < 0.5 else [rng.choice(FUZZ_LINES)])
        elif op == 2:
            m = rng.randrange(len(lines))
            lines[k], lines[m] = lines[m], lines[k]
        elif op == 3:
            lines[k] += rng.choice((" ", "\t", "  ")) + rng.choice(FUZZ_TOKENS)
        else:
            tokens = lines[k].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[k] = " ".join(tokens)
        yield "\n".join(lines)


# sha256 prefix of every fuzz outcome, recorded before the parser and the
# formatter were rewritten to read and write bit rows directly.
FUZZ_DIGEST = "850e934fd3d0f92c"


def test_parse_fuzz_outcomes_match_pinned_digest():
    """Every mutant parses to an instance or raises FormatError, and the
    outcomes (the formatted instance, or the error text with its line
    number) hash to the pinned digest."""
    digest = hashlib.sha256()
    parsed = 0
    for text in fuzz_mutants():
        try:
            outcome = format_instance(parse_instance(text))
            parsed += 1
        except FormatError as exc:
            outcome = "error: %s" % exc
        digest.update(outcome.encode() + b"\0")
    assert 500 < parsed < 2500
    assert digest.hexdigest()[:16] == FUZZ_DIGEST, digest.hexdigest()


def test_readme_instance_example_parses():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Instance files", 1)[1]
    block = section.split("```\n", 2)[1]
    inst = parse_instance(block)
    assert (inst.n, inst.e) == (3, 1)
    assert inst.value_names(2) == [0, 1, 2]
    assert inst.compatible(1, 1, 2, 2)
    assert not inst.compatible(1, 1, 2, 1)


SPELLING_BASE = """BCSP 1
vars 3
dom 0 2 0 1
dom 1 3 0 1 2
dom 2 2 5 9
con 0 1 3
0 0
0 2
1 1
con 1 2 2
0 5
2 9
end
"""


@pytest.mark.parametrize("old, new", [
    ("0 2\n1 1\n", "0\t2\n1   1\n"),
    ("0 0\n0 2\n", "  0 0 \n0 \t 2\n"),
    ("1 1\n", "+1 01\n"),
    ("0 2\n", "0 2\n\n# comment inside a block\n   \n"),
    ("0 0\n0 2\n1 1\n", "1 1\n0 0\n0 2\n"),
    ("0 5\n2 9\n", "2 9\n0 5\n"),
    ("\n", "\r\n"),
])
def test_parse_accepts_any_spelling_inside_a_block(old, new):
    want = parse_instance(SPELLING_BASE)
    assert format_instance(want) == SPELLING_BASE
    text = SPELLING_BASE.replace(old, new)
    assert text != SPELLING_BASE
    assert parse_instance(text) == want
    assert format_instance(parse_instance(text)) == SPELLING_BASE


@pytest.mark.parametrize("old, new, message", [
    ("1 1\n", "1 1 0\n", "line 9: expected '<a> <b>' pair"),
    ("1 1\n", "1\n", "line 9: expected '<a> <b>' pair"),
    ("1 1\n", "1 x\n", "line 9: expected integers, got '1 x'"),
    ("1 1\n", "1 7\n", "line 6: value 7 not in domain of variable 1"),
    ("2 9\n", "3 9\n", "line 10: value 3 not in domain of variable 1"),
    ("0 0\n", "0 9\n", "line 6: value 9 not in domain of variable 1"),
    ("con 1 2 2\n", "con 1 0 2\n",
     "line 10: duplicate constraint (0,1)"),
    ("con 1 2 2\n0 5\n", "con 0 1 2\n0 7\n",
     "line 10: duplicate constraint (0,1)"),
    ("0 0\n0 2\n1 1\n", "0 7\n0 2\n1\n",
     "line 9: expected '<a> <b>' pair"),
    ("con 1 2 2\n0 5\n2 9\n", "con 0 1 2\n0 0\n0 1 1\n",
     "line 12: expected '<a> <b>' pair"),
    ("con 1 2 2\n", "con 1 2 4\n",
     "line 13: expected integers, got 'end'"),
    ("2 9\nend\n", "2 9\n", "line 12: unexpected end of input"),
])
def test_parse_block_errors_keep_their_message_and_line(old, new, message):
    text = SPELLING_BASE.replace(old, new)
    assert text != SPELLING_BASE
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert str(err.value) == message
