"""Trace serialization round-trips and format errors."""

import io
import random

import pytest

from cspelim import (RULES, Deletion, Instance, enforce_ac, format_trace,
                     iter_bits, naive_fixpoint, parse_trace, run_engine,
                     write_trace)
from cspelim.consistency import CAUSE_AC
from cspelim.solver import preprocess
from cspelim.trace import _witness_lines
from conftest import small_random, star_instance, structured_families


def traced_run(seed, rule, ns=False):
    inst = small_random(seed, n=6, d=3, p2=0.45)
    ac, log, ok = enforce_ac(inst)
    if not ok:
        return None
    reduced, entries = naive_fixpoint(ac, rule, ns_interleave=ns)
    return inst, log, entries


def test_round_trip_plain():
    for rule in ("exists-snake", "de-snake", "triangle", "bt-degree", "aebtp"):
        for seed in range(12):
            run = traced_run(seed, rule)
            if run is None:
                continue
            inst, log, entries = run
            text = format_trace(entries, inst, pre_deletions=log)
            back, pre = parse_trace(text, inst)
            assert back == entries, (rule, seed)
            assert pre == log, (rule, seed)


def test_round_trip_with_interleaved_deletions():
    hit = False
    for seed in range(40):
        run = traced_run(seed, "triangle", ns=True)
        if run is None:
            continue
        inst, log, entries = run
        if any(e.deletions for e in entries):
            hit = True
        text = format_trace(entries, inst, pre_deletions=log)
        back, pre = parse_trace(text, inst)
        assert back == entries
        assert pre == log
    assert hit  # at least one run exercised attached deletions


def reference_format_trace(entries, inst, pre_deletions=()):
    """`format_trace` as it was when it spelled one pair per line."""
    out = io.StringIO()
    out.write("TRACE 1\n")
    for d in pre_deletions:
        out.write("del %d %d %s\n" % (d.var, inst.value_name(d.var, d.value), d.cause))
    for entry in entries:
        out.write("elim %s %d\n" % (entry.rule, entry.var))
        for line in _witness_lines(inst, entry):
            out.write(line + "\n")
        names = " ".join(str(inst.value_name(entry.var, v))
                         for v in entry.dom_snapshot)
        out.write("snapvar %d %d %s\n" % (entry.var, len(entry.dom_snapshot), names))
        for j in sorted(entry.rel_snapshot):
            rows = entry.rel_snapshot[j]
            pairs = [(inst.value_name(entry.var, v), inst.value_name(j, b))
                     for v in entry.dom_snapshot
                     for b in iter_bits(rows[v])]
            out.write("snaprel %d %d\n" % (j, len(pairs)))
            for a, b in pairs:
                out.write("%d %d\n" % (a, b))
        for d in entry.deletions:
            out.write("del %d %d %s\n" % (d.var, inst.value_name(d.var, d.value), d.cause))
    out.write("end\n")
    return out.getvalue()


def renamed(inst):
    """`inst` with every value name a written as 3a + 1."""
    doms = [[3 * a + 1 for a in inst.value_names(i)] for i in inst.variables]
    cons = {(i, j): [(3 * inst.value_name(i, v) + 1, 3 * inst.value_name(j, w) + 1)
                     for v in inst.dom(i) for w in iter_bits(inst.row(i, j, v))]
            for i, j in inst.pairs()}
    return Instance.build(doms, cons)


def test_trace_text_matches_the_reference_writer():
    """Every rule's traces, with and without NS, over the structured
    families and seeded random instances (also under shifted value
    names) are written byte for byte as the per-pair writer did."""
    cases = [inst for seed in range(2)
             for inst in structured_families(seed, 12).values()]
    cases += [small_random(seed, n=7, d=3, p2=0.45) for seed in range(16)]
    cases += [renamed(inst) for inst in cases[::3]]
    seen = {"AC del": 0, "umap": 0, "vmap": 0, "shrunk snaprel": 0}
    for rule in RULES:
        for ns in (False, True):
            for case, inst in enumerate(cases):
                _, log, entries, sat, _ = preprocess(inst, rule, ns=ns)
                if not sat:
                    continue
                text = format_trace(entries, inst, pre_deletions=log)
                assert text == reference_format_trace(entries, inst, log), (
                    rule, ns, case)
                seen["AC del"] += bool(log)
                seen["umap"] += "\numap " in text
                seen["vmap"] += "\nvmap " in text
                lost = {d.var for d in log}
                for entry in entries:
                    seen["shrunk snaprel"] += bool(lost & entry.rel_snapshot.keys())
                    lost.update(d.var for d in entry.deletions)
    assert min(seen.values()) >= 5, seen


def test_trace_text_shape(star):
    inst = star_instance(3)
    _, entries = run_engine(inst, "de-snake")
    text = format_trace(entries, inst)
    lines = text.splitlines()
    assert lines[0] == "TRACE 1"
    assert lines[-1] == "end"
    assert lines.count("end") == 1
    assert sum(1 for ln in lines if ln.startswith("elim ")) == len(entries)
    assert "elim de-snake 0" in lines


def test_external_names_on_disk():
    # shifted value names must appear verbatim in the file
    from cspelim import Instance, make_entry
    inst = Instance.build([[7, 9], [4, 6]], {(0, 1): [(7, 4), (9, 6)]})
    entry = make_entry(inst, "singleton", 0, 1)
    text = format_trace([entry], inst)
    assert "snapvar 0 2 7 9" in text
    back, _ = parse_trace(text, inst)
    assert back == [entry]


def test_write_trace_targets(tmp_path, star):
    inst = star_instance(4)
    _, entries = run_engine(inst, "exists-snake")
    path = tmp_path / "trace.txt"
    write_trace(entries, inst, path, pre_deletions=[Deletion(1, 0, CAUSE_AC)])
    back, pre = parse_trace(path.read_text(), inst)
    assert back == entries
    assert pre == [Deletion(1, 0, CAUSE_AC)]
    buf = io.StringIO()
    write_trace(entries, inst, buf)
    assert buf.getvalue() == format_trace(entries, inst)


def test_parse_rejects_bad_traces(star):
    inst = star_instance(3)
    _, entries = run_engine(inst, "de-snake")
    good = format_trace(entries, inst)
    for text in ("nonsense\n", "", "TRACE 1"):
        with pytest.raises(ValueError):
            parse_trace(text, inst)
    with pytest.raises(ValueError):
        parse_trace(good.replace("TRACE 1", "TRACE 2"), inst)
    with pytest.raises(ValueError):
        parse_trace(good.replace("elim de-snake", "elim wat"), inst)
    bad = [
        "TRACE 1\nelim\nend\n",
        "TRACE 1\ndel 0\nend\n",
        "TRACE 1\nelim de-snake 0\numap 1 0 1\nend\n",
        "TRACE 1\nelim exists-snake 0\nwitness 5\nend\n",
        # a snaprel pair whose value of x_0 is missing from snapvar
        good.replace("snapvar 0 2 0 1", "snapvar 0 1 0"),
        "TRACE 1\nelim aebtp 0\nend\n",
        "TRACE 1\nelim triangle 0\nwitness extension\nend\n",
        # a value listed twice in snapvar
        "TRACE 1\nelim exists-snake 1\nwitness 0\nsnapvar 1 2 0 0\nend\n",
        # a second snaprel block toward the same neighbour
        "TRACE 1\nelim exists-snake 1\nwitness 0\nsnapvar 1 2 0 1\n"
        "snaprel 0 1\n0 1\nsnaprel 0 1\n1 0\nend\n",
        # a snaprel toward the eliminated variable itself
        "TRACE 1\nelim exists-snake 1\nwitness 0\nsnapvar 1 2 0 1\n"
        "snaprel 1 0\nend\n",
        # a snaprel before snapvar
        "TRACE 1\nelim exists-snake 1\nwitness 0\nsnaprel 0 0\n"
        "snapvar 1 2 0 1\nend\n",
        # witness values outside the entry's snapvar
        "TRACE 1\nelim singleton 1\nwitness 1\nsnapvar 1 1 0\nend\n",
        "TRACE 1\nelim exists-snake 1\nwitness 1\nsnapvar 1 1 0\nend\n",
        "TRACE 1\nelim de-snake 1\nwitness 1\nsnapvar 1 1 0\nend\n",
        "TRACE 1\nelim triangle 1\nwitness just 2\nvmap 0 1\n"
        "snapvar 1 1 0\nend\n",
        # a variable eliminated twice
        "TRACE 1\nelim exists-snake 1\nwitness 0\nsnapvar 1 2 0 1\n"
        "elim exists-snake 1\nwitness 0\nsnapvar 1 2 0 1\nend\n",
        # a triangle justifier that is the entry's own variable, and one
        # that an earlier entry eliminated
        "TRACE 1\nelim triangle 1\nwitness just 1\nvmap 0 0\nvmap 1 1\n"
        "snapvar 1 2 0 1\nend\n",
        "TRACE 1\nelim exists-snake 2\nwitness 0\nsnapvar 2 2 0 1\n"
        "elim triangle 1\nwitness just 2\nvmap 0 0\nvmap 1 1\n"
        "snapvar 1 2 0 1\nend\n",
        # a snaprel toward a variable an earlier entry eliminated
        "TRACE 1\nelim exists-snake 0\nwitness 0\nsnapvar 0 2 0 1\n"
        "elim exists-snake 1\nwitness 0\nsnapvar 1 2 0 1\n"
        "snaprel 0 1\n0 1\nend\n",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_trace(text, inst)
    # seeded line mutations of valid traces either parse or raise
    # ValueError, never another exception
    goods = []
    for rule, ns in (("de-snake", False), ("triangle", True),
                     ("exists-snake", False), ("aebtp", False)):
        for seed in range(6):
            run = traced_run(seed, rule, ns)
            if run is not None:
                inst, log, entries = run
                goods.append((inst, format_trace(entries, inst, log)))
    tokens = ["0", "1", "2", "-1", "99", "x", "end", "just", "extension",
              "witness", "snaprel", "umap", "vmap", "del", "elim"]
    rng = random.Random(0)
    rejected = 0
    for _ in range(3000):
        inst, text = rng.choice(goods)
        lines = text.splitlines()
        k = rng.randrange(len(lines))
        tok = lines[k].split()
        op = rng.randrange(5)
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(rng.randrange(len(lines)), lines[k])
        elif op == 2:
            lines[k] = " ".join(tok[:-1])
        elif op == 3:
            lines[k] = " ".join(tok + [rng.choice(tokens)])
        else:
            tok[rng.randrange(len(tok))] = rng.choice(tokens)
            lines[k] = " ".join(tok)
        try:
            parse_trace("\n".join(lines) + "\n", inst)
        except ValueError:
            rejected += 1
    assert rejected > 1000, rejected
