"""Trace serialization round-trips and format errors."""

import io

import pytest

from cspelim import (Deletion, enforce_ac, format_trace, naive_fixpoint,
                     parse_trace, run_engine, write_trace)
from cspelim.consistency import CAUSE_AC
from conftest import small_random, star_instance


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
    from cspelim.patterns import SingletonWitness
    inst = Instance.build([[7, 9], [4, 6]], {(0, 1): [(7, 4), (9, 6)]})
    entry = make_entry(inst, "singleton", 0, SingletonWitness(1))
    text = format_trace([entry], inst)
    assert "snapvar 0 2 7 9" in text
    back, _ = parse_trace(text, inst)
    assert back == [entry]


def test_write_trace_targets(tmp_path, star):
    inst = star_instance(4)
    _, entries = run_engine(inst, "exists-snake")
    path = tmp_path / "trace.txt"
    write_trace(entries, inst, path, pre_deletions=[Deletion(1, 0, CAUSE_AC)])
    back, pre = parse_trace(path, inst)
    assert back == entries
    assert pre == [Deletion(1, 0, CAUSE_AC)]
    buf = io.StringIO()
    write_trace(entries, inst, buf)
    assert buf.getvalue() == format_trace(entries, inst)


def test_parse_rejects_bad_traces(star):
    inst = star_instance(3)
    _, entries = run_engine(inst, "de-snake")
    good = format_trace(entries, inst)
    with pytest.raises(ValueError):
        parse_trace("nonsense\n", inst)
    with pytest.raises(ValueError):
        parse_trace(good.replace("TRACE 1", "TRACE 2"), inst)
    with pytest.raises(ValueError):
        parse_trace(good.replace("elim de-snake", "elim wat"), inst)
