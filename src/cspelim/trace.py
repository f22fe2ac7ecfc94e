"""Elimination traces.

A trace is the ordered list of eliminations performed on an instance,
each with its rule, witness, and a snapshot of the eliminated variable's
domain and relation rows at elimination time.  Traces are what solution
reconstruction consumes, in reverse order.

File format (values are written under their external names)::

    TRACE 1
    elim <rule> <var>
    witness <tokens>        # value | value + umap lines | just <j> + vmap lines | extension
    umap <j> <vj> <uj>
    vmap <vj> <vi>
    snapvar <var> <k> <values...>
    snaprel <neighbor> <t>
    <a> <b>                 # t allowed pairs toward that neighbour
    del <var> <value> <cause>
    end
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .consistency import Deletion
from .model import Instance, iter_bits, open_text
from .patterns import (DeSnakeWitness, ExtensionWitness, SingletonWitness,
                       SnakeWitness, TriangleWitness)

TRACE_RULES = ("singleton", "exists-snake", "de-snake", "triangle",
               "bt-degree", "aebtp")


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    var: int
    witness: object
    dom_snapshot: tuple          # eliminated variable's domain (internal)
    rel_snapshot: dict           # neighbour -> {value of var -> mask over neighbour}
    deletions: tuple = ()        # value deletions caused by this elimination


def capture_snapshot(inst: Instance, var: int):
    """Domain and relation rows of `var` toward its current neighbours."""
    dom = tuple(inst.dom(var))
    rels = {j: {v: inst.row(var, j, v) for v in dom}
            for j in inst.neighbors(var)}
    return dom, rels


def make_entry(inst: Instance, rule: str, var: int, witness,
               deletions=()) -> TraceEntry:
    dom, rels = capture_snapshot(inst, var)
    return TraceEntry(rule, var, witness, dom, rels, tuple(deletions))


# ---------------------------------------------------------------------------
# serialization


def _witness_lines(inst: Instance, entry: TraceEntry) -> list[str]:
    w = entry.witness
    name = lambda i, v: str(inst.value_name(i, v))  # noqa: E731
    if isinstance(w, (SnakeWitness, SingletonWitness)):
        return ["witness %s" % name(entry.var, w.value)]
    if isinstance(w, DeSnakeWitness):
        lines = ["witness %s" % name(entry.var, w.value)]
        for (j, v_j), u in sorted(w.u_map.items()):
            lines.append("umap %d %s %s" % (j, name(j, v_j), name(j, u)))
        return lines
    if isinstance(w, TriangleWitness):
        lines = ["witness just %d" % w.justifier]
        for v_j, v_i in sorted(w.v_map.items()):
            lines.append("vmap %s %s" % (name(w.justifier, v_j), name(entry.var, v_i)))
        return lines
    if isinstance(w, ExtensionWitness):
        return ["witness extension"]
    raise TypeError("unknown witness %r" % (w,))


def format_trace(entries, inst: Instance, pre_deletions=()) -> str:
    """Serialize a trace.  `inst` supplies external value names; it must
    share the variable/value universe the entries were produced on."""
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


def write_trace(entries, inst: Instance, target, pre_deletions=()) -> None:
    text = format_trace(entries, inst, pre_deletions)
    with open_text(target, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# parsing


# tokens per line, for the kinds whose lines have a fixed length
_ARITY = {"elim": 3, "umap": 4, "vmap": 3, "snaprel": 3, "del": 4}


def parse_trace(source, inst: Instance):
    """Parse a trace file against the instance it was produced from.

    Returns (entries, pre_deletions): deletions logged before the first
    elimination come back separately, later ones attach to their entry.
    Raises ValueError on a malformed trace.
    """
    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        with open_text(source) as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split() != ["TRACE", "1"]:
        raise ValueError("missing TRACE 1 header")
    pos = 1

    def internal(i, name):
        try:
            return inst.internal_value(i, name)
        except KeyError:
            raise ValueError("trace names value %d of variable %d, which "
                             "the instance lacks" % (name, i)) from None

    def deletion(tok):
        var = int(tok[1])
        return Deletion(var, internal(var, int(tok[2])), tok[3])

    entries: list[TraceEntry] = []
    pre_deletions: list[Deletion] = []

    def flush(current):
        if current is not None:
            if current[2] is None or current[3] is None:
                raise ValueError("elim of %d lacks its witness or snapvar "
                                 "line" % current[1])
            entries.append(TraceEntry(*current[:5], tuple(current[5])))

    current = None  # [rule, var, witness, dom, rels, deletions]
    while pos < len(lines):
        tok = lines[pos].split()
        pos += 1
        if tok == ["end"]:
            flush(current)
            return entries, pre_deletions
        kind = tok[0]
        if len(tok) != _ARITY.get(kind, len(tok)):
            raise ValueError("wrong token count in trace line %r"
                             % " ".join(tok))
        if kind == "elim":
            flush(current)
            rule, var = tok[1], int(tok[2])
            if rule not in TRACE_RULES:
                raise ValueError("unknown rule %r in trace" % rule)
            current = [rule, var, None, None, {}, []]
        elif current is None:
            if kind != "del":
                raise ValueError("unexpected %r before first elim" % kind)
            pre_deletions.append(deletion(tok))
        elif kind == "witness":
            rule, var, arg = current[0], current[1], tok[1:]
            if rule in ("bt-degree", "aebtp") and arg == ["extension"]:
                current[2] = ExtensionWitness()
            elif rule == "triangle" and len(arg) == 2 and arg[0] == "just":
                current[2] = TriangleWitness(int(arg[1]), {})
            elif rule == "singleton" and len(arg) == 1:
                current[2] = SingletonWitness(internal(var, int(arg[0])))
            elif rule == "exists-snake" and len(arg) == 1:
                current[2] = SnakeWitness(internal(var, int(arg[0])))
            elif rule == "de-snake" and len(arg) == 1:
                current[2] = DeSnakeWitness(internal(var, int(arg[0])), {})
            else:
                raise ValueError("bad %s witness %r" % (rule, " ".join(arg)))
        elif kind == "umap":
            if not isinstance(current[2], DeSnakeWitness):
                raise ValueError("umap line outside a de-snake witness")
            j = int(tok[1])
            current[2].u_map[(j, internal(j, int(tok[2])))] = internal(j, int(tok[3]))
        elif kind == "vmap":
            w = current[2]
            if not isinstance(w, TriangleWitness):
                raise ValueError("vmap line outside a triangle witness")
            w.v_map[internal(w.justifier, int(tok[1]))] = internal(current[1], int(tok[2]))
        elif kind == "snapvar":
            if len(tok) < 3 or int(tok[2]) != len(tok) - 3:
                raise ValueError("snapvar length mismatch")
            var = int(tok[1])
            if var != current[1]:
                raise ValueError("snapvar for %d inside elim of %d" % (var, current[1]))
            current[3] = tuple(internal(var, int(t)) for t in tok[3:])
        elif kind == "snaprel":
            j, t = int(tok[1]), int(tok[2])
            if not 0 <= t <= len(lines) - pos:
                raise ValueError("snaprel count %d out of range" % t)
            rows = dict.fromkeys(current[3] or (), 0)
            for ptok in map(str.split, lines[pos:pos + t]):
                if len(ptok) != 2:
                    raise ValueError("bad snaprel pair %r" % " ".join(ptok))
                a = internal(current[1], int(ptok[0]))
                b = internal(j, int(ptok[1]))
                if a not in rows:
                    raise ValueError("snaprel value %d outside snapvar" % a)
                rows[a] |= 1 << b
            pos += t
            current[4][j] = rows
        elif kind == "del":
            current[5].append(deletion(tok))
        else:
            raise ValueError("unexpected trace line %r" % " ".join(tok))
    raise ValueError("trace missing final 'end'")
