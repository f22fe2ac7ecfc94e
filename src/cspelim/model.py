"""Binary CSP instances.

A binary CSP is a set of variables 0..n-1, a finite integer domain per
variable, and a relation of allowed value pairs for some variable pairs.
Pairs without a declared relation are complete (everything allowed).

Relations are kept as bit rows: for an ordered pair (i, j) and a value
v of x_i, ``row(i, j, v)`` is an int whose bit b is set iff (v, b) is
allowed and b is still in the domain of x_j.  Values are renumbered
0..k-1 internally; the original numbers survive as per-variable value
names and are used by the text format.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import compress
from typing import Iterable, Mapping, Sequence, TextIO, Union


class FormatError(ValueError):
    """Malformed instance text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def iter_bits(mask: int):
    """Iterate set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Instance:
    """A binary CSP over a fixed variable universe.

    Variables and values can be removed (preprocessing mutates through
    ``delete_value`` / ``remove_variable``), but relation rows are never
    rewritten; queries mask deleted values out on the fly.
    """

    __slots__ = ("_active", "_dom", "_mask", "_values", "_rows", "_adj")

    def __init__(self) -> None:
        self._active: set[int] = set()
        self._dom: dict[int, list[int]] = {}
        self._mask: dict[int, int] = {}
        self._values: dict[int, list[int]] = {}  # internal -> external name
        self._rows: dict[tuple[int, int], list[int]] = {}
        self._adj: dict[int, set[int]] = {}

    # -- construction ------------------------------------------------

    @staticmethod
    def build(domains: Sequence[Iterable[int]],
              constraints: Mapping[tuple[int, int], Iterable[tuple[int, int]]] | None = None,
              ) -> "Instance":
        """Build an instance from external-value domains and allowed pairs.

        Args:
            domains: one iterable of distinct non-negative ints per variable.
            constraints: {(i, j): allowed (a, b) external pairs}.  A pair
                declared with an empty list is an explicit always-false
                relation.
        """
        inst = Instance()
        for i, dom in enumerate(domains):
            names = sorted(dom)
            if len(set(names)) != len(names):
                raise ValueError("duplicate value in domain of variable %d" % i)
            if any(v < 0 for v in names):
                raise ValueError("negative value in domain of variable %d" % i)
            inst._active.add(i)
            inst._values[i] = names
            inst._dom[i] = list(range(len(names)))
            inst._mask[i] = (1 << len(names)) - 1
            inst._adj[i] = set()
        if constraints:
            for (i, j), allowed in constraints.items():
                inst._add_relation(i, j, allowed)
        return inst

    def _add_relation(self, i: int, j: int,
                      allowed: Iterable[tuple[int, int]]) -> None:
        if i == j:
            raise ValueError("self constraint on variable %d" % i)
        if i not in self._active or j not in self._active:
            raise ValueError("constraint on unknown variable (%d,%d)" % (i, j))
        if (i, j) in self._rows:
            raise ValueError("duplicate constraint (%d,%d)"
                             % (min(i, j), max(i, j)))
        fwd = [0] * len(self._values[i])
        rev = [0] * len(self._values[j])
        index_i = {v: p for p, v in enumerate(self._values[i])}
        index_j = {v: p for p, v in enumerate(self._values[j])}
        for a, b in allowed:
            if a not in index_i:
                raise ValueError("value %d not in domain of variable %d" % (a, i))
            if b not in index_j:
                raise ValueError("value %d not in domain of variable %d" % (b, j))
            fwd[index_i[a]] |= 1 << index_j[b]
            rev[index_j[b]] |= 1 << index_i[a]
        self._store_relation(i, j, fwd, rev)

    def _store_relation(self, i: int, j: int,
                        fwd: list[int], rev: list[int]) -> None:
        """Store checked rows of a new constraint: fwd[v] is the mask over
        D(x_j) allowed with x_i = v, rev the same from x_j's side."""
        self._rows[(i, j)] = fwd
        self._rows[(j, i)] = rev
        self._adj[i].add(j)
        self._adj[j].add(i)

    def copy(self) -> "Instance":
        dup = Instance()
        dup._active = set(self._active)
        dup._dom = {i: list(d) for i, d in self._dom.items()}
        dup._mask = dict(self._mask)
        dup._values = self._values  # immutable once built
        dup._rows = dict(self._rows)  # row lists are never mutated
        dup._adj = {i: set(s) for i, s in self._adj.items()}
        return dup

    # -- queries -----------------------------------------------------

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self._active))

    @property
    def live(self) -> set[int]:
        """The live variables, read-only: the set ``remove_variable``
        shrinks in place, so a reader holding it sees every removal."""
        return self._active

    @property
    def n(self) -> int:
        return len(self._active)

    @property
    def e(self) -> int:
        """Number of declared (explicit) constraints between live variables."""
        return len(self._rows) // 2

    @property
    def wiped(self) -> bool:
        return any(not self._dom[i] for i in self._active)

    def dom(self, i: int) -> list[int]:
        """Live internal values of x_i, ascending."""
        return self._dom[i]

    def dom_mask(self, i: int) -> int:
        return self._mask[i]

    def dom_size(self, i: int) -> int:
        return len(self._dom[i])

    def max_dom_size(self) -> int:
        return max((len(self._dom[i]) for i in self._active), default=0)

    def neighbors(self, i: int) -> list[int]:
        """Live variables with an explicit constraint to x_i, ascending."""
        return sorted(self._adj[i])

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(key for key in self._rows if key[0] < key[1])

    def row(self, i: int, j: int, v: int) -> int:
        """Mask over live D(x_j) of values allowed with x_i = v."""
        r = self._rows.get((i, j))
        if r is None:
            return self._mask[j]
        return r[v] & self._mask[j]

    @property
    def relations(self) -> dict[tuple[int, int], list[int]]:
        """The stored constraints, read-only: (i, j) maps to one row per
        value v of x_i, the mask over D(x_j) allowed with x_i = v, deleted
        values not masked out.  Both orientations of a pair are keys."""
        return self._rows

    def compatible(self, i: int, v_i: int, j: int, v_j: int) -> bool:
        """True iff (v_i, v_j) is allowed for (x_i, x_j)."""
        if not (self._mask[i] >> v_i) & 1:
            raise ValueError("value %d not in domain of variable %d" % (v_i, i))
        if not (self._mask[j] >> v_j) & 1:
            raise ValueError("value %d not in domain of variable %d" % (v_j, j))
        r = self._rows.get((i, j))
        if r is None:
            return True
        return bool((r[v_i] >> v_j) & 1)

    # -- value names -------------------------------------------------

    def value_name(self, i: int, v: int) -> int:
        return self._values[i][v]

    def value_names(self, i: int) -> list[int]:
        return [self._values[i][v] for v in self._dom[i]]

    def internal_value(self, i: int, name: int) -> int:
        try:
            return self._values[i].index(name)
        except ValueError:
            raise KeyError("variable %d has no value %d" % (i, name)) from None

    # -- mutation ----------------------------------------------------

    def delete_value(self, i: int, v: int) -> None:
        if not (self._mask[i] >> v) & 1:
            raise ValueError("value %d already absent from variable %d" % (v, i))
        self._mask[i] &= ~(1 << v)
        self._dom[i].remove(v)

    def remove_variable(self, i: int) -> None:
        if i not in self._active:
            raise ValueError("variable %d not active" % i)
        self._active.discard(i)
        for j in list(self._adj[i]):
            self._adj[j].discard(i)
            self._rows.pop((i, j), None)
            self._rows.pop((j, i), None)
        self._adj[i] = set()

    # -- comparison --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality is the text: the same `format_instance` output, so
        the same live variables, domains (by external name) and allowed
        pairs, whatever the internal numbering."""
        if not isinstance(other, Instance):
            return NotImplemented
        return format_instance(self) == format_instance(other)

    def __hash__(self):  # instances are mutable; identity hash is fine
        return id(self)

    def __repr__(self) -> str:
        return "Instance(n=%d, e=%d, d=%d)" % (self.n, self.e, self.max_dom_size())


Source = Union[str, os.PathLike, TextIO]


@contextmanager
def open_text(target: Source, mode: str = "r", newline: str | None = None):
    """A UTF-8 text stream for `target`: a path is opened (and closed on
    exit), an open stream is passed through (and left open)."""
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(os.fspath(target), mode, encoding="utf-8", newline=newline) as fh:
        yield fh


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Grammar::

        BCSP 1
        vars <n>
        dom <i> <k> <v_1> ... <v_k>
        con <i> <j> <t>
        <a> <b>            (t allowed pairs)
        end

    Tokens are separated by whitespace.  Blank lines, and lines whose
    first non-blank character is '#', are skipped; a '#' after a token
    is not a comment.  Declared pairs not listed are forbidden;
    undeclared variable pairs are complete.  Nothing after 'end' is read.

    One cursor walks the raw lines.  Each line of a pair block is first
    looked up in a table from the canonical "a b" to its row bits, which
    holds no more entries than the text has lines; a block with any other
    line (a comment, a blank, extra spaces, '+1', '01') is read again
    token by token.
    """
    lines = text.splitlines()
    end = len(lines)
    pos = 0

    def next_tokens() -> tuple[int, list[str]]:
        """The line number and tokens of the next significant line."""
        nonlocal pos
        while pos < end:
            tok = lines[pos].split()
            pos += 1
            if tok and tok[0][0] != "#":
                return pos, tok
        raise FormatError("unexpected end of input", end)

    def ints(tokens: list[str], lineno: int) -> list[int]:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise FormatError("expected integers, got %r" % " ".join(tokens), lineno) from None

    lineno, header = next_tokens()
    if header != ["BCSP", "1"]:
        raise FormatError("expected 'BCSP 1' header", lineno)
    lineno, tok = next_tokens()
    if len(tok) != 2 or tok[0] != "vars":
        raise FormatError("expected 'vars <n>'", lineno)
    n = ints(tok[1:], lineno)[0]
    if n < 0:
        raise FormatError("negative variable count", lineno)

    domains: dict[int, list[int]] = {}
    for _ in range(n):
        lineno, tok = next_tokens()
        if tok[0] != "dom":
            raise FormatError("expected 'dom' line", lineno)
        vals = ints(tok[1:], lineno)
        if len(vals) < 2:
            raise FormatError("truncated dom line", lineno)
        i, k, rest = vals[0], vals[1], vals[2:]
        if not 0 <= i < n:
            raise FormatError("variable %d out of range" % i, lineno)
        if i in domains:
            raise FormatError("duplicate dom line for variable %d" % i, lineno)
        if len(rest) != k:
            raise FormatError("dom line announces %d values, lists %d" % (k, len(rest)), lineno)
        if len(set(rest)) != k:
            raise FormatError("duplicate value in domain of variable %d" % i, lineno)
        if rest and min(rest) < 0:
            raise FormatError("negative value in domain of variable %d" % i, lineno)
        domains[i] = rest

    inst = Instance.build([domains[i] for i in range(n)])
    names = [tuple(inst._values[i]) for i in range(n)]
    # (names of x_i, names of x_j) -> {"a b": (pa, 1 << pb, pb, 1 << pa)}
    tables: dict[tuple[tuple[int, ...], ...], dict[str, tuple]] = {}
    budget = end

    while True:
        lineno, tok = next_tokens()
        if tok == ["end"]:
            break
        if tok[0] != "con":
            raise FormatError("expected 'con' or 'end'", lineno)
        vals = ints(tok[1:], lineno)
        if len(vals) != 3:
            raise FormatError("expected 'con <i> <j> <t>'", lineno)
        i, j, t = vals
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError("constraint variable out of range", lineno)
        if i == j:
            raise FormatError("self constraint on variable %d" % i, lineno)
        if t < 0:
            raise FormatError("negative pair count", lineno)
        if pos + t <= end and (i, j) not in inst._rows:
            ni, nj = key = names[i], names[j]
            table = tables.get(key)
            if table is None and len(ni) * len(nj) <= budget:
                budget -= len(ni) * len(nj)
                table = tables[key] = {
                    "%d %d" % (a, b): (pa, 1 << pb, pb, 1 << pa)
                    for pa, a in enumerate(ni) for pb, b in enumerate(nj)}
            if table is not None:
                fwd, rev = [0] * len(ni), [0] * len(nj)
                try:
                    for pa, bit_b, pb, bit_a in map(table.__getitem__, lines[pos:pos + t]):
                        fwd[pa] |= bit_b
                        rev[pb] |= bit_a
                except KeyError:
                    pass  # not canonical: read the block token by token
                else:
                    pos += t
                    inst._store_relation(i, j, fwd, rev)
                    continue
        allowed = []
        for _ in range(t):
            at, ptok = next_tokens()
            try:
                a, b = map(int, ptok)
            except ValueError:
                ints(ptok, at)  # a bad token is reported first
                raise FormatError("expected '<a> <b>' pair", at) from None
            allowed.append((a, b))
        try:
            inst._add_relation(i, j, allowed)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return inst


def load_instance(source: Source) -> Instance:
    """Load an instance from a path or an open text stream."""
    with open_text(source) as fh:
        return parse_instance(fh.read())


def pair_writer(inst: Instance):
    """``pairs(i, j, rows, values, mask=-1)`` -> (count, text): lines "a b"
    in external names, for each v of x_i in `values` one per set bit b of
    ``rows[v] & mask``, ascending.  A writer spells "a " and "b\\n" once per
    value of each variable it meets (tables linear in the domains); a row
    is one join over its bits with "a " as separator, nothing per pair."""
    heads, tails = {}, {}
    one = "1".__eq__

    def pairs(i: int, j: int, rows, values, mask: int = -1):
        head = heads.get(i) or heads.setdefault(i, ["%d " % a for a in inst._values[i]])
        tail = tails.get(j) or tails.setdefault(j, ["%d\n" % b for b in inst._values[j]])
        blocks = []
        for v in values:
            r = rows[v] & mask
            if r:
                a = head[v]
                # bin(r)[:1:-1] is r's bits, lowest first
                blocks.append(a + a.join(compress(tail, map(one, bin(r)[:1:-1]))))
        text = "".join(blocks)
        return text.count("\n"), text

    return pairs


def format_instance(inst: Instance) -> str:
    """Serialize an instance; renumbers variables to 0..n-1 if needed.

    When renumbering happens a '# source-vars:' comment records the
    original indices in new-index order.  Pairs are written straight from
    the bit rows by one ``pair_writer`` per call, whose name tables die
    with the call, in ascending order of external names: ``build`` sorts
    each domain's names, so internal value order is name order, and the
    live domain and a row's bits are read in ascending order.
    """
    live = list(inst.variables)
    renum = {old: new for new, old in enumerate(live)}
    out = []
    if live != list(range(len(live))):
        out.append("# source-vars: %s\n" % " ".join(map(str, live)))
    out.append("BCSP 1\nvars %d\n" % len(live))
    for old in live:
        names = inst.value_names(old)
        out.append("dom %d %d %s\n" % (renum[old], len(names), " ".join(map(str, names))))
    pairs = pair_writer(inst)
    for i, j in inst.pairs():
        count, text = pairs(i, j, inst._rows[i, j], inst._dom[i], inst._mask[j])
        out.append("con %d %d %d\n" % (renum[i], renum[j], count))
        out.append(text)
    out.append("end\n")
    return "".join(out)


def save_instance(inst: Instance, target: Source) -> None:
    """Write an instance to a path or an open text stream."""
    text = format_instance(inst)
    with open_text(target, "w") as fh:
        fh.write(text)
