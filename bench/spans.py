"""In-memory span recorder and the wrappers that feed it.

The package has no tracing of its own yet, so the traced benchmark run
rebinds module and class attributes of ``cspelim`` to wrappers that
record a span (name, start, end, parent, op id) around each call, or
just count calls where a span would cost more than the call itself.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Recorder:
    """Spans and counters of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None                   # id of the benchmark op running
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def wrap(self, fn, name, on_call=None):
        """`fn` wrapped in a span.  `name` is a string or a function of
        the call's positional arguments; `on_call(args, result)` may
        update counters after a successful call."""
        recorder = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with _Span(recorder, label):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        """`fn` wrapped to count calls under `key` (a string or a
        function of the positional arguments), with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key(args) if callable(key) else key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else None
        rec.spans.append([self.name, time.perf_counter(), None, parent,
                          rec.op])
        rec._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.idx][2] = time.perf_counter()
        rec._stack.pop()
        return False


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its child spans (overlapping children count
    once, parts outside the parent not at all)."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def totals(spans) -> tuple[dict, dict]:
    """(total duration, total self time) per span name."""
    dur: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for span, self_t in zip(spans, self_times(spans)):
        dur[span[0]] += span[2] - span[1]
        own[span[0]] += self_t
    return dur, own


class Patcher:
    """Rebinds attributes and puts the originals back on `restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
