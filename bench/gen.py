"""Seeded BCSP instance generator for the benchmark.

Independent of ``cspelim.oracle.random_instance`` on purpose: a change to
the package's own generator must not shift a workload.  Everything here
is a pure function of its arguments (``random.Random(seed)`` only), and
instances are written as text, so one seed always gives byte-identical
files.  Structural parameters (constraint count, forbidden pairs per
constraint) are exact rather than Bernoulli, which keeps the work per
instance close across seeds.
"""

from __future__ import annotations

import random


def _sample_pairs(rng: random.Random, n: int, count: int) -> list:
    """`count` distinct unordered variable pairs, sorted."""
    chosen = set()
    while len(chosen) < count:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            chosen.add((min(i, j), max(i, j)))
    return sorted(chosen)


def _relation(rng: random.Random, dom_i, dom_j, tightness: float,
              keep=None) -> list:
    """Allowed pairs of one constraint: exactly round(tightness * |D_i| *
    |D_j|) pairs are forbidden, never the pair `keep`."""
    pairs = [(a, b) for a in dom_i for b in dom_j]
    candidates = [p for p in pairs if p != keep]
    forbid = set(rng.sample(candidates,
                            min(len(candidates),
                                round(tightness * len(pairs)))))
    return [p for p in pairs if p not in forbid]


def format_bcsp(domains, constraints) -> str:
    """The package's instance text format, written directly."""
    out = ["BCSP 1", "vars %d" % len(domains)]
    for i, dom in enumerate(domains):
        out.append("dom %d %d %s" % (i, len(dom), " ".join(map(str, dom))))
    for (i, j), allowed in sorted(constraints.items()):
        out.append("con %d %d %d" % (i, j, len(allowed)))
        out.extend("%d %d" % p for p in allowed)
    out.append("end")
    return "\n".join(out) + "\n"


def uniform(seed: int, n: int, d: int, e: int, tightness: float) -> str:
    """n variables of domain 0..d-1, e random constraints, each forbidding
    the same number of value pairs."""
    rng = random.Random(seed)
    dom = list(range(d))
    constraints = {pair: _relation(rng, dom, dom, tightness)
                   for pair in _sample_pairs(rng, n, e)}
    return format_bcsp([dom] * n, constraints)


def planted_sparse(seed: int, n: int, d: int, extra: int, tightness: float,
                   singleton_share: float) -> tuple[str, dict]:
    """A random tree plus `extra` chords with a planted solution.

    A `singleton_share` of the variables keep only their planted value;
    no constraint forbids a planted pair, so the instance is satisfiable.
    Returns (text, planted assignment).
    """
    rng = random.Random(seed)
    planted = {i: rng.randrange(d) for i in range(n)}
    singles = set(rng.sample(range(n), round(singleton_share * n)))
    domains = [[planted[i]] if i in singles else list(range(d))
               for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b))
             for a, b in ((order[k], order[rng.randrange(k)])
                          for k in range(1, n))}
    while len(edges) < n - 1 + extra:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    constraints = {(i, j): _relation(rng, domains[i], domains[j], tightness,
                                     keep=(planted[i], planted[j]))
                   for i, j in sorted(edges)}
    return format_bcsp(domains, constraints), planted
