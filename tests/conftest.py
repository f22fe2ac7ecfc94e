"""Shared instance builders, and the fixture that certifies engine
witnesses against the definitional checkers.

Values are encoded as small integers.  Encodings used by the canonical
fixtures are noted next to each builder so the assertions elsewhere can
be read against them.
"""

import random

import pytest

from cspelim import ENGINES, GeneratorConfig, Instance, random_instance
from cspelim.patterns import checker_accepts


@pytest.fixture(scope="module")
def certified_witnesses():
    """Every engine elimination in the module is certified: the witness
    the engine reads off its tables must equal the one its rule's checker
    finds on the instance as it stands.  The extension rules' checkers
    run over x_i's neighbours, which gives the full answer on the
    arc-consistent instances engines run on (see `check_aebtp`)."""
    def certified(witness, rule):
        def certified_witness(engine, i):
            found = witness(engine, i)
            inst = engine.inst
            among = (inst.neighbors(i) if rule in ("aebtp", "bt-degree")
                     else None)
            assert found == checker_accepts(inst, rule, i, among=among), \
                "engine tables give %r for %d under %s but the checker " \
                "disagrees" % (found, i, rule)
            return found
        return certified_witness

    with pytest.MonkeyPatch.context() as mp:
        # on each rule's class, as `EngineRecorder` wraps its methods
        for rule, cls in ENGINES.items():
            mp.setattr(cls, "witness", certified(cls.witness, rule))
        yield


def broken_triangle_instance() -> Instance:
    """Three variables forming a single broken triangle on x2.

    x0 = {a=0}, x1 = {b=0}, x2 = {c=0, d=1}; allowed pairs
    x0-x1 {(a,b)}, x0-x2 {(a,c)}, x1-x2 {(b,d)}.  Not arc consistent:
    propagation wipes x2.
    """
    return Instance.build(
        [[0], [0], [0, 1]],
        {(0, 1): [(0, 0)], (0, 2): [(0, 0)], (1, 2): [(0, 1)]})


def broken_tetrahedron_instance() -> Instance:
    """Singleton base variables x0={vi=0}, x1={vj=0}, x2={vk=0} plus
    x3 = {u=0, u'=1, u''=2}; the base is pairwise compatible and each
    apex value conflicts with exactly one base variable."""
    return Instance.build(
        [[0], [0], [0], [0, 1, 2]],
        {(0, 1): [(0, 0)], (0, 2): [(0, 0)], (1, 2): [(0, 0)],
         (0, 3): [(0, 0), (0, 1)],
         (1, 3): [(0, 0), (0, 2)],
         (2, 3): [(0, 1), (0, 2)]})


def degree_gap_instance() -> Instance:
    """x0 = {vi=0}, x1 = {vj1=0, vj2=1}, x2 = {vm=0, vm1=1, vm2=2}.
    x2 passes the along-degree test but fails the extension test; vm has
    no support at x0, so the raw instance is not arc consistent."""
    return Instance.build(
        [[0], [0, 1], [0, 1, 2]],
        {(0, 1): [(0, 0), (0, 1)],
         (1, 2): [(0, 0), (0, 1), (1, 0), (1, 2)],
         (0, 2): [(0, 1), (0, 2)]})


def star_instance(n: int) -> Instance:
    """Center x0 with n-1 leaves, all domains {0, 1}, every center-leaf
    relation an inequality; leaves mutually unconstrained.  Exactly two
    solutions (the two proper 2-colourings)."""
    neq = [(0, 1), (1, 0)]
    return Instance.build([[0, 1]] * n,
                          {(0, k): neq for k in range(1, n)})


def pendant_chain_instance() -> Instance:
    """Chain x0 - x1 - x2 over {0,1,2}: x0-x1 inequality, x1-x2
    equality.  x0 and x2 each have exactly one neighbour."""
    neq = [(a, b) for a in range(3) for b in range(3) if a != b]
    eq = [(a, a) for a in range(3)]
    return Instance.build([[0, 1, 2]] * 3, {(0, 1): neq, (1, 2): eq})


def clique_instance(n: int, d: int) -> Instance:
    """Pairwise-inequality clique: unsatisfiable whenever n > d."""
    neq = [(a, b) for a in range(d) for b in range(d) if a != b]
    return Instance.build([list(range(d))] * n,
                          {(i, j): neq for i in range(n) for j in range(i + 1, n)})


def clone_pair_instance() -> Instance:
    """x0 and x1 are interchangeable clones (equality between them and
    identical rows elsewhere); each justifies eliminating the other."""
    return Instance.build(
        [[0, 1]] * 4,
        {(0, 1): [(0, 0), (1, 1)],
         (0, 2): [(0, 0), (0, 1), (1, 0)],
         (1, 2): [(0, 0), (0, 1), (1, 0)],
         (2, 3): [(0, 1), (1, 0), (1, 1)]})


def random_tree_instance(n: int, d: int, seed: int) -> Instance:
    """Random tree shape with random non-empty relations on the edges."""
    rng = random.Random(seed)
    constraints = {}
    for child in range(1, n):
        parent = rng.randrange(child)
        pairs = [(a, b) for a in range(d) for b in range(d)
                 if rng.random() < 0.6]
        if not pairs:
            pairs = [(rng.randrange(d), rng.randrange(d))]
        constraints[(parent, child)] = pairs
    return Instance.build([list(range(d))] * n, constraints)


def disjoint_union(a: Instance, b: Instance) -> Instance:
    """Two unconnected components: b's variables renumbered after a's.
    Both inputs must use values 0..k-1 (internal = external)."""
    domains = []
    constraints = {}
    for inst in (a, b):
        renum = {old: len(domains) + new
                 for new, old in enumerate(inst.variables)}
        domains += [inst.dom(i) for i in inst.variables]
        for i, j in inst.pairs():
            constraints[(renum[i], renum[j])] = [
                (v, w) for v in inst.dom(i) for w in inst.dom(j)
                if inst.compatible(i, v, j, w)]
    return Instance.build(domains, constraints)


def _relation(rng: random.Random, d: int, p2: float) -> list:
    """Value pairs over 0..d-1, each forbidden with probability p2; with
    p2 = 0 every row is full."""
    return [(a, b) for a in range(d) for b in range(d)
            if rng.random() >= p2]


def _sparse_constraints(rng: random.Random, n: int, d: int,
                        tightness=(0.0, 0.25, 0.4)) -> dict:
    """About 1.5n random edges, each with a tightness drawn from
    `tightness`."""
    constraints = {}
    for _ in range(3 * n // 2):
        i, j = sorted(rng.sample(range(n), 2))
        constraints[(i, j)] = _relation(rng, d, rng.choice(tightness))
    return constraints


def _with_clones(rng: random.Random, n: int, d: int, clones: int) -> dict:
    """Sparse random constraints over n - clones variables, then each
    further variable copies every current relation of an earlier one,
    so the two have identical rows everywhere else; half the pairs are
    also tied by equality."""
    base = n - clones
    constraints = _sparse_constraints(rng, base, d)
    for c in range(base, n):
        s = rng.randrange(c)
        for (a, b), allowed in list(constraints.items()):
            if a == s:
                constraints[(b, c)] = [(w, v) for v, w in allowed]
            elif b == s:
                constraints[(a, c)] = list(allowed)
        if rng.random() < 0.5:
            constraints[(s, c)] = [(v, v) for v in range(d)]
    return constraints


def structured_families(seed: int, n: int, d: int = 3) -> dict:
    """One seeded instance of about n variables per structured family,
    domains 0..d-1:

    - star: a centre constrained to every leaf, leaves unconstrained;
    - clique: n // 2 variables, every pair loosely constrained;
    - clones: sparse random with n // 4 clone variables (`_with_clones`);
    - union: two disjoint halves, a star and a sparse instance;
    - sparse: about 1.5n edges, a third of them declared with full rows.
    """
    rng = random.Random("structured-%d-%d-%d" % (seed, n, d))
    doms = [list(range(d))] * n
    half = n // 2
    star = {(0, k): _relation(rng, d, rng.choice((0.0, 0.3)))
            for k in range(1, n)}
    clique = {(i, j): _relation(rng, d, 0.1)
              for i in range(half) for j in range(i + 1, half)}
    union = disjoint_union(
        Instance.build(doms[:half], {key: star[key] for key in star
                                     if key[1] < half}),
        Instance.build(doms[half:],
                       _sparse_constraints(rng, n - half, d)))
    return {
        "star": Instance.build(doms, star),
        "clique": Instance.build(doms[:half], clique),
        "clones": Instance.build(doms, _with_clones(rng, n, d, n // 4)),
        "union": union,
        "sparse": Instance.build(doms, _sparse_constraints(rng, n, d)),
    }


def small_random(seed: int, n: int = 6, d: int = 3,
                 p1: float = 0.5, p2: float = 0.4) -> Instance:
    return random_instance(GeneratorConfig(n, d, p1, p2, seed=seed))


@pytest.fixture
def bt_inst():
    return broken_triangle_instance()


@pytest.fixture
def tetra_inst():
    return broken_tetrahedron_instance()


@pytest.fixture
def gap_inst():
    return degree_gap_instance()


@pytest.fixture
def star():
    return star_instance


@pytest.fixture
def pendant_inst():
    return pendant_chain_instance()
