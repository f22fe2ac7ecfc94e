"""Ground-truth machinery: brute-force solving and counting, naive rule
fixpoints, random instance generation, and the verification battery
comparing engines against the naive semantics.

Everything here favours obviousness over speed; size guards raise
instead of silently truncating.  `naive_fixpoint` is a reference only:
it runs in `verify_one` and in tests, never on a production path, and
keeps the full-scope definition that makes it one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .consistency import (NotArcConsistentError, eliminate_variable,
                          enforce_ac, is_arc_consistent, ns_fixpoint)
from .model import Instance
from .patterns import checker_accepts
from .trace import TraceEntry, make_entry

SIZE_GUARD = 10 ** 7


class SizeGuardExceeded(RuntimeError):
    """Exhaustive search refused: the instance is too large."""


def _search_space(inst: Instance) -> int:
    total = 1
    for i in inst.variables:
        total *= inst.dom_size(i)
        if total > SIZE_GUARD:
            return total
    return total


def _guard(inst: Instance) -> None:
    if _search_space(inst) > SIZE_GUARD:
        raise SizeGuardExceeded(
            "search space exceeds %d assignments" % SIZE_GUARD)


# ---------------------------------------------------------------------------
# brute force


def _solutions(inst: Instance):
    """Yield every solution (internal values) by exhaustive backtracking,
    in lexicographic order of the values along ``inst.variables``."""
    _guard(inst)
    order = inst.variables
    if any(not inst.dom(i) for i in order):
        return
    position = {i: p for p, i in enumerate(order)}
    earlier = [[j for j in inst.neighbors(i) if position[j] < p]
               for p, i in enumerate(order)]
    assign: dict = {}
    untried: list = []  # one iterator per assigned variable, in order
    while True:
        if len(untried) == len(order):
            yield dict(assign)
        else:
            untried.append(iter(inst.dom(order[len(untried)])))
        # advance the deepest variable to its next consistent value,
        # backing up past variables whose values are exhausted
        while untried:
            p = len(untried) - 1
            i = order[p]
            assign.pop(i, None)
            v = next((v for v in untried[p]
                      if all((inst.row(i, j, v) >> assign[j]) & 1
                             for j in earlier[p])), None)
            if v is not None:
                assign[i] = v
                break
            untried.pop()
        else:
            return


def brute_force_solve(inst: Instance) -> Optional[dict]:
    """Exhaustive backtracking; a solution dict (internal values) or None."""
    return next(_solutions(inst), None)


def count_solutions(inst: Instance) -> int:
    return sum(1 for _ in _solutions(inst))


def is_solution(inst: Instance, assignment: dict) -> bool:
    """Does the assignment cover every live variable consistently?"""
    live = inst.variables
    if set(assignment) != set(live):
        return False
    for i in live:
        if not (inst.dom_mask(i) >> assignment[i]) & 1:
            return False
    for i, j in combinations(live, 2):
        if not inst.compatible(i, assignment[i], j, assignment[j]):
            return False
    return True


# ---------------------------------------------------------------------------
# naive fixpoint


def naive_fixpoint(inst: Instance, rule: str, ns_interleave: bool = False):
    """Repeatedly eliminate the smallest variable the rule's checker
    accepts, until none.  Returns (reduced instance, trace entries).

    The input must be arc consistent; elimination then never deletes
    values, so the engines and this fixpoint see identical instances.
    With ``ns_interleave`` a neighbourhood-substitution pass follows
    each elimination (its deletions attach to that entry).
    """
    if not is_arc_consistent(inst):
        raise NotArcConsistentError(
            "naive fixpoint requires an arc-consistent instance")
    cur = inst.copy()
    entries: list[TraceEntry] = []
    while True:
        for i in cur.variables:
            witness = checker_accepts(cur, rule, i)
            if witness is None:
                continue
            entries.append(make_entry(cur, rule, i, witness))
            if eliminate_variable(cur, i)[0]:
                raise NotArcConsistentError(
                    "support deletion while eliminating %d from an "
                    "arc-consistent instance" % i)
            if ns_interleave:
                entries[-1] = replace(entries[-1],
                                      deletions=tuple(ns_fixpoint(cur)))
            break
        else:
            return cur, entries


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    d: int
    p1: float
    p2: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.d < 1:
            raise ValueError("need n >= 0 and d >= 1")
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError("p1 and p2 must lie in [0, 1]")


def random_instance(config: GeneratorConfig) -> Instance:
    """Uniform binary model: each unordered pair constrained with
    probability p1; each value pair of a constrained pair forbidden
    with probability p2.  Fully determined by the seed."""
    rng = random.Random(config.seed)
    values = list(range(config.d))
    constraints = {}
    for i, j in combinations(range(config.n), 2):
        if rng.random() < config.p1:
            constraints[(i, j)] = [(a, b) for a in values for b in values
                                   if rng.random() >= config.p2]
    return Instance.build([values] * config.n, constraints)


# ---------------------------------------------------------------------------
# verification battery


def battery_instance(seed: int,
                     n_range=(4, 9), d_range=(2, 4),
                     p1: float = 0.5,
                     p2_choices=(0.3, 0.5, 0.7)) -> Instance:
    """Seeded random instance with parameters drawn from the battery
    ranges (bounds inclusive)."""
    rng = random.Random("battery-%d" % seed)
    n = rng.randint(*n_range)
    d = rng.randint(*d_range)
    p2 = rng.choice(p2_choices)
    return random_instance(GeneratorConfig(n, d, p1, p2, seed=seed))


# consecutive draws that wipe out under AC before the battery gives up;
# the default battery's longest such run in 3,000 draws is 13
MAX_WIPED_DRAWS = 10_000


def battery_ac_instances(count: int, seed: int = 0, **params):
    """Yield (seed, arc-consistent instance) pairs; instances that wipe
    out under AC are skipped (engines require non-empty AC input).
    Raises ValueError after MAX_WIPED_DRAWS wipe-outs in a row, as
    parameters such as p1 = p2 = 1 never give an arc-consistent draw."""
    produced = wiped = 0
    offset = 0
    while produced < count:
        s = seed + offset
        offset += 1
        ac, _, ok = enforce_ac(battery_instance(s, **params))
        if not ok:
            wiped += 1
            if wiped == MAX_WIPED_DRAWS:
                raise ValueError(
                    "%d battery draws in a row wiped out under arc "
                    "consistency with %s" % (wiped, ", ".join(
                        "%s=%r" % kv for kv in params.items())
                        or "the default parameters"))
            continue
        wiped = 0
        produced += 1
        yield s, ac


VERIFY_COLUMNS = ("seed", "rule", "n_eliminated_naive", "n_eliminated_engine",
                  "sat_before", "sat_after", "reconstruction_ok")


def verify_one(ac: Instance, rule: str, seed: int) -> tuple[dict, bool]:
    """Compare engine against naive fixpoint on one AC instance: the
    reduced instances and the whole trace entries, which reconstruction
    reads, must be equal.  Returns (report row, ok flag).

    When the instance is too large to solve by brute force, the row's
    satisfiability columns are empty strings and ok is whether engine
    and fixpoint agree.
    """
    from .engines import run_engine
    from .solver import reconstruct_solution

    naive_inst, naive_entries = naive_fixpoint(ac, rule)
    eng_inst, eng_entries = run_engine(ac, rule)
    agree = naive_inst == eng_inst and naive_entries == eng_entries
    row = {
        "seed": seed,
        "rule": rule,
        "n_eliminated_naive": len(naive_entries),
        "n_eliminated_engine": len(eng_entries),
    }

    try:
        sat_before = brute_force_solve(ac) is not None
        reduced_solution = brute_force_solve(eng_inst)
    except SizeGuardExceeded:
        row.update(sat_before="", sat_after="", reconstruction_ok="")
        return row, agree
    sat_after = reduced_solution is not None

    recon_ok = True
    if sat_after:
        full = reconstruct_solution(ac, eng_entries, reduced_solution)
        recon_ok = is_solution(ac, full)

    row.update(sat_before=int(sat_before), sat_after=int(sat_after),
               reconstruction_ok=int(recon_ok))
    return row, agree and sat_before == sat_after and recon_ok
