"""Command-line front end.

Subcommands: ``preprocess`` (arc consistency, singleton removal, one
elimination rule to fixpoint, trace output), ``solve`` (preprocessing
plus MAC search with restarts), ``verify`` (randomized battery checking
the incremental engines against the naive semantics), and ``compare``
(per-rule elimination counts and histograms over instance files).
``preprocess``, ``solve`` and ``compare`` reduce through `solver.preprocess`,
and ``solve`` calls `solver.solve_with_preprocessing` for every ``--rule``.

Exit codes: 0 solved/reduced, 20 unsatisfiable, 2 timeout, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from collections import Counter

# uncalled: `bench/layers.py` times the names here and is their only reader
from .consistency import eliminate_singletons, enforce_ac  # noqa: F401
from .engines import run_engine  # noqa: F401
from .solver import mac_solve  # noqa: F401
from .model import load_instance, open_text, save_instance
from .oracle import (SIZE_GUARD, VERIFY_COLUMNS, battery_ac_instances,
                     verify_one)
from .patterns import RULES
from .solver import (SearchConfig, TimeBudgetExceeded, preprocess,
                     solve_with_preprocessing)
from .trace import write_trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_UNSAT = 20


def _write_lines(path, lines) -> None:
    with open_text(path or sys.stdout, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args) -> int:
    inst = load_instance(args.input)
    cur, ac_log, entries, sat, times = preprocess(inst, args.rule, args.ns)
    if args.out:
        save_instance(cur, args.out)
    if args.trace:
        write_trace(entries, inst, args.trace, pre_deletions=ac_log)

    counts = Counter(entry.rule for entry in entries)
    counts.setdefault(args.rule, 0)
    total = sum(counts.values())
    if cur.n + total != inst.n:
        raise AssertionError("report arithmetic: %d + %d != %d"
                             % (cur.n, total, inst.n))
    if any(t < 0 for t in times.values()):
        raise AssertionError("negative stage time")
    deleted = len(ac_log) + sum(len(e.deletions) for e in entries)
    print("instance %s" % args.input)
    print("rule %s" % args.rule)
    print("vars-before %d" % inst.n)
    print("vars-after %d" % cur.n)
    print("values-deleted %d" % deleted)
    for name in sorted(counts):
        print("eliminations %s %d" % (name, counts[name]))
    for stage in sorted(times):
        print("time-%s %.6f" % (stage, times[stage]))
    print("verdict %s" % ("reduced" if sat else "unsat"))
    return EXIT_OK if sat else EXIT_UNSAT


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    cfg = SearchConfig(initial_backtracks=args.backtracks,
                       restart_factor=args.factor,
                       time_limit=args.time_limit)
    log = [] if args.log else None
    code = EXIT_OK
    solution = None
    try:
        solution = solve_with_preprocessing(inst, args.rule, cfg, log)
        verdict = "sat" if solution is not None else "unsat"
        code = EXIT_OK if solution is not None else EXIT_UNSAT
    except TimeBudgetExceeded:
        verdict = "timeout"
        code = EXIT_TIMEOUT
    if args.log:
        _write_lines(args.log, log)
    lines = [verdict]
    if solution is not None:
        for i in sorted(solution):
            lines.append("v %d %d" % (i, inst.value_name(i, solution[i])))
    _write_lines(args.out, lines)
    return code


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    for name, low, high in (("n", args.n_min, args.n_max),
                            ("d", args.d_min, args.d_max)):
        if low > high:
            raise ValueError("--%s-min %d is above --%s-max %d"
                             % (name, low, name, high))
    if args.count < 0:
        raise ValueError("--count %d is below 0" % args.count)
    rows = []
    all_ok = True
    params = dict(n_range=(args.n_min, args.n_max),
                  d_range=(args.d_min, args.d_max),
                  p1=args.p1, p2_choices=tuple(args.p2))
    for seed, ac in battery_ac_instances(args.count, args.seed, **params):
        for rule in args.rules:
            row, ok = verify_one(ac, rule, seed)
            rows.append(row)
            if not ok:
                print("verify: discrepancy at seed %d rule %s" % (seed, rule),
                      file=sys.stderr)
                all_ok = False
            elif row["sat_before"] == "":
                print("verify: seed %d rule %s: search space exceeds %d "
                      "assignments; traces compared only"
                      % (seed, rule, SIZE_GUARD), file=sys.stderr)

    with open_text(args.out or sys.stdout, "w", newline="") as target:
        writer = csv.DictWriter(target, fieldnames=VERIFY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK if all_ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# compare


def _histogram(values) -> str:
    counts = Counter(min(v, 100) for v in values)
    return ";".join("%d:%d" % item for item in sorted(counts.items()))


def cmd_compare(args) -> int:
    rows = []
    for path in args.instances:
        inst = load_instance(path)
        for rule in args.rules:
            eliminated = [entry.var for entry in preprocess(inst, rule)[2]]
            pct = 100.0 * len(eliminated) / inst.n if inst.n else 0.0
            rows.append((path, rule, inst.n, len(eliminated), "%.1f" % pct,
                         _histogram(inst.dom_size(i) for i in eliminated),
                         _histogram(len(inst.neighbors(i)) for i in eliminated)))

    with open_text(args.out or sys.stdout, "w", newline="") as target:
        writer = csv.writer(target)
        writer.writerow(("instance", "rule", "n", "eliminated", "pct",
                         "dom_hist", "deg_hist"))
        writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: building
    it costs about ten times as much as parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="cspelim",
        description="Satisfiability-conserving variable elimination for "
                    "binary constraint networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="reduce an instance with one elimination rule")
    p.add_argument("input", help="BCSP instance file")
    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("--out", help="write the reduced instance here")
    p.add_argument("--trace", help="write the elimination trace here")
    p.add_argument("--ns", action="store_true",
                   help="interleave neighbourhood substitution after each "
                        "elimination")

    p = sub.add_parser("solve", help="preprocess then run MAC with restarts")
    p.add_argument("input", help="BCSP instance file")
    p.add_argument("--rule", default="none", choices=RULES + ("none",))
    p.add_argument("--backtracks", type=int, default=100,
                   help="backtrack budget of the first restart")
    p.add_argument("--factor", type=float, default=1.1,
                   help="geometric growth factor of the budget")
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock limit in seconds")
    p.add_argument("--log", help="write the search log here")
    p.add_argument("--out", help="write the solution file here (default stdout)")

    p = sub.add_parser("verify",
                       help="randomized engine-vs-reference battery")
    p.add_argument("--rules", nargs="+", choices=RULES, default=list(RULES))
    p.add_argument("--count", type=int, default=500,
                   help="number of arc-consistent instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--p2", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    p.add_argument("--out", help="write the CSV report here (default stdout)")

    p = sub.add_parser("compare",
                       help="per-rule elimination counts over instance files")
    p.add_argument("instances", nargs="+", help="BCSP instance files")
    p.add_argument("--rules", nargs="+", choices=RULES, default=list(RULES))
    p.add_argument("--out", help="write the CSV report here (default stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        # looked up at call time, so a rebound `cmd_*` is the one called
        return globals()["cmd_" + args.command](args)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
