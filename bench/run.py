#!/usr/bin/env python3
"""cspelim benchmark: per-rule preprocess and solve time on seeded
workloads, with a traced per-layer breakdown.

Run from the repository root:

    python3 bench/run.py --workload mid --seed 0 --seconds 45 --trace 0

The instances come from the benchmark's own generator (``gen.py``); the
package sees only the files.  Every op is one in-process call of the
public front end, ``cspelim.cli.main([...])``, timed with tracing off.
``--trace 1`` instead makes one untraced and one traced pass over the
same ops and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it are a readable summary.
The exit code is 0 when every correctness check passed, 1 when one
failed and 2 when the package cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Recorder  # noqa: E402

RULES = layers.RULES
SOLVE_RULES = ("none", "de-snake")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SOLVE_TIME_LIMIT = 60.0     # seconds; far above the slowest op of any seed
MEMORY_CASES = 2            # instances per rule in the tracemalloc pass
MIN_OP_SECONDS = 0.25       # short ops are repeated up to this much time
MAX_REPS = 5

END_TO_END = ([["setup_s", "s"]]
              + [["preprocess_s." + r, "s"] for r in RULES]
              + [["solve_s." + r, "s"] for r in SOLVE_RULES]
              + [["peak_rss_mb", "MB"]])


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Case:
    """One generated instance file and the ops run on it."""
    name: str
    text: str
    ops: tuple                      # of (command, rule)
    planted: bool = False


ALL_OPS = (tuple(("preprocess", r) for r in RULES)
           + tuple(("solve", r) for r in SOLVE_RULES))
SOLVE_OPS = tuple(("solve", r) for r in SOLVE_RULES)
SNAKE_OPS = (("preprocess", "exists-snake"), ("preprocess", "de-snake"))


def _spread(*groups) -> list:
    """Merge case lists so that each group's cases sit evenly across a
    pass: a slow spell of the machine then hits every metric alike."""
    keyed = [((k + 0.5) / len(group), g, case)
             for g, group in enumerate(groups)
             for k, case in enumerate(group)]
    return [case for _, _, case in sorted(keyed, key=lambda t: t[:2])]


def _mid(seed: int) -> list:
    """n=40 throughout, two families.

    Elimination cases e00-e11: even ones dense (d=10, e=3.2n, 35% of the
    value pairs forbidden), odd ones loose (d=4..6, e=1.5n..2n, 20-25%
    forbidden, stepping with the index); every op runs on them.

    Search cases s00-s19: d=8, a quarter of all pairs constrained,
    tightness stepping through 0.28 (satisfiable) and 0.37, 0.38
    (unsatisfiable after some search), either side of the threshold
    near 0.33.  Both solves run on all of them; the preprocess rules,
    which only initialise here, on the first four.
    """
    elim = []
    for k in range(12):
        key = "mid/%d/e%d" % (seed, k)
        if k % 2 == 0:
            text = gen.uniform(key, 40, 10, 128, 0.35)
        else:
            step = (k // 2) % 3
            text = gen.uniform(key, 40, 4 + step,
                               round(40 * (1.5 + 0.25 * step)),
                               0.20 + 0.025 * step)
        elim.append(Case("e%02d" % k, text, ALL_OPS))
    ladder = (0.28, 0.37, 0.38, 0.37)
    search = []
    for k in range(20):
        text = gen.uniform("mid/%d/s%d" % (seed, k), 40, 8, 195,
                           ladder[k % len(ladder)])
        search.append(Case("s%02d" % k, text,
                           ALL_OPS if k < 4 else SOLVE_OPS))
    return _spread(elim, search)


def _large_sparse(seed: int) -> list:
    """Planted trees plus n/5 chords, d=4, a quarter singletons.  Three
    cases at n=600 run the snake rules and both solves; five at n=80
    run everything, because bt-degree takes minutes per op at n=600
    today and triangle builds tables for every pair of variables."""
    large = [Case("L%d" % k, gen.planted_sparse(
                      "large-sparse/%d/L%d" % (seed, k), 600, 4, 120, 0.3,
                      0.25)[0], SNAKE_OPS + SOLVE_OPS, True)
             for k in range(3)]
    small = [Case("M%d" % k, gen.planted_sparse(
                      "large-sparse/%d/M%d" % (seed, k), 80, 4, 16, 0.3,
                      0.25)[0], ALL_OPS, True)
             for k in range(5)]
    return _spread(large, small)


def _deep_mac(seed: int) -> list:
    """One n=2000 planted sparse case, solved with and without
    preprocessing.  MAC on the raw instance recurses once per variable
    and fails with RecursionError today; this workload exists to show
    that failure, so it is not in BENCHMARK.json."""
    text, _ = gen.planted_sparse("deep-mac/%d" % seed, 2000, 4, 400, 0.3, 0.25)
    return [Case("D0", text, SOLVE_OPS, True)]


WORKLOADS = {
    "mid": _mid,
    "large-sparse": _large_sparse,
    "deep-mac": _deep_mac,
}


# ---------------------------------------------------------------------------
# ops


@dataclass
class Outcome:
    """One attempt of one op."""
    seconds: float
    error: str | None = None        # None when the op succeeded
    report: str = ""                # the CLI's standard output


def op_key(case: Case, op) -> str:
    return "%s/%s/%s" % (case.name, op[0], op[1])


def op_paths(case_dir: str, case: Case, op) -> dict:
    stem = os.path.join(case_dir, "%s.%s.%s" % (case.name, op[0], op[1]))
    return {"out": stem + ".out", "trace": stem + ".trace",
            "log": stem + ".log"}


def op_argv(case_dir: str, case: Case, op) -> list:
    src = os.path.join(case_dir, case.name + ".bcsp")
    paths = op_paths(case_dir, case, op)
    if op[0] == "preprocess":
        return ["preprocess", src, "--rule", op[1], "--out", paths["out"],
                "--trace", paths["trace"]]
    return ["solve", src, "--rule", op[1], "--time-limit",
            str(SOLVE_TIME_LIMIT), "--log", paths["log"], "--out",
            paths["out"]]


def run_cli(main, argv) -> Outcome:
    """Time one ``cspelim`` call.  Exit codes 0 (done) and 20 (unsat)
    are successes; anything else, or an exception, is a failure."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # counted as a failed op, never fatal
        return Outcome(time.perf_counter() - t0, type(exc).__name__)
    seconds = time.perf_counter() - t0
    if code not in (0, 20):
        return Outcome(seconds, "exit %d" % code, buf.getvalue())
    return Outcome(seconds, None, buf.getvalue())


def repeat(once, max_reps: int) -> Outcome:
    """Run an op until it has taken MIN_OP_SECONDS in all, at most
    `max_reps` times, and keep the median time.  Short ops are the ones
    a noisy machine distorts most; repeating them costs little."""
    runs = []
    while True:
        outcome = once()
        runs.append(outcome)
        if (outcome.error is not None or len(runs) >= max_reps
                or sum(r.seconds for r in runs) >= MIN_OP_SECONDS):
            break
    return Outcome(statistics.median(r.seconds for r in runs), outcome.error,
                   outcome.report)


def measure(keys, runner, seconds: float) -> dict:
    """Run every key once, then keep cycling through them in order until
    `seconds` have passed since the start, so a short pass is repeated
    and the last repetition may be partial.  Returns {key: [Outcome,
    ...]}, each key's outcomes in the order they ran."""
    samples = {key: [] for key in keys}
    start = time.perf_counter()
    while True:
        for key in keys:
            if samples[key] and time.perf_counter() - start >= seconds:
                return samples
            samples[key].append(runner(key))


@dataclass
class Timing:
    value: float | None             # None when no op of the metric succeeded
    ops: int                        # successful ops summed into value


def summarise(samples, metric_of) -> tuple[dict, int, int]:
    """Per metric, the sum over its successful ops of each op's median
    time.  An op that failed in any attempt is left out of the sums.
    Returns ({metric: Timing}, attempted, failed)."""
    attempted = failed = 0
    timings: dict = {}
    for key, outcomes in samples.items():
        attempted += len(outcomes)
        bad = sum(1 for o in outcomes if o.error is not None)
        failed += bad
        t = timings.setdefault(metric_of(key), Timing(None, 0))
        if not bad:
            t.value = (t.value or 0.0) + statistics.median(
                o.seconds for o in outcomes)
            t.ops += 1
    return timings, attempted, failed


# ---------------------------------------------------------------------------
# correctness


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def inputs_digest(cases) -> str:
    return _digest(*[c.name + "\n" + c.text for c in cases])


def elim_sequence(trace_text: str) -> str:
    """The `elim <rule> <var>` lines of a trace, in order."""
    return "\n".join(line for line in trace_text.splitlines()
                     if line.startswith("elim "))


def verdict_of(command: str, report: str, out_text: str) -> str:
    if command == "preprocess":
        lines = [ln for ln in report.splitlines() if ln.startswith("verdict ")]
        return lines[-1].split()[1] if lines else ""
    return out_text.split("\n", 1)[0].strip()


def op_digest(command: str, report: str, out_text: str,
              trace_text: str) -> str:
    """Elimination sequence, reduced instance and verdict of a
    preprocess op; the verdict of a solve op (any valid solution may
    be found, so solutions are checked, not pinned)."""
    verdict = verdict_of(command, report, out_text)
    if command == "preprocess":
        return _digest(elim_sequence(trace_text), out_text, verdict)
    return _digest(verdict)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def check_op(pkg, original, case: Case, op, outcome: Outcome,
             paths: dict) -> tuple[str, list]:
    """Digest of one successful op and the problems its outputs show."""
    problems = []
    out_text = _read(paths["out"])
    trace_text = _read(paths["trace"]) if op[0] == "preprocess" else ""
    where = "%s %s %s" % (case.name, op[0], op[1])
    if op[0] == "preprocess":
        reported = sum(int(ln.split()[2]) for ln in outcome.report.splitlines()
                       if ln.startswith("eliminations "))
        try:
            parsed = len(pkg.parse_trace(trace_text, original)[0])
        except (ValueError, KeyError, IndexError) as exc:
            parsed = "unparsable (%s)" % exc
        if parsed != reported:
            problems.append("%s: trace has %s elim entries, report says %d"
                            % (where, parsed, reported))
    else:
        verdict = verdict_of("solve", "", out_text)
        if verdict == "sat":
            try:
                assignment = {}
                for line in out_text.splitlines()[1:]:
                    _, var, name = line.split()
                    assignment[int(var)] = original.internal_value(int(var),
                                                                   int(name))
                valid = pkg.is_solution(original, assignment)
            except (ValueError, KeyError):
                valid = False
            if not valid:
                problems.append("%s: solution fails is_solution" % where)
        elif verdict != "unsat":
            problems.append("%s: verdict %r" % (where, verdict))
        if case.planted and verdict != "sat":
            problems.append("%s: planted instance came out %s"
                            % (where, verdict))
    return op_digest(op[0], outcome.report, out_text, trace_text), problems


def check_pass(pkg, case_dir, cases, results) -> tuple[dict, list]:
    """Check every successful op of one pass.  Returns ({op key:
    digest}, problems)."""
    digests, problems = {}, []
    for case in cases:
        original = pkg.load_instance(os.path.join(case_dir,
                                                  case.name + ".bcsp"))
        verdicts = {}
        for op in case.ops:
            outcome = results[op_key(case, op)]
            if outcome.error is not None:
                continue
            paths = op_paths(case_dir, case, op)
            digest, found = check_op(pkg, original, case, op, outcome, paths)
            digests[op_key(case, op)] = digest
            problems.extend(found)
            if op[0] == "solve":
                verdicts[op[1]] = verdict_of("solve", "", _read(paths["out"]))
        if len(set(verdicts.values())) > 1:
            problems.append("%s: solve verdicts disagree %r"
                            % (case.name, verdicts))
    return digests, problems


def compare_digests(expected: dict, inputs: str, ops: dict) -> list:
    problems = []
    if expected.get("inputs") != inputs:
        problems.append("input digest %s, expected %s"
                        % (inputs, expected.get("inputs")))
    for key, digest in sorted(ops.items()):
        if expected.get("ops", {}).get(key) != digest:
            problems.append("output digest mismatch at %s" % key)
    return problems


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import cspelim from this checkout's src/, freshly each time."""
    for name in [m for m in sys.modules if m == "cspelim"
                 or m.startswith("cspelim.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cspelim
    import cspelim.cli
    if os.path.dirname(os.path.abspath(cspelim.__file__)) != \
            os.path.join(SRC, "cspelim"):
        raise ImportError("cspelim imported from %s, not from %s"
                          % (cspelim.__file__, SRC))
    return cspelim


def set_up(workload: str, seed: int, run_dir: str):
    """Generate and write the instance files, then import cspelim.
    Repeated; returns (cases, case dir, package, median seconds)."""
    times = []
    for k in range(SETUP_REPEATS):
        case_dir = os.path.join(run_dir, "cases%d" % k)
        t0 = time.perf_counter()
        cases = WORKLOADS[workload](seed)
        os.makedirs(case_dir)
        for case in cases:
            with open(os.path.join(case_dir, case.name + ".bcsp"), "w",
                      encoding="utf-8") as fh:
                fh.write(case.text)
        pkg = import_package()
        times.append(time.perf_counter() - t0)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(case_dir)
    return cases, case_dir, pkg, statistics.median(times)


def machine_record() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# traced run


def _log_counts(case_dir, cases) -> tuple[int, int]:
    backtracks = restarts = 0
    for case in cases:
        for op in case.ops:
            if op[0] != "solve":
                continue
            log = _read(op_paths(case_dir, case, op)["log"])
            for line in log.splitlines():
                if line.startswith("restart "):
                    restarts += 1
                elif line.startswith("backtracks "):
                    backtracks += int(line.split()[1])
    return backtracks, restarts


def engine_peaks(pkg, case_dir, cases) -> dict:
    """Peak traced memory (MB) of run_engine, per rule, the largest over
    the first MEMORY_CASES cases that run the rule."""
    from cspelim.consistency import eliminate_singletons, enforce_ac
    from cspelim.engines import run_engine
    peaks = {}
    for rule in RULES:
        users = [c for c in cases if ("preprocess", rule) in c.ops]
        for case in users[:MEMORY_CASES]:
            inst = pkg.load_instance(os.path.join(case_dir,
                                                  case.name + ".bcsp"))
            cur, _, ok = enforce_ac(inst)
            if not ok:
                continue
            cur, _ = eliminate_singletons(cur)
            if cur.wiped:
                continue
            tracemalloc.start()
            try:
                run_engine(cur, rule)
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
            peaks[rule] = max(peaks.get(rule, 0.0), peak)
    return peaks


def traced_run(pkg, case_dir, cases, ops, runner, untraced: dict,
               digests: dict, run_dir: str) -> tuple[dict, int, int, list]:
    """One traced pass over `ops` (each op once), then the tracemalloc
    pass.  Writes spans.jsonl to `run_dir`.  Returns (per-layer values,
    attempted, failed, problems)."""
    rec = Recorder()
    patch = layers.install(rec)
    try:
        results = {}
        for idx, key in enumerate(ops):
            rec.op = idx
            with rec.span("op " + key):
                results[key] = runner(key)
    finally:
        patch.restore()
    more, problems = check_pass(pkg, case_dir, cases, results)
    if more != digests:
        problems.append("traced pass changed an output digest")
    both = [k for k in ops
            if untraced[k].error is None and results[k].error is None]
    base = sum(untraced[k].seconds for k in both)
    backtracks, restarts = _log_counts(case_dir, cases)
    extra = {
        "peak_mb": engine_peaks(pkg, case_dir, cases),
        "backtracks": backtracks, "restarts": restarts,
        "trace_bytes": sum(os.path.getsize(op_paths(case_dir, c, op)["trace"])
                           for c in cases for op in c.ops
                           if op[0] == "preprocess"
                           and results[op_key(c, op)].error is None),
        "overhead_ratio": (sum(results[k].seconds for k in both) / base
                           if base else 0.0),
    }
    values = layers.per_layer(rec, extra)
    rec.write(os.path.join(run_dir, "spans.jsonl"))
    failed = sum(1 for o in results.values() if o.error is not None)
    return values, len(results), failed, problems


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's digests as the expected ones "
                        "(default seed only)")
    return p.parse_args(argv)


def check_digests(args, cases, digests: dict) -> list:
    """Compare with (or, when asked, record) the default seed's digests."""
    if args.seed != DEFAULT_SEED:
        return []
    inputs = inputs_digest(cases)
    stored = load_digests()
    if not args.record_digests:
        return compare_digests(stored.get(args.workload, {}), inputs, digests)
    stored[args.workload] = {"inputs": inputs, "ops": digests}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return []


def end_to_end(setup_s: float, timings: dict) -> tuple[dict, list]:
    """The end-to-end metrics and their printed lines."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (setup_s, None), "peak_rss_mb": (rss, None)}
    for name, _ in END_TO_END[1:-1]:
        t = timings.get(name, Timing(None, 0))
        values[name] = (t.value, t.ops)
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        value, ops = values[name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append("%-28s %12s %s%s" % (
            name, "null" if value is None else "%.6f" % value, unit,
            "" if ops is None else "  ops=%d" % ops))
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cspelim", "cli.py")):
        print("bench: no cspelim package under %s" % SRC, file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print("bench: digests are recorded for seed %d only" % DEFAULT_SEED,
              file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, "%s-s%d-t%d" % (args.workload, args.seed,
                                                  args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    machine = machine_record()
    try:
        cases, case_dir, pkg, setup_s = set_up(args.workload, args.seed,
                                               run_dir)
    except ImportError as exc:
        print("bench: cannot import cspelim: %s" % exc, file=sys.stderr)
        return 2
    ops = {op_key(c, op): (c, op) for c in cases for op in c.ops}

    def runner(key, max_reps=MAX_REPS):
        case, op = ops[key]
        argv = op_argv(case_dir, case, op)
        return repeat(lambda: run_cli(pkg.cli.main, argv), max_reps)

    # a traced run needs one untraced pass as its reference
    samples = measure(list(ops), runner, 0 if args.trace else args.seconds)
    last = {key: outcomes[-1] for key, outcomes in samples.items()}
    digests, problems = check_pass(pkg, case_dir, cases, last)
    problems.extend(check_digests(args, cases, digests))
    timings, attempted, failed = summarise(
        samples, lambda key: "%s_s.%s" % ops[key][1])
    passes = max(len(outcomes) for outcomes in samples.values())
    with open(os.path.join(run_dir, "ops.tsv"), "w", encoding="utf-8") as fh:
        for key, outcomes in samples.items():
            errors = [o.error for o in outcomes if o.error]
            fh.write("%s\t%s\t%s\n" % (key, " ".join(
                "%.6f" % o.seconds for o in outcomes), " ".join(errors)))
            if errors:
                print("op %s failed: %s" % (key, errors[0]))

    if args.trace:
        values, n_ops, n_failed, found = traced_run(
            pkg, case_dir, cases, list(ops), lambda key: runner(key, 1),
            last, digests, run_dir)
        attempted += n_ops
        failed += n_failed
        problems.extend(found)
        units = layers.metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        lines = ["%-36s %14.6g %s" % (name, values[name], units[name])
                 for name in units]
        with open(os.path.join(run_dir, "layers.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        metrics, lines = end_to_end(setup_s, timings)
    lines.append("failed_ratio %d/%d = %.4f"
                 % (failed, attempted, failed / attempted))
    lines.append("passes %d  machine %s" % (passes, json.dumps(machine)))
    print("\n".join(lines))
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "passes": passes, "machine": machine,
                   "problems": problems, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
