"""The traced run's view of cspelim: which calls get spans or counts,
and how spans and counts become the per-layer metrics.

Layers are named after the package's modules.  Wrappers are installed
in every namespace a call goes through (``cli`` and ``solver`` import
the consistency functions by name), so a call gets the same span name
whichever module makes it.
"""

from __future__ import annotations

from spans import Patcher, Recorder, totals

RULES = ("exists-snake", "de-snake", "triangle", "aebtp", "bt-degree")

# per-layer metric -> unit; the order is the order of the printed table
PER_RULE = (
    ("patterns.%s.certify_s", "s"),
    ("engines.%s.eliminations", "count"),
    ("engines.%s.init_s", "s"),
    ("engines.%s.propagate_s", "s"),
    ("engines.%s.self_s", "s"),
    ("engines.%s.push_yield", "ratio"),
    ("engines.%s.peak_mb", "MB"),
)
SHARED = (
    ("consistency.ac_s", "s"),
    ("consistency.ac_deletions", "count"),
    ("consistency.singletons_s", "s"),
    ("consistency.singletons_removed", "count"),
    ("model.copy_calls", "count"),
    ("model.parse_s", "s"),
    ("model.save_s", "s"),
    ("trace.snapshot_s", "s"),
    ("trace.write_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.entries", "count"),
    ("solver.mac_s", "s"),
    ("solver.backtracks", "count"),
    ("solver.restarts", "count"),
    ("solver.search_vars", "count"),
    ("model.row_calls", "count"),
    ("solver.reconstruct_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
)


def metric_units() -> dict:
    units = {}
    for rule in RULES:
        for pattern, unit in PER_RULE:
            units[pattern % rule] = unit
    for name, unit in SHARED:
        units[name] = unit
    return units


def install(rec: Recorder) -> Patcher:
    """Rebind cspelim attributes to recording wrappers.  The caller
    restores them with the returned patcher."""
    import cspelim.cli as cli
    import cspelim.engines as engines
    import cspelim.engines.base as base
    import cspelim.solver as solver
    import cspelim.trace as trace
    from cspelim.model import Instance

    counts = rec.counts
    patch = Patcher()

    def bind(modules, attr, name, on_call=None):
        wrapper = rec.wrap(getattr(modules[0], attr), name, on_call)
        for module in modules:
            patch.set(module, attr, wrapper)

    def ac_done(args, result):
        counts["ac_deletions"] += len(result[1])

    def singletons_done(args, result):
        counts["singletons_removed"] += len(result[1])

    def entry_made(args, result):
        counts["eliminations." + args[1]] += 1

    def trace_written(args, result):
        counts["trace_entries"] += len(args[0])

    def mac_called(args, result):
        counts["search_vars"] += args[0].n

    bind([cli], "cmd_preprocess", "cli.preprocess")
    bind([cli], "cmd_solve", "cli.solve")
    bind([cli], "load_instance", "model.load_instance")
    bind([cli], "save_instance", "model.save_instance")
    bind([cli, solver], "enforce_ac", "consistency.enforce_ac", ac_done)
    bind([cli, solver], "eliminate_singletons",
         "consistency.eliminate_singletons", singletons_done)
    bind([cli, engines], "run_engine",
         lambda args: "engines.%s.run_engine" % args[1])
    bind([cli], "write_trace", "trace.write_trace", trace_written)
    bind([trace], "capture_snapshot", "trace.capture_snapshot")
    bind([base], "make_entry", "trace.make_entry", entry_made)
    bind([base], "checker_accepts",
         lambda args: "patterns.%s.checker_accepts" % args[1])
    bind([cli, solver], "mac_solve", "solver.mac_solve", mac_called)
    bind([cli], "solve_with_preprocessing", "solver.solve_with_preprocessing")
    bind([solver], "reconstruct_solution", "solver.reconstruct_solution")
    for rule, cls in engines.ENGINES.items():
        patch.set(cls, "initialise",
                  rec.wrap(cls.initialise, "engines.%s.initialise" % rule))
        patch.set(cls, "propagate",
                  rec.wrap(cls.propagate, "engines.%s.propagate" % rule))
    patch.set(base.Engine, "push", rec.counted(
        base.Engine.push, lambda args: "push." + args[0].rule))
    patch.set(Instance, "copy", rec.counted(Instance.copy, "copy"))
    patch.set(Instance, "row", rec.counted(Instance.row, "row"))
    return patch


def per_layer(rec: Recorder, extra: dict) -> dict:
    """Per-layer metric values from the recorder's spans and counts.
    `extra` supplies what the wrappers cannot see: ``peak_mb`` (rule ->
    MB), ``backtracks``, ``restarts``, ``trace_bytes`` and
    ``overhead_ratio``."""
    dur, own = totals(rec.spans)
    counts = rec.counts
    out = {}
    for rule in RULES:
        elims = counts["eliminations." + rule]
        pushes = counts["push." + rule]
        out["patterns.%s.certify_s" % rule] = \
            dur["patterns.%s.checker_accepts" % rule]
        out["engines.%s.eliminations" % rule] = elims
        out["engines.%s.init_s" % rule] = dur["engines.%s.initialise" % rule]
        out["engines.%s.propagate_s" % rule] = \
            dur["engines.%s.propagate" % rule]
        out["engines.%s.self_s" % rule] = own["engines.%s.run_engine" % rule]
        out["engines.%s.push_yield" % rule] = elims / pushes if pushes else 0.0
        out["engines.%s.peak_mb" % rule] = extra["peak_mb"].get(rule, 0.0)
    out.update({
        "consistency.ac_s": dur["consistency.enforce_ac"],
        "consistency.ac_deletions": counts["ac_deletions"],
        "consistency.singletons_s": dur["consistency.eliminate_singletons"],
        "consistency.singletons_removed": counts["singletons_removed"],
        "model.copy_calls": counts["copy"],
        "model.parse_s": dur["model.load_instance"],
        "model.save_s": dur["model.save_instance"],
        "trace.snapshot_s": dur["trace.capture_snapshot"],
        "trace.write_s": dur["trace.write_trace"],
        "trace.bytes": extra["trace_bytes"],
        "trace.entries": counts["trace_entries"],
        "solver.mac_s": dur["solver.mac_solve"],
        "solver.backtracks": extra["backtracks"],
        "solver.restarts": extra["restarts"],
        "solver.search_vars": counts["search_vars"],
        "model.row_calls": counts["row"],
        "solver.reconstruct_s": dur["solver.reconstruct_solution"],
        "tracing.overhead_ratio": extra["overhead_ratio"],
    })
    return out
