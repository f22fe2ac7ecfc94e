"""The traced benchmark run (`bench/layers.py`) rebinds cspelim names
that it looks up with `getattr`, so a renamed function would otherwise
break only that run.  `bench/` is imported read-only, with no bytecode
written."""

import os
import sys

import cspelim.cli as cli
import cspelim.engines as engines
import cspelim.engines.base as base
import cspelim.solver as solver
import cspelim.trace as trace
from cspelim.model import Instance

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")

# the names the traced run wraps, per module
BOUND = {base: ("checker_accepts", "make_entry"),
         cli: ("enforce_ac", "eliminate_singletons", "run_engine",
               "mac_solve", "load_instance", "save_instance",
               "write_trace")}


def test_traced_benchmark_binds_and_restores_package_names(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    import layers
    from spans import Recorder

    owners = [cli, engines, base, solver, trace, Instance, base.Engine,
              *engines.ENGINES.values()]
    before = {owner: dict(vars(owner)) for owner in owners}
    patch = layers.install(Recorder())
    try:
        for module, names in BOUND.items():
            for name in names:
                assert getattr(module, name) is not before[module][name], \
                    name
    finally:
        patch.restore()
    for owner in owners:
        now = vars(owner)
        for attr, value in before[owner].items():
            assert now[attr] is value, (owner, attr)
        # restoring an inherited method sets it on the subclass itself;
        # take that copy off again so later patches of the base apply
        for attr in set(now) - set(before[owner]):
            assert now[attr] is getattr(owner.__mro__[1], attr), attr
            delattr(owner, attr)
