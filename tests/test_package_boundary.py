"""What the runtime package may import and call.

The definitional checkers in ``cspelim.patterns`` run only in the
reference fixpoint behind ``cspelim verify``; the engines and the CLI
read the rule list and ``MIN_LIVE`` from that module and call none of
its functions, and the tests certify the engines' witnesses.  The
theory-only checkers and search oracles live in ``tests/theory.py``.
These tests read the package's source with ``ast`` and pin that
boundary, and that ``solver.preprocess`` alone runs the preprocessing
stages in turn.
"""

import ast
import os

import cspelim
from cspelim import Instance

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# modules allowed to import cspelim.patterns, relative to src/cspelim
PATTERN_IMPORTERS = {"__init__.py", "cli.py", "oracle.py", "engines/base.py"}
# modules allowed to call what they import from it
CHECKER_CALLERS = {"patterns.py", "oracle.py"}

# the stages of `solver.preprocess`, in the order it runs them
PIPELINE_STAGES = ("enforce_ac", "eliminate_singletons", "run_engine")
# the stages plus the search `solve_with_preprocessing` hands their result to
WATCHED_CALLS = PIPELINE_STAGES + ("mac_solve",)

MOVED_TO_THEORY = ("are_isomorphic", "max_eliminations_by_order",
                   "check_ae_broken_polyhedron", "check_1fbtp",
                   "enumerate_broken_triangles", "is_3safe")


def package_modules():
    """(path relative to src/cspelim, its package as a list of names,
    its syntax tree) for every package file."""
    root = os.path.join(SRC, "cspelim")
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            yield rel, ["cspelim"] + rel.split("/")[:-1], tree


def source_module(node, package) -> str:
    """The absolute name of the module a `from ... import` reads."""
    if not node.level:
        return node.module
    base = package[:len(package) - node.level + 1]
    return ".".join(base + (node.module.split(".") if node.module else []))


def imported_modules():
    """(path relative to src/cspelim, absolute module name) for every
    module each package file imports, relative imports resolved."""
    for rel, package, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield rel, alias.name
            elif isinstance(node, ast.ImportFrom):
                module = source_module(node, package)
                yield rel, module
                # `from . import patterns` names a submodule
                for alias in node.names:
                    yield rel, module + "." + alias.name


def pattern_calls():
    """(path relative to src/cspelim, callee) for every call of a name
    the file imports from cspelim.patterns, or of an attribute of that
    module under the name the file binds it to."""
    for rel, package, tree in package_modules():
        names, modules = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "cspelim.patterns"}
            elif isinstance(node, ast.ImportFrom):
                module = source_module(node, package)
                for alias in node.names:
                    if module == "cspelim.patterns":
                        names.add(alias.asname or alias.name)
                    elif module + "." + alias.name == "cspelim.patterns":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                yield rel, func.id
            elif (isinstance(func, ast.Attribute)
                  and ast.unparse(func.value) in modules):
                yield rel, ast.unparse(func)


def test_only_certification_verify_and_cli_import_patterns():
    importers = {rel for rel, module in imported_modules()
                 if module == "cspelim.patterns"}
    assert importers, "the walk found no import of cspelim.patterns"
    assert importers <= PATTERN_IMPORTERS, sorted(importers - PATTERN_IMPORTERS)


def test_only_the_reference_fixpoint_calls_the_checkers():
    """Engines write their own witnesses and the CLI only reads the rule
    list: outside `patterns.py` and `oracle.py` no module calls a name it
    imports from `cspelim.patterns`."""
    calls = set(pattern_calls())
    assert ("oracle.py", "checker_accepts") in calls, \
        "the walk found no call of a checker"
    offenders = sorted(call for call in calls
                       if call[0] not in CHECKER_CALLERS)
    assert not offenders, offenders


def stage_calls():
    """(path relative to src/cspelim, enclosing top-level definition or
    None, callee) for every call of a preprocessing stage or of
    `mac_solve`, by plain name or as an attribute."""
    for rel, _, tree in package_modules():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in WATCHED_CALLS:
                        yield rel, owner, name


def test_only_solver_preprocess_runs_the_pipeline_stages():
    """`solver.preprocess` alone runs arc consistency, singleton removal
    and an engine in turn, and `solve_with_preprocessing` alone hands
    its result to MAC: the CLI keeps the stage names and `mac_solve`
    only for the traced benchmark and calls none of them, MAC runs no
    arc consistency of its own, and outside `solver.py` only the verify
    battery in `oracle.py` runs an engine."""
    calls = set(stage_calls())
    assert ("solver.py", "preprocess", "run_engine") in calls, \
        "the walk found no call of an engine"
    callers = {name: {rel for rel, _, callee in calls if callee == name}
               for name in WATCHED_CALLS}
    assert not any("cli.py" in rels for rels in callers.values()), callers
    assert callers["eliminate_singletons"] == {"solver.py"}, callers
    assert callers["run_engine"] <= {"solver.py", "oracle.py"}, callers
    in_solver = {name: {owner for rel, owner, callee in calls
                        if rel == "solver.py" and callee == name}
                 for name in ("enforce_ac", "mac_solve")}
    assert in_solver["enforce_ac"] == {"preprocess"}, in_solver
    assert callers["mac_solve"] == {"solver.py"}, callers
    assert in_solver["mac_solve"] == {"solve_with_preprocessing"}, in_solver


def test_package_imports_nothing_from_tests():
    test_modules = {"tests"} | {name[:-3] for name in os.listdir(TESTS)
                                if name.endswith(".py")}
    assert "theory" in test_modules
    offenders = sorted((rel, module) for rel, module in imported_modules()
                       if module.split(".")[0] in test_modules)
    assert not offenders, offenders


def test_theory_helpers_are_not_exported():
    assert not set(MOVED_TO_THEORY) & set(cspelim.__all__)
    assert not any(hasattr(cspelim, name) for name in MOVED_TO_THEORY)
    assert not hasattr(Instance, "canonical_key")
