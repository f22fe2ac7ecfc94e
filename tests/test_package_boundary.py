"""What the runtime package may import.

The definitional checkers in ``cspelim.patterns`` serve only run-time
certification, the reference fixpoint behind ``cspelim verify`` and the
CLI's rule list and raw-checker comparison; the theory-only checkers and
search oracles live in ``tests/theory.py``.  These tests read the
package's import statements with ``ast`` and pin that boundary.
"""

import ast
import os

import cspelim
from cspelim import Instance

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# modules allowed to import cspelim.patterns, relative to src/cspelim
PATTERN_IMPORTERS = {"__init__.py", "cli.py", "oracle.py", "engines/base.py"}

MOVED_TO_THEORY = ("are_isomorphic", "max_eliminations_by_order",
                   "check_ae_broken_polyhedron", "check_1fbtp",
                   "enumerate_broken_triangles", "is_3safe")


def imported_modules():
    """(path relative to src/cspelim, absolute module name) for every
    module each package file imports, relative imports resolved."""
    root = os.path.join(SRC, "cspelim")
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            package = ["cspelim"] + rel.split("/")[:-1]
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        yield rel, alias.name
                elif isinstance(node, ast.ImportFrom):
                    if node.level:
                        base = package[:len(package) - node.level + 1]
                        parts = base + (node.module.split(".")
                                        if node.module else [])
                    else:
                        parts = node.module.split(".")
                    module = ".".join(parts)
                    yield rel, module
                    # `from . import patterns` names a submodule
                    for alias in node.names:
                        yield rel, module + "." + alias.name


def test_only_certification_verify_and_cli_import_patterns():
    importers = {rel for rel, module in imported_modules()
                 if module == "cspelim.patterns"}
    assert importers, "the walk found no import of cspelim.patterns"
    assert importers <= PATTERN_IMPORTERS, sorted(importers - PATTERN_IMPORTERS)


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
