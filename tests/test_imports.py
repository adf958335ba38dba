"""Every module-level import of a package module is used in that module.

No linter runs on this package, so this test stands in for its
unused-import rule: it parses each module of src/chebconvex (the
package's ``__init__`` re-exports names by design) and fails on an
imported name that the module never reads.  The only names allowed
unused are those that bench/test_bench.py needs imported, to check that
its tracer patches every module that holds a function."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebconvex"

#: module file -> imported names it keeps for the benchmark's tracer test
TRACER_PINS = {"determinant.py": {"evaluate"}, "convexity.py": {"det"}}


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and
    that no other line of it reads, in their order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_used(path):
    unused = unused_imports((PACKAGE / path).read_text())
    assert [name for name in unused if name not in TRACER_PINS.get(path, ())] == []


def test_an_unused_import_is_found():
    source = "import math\nfrom fractions import Fraction as F\nfrom os import path, sep\nsep\n"
    assert unused_imports(source) == ["math", "F", "path"]
