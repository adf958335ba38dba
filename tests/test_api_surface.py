"""Every public name of the package has a caller.

A name that ``chebconvex/__init__.py`` imports must be referenced
outside its own definition: in the package's code (as a name, an
attribute or an import in ``src/chebconvex/``), in README.md or in
``bench/``.  Tests do not count, so a name that only tests call is
deleted, not exported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "chebconvex"


def exported() -> list:
    """The names that the package's ``__init__.py`` imports."""
    tree = ast.parse((PKG / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def code_references(path: Path) -> set:
    """The names that the module at ``path`` references outside the
    top-level definition of the same name."""
    tree = ast.parse(path.read_text())
    spans = {node.name: (node.lineno, node.end_lineno) for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        lo, hi = spans.get(name, (0, -1))
        if not lo <= getattr(node, "lineno", 0) <= hi:
            found.add(name)
    return found


def referenced() -> set:
    """Every name referenced by the package's modules other than
    ``__init__.py``, and every word of README.md and of ``bench/``."""
    names = set()
    for path in PKG.glob("*.py"):
        if path.name != "__init__.py":
            names |= code_references(path)
    texts = [ROOT / "README.md", *(ROOT / "bench").rglob("*.py"), *(ROOT / "bench").rglob("*.md")]
    for path in texts:
        names |= set(re.findall(r"\w+", path.read_text()))
    return names


def test_every_exported_name_has_a_caller():
    names, used = exported(), referenced()
    assert "divided_difference" in names
    assert [name for name in names if name not in used] == []


def test_a_name_referenced_only_in_its_own_definition_has_no_caller(tmp_path):
    module = tmp_path / "module.py"
    recursive = "def f(x):\n    return f(x - 1) if x else 0\n"
    module.write_text(recursive)
    assert code_references(module) == {"x"}
    module.write_text(recursive + "\n\ndef g():\n    return h.f\n")
    assert code_references(module) == {"x", "h", "f"}
