"""``tools/loc.py``'s count of code lines, the measure the package's
size is tracked by: docstrings, comments and blank lines are not code;
every line that a statement spans is.  Beside it, its count of
statements, which joining statements on one line does not lower."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_docstrings_comments_and_blank_lines_are_not_counted():
    text = '''"""A module docstring
over two lines."""

# a comment


def f(x):
    """A function docstring."""
    # another comment
    return x  # a trailing comment
'''
    assert loc.code_lines(text) == 2


def test_a_multi_line_call_counts_every_line_it_spans():
    text = '''total = sum(
    [1, 2,
     3],
)
'''
    assert loc.code_lines(text) == 4


def test_a_string_passed_as_an_argument_is_counted():
    text = '''print(
    """not a docstring:
    an argument""")
raise ValueError("a message")
'''
    assert loc.code_lines(text) == 4


def test_a_string_statement_after_code_is_a_docstring():
    text = '''x = 1
"""an attribute docstring"""
y = "a value"
'''
    assert loc.code_lines(text) == 2


def test_statements_are_counted_apart_from_their_lines():
    joined = "a = 1; b = 2\n"
    assert (loc.code_lines(joined), loc.statements(joined)) == (1, 2)
    call = '''print(
    1,
    2)
'''
    assert (loc.code_lines(call), loc.statements(call)) == (3, 1)


def test_docstrings_are_no_statements_and_nested_statements_are():
    text = '''"""A module docstring."""


def f(x):
    """A function docstring."""
    if x:
        return 1
    return 2
'''
    assert (loc.code_lines(text), loc.statements(text)) == (4, 4)


#: The package's code-line cap (ROADMAP.md, "Code-line budget"); a
#: change that moves the cap edits this number and says so.
CAP = 2500

#: The package's statement cap beside it, which joining statements on
#: one line does not meet; a change that moves it edits this number and
#: says so.
STATEMENT_CAP = 1807

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebconvex"


def test_the_package_fits_its_code_line_cap():
    total = sum(loc.code_lines(p.read_text()) for p in PACKAGE.glob("*.py"))
    assert total <= CAP


def test_the_package_fits_its_statement_cap():
    total = sum(loc.statements(p.read_text()) for p in PACKAGE.glob("*.py"))
    assert total <= STATEMENT_CAP
