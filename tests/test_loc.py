"""``tools/loc.py``'s count of code lines, the measure the package's
size is tracked by: docstrings, comments and blank lines are not code;
every line that a statement spans is."""

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
