"""The CLI's grid readers, which hold exact decimals as integers over one
power of ten, and ``sorted_grid``, which sorts and validates such a grid
as integers, against the readers and the sorted grid of ``oracles.py``
(one scalar per item, a grid a tuple of scalars, every comparison by
value): each point by value and type (compared by repr), or the error
and its message.  Lists, JSON arrays and CSV columns with headers; signs,
leading zeros, exponents, ``1/3``-style and non-ASCII literals;
unsorted, duplicate and too-close grids; grids that mix ints and
Fractions.  A grid is read in one pass and, where an item does not read
so, item by item: past int's digit limit, ``inf``, ``nan``, ``1_000``,
``+5``, empty cells, two header rows, a bad item after the header, and
a bad item before a row that stops csv's reader, whose error is an
input error."""

import csv
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex.cli import _parse_grid
from chebconvex.core import Backend
from chebconvex.determinant import sorted_grid
from chebconvex.errors import InputError

import oracles

BACKENDS = st.sampled_from([Backend.EXACT, Backend.FLOAT])
DECIMALS = st.from_regex(r"\A[-+]?0{0,3}[0-9]{1,4}(\.[0-9]{0,4})?([eE][-+]?[0-9]{1,2})?\Z")
#: plain decimals that fall on a few values, so that grids repeat points
#: and come unsorted
NEAR = st.builds(lambda i, zeros, d: f"{i // 10 ** d}.{abs(i) % 10 ** d:0{d}d}{'0' * zeros}"
                 if d else str(i), st.integers(-40, 40), st.integers(0, 2), st.integers(0, 2))
ODD = st.sampled_from(["1/3", "-2/6", "٣", "²", "1_000", ".5", "5.", " 2.5 ", "", "-", "1e-12",
                       "nan", "inf", "0x10", "1" * 5000, "1.000000000001", "1.0000000000001"])
ITEMS = st.lists(st.one_of(NEAR, NEAR, DECIMALS, ODD), max_size=8)
GAPS = st.sampled_from([0.0, 1e-9, 0.3])


def outcome(fn, *args) -> str:
    """repr of the points ``fn`` returns, or its error as "Class: message"."""
    try:
        return repr(tuple(fn(*args)))
    except (InputError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def same_grid(spec: str, backend: Backend, min_gap: float) -> None:
    """The grid ``spec`` reads, and then sorts to, as the oracle's."""
    assert outcome(_parse_grid, spec, backend) == outcome(oracles.parse_grid, spec, backend)
    assert outcome(lambda: sorted_grid(_parse_grid(spec, backend), min_gap)) == \
        outcome(lambda: oracles.sorted_grid(oracles.parse_grid(spec, backend), min_gap))


@settings(max_examples=400, deadline=None)
@given(ITEMS, BACKENDS, GAPS)
def test_list_grids_match_oracle(items, backend, min_gap):
    same_grid("list:" + ",".join(items), backend, min_gap)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.floats(-50, 50, allow_nan=False),
                          st.sampled_from([1e-5, 2.5e16, -0.0, True, None, "1/3", "x", [1]])),
                max_size=8), BACKENDS, GAPS)
def test_json_grids_match_oracle(values, backend, min_gap):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w") as fh:
            json.dump(values, fh)
        same_grid(path, backend, min_gap)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["x", "point", "", "  ", "a,b"]), max_size=3), ITEMS,
       BACKENDS, GAPS)
def test_csv_grids_with_headers_match_oracle(header, items, backend, min_gap):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with open(path, "w") as fh:
            fh.write("".join(f"{line}\n" for line in header + [f'"{x}",0' for x in items]))
        same_grid(path, backend, min_gap)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-4, 4),
                          st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))),
                max_size=7), st.booleans())
def test_grids_mixing_ints_and_fractions_match_oracle(values, presorted):
    grid = sorted(values) if presorted else values
    assert outcome(sorted_grid, grid) == outcome(oracles.sorted_grid, grid)
    spec = "list:" + ",".join(map(str, grid))
    same_grid(spec, Backend.EXACT, 0.0)


# ---------------------------------------------------------------------------
# the one-pass reader: a grid whose items all read in one pass, and, when
# one does not, the item-by-item reading that gives the value or message

@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
@pytest.mark.parametrize("items", [
    ["1", "2." + "5" * 4400],               # past int's 4,300-digit limit
    ["1", "1" * 4301, "2"],
    ["1", "1" * 4300],                      # at it
    ["inf", "nan", "1_000", "+5"],
    ["1_000", "+5", "-0.5"],
    ["1", "", "2"],                         # an empty cell
    ["", "1"],
    ["0.5", "1/3", "2"],                    # a non-decimal item among decimals
    ["3", "1.25", "-7"],                    # every item in one pass
])
def test_list_grids_that_fall_back_match_oracle(items, backend):
    same_grid("list:" + ",".join(items), backend, 0.0)


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
@pytest.mark.parametrize("lines", [
    ["x", "point", "1", "2.5", "3"],        # two header rows
    ["x", "point", "1", "bad", "3"],        # a bad item after the header
    ["x", "point", "1", "1" * 4301],
    ["x", "point", "inf", "1_000", "+5"],
    ["x", "point"],                         # a header alone
    ["1", "x"],                             # no header, then a bad item
])
def test_csv_grids_with_two_header_rows_match_oracle(lines, backend):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with open(path, "w") as fh:
            fh.write("".join(f"{line},0\n" for line in lines))
        same_grid(path, backend, 0.0)


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_a_bad_item_before_a_csv_reader_error_is_raised_first(backend):
    """A CSV grid is read whole before its one pass, and a row past csv's
    field limit stops that read; what the items before it raise comes
    first, as the oracle's item-by-item reading meets it.  The reader's
    error is an input error naming the file."""
    big = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with open(path, "w") as fh:
            fh.write(f"x\n1\nbad\n{big}\n")
        same_grid(path, backend, 0.0)
        assert outcome(_parse_grid, path, backend).startswith("InputError: bad ")
        with open(path, "w") as fh:
            fh.write(f"x\n1\n{big}\n")
        same_grid(path, backend, 0.0)
        assert outcome(_parse_grid, path, backend) == f"InputError: bad CSV file {path!r}: " \
            f"field larger than field limit ({csv.field_size_limit()})"
