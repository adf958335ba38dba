"""Fixtures shared by the test modules."""

import contextlib

import pytest

from chebconvex import determinant


@pytest.fixture
def float_walk(monkeypatch):
    """Keep every float check on the float walk: no exact image is made
    (determinant._route), so a float-walk differential of a public entry
    tests the walk on rational input too, and no float scan is settled
    by its windows (determinant._dyadic) instead of its walk."""
    monkeypatch.setattr(determinant, "_exact_image", lambda *args: None)
    monkeypatch.setattr(determinant, "_dyadic", lambda *args: None)


@pytest.fixture
def scan_modes(monkeypatch):
    """The two ways a float scan runs, each a context for a test's body:
    as the package runs it, a nonnegative scan first reading its windows
    exactly on its float values; and walked, no window read
    (determinant._dyadic), so that the walk stays under test where the
    windows would settle the test's examples."""
    @contextlib.contextmanager
    def walked():
        with monkeypatch.context() as patch:
            patch.setattr(determinant, "_dyadic", lambda *args: None)
            yield
    return contextlib.nullcontext, walked
