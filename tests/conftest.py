"""Fixtures shared by the test modules."""

import pytest

from chebconvex import determinant


@pytest.fixture
def float_walk(monkeypatch):
    """Keep every float check on the float walk: no exact image is made
    (determinant._route), so a float-walk differential of a public entry
    tests the walk on rational input too."""
    monkeypatch.setattr(determinant, "_exact_image", lambda *args: None)
