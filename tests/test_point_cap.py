"""The point cap: a uniform grid or a variation partition of more than
``determinant.MAX_GRID_POINTS`` points is an ``InputError`` (exit 2),
raised before any point is made.  Past the cap the grid is refused
whatever the request; at most the cap it is read as before.  The cases
past the real cap hold 10**6 + 1 points, and the rest run under a cap of
10 set for the test, so no case here can allocate without bound.

The tuple cap: a scan that would sample more than
``determinant.MAX_TUPLE_BUDGET`` tuples is an ``InputError`` (exit 2),
raised before any sample is drawn; the case past the real cap runs with
sampling itself refused, so it cannot allocate either."""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from chebconvex import determinant, variation
from chebconvex.cli import main
from chebconvex.core import PowerFn
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system
from chebconvex.variation import RefinementStrategy, estimate_variation


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_a_uniform_grid_past_the_cap_is_refused(capsys, backend):
    code, rep = run(capsys, "chebcheck", "--system", "poly:2", "--backend", backend,
                    "--grid", "uniform:0,1,1000001")
    assert code == 2
    assert rep["error"] == {
        "type": "InputError",
        "message": "uniform grid 'uniform:0,1,1000001' of 1000001 points exceeds the cap "
                   "of 1000000 points"}


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_a_uniform_grid_at_the_cap_is_read(capsys, monkeypatch, backend):
    monkeypatch.setattr(determinant, "MAX_GRID_POINTS", 10)
    argv = ["chebcheck", "--system", "poly:2", "--backend", backend, "--grid"]
    code, rep = run(capsys, *argv, "uniform:0,1,10")
    assert code == 0 and rep["results"]["positivity"]["tuples_checked"] == 45
    code, rep = run(capsys, *argv, "uniform:0,1,11")
    assert code == 2 and rep["error"]["message"] == \
        "uniform grid 'uniform:0,1,11' of 11 points exceeds the cap of 10 points"


def test_the_finest_partition_is_capped_before_it_is_made(monkeypatch):
    """estimate_variation refuses m0*2^(rounds-1) + 1 > cap points before
    it makes a partition, however many rounds are asked for."""
    monkeypatch.setattr(determinant, "MAX_GRID_POINTS", 10)
    system, f = polynomial_system(3), PowerFn(4)
    at_cap = estimate_variation(system, f, 0, 1, RefinementStrategy(8, rounds=1))
    assert at_cap.partial_sums[0] == (8, Fraction(9, 2))      # 9 points

    def unmade(*args):
        raise AssertionError("a partition past the cap was made")
    monkeypatch.setattr(variation, "_uniform_partition", unmade)
    for m0, rounds, shown in [(8, 2, "8*2^1"), (10, 1, "10*2^0"),
                              (3, 10 ** 12, "3*2^999999999999")]:
        with pytest.raises(InputError) as info:
            estimate_variation(system, f, 0, 1, RefinementStrategy(m0, rounds=rounds))
        assert str(info.value) == \
            f"the finest partition ({shown} intervals) exceeds the cap of 10 points"


def test_the_variation_command_reports_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(determinant, "MAX_GRID_POINTS", 10)
    code, rep = run(capsys, "variation", "--system", "poly:3", "--function", "power:4",
                    "--a", "0", "--b", "1", "--m0", "8", "--rounds", "2")
    assert code == 2 and rep["error"] == {
        "type": "InputError",
        "message": "the finest partition (8*2^1 intervals) exceeds the cap of 10 points"}


def test_a_budget_past_the_tuple_cap_is_refused_before_sampling(capsys, monkeypatch):
    """poly:8 on 200 points has C(200, 8) > 10**12 tuples, so a budget of
    10**12 samples: refused, without a sample drawn."""
    def undrawn(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(determinant, "random", SimpleNamespace(Random=undrawn))
    monkeypatch.chdir(Path(__file__).resolve().parent / "data")
    code, rep = run(capsys, "chebcheck", "--system", "poly:8", "--grid", "grid_200.csv",
                    "--budget", str(10 ** 12))
    assert code == 2 and rep["error"] == {
        "type": "InputError",
        "message": "tuple budget 1000000000000 exceeds the cap of 1000000 samples"}


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_a_budget_at_the_tuple_cap_samples(capsys, monkeypatch, backend):
    """Under a cap of 10: a budget of 10 samples as before, 11 is refused,
    and an exhaustive scan, whose tuples are never sampled, takes any."""
    monkeypatch.setattr(determinant, "MAX_TUPLE_BUDGET", 10)
    argv = ["chebcheck", "--system", "poly:3", "--backend", backend, "--grid", "uniform:0,1,8",
            "--budget"]
    code, rep = run(capsys, *argv, "10")
    assert code == 0 and rep["results"]["positivity"]["tuples_checked"] == 10
    code, rep = run(capsys, *argv, "11")
    assert code == 2 and rep["error"]["message"] == \
        "tuple budget 11 exceeds the cap of 10 samples"
    code, rep = run(capsys, *argv, "56")
    assert code == 0 and rep["results"]["positivity"]["exhaustive"]
