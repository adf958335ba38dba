import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebconvex
from chebconvex.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text: str) -> dict:
    """The report, parsed as JSON proper: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


BIG_CUBE = '{"kind": "affine", "terms": [{"coef": 1e308, "spec": {"kind": "power", "k": 3}}]}'
CLOSE_GRID = "list:0.0,1e-10,1.0,2.0,3.0,4.0"


def without_timing(report: dict) -> dict:
    report = dict(report)
    report.pop("timing_seconds", None)
    return report


def eval_fraction(text: str):
    from fractions import Fraction
    return Fraction(text)


class TestChebcheck:
    @pytest.mark.parametrize("tol, code, verdict", [
        (None, 1, "violated"), ("nan", 2, None), ("inf", 2, None)])
    def test_non_finite_tol_is_an_input_error(self, capsys, tol, code, verdict):
        # a NaN bound once passed every value: exit 0, positive_on_grid
        argv = ["chebcheck", "--system", "one-xsq", "--unsafe-domain", "full",
                "--grid", "list:-1,0.5,1", "--backend", "float"]
        got, rep = run_cli(capsys, *argv, *([f"--tol={tol}"] if tol else []))
        assert got == code
        if verdict:
            assert rep["results"]["positivity"]["verdict"] == verdict
            assert rep["results"]["positivity"]["witness"] == [-1.0, 0.5]
        else:
            assert rep["error"] == {"type": "InputError",
                                    "message": f"tol_factor must be finite, got {tol}"}

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_echoed_as_strict_json(self, capsys, tol):
        code = main(["chebcheck", "--system", "poly:3", "--grid", "list:0,1,2,3",
                     "--backend", "float", f"--tol={tol}"])
        rep = strict_json(capsys.readouterr().out)
        assert code == 2 and rep["config"]["tol"] == tol
        assert rep["error"] == {"type": "InputError",
                                "message": f"tol_factor must be finite, got {tol}"}

    def test_positive_exit_zero(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "poly:3",
                            "--grid", "uniform:0,4,8")
        assert code == 0
        assert rep["results"]["positivity"]["verdict"] == "positive_on_grid"
        assert rep["config"]["seed"] == 0

    def test_counterexample_exit_one(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "one-xsq",
                            "--unsafe-domain", "full", "--grid", "list:-1,1")
        assert code == 1
        pos = rep["results"]["positivity"]
        assert pos["verdict"] == "violated"
        assert pos["witness"] == ["-1", "1"]
        assert pos["witness_value"] == "0"

    def test_trig_system_float_grid(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "trig-odd:1",
                            "--backend", "float", "--grid", "uniform:-3,-0.2,10")
        assert code == 0
        assert rep["results"]["positivity"]["verdict"] == "positive_on_grid"

    def test_trig_even_with_explicit_interval(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "trig-even:1:-1.5,0",
                            "--backend", "float", "--grid", "uniform:-1.4,-0.1,8")
        assert code == 0
        assert rep["results"]["positivity"]["verdict"] == "positive_on_grid"

    def test_overflowing_determinant_is_input_error(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "poly:3", "--backend",
                            "float", "--grid", "list:1e150,2e150,3e150")
        assert code == 2
        assert rep["error"]["type"] == "NonFiniteValue"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_budget_is_input_error(self, capsys, budget):
        code, rep = run_cli(capsys, "chebcheck", "--system", "poly:3",
                            "--grid", "list:0,1,2,3", "--budget", budget)
        assert code == 2
        assert rep["error"] == {"type": "InputError",
                                "message": f"tuple budget must be >= 1, got {budget}"}


class TestDivdiff:
    def test_poly_example(self, capsys):
        code, rep = run_cli(capsys, "divdiff", "--system", "poly:2",
                            "--function", "power:2", "--grid", "list:1,2")
        assert code == 0
        res = rep["results"]
        assert res["value"] == "3" and res["classical_value"] == "3"
        assert res["order"] == 1

    def test_k_defaults_to_point_count(self, capsys):
        code, rep = run_cli(capsys, "divdiff", "--system", "poly:4",
                            "--function", "power:3", "--grid", "list:1,2,3")
        assert code == 0
        assert rep["results"]["value"] == "6"

    def test_singular_denominator_is_input_error(self, capsys):
        code, rep = run_cli(capsys, "divdiff", "--system", "one-xsq",
                            "--unsafe-domain", "full",
                            "--function", "power:3", "--grid", "list:-1,1")
        assert code == 2
        assert rep["error"]["type"] == "SingularDenominator"

    def test_overflow_is_input_error(self, capsys):
        code, rep = run_cli(capsys, "divdiff", "--system", "poly:2",
                            "--function", "exp", "--grid", "list:1,800",
                            "--backend", "float")
        assert code == 2
        assert rep["error"]["type"] == "OverflowError"

    def test_non_finite_value_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(BIG_CUBE)
        code = main(["divdiff", "--system", "poly:3", "--grid", "list:1.0,2.0,3.0",
                     "--backend", "float", "--function", str(spec)])
        rep = strict_json(capsys.readouterr().out)
        assert code == 2
        assert rep["error"] == {"type": "NonFiniteValue",
                                "message": "divided difference at (1.0, 2.0, 3.0) is nan"}


class TestConvexity:
    def test_direct_convex(self, capsys):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                            "--function", "power:2", "--grid", "uniform:0,3,4")
        assert code == 0
        assert rep["results"]["check"]["verdict"] == "convex_on_sample"

    def test_direct_violated_exit_one(self, capsys):
        import os, tempfile
        spec = {"kind": "affine",
                "terms": [{"coef": -1, "spec": {"kind": "power", "k": 2}}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(spec, fh)
            path = fh.name
        try:
            code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                                "--function", path, "--grid", "uniform:0,3,4")
        finally:
            os.unlink(path)
        assert code == 1
        assert rep["results"]["check"]["verdict"] == "violated"
        assert rep["results"]["check"]["witness"] == ["0", "1", "2"]

    def test_induced_mode_requires_k(self, capsys):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                            "--function", "power:2", "--grid", "uniform:0,3,4",
                            "--mode", "induced")
        assert code == 2
        assert rep["error"]["type"] == "InputError"

    def test_induced_mode(self, capsys):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                            "--function", "power:2", "--grid", "uniform:0,3,4",
                            "--mode", "induced", "--k", "1")
        assert code == 0
        assert rep["results"]["check"]["verdict"] == "convex_on_sample"

    def test_interval_mode(self, capsys):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                            "--function", "power:2", "--grid", "uniform:0,5,6",
                            "--mode", "interval", "--k", "1", "--ell", "0")
        assert code == 0
        check = rep["results"]["check"]
        assert check["verdict"] == "convex_on_sample"
        assert check["bases_skipped"] > 0

    def test_agreement_mode(self, capsys):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2",
                            "--function", "power:2", "--grid", "uniform:0,3,4",
                            "--mode", "agreement")
        assert code == 0
        assert rep["results"]["agreed"] is True


class TestConvexityInputChecks:
    @pytest.mark.parametrize("mode", [[], ["--mode", "induced", "--k", "1"],
                                      ["--mode", "interval", "--k", "1", "--ell", "1"],
                                      ["--mode", "agreement"]])
    def test_points_closer_than_min_gap_in_every_mode(self, capsys, mode):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:3", "--function",
                            "power:4", "--grid", CLOSE_GRID, "--backend", "float", *mode)
        assert code == 2
        assert rep["error"] == {"type": "OrderingViolation",
                                "message": "|points[0] - points[1]| < min gap 1e-09"}

    def test_non_finite_derived_value_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(BIG_CUBE)
        code = main(["convexity", "--mode", "induced", "--k", "1", "--backend", "float",
                     "--system", "poly:3", "--function", str(spec),
                     "--grid", "list:1.0,2.0,3.0,4.0,5.0,6.0"])
        rep = strict_json(capsys.readouterr().out)
        assert code == 2
        assert rep["error"] == {"type": "NonFiniteValue",
                                "message": "divided difference at (1.0, 2.0) is inf"}

    @pytest.mark.parametrize("mode", [[], ["--mode", "induced", "--k", "1"]])
    def test_non_positive_budget_is_input_error(self, capsys, mode):
        code, rep = run_cli(capsys, "convexity", "--system", "poly:2", "--function",
                            "power:3", "--grid", "list:0,1,2,3", "--budget", "-1", *mode)
        assert code == 2
        assert rep["error"]["type"] == "InputError"


class TestIdentities:
    def test_power_sum_hundred_trials(self, capsys):
        code, rep = run_cli(capsys, "identities", "--suite", "power-sum",
                            "--trials", "100", "--seed", "7")
        assert code == 0
        suite = rep["results"]["suites"]["power-sum"]
        assert suite["trials"] == 100
        assert suite["max_abs_residual"] == 0
        assert suite["failures"] == []

    def test_all_suites_pass(self, capsys):
        code, rep = run_cli(capsys, "identities", "--trials", "10", "--seed", "3")
        assert code == 0
        assert rep["results"]["failed"] == 0
        assert set(rep["results"]["suites"]) == {
            "sylvester", "induced-det", "convexity-det", "slope-diff",
            "power-sum", "trig-cot"}

    def test_float_backend_suites(self, capsys):
        code, rep = run_cli(capsys, "identities", "--suite", "sylvester",
                            "--trials", "25", "--seed", "9",
                            "--backend", "float")
        assert code == 0
        assert rep["results"]["suites"]["sylvester"]["max_rel_residual"] <= 1e-9

    def test_unknown_suite(self, capsys):
        code, rep = run_cli(capsys, "identities", "--suite", "bogus")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_non_positive_trials_is_input_error(self, capsys, trials):
        code, rep = run_cli(capsys, "identities", "--suite", "sylvester",
                            "--trials", trials)
        assert code == 2
        assert rep["error"] == {"type": "InputError",
                                "message": f"trials must be >= 1, got {trials}"}


class TestVariation:
    def test_bound_check(self, capsys):
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--g", "power:2", "--a", "0", "--b", "1",
                            "--anchors=-1/2,0;1,3/2",
                            "--m0", "10", "--rounds", "3", "--perturb-rounds", "0")
        assert code == 0
        res = rep["results"]
        assert res["bound_holds"] is True
        assert res["bound"] == "3"
        assert res["estimate"]["partial_sums"] == [[10, "9/5"], [20, "19/10"],
                                                   [40, "39/20"]]

    def test_estimate_only(self, capsys):
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--function", "power:2", "--a", "0", "--b", "1",
                            "--m0", "8", "--rounds", "2", "--perturb-rounds", "0")
        assert code == 0
        assert rep["results"]["estimate"]["best"] == "15/8"

    def test_bound_violation_exit_one(self, capsys, tmp_path):
        # g = -x^2 is not convex, so the claimed bound comes out negative
        # while the variation of g is positive.
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({
            "kind": "affine",
            "terms": [{"coef": -1, "spec": {"kind": "power", "k": 2}}]}))
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--g", str(g_path), "--h", "const:0",
                            "--a", "0", "--b", "1", "--anchors=-1/2,0;1,3/2",
                            "--m0", "4", "--rounds", "2", "--perturb-rounds", "0")
        assert code == 1
        assert rep["results"]["bound_holds"] is False
        assert rep["results"]["bound"] == "-3"
        assert rep["results"]["certificate"]["partition"]

    def test_default_anchors_path(self, capsys):
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--g", "power:2", "--h", "const:0",
                            "--a", "0", "--b", "1",
                            "--m0", "4", "--rounds", "2", "--perturb-rounds", "0")
        assert code == 0
        res = rep["results"]
        assert res["bound_holds"] is True
        assert res["anchors"]["a"] == ["-1/10", "0"]
        best = res["estimate"]["best"]
        assert eval_fraction(best) <= eval_fraction(res["bound"])

    def test_missing_interval_is_input_error(self, capsys):
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--function", "power:2")
        assert code == 2

    def test_non_finite_estimate_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(BIG_CUBE)
        code = main(["variation", "--system", "poly:2", "--a", "1.0", "--b", "2.0",
                     "--backend", "float", "--function", str(spec)])
        rep = strict_json(capsys.readouterr().out)
        assert code == 2
        assert rep["error"] == {"type": "NonFiniteValue",
                                "message": "divided difference at (1.0, 1.125) is inf"}

    def test_negative_perturb_rounds_is_input_error(self, capsys):
        code, rep = run_cli(capsys, "variation", "--system", "poly:2", "--function",
                            "power:3", "--a", "0", "--b", "1", "--perturb-rounds", "-1")
        assert code == 2
        assert rep["error"]["type"] == "InputError"


class TestReportContract:
    def test_determinism_except_timing(self, capsys):
        argv = ["identities", "--suite", "sylvester", "--trials", "20",
                "--seed", "11"]
        code1, rep1 = run_cli(capsys, *argv)
        code2, rep2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        for rep in (rep1, rep2):
            assert isinstance(rep["timing_seconds"], float)
            assert rep["timing_seconds"] >= 0
        assert json.dumps(without_timing(rep1), sort_keys=True) \
            == json.dumps(without_timing(rep2), sort_keys=True)

    def test_sampled_path_determinism(self, capsys):
        argv = ["chebcheck", "--system", "poly:2", "--grid", "uniform:0,100,40",
                "--budget", "17", "--seed", "13"]
        _, rep1 = run_cli(capsys, *argv)
        _, rep2 = run_cli(capsys, *argv)
        assert without_timing(rep1) == without_timing(rep2)
        assert rep1["results"]["positivity"]["exhaustive"] is False

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["chebcheck", "--system", "poly:2", "--grid", "uniform:0,1,5",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["results"]["positivity"]["verdict"] == "positive_on_grid"

    @pytest.mark.parametrize("where, error", [
        ("missing/report.json", "FileNotFoundError"), (".", "IsADirectoryError")])
    def test_unwritable_out_is_a_structured_error(self, capsys, tmp_path, where, error):
        out = tmp_path / where
        code = main(["chebcheck", "--system", "poly:3", "--grid", "list:0,1,2,3",
                     "--out", str(out)])
        rep = strict_json(capsys.readouterr().out)
        assert code == 2
        assert sorted(rep) == ["command", "config", "error", "timing_seconds", "version"]
        assert rep["config"]["out"] == str(out)
        assert rep["error"]["type"] == error and str(out) in rep["error"]["message"]
        assert not (tmp_path / "missing").exists()

    def test_bad_system_spec_structured_error(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "nope:3",
                            "--grid", "uniform:0,1,5")
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert "nope" in rep["error"]["message"]

    def test_missing_grid_structured_error(self, capsys):
        code, rep = run_cli(capsys, "chebcheck", "--system", "poly:2")
        assert code == 2
        assert rep["error"]["type"] == "InputError"

    def test_version_field(self, capsys):
        _, rep = run_cli(capsys, "chebcheck", "--system", "poly:2",
                         "--grid", "uniform:0,1,5")
        assert rep["version"] == chebconvex.__version__

    def test_argparse_errors_are_json(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chebcheck", "--backend", "bogus"])
        assert err.value.code == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"]["type"] == "ArgumentError"


class TestFileInputs:
    def test_sampled_csv_function(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("point,value\n0,0\n1,1\n2,4\n3,9\n")
        code, rep = run_cli(capsys, "divdiff", "--system", "poly:3",
                            "--function", str(csv_path), "--grid", "list:0,1,3")
        assert code == 0
        assert rep["results"]["value"] == "1"  # second-order difference of x^2

    def test_headerless_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("1,5\n2,7\n")
        code, rep = run_cli(capsys, "divdiff", "--system", "poly:2",
                            "--function", str(csv_path), "--grid", "list:1,2")
        assert code == 0
        assert rep["results"]["value"] == "2"

    def test_grid_json_file(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([0, 1, 2, 3]))
        code, rep = run_cli(capsys, "chebcheck", "--system", "poly:2",
                            "--grid", str(grid_path))
        assert code == 0

    def test_system_json_file(self, capsys, tmp_path):
        sys_path = tmp_path / "system.json"
        sys_path.write_text(json.dumps({
            "basis": [{"kind": "power", "k": 0}, {"kind": "power", "k": 1}],
            "domain": {"kind": "interval", "lo": None, "hi": None},
        }))
        code, rep = run_cli(capsys, "chebcheck", "--system", str(sys_path),
                            "--grid", "uniform:0,1,5")
        assert code == 0

    def test_anchors_json_file(self, capsys, tmp_path):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"a": ["-1/2", "0"], "b": ["1", "3/2"]}))
        code, rep = run_cli(capsys, "variation", "--system", "poly:2",
                            "--g", "power:2", "--a", "0", "--b", "1",
                            "--anchors", str(anchors),
                            "--m0", "4", "--rounds", "1", "--perturb-rounds", "0")
        assert code == 0
        assert rep["results"]["bound"] == "3"

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, rep = run_cli(capsys, "chebcheck", "--system", str(bad),
                            "--grid", "uniform:0,1,5")
        assert code == 2


def run_fresh(*argv):
    """(exit code, report) of one command in a new interpreter."""
    src = str(Path(chebconvex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "chebconvex.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return done.returncode, json.loads(done.stdout)


class TestParserReuse:
    FIRST = ("convexity", "--system", "poly:2", "--function", "power:3",
             "--grid", "uniform:0,2,6", "--mode", "interval", "--k", "1",
             "--ell", "0", "--budget", "40", "--seed", "3", "--tol", "0.05")
    SECOND = ("chebcheck", "--system", "poly:3", "--grid", "uniform:0,4,8")

    def test_second_call_sees_no_option_of_the_first(self, capsys):
        assert build_parser() is build_parser()
        in_process = [run_cli(capsys, *self.FIRST), run_cli(capsys, *self.SECOND)]
        fresh = [run_fresh(*self.FIRST), run_fresh(*self.SECOND)]
        for (code, rep), (fresh_code, fresh_rep) in zip(in_process, fresh):
            assert code == fresh_code
            assert without_timing(rep) == without_timing(fresh_rep)
        config = in_process[1][1]["config"]
        assert "mode" not in config
        assert (config["k"], config["ell"], config["seed"]) == (None, None, 0)


MALFORMED_SYSTEMS = {
    "no basis": ({"domain": {"kind": "interval"}},
                 "system spec is missing field 'basis'"),
    "top-level list": ([{"kind": "power", "k": 0}],
                       "system spec must be a JSON object, got list"),
    "domain list": ({"basis": [{"kind": "power", "k": 0}], "domain": []},
                    "domain spec must be a JSON object, got list"),
    "finite set without points": (
        {"basis": [{"kind": "power", "k": 0}], "domain": {"kind": "finite_set"}},
        "domain spec 'finite_set' is missing field 'points'"),
    "bool exponent": (
        {"basis": [{"kind": "power", "k": 0}, {"kind": "power", "k": True}],
         "domain": {"kind": "interval"}},
        "power exponent must be an int >= 0, got True"),
    "closed end as a string": (
        {"basis": [{"kind": "power", "k": 0}, {"kind": "power", "k": 1}],
         "domain": {"kind": "interval", "lo": 0, "hi": 2, "lo_open": "false",
                    "hi_open": "false"}},
        "domain spec field 'lo_open' must be true or false, got 'false'"),
    "affine term not an object": (
        {"basis": [{"kind": "power", "k": 0},
                   {"kind": "affine", "terms": [1]}],
         "domain": {"kind": "interval"}},
        "bad function spec 'affine': 'int' object is not subscriptable"),
}


@pytest.mark.parametrize("name", MALFORMED_SYSTEMS)
def test_malformed_system_json_is_input_error(capsys, tmp_path, name):
    spec, message = MALFORMED_SYSTEMS[name]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    code, rep = run_cli(capsys, "chebcheck", "--system", str(path),
                        "--grid", "list:0,1,2")
    assert code == 2
    assert rep["error"] == {"type": "InputError", "message": message}


def test_malformed_function_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "affine", "terms": [1]}))
    code, rep = run_cli(capsys, "divdiff", "--system", "poly:2",
                        "--function", str(path), "--grid", "list:0,1")
    assert code == 2
    assert rep["error"]["type"] == "InputError"


# Builtin ids take exactly the parameters of their form.  Each of these
# used to run with the suffix dropped or end in a ValueError that named
# no spec; each is now an InputError naming the spec and its form.
MALFORMED_IDS = {
    "power:2:junk": ("--function", "malformed function spec 'power:2:junk'; expected power:k"),
    "cos:2:9": ("--function", "malformed function spec 'cos:2:9'; expected cos[:m]"),
    "exp:7": ("--function", "malformed function spec 'exp:7'; expected exp"),
    "power:x": ("--function", "malformed function spec 'power:x'; expected power:k"),
    "one-xsq:3": ("--system", "malformed system spec 'one-xsq:3'; expected one-xsq"),
    "poly:x": ("--system", "malformed system spec 'poly:x'; expected poly:N"),
    "poly:2:junk": ("--system", "malformed system spec 'poly:2:junk'; expected poly:N"),
    "trig-odd:1:-2": ("--system",
                      "malformed system spec 'trig-odd:1:-2'; expected trig-odd:N[:lo,hi]"),
}


@pytest.mark.parametrize("spec", MALFORMED_IDS)
def test_malformed_builtin_id_is_input_error(capsys, spec):
    flag, message = MALFORMED_IDS[spec]
    argv = {"--system": "poly:2", "--function": "power:2"} | {flag: spec}
    code, rep = run_cli(capsys, "divdiff", "--grid", "list:1,2",
                        *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert rep["error"] == {"type": "InputError", "message": message}


def test_stray_unsafe_domain_is_input_error(capsys):
    code, rep = run_cli(capsys, "chebcheck", "--system", "poly:3", "--unsafe-domain", "full",
                        "--grid", "list:0,1,2")
    assert code == 2
    assert rep["error"] == {
        "type": "InputError",
        "message": "system spec 'poly:3' takes no domain override; only one-xsq does"}


@pytest.mark.parametrize("system", ["one-xsq", "poly:2"])
@pytest.mark.parametrize("domain", ["junk", "1,2,3"])
def test_malformed_unsafe_domain_is_input_error(capsys, system, domain):
    code, rep = run_cli(capsys, "chebcheck", "--system", system, "--unsafe-domain", domain,
                        "--grid", "list:1,2")
    assert code == 2
    assert rep["error"] == {
        "type": "InputError",
        "message": f"--unsafe-domain is 'full' or 'lo,hi', got {domain!r}"}


def test_unsafe_domain_with_a_system_file_is_input_error(capsys):
    path = Path(__file__).resolve().parent / "data" / "line_system.json"
    code, rep = run_cli(capsys, "chebcheck", "--system", str(path), "--unsafe-domain", "0,5",
                        "--grid", "list:0,1,2")
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert rep["error"]["message"].startswith("--unsafe-domain overrides the one-xsq domain only")


# Each builtin function id and the JSON spec it stands for (README).
FUNCTION_IDS = [
    ("power:2", "exact", {"kind": "power", "k": 2}),
    ("cos", "float", {"kind": "cos", "freq": 1}),
    ("cos:3", "float", {"kind": "cos", "freq": 3}),
    ("sin", "float", {"kind": "sin", "freq": 1}),
    ("sin:2", "float", {"kind": "sin", "freq": 2}),
    ("exp", "float", {"kind": "exp"}),
    ("const:3/2", "exact", {"kind": "const", "c": "3/2"}),
    ("const:0.5", "float", {"kind": "const", "c": 0.5}),
    ("negcot:-2", "float", {"kind": "negcot", "shift": -2.0}),
]


@pytest.mark.parametrize("spec, backend, json_spec", FUNCTION_IDS)
def test_function_id_is_its_json_spec(spec, backend, json_spec):
    from chebconvex.cli import _parse_function
    from chebconvex.core import Backend, function_from_json
    f = _parse_function(spec, Backend(backend))
    assert f == function_from_json(json_spec)
    assert repr(f) == repr(function_from_json(json_spec))


@pytest.mark.parametrize("flag, text", [
    ("--grid", "x\n0\n1\nbad\n2\n"),
    ("--function", "point,value\n0,0\n1,1\nbad,4\n2,4\n"),
])
def test_csv_header_rows_come_before_the_first_data_row(capsys, tmp_path, flag, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    argv = {"--system": "poly:2", "--function": "power:2", "--grid": "list:0,1"} | \
        {flag: str(path)}
    code, rep = run_cli(capsys, "divdiff", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert rep["error"]["message"].startswith("bad exact scalar 'bad'")


def test_nan_grid_point_is_outside_the_domain(capsys):
    """NaN lies in no interval, so a NaN grid point is an input error,
    never a pass."""
    code, rep = run_cli(capsys, "chebcheck", "--system", "trig-odd:1", "--k", "1",
                        "--grid", "list:nan", "--backend", "float")
    assert code == 2
    assert rep["error"] == {"type": "EvaluationOutsideSupport",
                            "message": "grid point nan is outside the system domain"}


@pytest.mark.parametrize("argv", [
    ("divdiff", "--grid", "list:-1,1"),
    ("convexity", "--mode", "induced", "--k", "1", "--grid", "list:-1,0,1,2"),
])
def test_zero_denominator_is_singular_at_a_negative_tol(capsys, argv):
    """A negative --tol once made the float rule |den| <= tol miss a zero
    denominator: a ZeroDivisionError traceback, exit 1."""
    code, rep = run_cli(capsys, *argv, "--system", "one-xsq", "--unsafe-domain", "full",
                        "--function", "power:3", "--backend", "float", "--tol=-1")
    assert code == 2
    assert rep["error"] == {
        "type": "SingularDenominator",
        "message": "prefix collocation determinant 0.0 within tolerance at (-1.0, 1.0)"}
