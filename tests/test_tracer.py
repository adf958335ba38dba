"""The benchmark's tracer (``bench/tracer.py``) installs on the package
and is removed cleanly.  It looks up package names when it installs:
``DerivedFn`` in ``chebconvex.induced``, and each function it wraps in
every module that imports it, among the modules loaded when it
installs (the command line loads each engine module at the first
command that calls it).  So a change that deletes or moves one of
those names fails here, in the tier-1 suite, and not only in
``bench/test_bench.py``, which runs outside it."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from chebconvex import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

#: A request of each command, and an engine function that its call reaches.
REACHES = [
    (["chebcheck", "--system", "poly:3", "--grid", "uniform:0,2,6"],
     "determinant.is_positive_chebyshev"),
    (["divdiff", "--system", "poly:3", "--function", "power:3", "--grid", "list:0,1/2,2"],
     "divdiff.divided_difference"),
    (["convexity", "--mode", "agreement", "--system", "poly:3", "--function", "power:4",
      "--grid", "uniform:0,2,5"], "convexity.cross_mode_agreement"),
    (["variation", "--system", "poly:2", "--g", "power:2", "--h", "power:3",
      "--a", "1/2", "--b", "1"], "variation.check_variation_bound"),
    (["identities", "--suite", "induced-det", "--trials", "3"],
     "induced.verify_induced_system"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes() -> dict:
    """Every attribute of every loaded package module, by (module, name)."""
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "chebconvex" or name.startswith("chebconvex."))
            for attr, value in vars(module).items()}


def run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_tracer_installs_and_every_patched_attribute_is_restored():
    """A traced call of each command reaches a wrapped engine function,
    and removing the tracer restores every attribute it patched."""
    # the tracer patches the modules loaded when it installs: each command
    # runs once before, as bench/run.py runs its requests plainly first
    for argv, _ in REACHES:
        run(argv)
    before = package_attributes()
    t = load_tracer().Tracer()
    t.install()
    try:
        during = package_attributes()
        for i, (argv, _) in enumerate(REACHES):
            with t.request(i, "exact"):
                assert run(argv) in (0, 1)
    finally:
        t.remove()
    for i, (argv, reached) in enumerate(REACHES):
        names = [t.names[n] for n, r in zip(t.span_name, t.span_request) if r == i]
        assert names[0] == "cli.main" and reached in names, argv[0]
    patched = {key for key in before if during[key] is not before[key]}
    # functions wrapped where they are imported, among them the two
    # imports that tests/test_imports.py keeps for the tracer alone
    for key in [("chebconvex.convexity", "det"), ("chebconvex.determinant", "evaluate"),
                ("chebconvex.identities", "verify_induced_system")]:
        assert key in patched
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
