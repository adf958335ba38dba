"""The benchmark's tracer (``bench/tracer.py``) installs on the package
and is removed cleanly.  It looks up package names when it installs:
``DerivedFn`` in ``chebconvex.induced``, and each function it wraps in
every module that imports it.  So a change that deletes or moves one of
those names fails here, in the tier-1 suite, and not only in
``bench/test_bench.py``, which runs outside it."""

import importlib.util
import sys
from pathlib import Path

import chebconvex.cli  # noqa: F401  (the tracer patches every loaded package module)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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


def test_tracer_installs_and_every_patched_attribute_is_restored():
    before = package_attributes()
    t = load_tracer().Tracer()
    t.install()
    try:
        during = package_attributes()
    finally:
        t.remove()
    patched = {key for key in before if during[key] is not before[key]}
    # functions wrapped where they are imported, among them the two
    # imports that tests/test_imports.py keeps for the tracer alone
    for key in [("chebconvex.convexity", "det"), ("chebconvex.determinant", "evaluate"),
                ("chebconvex.cli", "is_positive_chebyshev"), ("chebconvex", "det")]:
        assert key in patched
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
