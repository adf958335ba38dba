"""Chebyshev systems, generalized divided differences, convexity checks
and variation bounds, with exact-rational and float backends.

Every public name is looked up in its module at each use (PEP 562), and
the module is loaded at the first use of one of its names; so ``import
chebconvex`` loads no module of the engine, and the package namespace
holds no copy of a name that could go stale when a name is replaced in
its module.
"""

import importlib

__version__ = "0.1.0"

#: Each public name's module (``errors`` is the module itself).
_MODULE_OF = {name: module for module, names in {
    "core": (
        "AffineFn", "Backend", "ChebyshevSystem", "ConstFn", "CosFn", "ExpFn", "FiniteSet",
        "FunctionSpec", "Interval", "NegCotFn", "OrderingClass", "PointTuple", "PowerFn",
        "PuncturedInterval", "SampledFn", "SinFn", "affine", "evaluate", "function_from_json",
        "puncture", "system_from_json", "to_exact", "to_float", "validate_tuple"),
    "determinant": (
        "Matrix", "PositivityReport", "SylvesterReport", "bordered_minor", "det",
        "is_positive_chebyshev", "matrix_from_rows", "sylvester_check"),
    "divdiff": (
        "DividedDifference", "ResidualReport", "classical_divided_difference",
        "complete_homogeneous", "divided_difference", "power_divdiff_check"),
    "induced": ("DerivedFn", "verify_induced_system"),
    "convexity": (
        "AgreementReport", "ConvexityVerdict", "check_convex_direct", "check_convex_induced",
        "check_convex_interval", "convexity_identity_check", "cross_mode_agreement"),
    "variation": (
        "RefinementStrategy", "VariationCheckReport", "VariationEstimate",
        "check_variation_bound", "default_anchors", "estimate_variation", "variation_bound"),
    "systems": ("one_xsq_system", "polynomial_system", "trig_even_system", "trig_odd_system"),
    "errors": ("errors",),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """The public name ``name``, read from its module, which is loaded at
    the first use of one of its names."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return module if name == _MODULE_OF[name] else getattr(module, name)


def __dir__() -> list:
    """The package's own names and every public name."""
    return sorted({*globals(), *__all__})
