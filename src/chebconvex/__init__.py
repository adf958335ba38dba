"""Chebyshev systems, generalized divided differences, convexity checks
and variation bounds, with exact-rational and float backends."""

from .core import (
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    FiniteSet,
    FunctionSpec,
    Interval,
    NegCotFn,
    OrderingClass,
    PointTuple,
    PowerFn,
    PuncturedInterval,
    SampledFn,
    SinFn,
    affine,
    evaluate,
    function_from_json,
    puncture,
    system_from_json,
    to_exact,
    to_float,
    validate_tuple,
)
from .determinant import (
    Matrix,
    PositivityReport,
    SylvesterReport,
    bordered_minor,
    det,
    is_positive_chebyshev,
    matrix_from_rows,
    sylvester_check,
)
from .divdiff import (
    DividedDifference,
    ResidualReport,
    classical_divided_difference,
    complete_homogeneous,
    divided_difference,
    power_divdiff_check,
)
from .induced import (
    DerivedFn,
    verify_induced_system,
)
from .convexity import (
    AgreementReport,
    ConvexityVerdict,
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    convexity_identity_check,
    cross_mode_agreement,
)
from .variation import (
    RefinementStrategy,
    VariationCheckReport,
    VariationEstimate,
    check_variation_bound,
    default_anchors,
    estimate_variation,
    variation_bound,
)
from .systems import (
    one_xsq_system,
    polynomial_system,
    trig_even_system,
    trig_odd_system,
)
from . import errors

__version__ = "0.1.0"
