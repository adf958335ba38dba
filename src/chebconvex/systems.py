"""Builtin Chebyshev system catalog.

Four families: the polynomial system on the real line, odd and even
trigonometric systems on bounded intervals, and the (1, x^2) pair on
the positive half-line (a standard example of a system that is positive
on one domain and degenerate on a larger one).

Trigonometric prefix positivity is not assumed: a caller measures it
with a grid check (determinant.is_positive_chebyshev) on the concrete
interval.  The closed form of the system that the odd trigonometric
system induces, (1, -cot((x1 + x)/2)), is a test oracle
(tests/oracles.py).
"""

from __future__ import annotations

import math

from .core import (
    ChebyshevSystem,
    ConstFn,
    CosFn,
    Domain,
    Interval,
    PowerFn,
    REAL_LINE,
    POSITIVE_HALF_LINE,
    Scalar,
    SinFn,
    scalar_backend,
)
from .errors import DomainTooLong, InputError


def polynomial_system(n: int) -> ChebyshevSystem:
    """(1, x, ..., x**(n-1)) on the real line; every prefix is positive
    (Vandermonde)."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    return ChebyshevSystem(tuple(PowerFn(i) for i in range(n)), REAL_LINE)


def trig_odd_system(n: int, lo: Scalar, hi: Scalar) -> ChebyshevSystem:
    """(1, cos x, sin x, ..., cos nx, sin nx), dimension 2n+1, on an open
    interval of length at most 2*pi."""
    if n < 1:
        raise InputError(f"trig order must be >= 1, got {n}")
    _check_interval_length(lo, hi, 2 * math.pi)
    basis: list = [ConstFn(1)]
    for m in range(1, n + 1):
        basis += [CosFn(m), SinFn(m)]
    return ChebyshevSystem(tuple(basis), Interval(lo, hi))


def trig_even_system(n: int, lo: Scalar, hi: Scalar) -> ChebyshevSystem:
    """(cos x, sin x, ..., cos nx, sin nx), dimension 2n, on an open
    interval of length at most pi."""
    if n < 1:
        raise InputError(f"trig order must be >= 1, got {n}")
    _check_interval_length(lo, hi, math.pi)
    basis: list = []
    for m in range(1, n + 1):
        basis += [CosFn(m), SinFn(m)]
    return ChebyshevSystem(tuple(basis), Interval(lo, hi))


def one_xsq_system(domain: Domain | None = None,
                   allow_unsafe_domain: bool = False) -> ChebyshevSystem:
    """(1, x^2), positive on the open positive half-line.

    The collocation determinant is (x1 + x2)(x2 - x1), which vanishes on
    symmetric pairs, so the pair is not a Chebyshev system on the whole
    real line.  Overriding the domain (e.g. to reproduce that
    degeneracy) requires ``allow_unsafe_domain=True``.
    """
    basis = (PowerFn(0), PowerFn(2))
    if domain is None:
        return ChebyshevSystem(basis, POSITIVE_HALF_LINE)
    if not allow_unsafe_domain:
        raise InputError(
            "overriding the (1, x^2) domain can break positivity; "
            "pass allow_unsafe_domain=True to accept that")
    return ChebyshevSystem(basis, domain)


#: Catalog id -> its form, the reader of its ':'-separated parameters into
#: positional arguments of its constructor, and the constructor.
_CATALOG = {
    "poly": ("poly:N", lambda n: (int(n),), polynomial_system),
    "trig-odd": ("trig-odd:N[:lo,hi]", lambda n, interval=None: (
        int(n), *((-math.pi, 0.0) if interval is None else map(float, interval.split(",")))),
        trig_odd_system),
    "trig-even": ("trig-even:N[:lo,hi]", lambda n, interval=None: (
        int(n), *((-math.pi / 2, 0.0) if interval is None else map(float, interval.split(",")))),
        trig_even_system),
    "one-xsq": ("one-xsq", lambda: (), one_xsq_system),
}

CATALOG_IDS = tuple(_CATALOG)


def _system_from_id(spec: str, domain: Domain | None = None) -> ChebyshevSystem:
    """The system a catalog id names: poly:N, trig-odd:N[:lo,hi] (the
    interval defaults to (-pi, 0)), trig-even:N[:lo,hi] (to (-pi/2, 0))
    or one-xsq.  Each id takes exactly the parameters of its form.
    ``domain`` overrides the one-xsq domain, with
    ``allow_unsafe_domain=True``; no other id takes it."""
    kind, *params = spec.split(":")
    if kind not in _CATALOG:
        raise InputError(f"unknown system spec {spec!r} (expected a JSON path or "
                         f"{' / '.join(form for form, _, _ in _CATALOG.values())})")
    form, read, build = _CATALOG[kind]
    if domain is not None and build is not one_xsq_system:
        raise InputError(f"system spec {spec!r} takes no domain override; only one-xsq does")
    kwargs = {} if domain is None else {"domain": domain, "allow_unsafe_domain": True}
    try:
        # a wrong count of parameters or of interval ends is a TypeError
        return build(*read(*params), **kwargs)
    except (TypeError, ValueError):
        raise InputError(f"malformed system spec {spec!r}; expected {form}") from None


def _check_interval_length(lo: Scalar, hi: Scalar, max_length: float) -> None:
    scalar_backend(lo)
    scalar_backend(hi)
    if not lo < hi:
        raise InputError(f"empty interval: lo={lo}, hi={hi}")
    if float(hi) - float(lo) > max_length:
        raise DomainTooLong(
            f"interval length {float(hi) - float(lo)} exceeds the admissible {max_length}")
