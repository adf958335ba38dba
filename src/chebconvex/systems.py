"""Builtin Chebyshev system catalog.

Four families: the polynomial system on the real line, odd and even
trigonometric systems on bounded intervals, and the (1, x^2) pair on
the positive half-line (a standard example of a system that is positive
on one domain and degenerate on a larger one).

Trigonometric prefix positivity is not assumed: it is measured by a
grid check on the concrete interval at construction time and recorded
in the catalog entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    Domain,
    FiniteSet,
    Interval,
    NegCotFn,
    PowerFn,
    PuncturedInterval,
    REAL_LINE,
    POSITIVE_HALF_LINE,
    Scalar,
    SinFn,
    scalar_backend,
)
from .determinant import DEFAULT_SEED, DEFAULT_TUPLE_BUDGET, is_positive_chebyshev
from .errors import DomainTooLong, InputError

DEFAULT_GRID_SIZE = 12


@dataclass(frozen=True)
class CatalogEntry:
    """A constructed builtin system plus its positivity metadata:
    ``prefix_positive_upto`` is the largest k such that every prefix of
    size 1..k passed (or is known to pass) the positivity check."""

    id: str
    params: tuple
    system: ChebyshevSystem
    prefix_positive_upto: int


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


def trig_induced_closed_form(x1: Scalar, lo: Scalar = -math.pi,
                             hi: Scalar = 0) -> ChebyshevSystem:
    """The two-dimensional system (1, -cot((x1 + x)/2)) on the interval
    punctured at x1: the closed form of the system induced from
    (1, cos, sin) by pinning the single base point x1."""
    base_interval = Interval(lo, hi)
    if not base_interval.contains(x1):
        raise InputError(f"base point {x1} is outside the interval ({lo}, {hi})")
    return ChebyshevSystem((ConstFn(1), NegCotFn(x1)),
                           PuncturedInterval(base_interval, (x1,)))


def _check_interval_length(lo: Scalar, hi: Scalar, max_length: float) -> None:
    scalar_backend(lo)
    scalar_backend(hi)
    if not lo < hi:
        raise InputError(f"empty interval: lo={lo}, hi={hi}")
    if float(hi) - float(lo) > max_length:
        raise DomainTooLong(
            f"interval length {float(hi) - float(lo)} exceeds the admissible {max_length}")


# ---------------------------------------------------------------------------
# construction-time positivity metadata

def default_grid(domain: Domain, size: int = DEFAULT_GRID_SIZE) -> tuple:
    """A deterministic grid of ``size`` points inside the domain, exact
    for exact/unbounded intervals and float for float-bounded ones."""
    if isinstance(domain, FiniteSet):
        return tuple(sorted(domain.points))[:size]
    if isinstance(domain, PuncturedInterval):
        base = default_grid(domain.base, size + len(domain.excluded))
        return tuple(x for x in base if domain.contains(x))[:size]
    if not isinstance(domain, Interval):
        raise InputError(f"no default grid for domain {domain!r}")
    lo, hi = domain.lo, domain.hi
    if lo is None and hi is None:
        return tuple(Fraction(i - size // 2) for i in range(size))
    if lo is None:
        exact = scalar_backend(hi) is not Backend.FLOAT
        h = hi if exact else float(hi)
        return tuple(h - (size - i) for i in range(size))
    if hi is None:
        exact = scalar_backend(lo) is not Backend.FLOAT
        l = lo if exact else float(lo)
        return tuple(l + (i + 1) for i in range(size))
    if scalar_backend(lo) is Backend.FLOAT or scalar_backend(hi) is Backend.FLOAT:
        l, h = float(lo), float(hi)
        return tuple(l + (h - l) * (i + 1) / (size + 1) for i in range(size))
    l, h = Fraction(lo), Fraction(hi)
    return tuple(l + (h - l) * Fraction(i + 1, size + 1) for i in range(size))


def verified_prefix_depth(system: ChebyshevSystem, grid=None,
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED) -> int:
    """Largest k such that the 1..k prefixes all pass the grid
    positivity check; 0 if already the one-dimensional prefix fails."""
    if grid is None:
        grid = default_grid(system.domain)
    depth = 0
    for k in range(1, system.dim + 1):
        report = is_positive_chebyshev(system, k, grid, budget=budget, seed=seed)
        if not report.is_positive:
            break
        depth = k
    return depth


def catalog_entry(system_id: str, **params) -> CatalogEntry:
    """Construct a builtin system by catalog id and record its verified
    prefix depth.

    ids: "poly" (n), "trig-odd" (n, lo, hi), "trig-even" (n, lo, hi),
    "one-xsq" (optional domain override): the keyword arguments of
    the id's constructor.
    """
    if system_id not in _CATALOG:
        raise InputError(f"unknown catalog id {system_id!r}; known: {CATALOG_IDS}")
    system = _CATALOG[system_id][2](**params)
    if system_id == "poly":
        depth = system.dim  # Vandermonde: analytic, not grid-limited
    elif system_id == "one-xsq" and params.get("domain") is None:
        depth = 2
    else:
        depth = verified_prefix_depth(system)
    return CatalogEntry(system_id, tuple(sorted(params.items(), key=lambda kv: kv[0])),
                        system, depth)
