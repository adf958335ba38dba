"""Domain types shared by every module.

Scalars live under one of two backends:

* exact: :class:`fractions.Fraction` (arbitrary-precision rationals),
* float: IEEE-754 binary64 (Python ``float``).

Plain ``int`` is accepted as a backend-neutral literal that coerces to
either side.  In a point tuple (:class:`PointTuple`, the one type of a
tuple, a grid, a base and a partition) an int takes the tuple's one
backend: float next to a float, exact next to a Fraction; a grid of
ints alone is read at float if a function of the table reading it
requires float, else exact.  A computation never silently mixes the two
backends: putting a ``Fraction`` and a ``float`` into the same tuple,
grid, matrix or affine combination raises
:class:`~chebconvex.errors.BackendMismatch`, and conversions go through
the explicit :func:`to_exact` / :func:`to_float` helpers.

The backend is chosen once, where input enters: a function's value
converts its scalars with the backend's one scalar type
(``_BACKEND_TYPES``) and checks nothing again, since :func:`evaluate`
and the point tables refuse every clash of a function's requirement
(:meth:`FunctionSpec.required_backend`) with the point or the grid
before its first value.  The float-only functions (cos, sin, exp and
the cotangent) state that requirement once, through ``_FloatFn``.

All types here are immutable after construction, apart from caches
filled when first read (a point tuple's Fractions over one scale and
its ``spaced``), which hold the same value whichever caller fills
them, and safe to share between threads.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    BackendMismatch,
    EvaluationOutsideSupport,
    InputError,
    OrderingViolation,
)

Scalar = Union[int, Fraction, float]

#: Minimum pairwise gap of float-backend points, the one that every
#: divided-difference, variation and convexity entry point enforces.
#: Exact tuples only need distinctness; float tuples closer than this
#: produce denominators too ill-conditioned to trust.
DEFAULT_MIN_GAP = 1e-9

#: Default scale factor of the positivity tolerance: a float determinant
#: counts as positive only above ``tol_factor * (max |entry|) ** n``.
DEFAULT_TOL_FACTOR = 1e-10

#: Default number of tuples enumerated exhaustively before the checker
#: switches to seeded random sampling.
DEFAULT_TUPLE_BUDGET = 200_000

DEFAULT_SEED = 0

#: The names of the seeded fuzz suites over the determinant identities
#: (see identities.py), in the order ``--suite all`` runs them.
IDENTITY_SUITES = ("sylvester", "induced-det", "convexity-det", "slope-diff", "power-sum",
                   "trig-cot")


class Backend(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"

    # members are singletons: hash them as objects, not through Enum's
    # Python-level hash of their name (point tables key values by them)
    __hash__ = object.__hash__


class OrderingClass(enum.Enum):
    STRICTLY_INCREASING = "strictly_increasing"
    PAIRWISE_DISTINCT = "pairwise_distinct"
    UNCONSTRAINED = "unconstrained"


# ---------------------------------------------------------------------------
# scalar helpers

def scalar_backend(x: Scalar) -> Backend | None:
    """Backend of a single scalar; ``None`` for neutral ``int`` literals."""
    if isinstance(x, bool):
        raise BackendMismatch(f"bool is not a scalar: {x!r}")
    if isinstance(x, float):
        return Backend.FLOAT
    if isinstance(x, Fraction):
        return Backend.EXACT
    if isinstance(x, int):
        return None
    raise BackendMismatch(f"not a scalar: {x!r}")


def combine_backends(*backends: Backend | None,
                     default: Backend | None = None) -> Backend | None:
    """Merge backend tags, raising on an exact/float clash."""
    found = None
    for b in backends:
        if b is not None:
            if found not in (None, b):
                raise BackendMismatch(
                    "exact and float scalars mixed in one computation; "
                    "convert explicitly with to_exact()/to_float()")
            found = b
    return found or default


def to_exact(x: Scalar) -> Fraction:
    """Explicit conversion to the exact backend (floats convert to their
    exact binary value)."""
    return Fraction(x)


def to_float(x: Scalar) -> float:
    """Explicit conversion to the float backend (may round)."""
    return float(x)


#: The backend of each plain scalar type, as :func:`scalar_backend` reads it.
_TYPE_BACKENDS = {float: Backend.FLOAT, Fraction: Backend.EXACT, int: None}

#: The scalar type of each backend, the inverse of ``_TYPE_BACKENDS``.
_BACKEND_TYPES = {Backend.FLOAT: float, Backend.EXACT: Fraction}


def collection_backend(values, default: Backend | None = None) -> Backend | None:
    """The backend of the sequence ``values``, read from their types when
    all are plain float, Fraction or int, else value by value."""
    types = set(map(type, values))
    plain = types <= _TYPE_BACKENDS.keys()
    return combine_backends(*map(_TYPE_BACKENDS.get, types) if plain else
                            map(scalar_backend, values), default=default)


# ---------------------------------------------------------------------------
# point tuples

class PointTuple:
    """Points by position, with a validated ordering class and their one
    ``backend``, each read once, when the tuple is made.

    ``strictly_increasing`` tuples model the simplex of increasing
    configurations; ``pairwise_distinct`` only forbids coincidences.
    Every strictly increasing tuple is also a valid pairwise-distinct
    tuple.  The backend is float if any point is a float; exact if any
    is a Fraction, or if the tuple holds its points as the integers
    ``nums`` over one scale ``q``, whose ordering is checked on those
    integers; None (neutral) if every point is an int.  A point that is
    no scalar, or Fractions next to floats, raise
    :class:`BackendMismatch` before the ordering is checked.  Points are
    kept as given (a neutral int is converted only where a value is
    computed), and a tuple over one scale makes point j's Fraction
    (``self[j]``) only when a caller asks for it, for a report or a
    message.  Equality and hash are by identity.
    """

    def __init__(self, points=(), ordering: OrderingClass = OrderingClass.UNCONSTRAINED,
                 nums=None, q: int = 1):
        self.ordering, self.nums, self.q = ordering, nums, q
        if nums is None:
            keys = self._xs = tuple(points)
            self.backend = collection_backend(keys)
        else:
            keys, self._xs, self.backend = nums, [None] * len(nums), Backend.EXACT
        if ordering is OrderingClass.STRICTLY_INCREASING:
            for i in range(len(keys) - 1):
                if not keys[i] < keys[i + 1]:
                    raise OrderingViolation(i, i + 1,
                                            f"points[{i}]={self[i]} !< points[{i + 1}]={self[i + 1]}")
        elif ordering is OrderingClass.PAIRWISE_DISTINCT and len(set(keys)) < len(keys):
            # equal numbers hash alike, so only a tuple with an equal pair, or
            # a NaN object twice, has fewer distinct keys; the first equal pair
            # (i, j) in lexicographic order is then, in one pass, the smallest
            # (first position of x, j) over the points x at j after their
            # value's first, a NaN, equal to nothing, skipped (a dict or a set
            # matches it to itself)
            first: dict = {}
            pair = min(((i, j) for j, x in enumerate(keys) if x == x
                        for i in [first.setdefault(x, j)] if i != j), default=None)
            if pair:
                raise OrderingViolation(*pair, f"points[{pair[0]}] == points[{pair[1]}] == "
                                               f"{self[pair[0]]}")

    def __len__(self) -> int:
        return len(self._xs)

    def __iter__(self):
        return iter(self._xs) if self.nums is None else map(self.__getitem__, range(len(self)))

    def __getitem__(self, j: int) -> Scalar:
        x = self._xs[j]
        if x is None:
            x = self._xs[j] = Fraction(self.nums[j], self.q)
        return x

    def __repr__(self) -> str:
        return f"PointTuple({self.points!r}, {self.ordering})"

    @property
    def points(self) -> tuple:
        return self._xs if self.nums is None else tuple(self)

    def pq(self, j: int) -> tuple:
        """The exact point j as p/q, in two integers."""
        return (self.nums[j], self.q) if self.nums is not None else self._xs[j].as_integer_ratio()

    @functools.cached_property
    def spaced(self) -> bool:
        """Whether every two points at distinct positions pass
        validate_tuple's pairwise-distinct check at ``DEFAULT_MIN_GAP``,
        read once per tuple: on a float tuple, sorted gaps of at least
        that gap (a rounded difference grows with its larger point); else
        no equal points.  False where a difference overflows or is NaN,
        so that the caller's validate_tuple meets it."""
        xs = sorted(self._xs if self.nums is None else self.nums)
        if self.backend is not Backend.FLOAT:
            return all(a != b for a, b in zip(xs, xs[1:]))
        try:
            return all(b - a >= DEFAULT_MIN_GAP for a, b in zip(xs, xs[1:]))
        except OverflowError:
            return False


def validate_tuple(points, ordering: OrderingClass,
                   min_gap: float = DEFAULT_MIN_GAP) -> PointTuple:
    """Validate ``points`` against an ordering class and return the tuple.

    Float-backend tuples must additionally keep all pairwise gaps at
    least ``min_gap`` (ignored for the unconstrained class and for exact
    tuples, which only need distinctness).
    """
    pt = PointTuple(points, ordering)
    if (ordering is not OrderingClass.UNCONSTRAINED
            and pt.backend is Backend.FLOAT and min_gap > 0):
        pts = pt.points
        if ordering is OrderingClass.STRICTLY_INCREASING:
            # A rounded difference grows with its larger point, so the
            # first pair closer than min_gap is a consecutive one.
            pairs = ((i, i + 1) for i in range(len(pts) - 1))
        else:
            pairs = itertools.combinations(range(len(pts)), 2)
        for i, j in pairs:
            if abs(pts[i] - pts[j]) < min_gap:
                raise OrderingViolation(i, j, f"|points[{i}] - points[{j}]| < min gap {min_gap}")
    return pt


def _increasing(points) -> PointTuple:
    """``points`` as a strictly increasing tuple: as is when it is one
    already, else validated."""
    if isinstance(points, PointTuple) and points.ordering is OrderingClass.STRICTLY_INCREASING:
        return points
    return validate_tuple(points, OrderingClass.STRICTLY_INCREASING)


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class Interval:
    """A real interval; ``None`` endpoints mean unbounded.  NaN lies in
    no interval, and a NaN end makes an empty one."""

    lo: Scalar | None = None
    hi: Scalar | None = None
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        # a NaN end is the one that differs from itself
        if self.lo != self.lo or self.hi != self.hi or \
                self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise InputError(f"empty interval: lo={self.lo}, hi={self.hi}")

    def contains(self, x: Scalar) -> bool:
        if isinstance(x, float) and math.isnan(x):
            return False
        if self.lo is not None and (x < self.lo or (self.lo_open and x == self.lo)):
            return False
        if self.hi is not None and (x > self.hi or (self.hi_open and x == self.hi)):
            return False
        return True


@dataclass(frozen=True)
class FiniteSet:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        PointTuple(self.points, OrderingClass.PAIRWISE_DISTINCT)

    def contains(self, x: Scalar) -> bool:
        return any(x == p for p in self.points)


@dataclass(frozen=True)
class PuncturedInterval:
    """A base interval with finitely many interior points removed."""

    base: Interval
    excluded: tuple

    def __post_init__(self):
        object.__setattr__(self, "excluded", tuple(self.excluded))
        PointTuple(self.excluded, OrderingClass.PAIRWISE_DISTINCT)
        for p in self.excluded:
            if not self.base.contains(p):
                raise InputError(f"excluded point {p} lies outside the base interval")

    def contains(self, x: Scalar) -> bool:
        return self.base.contains(x) and all(x != p for p in self.excluded)


Domain = Union[Interval, FiniteSet, PuncturedInterval]


def _check_domain(domain: Domain, points, what: str = "point", js=None) -> None:
    """Raise :class:`EvaluationOutsideSupport` at the first of ``points``
    (of those at the increasing positions ``js``, if given) outside
    ``domain``, naming it ``what``.  An interval that holds the first and
    the last of them holds them all when ``points`` is a strictly
    increasing tuple."""
    js = range(len(points)) if js is None else js
    if (js and isinstance(domain, Interval) and isinstance(points, PointTuple)
            and points.ordering is OrderingClass.STRICTLY_INCREASING
            and domain.contains(points[js[0]]) and domain.contains(points[js[-1]])):
        return
    for j in js:
        if not domain.contains(points[j]):
            raise EvaluationOutsideSupport(f"{what} {points[j]} is outside the system domain")

REAL_LINE = Interval()
POSITIVE_HALF_LINE = Interval(lo=0)


def puncture(domain: Domain, points) -> Domain:
    """Remove finitely many points from a domain."""
    points = tuple(points)
    for p in points:
        if not domain.contains(p):
            raise InputError(f"cannot puncture: {p} is not in the domain")
    if isinstance(domain, Interval):
        return PuncturedInterval(domain, points)
    if isinstance(domain, PuncturedInterval):
        return PuncturedInterval(domain.base, domain.excluded + points)
    return FiniteSet(tuple(q for q in domain.points if all(q != p for p in points)))


# ---------------------------------------------------------------------------
# function specifications

class FunctionSpec:
    """A scalar function given in a closed, evaluable form.

    Named specs (powers, trig, exp, constants and affine combinations
    of those) evaluate anywhere; sampled specs evaluate only at their
    tabulated points and never interpolate.
    """

    def required_backend(self) -> Backend | None:
        """Backend this function insists on, or ``None`` if either works."""
        return None

    def _eval(self, x: Scalar, backend: Backend) -> Scalar:
        raise NotImplementedError

    def __call__(self, x: Scalar) -> Scalar:
        return evaluate(self, x)


def evaluate(f: FunctionSpec, x: Scalar) -> Scalar:
    """Evaluate ``f`` at ``x``.

    The result backend is the combination of the point's backend and the
    function's requirement (default exact); identical inputs produce
    bit-identical outputs per backend.
    """
    backend = combine_backends(scalar_backend(x), f.required_backend(),
                               default=Backend.EXACT)
    return f._eval(x, backend)


@dataclass(frozen=True)
class PowerFn(FunctionSpec):
    """x ↦ x**k for integer k ≥ 0 (so k=0 is the constant 1)."""

    k: int

    def __post_init__(self):
        if type(self.k) is not int or self.k < 0:    # a bool is no exponent
            raise InputError(f"power exponent must be an int >= 0, got {self.k!r}")

    def _eval(self, x, backend):
        return _BACKEND_TYPES[backend](x) ** self.k


class _FloatFn(FunctionSpec):
    """A function of the float backend only."""

    def required_backend(self):
        return Backend.FLOAT


@dataclass(frozen=True)
class _Trig(_FloatFn):
    """x ↦ fn(freq * x) for an int freq >= 1, fn the subclass's ``_fn``
    and named in messages by its ``_name``."""

    freq: int = 1

    def __post_init__(self):
        if type(self.freq) is not int or self.freq < 1:
            raise InputError(f"{self._name} frequency must be an int >= 1, got {self.freq!r}")

    def _eval(self, x, backend):
        return self._fn(self.freq * float(x))


class CosFn(_Trig):
    """x ↦ cos(freq * x); float backend only."""

    _name, _fn = "cos", math.cos


class SinFn(_Trig):
    """x ↦ sin(freq * x); float backend only."""

    _name, _fn = "sin", math.sin


@dataclass(frozen=True)
class ExpFn(_FloatFn):
    """x ↦ exp(x); float backend only."""

    def _eval(self, x, backend):
        return math.exp(float(x))


@dataclass(frozen=True)
class NegCotFn(_FloatFn):
    """x ↦ -cot((shift + x) / 2); float backend only.

    This is the closed form of the slope function induced by the
    three-dimensional trigonometric system: the ratio of sine and cosine
    increments with one endpoint pinned at ``shift``.
    """

    shift: Scalar

    def _eval(self, x, backend):
        u = (float(self.shift) + float(x)) / 2.0
        s = math.sin(u)
        if s == 0.0:
            raise EvaluationOutsideSupport(f"cotangent pole at x={x}")
        return -math.cos(u) / s


@dataclass(frozen=True)
class ConstFn(FunctionSpec):
    """The constant function x ↦ c."""

    c: Scalar

    def required_backend(self):
        return scalar_backend(self.c)

    def _eval(self, x, backend):
        return _BACKEND_TYPES[backend](self.c)


@dataclass(frozen=True)
class AffineFn(FunctionSpec):
    """A finite combination sum(coef_i * spec_i); coefficient backends
    must be consistent with every term's requirement."""

    terms: tuple  # of (coef, FunctionSpec) pairs

    def __post_init__(self):
        terms = tuple((c, s) for c, s in self.terms)
        object.__setattr__(self, "terms", terms)
        for c, s in terms:
            scalar_backend(c)
            if not isinstance(s, FunctionSpec):
                raise InputError(f"affine term is not a FunctionSpec: {s!r}")
        self.required_backend()  # raises early on exact/float clashes

    def required_backend(self):
        return combine_backends(*(b for c, s in self.terms
                                  for b in (scalar_backend(c), s.required_backend())))

    def _eval(self, x, backend):
        total = Fraction(0) if backend is Backend.EXACT else 0.0
        for c, s in self.terms:
            total += _BACKEND_TYPES[backend](c) * s._eval(x, backend)
        return total


@dataclass(frozen=True)
class SampledFn(FunctionSpec):
    """A function known only through a finite table of (point, value)
    pairs.  Off-table queries raise; there is no interpolation."""

    points: tuple
    values: tuple

    def __post_init__(self):
        points, values = tuple(self.points), tuple(self.values)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if len(points) != len(values):
            raise InputError("sampled table needs as many values as points")
        if not points:
            raise InputError("sampled table must be nonempty")
        backend = PointTuple(points, OrderingClass.PAIRWISE_DISTINCT).backend
        object.__setattr__(self, "_backend", combine_backends(backend, collection_backend(values)))
        object.__setattr__(self, "_table", dict(zip(points, values)))

    def required_backend(self):
        return self._backend

    def _eval(self, x, backend):
        try:
            value = self._table[x]
        except (KeyError, TypeError):
            raise EvaluationOutsideSupport(
                f"sampled function has no value at {x!r}") from None
        return _BACKEND_TYPES[backend](value)


def affine(*terms) -> AffineFn:
    """Convenience constructor: affine((2, PowerFn(3)), (-1, ExpFn()))."""
    return AffineFn(tuple(terms))


# ---------------------------------------------------------------------------
# Chebyshev systems

@dataclass(frozen=True)
class ChebyshevSystem:
    """An ordered tuple of basis functions on a common domain."""

    basis: tuple
    domain: Domain

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise InputError("a Chebyshev system needs at least one basis function")
        for fn in basis:
            if not isinstance(fn, FunctionSpec):
                raise InputError(f"basis entry is not a FunctionSpec: {fn!r}")
            _check_evaluable(fn, self.domain)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def with_appended(self, f: FunctionSpec) -> "ChebyshevSystem":
        """The (dim+1)-tuple obtained by appending ``f`` to the basis."""
        return ChebyshevSystem(self.basis + (f,), self.domain)

    def required_backend(self) -> Backend | None:
        return combine_backends(*(fn.required_backend() for fn in self.basis))


def _check_evaluable(fn: FunctionSpec, domain: Domain) -> None:
    # Sampled specs are evaluable on the whole domain only when the
    # domain is a finite subset of their table.
    if isinstance(fn, SampledFn):
        if not isinstance(domain, FiniteSet):
            raise InputError(
                "a sampled basis function is only evaluable on a finite-set domain")
        for p in domain.points:
            if p not in fn._table:
                raise InputError(f"sampled basis function has no value at domain point {p}")
    elif isinstance(fn, AffineFn):
        for _, s in fn.terms:
            _check_evaluable(s, domain)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Scalars: ints stay JSON integers, floats stay JSON numbers (repr round
# trips exactly), exact rationals become "p/q" strings.

def scalar_to_json(x: Scalar):
    if isinstance(x, bool):
        raise InputError("bool is not a scalar")
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, float)):
        return x
    raise InputError(f"not a scalar: {x!r}")


def scalar_from_json(v) -> Scalar:
    if isinstance(v, bool):
        raise InputError("bool is not a scalar")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {v!r}: {exc}") from None
    raise InputError(f"cannot parse scalar from {v!r}")


def _scalars_from_json(v) -> tuple:
    """The JSON array ``v`` as a tuple of scalars; any other JSON value
    raises TypeError, which :func:`_from_json` reports as a bad spec."""
    if not isinstance(v, list):
        raise TypeError(f"expected a JSON array, got {type(v).__name__}")
    return tuple(map(scalar_from_json, v))


#: Each JSON function kind's spec, built from its JSON object.
_FUNCTION_KINDS = {
    "power": lambda d: PowerFn(d["k"]),
    "cos": lambda d: CosFn(d.get("freq", 1)),
    "sin": lambda d: SinFn(d.get("freq", 1)),
    "exp": lambda d: ExpFn(),
    "const": lambda d: ConstFn(scalar_from_json(d["c"])),
    "negcot": lambda d: NegCotFn(scalar_from_json(d["shift"])),
    "affine": lambda d: AffineFn(tuple((scalar_from_json(t["coef"]), function_from_json(t["spec"]))
                                       for t in d["terms"])),
    "sampled": lambda d: SampledFn(_scalars_from_json(d["points"]),
                                   _scalars_from_json(d["values"])),
}


def function_from_json(d: dict) -> FunctionSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError(f"bad function spec: {d!r}")
    return _from_json(_FUNCTION_KINDS, d, d["kind"], "function")


def _from_json(kinds: dict, d: dict, kind, what: str):
    """``kinds[kind](d)``, the spec that the JSON object ``d`` of that
    kind gives; an unknown kind, or a missing field or a value of the
    wrong JSON type in ``d``, is an input error naming ``what``."""
    build = kinds.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise InputError(f"unknown {what} kind {kind!r}")
    try:
        return build(d)
    except (KeyError, TypeError) as exc:
        raise _json_error(f"{what} spec {kind!r}", exc) from None


def _json_object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise InputError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _json_error(what: str, exc: Exception) -> InputError:
    """A missing field (KeyError) or a value of the wrong JSON type
    (TypeError) in a spec, as an input error."""
    if isinstance(exc, KeyError):
        return InputError(f"{what} is missing field {exc}")
    return InputError(f"bad {what}: {exc}")


def _json_flag(d: dict, key: str) -> bool:
    """An interval spec's flag ``key``: a JSON boolean, true when absent."""
    v = d.get(key, True)
    if not isinstance(v, bool):
        raise InputError(f"domain spec field {key!r} must be true or false, got {v!r}")
    return v


#: Each JSON domain kind's domain, built from its JSON object.
_DOMAIN_KINDS = {
    "interval": lambda d: Interval(*(None if d.get(end) is None else scalar_from_json(d[end])
                                     for end in ("lo", "hi")),
                                   _json_flag(d, "lo_open"), _json_flag(d, "hi_open")),
    "finite_set": lambda d: FiniteSet(_scalars_from_json(d["points"])),
    "punctured_interval": lambda d: PuncturedInterval(
        domain_from_json(d["base"]), _scalars_from_json(d["excluded"])),
}


def domain_from_json(d: dict) -> Domain:
    return _from_json(_DOMAIN_KINDS, d, _json_object(d, "domain spec").get("kind"), "domain")


def system_from_json(d: dict) -> ChebyshevSystem:
    _json_object(d, "system spec")
    try:
        basis, domain = tuple(function_from_json(f) for f in d["basis"]), d["domain"]
    except (KeyError, TypeError) as exc:
        raise _json_error("system spec", exc) from None
    return ChebyshevSystem(basis, domain_from_json(domain))
