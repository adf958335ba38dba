"""Seeded request generation for the three benchmark workloads.

A workload is a round template: a fixed list of request shapes (command,
system, grid size range, backend, function family).  Round ``r`` of seed
``s`` fills the template with values drawn from
``random.Random(f"{s}:{r}")`` and writes its grid and function files, so
any round can be rebuilt on its own and no two requests of a run share
their inputs.

Grid points, affine coefficients and sampled values are dyadic
rationals written with their exact decimal expansion, so the exact
twin of a float request (same files, ``--backend exact``) sees the very
same numbers.

Each request carries ``expect``: the decision facts that follow from
the inputs alone (tuple and base counts, verdicts that hold by theory),
which ``check.py`` applies on every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

DEN = 16  # grid lattice spacing 1/DEN
TRIG_LO, TRIG_HI = -3.0625, -0.0625  # inside trig-odd:1's default domain (-pi, 0)

#: --trials ranges of the float identity suites that hit the
#: SingularDenominator defect: at this commit about two in five suite
#: seeds fail induced-det and nearly all fail slope-diff.  The ranges are
#: bounded, so a program that passes every trial costs the same in every
#: round.
DEFECT_TRIALS = {"induced-det": (8, 16), "slope-diff": (24, 40)}


@dataclass
class Request:
    id: str
    argv: list
    backend: str
    twin: str | None = None           # id of the exact twin of a float request
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# value helpers

def exact_text(x: Fraction) -> str:
    """Exact decimal expansion of a dyadic rational."""
    return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def dyadic_grid(rng: random.Random, m: int, lo: float, hi: float) -> list:
    idx = rng.sample(range(round(lo * DEN), round(hi * DEN) + 1), m)
    return [Fraction(i, DEN) for i in sorted(idx)]


def coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([c for c in range(-16, 17) if c]), 8)


def affine_terms(rng: random.Random, powers) -> list:
    return [(coef(rng), k) for k in powers]


def affine_value(terms, x: Fraction) -> Fraction:
    return sum((c * x ** k for c, k in terms), Fraction(0))


class Files:
    """Writes one round's input files under a private directory."""

    def __init__(self, root: str, tag: str):
        self.dir = os.path.join(root, tag)
        os.makedirs(self.dir, exist_ok=True)
        self.n = 0

    def _path(self, ext: str) -> str:
        self.n += 1
        return os.path.join(self.dir, f"{self.n}.{ext}")

    def grid_json(self, pts) -> str:
        path = self._path("json")
        with open(path, "w") as fh:
            fh.write("[" + ", ".join(exact_text(p) for p in pts) + "]")
        return path

    def grid_csv(self, pts) -> str:
        path = self._path("csv")
        with open(path, "w") as fh:
            fh.write("x\n" + "".join(exact_text(p) + "\n" for p in pts))
        return path

    def affine(self, terms, exact: bool) -> str:
        path = self._path("json")
        spec = {"kind": "affine", "terms": [
            {"coef": str(c) if exact else float(c), "spec": {"kind": "power", "k": k}}
            for c, k in terms]}
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def exp_affine(self, rng: random.Random) -> str:
        path = self._path("json")
        spec = {"kind": "affine", "terms": [
            {"coef": float(coef(rng)), "spec": {"kind": "exp"}},
            {"coef": float(coef(rng)), "spec": {"kind": "power", "k": 2}},
            {"coef": float(coef(rng)), "spec": {"kind": "power", "k": 1}}]}
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def sampled(self, pts, values) -> str:
        path = self._path("csv")
        with open(path, "w") as fh:
            fh.write("point,value\n")
            for p, v in zip(pts, values):
                fh.write(f"{exact_text(p)},{exact_text(v)}\n")
        return path


def sampled_values(rng: random.Random, pts, top: int) -> list:
    """An affine power combination up to x**top at the points, with one
    value nudged half the time, so verdicts mix convex and violated."""
    terms = affine_terms(rng, (top - 2, top - 1, top))
    values = [affine_value(terms, p) for p in pts]
    if rng.random() < 0.5:
        values[rng.randrange(len(values))] += Fraction(rng.choice((-1, 1)), DEN)
    return values


# ---------------------------------------------------------------------------
# expected counts

def pinned_counts(m: int, n: int, k: int, ell: int | None) -> dict:
    """Bases checked/skipped and inner tuples of an induced (ell None) or
    interval check of an n-dimensional system over an m-point grid."""
    checked = skipped = tuples = 0
    for base in itertools.combinations(range(m), k):
        off = [i for i in range(m) if i not in base]
        if ell is not None:
            lo = base[ell - 1] if ell > 0 else -1
            hi = base[ell] if ell < k else m
            off = [i for i in off if lo < i < hi]
        if len(off) < n - k + 1:
            skipped += 1
        else:
            checked += 1
            tuples += math.comb(len(off), n - k + 1)
    return {"tuples": tuples, "bases_checked": checked, "bases_skipped": skipped}


def agreement_counts(m: int, n: int) -> dict:
    out = {"direct": {"tuples": math.comb(m, n + 1), "bases_checked": 0, "bases_skipped": 0}}
    for k in range(1, n):
        out[f"induced:k={k}"] = pinned_counts(m, n, k, None)
        for ell in range(k + 1):
            out[f"interval:k={k}:ell={ell}"] = pinned_counts(m, n, k, ell)
    return out


# ---------------------------------------------------------------------------
# request generation

class Round:
    def __init__(self, seed: int, rnd: int, root: str):
        self.rng = random.Random(f"{seed}:{rnd}")
        self.rnd = rnd
        self.files = Files(root, f"r{rnd}")
        self.requests: list[Request] = []

    def add(self, slot: str, argv: list, backends=("exact", "float"), expect=None):
        for backend in backends:
            self.requests.append(Request(f"r{self.rnd}.{slot}.{backend}",
                                         argv + ["--backend", backend], backend,
                                         expect=dict(expect or {})))

    def size(self, sizes: tuple, slot_no: int) -> int:
        """Grid sizes cycle through their range across rounds, offset by
        slot, so every few rounds hold each size once and no run's mix
        depends on how sizes happened to be drawn."""
        lo, hi = sizes
        return lo + (self.rnd + slot_no) % (hi - lo + 1)

    def done(self) -> list:
        """The round's requests; each float request whose slot also ran
        on the exact backend gets that request as its twin."""
        exact = {r.id.rsplit(".", 1)[0]: r.id for r in self.requests
                 if r.backend == "exact"}
        for r in self.requests:
            if r.backend == "float":
                r.twin = exact.get(r.id.rsplit(".", 1)[0])
        return self.requests

    # scan / pinned function families: (path for exact, path for float)
    def function(self, family: str, pts, top: int):
        if family == "affine":
            terms = affine_terms(self.rng, sorted(self.rng.sample(range(top + 3), 3)))
            return self.files.affine(terms, True), self.files.affine(terms, False)
        if family == "sampled":
            path = self.files.sampled(pts, sampled_values(self.rng, pts, top))
            return path, path
        if family == "exp":
            return None, "exp"
        if family == "exp-affine":
            return None, self.files.exp_affine(self.rng)
        raise ValueError(family)


def _scan_round(seed: int, rnd: int, root: str) -> list:
    R = Round(seed, rnd, root)
    rng = R.rng
    # (slot, system, dim, sizes, lo, hi); both backends on poly
    for i, (slot, system, dim, sizes, lo, hi) in enumerate((
            ("S1", "poly:4", 4, (10, 14), 0, 2),
            ("S2", "poly:4", 4, (10, 14), 0, 2),
            ("S3", "poly:5", 5, (11, 12), 0, 12),   # wide grid: float tolerance defect
            ("S4", "poly:5", 5, (10, 12), 0, 2))):
        m = R.size(sizes, i)
        grid = R.files.grid_json(dyadic_grid(rng, m, lo, hi))
        R.add(slot, ["chebcheck", "--system", system, "--grid", grid],
              expect={"kind": "positivity", "tuples": math.comb(m, dim),
                      "exhaustive": True, "exact_verdict": "positive_on_grid"})
    m = R.size((12, 14), 4)
    grid = R.files.grid_json(dyadic_grid(rng, m, TRIG_LO, TRIG_HI))
    R.add("S5", ["chebcheck", "--system", "trig-odd:1", "--grid", grid], ("float",),
          expect={"kind": "positivity", "tuples": math.comb(m, 3), "exhaustive": True})
    # convexity --mode direct: (slot, system, dim, sizes, lo, hi, family)
    for i, (slot, system, dim, sizes, lo, hi, family) in enumerate((
            ("S6", "poly:4", 4, (10, 12), 0, 2, "affine"),
            ("S7", "poly:4", 4, (10, 12), 0, 2, "sampled"),
            ("S8", "poly:5", 5, (10, 11), 0, 2, "affine"),
            ("S9", "poly:4", 4, (10, 12), 0, 2, "exp"),
            ("S10", "poly:5", 5, (10, 11), 0, 2, "sampled"),
            ("S11", "trig-odd:1", 3, (10, 14), TRIG_LO, TRIG_HI, "exp"),
            ("S12", "trig-odd:1", 3, (10, 14), TRIG_LO, TRIG_HI, "affine"),
            ("S13", "trig-odd:1", 3, (10, 14), TRIG_LO, TRIG_HI, "sampled"))):
        m = R.size(sizes, i)
        pts = dyadic_grid(rng, m, lo, hi)
        grid = R.files.grid_json(pts)
        f_exact, f_float = R.function(family, pts, dim)
        expect = {"kind": "direct", "tuples": math.comb(m, dim + 1)}
        argv = ["convexity", "--mode", "direct", "--system", system, "--grid", grid]
        _add_by_family(R, slot, argv, system, f_exact, f_float, expect)
    return R.done()


def _add_by_family(R: Round, slot: str, argv: list, system: str, f_exact, f_float,
                   expect: dict) -> None:
    """Polynomial requests run on both backends; trig systems and exp
    functions are float only."""
    backends = ("float",) if system.startswith("trig") or f_exact is None \
        else ("exact", "float")
    for backend in backends:
        f = f_exact if backend == "exact" else f_float
        R.add(slot, argv + ["--function", f], (backend,), expect)


def _pinned_round(seed: int, rnd: int, root: str) -> list:
    R = Round(seed, rnd, root)
    rng = R.rng
    # (slot, system, grid sizes, mode, k, ell, family); family decides the
    # backends, ell "seeded" is drawn from 0..k
    shapes = (
        ("P1", "poly:3", (6, 7), "induced", 1, None, "affine"),
        ("P2", "poly:3", (6, 7), "induced", 2, None, "sampled"),
        ("P3", "poly:3", (6, 8), "interval", 1, "seeded", "affine"),
        ("P4", "poly:3", (6, 8), "interval", 2, "seeded", "exp-affine"),
        ("P5", "poly:3", (6, 8), "induced", 1, None, "exp-affine"),
        ("P6", "poly:3", (6, 7), "agreement", None, None, "affine"),
        ("P7", "poly:3", (6, 7), "agreement", None, None, "sampled"),
        ("P8", "trig-odd:1", (6, 8), "induced", 1, None, "exp"),
        ("P9", "trig-odd:1", (6, 8), "interval", 2, "seeded", "sampled"),
        ("P10", "trig-odd:1", (6, 7), "agreement", None, None, "affine"),
    )
    for i, (slot, system, sizes, mode, k, ell, family) in enumerate(shapes):
        m = R.size(sizes, i)
        pts = dyadic_grid(rng, m, TRIG_LO, TRIG_HI) if system.startswith("trig") \
            else dyadic_grid(rng, m, 0, 2.5)
        grid = R.files.grid_json(pts)
        f_exact, f_float = R.function(family, pts, 4)
        argv = ["convexity", "--mode", mode, "--system", system, "--grid", grid]
        if mode == "agreement":
            expect = {"kind": "agreement", "labels": agreement_counts(m, 3)}
        else:
            if ell == "seeded":
                ell = rng.randint(0, k)
                argv += ["--ell", str(ell)]
            argv += ["--k", str(k)]
            expect = {"kind": "pinned", **pinned_counts(m, 3, k, ell)}
        _add_by_family(R, slot, argv, system, f_exact, f_float, expect)
    return R.done()


def _decimal_points(rng: random.Random, count: int, lo: int, hi: int) -> list:
    return [Fraction(i, DEN) for i in sorted(rng.sample(range(lo * DEN, hi * DEN), count))]


def _short_round(seed: int, rnd: int, root: str) -> list:
    R = Round(seed, rnd, root)
    rng = R.rng
    # divdiff at 3-5 points; exact twins use the same decimal points.  A
    # float divdiff may raise SingularDenominator (recorded defect).
    for slot, npts, family in (("D1", 3, "power"), ("D2", 4, "affine"),
                               ("D3", 5, "power"), ("D4", 4, "exp")):
        pts = _decimal_points(rng, npts, -2, 3)
        grid = "list:" + ",".join(exact_text(p) for p in pts)
        argv = ["divdiff", "--system", f"poly:{npts}", "--grid", grid]
        if family == "exp":
            functions = {"float": "exp"}
        elif family == "power":
            functions = dict.fromkeys(("exact", "float"), f"power:{rng.randint(0, npts + 2)}")
        else:
            terms = affine_terms(rng, sorted(rng.sample(range(npts + 3), 3)))
            functions = {b: R.files.affine(terms, b == "exact") for b in ("exact", "float")}
        for backend, f in functions.items():
            R.add(slot, argv + ["--function", f], (backend,),
                  {"kind": "divdiff", "defect": backend == "float"})
    # variation: exact endpoints with non-dyadic denominators, float
    # decimals.  The round's share of 1/512 (1/4096 for float) in the left
    # endpoint keeps every request of a run distinct; the denominator q
    # cycles like a grid size, as it sets most of an exact request's cost.
    for i, (slot, dim) in enumerate((("V1", 2), ("V2", 3))):
        q = 2 * R.size((1, 6), i) + 1
        a = Fraction(rng.randint(q // 2 + 1, q), q) + Fraction(rnd, 512)
        b = a + Fraction(rng.randint(1, 2 * q), q)
        f = f"power:{rng.randint(dim, dim + 2)}"
        R.add(slot, ["variation", "--system", f"poly:{dim}", "--function", f,
                     "--a", str(a), "--b", str(b)], ("exact",), {"kind": "variation"})
        g, h = sorted(rng.sample(range(dim, dim + 4), 2))
        R.add(slot + "b", ["variation", "--system", f"poly:{dim}", "--g", f"power:{g}",
                           "--h", f"power:{h}", "--a", str(a), "--b", str(b)], ("exact",),
              {"kind": "variation", "bound_holds": True})
        a_f = Fraction(rng.randint(8, 16), DEN) + Fraction(rnd, 4096)
        b_f = a_f + Fraction(rng.randint(4, 16), DEN)
        R.add(slot + "f", ["variation", "--system", f"poly:{dim}", "--function", f,
                           "--a", exact_text(a_f), "--b", exact_text(b_f)], ("float",),
              {"kind": "variation"})
        R.add(slot + "g", ["variation", "--system", f"poly:{dim}", "--g", f"power:{g}",
                           "--h", f"power:{h}", "--a", exact_text(a_f),
                           "--b", exact_text(b_f)], ("float",),
              {"kind": "variation", "bound_holds": True})
    # identity suites, one per request at small trial counts, which cycle
    # like grid sizes; a suite seed's thousands are the round, so no
    # request repeats
    def suite(slot, name, trials, slot_no, backend, defect=False):
        argv = ["identities", "--suite", name, "--trials", str(R.size(trials, slot_no)),
                "--seed", str(1000 * (rnd + 1) + rng.randrange(1000))]
        R.add(slot, argv, (backend,), {"kind": "identities", "defect": defect})

    for i, name in enumerate(("sylvester", "induced-det", "convexity-det", "slope-diff",
                              "power-sum", "trig-cot")):
        suite("I-" + name, name, (3, 8), i, "exact")
    for i, name in enumerate(("sylvester", "power-sum", "trig-cot")):
        suite("If-" + name, name, (3, 8), i, "float")
    suite("If-convexity-det", "convexity-det", (1, 2), 0, "float", defect=True)
    for i, (name, trials) in enumerate(DEFECT_TRIALS.items()):
        suite("Ir-" + name, name, trials, i, "float", defect=True)
    # budget-sampled positivity on a 5,000-point grid
    pts = _decimal_points(rng, 5000, 0, 336)
    grid = R.files.grid_csv(pts)
    R.add("C1", ["chebcheck", "--system", "poly:5", "--grid", grid, "--budget", "300",
                 "--seed", str(rng.randrange(10 ** 6))],
          expect={"kind": "positivity", "tuples": 300, "exhaustive": False,
                  "exact_verdict": "positive_on_grid"})
    return R.done()


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    max_rounds: int      # rounds generated for a timed run
    golden_rounds: int   # rounds covered by recorded goldens
    trace_rounds: int    # fixed request set of a traced run


WORKLOADS = {
    "scan": Workload("scan", _scan_round, 40, 24, 2),
    "pinned": Workload("pinned", _pinned_round, 40, 24, 2),
    "short": Workload("short", _short_round, 120, 70, 6),
}

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def generate(workload: Workload, seed: int, rounds, root: str) -> list:
    """Requests of the given rounds, in round order."""
    out = []
    for rnd in rounds:
        out.extend(workload.make_round(seed, rnd, root))
    return out
