"""Correctness of benchmark requests.

A request fails when it exits 2 or raises, when its decision differs
from the golden recorded for its seed, or when its decision breaks a
fact that follows from its inputs (``Request.expect``).  The decision
is the part of a report that must not change: exit code, verdicts,
witness tuples and bases, tuple and base counts, an identity suite's
failed count, and on the exact backend every reported value.  Float
values are not compared.

A float request whose golden verdict is ``indeterminate`` also passes
when its verdicts and exit code equal those of its exact twin, so a
sharper float tolerance is not counted as a failure.

Failures of requests marked ``defect`` that end in SingularDenominator
are the baseline defect recorded in NOTES.md (float tolerance that
ignores scale); any other failure is unexpected, is what a run reports
as ``failed``, and makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

DEFINITE = ("positive_on_grid", "convex_on_sample", "violated")


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None     # exception that escaped main()


def decision(req, out: Outcome) -> dict:
    if out.error is not None:
        return {"raised": out.error}
    try:
        rep = json.loads(out.stdout)
    except json.JSONDecodeError:
        return {"exit": out.code, "unparsable": out.stdout[:200]}
    d = {"exit": out.code}
    if "error" in rep:
        d["error"] = rep["error"]["type"]
        return d
    res = rep["results"]
    exact = req.backend == "exact"
    cmd = rep["command"]
    if cmd == "chebcheck":
        d["checks"] = {"positivity": _scan(res["positivity"], exact)}
    elif cmd == "convexity":
        if "check" in res:
            d["checks"] = {"check": _scan(res["check"], exact)}
        else:
            d["checks"] = {label: _scan(v, exact) for label, v in res["verdicts"].items()}
            d["agreed"] = res["agreed"]
            d["disagreements"] = res["disagreements"]
    elif cmd == "divdiff":
        if exact:
            d.update({k: res[k] for k in ("value", "numerator", "denominator",
                                          "classical_value")})
    elif cmd == "variation":
        d["bound_holds"] = res.get("bound_holds")
        if exact:
            d.update({k: res[k] for k in ("estimate", "bound", "margin", "best")
                      if k in res})
    elif cmd == "identities":
        d["failed"] = res["failed"]
    return d


def _scan(v: dict, exact: bool) -> dict:
    out = {k: v[k] for k in ("verdict", "tuples_checked", "exhaustive",
                             "bases_checked", "bases_skipped") if k in v}
    # A float witness is a definite fact only for a violation; which
    # near-zero tuple comes first depends on the tolerance.
    if exact or v["verdict"] == "violated":
        out["witness"] = v["witness"]
        if v.get("witness_base") is not None:
            out["witness_base"] = v["witness_base"]
    if exact:
        out["witness_value"] = v["witness_value"]
    return out


def verdicts(d: dict) -> dict:
    return {label: c["verdict"] for label, c in d.get("checks", {}).items()}


def matches_golden(req, dec: dict, golden: dict, twin_golden: dict | None) -> bool:
    if dec == golden:
        return True
    if req.backend != "float" or twin_golden is None \
            or "indeterminate" not in verdicts(golden).values():
        return False
    return dec.get("exit") == twin_golden.get("exit") \
        and verdicts(dec) == verdicts(twin_golden)


def problems(req, dec: dict, twin: dict | None) -> list:
    """Facts every correct report of this request satisfies, whatever
    the seed."""
    if "raised" in dec:
        return [f"raised {dec['raised']}"]
    if dec.get("exit") == 2 or "error" in dec or "unparsable" in dec:
        return [f"exit {dec.get('exit')} {dec.get('error', dec.get('unparsable'))}"]
    e = req.expect
    kind = e["kind"]
    out = []
    checks = dec.get("checks", {})
    if kind in ("positivity", "direct", "pinned"):
        (c,) = checks.values()
        out += _counts(c, e)
        if "exhaustive" in e and c["exhaustive"] != e["exhaustive"]:
            out.append("exhaustive flag")
        if kind == "positivity":
            want = 0 if c["verdict"] == "positive_on_grid" else 1
            if "exact_verdict" in e:
                if req.backend == "exact" and c["verdict"] != e["exact_verdict"]:
                    out.append(f"verdict {c['verdict']} on a positive system")
                if req.backend == "float" and c["verdict"] == "violated":
                    out.append("float violation on a positive system")
        else:
            want = 1 if c["verdict"] == "violated" else 0
        if dec["exit"] != want:
            out.append(f"exit {dec['exit']} for verdict {c['verdict']}")
    elif kind == "agreement":
        if set(checks) != set(e["labels"]):
            out.append("agreement labels")
        for label, c in checks.items():
            out += [f"{label}: {p}" for p in _counts(c, e["labels"].get(label, {}))]
        if not dec["agreed"]:
            out.append(f"modes disagree: {dec['disagreements']}")
        want = 1 if dec["disagreements"] or "violated" in verdicts(dec).values() else 0
        if dec["exit"] != want:
            out.append(f"exit {dec['exit']} for agreement")
    elif kind == "divdiff":
        if req.backend == "exact" and Fraction(dec["value"]) != Fraction(dec["classical_value"]):
            out.append("generalized and classical divided differences differ")
    elif kind == "variation":
        if e.get("bound_holds") and dec.get("bound_holds") is not True:
            out.append("variation exceeds the bound of a convex decomposition")
        if dec["exit"] != 0:
            out.append(f"exit {dec['exit']}")
    elif kind == "identities":
        if dec["exit"] != 0 or dec["failed"] != 0:
            out.append(f"identity suite failed {dec['failed']} trials")
    if twin is not None and "checks" in twin:
        theirs = verdicts(twin)
        for label, v in verdicts(dec).items():
            if v in DEFINITE and theirs.get(label) != v:
                out.append(f"{label}: float {v} but exact {theirs.get(label)}")
    return out


def _counts(c: dict, e: dict) -> list:
    out = []
    for key, field in (("tuples", "tuples_checked"), ("bases_checked", "bases_checked"),
                       ("bases_skipped", "bases_skipped")):
        if key in e and c.get(field, 0) != e[key]:
            out.append(f"{field} {c.get(field)} != {e[key]}")
    return out


def is_known_defect(req, dec: dict) -> bool:
    return bool(req.expect.get("defect")) and dec.get("error") == "SingularDenominator"


@dataclass
class Judgement:
    decisions: dict          # request id -> decision
    failed: set              # ids of failed requests
    unexpected: list         # (id, reason) of failures outside the recorded defects


def judge(requests, decisions: list, goldens: dict | None) -> Judgement:
    """``decisions`` are the requests' decisions, in request order; a
    float request's exact twin must be among ``requests``."""
    decisions = {r.id: d for r, d in zip(requests, decisions)}
    failed, unexpected = set(), []
    for req in requests:
        dec = decisions[req.id]
        twin = decisions.get(req.twin) if req.twin else None
        reasons = problems(req, dec, twin)
        if goldens is not None and req.id in goldens:
            twin_golden = goldens.get(req.twin) if req.twin else None
            if not matches_golden(req, dec, goldens[req.id], twin_golden):
                reasons.append("differs from golden")
        if reasons:
            failed.add(req.id)
            if not is_known_defect(req, dec):
                unexpected.append((req.id, "; ".join(reasons)))
    return Judgement(decisions, failed, unexpected)


def golden_decision(req, dec: dict) -> dict:
    """What a correct program reports: a request that hit the recorded
    defect must succeed, and an identity suite must pass as its exact
    twin does."""
    if not is_known_defect(req, dec):
        return dec
    if req.expect["kind"] == "identities":
        return {"exit": 0, "failed": 0}
    return {"exit": 0}
