"""Verification reports and cross-module identity checks.

A verifier never raises on a failed identity; it returns a report listing
every failing coefficient so callers (tests, CLI) can decide how to react.
"""

from __future__ import annotations

from .combinatorics import (
    ColorProfile,
    closed_form_count,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from .errors import DomainError


class Mismatch:
    """One failing comparison: where it happened and both values."""

    __slots__ = ("context", "lhs", "rhs")

    def __init__(self, context: dict, lhs: int, rhs: int):
        self.context = context
        self.lhs = lhs
        self.rhs = rhs

    def to_json_obj(self) -> dict:
        # Big integers go out as decimal strings.
        return {**self.context, "lhs": str(self.lhs), "rhs": str(self.rhs)}


# Failures a report lists; ``failure_count`` still counts them all.
MAX_REPORTED_FAILURES = 100


class VerificationReport:
    """The outcome of one verifier: every failing comparison, and the number
    of coefficients compared, failing or not.  A report that compared
    nothing is not ``ok``: an identity checked on no coefficient shows
    nothing."""

    __slots__ = ("kind", "d", "params", "failures", "compared")

    def __init__(self, kind: str, d: int, params: dict):
        self.kind = kind
        self.d = d
        self.params = params
        self.failures: list[Mismatch] = []
        self.compared = 0

    @property
    def ok(self) -> bool:
        return self.compared > 0 and not self.failures

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "params": self.params,
            "ok": self.ok,
            "failure_count": len(self.failures),
            "failures": [f.to_json_obj() for f in self.failures[:MAX_REPORTED_FAILURES]],
        }


def verify_fuss_catalan_rows(d: int, p_max: int) -> VerificationReport:
    """Check that profile counts at fixed total sum to the d-Catalan numbers:
    sum over profiles with P-1 edges of count(profile) == fuss_catalan_total(d, P).
    """
    if p_max < 1:
        raise DomainError(f"p_max must be >= 1 to check any row, got {p_max}")
    report = VerificationReport("fuss-catalan", d, {"p_max": p_max})
    for p_vertices in range(1, p_max + 1):
        row_sum = sum(
            closed_form_count(ColorProfile(d, p), 1)
            for p in profiles_with_total(d, p_vertices - 1)
        )
        expected = fuss_catalan_total(d, p_vertices)
        report.compared += 1
        if row_sum != expected:
            report.failures.append(Mismatch({"P": p_vertices}, row_sum, expected))
    return report


def verify_narayana_bridge(max_total: int) -> VerificationReport:
    """Check count(p1, p2) == N(p1+p2+1, p1+1) for all p1+p2 <= max_total.

    Two colors only; the Narayana triangle is a two-color statement.
    """
    if max_total < 0:
        raise DomainError(f"max_total must be >= 0, got {max_total}")
    report = VerificationReport("narayana", 2, {"max_total": max_total})
    for total in range(max_total + 1):
        for p in profiles_with_total(2, total):
            lhs = closed_form_count(ColorProfile(2, p), 1)
            rhs = narayana(total + 1, p[0] + 1)
            report.compared += 1
            if lhs != rhs:
                report.failures.append(Mismatch({"p": list(p)}, lhs, rhs))
    return report


def verify_oracle(d: int, max_total: int) -> VerificationReport:
    """Compare the brute-force enumeration tally with the closed form for
    every profile with total <= max_total."""
    from .trees import count_by_profile_bruteforce

    tally = count_by_profile_bruteforce(d, max_total)
    report = VerificationReport("oracle", d, {"max_total": max_total})
    for total in range(max_total + 1):
        for p in profiles_with_total(d, total):
            profile = ColorProfile(d, p)
            counted = tally.get(profile, 0)
            expected = closed_form_count(profile, 1)
            report.compared += 1
            if counted != expected:
                report.failures.append(Mismatch({"p": list(p)}, counted, expected))
    return report
