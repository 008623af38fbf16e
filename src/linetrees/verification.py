"""Verification reports and cross-module identity checks.

A verifier never raises on a failed identity; it returns a report listing
every failing coefficient so callers (tests, CLI) can decide how to react.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .combinatorics import (
    ColorProfile,
    closed_form_count,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from .errors import DomainError
from .trees import count_by_profile_bruteforce


@dataclass(frozen=True)
class Mismatch:
    """One failing comparison: where it happened and both values."""

    context: dict
    lhs: int
    rhs: int

    def to_json_obj(self) -> dict:
        # Big integers go out as decimal strings.
        return {**self.context, "lhs": str(self.lhs), "rhs": str(self.rhs)}


# Failures a report lists; ``failure_count`` still counts them all.
MAX_REPORTED_FAILURES = 100


@dataclass
class VerificationReport:
    kind: str
    d: int
    params: dict
    failures: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

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
            if lhs != rhs:
                report.failures.append(Mismatch({"p": list(p)}, lhs, rhs))
    return report


def verify_oracle(d: int, max_total: int) -> VerificationReport:
    """Compare the brute-force enumeration tally with the closed form for
    every profile with total <= max_total."""
    tally = count_by_profile_bruteforce(d, max_total)
    report = VerificationReport("oracle", d, {"max_total": max_total})
    for total in range(max_total + 1):
        for p in profiles_with_total(d, total):
            profile = ColorProfile(d, p)
            counted = tally.get(profile, 0)
            expected = closed_form_count(profile, 1)
            if counted != expected:
                report.failures.append(Mismatch({"p": list(p)}, counted, expected))
    return report
