"""Verification reports and cross-module identity checks.

A verifier never raises on a failed identity; it returns a report counting
every failing coefficient so callers (tests, CLI) can decide how to react.
"""

from __future__ import annotations

import itertools
from operator import add

from .combinatorics import closed_form_table, fuss_catalan_total
from .limits import check_int


# Failures a report lists; ``failure_count`` still counts them all.
MAX_REPORTED_FAILURES = 100


class VerificationReport:
    """The outcome of one verifier: the number of comparisons made and of
    those that failed, and the first ``MAX_REPORTED_FAILURES`` failures as
    ``(context, lhs, rhs)`` tuples.  A report that compared nothing is not
    ``ok``: an identity checked on no coefficient shows nothing."""

    __slots__ = ("kind", "d", "params", "failures", "failure_count", "compared")

    def __init__(self, kind: str, d: int, params: dict):
        self.kind = kind
        self.d = d
        self.params = params
        self.failures: list[tuple[dict, int, int]] = []
        self.failure_count = 0
        self.compared = 0

    def check(self, context: dict, lhs: int, rhs: int) -> None:
        """Count one comparison of ``lhs`` with ``rhs``; a difference is
        counted, and kept while fewer than MAX_REPORTED_FAILURES are."""
        self.compared += 1
        if lhs != rhs:
            self.failure_count += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append((context, lhs, rhs))

    @property
    def ok(self) -> bool:
        return self.compared > 0 and self.failure_count == 0

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "params": self.params,
            "ok": self.ok,
            "failure_count": self.failure_count,
            # Big integers go out as decimal strings.
            "failures": [
                {**context, "lhs": str(lhs), "rhs": str(rhs)}
                for context, lhs, rhs in self.failures
            ],
        }


def verify_fuss_catalan_rows(d: int, p_max: int) -> VerificationReport:
    """Check that profile counts at fixed total sum to the d-Catalan numbers:
    sum over profiles with P-1 edges of count(profile) == fuss_catalan_total(d, P).
    """
    check_int("p_max", p_max, 1)
    table = closed_form_table(d, 1, p_max - 1)
    report = VerificationReport("fuss-catalan", d, {"p_max": p_max})
    # The table's keys run by total, so each group is one row.
    for total, row in itertools.groupby(table.items(), key=lambda item: sum(item[0])):
        report.check({"P": total + 1}, sum(c for _, c in row), fuss_catalan_total(d, total + 1))
    return report


def _plus(a: list[int], b: list[int]) -> list[int]:
    """Entrywise sum of two count lists of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b):]]


def dyck_paths_by_peaks(n_max: int) -> list[list[int]]:
    """``rows[n][k]``, the number of Dyck paths of semilength n with k peaks,
    for n = 0..n_max, counted step by step, with no binomial.

    One walk over 2 * n_max steps keeps, per height, the paths ending in an
    up step and those ending in a down step (or empty), each as a count per
    number of peaks; a down step after an up step closes a peak.  Heights
    above the steps left are dropped, since no path returns from them, and
    the paths back at height 0 after 2n steps give row n.
    """
    check_int("n_max", n_max)
    steps = 2 * n_max
    # ups[h] and downs[h]: paths at height h whose last step is up, or down
    # (or no step yet), as counts indexed by the number of peaks.
    ups: list[list[int]] = [[]]
    downs = [[1]]
    rows = [[1]]
    for step in range(1, steps + 1):
        height = min(step, steps - step)
        ups_before, downs_before = ups + [[], []], downs + [[], []]
        ups = [[]] + [_plus(ups_before[h], downs_before[h]) for h in range(height)]
        downs = [
            _plus(downs_before[h + 1], [0, *ups_before[h + 1]]) for h in range(height + 1)
        ]
        if step % 2 == 0:
            rows.append(downs[0])
    return rows


def verify_narayana_bridge(max_total: int) -> VerificationReport:
    """Check count(p1, p2) == N(p1+p2+1, p1+1) for all p1+p2 <= max_total.

    Two colors only; the Narayana triangle is a two-color statement.  N(n, k)
    is counted as the Dyck paths of semilength n with k peaks (Deutsch,
    "Dyck path enumeration", Discrete Math. 204, 1999), so the two sides
    share no formula.
    """
    table = closed_form_table(2, 1, max_total)
    rows = dyck_paths_by_peaks(max_total + 1)
    report = VerificationReport("narayana", 2, {"max_total": max_total})
    for p, count in table.items():
        report.check({"p": list(p)}, count, rows[sum(p) + 1][p[0] + 1])
    return report


def verify_oracle(d: int, max_total: int) -> VerificationReport:
    """Compare the brute-force enumeration tally with the closed form for
    every profile with total <= max_total."""
    from .trees import count_by_profile_bruteforce

    tally = count_by_profile_bruteforce(d, max_total)
    report = VerificationReport("oracle", d, {"max_total": max_total})
    for p, count in closed_form_table(d, 1, max_total).items():
        report.check({"p": list(p)}, tally.get(p, 0), count)
    return report
