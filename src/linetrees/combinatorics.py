"""Exact big-integer counting formulas for rooted line-colored D-ary trees.

A tree in this family is rooted, every vertex has at most D descendants, and
every edge carries a color in 1..D with no color repeated among one vertex's
child edges.  The number of such trees with exactly ``p_i`` edges of color
``i`` is

    count(p_1, ..., p_D) = C(P+1, p_1) * ... * C(P+1, p_D) / (P+1),

with ``P = p_1 + ... + p_D``, and more generally the level-n weights

    count_n(p) = n * C(P+n, p_1) * ... * C(P+n, p_D) / (P+n)

form the coefficient arrays of the n-th power of the generating function.

Everything here is exact integer arithmetic: each binomial factor is
``math.comb``, and divisions are performed last and checked for exactness
instead of being cancelled away inside the binomials, so a silent formula bug
turns into a loud :class:`IntegralityViolation`.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator

from .errors import DomainError, IntegralityViolation
from .limits import check_colors


def exact_div(numerator: int, denominator: int) -> int:
    """Divide exactly, raising IntegralityViolation on a nonzero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise IntegralityViolation(
            f"{numerator} is not divisible by {denominator} (remainder {remainder})"
        )
    return quotient


def closed_form_count(profile: tuple[int, ...], n: int = 1) -> int:
    """Level-n count n/(P+n) * prod_j C(P+n, p_j) of a count tuple.

    For n=1 this is the number of rooted line-colored trees whose edge colors
    realize the profile exactly; the division by P+n happens last and is exact.
    """
    if n < 1:
        raise DomainError(f"level n must be >= 1, got {n}")
    top = sum(profile) + n
    product = n
    for p in profile:
        product *= math.comb(top, p)
    return exact_div(product, top)


def fuss_catalan_total(d: int, p_vertices: int) -> int:
    """Number of d-ary trees on a given number of vertices.

    Equals C(d*P + 1, P) / (d*P + 1) for P vertices (the d-Catalan number),
    which is also the sum of the per-profile counts over all profiles with
    P - 1 edges.
    """
    check_colors(d)
    if p_vertices < 1:
        raise DomainError(f"need at least one vertex, got {p_vertices}")
    top = d * p_vertices + 1
    return exact_div(math.comb(top, p_vertices), top)


def narayana(n: int, k: int) -> int:
    """Narayana number N(n, k) = C(n, k) * C(n, k-1) / n for 1 <= k <= n.

    Two-color profile counts form the Narayana triangle:
    count(p1, p2) = N(p1 + p2 + 1, p1 + 1).
    """
    if n < 1:
        raise DomainError(f"narayana requires n >= 1, got {n}")
    if k < 1 or k > n:
        raise DomainError(f"narayana requires 1 <= k <= n, got k={k}, n={n}")
    return exact_div(math.comb(n, k) * math.comb(n, k - 1), n)


def profiles_with_total(d: int, total: int) -> Iterator[tuple[int, ...]]:
    """Yield every length-d vector of non-negative ints summing to ``total``
    (none if it is negative) in lexicographic order; d < 1 raises DomainError."""
    if d < 1:
        raise DomainError(f"need d >= 1 entries, got {d}")
    if total >= 0:
        for cuts in combinations_with_replacement(range(total + 1), d - 1):
            yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def closed_form_table(d: int, n: int, max_total: int) -> dict[tuple[int, ...], int]:
    """``{p: closed_form_count(p, n)}`` over every count tuple p of total at
    most max_total, in graded lexicographic order (total, then lexicographic);
    a zero value keeps its key, so a walk over the keys compares every profile."""
    check_colors(d)
    if max_total < 0:
        raise DomainError(f"max_total must be >= 0, got {max_total}")
    return {
        p: closed_form_count(p, n)
        for total in range(max_total + 1)
        for p in profiles_with_total(d, total)
    }
