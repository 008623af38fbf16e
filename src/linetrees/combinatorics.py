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
from typing import Iterator

from .errors import DomainError, IntegralityViolation
from .limits import check_colors


class ColorProfile:
    """Per-color edge counts (p_1, ..., p_D) of a tree, with D in
    2..limits.MAX_COLORS colors.

    A value: profiles with equal d and counts compare and hash equal, so a
    profile can key a dict.  Treat an instance as immutable.
    """

    __slots__ = ("d", "counts")

    def __init__(self, d: int, counts: tuple[int, ...]):
        check_colors(d)
        counts = tuple(counts)
        if len(counts) != d:
            raise DomainError(f"profile has {len(counts)} entries but d={d} colors")
        if any(type(c) is not int or c < 0 for c in counts):
            raise DomainError(f"profile entries must be non-negative integers: {counts}")
        self.d = d
        self.counts = counts

    def __eq__(self, other):
        if not isinstance(other, ColorProfile):
            return NotImplemented
        return self.d == other.d and self.counts == other.counts

    def __hash__(self):
        return hash((self.d, self.counts))

    def __repr__(self):
        return f"ColorProfile({self.d}, {self.counts})"

    @property
    def total(self) -> int:
        """Total number of edges P, always recomputed from the counts."""
        return sum(self.counts)


def exact_div(numerator: int, denominator: int) -> int:
    """Divide exactly, raising IntegralityViolation on a nonzero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise IntegralityViolation(
            f"{numerator} is not divisible by {denominator} (remainder {remainder})"
        )
    return quotient


def closed_form_count(profile: ColorProfile, n: int = 1) -> int:
    """Level-n count for a color profile: n/(P+n) * prod_j C(P+n, p_j).

    For n=1 this is the number of rooted line-colored trees whose edge
    colors realize the profile exactly.  The division by P+n happens last
    and must be exact.
    """
    if n < 1:
        raise DomainError(f"level n must be >= 1, got {n}")
    p_total = profile.total
    product = n
    for p in profile.counts:
        product *= math.comb(p_total + n, p)
    return exact_div(product, p_total + n)


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
    """Yield every length-d vector of non-negative ints summing to ``total``,
    in lexicographic order."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in profiles_with_total(d - 1, total - first):
            yield (first,) + rest
