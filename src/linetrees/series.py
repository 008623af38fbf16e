"""Exact truncated multivariate power series in the color variables.

The generating function F(g_1, ..., g_D) of the tree family satisfies

    F = sum_{k=0..D} e_k(g) * F^k,

where e_k is the k-th elementary symmetric polynomial of the variables.
`solve_tree_equation` finds the unique solution with constant term 1 one
total degree at a time: e_k is homogeneous of degree k, so the degree-m part
of F depends only on parts of F below degree m.  `closed_form_series`
assembles the level-n series directly from the counting formula; the
verify_* functions compare the two routes coefficient by coefficient.

Coefficients are arbitrary-precision integers throughout; truncation is by
total degree, so every identity checked here is closed under it.
`MultiSeries` offers construction that truncates, series x series `*`,
`coefficient`, `items_sorted`, `evaluate` (the plain sum of its terms at a
point) and `to_json_obj`; both operands of `*` must share d and order.
Products work degree by degree: a pair of terms whose total degree exceeds
the order is never formed.

Inside `*` and `solve_tree_equation`, each exponent vector is packed into
one integer,

    pack(p) = sum_i p_i * B^(d-1-i),  B = order + 1,

so that multiplying two monomials is adding two integers.  Packing is a
bijection between vectors of total <= order and their keys, and it respects
addition: every field p_i is at most the total, hence < B, so the fields are
the base-B digits of the key.  Because only pairs whose degree sum is
<= order are formed, every field of a sum is still <= order: no field ever
carries into its neighbour, and pack(p + q) = pack(p) + pack(q).  Within one
total degree the order of packed keys is the lexicographic order of the
vectors, since base-B digits compare most significant first.  `coeffs`
keeps tuple keys.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError
from .limits import check_colors, check_int


class MultiSeries:
    """Multivariate power series truncated by total degree.

    ``coeffs`` maps exponent tuples (p_1, ..., p_d) of plain nonnegative
    ints with sum <= order to nonzero plain ints (bools are rejected); absent
    keys are zero.  Series with equal d, order and coefficients compare equal.
    Instances are treated as immutable; arithmetic returns new series
    truncated at the same order.
    """

    __slots__ = ("d", "order", "coeffs")

    def __init__(self, d: int, order: int, coeffs: dict[tuple[int, ...], int] | None = None):
        self.d = check_int("d", d, 1)
        self.order = check_int("order", order)
        cleaned: dict[tuple[int, ...], int] = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != d or not all(type(e) is int and e >= 0 for e in key):
                raise DomainError(f"bad exponent vector {key} for d={d}")
            if type(value) is not int:
                raise DomainError(f"coefficient at {key} is not an integer: {value!r}")
            if value != 0 and sum(key) <= order:
                cleaned[key] = value
        self.coeffs = cleaned

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.d, self.order, self.coeffs) == (other.d, other.order, other.coeffs)

    def __repr__(self):
        return f"MultiSeries({self.d}, {self.order}, {self.coeffs!r})"

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.coeffs.get(tuple(exponents), 0)

    def items_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        """Coefficients sorted by total degree, then lexicographic exponent."""
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def _require_same_shape(self, other: "MultiSeries") -> None:
        if not isinstance(other, MultiSeries):
            raise DomainError(f"operand is not a MultiSeries: {other!r}")
        if self.d != other.d or self.order != other.order:
            raise DomainError(
                f"shape mismatch: (d={self.d}, order={self.order}) vs "
                f"(d={other.d}, order={other.order})"
            )

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._require_same_shape(other)
        left, right = _by_degree(self), _by_degree(other)
        out: dict[int, int] = {}
        for deg_a, terms in enumerate(left):
            for bucket in right[: self.order - deg_a + 1]:
                _accumulate(out, terms, bucket)
        return MultiSeries(self.d, self.order, _unpacked(out.items(), self.d, self.order))

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Value of the truncated sum at a complex point: the plain sum of
        c * prod_i g_i^p_i over the terms."""
        if len(point) != self.d:
            raise DomainError(f"point has {len(point)} entries, series has d={self.d}")
        point = tuple(complex(x) for x in point)
        return sum((c * math.prod(map(pow, point, p)) for p, c in self.coeffs.items()), 0j)

    def to_json_obj(self) -> dict:
        """Stable dump: coefficients as decimal strings, sorted by total
        degree then lexicographic exponent."""
        return {
            "d": self.d,
            "order": self.order,
            "coeffs": [{"p": list(p), "c": str(c)} for p, c in self.items_sorted()],
        }


# Terms with packed exponent keys: (pack(p), coefficient).
_Terms = list[tuple[int, int]]


def _places(d: int, order: int) -> list[int]:
    """The place value B^(d-1-i) of each field of a packed key, B = order + 1."""
    return [(order + 1) ** i for i in reversed(range(d))]


def _by_degree(series: MultiSeries) -> list[_Terms]:
    """The packed terms of a series, bucketed by total degree 0..order."""
    places = _places(series.d, series.order)
    buckets: list[_Terms] = [[] for _ in range(series.order + 1)]
    for key, value in series.coeffs.items():
        buckets[sum(key)].append((sum(map(mul, key, places)), value))
    return buckets


def _unpacked(terms: Iterable[tuple[int, int]], d: int, order: int) -> dict[tuple[int, ...], int]:
    """Packed terms as a dict with exponent-tuple keys, in the same order."""
    base, places = order + 1, _places(d, order)
    return {tuple(key // w % base for w in places): value for key, value in terms}


def _accumulate(out: dict[int, int], left: _Terms, right: _Terms) -> None:
    """Add the product of every term of ``left`` with every term of ``right``
    into ``out``; callers pick the degree buckets so that every pair's degree
    sum is <= order, and the packed keys then add without a carry."""
    get = out.get
    for ka, ca in left:
        for kb, cb in right:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb


def solve_tree_equation(d: int, order: int) -> MultiSeries:
    """Unique series solution with constant term 1 of F = sum_k e_k F^k.

    Solved one total degree m = 1..order at a time.  Because e_k is
    homogeneous of degree k, the degree-m part of F is

        [F]_m = sum_{k>=1} e_k * [F^k]_{m-k},

    which uses only parts of F below degree m.  Once [F]_m is known, every
    power is extended by one degree, [F^k]_m = sum_a [F]_a * [F^{k-1}]_{m-a},
    keeping F^k only up to degree order-k, the most [F]_order needs.  Each
    coefficient is computed once, exactly, so there is no iteration and no
    convergence test.
    """
    check_colors(d)
    check_int("order", order)
    places = _places(d, order)
    # e_k as its packed terms: one squarefree monomial per k-set of colors.
    elementary = [
        [(sum(places[i] for i in subset), 1) for subset in itertools.combinations(range(d), k)]
        for k in range(d + 1)
    ]
    # powers[k][m] holds the terms of [F^k]_m; powers[1] is F itself.
    powers = [[elementary[0]] for _ in range(d + 1)]
    for m in range(1, order + 1):
        part: dict[int, int] = {}
        for k in range(1, min(d, m) + 1):
            _accumulate(part, elementary[k], powers[k][m - k])
        powers[1].append(list(part.items()))
        for k in range(2, min(d, order - m) + 1):
            part = {}
            for a in range(m + 1):
                _accumulate(part, powers[1][a], powers[k - 1][m - a])
            powers[k].append(list(part.items()))
    return MultiSeries(d, order, _unpacked(itertools.chain.from_iterable(powers[1]), d, order))


def closed_form_series(d: int, n: int, order: int) -> MultiSeries:
    """Level-n series assembled directly from the closed-form counts."""
    from .combinatorics import closed_form_table

    check_int("order", order)
    return MultiSeries(d, order, closed_form_table(d, n, order))


def verify_linear_recursion(d: int, n_max: int, order: int) -> VerificationReport:
    """Check F_{n+1} = F_n + sum_{k=1..d} e_k F_{n+k} for n = 0..n_max,
    with every F_m read from the closed-form table (F_0 = 1).

    The right side needs no series product.  e_k is the sum of the
    squarefree monomials g^chi_S over the k-sets S of colors, so the
    coefficient of e_k F_{n+k} at p is the sum of [F_{n+k}]_{p - chi_S}
    over those S, and a shift with a negative entry is zero: only the sets
    inside the support of p count.  Summed over k, the right side at p is
    [F_n]_p plus [F_{n+|S|}]_{p - chi_S} over the nonempty S in the
    support of p.  Each shifted profile has a smaller total than p, so
    truncation at ``order`` loses none of them.  Every profile of total
    <= order is checked once per n, in the tables' graded lexicographic
    order; F_0 reads as zero off the constant term.
    """
    from .combinatorics import closed_form_table
    from .verification import VerificationReport

    check_colors(d)
    check_int("n_max", n_max)
    check_int("order", order)
    levels = [{(0,) * d: 1}]
    levels += [closed_form_table(d, m, order) for m in range(1, n_max + d + 1)]
    # rhs[n] lists the right side at each profile, in the order of the keys.
    rhs: list[list[int]] = [[] for _ in range(n_max + 1)]
    for p in levels[1]:
        support = [i for i, e in enumerate(p) if e]
        shifts = [
            (k, tuple(e - (i in subset) for i, e in enumerate(p)))
            for k in range(1, len(support) + 1)
            for subset in itertools.combinations(support, k)
        ]
        for n, column in enumerate(rhs):
            column.append(levels[n].get(p, 0) + sum(levels[n + k][q] for k, q in shifts))
    report = VerificationReport("recursion", d, {"n_max": n_max, "order": order})
    for n, column in enumerate(rhs):
        for p, value in zip(levels[1], column):
            report.check({"n": n, "p": list(p)}, levels[n + 1][p], value)
    return report


def verify_geometric(d: int, n_max: int, order: int) -> VerificationReport:
    """Check that the level-n series is the n-th truncated power of the
    functional-equation solution, for n = 1..n_max, at every profile of
    total <= order."""
    from .combinatorics import closed_form_table
    from .verification import VerificationReport

    check_int("n_max", n_max, 1)
    base = solve_tree_equation(d, order)
    power = base
    report = VerificationReport("geometric", d, {"n_max": n_max, "order": order})
    for n in range(1, n_max + 1):
        if n > 1:
            power = power * base
        for p, count in closed_form_table(d, n, order).items():
            report.check({"n": n, "p": list(p)}, count, power.coefficient(p))
    return report


def verify_convolution(d: int, n: int, m: int, order: int) -> VerificationReport:
    """Check the convolution identity: the product of the level-n and
    level-m series equals the level-(n+m) series on all profiles with
    total <= order."""
    from .combinatorics import closed_form_table
    from .verification import VerificationReport

    check_int("n", n, 1)
    check_int("m", m, 1)
    product = closed_form_series(d, n, order) * closed_form_series(d, m, order)
    report = VerificationReport("convolution", d, {"n": n, "m": m, "order": order})
    for p, count in closed_form_table(d, n + m, order).items():
        report.check({"p": list(p)}, product.coefficient(p), count)
    return report
