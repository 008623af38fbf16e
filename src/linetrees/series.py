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
total degree, so every identity checked here is closed under it.  Products
work degree by degree too: a pair of terms whose total degree exceeds the
order is never formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Sequence

from .combinatorics import ColorProfile, closed_form_count, profiles_with_total
from .errors import DomainError
from .limits import check_colors
from .verification import Mismatch, VerificationReport


@dataclass(frozen=True)
class MultiSeries:
    """Multivariate power series truncated by total degree.

    ``coeffs`` maps exponent tuples (p_1, ..., p_d) with sum <= order to
    nonzero integers; absent keys are zero.  Instances are treated as
    immutable; arithmetic returns new series truncated at the same order.
    """

    d: int
    order: int
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"need d >= 1 variables, got {self.d}")
        if self.order < 0:
            raise DomainError(f"order must be >= 0, got {self.order}")
        cleaned: dict[tuple[int, ...], int] = {}
        for key, value in self.coeffs.items():
            key = tuple(key)
            if len(key) != self.d or any(e < 0 for e in key):
                raise DomainError(f"bad exponent vector {key} for d={self.d}")
            if not isinstance(value, int):
                raise DomainError(f"coefficient at {key} is not an integer: {value!r}")
            if value != 0 and sum(key) <= self.order:
                cleaned[key] = value
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def constant(cls, d: int, order: int, value: int = 1) -> "MultiSeries":
        return cls(d, order, {(0,) * d: value})

    @classmethod
    def zero(cls, d: int, order: int) -> "MultiSeries":
        return cls(d, order, {})

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.coeffs.get(tuple(exponents), 0)

    def items_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        """Coefficients sorted by total degree, then lexicographic exponent."""
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def _require_same_shape(self, other: "MultiSeries") -> None:
        if self.d != other.d or self.order != other.order:
            raise DomainError(
                f"shape mismatch: (d={self.d}, order={self.order}) vs "
                f"(d={other.d}, order={other.order})"
            )

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._require_same_shape(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) + value
        return MultiSeries(self.d, self.order, out)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.d, self.order, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiSeries(
                self.d, self.order, {k: v * other for k, v in self.coeffs.items()}
            )
        self._require_same_shape(other)
        left = _by_degree(self.coeffs, self.order)
        right = _by_degree(other.coeffs, self.order)
        out: dict[tuple[int, ...], int] = {}
        for deg_a, terms in enumerate(left):
            for bucket in right[: self.order - deg_a + 1]:
                _accumulate(out, terms, bucket)
        return MultiSeries(self.d, self.order, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiSeries":
        if exponent < 0:
            raise DomainError(f"series power must be >= 0, got {exponent}")
        result = MultiSeries.constant(self.d, self.order, 1)
        base = self
        # Exponents stay tiny; square-and-multiply keeps big orders cheap.
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def truncate(self, order: int) -> "MultiSeries":
        """Drop all terms of total degree above ``order``."""
        return MultiSeries(self.d, order, self.coeffs)

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Value of the truncated sum at a complex point, by nested Horner."""
        if len(point) != self.d:
            raise DomainError(f"point has {len(point)} entries, series has d={self.d}")
        return _horner(self.coeffs, tuple(complex(x) for x in point))

    def to_json_obj(self) -> dict:
        """Stable dump: coefficients as decimal strings, sorted by total
        degree then lexicographic exponent."""
        return {
            "d": self.d,
            "order": self.order,
            "coeffs": [{"p": list(p), "c": str(c)} for p, c in self.items_sorted()],
        }


_Terms = list[tuple[tuple[int, ...], int]]


def _by_degree(coeffs: dict[tuple[int, ...], int], order: int) -> list[_Terms]:
    """The terms of a series, bucketed by total degree 0..order."""
    buckets: list[_Terms] = [[] for _ in range(order + 1)]
    for key, value in coeffs.items():
        buckets[sum(key)].append((key, value))
    return buckets


def _accumulate(out: dict[tuple[int, ...], int], left: _Terms, right: _Terms) -> None:
    """Add the product of every term of ``left`` with every term of ``right``
    into ``out``; callers pick the degree buckets so that none is discarded."""
    get = out.get
    for pa, ca in left:
        for pb, cb in right:
            key = tuple(map(add, pa, pb))
            out[key] = get(key, 0) + ca * cb


def _horner(coeffs: dict[tuple[int, ...], int], point: tuple[complex, ...]) -> complex:
    if not coeffs:
        return 0j
    if not point:
        return complex(coeffs.get((), 0))
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for key, value in coeffs.items():
        groups.setdefault(key[0], {})[key[1:]] = value
    result = 0j
    for power in range(max(groups), -1, -1):
        result = result * point[0]
        sub = groups.get(power)
        if sub is not None:
            result += _horner(sub, point[1:])
    return result


def elementary_symmetric_series(d: int, order: int) -> list[MultiSeries]:
    """The elementary symmetric polynomials e_0=1, e_1, ..., e_d as series.

    e_k is the sum of all squarefree degree-k monomials; with order < k it
    truncates to zero.
    """
    if d < 1:
        raise DomainError(f"need d >= 1 variables, got {d}")
    out = [MultiSeries.constant(d, order, 1)]
    for k in range(1, d + 1):
        coeffs: dict[tuple[int, ...], int] = {}
        for subset in itertools.combinations(range(d), k):
            key = tuple(1 if i in subset else 0 for i in range(d))
            coeffs[key] = 1
        out.append(MultiSeries(d, order, coeffs))
    return out


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
    elementary = [list(e.coeffs.items()) for e in elementary_symmetric_series(d, order)]
    # powers[k][m] holds the terms of [F^k]_m; powers[1] is F itself.
    powers = [[elementary[0]] for _ in range(d + 1)]
    for m in range(1, order + 1):
        part: dict[tuple[int, ...], int] = {}
        for k in range(1, min(d, m) + 1):
            _accumulate(part, elementary[k], powers[k][m - k])
        powers[1].append(list(part.items()))
        for k in range(2, min(d, order - m) + 1):
            part = {}
            for a in range(m + 1):
                _accumulate(part, powers[1][a], powers[k - 1][m - a])
            powers[k].append(list(part.items()))
    return MultiSeries(d, order, dict(itertools.chain.from_iterable(powers[1])))


def closed_form_series(d: int, n: int, order: int) -> MultiSeries:
    """Level-n series assembled directly from the closed-form counts."""
    if n < 1:
        raise DomainError(f"level n must be >= 1, got {n}")
    coeffs: dict[tuple[int, ...], int] = {}
    for total in range(order + 1):
        for p in profiles_with_total(d, total):
            coeffs[p] = closed_form_count(ColorProfile(d, p), n)
    return MultiSeries(d, order, coeffs)


def _collect_mismatches(
    lhs: MultiSeries, rhs: MultiSeries, context: dict
) -> Iterable[Mismatch]:
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs), key=lambda p: (sum(p), p))
    for p in keys:
        a, b = lhs.coefficient(p), rhs.coefficient(p)
        if a != b:
            yield Mismatch({**context, "p": list(p)}, a, b)


def verify_linear_recursion(d: int, n_max: int, order: int) -> VerificationReport:
    """Check F_{n+1} = F_n + sum_{k=1..d} e_k F_{n+k} for n = 0..n_max,
    with every F_m built from the closed form (F_0 = 1)."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    elementary = elementary_symmetric_series(d, order)
    levels = {0: MultiSeries.constant(d, order, 1)}
    for m in range(1, n_max + d + 1):
        levels[m] = closed_form_series(d, m, order)
    report = VerificationReport("recursion", d, {"n_max": n_max, "order": order})
    for n in range(n_max + 1):
        rhs = levels[n]
        for k in range(1, d + 1):
            rhs = rhs + elementary[k] * levels[n + k]
        report.failures.extend(_collect_mismatches(levels[n + 1], rhs, {"n": n}))
    return report


def verify_geometric(d: int, n_max: int, order: int) -> VerificationReport:
    """Check that the level-n series is the n-th truncated power of the
    functional-equation solution, for n = 1..n_max."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    base = solve_tree_equation(d, order)
    power = base
    report = VerificationReport("geometric", d, {"n_max": n_max, "order": order})
    for n in range(1, n_max + 1):
        if n > 1:
            power = power * base
        direct = closed_form_series(d, n, order)
        report.failures.extend(_collect_mismatches(direct, power, {"n": n}))
    return report


def verify_convolution(d: int, n: int, m: int, order: int) -> VerificationReport:
    """Check the convolution identity: the product of the level-n and
    level-m series equals the level-(n+m) series on all profiles with
    total <= order."""
    if n < 1 or m < 1:
        raise DomainError(f"levels must be >= 1, got n={n}, m={m}")
    product = closed_form_series(d, n, order) * closed_form_series(d, m, order)
    direct = closed_form_series(d, n + m, order)
    report = VerificationReport("convolution", d, {"n": n, "m": m, "order": order})
    report.failures.extend(_collect_mismatches(product, direct, {}))
    return report
