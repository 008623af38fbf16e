"""Tests for the truncated multivariate series and identity verifiers."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.combinatorics import closed_form_count, profiles_with_total
from linetrees.errors import DomainError
from linetrees.limits import CAPS
from linetrees import combinatorics, series
from linetrees.series import (
    MultiSeries,
    closed_form_series,
    solve_tree_equation,
    verify_convolution,
    verify_geometric,
    verify_linear_recursion,
)
from linetrees.trees import count_by_profile_bruteforce
from linetrees.verification import (
    MAX_REPORTED_FAILURES,
    VerificationReport,
    verify_fuss_catalan_rows,
)


def test_solve_order_zero_is_one():
    assert solve_tree_equation(2, 0).coeffs == {(0, 0): 1}


def test_solve_d2_order2_matches_bruteforce():
    tally = count_by_profile_bruteforce(2, 2)
    solved = solve_tree_equation(2, 2)
    assert solved.coeffs == tally
    assert solved.coeffs == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 1,
        (1, 1): 3,
        (0, 2): 1,
    }


def test_solve_d3_coefficient_111():
    assert solve_tree_equation(3, 3).coefficient((1, 1, 1)) == 16


def test_solve_is_uncapped_past_the_cli_order_cap():
    # The order cap (20 at d=2) binds the CLI only.
    assert solve_tree_equation(2, 24) == closed_form_series(2, 1, 24)


def test_series_functions_reject_bad_colors_and_negative_orders():
    for call in (
        lambda: solve_tree_equation(1, 2),
        lambda: solve_tree_equation(9, 2),
        lambda: solve_tree_equation(2, -1),
        lambda: closed_form_series(9, 1, 2),
        lambda: closed_form_series(2, 1, -1),
        lambda: verify_linear_recursion(2, 1, -1),
        lambda: verify_geometric(2, 1, -1),
        lambda: verify_convolution(2, 1, 1, -1),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: MultiSeries(2, 2, {(1, -1): 1}),
        lambda: MultiSeries(2, 2, {(1, 0): 1.0}),
        lambda: MultiSeries(2, 2, {(0.5, 0): 1}),
        lambda: MultiSeries(2, 2, {(True, 0): 1}),
        lambda: MultiSeries(2, 2, {(1, 0): True}),
        lambda: MultiSeries(2, 2, {(0, 0): 1}).evaluate((0.1,)),
        lambda: closed_form_series(2, 0, 2),
        lambda: verify_linear_recursion(2, -1, 2),
        lambda: verify_geometric(2, 0, 2),
        lambda: verify_convolution(2, 0, 1, 2),
    ],
    ids=[
        "negative-exponent", "float-coefficient", "float-exponent", "bool-exponent",
        "bool-coefficient", "evaluate-length", "closed-form-level",
        "recursion-n_max", "geometric-n_max", "convolution-level",
    ],
)
def test_series_calls_reject_bad_levels_and_terms(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_form_series(0, 1, 2),
        lambda: verify_linear_recursion(0, 1, 2),
        lambda: verify_linear_recursion(0, 0, 2),
        lambda: verify_convolution(0, 1, 1, 2),
        lambda: verify_fuss_catalan_rows(0, 3),
        lambda: list(profiles_with_total(0, 2)),
        lambda: list(profiles_with_total(-1, 0)),
    ],
    ids=[
        "closed-form-series", "recursion", "recursion-n_max-0", "convolution",
        "fuss-catalan", "profiles-d0", "profiles-d-1",
    ],
)
def test_fewer_than_one_color_raises_domain_error(call):
    """d below 1 is rejected, not walked into a recursion without end."""
    with pytest.raises(DomainError):
        call()


def test_degree_stabilization_via_truncation_consistency():
    full = solve_tree_equation(2, 8)
    assert MultiSeries(2, 5, full.coeffs) == solve_tree_equation(2, 5)
    full3 = solve_tree_equation(3, 6)
    assert MultiSeries(3, 4, full3.coeffs) == solve_tree_equation(3, 4)


def test_positivity_of_solution_coefficients():
    for d, order in ((2, 8), (3, 6)):
        solved = solve_tree_equation(d, order)
        expected_terms = sum(
            1 for total in range(order + 1) for _ in profiles_with_total(d, total)
        )
        assert len(solved.coeffs) == expected_terms
        assert all(c > 0 for c in solved.coeffs.values())


def test_closed_form_series_matches_solution():
    assert closed_form_series(2, 1, 8) == solve_tree_equation(2, 8)


@pytest.mark.parametrize("d", range(2, 9))
def test_solution_matches_closed_form_at_order_cap(d):
    cap = CAPS["order"][d]
    assert solve_tree_equation(d, cap) == closed_form_series(d, 1, cap)


# The recursion runs at every d's cap, d=6..8 in about 4 s together.
# geometric and convolution are left out for time at d=6..8: at the cap
# the two take about 0.4, 1.0 and 2.1 s per d (2 vCPUs); CI runs them at
# d=8 end to end.
@pytest.mark.parametrize("d", range(2, 9))
def test_series_verifiers_pass_at_the_order_cap(d):
    cap = CAPS["order"][d]
    assert verify_linear_recursion(d, 5, cap).ok
    if d <= 5:
        assert verify_geometric(d, 5, cap).ok
        assert verify_convolution(d, 1000, 1000, cap).ok


def test_closed_form_series_known_coefficients():
    series2 = closed_form_series(2, 2, 4)
    assert series2.coefficient((1, 0)) == 2
    for d, n in ((2, 3), (3, 2), (3, 5)):
        assert closed_form_series(d, n, 2).coefficient((0,) * d) == 1


def test_verify_linear_recursion_passes():
    assert verify_linear_recursion(2, 5, 8).ok
    report = verify_linear_recursion(3, 4, 6)
    assert report.ok and report.failures == []


def test_recursion_single_coefficient_by_hand():
    # level 2 at (1,1) decomposes into level 1/2/2/3 contributions
    lhs = closed_form_count((1, 1), 2)
    rhs = (
        closed_form_count((1, 1), 1)
        + closed_form_count((0, 1), 2)
        + closed_form_count((1, 0), 2)
        + closed_form_count((0, 0), 3)
    )
    assert lhs == rhs == 8


def test_verify_geometric_passes():
    assert verify_geometric(2, 4, 6).ok
    assert verify_geometric(3, 3, 5).ok


def test_geometric_single_coefficient_by_hand():
    # [F^2] at (1,1) = 2*C(1,1)*C(0,0) + 2*C(1,0)*C(0,1)
    F = solve_tree_equation(2, 4)
    squared = F * F
    assert squared.coefficient((1, 1)) == 2 * 3 * 1 + 2 * 1 * 1 == 8


def test_verify_convolution_passes():
    assert verify_convolution(2, 1, 1, 4).ok
    assert verify_convolution(2, 2, 3, 6).ok
    assert verify_convolution(3, 2, 3, 5).ok


def test_report_that_compared_nothing_is_not_ok():
    report = VerificationReport("test", 2, {})
    assert report.failures == [] and not report.ok
    assert report.to_json_obj()["ok"] is False
    assert verify_linear_recursion(2, 1, 0).compared == 2


def test_report_counts_every_failure_and_keeps_the_first_100():
    report = VerificationReport("test", 2, {})
    for i in range(250):
        report.check({"i": i}, i, i + (i % 2))
    assert report.compared == 250 and report.failure_count == 125
    assert report.failures == [({"i": i}, i, i + 1) for i in range(1, 201, 2)]
    doc = report.to_json_obj()
    assert doc["ok"] is False and doc["failure_count"] == 125
    assert doc["failures"][0] == {"i": 1, "lhs": "1", "rhs": "2"}
    assert len(doc["failures"]) == MAX_REPORTED_FAILURES == 100


def neg(a):
    return MultiSeries(a.d, a.order, {k: -v for k, v in a.coeffs.items()})


def add(a, b):
    """Coefficientwise sum of two series of one shape; zeros are dropped."""
    assert (a.d, a.order) == (b.d, b.order)
    out = dict(a.coeffs)
    for key, value in b.coeffs.items():
        out[key] = out.get(key, 0) + value
    return MultiSeries(a.d, a.order, out)


def test_series_arithmetic_basics():
    a = MultiSeries(2, 3, {(1, 0): 2})
    b = MultiSeries(2, 3, {(0, 1): 5, (1, 0): -2})
    assert add(a, b).coeffs == {(0, 1): 5}
    assert add(a, neg(a)).coeffs == {}
    assert (a * b).coeffs == {(1, 1): 10, (2, 0): -4}
    # (x + y)(x - y): the xy terms cancel and are dropped
    c = MultiSeries(2, 3, {(1, 0): 1, (0, 1): 1})
    assert (c * MultiSeries(2, 3, {(1, 0): 1, (0, 1): -1})).coeffs == {(2, 0): 1, (0, 2): -1}
    with pytest.raises(DomainError):
        a * MultiSeries(3, 3, {})
    with pytest.raises(DomainError):
        a * MultiSeries(2, 4, {})


@pytest.mark.parametrize("other", [1, 2.5, None])
def test_series_arithmetic_rejects_non_series_operands(other):
    a = MultiSeries(2, 3, {(1, 0): 2})
    with pytest.raises(DomainError):
        a * other


def test_series_truncates_on_construction():
    s = MultiSeries(2, 1, {(2, 0): 7, (1, 0): 1, (0, 0): 0})
    assert s.coeffs == {(1, 0): 1}


exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda p: sum(p) <= 6
)
small_series = st.dictionaries(exponents, st.integers(-9, 9), max_size=8).map(
    lambda coeffs: MultiSeries(2, 6, coeffs)
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_laws_under_truncation(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * add(b, c) == add(a * b, a * c)


def naive_product(a, b):
    """All-pairs reference product: form every pair, then truncate."""
    out = {}
    for pa, ca in a.coeffs.items():
        for pb, cb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(pa, pb))
            out[key] = out.get(key, 0) + ca * cb
    return MultiSeries(a.d, a.order, out)


@st.composite
def sparse_series_pairs(draw):
    d = draw(st.integers(1, 4))
    order = draw(st.integers(0, 7))

    @st.composite
    def exponent(draw, low, high):
        total = draw(st.integers(low, high))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=d - 1, max_size=d - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))

    def series():
        # each operand gets its own degree band, so one may sit on low degrees
        # and the other on high ones; some totals run past the order
        low = draw(st.integers(0, order))
        high = draw(st.integers(low, order + 2))
        coeffs = draw(st.dictionaries(exponent(low, high), st.integers(-5, 5), max_size=10))
        return MultiSeries(d, order, coeffs)

    return series(), series()


@given(sparse_series_pairs())
@settings(max_examples=100, deadline=None)
def test_graded_mul_matches_all_pairs_reference(pair):
    a, b = pair
    # (a + b) * (a - b) cancels its cross terms to zero inside one product
    for left, right in ((a, b), (add(a, b), add(a, neg(b)))):
        product = left * right
        assert product == naive_product(left, right)
        assert 0 not in product.coeffs.values()


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("order", range(7))
def test_mul_with_exponents_at_the_order(d, order):
    """Exponents that reach the order itself, where a packed field of the
    product kernel is at its largest: x_i^order times 1 and x_i^a times
    x_j^(order - a) each keep their one term, and a second term x_j^(order -
    a + 1) in the same operand runs past the order and is dropped, not
    carried into a neighbouring exponent."""

    def x(i, e):
        return tuple(e if k == i else 0 for k in range(d))

    def times(p, q):
        return tuple(map(sum, zip(p, q)))

    for i, j in itertools.product(range(d), repeat=2):
        cases = [({x(i, order): 2}, {x(j, 0): 7, x(j, 1): 5}, {x(i, order): 14})]
        cases += [
            ({x(i, a): 2}, {x(j, order - a): 3, x(j, order - a + 1): 5},
             {times(x(i, a), x(j, order - a)): 6})
            for a in range(order + 1)
        ]
        for left, right, expected in cases:
            left, right = MultiSeries(d, order, left), MultiSeries(d, order, right)
            product = left * right
            assert product.coeffs == expected, (i, j, left, right)
            assert product == naive_product(left, right)


def product_form_recursion(d, n_max, order):
    """The recursion check by whole-series arithmetic, the reference for
    ``verify_linear_recursion``: e_k as a series and F_n + sum_k e_k * F_{n+k}
    by all-pairs products, each level read through ``series``."""
    elementary = [
        MultiSeries(d, order, {
            tuple(int(i in subset) for i in range(d)): 1
            for subset in itertools.combinations(range(d), k)
        })
        for k in range(d + 1)
    ]
    levels = [elementary[0]]
    levels += [series.closed_form_series(d, m, order) for m in range(1, n_max + d + 1)]
    report = VerificationReport("recursion", d, {"n_max": n_max, "order": order})
    for n in range(n_max + 1):
        lhs, rhs = levels[n + 1], levels[n]
        for k in range(1, d + 1):
            rhs = add(rhs, naive_product(elementary[k], levels[n + k]))
        # Every exponent nonzero on either side, in graded lexicographic order.
        for p in sorted(set(lhs.coeffs) | set(rhs.coeffs), key=lambda p: (sum(p), p)):
            report.check({"n": n, "p": list(p)}, lhs.coefficient(p), rhs.coefficient(p))
    return report


@pytest.mark.parametrize(
    "d, order", [(d, CAPS["order"][d]) for d in range(2, 6)] + [(d, 4) for d in range(6, 9)]
)
def test_recursion_matches_the_product_form_reference(d, order):
    report = verify_linear_recursion(d, 5, order)
    reference = product_form_recursion(d, 5, order)
    assert report.to_json_obj() == reference.to_json_obj()
    assert report.compared == reference.compared


WRONG_COEFFICIENTS = {"off-by-one": lambda c: c + 1, "dropped": lambda c: 0}


def break_closed_form(monkeypatch, level, p0, wrong):
    """Make ``combinatorics.closed_form_count`` return ``wrong(c)`` in place
    of the right level-``level`` count c of ``p0``, for every route that
    evaluates the closed form; returns wrong(c) - c."""
    right = combinatorics.closed_form_count

    def broken(profile, n=1):
        c = right(profile, n)
        return wrong(c) if (n, profile) == (level, p0) else c

    monkeypatch.setattr(combinatorics, "closed_form_count", broken)
    c = right(p0, level)
    return wrong(c) - c


def failures_by_context(report):
    """{(n, p): lhs - rhs} over the failures; every failure must be listed."""
    assert report.failure_count == len(report.failures) < MAX_REPORTED_FAILURES
    return {
        (context.get("n"), tuple(context["p"])): lhs - rhs
        for context, lhs, rhs in report.failures
    }


@pytest.mark.parametrize("wrong", WRONG_COEFFICIENTS.values(), ids=WRONG_COEFFICIENTS)
@pytest.mark.parametrize(
    "d, n_max, order, level, p0",
    [(2, 5, 6, 3, (1, 2)), (3, 4, 5, 3, (1, 0, 1)), (3, 1, 4, 2, (0, 0, 0)), (4, 5, 4, 4, (0, 2, 0, 1))],
)
def test_recursion_reports_every_context_a_wrong_level_reaches(
    monkeypatch, wrong, d, n_max, order, level, p0
):
    """F_level wrong at p0 by delta moves the left side at (level-1, p0) by
    delta, and the right side at (level, p0) and at (level-k, p0 + chi_S) for
    every k-set S of colors by delta: nothing else fails."""
    delta = break_closed_form(monkeypatch, level, p0, wrong)
    expected = {}
    if level - 1 <= n_max:
        expected[(level - 1, p0)] = delta
    if level <= n_max:
        expected[(level, p0)] = -delta
    for k in range(1, min(d, level) + 1):
        for subset in itertools.combinations(range(d), k):
            p = tuple(e + (i in subset) for i, e in enumerate(p0))
            if sum(p) <= order and level - k <= n_max:
                expected[(level - k, p)] = -delta
    report = verify_linear_recursion(d, n_max, order)
    assert failures_by_context(report) == expected
    assert report.to_json_obj() == product_form_recursion(d, n_max, order).to_json_obj()


@pytest.mark.parametrize("wrong", WRONG_COEFFICIENTS.values(), ids=WRONG_COEFFICIENTS)
def test_geometric_and_convolution_report_the_one_wrong_coefficient(monkeypatch, wrong):
    delta = break_closed_form(monkeypatch, 3, (2, 1, 0), wrong)
    assert failures_by_context(verify_geometric(3, 4, 5)) == {(3, (2, 1, 0)): delta}
    assert failures_by_context(verify_convolution(3, 1, 2, 5)) == {(None, (2, 1, 0)): -delta}


def test_evaluate_constant():
    assert MultiSeries(3, 5, {(0, 0, 0): 1}).evaluate((0.3, 0.1, 0.7)) == 1


def test_evaluate_order2_value():
    value = solve_tree_equation(2, 2).evaluate((0.1, 0.1))
    assert value.imag == 0
    assert math.isclose(value.real, 1.25, abs_tol=1e-12)


def test_evaluate_order20_near_principal_root():
    # quadratic-formula oracle for the principal root at g = (0.1, 0.1)
    s = 1 - 0.2
    x0 = (s - math.sqrt(s * s - 4 * 0.01)) / (2 * 0.01)
    value = solve_tree_equation(2, 20).evaluate((0.1, 0.1))
    assert abs(value - x0) < 1e-6


def test_growth_bound_necessary_condition():
    """Truncated positive-series values at an admissible point stay below K^n."""
    for n in range(1, 7):
        value = closed_form_series(2, n, 12).evaluate((0.05, 0.05))
        assert value.imag == 0
        assert 0 < value.real <= 2**n


def test_json_dump_format():
    dumped = solve_tree_equation(2, 2).to_json_obj()
    assert dumped["d"] == 2 and dumped["order"] == 2
    assert dumped["coeffs"][0] == {"p": [0, 0], "c": "1"}
    keys = [tuple(item["p"]) for item in dumped["coeffs"]]
    assert keys == sorted(keys, key=lambda p: (sum(p), p))
    assert all(isinstance(item["c"], str) for item in dumped["coeffs"])
    json.dumps(dumped)
