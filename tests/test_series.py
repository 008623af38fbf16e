"""Tests for the truncated multivariate series and identity verifiers."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.combinatorics import ColorProfile, closed_form_count, profiles_with_total
from linetrees.errors import DomainError
from linetrees.limits import CAPS
from linetrees.series import (
    MultiSeries,
    closed_form_series,
    elementary_symmetric_series,
    solve_tree_equation,
    verify_convolution,
    verify_geometric,
    verify_linear_recursion,
    _collect_mismatches,
)
from linetrees.trees import count_by_profile_bruteforce


def test_elementary_symmetric_d2():
    e = elementary_symmetric_series(2, 4)
    assert e[0].coeffs == {(0, 0): 1}
    assert e[1].coeffs == {(1, 0): 1, (0, 1): 1}
    assert e[2].coeffs == {(1, 1): 1}


def test_elementary_symmetric_d3_e2():
    e = elementary_symmetric_series(3, 4)
    assert e[2].coeffs == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}


def test_elementary_symmetric_truncates_high_degrees():
    e = elementary_symmetric_series(3, 1)
    assert e[2].coeffs == {}
    assert e[3].coeffs == {}


def test_solve_order_zero_is_one():
    assert solve_tree_equation(2, 0).coeffs == {(0, 0): 1}


def test_solve_d2_order2_matches_bruteforce():
    tally = count_by_profile_bruteforce(2, 2)
    solved = solve_tree_equation(2, 2)
    assert solved.coeffs == {profile.counts: count for profile, count in tally.items()}
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


def test_degree_stabilization_via_truncation_consistency():
    full = solve_tree_equation(2, 8)
    assert full.truncate(5) == solve_tree_equation(2, 5)
    full3 = solve_tree_equation(3, 6)
    assert full3.truncate(4) == solve_tree_equation(3, 4)


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
    lhs = closed_form_count(ColorProfile(2, (1, 1)), 2)
    rhs = (
        closed_form_count(ColorProfile(2, (1, 1)), 1)
        + closed_form_count(ColorProfile(2, (0, 1)), 2)
        + closed_form_count(ColorProfile(2, (1, 0)), 2)
        + closed_form_count(ColorProfile(2, (0, 0)), 3)
    )
    assert lhs == rhs == 8


def test_verify_geometric_passes():
    assert verify_geometric(2, 4, 6).ok
    assert verify_geometric(3, 3, 5).ok


def test_geometric_single_coefficient_by_hand():
    # [F^2] at (1,1) = 2*C(1,1)*C(0,0) + 2*C(1,0)*C(0,1)
    squared = solve_tree_equation(2, 4) ** 2
    assert squared.coefficient((1, 1)) == 2 * 3 * 1 + 2 * 1 * 1 == 8


def test_verify_convolution_passes():
    assert verify_convolution(2, 1, 1, 4).ok
    assert verify_convolution(2, 2, 3, 6).ok
    assert verify_convolution(3, 2, 3, 5).ok


def test_collect_mismatches_detects_differences():
    a = MultiSeries(2, 2, {(1, 0): 1, (0, 1): 2})
    b = MultiSeries(2, 2, {(1, 0): 1, (0, 1): 3, (2, 0): 4})
    found = list(_collect_mismatches(a, b, {"n": 0}))
    assert [(m.context["p"], m.lhs, m.rhs) for m in found] == [
        ([0, 1], 2, 3),
        ([2, 0], 0, 4),
    ]


def test_series_arithmetic_basics():
    a = MultiSeries(2, 3, {(1, 0): 2})
    b = MultiSeries(2, 3, {(0, 1): 5, (1, 0): -2})
    assert (a + b).coeffs == {(0, 1): 5}
    assert (a - a).coeffs == {}
    assert (3 * a).coeffs == {(1, 0): 6}
    assert (a * b).coeffs == {(1, 1): 10, (2, 0): -4}
    # (x + y)(x - y): the xy terms cancel and are dropped
    c = MultiSeries(2, 3, {(1, 0): 1, (0, 1): 1})
    assert (c * MultiSeries(2, 3, {(1, 0): 1, (0, 1): -1})).coeffs == {(2, 0): 1, (0, 2): -1}
    assert (a ** 0).coeffs == {(0, 0): 1}
    with pytest.raises(DomainError):
        a + MultiSeries(3, 3, {})
    with pytest.raises(DomainError):
        a ** -1


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
    for left, right in ((a, b), (a + b, a - b)):
        product = left * right
        assert product == naive_product(left, right)
        assert 0 not in product.coeffs.values()


def test_evaluate_constant():
    assert MultiSeries.constant(3, 5, 1).evaluate((0.3, 0.1, 0.7)) == 1


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
