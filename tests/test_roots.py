"""Tests for the characteristic polynomial, root finding, and isolation."""

import cmath
import itertools
import math
import random

import pytest

from linetrees.errors import DegenerateError, DomainError, RootFindingFailure
from linetrees.roots import (
    CLUSTER_RADIUS,
    CharPolynomial,
    _cluster,
    build_char_polynomial,
    d2_closed_form,
    roots_all,
    rouche_isolation_check,
)
from linetrees.series import solve_tree_equation


def quadratic_roots(g1, g2):
    """Independent oracle: textbook quadratic formula, real arithmetic."""
    s = 1 - g1 - g2
    disc = math.sqrt(s * s - 4 * g1 * g2)
    return (s - disc) / (2 * g1 * g2), (s + disc) / (2 * g1 * g2)


def test_build_coefficients_d2():
    q = build_char_polynomial(2, (0.1, 0.2))
    assert q.coefficients[0] == 1
    assert abs(q.coefficients[1] - (0.1 + 0.2 - 1)) < 1e-15
    assert abs(q.coefficients[2] - 0.1 * 0.2) < 1e-18


def test_build_coefficients_d3():
    a, b, c = 0.1, 0.2, 0.3
    q = build_char_polynomial(3, (a, b, c))
    assert abs(q.coefficients[1] - (a + b + c - 1)) < 1e-15
    assert abs(q.coefficients[2] - (a * b + a * c + b * c)) < 1e-15
    assert abs(q.coefficients[3] - a * b * c) < 1e-17


def test_build_rejects_bad_shapes():
    with pytest.raises(DomainError):
        build_char_polynomial(1, (0.1,))
    with pytest.raises(DomainError):
        build_char_polynomial(9, (0.1,) * 9)
    with pytest.raises(DomainError):
        build_char_polynomial(2, (0.1, 0.1, 0.1))


def test_deflation_at_zero_point():
    q = build_char_polynomial(2, (0.0, 0.0))
    assert q.coefficients == (1 + 0j, -1 + 0j, 0j)
    assert q.effective_degree == 1
    report = roots_all(q)
    assert report.roots == (((1 + 0j), 1),)


def test_partial_deflation():
    q = build_char_polynomial(2, (0.1, 0.0))
    assert q.effective_degree == 1
    (root, mult), = roots_all(q).roots
    assert mult == 1
    assert abs(root - 1 / 0.9) < 1e-12


def test_roots_d2_match_quadratic_oracle():
    x0, x1 = quadratic_roots(0.1, 0.1)
    report = roots_all(build_char_polynomial(2, (0.1, 0.1)))
    got = sorted(r.real for r, _ in report.roots)
    assert abs(got[0] - x0) < 1e-9
    assert abs(got[1] - x1) < 1e-9
    assert all(abs(r.imag) < 1e-12 for r, _ in report.roots)


def test_roots_residual_contract():
    q = build_char_polynomial(3, (0.01, 0.05, 0.1))
    report = roots_all(q, residual_tol=1e-10)
    scale = max(abs(c) for c in q.coefficients)
    assert report.residual_max <= 1e-10 * scale
    for root, _ in report.roots:
        assert abs(q(root)) <= 1e-10 * scale


def test_roots_failure_reports_best_residual():
    with pytest.raises(RootFindingFailure) as exc:
        roots_all(build_char_polynomial(2, (0.1, 0.1)), residual_tol=0.0)
    assert exc.value.best_residual > 0


def test_roots_degenerate_constant():
    # e_1 = 1 and e_2 = 0 leaves a constant polynomial after deflation
    q = build_char_polynomial(2, (1.0, 0.0))
    assert q.effective_degree == 0
    with pytest.raises(DegenerateError):
        roots_all(q)


def test_cluster_merges_within_radius():
    merged = _cluster([1.0 + 0j, 1.0 + 1e-9j, 4.0 + 0j])
    assert sorted((abs(c), m) for c, m in merged) == [
        (pytest.approx(1.0), 2),
        (pytest.approx(4.0), 1),
    ]
    apart = _cluster([1.0 + 0j, 1.0 + 1e-3j])
    assert [m for _, m in apart] == [1, 1]
    assert CLUSTER_RADIUS == 1e-7


def test_double_root_point():
    # at g = (1/4, 1/4) the two roots coincide at 4
    report = roots_all(build_char_polynomial(2, (0.25, 0.25)))
    assert sum(m for _, m in report.roots) == 2
    assert all(abs(r - 4.0) < 1e-5 for r, _ in report.roots)


def test_rouche_epsilon_and_admissibility():
    q = build_char_polynomial(2, (0.1, 0.1))
    report = rouche_isolation_check(q, 2.0)
    assert math.isclose(report.epsilon_used, (math.sqrt(2) - 1) / 2)
    assert report.admissible is True
    assert report.inside_count == 1
    assert abs(report.principal_root - 1.2701665379258313) < 1e-9

    loud = rouche_isolation_check(build_char_polynomial(2, (0.3, 0.3)), 2.0)
    assert loud.admissible is False

    with pytest.raises(DomainError):
        rouche_isolation_check(q, 1.0)


def test_rouche_at_zero_point():
    for radius in (1.5, 2.0, 10.0):
        report = rouche_isolation_check(build_char_polynomial(3, (0.0, 0.0, 0.0)), radius)
        assert report.inside_count == 1
        assert report.principal_root == 1


@pytest.mark.parametrize("d", [2, 3])
def test_isolation_grid(d):
    """Every admissible grid point has exactly one root inside radius 2."""
    for point in itertools.product((0.01, 0.05, 0.1), repeat=d):
        report = rouche_isolation_check(build_char_polynomial(d, point), 2.0)
        assert report.admissible
        assert report.inside_count == 1


@pytest.mark.parametrize("d", range(2, 9))
def test_isolation_with_a_near_zero_coordinate(d):
    """Admissible points with one |g_i| near 0, where Q has a root of norm
    about 1/|g_i|: every root passes the backward-error bound and exactly
    one lies inside R."""
    rng = random.Random(d)
    for radius in (1.5, 2.0, 3.0, 4.0):
        epsilon = (radius ** (1.0 / d) - 1.0) / radius
        for _ in range(25):
            point = [rng.uniform(-0.9, 0.9) * epsilon for _ in range(d)]
            point[rng.randrange(d)] *= 10 ** -rng.uniform(1, 8)
            q = build_char_polynomial(d, point)
            report = rouche_isolation_check(q, radius)
            assert report.admissible and report.inside_count == 1
            for root, _ in report.roots:
                scale = sum(abs(c) * abs(root) ** k for k, c in enumerate(q.coefficients))
                assert abs(q(root)) <= 1e-10 * scale


def test_series_root_consistency_improves_with_order():
    report = rouche_isolation_check(build_char_polynomial(2, (0.1, 0.1)), 2.0)
    errors = [
        abs(solve_tree_equation(2, order).evaluate((0.1, 0.1)) - report.principal_root)
        for order in (4, 8, 12, 16, 20)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-6


def test_d3_root_matches_order12_series():
    report = rouche_isolation_check(build_char_polynomial(3, (0.01, 0.01, 0.01)), 2.0)
    value = solve_tree_equation(3, 12).evaluate((0.01, 0.01, 0.01))
    assert abs(report.principal_root - value) < 1e-8


def test_d2_closed_form_values():
    x0, x1 = d2_closed_form(0.1, 0.1)
    ex0, ex1 = quadratic_roots(0.1, 0.1)
    assert abs(x0 - ex0) < 1e-12
    assert abs(x1 - ex1) < 1e-9


def test_d2_closed_form_vieta():
    x0, x1 = d2_closed_form(0.2, 0.05)
    product = 1 / (0.2 * 0.05)
    total = (1 - 0.25) / (0.2 * 0.05)
    assert abs(x0 * x1 - product) / product < 1e-9
    assert abs(x0 + x1 - total) / total < 1e-9


def test_d2_closed_form_small_g_is_stable():
    x0, _ = d2_closed_form(1e-6, 1e-6)
    assert abs(x0 - (1 + 2e-6)) < 1e-10


def test_d2_closed_form_complex_branch():
    g = 0.01 * cmath.exp(0.5j)
    x0, x1 = d2_closed_form(g, g)
    q = build_char_polynomial(2, (g, g))
    assert abs(q(x0)) < 1e-10
    assert abs(q(x1)) < 1e-6 * abs(x1) ** 2
    assert abs(x0 - 1) < 0.1  # principal branch stays near 1


def test_d2_closed_form_degenerate():
    with pytest.raises(DegenerateError):
        d2_closed_form(0.0, 0.3)


def test_char_polynomial_evaluation():
    q = CharPolynomial(2, (0.1 + 0j, 0.1 + 0j), (1 + 0j, -0.8 + 0j, 0.01 + 0j))
    x0, _ = quadratic_roots(0.1, 0.1)
    assert abs(q(x0)) < 1e-12
