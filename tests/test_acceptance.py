"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import itertools
import math
import time
from collections import Counter

from scipy.stats import chi2

from linetrees.cli import main
from linetrees.combinatorics import (
    closed_form_count,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from linetrees.counting import ProfileCountTable, SampleRequest
from linetrees.roots import rouche_isolation_check
from linetrees.series import (
    closed_form_series,
    solve_tree_equation,
    verify_convolution,
    verify_geometric,
    verify_linear_recursion,
)
from linetrees.trees import count_by_profile_bruteforce, encode
from reference_trees import decode, profile_counts


def _ok(number, name, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_1_oracle_equivalence():
    start = time.time()
    for d, max_total in ((2, 6), (3, 6), (4, 4)):
        tally = count_by_profile_bruteforce(d, max_total)
        for total in range(max_total + 1):
            for counts in profiles_with_total(d, total):
                assert tally[counts] == closed_form_count(counts, 1)
    elapsed = time.time() - start
    assert elapsed < 120
    _ok(1, "oracle equivalence (exact)", elapsed)


def test_criterion_2_spot_values_by_enumeration():
    tally2 = count_by_profile_bruteforce(2, 3)
    assert tally2[(1, 1)] == 3 == closed_form_count((1, 1))
    assert tally2[(2, 1)] == 6 == closed_form_count((2, 1))
    tally3 = count_by_profile_bruteforce(3, 3)
    assert tally3[(1, 1, 1)] == 16 == closed_form_count((1, 1, 1))
    _ok(2, "spot values 3 / 6 / 16 by enumeration")


def test_criterion_3_functional_equation_solution():
    start = time.time()
    assert solve_tree_equation(2, 12) == closed_form_series(2, 1, 12)
    assert solve_tree_equation(3, 8) == closed_form_series(3, 1, 8)
    elapsed = time.time() - start
    assert elapsed < 30
    _ok(3, "functional-equation solution matches closed form (exact)", elapsed)


def test_criterion_4_linear_recursion():
    for d in (2, 3):
        report = verify_linear_recursion(d, 5, 8)
        assert report.ok, report.failures[:5]
    _ok(4, "linear recursion holds for n=0..5, order 8 (exact)")


def test_criterion_5_geometric_sequence():
    for d in (2, 3):
        report = verify_geometric(d, 5, 8)
        assert report.ok, report.failures[:5]
    _ok(5, "level-n series equals n-th power (exact)")


def test_criterion_6_convolution_identity():
    for d in (2, 3):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            report = verify_convolution(d, n, m, 6)
            assert report.ok, (d, n, m, report.failures[:5])
    _ok(6, "convolution identity for (n,m) in {1..3}^2 (exact)")


def test_criterion_7_fuss_catalan_row_sums():
    expected = {2: [1, 2, 5, 14, 42, 132, 429, 1430], 3: [1, 3, 12, 55, 273]}
    for d, values in expected.items():
        # independent confirmation of the listed values by brute force
        tally = count_by_profile_bruteforce(d, len(values) - 1)
        by_total = Counter()
        for counts, count in tally.items():
            by_total[sum(counts)] += count
        assert [by_total[p - 1] for p in range(1, len(values) + 1)] == values
        for p_vertices, value in enumerate(values, start=1):
            row = sum(
                closed_form_count(counts, 1)
                for counts in profiles_with_total(d, p_vertices - 1)
            )
            assert row == value == fuss_catalan_total(d, p_vertices)
    _ok(7, "row sums equal Fuss-Catalan numbers (exact)")


def test_criterion_8_narayana_bridge():
    for p1 in range(11):
        for p2 in range(11 - p1):
            assert closed_form_count((p1, p2), 1) == narayana(
                p1 + p2 + 1, p1 + 1
            )
    _ok(8, "two-color counts form the Narayana triangle (exact)")


def test_criterion_9_root_isolation():
    start = time.time()
    for d in (2, 3):
        for point in itertools.product((0.01, 0.05, 0.1), repeat=d):
            report = rouche_isolation_check(d, point, 2.0)
            assert report.admissible, (d, point)
            assert report.inside_count == 1, (d, point)
    report = rouche_isolation_check(2, (0.1, 0.1), 2.0)
    s = 1 - 0.2
    x0 = (s - math.sqrt(s * s - 4 * 0.01)) / (2 * 0.01)
    assert abs(report.principal_root - x0) < 1e-9
    series_value = solve_tree_equation(2, 20).evaluate((0.1, 0.1))
    assert abs(report.principal_root - series_value) < 1e-6
    elapsed = time.time() - start
    assert elapsed < 10
    _ok(9, "exactly one root inside R=2 on the admissible grid", elapsed)


def test_criterion_10_growth_bound():
    for n in range(1, 7):
        value = closed_form_series(2, n, 12).evaluate((0.05, 0.05))
        assert value.imag == 0
        assert value.real <= 2**n
    _ok(10, "truncated level-n values bounded by 2^n at g=0.05")


def test_criterion_11_sampler_correctness(capsys):
    profile = (1, 1, 1)
    table = ProfileCountTable(3)
    total = table.recursive_count(profile)
    assert total == 16
    encodings = {table.unrank(profile, i) for i in range(total)}
    assert len(encodings) == 16
    for text in encodings:
        tree = decode(text, 3)
        assert encode(tree) == text
        assert profile_counts(tree, 3) == (1, 1, 1)

    samples = table.sample_uniform(SampleRequest(profile, 16000, 42))
    counts = Counter(samples)
    assert set(counts) == encodings
    expected = 16000 / 16
    statistic = sum((obs - expected) ** 2 / expected for obs in counts.values())
    critical = chi2.isf(0.001, 15)
    assert statistic < critical, (statistic, critical)

    argv = ["sample", "--d", "3", "--profile", "1,1,1", "--count", "64", "--seed", "7"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out.encode()
    assert main(list(argv)) == 0
    second = capsys.readouterr().out.encode()
    assert first == second
    _ok(11, f"sampler uniform (chi2={statistic:.2f} < {critical:.2f}) and byte-deterministic")
