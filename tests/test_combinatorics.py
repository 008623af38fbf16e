"""Tests for the exact counting formulas."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.combinatorics import (
    ColorProfile,
    closed_form_count,
    exact_div,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from linetrees.errors import DomainError, IntegralityViolation
from linetrees.verification import dyck_paths_by_peaks, verify_narayana_bridge


def test_color_profile_invariants():
    p = ColorProfile(3, (1, 0, 2))
    assert p.total == 3
    with pytest.raises(DomainError):
        ColorProfile(2, (1, 1, 1))
    with pytest.raises(DomainError):
        ColorProfile(2, (1, -1))
    with pytest.raises(DomainError):
        ColorProfile(2, (True, 0))
    with pytest.raises(DomainError):
        ColorProfile(1, (1,))
    with pytest.raises(DomainError):
        ColorProfile(9, (0,) * 9)


def test_closed_form_known_values():
    assert closed_form_count(ColorProfile(2, (0, 0)), 1) == 1
    assert closed_form_count(ColorProfile(2, (1, 1)), 1) == 3
    assert closed_form_count(ColorProfile(3, (1, 1, 1)), 1) == 16


def test_closed_form_level_two_matches_convolution():
    # Level 2 at (1,0) must equal the self-convolution of level 1.
    target = (1, 0)
    convolved = 0
    for k1 in range(target[0] + 1):
        for k2 in range(target[1] + 1):
            left = closed_form_count(ColorProfile(2, (k1, k2)), 1)
            right = closed_form_count(
                ColorProfile(2, (target[0] - k1, target[1] - k2)), 1
            )
            convolved += left * right
    assert convolved == 2
    assert closed_form_count(ColorProfile(2, target), 2) == convolved


def test_closed_form_rejects_bad_level():
    with pytest.raises(DomainError):
        closed_form_count(ColorProfile(2, (1, 1)), 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_integrality_sweep(d):
    """The final division is exact for every profile total <= 12, n <= 6."""
    for total in range(13):
        for counts in profiles_with_total(d, total):
            profile = ColorProfile(d, counts)
            for n in range(1, 7):
                assert closed_form_count(profile, n) >= 0


@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(st.integers(0, 5), min_size=d, max_size=d)
        )
    ),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_color_symmetry(d_and_counts, n, rng):
    """Counts are invariant under any permutation of the profile."""
    d, counts = d_and_counts
    shuffled = list(counts)
    rng.shuffle(shuffled)
    assert closed_form_count(ColorProfile(d, tuple(counts)), n) == closed_form_count(
        ColorProfile(d, tuple(shuffled)), n
    )


@pytest.mark.parametrize("d", [2, 3])
def test_row_sums_are_fuss_catalan(d):
    for p_vertices in range(1, 9):
        row = sum(
            closed_form_count(ColorProfile(d, counts), 1)
            for counts in profiles_with_total(d, p_vertices - 1)
        )
        assert row == fuss_catalan_total(d, p_vertices)


def test_fuss_catalan_known_values():
    assert fuss_catalan_total(2, 3) == 5
    assert fuss_catalan_total(2, 1) == 1
    assert fuss_catalan_total(3, 3) == 12


@pytest.mark.parametrize("d,p_vertices", [(1, 3), (9, 3), (2, 0)])
def test_fuss_catalan_rejects_bad_colors_and_vertices(d, p_vertices):
    with pytest.raises(DomainError):
        fuss_catalan_total(d, p_vertices)


def test_narayana_known_values():
    assert narayana(3, 2) == 3
    assert narayana(1, 1) == 1
    assert narayana(4, 2) == 6


def test_dyck_paths_by_peaks_match_narayana_up_to_the_cap_row():
    """Row n lists the Dyck paths of semilength n by peaks; rows 1..140 cover
    the `narayana order` cap, 139."""
    rows = dyck_paths_by_peaks(140)
    assert rows[:3] == [[1], [0, 1], [0, 1, 1]]
    for n in range(1, 141):
        assert rows[n] == [0] + [narayana(n, k) for k in range(1, n + 1)]


def test_narayana_domain():
    with pytest.raises(DomainError):
        narayana(3, 0)
    with pytest.raises(DomainError):
        narayana(3, 4)
    with pytest.raises(DomainError):
        narayana(0, 0)
    with pytest.raises(DomainError):
        verify_narayana_bridge(-1)


def test_exact_div_raises_on_a_remainder():
    assert exact_div(8, 2) == 4
    with pytest.raises(IntegralityViolation, match="remainder 1"):
        exact_div(7, 2)


def test_narayana_bridge():
    for p1, p2 in itertools.product(range(11), repeat=2):
        if p1 + p2 > 10:
            continue
        assert closed_form_count(ColorProfile(2, (p1, p2)), 1) == narayana(
            p1 + p2 + 1, p1 + 1
        )


@given(st.lists(st.integers(0, 6), min_size=2, max_size=4), st.integers(1, 5))
@settings(max_examples=60)
def test_color_padding(counts, n):
    """Appending a zero count (one more color) leaves the count unchanged."""
    d = len(counts)
    if d + 1 > 8:
        return
    base = closed_form_count(ColorProfile(d, tuple(counts)), n)
    padded = closed_form_count(ColorProfile(d + 1, tuple(counts) + (0,)), n)
    assert base == padded


def test_profiles_with_total_is_lexicographic_and_complete():
    out = list(profiles_with_total(3, 2))
    assert out == sorted(out)
    assert len(out) == 6
    assert all(sum(p) == 2 for p in out)
