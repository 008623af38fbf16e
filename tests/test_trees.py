"""Tests for the canonical encoding and brute-force enumeration, and for the
reference parser ``reference_trees.decode``."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.combinatorics import (
    closed_form_count,
    fuss_catalan_total,
    profiles_with_total,
)
from linetrees.errors import ColorError, ColorOrderError, DomainError, LineTreesError, ParseError
from linetrees.limits import CAPS, MAX_COLORS
from linetrees.trees import count_by_profile_bruteforce, encode, enumerate_by_lines
from linetrees.verification import verify_oracle
from reference_trees import MAX_DEPTH, decode, profile_counts

LEAF = ()


def chain(*colors):
    tree = LEAF
    for color in reversed(colors):
        tree = ((color, tree),)
    return tree


def test_encode_known_trees():
    assert encode(LEAF) == "()"
    assert encode(chain(1, 2)) == "(1:(2:()))"
    assert encode(((1, ((2, LEAF),)), (3, LEAF))) == "(1:(2:()),3:())"


def test_encode_writes_children_in_ascending_color_order():
    assert encode(((2, ()), (1, ()))) == encode(((1, ()), (2, ()))) == "(1:(),2:())"


def test_encode_takes_a_chain_of_5000_edges():
    # encode keeps the subtrees still to write on a list, not on Python's
    # stack, so this runs under the default recursion limit of 1000 frames.
    assert encode(chain(*[1] * 5000)) == "(1:" * 5000 + "()" + ")" * 5000


def test_decode_round_trip_examples():
    for text in ["()", "(1:(2:()))", "(1:(),2:())", "(1:(1:(1:())))"]:
        assert encode(decode(text, 2)) == text


def test_decode_rejects_unsorted_children():
    with pytest.raises(ColorOrderError):
        decode("(2:(),1:())", 2)


def test_decode_rejects_duplicate_color():
    with pytest.raises(ColorError):
        decode("(1:(),1:())", 2)


def test_decode_rejects_out_of_range_color():
    with pytest.raises(ColorError):
        decode("(3:())", 2)
    with pytest.raises(ColorError):
        decode("(0:())", 2)
    # same tree, different alphabet size
    assert encode(decode("(1:(2:()))", 2)) == "(1:(2:()))"
    with pytest.raises(ColorError):
        decode("(1:(2:()))", 1)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("(", 1),
        ("(1:()", 5),
        ("()x", 2),
        ("(1())", 2),
        ("(1:()))", 6),
        ("(:())", 1),
        # a color is ASCII digits without a leading zero
        ("(²:())", 1),
        ("(٣:())", 1),
        ("(01:())", 1),
        # a child that is followed by neither ',' nor ')'
        ("(1:()x", 5),
    ],
)
def test_decode_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        decode(text, 3)
    assert exc.value.offset == offset


@given(st.text(alphabet="()0123456789:,²٣"))
@settings(max_examples=300, deadline=None)
def test_decode_accepts_only_canonical_text(text):
    try:
        tree = decode(text, MAX_COLORS)
    except LineTreesError:
        return
    assert encode(tree) == text


def test_decode_round_trip_accepts_only_valid_trees():
    assert decode(encode(LEAF), 2) == LEAF
    with pytest.raises(ColorError):
        decode(encode(((1, LEAF), (1, LEAF))), 2)
    assert decode(encode(chain(1, 2)), 2) == chain(1, 2)
    with pytest.raises(ColorError):
        decode(encode(chain(1, 2)), 1)


def test_decode_rejects_nesting_deeper_than_max_depth():
    def nested(depth):
        return "(1:" * depth + "()" + ")" * depth

    assert profile_counts(decode(nested(MAX_DEPTH), 2), 2) == (MAX_DEPTH, 0)
    for depth in (MAX_DEPTH + 1, 1200):
        with pytest.raises(ParseError) as exc:
            decode(nested(depth), 2)
        # the "(" of the first vertex below MAX_DEPTH edges
        assert exc.value.offset == 3 * (MAX_DEPTH + 1)


def test_chain_of_max_depth_round_trips():
    """encode, == and hash work at the deepest nesting decode accepts.  Only
    encode is package code, and it does not recurse; == and hash are the
    tuple's own."""
    text = "(1:" * MAX_DEPTH + "()" + ")" * MAX_DEPTH
    tree = decode(text, 2)
    assert encode(tree) == text
    built = chain(*[1] * MAX_DEPTH)
    assert tree == built and hash(tree) == hash(built)
    assert tree != chain(*[1] * (MAX_DEPTH - 1))


@st.composite
def colored_trees(draw, d=3, depth=3):
    if depth == 0:
        return LEAF
    kids = draw(st.integers(0, d))
    if kids == 0:
        return LEAF
    colors = draw(
        st.lists(st.integers(1, d), min_size=kids, max_size=kids, unique=True)
    )
    return tuple(
        (c, draw(colored_trees(d=d, depth=depth - 1))) for c in sorted(colors)
    )


@given(colored_trees())
@settings(max_examples=80, deadline=None)
def test_encode_decode_round_trip(tree):
    assert decode(encode(tree), 3) == tree


def test_enumerate_trivial_levels():
    assert list(enumerate_by_lines(2, 0)) == ["()"]
    assert len(list(enumerate_by_lines(3, 1))) == 4


def test_enumerate_d2_two_lines():
    # 1 + 2 + 5 trees by line count, in order (hand-checked level sets).
    got = list(enumerate_by_lines(2, 2))
    assert got == [
        "()",
        "(1:())",
        "(2:())",
        "(1:(),2:())",
        "(1:(1:()))",
        "(1:(2:()))",
        "(2:(1:()))",
        "(2:(2:()))",
    ]


def test_enumerate_is_deterministic_and_duplicate_free():
    first = list(enumerate_by_lines(3, 4))
    second = list(enumerate_by_lines(3, 4))
    assert first == second
    assert len(set(first)) == len(first)


def test_enumerate_order_by_lines_then_lexicographic():
    stream = list(enumerate_by_lines(2, 4))
    lines = [sum(profile_counts(decode(text, 2), 2)) for text in stream]
    assert lines == sorted(lines)
    for count in set(lines):
        level = [text for text, n in zip(stream, lines) if n == count]
        assert level == sorted(level)


@pytest.mark.parametrize("d,max_lines", [(2, 7), (3, 5), (4, 4)])
def test_enumerate_carries_each_trees_encoding(d, max_lines):
    """Each string decodes to a valid tree and re-encodes to itself, and each
    level's strings are strictly increasing."""
    previous_lines, previous_text = -1, ""
    for text in enumerate_by_lines(d, max_lines):
        tree = decode(text, d)
        assert encode(tree) == text
        lines = sum(profile_counts(tree, d))
        if lines == previous_lines:
            assert previous_text < text
        else:
            assert lines == previous_lines + 1
        previous_lines, previous_text = lines, text
    assert previous_lines == max_lines


@pytest.mark.parametrize("d", range(2, MAX_COLORS + 1))
def test_enumerate_at_the_cli_line_caps(d):
    """At each d's max_lines cap, level by level (a tree's line count is its
    number of ':'): the level holds the Fuss-Catalan number of trees, in
    strictly increasing order, written only in the grammar's characters."""
    max_lines = CAPS["max_lines"][d]
    alphabet = set("(),:" + "".join(str(color) for color in range(1, d + 1)))
    seen = []
    stream = enumerate_by_lines(d, max_lines)
    for lines, group in itertools.groupby(stream, key=lambda text: text.count(":")):
        level = list(group)
        assert len(level) == fuss_catalan_total(d, lines + 1)
        assert all(map(str.__lt__, level, level[1:]))
        assert set("".join(level)) <= alphabet
        seen.append(lines)
    assert seen == list(range(max_lines + 1))


def test_enumerate_budget_and_caps():
    with pytest.raises(DomainError):
        list(enumerate_by_lines(1, 2))


def test_enumerate_checks_caps_at_the_call():
    # Before the first tree is requested, so a caller prints nothing first.
    with pytest.raises(DomainError):
        enumerate_by_lines(2, -1)
    with pytest.raises(DomainError):
        enumerate_by_lines(9, 2)


def test_enumerate_is_uncapped_past_the_cli_line_cap():
    # The max_lines cap (8 at d=2) binds the CLI only.
    tally = count_by_profile_bruteforce(2, 9)
    for total in range(10):
        for counts in profiles_with_total(2, total):
            assert tally.pop(counts) == closed_form_count(counts, 1)
    assert tally == {}


def test_count_by_profile_small():
    tally = count_by_profile_bruteforce(2, 1)
    assert tally == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("d", range(2, MAX_COLORS + 1))
def test_count_by_profile_at_order_zero(d):
    # The stream is the single "()", whose color word is empty.
    assert count_by_profile_bruteforce(d, 0) == {(0,) * d: 1}


def test_count_by_profile_spot_values():
    tally2 = count_by_profile_bruteforce(2, 2)
    assert tally2[(1, 1)] == 3
    tally3 = count_by_profile_bruteforce(3, 3)
    assert tally3[(1, 1, 1)] == 16


def test_profile_counts():
    assert profile_counts(chain(1, 2, 1), 2) == (2, 1)
    assert profile_counts(LEAF, 4) == (0, 0, 0, 0)


@pytest.mark.parametrize("d", range(2, MAX_COLORS + 1))
def test_oracle_at_the_cli_line_caps(d):
    assert verify_oracle(d, CAPS["max_lines"][d]).ok


@pytest.mark.parametrize("d", range(2, MAX_COLORS + 1))
def test_tally_equals_a_count_of_color_labels_at_the_cli_line_caps(d):
    """The color-word tally equals the reference that counts each "c:" label
    in every encoding, at each d's max_lines cap."""
    max_lines = CAPS["max_lines"][d]
    labels = [f"{color}:" for color in range(1, d + 1)]
    reference = Counter(
        tuple(text.count(label) for label in labels) for text in enumerate_by_lines(d, max_lines)
    )
    assert count_by_profile_bruteforce(d, max_lines) == reference


@pytest.mark.parametrize("d,max_lines", [(2, 7), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3)])
def test_string_tally_equals_a_tally_of_decoded_trees(d, max_lines):
    """count_by_profile_bruteforce counts each color's digit in every
    encoding's color word, which is exact only while every color is one
    digit."""
    assert MAX_COLORS <= 9
    trees = (decode(text, d) for text in enumerate_by_lines(d, max_lines))
    tally = Counter(profile_counts(tree, d) for tree in trees)
    assert count_by_profile_bruteforce(d, max_lines) == tally
