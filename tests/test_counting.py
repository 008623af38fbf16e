"""Tests for memoized counting, ranking, unranking, and uniform sampling."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.combinatorics import (
    closed_form_count,
    closed_form_table,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from linetrees.counting import ProfileCountTable, SampleRequest, SplitMix64
from linetrees.errors import (
    ColorError,
    ColorOrderError,
    DomainError,
    IndexOutOfRange,
    LineTreesError,
    ParseError,
)
from linetrees.limits import check_cap
from linetrees.series import (
    MultiSeries,
    closed_form_series,
    solve_tree_equation,
    verify_convolution,
    verify_geometric,
    verify_linear_recursion,
)
from linetrees.trees import count_by_profile_bruteforce, encode, enumerate_by_lines
from linetrees.verification import dyck_paths_by_peaks, verify_fuss_catalan_rows, verify_oracle
from reference_trees import MAX_DEPTH, decode, profile_counts


def brute_force_sets(d, max_total):
    groups = {}
    for text in enumerate_by_lines(d, max_total):
        tree = decode(text, d)
        groups.setdefault(profile_counts(tree, d), set()).add(encode(tree))
    return groups


def test_recursive_count_known_values():
    table = ProfileCountTable(2)
    assert table.recursive_count((0, 0)) == 1
    assert table.recursive_count((1, 1)) == 3
    assert table.recursive_count((2, 1)) == 6


@pytest.mark.parametrize("d,max_total", [(2, 6), (3, 6), (4, 4)])
def test_triple_agreement(d, max_total):
    """Recursion, closed form, and brute force agree on every profile."""
    table = ProfileCountTable(d)
    groups = brute_force_sets(d, max_total)
    for total in range(max_total + 1):
        for profile in profiles_with_total(d, total):
            expected = len(groups.get(profile, ()))
            assert table.recursive_count(profile) == expected
            assert closed_form_count(profile, 1) == expected



@pytest.mark.parametrize("d,max_total", [(5, 7), (6, 6), (7, 5), (8, 5)])
def test_recursive_count_matches_closed_form_at_five_to_eight_colors(d, max_total):
    """The root recursion against the closed form on every profile up to a
    total, on one table per d, and at the cap profiles on fresh tables."""
    table = ProfileCountTable(d)
    for total in range(max_total + 1):
        for profile in profiles_with_total(d, total):
            assert table.recursive_count(profile) == closed_form_count(profile, 1)
    for profile in [(2, 2, 2, 2, 2), (2, 2, 1, 1, 1, 1, 1, 1)]:
        if len(profile) == d:
            assert ProfileCountTable(d).recursive_count(profile) == closed_form_count(profile, 1)


def vectors_of(table):
    """The profile vector of each id in the table's memo."""
    vectors = {i: v for v, i in table._ids.items()}
    assert len(vectors) == len(table._ids)  # one id per vector
    return vectors


def blocks_of(table, counts):
    """The root blocks of a counted profile: per admissible root subset its
    template, number of children and remainder vector, and the block ends."""
    vectors = vectors_of(table)
    choices, ends = table._blocks[table._ids[counts]]
    return [(template.__self__, size, vectors[r]) for template, size, r in choices], ends


def split_ends_of(table):
    """The cumulative split weights, keyed by (parts, remainder vector)."""
    vectors = vectors_of(table)
    return {
        (k, vectors[r]): ends
        for r, (_, by_parts) in table._splits.items()
        for k, ends in enumerate(by_parts)
        if ends is not None
    }


@pytest.mark.parametrize("d,max_total", [(2, 6), (3, 4), (4, 3), (5, 3), (8, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_table_in_any_order_matches_fresh_tables(d, max_total, seed):
    """A table queried over many profiles in shuffled order gives each one
    the count, root blocks, split prefix sums and unranked trees of a table
    built for that profile alone.  A profile counted while building a
    smaller one may later need split totals for more parts, and a walk over
    a box counted in part recounts none of it but extends its split
    records."""
    profiles = [
        profile
        for total in range(max_total + 1)
        for profile in profiles_with_total(d, total)
    ]
    random.Random(seed).shuffle(profiles)
    shared = ProfileCountTable(d)
    for profile in profiles:
        fresh = ProfileCountTable(d)
        n = fresh.recursive_count(profile)
        assert shared.recursive_count(profile) == n
        assert blocks_of(shared, profile) == blocks_of(fresh, profile)
        shared_split_ends = split_ends_of(shared)
        for key, ends in split_ends_of(fresh).items():
            assert shared_split_ends[key] == ends
        for index in range(n):
            assert shared.unrank(profile, index) == fresh.unrank(profile, index)

def test_unrank_singleton():
    assert ProfileCountTable(2).unrank((1, 0), 0) == "(1:())"


def test_unrank_documented_order_for_1_1():
    table = ProfileCountTable(2)
    profile = (1, 1)
    got = [table.unrank(profile, i) for i in range(3)]
    # subset {1} first, then {2}, then {1,2}
    assert got == ["(1:(2:()))", "(2:(1:()))", "(1:(),2:())"]
    assert set(got) == {"(1:(2:()))", "(2:(1:()))", "(1:(),2:())"}


def test_unrank_out_of_range():
    table = ProfileCountTable(2)
    profile = (1, 1)
    with pytest.raises(IndexOutOfRange):
        table.unrank(profile, 3)
    with pytest.raises(IndexOutOfRange):
        table.unrank(profile, -1)


@pytest.mark.parametrize("d", [2, 3])
def test_unrank_bijectivity(d):
    """Unranking every index yields exactly the brute-force tree sets."""
    max_total = 5
    table = ProfileCountTable(d)
    groups = brute_force_sets(d, max_total)
    for total in range(max_total + 1):
        for profile in profiles_with_total(d, total):
            n = table.recursive_count(profile)
            encodings = set()
            for index in range(n):
                text = table.unrank(profile, index)
                tree = decode(text, d)
                assert encode(tree) == text
                assert profile_counts(tree, d) == profile
                encodings.add(text)
            assert len(encodings) == n
            assert encodings == groups[profile]


def test_table_is_uncapped_past_the_cli_profile_total_cap():
    # The profile-total cap (30 at d=2) binds the CLI only.
    table = ProfileCountTable(2)
    for profile in profiles_with_total(2, 32):
        assert table.recursive_count(profile) == closed_form_count(profile, 1)
    profile = (8, 8, 0)
    assert ProfileCountTable(3).recursive_count(profile) == closed_form_count(profile, 1)


def test_table_rejects_bad_colors():
    for d in (1, 9):
        with pytest.raises(DomainError):
            ProfileCountTable(d)


def test_table_rejects_foreign_profile():
    with pytest.raises(DomainError):
        ProfileCountTable(2).recursive_count((1, 1, 1))


# Each public table method, called on a d=2 table with a profile and fixed
# other arguments that fit the profile (1, 1).
TABLE_CALLS = {
    "recursive_count": lambda table, profile: table.recursive_count(profile),
    "unrank": lambda table, profile: table.unrank(profile, 1),
    "rank": lambda table, profile: table.rank(profile, "(1:(),2:())"),
    "sample_uniform": lambda table, profile: table.sample_uniform(SampleRequest(profile, 5, 7)),
}


@pytest.mark.parametrize("method", TABLE_CALLS)
@pytest.mark.parametrize(
    "profile,message",
    [
        ((1, 1, 1), r"profile has 3 entries but d=2 colors"),
        ((1, -1), r"profile entries must be non-negative integers: \(1, -1\)"),
        ((True, 1), r"profile entries must be non-negative integers: \(True, 1\)"),
    ],
    ids=["wrong-length", "negative", "bool"],
)
def test_every_table_method_checks_its_profile(method, profile, message):
    with pytest.raises(DomainError, match=message):
        TABLE_CALLS[method](ProfileCountTable(2), profile)


@pytest.mark.parametrize("method", TABLE_CALLS)
def test_every_table_method_takes_a_list_profile_as_its_tuple(method):
    call = TABLE_CALLS[method]
    assert call(ProfileCountTable(2), [1, 1]) == call(ProfileCountTable(2), (1, 1))


def test_splitmix64_reference_stream():
    """Frozen outputs of the reference SplitMix64 implementation."""
    gen = SplitMix64(1234567)
    assert [gen.next_word() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    gen = SplitMix64(0)
    assert gen.next_word() == 16294208416658607535
    gen = SplitMix64(42)
    assert [gen.next_word() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_splitmix64_below_uses_minimal_bits():
    # For a power-of-two bound every draw is accepted, one word per draw.
    gen = SplitMix64(7)
    reference = SplitMix64(7)
    words = [reference.next_word() for _ in range(4)]
    draws = [gen.below(16) for _ in range(4)]
    assert draws == [w & 15 for w in words]
    # A bound of 1 needs no bits: below(1) draws no word, so the stream
    # after it is the stream of a fresh generator.
    gen = SplitMix64(3)
    assert gen.below(1) == 0
    assert gen.next_word() == SplitMix64(3).next_word()


@pytest.mark.parametrize(
    "call",
    [lambda: SplitMix64(-1), lambda: SplitMix64(2**64), lambda: SplitMix64(0).below(0)],
    ids=["seed=-1", "seed=2**64", "below(0)"],
)
def test_splitmix64_rejects_bad_seeds_and_bounds(call):
    with pytest.raises(DomainError):
        call()


@given(st.integers(0, 2**64 - 1), st.integers(1, 10**12))
@settings(max_examples=50)
def test_splitmix64_below_in_range(seed, bound):
    assert 0 <= SplitMix64(seed).below(bound) < bound


def test_sample_request_validation():
    profile = (1, 0)
    with pytest.raises(DomainError):
        SampleRequest(profile, 0, 1)
    with pytest.raises(DomainError):
        SampleRequest(profile, 1, -1)
    with pytest.raises(DomainError):
        SampleRequest(profile, 1, 2**64)


# Every integer argument the library checks: an id, a call that passes it the
# value, its name in the messages, and the non-integers tried (1.5 and a bool).
INT_ARGUMENTS = [
    ("unrank-index", lambda x: ProfileCountTable(2).unrank((1, 1), x), "index", (1.5, True)),
    ("request-count", lambda x: SampleRequest((1, 1), x, 0), "count", (1.5, True)),
    ("request-seed", lambda x: SampleRequest((1, 1), 1, x), "seed", (1.5, False)),
    ("splitmix64-seed", SplitMix64, "seed", (1.5, True)),
    ("below-bound", lambda x: SplitMix64(0).below(x), "bound", (1.5, True)),
    ("closed_form_count-n", lambda x: closed_form_count((1, 1), x), "level n", (1.5, True)),
    ("fuss_catalan_total-p_vertices", lambda x: fuss_catalan_total(2, x), "p_vertices", (1.5, True)),
    ("narayana-n", lambda x: narayana(x, 1), "n", (1.5, True)),
    ("narayana-k", lambda x: narayana(3, x), "k", (1.5, True)),
    ("profiles_with_total-d", lambda x: list(profiles_with_total(x, 2)), "d", (1.5, True)),
    ("profiles_with_total-total", lambda x: list(profiles_with_total(2, x)), "total", (1.5, True)),
    ("closed_form_table-max_total", lambda x: closed_form_table(2, 1, x), "max_total", (1.5, True)),
    ("enumerate_by_lines-max_lines", lambda x: enumerate_by_lines(2, x), "max_lines", (1.5, True)),
    ("count_by_profile_bruteforce-max_total", lambda x: count_by_profile_bruteforce(3, x),
     "max_total", (1.5, True)),
    ("verify_oracle-max_total", lambda x: verify_oracle(3, x), "max_total", (1.5, True)),
    ("verify_fuss_catalan_rows-p_max", lambda x: verify_fuss_catalan_rows(2, x), "p_max", (1.5, True)),
    ("dyck_paths_by_peaks-n_max", dyck_paths_by_peaks, "n_max", (1.5, True)),
    ("multiseries-d", lambda x: MultiSeries(x, 2), "d", (1.5, True)),
    ("multiseries-order", lambda x: MultiSeries(2, x), "order", (1.5, True)),
    ("solve_tree_equation-order", lambda x: solve_tree_equation(2, x), "order", (1.5, True)),
    ("verify_linear_recursion-n_max", lambda x: verify_linear_recursion(2, x, 2), "n_max", (1.5, True)),
    ("verify_geometric-n_max", lambda x: verify_geometric(2, x, 2), "n_max", (1.5, True)),
    ("verify_convolution-n", lambda x: verify_convolution(2, x, 1, 2), "n", (1.5, True)),
    ("verify_convolution-m", lambda x: verify_convolution(2, 1, x, 2), "m", (1.5, True)),
    ("closed_form_series-order", lambda x: closed_form_series(2, 1, x), "order", (1.5, True)),
    ("verify_linear_recursion-order", lambda x: verify_linear_recursion(2, 1, x), "order",
     (1.5, True)),
    ("verify_convolution-order", lambda x: verify_convolution(2, 1, 1, x), "order", (1.5, True)),
    ("check_cap-level", lambda x: check_cap("level", x), "level", (1.5, True)),
]

# One integer below its bound per distinct message, and the seed's own range
# message, which holds at both ends.
OUT_OF_RANGE = [
    ("closed_form_count-n", lambda x: closed_form_count((1, 1), x), 0, "level n must be >= 1, got 0"),
    ("fuss_catalan_total-p_vertices", lambda x: fuss_catalan_total(2, x), 0,
     "p_vertices must be >= 1, got 0"),
    ("narayana-k", lambda x: narayana(3, x), 0, "k must be >= 1, got 0"),
    ("multiseries-d", lambda x: MultiSeries(x, 2), 0, "d must be >= 1, got 0"),
    ("closed_form_table-max_total", lambda x: closed_form_table(2, 1, x), -1,
     "max_total must be >= 0, got -1"),
    ("enumerate_by_lines-max_lines", lambda x: enumerate_by_lines(2, x), -1,
     "max_lines must be >= 0, got -1"),
    ("count_by_profile_bruteforce-max_total", lambda x: count_by_profile_bruteforce(3, x), -1,
     "max_total must be >= 0, got -1"),
    ("verify_oracle-max_total", lambda x: verify_oracle(3, x), -1, "max_total must be >= 0, got -1"),
    ("request-count", lambda x: SampleRequest((1, 1), x, 0), 0, "count must be >= 1, got 0"),
    ("below-bound", lambda x: SplitMix64(0).below(x), 0, "bound must be >= 1, got 0"),
    ("verify_fuss_catalan_rows-p_max", lambda x: verify_fuss_catalan_rows(2, x), 0,
     "p_max must be >= 1, got 0"),
    ("dyck_paths_by_peaks-n_max", dyck_paths_by_peaks, -1, "n_max must be >= 0, got -1"),
    ("multiseries-order", lambda x: MultiSeries(2, x), -1, "order must be >= 0, got -1"),
    ("verify_geometric-n_max", lambda x: verify_geometric(2, x, 2), 0, "n_max must be >= 1, got 0"),
    ("verify_convolution-n", lambda x: verify_convolution(2, x, 1, 2), 0, "n must be >= 1, got 0"),
    ("verify_convolution-m", lambda x: verify_convolution(2, 1, x, 2), 0, "m must be >= 1, got 0"),
    ("check_cap-level", lambda x: check_cap("level", x), -1, "level must be >= 0, got -1"),
    ("request-seed", lambda x: SampleRequest((1, 1), 1, x), -1,
     "seed must be an unsigned 64-bit integer, got -1"),
    ("splitmix64-seed", SplitMix64, 2**64,
     "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
]


def _bad_argument_cases():
    for site, call, name, values in INT_ARGUMENTS:
        for value in values:
            yield pytest.param(
                call, value, f"{name} must be an integer, got {value!r}", id=f"{site}={value!r}"
            )
    for site, call, value, message in OUT_OF_RANGE:
        yield pytest.param(call, value, message, id=f"{site}={value!r}")
    for value in (None, 5, b"()"):
        yield pytest.param(
            lambda x: ProfileCountTable(2).rank((1, 1), x),
            value,
            f"text must be a str, got {value!r}",
            id=f"rank-text={value!r}",
        )


@pytest.mark.parametrize("call,value,message", list(_bad_argument_cases()))
def test_index_count_and_seed_must_be_ints(call, value, message):
    """Every integer argument of the library refuses a float, a bool and a
    value below its bound with a one-line DomainError that names it, and
    ``rank`` refuses a text that is not a str."""
    with pytest.raises(DomainError) as caught:
        call(value)
    assert str(caught.value) == message


def test_sample_singleton_support():
    request = SampleRequest((1, 0), 5, 99)
    assert ProfileCountTable(2).sample_uniform(request) == ["(1:())"] * 5


def test_sample_determinism():
    request = SampleRequest((1, 1, 1), 50, 42)
    first = ProfileCountTable(3).sample_uniform(request)
    second = ProfileCountTable(3).sample_uniform(request)
    assert first == second


def test_sample_marginals():
    request = SampleRequest((2, 1), 200, 7)
    for text in ProfileCountTable(2).sample_uniform(request):
        tree = decode(text, 2)
        assert encode(tree) == text
        assert profile_counts(tree, 2) == (2, 1)


class LinearScanUnranker:
    """Test-only reference: the unranker that rescans every subset and every
    split vector at each vertex, with its own memo of totals.  It fixes the
    documented order independently of the prefix-sum tables."""

    def __init__(self, d):
        self.subsets = [
            tuple(color for color in range(1, d + 1) if mask >> (color - 1) & 1)
            for mask in range(1, 1 << d)
        ]
        self.counts = {}
        self.split_sums = {}

    def admissible(self, p):
        return [colors for colors in self.subsets if all(p[color - 1] >= 1 for color in colors)]

    def count(self, p):
        if p not in self.counts:
            self.counts[p] = 1 if not any(p) else sum(
                self.split_sum(len(colors), minus_indicator(p, colors))
                for colors in self.admissible(p)
            )
        return self.counts[p]

    def split_sum(self, parts, remainder):
        if parts == 1:
            return self.count(remainder)
        key = (parts, remainder)
        if key not in self.split_sums:
            self.split_sums[key] = sum(
                self.count(q) * self.split_sum(parts - 1, subtract(remainder, q))
                for q in itertools.product(*(range(b + 1) for b in remainder))
            )
        return self.split_sums[key]

    def unrank(self, p, index):
        if not any(p):
            return ()
        for colors in self.admissible(p):
            remainder = minus_indicator(p, colors)
            block = self.split_sum(len(colors), remainder)
            if index >= block:
                index -= block
                continue
            parts = []
            prefix = 1
            for position in range(len(colors) - 1):
                tail = len(colors) - position - 1
                for q in itertools.product(*(range(b + 1) for b in remainder)):
                    weight = prefix * self.count(q) * self.split_sum(tail, subtract(remainder, q))
                    if index < weight:
                        parts.append(q)
                        remainder = subtract(remainder, q)
                        prefix *= self.count(q)
                        break
                    index -= weight
            parts.append(remainder)
            sub_indices = []
            for radix in reversed([self.count(q) for q in parts]):
                index, sub = divmod(index, radix)
                sub_indices.append(sub)
            sub_indices.reverse()
            return tuple(
                (color, self.unrank(q, sub)) for color, q, sub in zip(colors, parts, sub_indices)
            )
        raise AssertionError("index below total count but no subset matched")


def minus_indicator(p, colors):
    return tuple(n - (i + 1 in colors) for i, n in enumerate(p))


def subtract(a, b):
    return tuple(x - y for x, y in zip(a, b))


CAP_PROFILES = [
    (15, 15),
    (20, 10),
    (5, 5, 5),
    (3, 3, 2, 2),
    (2, 2, 2, 2, 2),
    (2, 2, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 10),
]


def cap_indices(n, seed):
    """Index 0, index n - 1 and 200 SplitMix64 draws below n."""
    rng = SplitMix64(seed)
    return [0, n - 1] + [rng.below(n) for _ in range(200)]


@pytest.mark.parametrize("d,max_total", [(2, 5), (3, 5), (4, 4)])
def test_unrank_matches_linear_scan_and_rank_inverts_it_on_small_profiles(d, max_total):
    table = ProfileCountTable(d)
    reference = LinearScanUnranker(d)
    for total in range(max_total + 1):
        for profile in profiles_with_total(d, total):
            n = table.recursive_count(profile)
            assert n == reference.count(profile)
            for index in range(n):
                text = table.unrank(profile, index)
                assert text == encode(reference.unrank(profile, index))
                assert table.rank(profile, text) == index


@pytest.mark.parametrize("profile", CAP_PROFILES, ids=lambda p: ",".join(map(str, p)))
def test_unrank_matches_linear_scan_and_rank_inverts_it_at_cap_profiles(profile):
    table = ProfileCountTable(len(profile))
    reference = LinearScanUnranker(len(profile))
    n = table.recursive_count(profile)
    for index in cap_indices(n, seed=sum(profile)):
        text = table.unrank(profile, index)
        assert text == encode(reference.unrank(profile, index))
        assert table.rank(profile, text) == index


def test_boxes_list_each_remainder_in_order_with_mirrored_differences():
    table = ProfileCountTable(8)
    table.recursive_count((2, 2, 1, 1, 1, 1, 1, 1))
    assert table._splits
    vectors = vectors_of(table)
    for remainder, (box, _) in table._splits.items():
        remainder = vectors[remainder]
        box = [vectors[q] for q in box]
        assert box == list(itertools.product(*(range(b + 1) for b in remainder)))
        for j, q in enumerate(box):
            assert box[~j] == subtract(remainder, q)


def test_rank_rejects_invalid_or_foreign_trees():
    table = ProfileCountTable(2)
    profile = (1, 1)
    with pytest.raises(ColorError, match="duplicate color 1"):  # two color-1 edges at the root
        table.rank(profile, "(1:(),1:())")
    with pytest.raises(ColorOrderError, match="color 1 after 2"):
        table.rank(profile, "(2:(),1:())")
    with pytest.raises(ColorError, match=r"color 3 out of range 1\.\.2"):  # color 3 at d=2
        table.rank(profile, "(3:())")
    with pytest.raises(ParseError, match="expected ':' after color") as exc:
        table.rank(profile, "(1())")
    assert exc.value.offset == 2
    with pytest.raises(DomainError, match=r"profile \(2, 0\), expected \(1, 1\)"):
        table.rank(profile, "(1:(1:()))")
    with pytest.raises(DomainError, match="profile has 3 entries but d=2 colors"):
        table.rank((1, 1, 0), "(1:(2:()))")


def test_rank_inverts_unrank_on_a_chain_of_max_depth():
    # The one tree with profile (MAX_DEPTH, 0) is a chain of MAX_DEPTH edges.
    table = ProfileCountTable(2)
    profile = (MAX_DEPTH, 0)
    text = table.unrank(profile, 0)
    assert text == "(1:" * MAX_DEPTH + "()" + ")" * MAX_DEPTH
    assert table.rank(profile, text) == 0


def deepest_unranked_chain():
    """The most edges a chain of color 1 can have and still unrank on a
    fresh table under the current recursion limit."""
    ranks, fails = 0, sys.getrecursionlimit()  # one frame per level at least
    while fails - ranks > 1:
        edges = (ranks + fails) // 2
        try:
            ProfileCountTable(2).unrank((edges, 0), 0)
            ranks = edges
        except RecursionError:
            fails = edges
    return ranks


def test_rank_inverts_unrank_at_every_depth_unrank_reaches():
    table = ProfileCountTable(2)
    profile = (699, 1)
    n = table.recursive_count(profile)
    for index in (0, 1, n // 2, n - 2, n - 1):
        assert table.rank(profile, table.unrank(profile, index)) == index
    edges = deepest_unranked_chain()
    assert edges > 900
    deepest = (edges, 0)
    assert table.rank(deepest, table.unrank(deepest, 0)) == 0


def test_rank_takes_a_chain_of_5000_edges():
    # The parser keeps its open vertices on a list, not on Python's stack,
    # so this runs under the default recursion limit of 1000 frames.
    assert ProfileCountTable(2).rank((5000, 0), "(1:" * 5000 + "()" + ")" * 5000) == 0


def reference_error(d, profile, text):
    """What rank must raise by the reference: decode's error, else the
    profile check's, else None."""
    try:
        found = profile_counts(decode(text, d), d)
    except LineTreesError as error:
        return error
    if found != profile:
        return DomainError(f"tree has profile {found}, expected {profile}")
    return None


def assert_rank_matches_reference(table, profile, text):
    """rank raises the reference's error class with the same message and
    offset, or, where the reference raises nothing, returns the index that
    unranks to ``text``."""
    expected = reference_error(table.d, profile, text)
    if expected is None:
        assert table.unrank(profile, table.rank(profile, text)) == text
        return
    with pytest.raises(LineTreesError) as exc:
        table.rank(profile, text)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    assert getattr(exc.value, "offset", None) == getattr(expected, "offset", None)


# The rejection cases of the reference decode's tests, at their d (d=1 has
# no table), and misplaced separators.
@pytest.mark.parametrize(
    "d,text",
    [
        (2, "(2:(),1:())"), (2, "(1:(),1:())"), (2, "(3:())"), (2, "(0:())"),
        *((3, text) for text in [
            "", "(", "(1:()", "()x", "(1())", "(1:()))", "(:())",
            "(²:())", "(٣:())", "(01:())", "(1:()x",
            "(1:(),,2:())", "(1:(),)", "(,1:())", "(1:():)", "(1::())",
        ]),
    ],
)
def test_rank_raises_what_the_reference_raises_on_each_rejection_case(d, text):
    assert_rank_matches_reference(ProfileCountTable(d), (1,) * d, text)


def test_a_color_too_long_for_int_is_out_of_range():
    # int() refuses a run of more than 4300 digits with ValueError.
    text = "(" + "9" * 5000 + ":())"
    message = f"color {'9' * 5000} out of range 1..3"
    with pytest.raises(ColorError) as exc:
        ProfileCountTable(3).rank((1, 0, 0), text)
    assert str(exc.value) == message
    with pytest.raises(ColorError) as exc:
        decode(text, 3)
    assert str(exc.value) == message


ALPHABET = "()0123456789:,²٣"


@st.composite
def ranked_texts(draw):
    """A table, a profile and a text: either any text over the alphabet of
    the reference decode's property test, or the encoding of a tree of a
    small profile with up to three characters inserted, deleted or
    replaced."""
    d = draw(st.integers(2, 4))
    profile = tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d)))
    table = ProfileCountTable(d)
    if draw(st.booleans()):
        return table, profile, draw(st.text(alphabet=ALPHABET))
    source = draw(st.sampled_from([profile, (1,) * d, (2,) + (0,) * (d - 1)]))
    text = table.unrank(source, draw(st.integers(0, table.recursive_count(source) - 1)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(ALPHABET))
        text = draw(st.sampled_from([
            text[:at] + char + text[at:], text[:at] + text[at + 1:], text[:at] + char + text[at + 1:]
        ]))
    return table, profile, text


@given(ranked_texts())
@settings(max_examples=500, deadline=None)
def test_rank_raises_what_the_reference_raises(case):
    assert_rank_matches_reference(*case)


def nested(levels):
    """Recurse through ``levels + 1`` frames."""
    return levels and nested(levels - 1)


def frames_needed(call):
    """The lowest recursion limit, counted from the caller's frame depth, at
    which ``call()`` returns.  The interpreter may count more than the
    caller's frames (pytest's own calls do), so only differences between
    two such limits are meaningful."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    try:
        for extra in itertools.count(1):
            try:
                # Raises RecursionError, too, below the current depth.
                sys.setrecursionlimit(depth + extra)
                call()
                return extra
            except RecursionError:
                pass
    finally:
        sys.setrecursionlimit(limit)


def test_unrank_takes_one_frame_per_tree_level():
    # A caterpillar of 30 levels, each with two children.  A fresh table
    # unranks it in unrank's frame plus one per level and one for the leaf,
    # 32 in all, and Python 3.10 counts the deepest str.format call as one
    # level more: as deep as a plain recursion of 33 frames at most.  A
    # second frame per level with two children would need 30 more.
    profile = (30, 30)
    text = "(1:(),2:" * 30 + "()" + ")" * 30
    index = ProfileCountTable(2).rank(profile, text)
    assert ProfileCountTable(2).unrank(profile, index) == text
    unrank = frames_needed(lambda: ProfileCountTable(2).unrank(profile, index))
    assert unrank <= frames_needed(lambda: nested(32))


def test_unrank_reaches_past_the_decode_depth_limit():
    # The build walks boxes without recursion and unranking takes one frame
    # per tree level, so a chain of 700 edges unranks, well past decode's
    # MAX_DEPTH of 450, with room below the default recursion limit.
    table = ProfileCountTable(2)
    profile = (699, 1)
    assert table.recursive_count(profile) == closed_form_count(profile, 1)
    assert table.unrank(profile, 0) == "(1:" * 699 + "(2:())" + ")" * 699
