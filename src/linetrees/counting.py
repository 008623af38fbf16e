"""Memoized profile-indexed counting, ranking, unranking, and uniform sampling.

The count of trees with color profile p decomposes at the root: choose the
non-empty set S of child-edge colors (one edge of each color in S), then
split the remaining profile p - chi_S into one sub-profile per color of S.
Writing N for the count,

    N(0) = 1,    N(p) = sum over S, sum over splits, prod_{i in S} N(q_i).

Unranking realizes the same decomposition as a bijection from {0..N(p)-1}
onto the canonical encodings of the trees with profile p (joined from the
children's encodings, as the enumerator of :mod:`linetrees.trees` joins
them, with ``encode`` and ``decode`` as the reference), in this fixed order:

  * subsets S in ascending bitmask order, bit i-1 representing color i
    (so {1} < {2} < {1,2} < {3} < ...);
  * splits (q_i)_{i in S}, colors ascending, in lexicographic order of the
    concatenated sub-profile vectors;
  * within one split, subtree indices combine in mixed radix with the
    lowest color most significant.

The memo keeps prefix sums, not only totals (cumulative counts, as in
Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).  For each profile p it
holds the admissible subsets S and the cumulative ends of their index
blocks.  For each remainder r it holds the box of r: every vector q <= r in
lexicographic order, each equal vector one shared object, so that r - q is
the mirror entry ``box[~j]`` of ``q = box[j]``.  For each remainder r and
number of parts k >= 2 it holds the cumulative sums of N(q) * (splits of
r - q into k - 1 parts) over the box of r, whose last element is the split
total.  Unranking bisects these lists: ``bisect_right`` on the block ends
picks S, and at each split position it picks the box entry q and its mirror
r - q.  A subtree whose profile has one tree (a leaf, a one-color chain)
takes its encoding from a memo filled on first use.  Ranking
(:meth:`ProfileCountTable.rank`) decodes an encoding and adds up the same
prefix sums, inverting unranking.

Sampling draws a uniform index below N(p) with a SplitMix64 generator and
unranks it, so identical seeds reproduce identical trees on every platform.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product, repeat
from operator import mul
from typing import Sequence

from .combinatorics import ColorProfile
from .errors import DomainError, IndexOutOfRange
from .limits import check_colors

_MASK64 = (1 << 64) - 1

_LEAF = "()"


class SampleRequest:
    """A deterministic sampling job: profile, number of draws, 64-bit seed.
    Treat an instance as immutable."""

    __slots__ = ("profile", "count", "seed")

    def __init__(self, profile: ColorProfile, count: int, seed: int):
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count}")
        if not 0 <= seed <= _MASK64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.profile = profile
        self.count = count
        self.seed = seed


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    Emits a fixed, platform-independent stream of 64-bit words from a 64-bit
    seed; `below` turns words into exactly uniform integers by rejection.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._state = seed

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection from 64-bit blocks.

        Draws ceil(bits/64) words where bits = (bound-1).bit_length(), keeps
        the low ``bits`` bits, and rejects values >= bound, so every residue
        is exactly equally likely.
        """
        if bound < 1:
            raise DomainError(f"bound must be >= 1, got {bound}")
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        words = (bits + 63) // 64
        mask = (1 << bits) - 1
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next_word()
            value &= mask
            if value < bound:
                return value


class ProfileCountTable:
    """Memoized tree counts per color profile, with ranking, unranking and
    sampling.

    The memo is shared across calls on one instance only; independent
    instances never interact, so confining a table to one worker is safe.
    """

    def __init__(self, d: int):
        self.d = check_colors(d)
        # Subsets of colors in ascending bitmask order, with their bitmasks;
        # bit i-1 <=> color i.
        self._subsets = tuple(
            (mask, tuple(color for color in range(1, d + 1) if mask >> (color - 1) & 1))
            for mask in range(1, 1 << d)
        )
        self._counts: dict[tuple[int, ...], int] = {}
        # Per profile p: the admissible root subsets, each with p - chi_S, and
        # the cumulative ends of their index blocks.
        self._blocks: dict[tuple[int, ...], tuple[tuple, list[int]]] = {}
        # Per remainder split into two or more parts: every vector q <=
        # remainder in lexicographic order, interned through _vectors.
        self._boxes: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
        # Per (parts >= 2, remainder): the cumulative split weights, one per
        # first sub-profile q in the box of remainder.
        self._split_ends: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        # Per profile with exactly one tree: that tree's encoding.
        self._single: dict[tuple[int, ...], str] = {}

    def _check(self, profile: ColorProfile) -> tuple[int, ...]:
        if profile.d != self.d:
            raise DomainError(f"profile has d={profile.d}, table has d={self.d}")
        return profile.counts

    def recursive_count(self, profile: ColorProfile) -> int:
        """Number of trees with the given profile, from the root recursion."""
        return self._count(self._check(profile))

    def _count(self, p: tuple[int, ...]) -> int:
        cached = self._counts.get(p)
        if cached is not None:
            return cached
        choices = []
        ends = []
        if not any(p):
            result = 1
        else:
            result = 0
            absent = sum(1 << i for i, n in enumerate(p) if not n)
            for mask, colors in self._subsets:
                if not mask & absent:
                    remainder = _minus_indicator(p, colors)
                    result += self._split_sum(len(colors), remainder)
                    choices.append((colors, remainder))
                    ends.append(result)
        self._blocks[p] = (tuple(choices), ends)
        self._counts[p] = result
        return result

    def _split_sum(self, parts: int, remainder: tuple[int, ...]) -> int:
        """Sum over ordered splits of ``remainder`` into ``parts`` sub-profiles
        of the product of their counts."""
        if parts == 1:
            return self._count(remainder)
        key = (parts, remainder)
        ends = self._split_ends.get(key)
        if ends is None:
            # remainder - q runs through the box backwards while q runs forward.
            box = self._box(remainder)
            ends = list(accumulate(map(
                mul,
                map(self._count, box),
                map(self._split_sum, repeat(parts - 1), reversed(box)),
            )))
            self._split_ends[key] = ends
        return ends[-1]

    def _box(self, remainder: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """All vectors q <= remainder in lexicographic order, interned."""
        box = self._boxes.get(remainder)
        if box is None:
            intern = self._vectors.setdefault
            box = tuple(intern(q, q) for q in product(*(range(b + 1) for b in remainder)))
            self._boxes[remainder] = box
        return box

    def unrank(self, profile: ColorProfile, index: int) -> str:
        """Encoding of the index-th tree with the given profile in the documented order."""
        p = self._check(profile)
        n = self._count(p)
        if not 0 <= index < n:
            raise IndexOutOfRange(
                f"index {index} out of range for {n} trees with profile {p}"
            )
        return self._unrank(p, index)

    def _unrank(self, p: tuple[int, ...], index: int) -> str:
        choices, ends = self._blocks[p]
        if not choices:
            return _LEAF
        k = bisect_right(ends, index)
        if k:
            index -= ends[k - 1]
        colors, remainder = choices[k]
        # Peel off one sub-profile per color, lowest color first.  Among
        # splits sharing the sub-profiles fixed so far, the one whose next
        # sub-profile is q = box[j] starts at prefix * ends[j - 1], where
        # prefix is the product of the fixed sub-profiles' counts.
        counts = self._counts
        parts: list[tuple[tuple[int, ...], int]] = []
        prefix = 1
        for tail in range(len(colors), 1, -1):
            split_ends = self._split_ends[tail, remainder]
            j = bisect_right(split_ends, index // prefix)
            if j:
                index -= prefix * split_ends[j - 1]
            box = self._boxes[remainder]
            q = box[j]
            remainder = box[~j]
            n = counts[q]
            parts.append((q, n))
            prefix *= n
        parts.append((remainder, counts[remainder]))
        # Mixed-radix decode of the per-subtree indices, lowest color most
        # significant.
        children = []
        for color, (q, n) in zip(reversed(colors), reversed(parts)):
            if n == 1:
                text = self._single.get(q)
                if text is None:
                    text = self._single[q] = self._unrank(q, 0)
            else:
                index, sub = divmod(index, n)
                text = self._unrank(q, sub)
            children.append(f"{color}:{text}")
        children.reverse()
        return f"({','.join(children)})"

    def rank(self, profile: ColorProfile, text: str) -> int:
        """The index of the tree encoded by ``text`` among the trees with the
        given profile; the inverse of :meth:`unrank`.

        Raises what ``decode(text, d)`` raises, and DomainError when the
        tree's color profile differs from ``profile``.
        """
        from .trees import decode, profile_counts

        p = self._check(profile)
        tree = decode(text, self.d)
        found = profile_counts(tree, self.d)
        if found != p:
            raise DomainError(f"tree has profile {found}, expected {p}")
        self._count(p)
        return self._rank(tree)[1]

    def _rank(self, tree) -> tuple[tuple[int, ...], int]:
        """Profile and index of a decoded ColoredTree whose profile is in the
        memo."""
        if not tree.children:
            return (0,) * self.d, 0
        colors = tuple(color for color, _ in tree.children)
        parts, sub_indices = zip(*(self._rank(child) for _, child in tree.children))
        remainder = tuple(map(sum, zip(*parts)))
        p = list(remainder)
        for color in colors:
            p[color - 1] += 1
        choices, ends = self._blocks[tuple(p)]
        k = [chosen for chosen, _ in choices].index(colors)
        index = ends[k - 1] if k else 0
        prefix = 1
        for tail, q in zip(range(len(colors), 1, -1), parts):
            j = _position_of(remainder, q)
            if j:
                index += prefix * self._split_ends[tail, remainder][j - 1]
            remainder = self._boxes[remainder][~j]
            prefix *= self._counts[q]
        sub = 0
        for q, sub_index in zip(parts, sub_indices):
            sub = sub * self._counts[q] + sub_index
        return tuple(p), index + sub

    def sample_uniform(self, request: SampleRequest) -> list[str]:
        """Draw ``request.count`` tree encodings independently and uniformly.

        Deterministic given the seed: indices come from SplitMix64 rejection
        sampling (see :meth:`SplitMix64.below`) and are unranked in order.
        """
        p = self._check(request.profile)
        n = self._count(p)
        rng = SplitMix64(request.seed)
        return [self._unrank(p, rng.below(n)) for _ in range(request.count)]


def _minus_indicator(p: tuple[int, ...], colors: Sequence[int]) -> tuple[int, ...]:
    out = list(p)
    for color in colors:
        out[color - 1] -= 1
    return tuple(out)


def _position_of(bound: tuple[int, ...], q: tuple[int, ...]) -> int:
    """The position of q in the box of ``bound`` (all vectors <= bound in
    lexicographic order): mixed radix over ``b + 1``, last coordinate least
    significant."""
    position = 0
    for b, digit in zip(bound, q):
        position = position * (b + 1) + digit
    return position
