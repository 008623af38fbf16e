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
Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978), and is filled bottom-up
without recursion.  Write S_k(r) for the sum, over the ordered splits of r
into k sub-profiles, of the product of their counts (S_1 = N).  Counting p
walks the box of p (every vector q <= p) in lexicographic order, in which
each q - chi_S and every vector below q comes earlier.  For each new q it
records the admissible subsets S, the submasks of q's support in ascending
order, and the cumulative ends of their index blocks, summing the totals
S_|S|(q - chi_S) already made.  Then it makes S_k(q) = sum over q' <= q of
N(q') * S_{k-1}(q - q') for each k >= 2 that a profile <= p can need, up to
the number of colors with q_i < p_i; one dict per k holds these totals.  A
table shared across calls extends a q made for a smaller profile to the k a
larger one needs, and skips the part of the box below a counted p - e_i,
which is already made.  For each q split into two or more parts the memo
holds the box of q, each equal vector one shared object, so that q - q' is
the mirror entry ``box[~j]`` of ``q' = box[j]``, and for each k the
cumulative sums behind S_k(q), one per box entry, whose last element is the
total.  Unranking bisects these lists: ``bisect_right`` on the block ends
picks S, and at each split position it picks the box entry q' and its
mirror.  A subtree whose profile has at most ``_SMALL_COUNT`` trees takes
its encoding from a per-profile memo filled on first use.  Ranking
(:meth:`ProfileCountTable.rank`) decodes an encoding and adds up the same
prefix sums, inverting unranking.  Only unranking recurses, once per tree
level.

Sampling draws a uniform index below N(p) with a SplitMix64 generator and
unranks it, so identical seeds reproduce identical trees on every platform.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product
from operator import lt, mul

from .combinatorics import ColorProfile
from .errors import DomainError, IndexOutOfRange
from .limits import check_colors

_MASK64 = (1 << 64) - 1

_LEAF = "()"

# Subtrees whose profile has at most this many trees keep their encodings in
# a memo.  64 sits at the plateau of 2000 draws at each sample cap profile
# (16 is slower, 4096 barely faster), and a table for the d=8 cap profile
# (2,2,1,1,1,1,1,1) then holds at most 3,195 encodings.
_SMALL_COUNT = 64


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
        # The colors of each subset, indexed by its bitmask; bit i-1 <=> color i.
        self._subsets = tuple(
            tuple(color for color in range(1, d + 1) if mask >> (color - 1) & 1)
            for mask in range(1 << d)
        )
        self._counts: dict[tuple[int, ...], int] = {}
        # Per number of parts k: the split totals S_k(r), keyed by remainder r;
        # S_1 is the count itself.
        self._totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(d + 1)]
        self._totals[1] = self._counts
        # Per counted profile q: the largest k for which S_k(q) is made.
        self._made: dict[tuple[int, ...], int] = {}
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
        # Per profile with at most _SMALL_COUNT trees: their encodings by
        # index, each filled on first use.
        self._small: dict[tuple[int, ...], list[str | None]] = {}

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
        counts, totals, made = self._counts, self._totals, self._made
        subsets, boxes, split_ends = self._subsets, self._boxes, self._split_ends
        # Walk q <= p in lexicographic order, in which each q - chi_S and
        # every vector below q comes earlier.  A counted vector v has every
        # q <= v counted and made for the parts v needs.  So once p - e_i is
        # counted, only the q with q_i >= p_i - 1 can need work (those with
        # q_i = p_i - 1 need one part more), and every q left to count has
        # q_i = p_i, so that its q - chi_S are in the walk.
        low = [
            n - 1 if n and p[:i] + (n - 1,) + p[i + 1:] in counts else 0
            for i, n in enumerate(p)
        ]
        box = self._box([range(lo, n + 1) for lo, n in zip(low, p)])
        # In the walk, q - chi_S sits offsets[S] places before q.
        strides = [1] * self.d
        for i in range(self.d - 1, 0, -1):
            strides[i - 1] = strides[i] * (p[i] - low[i] + 1)
        offsets = [0]
        for stride in strides:
            offsets += [offset + stride for offset in offsets]
        for position, q in enumerate(box):
            have = made.get(q)
            if have is None:
                present = sum(1 << i for i, n in enumerate(q) if n)
                result = 0 if present else 1
                choices = []
                ends = []
                mask = 0
                while True:
                    # The next submask of present, in ascending order.
                    mask = (mask - present) & present
                    if not mask:
                        break
                    colors = subsets[mask]
                    remainder = box[position - offsets[mask]]
                    result += totals[len(colors)][remainder]
                    choices.append((colors, remainder))
                    ends.append(result)
                self._blocks[q] = (tuple(choices), ends)
                counts[q] = result
                have = made[q] = 1
            # A profile <= p whose root set S leaves remainder q has |S| <=
            # need, the number of colors with q_i < p_i.  A table shared
            # across calls may have made q for fewer parts.
            need = sum(map(lt, q, p))
            if have < need:
                q_box = boxes.get(q)
                if q_box is None:
                    q_box = boxes[q] = self._box([range(n + 1) for n in q])
                # q - q' runs through the box backwards while q' runs forward.
                weights = list(map(counts.__getitem__, q_box))
                for k in range(have + 1, need + 1):
                    ends = split_ends[k, q] = list(accumulate(map(
                        mul, weights, map(totals[k - 1].__getitem__, reversed(q_box))
                    )))
                    totals[k][q] = ends[-1]
                made[q] = need
        return counts[p]

    def _box(self, ranges: list[range]) -> tuple[tuple[int, ...], ...]:
        """The vectors of ``product(*ranges)`` in lexicographic order,
        interned: the first of equal vectors stored is the one every box
        holds."""
        return tuple(map(self._vectors.setdefault, product(*ranges), product(*ranges)))

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
        small = self._small
        for color, (q, n) in zip(reversed(colors), reversed(parts)):
            index, sub = divmod(index, n)
            if n <= _SMALL_COUNT:
                memo = small.get(q)
                if memo is None:
                    memo = small[q] = [None] * n
                text = memo[sub]
                if text is None:
                    text = memo[sub] = self._unrank(q, sub)
            else:
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


def _position_of(bound: tuple[int, ...], q: tuple[int, ...]) -> int:
    """The position of q in the box of ``bound`` (all vectors <= bound in
    lexicographic order): mixed radix over ``b + 1``, last coordinate least
    significant."""
    position = 0
    for b, digit in zip(bound, q):
        position = position * (b + 1) + digit
    return position
