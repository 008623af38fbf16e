"""Memoized profile-indexed counting, unranking, and uniform sampling.

The count of trees with color profile p decomposes at the root: choose the
non-empty set S of child-edge colors (one edge of each color in S), then
split the remaining profile p - chi_S into one sub-profile per color of S.
Writing N for the count,

    N(0) = 1,    N(p) = sum over S, sum over splits, prod_{i in S} N(q_i).

Unranking realizes the same decomposition as a bijection from {0..N(p)-1}
onto the trees with profile p, using this fixed order:

  * subsets S in ascending bitmask order, bit i-1 representing color i
    (so {1} < {2} < {1,2} < {3} < ...);
  * splits (q_i)_{i in S}, colors ascending, in lexicographic order of the
    concatenated sub-profile vectors;
  * within one split, subtree indices combine in mixed radix with the
    lowest color most significant.

Sampling draws a uniform index below N(p) with a SplitMix64 generator and
unranks it, so identical seeds reproduce identical trees on every platform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .combinatorics import ColorProfile, CountValue
from .errors import DomainError, IndexOutOfRange
from .limits import check_cap
from .trees import ColoredTree

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SampleRequest:
    """A deterministic sampling job: profile, number of draws, 64-bit seed."""

    profile: ColorProfile
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


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
    """Memoized tree counts per color profile, with unranking and sampling.

    The memo is shared across calls on one instance only; independent
    instances never interact, so confining a table to one worker is safe.
    ``max_total`` overrides the profile-total cap of the limits table.
    """

    def __init__(self, d: int, max_total: int | None = None):
        if d < 2:
            raise DomainError(f"need d >= 2 colors, got {d}")
        self.d = d
        self.max_total = max_total
        # Subsets of colors in ascending bitmask order; bit i-1 <=> color i.
        self._subsets = tuple(
            tuple(color for color in range(1, d + 1) if mask >> (color - 1) & 1)
            for mask in range(1, 1 << d)
        )
        self._counts: dict[tuple[int, ...], CountValue] = {}
        self._split_sums: dict[tuple[int, tuple[int, ...]], CountValue] = {}

    def _check(self, profile: ColorProfile) -> tuple[int, ...]:
        if profile.d != self.d:
            raise DomainError(f"profile has d={profile.d}, table has d={self.d}")
        check_cap("profile total", profile.total, self.d, self.max_total)
        return profile.counts

    def recursive_count(self, profile: ColorProfile) -> CountValue:
        """Number of trees with the given profile, from the root recursion."""
        return self._count(self._check(profile))

    def _count(self, p: tuple[int, ...]) -> CountValue:
        cached = self._counts.get(p)
        if cached is not None:
            return cached
        if not any(p):
            result = 1
        else:
            result = 0
            for colors in self._subsets:
                if all(p[color - 1] >= 1 for color in colors):
                    remainder = _minus_indicator(p, colors)
                    result += self._split_sum(len(colors), remainder)
        self._counts[p] = result
        return result

    def _split_sum(self, parts: int, remainder: tuple[int, ...]) -> CountValue:
        """Sum over ordered splits of ``remainder`` into ``parts`` sub-profiles
        of the product of their counts."""
        if parts == 1:
            return self._count(remainder)
        key = (parts, remainder)
        cached = self._split_sums.get(key)
        if cached is not None:
            return cached
        total = 0
        for q in _vectors_upto(remainder):
            total += self._count(q) * self._split_sum(parts - 1, _subtract(remainder, q))
        self._split_sums[key] = total
        return total

    def unrank(self, profile: ColorProfile, index: int) -> ColoredTree:
        """The index-th tree with the given profile in the documented order."""
        p = self._check(profile)
        n = self._count(p)
        if not 0 <= index < n:
            raise IndexOutOfRange(
                f"index {index} out of range for {n} trees with profile {p}"
            )
        return self._unrank(p, index)

    def _unrank(self, p: tuple[int, ...], index: int) -> ColoredTree:
        if not any(p):
            return ColoredTree()
        for colors in self._subsets:
            if not all(p[color - 1] >= 1 for color in colors):
                continue
            remainder = _minus_indicator(p, colors)
            block = self._split_sum(len(colors), remainder)
            if index >= block:
                index -= block
                continue
            # Locate the split: peel off one sub-profile per color, lowest
            # color first, in lexicographic order.  A group sharing the
            # already-fixed sub-profiles spans prefix * count(q) * splits
            # indices, where prefix is the product of the fixed counts.
            parts: list[tuple[int, ...]] = []
            prefix = 1
            for position in range(len(colors) - 1):
                tail = len(colors) - position - 1
                for q in _vectors_upto(remainder):
                    weight = prefix * self._count(q) * self._split_sum(
                        tail, _subtract(remainder, q)
                    )
                    if index < weight:
                        parts.append(q)
                        remainder = _subtract(remainder, q)
                        prefix *= self._count(q)
                        break
                    index -= weight
            parts.append(remainder)
            # Mixed-radix decode of the per-subtree indices, lowest color
            # most significant.
            radices = [self._count(q) for q in parts]
            sub_indices: list[int] = []
            for radix in reversed(radices):
                index, sub = divmod(index, radix)
                sub_indices.append(sub)
            sub_indices.reverse()
            children = tuple(
                (color, self._unrank(q, sub))
                for color, q, sub in zip(colors, parts, sub_indices)
            )
            return ColoredTree(children)
        raise AssertionError("index below total count but no subset matched")

    def sample_uniform(self, request: SampleRequest) -> list[ColoredTree]:
        """Draw ``request.count`` trees independently and uniformly.

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


def _subtract(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _vectors_upto(bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All vectors 0 <= q <= bound componentwise, in lexicographic order."""
    return itertools.product(*(range(b + 1) for b in bound))
