"""Memoized profile-indexed counting, ranking, unranking, and uniform sampling.

The count of trees with color profile p decomposes at the root: choose the
non-empty set S of child-edge colors (one edge of each color in S), then
split the remaining profile p - chi_S into one sub-profile per color of S.
Writing N for the count,

    N(0) = 1,    N(p) = sum over S, sum over splits, prod_{i in S} N(q_i).

Unranking realizes the same decomposition as a bijection from {0..N(p)-1}
onto the canonical encodings of the trees with profile p (joined from the
children's encodings, as the enumerator of :mod:`linetrees.trees` joins
them), in this fixed order:

  * subsets S in ascending bitmask order, bit i-1 representing color i
    (so {1} < {2} < {1,2} < {3} < ...);
  * splits (q_i)_{i in S}, colors ascending, in lexicographic order of the
    concatenated sub-profile vectors;
  * within one split, subtree indices combine in mixed radix with the
    lowest color most significant.

The memo keeps prefix sums (cumulative counts, as in Nijenhuis & Wilf,
*Combinatorial Algorithms*, 1978) keyed by integer ids, one interned per
profile vector, and is filled bottom-up without recursion.  Write S_k(r)
for the sum, over the ordered splits of r into k sub-profiles, of the
product of their counts (S_1 = N).  Counting p walks the box of p (every
q <= p) in lexicographic order, in which each q - chi_S and every vector
below q comes earlier.  For each new q it records, per admissible S (the
submasks of q's support, ascending), the node's ``str.format`` template, |S|
and q - chi_S, with the cumulative ends of their index blocks.  For each
k >= 2 that a profile <= p can need, it makes S_k(q) = sum over q' <= q of
N(q') * S_{k-1}(q - q') in one split record per q: the box of q (the ids
of every q' <= q in lexicographic order), in which q - q' is the mirror
entry ``box[~j]`` of ``q' = box[j]``, and per k the cumulative sums behind
S_k(q).  A shared table extends such a record to the k a larger profile
needs.  Unranking bisects the block ends to pick S, unranks a single child
directly, bisects the split ends to pick each q' and its mirror, and fills
the node's template with the children's encodings, one frame per tree
level; a subtree whose profile has at most ``_SMALL_COUNT`` trees comes from
a per-profile memo filled on first use.
Ranking (:meth:`ProfileCountTable.rank`) parses the encoding in one pass
with an explicit stack and, as each vertex closes, adds up the same prefix
sums from its children's profiles and indices.

Sampling draws a uniform index below N(p) with a SplitMix64 generator and
unranks it, so identical seeds reproduce identical trees on every platform.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, count, product
from operator import lt, mul

from .errors import ColorError, ColorOrderError, DomainError, IndexOutOfRange, ParseError
from .limits import check_colors, check_int, check_profile

_MASK64 = (1 << 64) - 1

_LEAF = "()"

# Subtrees whose profile has at most this many trees keep their encodings in
# a memo.  64 sits at the plateau of 2000 draws at each sample cap profile
# (16 is slower, 4096 barely faster), and a table for the d=8 cap profile
# (2,2,1,1,1,1,1,1) then holds at most 3,195 encodings.
_SMALL_COUNT = 64


def _check_seed(seed: int) -> int:
    if not 0 <= check_int("seed", seed, None) <= _MASK64:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


class SampleRequest:
    """A deterministic sampling job: profile (a count tuple), number of
    draws and 64-bit seed.  Treat an instance as immutable."""

    __slots__ = ("profile", "count", "seed")

    def __init__(self, profile: tuple[int, ...], count: int, seed: int):
        self.profile = profile
        self.count = check_int("count", count, 1)
        self.seed = _check_seed(seed)


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    Emits a fixed, platform-independent stream of 64-bit words from a 64-bit
    seed; `below` turns words into exactly uniform integers by rejection.
    """

    def __init__(self, seed: int):
        self._state = _check_seed(seed)

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
        check_int("bound", bound, 1)
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
        # Per root subset, indexed by its bitmask (bit i-1 <=> color i): its
        # number of children, and the str.format method that joins their
        # encodings, as "(1:{},3:{})".format.
        self._sizes, fields = [0], [""]
        for color in range(1, d + 1):
            self._sizes += [size + 1 for size in self._sizes]
            fields += [f"{field},{color}:{{}}" for field in fields]
        self._templates = [f"({field[1:]})".format for field in fields]
        # Each profile vector met is interned once to an integer id, which
        # keys every memo below.
        self._ids: dict[tuple[int, ...], int] = {}
        self._new_ids = count()
        self._counts: dict[int, int] = {}
        # Per number of parts k: the split totals S_k(r), keyed by remainder r;
        # S_1 is the count itself.
        self._totals: list[dict[int, int]] = [{} for _ in range(d + 1)]
        self._totals[1] = self._counts
        # Per profile p: per admissible root subset S, (template, |S|,
        # p - chi_S), and the cumulative ends of their index blocks.
        self._blocks: dict[int, tuple[tuple[tuple, ...], list[int]]] = {}
        # Per remainder split into two or more parts: its box, and per k made
        # so far the cumulative split weights, one per box entry (k >= 2).
        self._splits: dict[int, tuple[tuple[int, ...], list]] = {}
        # Per profile with at most _SMALL_COUNT trees: their encodings by
        # index, each filled on first use.
        self._small: dict[int, list[str | None]] = {}

    def _check(self, profile) -> tuple[int, ...]:
        return check_profile(self.d, profile)

    def recursive_count(self, profile: tuple[int, ...]) -> int:
        """Number of trees with the given profile, from the root recursion."""
        return self._count(self._check(profile))

    def _count(self, p: tuple[int, ...]) -> int:
        ids, counts = self._ids, self._counts
        cached = counts.get(ids.get(p))
        if cached is not None:
            return cached
        totals, blocks, splits, small = self._totals, self._blocks, self._splits, self._small
        sizes, templates = self._sizes, self._templates
        # Walk q <= p in lexicographic order, in which each q - chi_S and
        # every vector below q comes earlier.
        ranges = [range(n + 1) for n in p]
        walk = tuple(map(ids.setdefault, product(*ranges), self._new_ids))
        # In the walk, q sits at sum_i q_i * strides[i], and q - chi_S sits
        # offsets[S] places before q.
        strides = [1] * self.d
        for i in range(self.d - 1, 0, -1):
            strides[i - 1] = strides[i] * (p[i] + 1)
        offsets = [0]
        for stride in strides:
            offsets += [offset + stride for offset in offsets]
        for position, (q, v) in enumerate(zip(walk, product(*ranges))):
            if q not in counts:
                present = sum(1 << i for i, n in enumerate(v) if n)
                result = 0 if present else 1
                choices, ends, mask = [], [], 0
                while True:
                    # The next submask of present, in ascending order.
                    mask = (mask - present) & present
                    if not mask:
                        break
                    size = sizes[mask]
                    remainder = walk[position - offsets[mask]]
                    result += totals[size][remainder]
                    choices.append((templates[mask], size, remainder))
                    ends.append(result)
                blocks[q] = (tuple(choices), ends)
                counts[q] = result
                if result <= _SMALL_COUNT:
                    small[q] = [None] * result
            # A profile <= p whose root set S leaves remainder q has |S| <=
            # need, the number of colors with q_i < p_i.  A table shared
            # across calls may have made q for fewer parts.
            need = sum(map(lt, v, p))
            if need > 1:
                record = splits.get(q)
                if record is None:
                    box = tuple(map(ids.__getitem__, product(*[range(n + 1) for n in v])))
                    record = splits[q] = (box, [None, None])
                box, split_ends = record
                # q - q' runs through the box backwards while q' runs forward.
                for k in range(len(split_ends), need + 1):
                    ends = list(accumulate(map(mul, map(counts.__getitem__, box), map(
                        totals[k - 1].__getitem__, reversed(box)
                    ))))
                    split_ends.append(ends)
                    totals[k][q] = ends[-1]
        return counts[walk[-1]]

    def unrank(self, profile: tuple[int, ...], index: int) -> str:
        """Encoding of the index-th tree with the given profile in the
        documented order; ``index`` must be an int."""
        p = self._check(profile)
        check_int("index", index, None)
        n = self._count(p)
        if not 0 <= index < n:
            raise IndexOutOfRange(f"index {index} out of range for {n} trees with profile {p}")
        return self._unrank(self._ids[p], index)

    def _unrank(self, p: int, index: int) -> str:
        choices, ends = self._blocks[p]
        if not ends:
            return _LEAF
        k = bisect_right(ends, index)
        if k:
            index -= ends[k - 1]
        template, size, remainder = choices[k]
        small = self._small
        if size == 1:
            memo = small.get(remainder)
            if memo is None:
                return template(self._unrank(remainder, index))
            text = memo[index]
            if text is None:
                text = memo[index] = self._unrank(remainder, index)
            return template(text)
        # Peel off one sub-profile per color, lowest color first.  Among
        # splits sharing the sub-profiles fixed so far, the one whose next
        # sub-profile is q = box[j] starts at prefix * ends[j - 1], where
        # prefix is the product of the fixed sub-profiles' counts.
        counts, splits = self._counts, self._splits
        children, prefix = [], 1
        for tail in range(size, 1, -1):
            box, split_ends = splits[remainder]
            split_ends = split_ends[tail]
            j = bisect_right(split_ends, index // prefix)
            if j:
                index -= prefix * split_ends[j - 1]
            q = box[j]
            remainder = box[~j]
            children.append(q)
            prefix *= counts[q]
        children.append(remainder)
        # Mixed-radix decode of the per-subtree indices, lowest color most
        # significant.
        texts = []
        for q in reversed(children):
            index, sub = divmod(index, counts[q])
            memo = small.get(q)
            if memo is None:
                text = self._unrank(q, sub)
            else:
                text = memo[sub]
                if text is None:
                    text = memo[sub] = self._unrank(q, sub)
            texts.append(text)
        texts.reverse()
        return template(*texts)

    def rank(self, profile: tuple[int, ...], text: str) -> int:
        """The index of the tree encoded by ``text`` among the trees with the
        given profile; the inverse of :meth:`unrank`.

        One pass over the text with an explicit stack, so a tree of any
        depth ranks.  The text must be a ``str`` holding a canonical
        encoding (grammar in :mod:`linetrees.trees`): any other type raises
        DomainError, malformed syntax ParseError with its byte offset, an
        out-of-range or duplicate color ColorError, and children out of
        ascending color order ColorOrderError.  A tree of another color
        profile raises DomainError once the whole text has parsed.
        """
        p = self._check(profile)
        if not isinstance(text, str):
            raise DomainError(f"text must be a str, got {text!r}")
        self._count(p)
        d, end = self.d, len(text)
        colors = {str(color): color for color in range(1, d + 1)}
        # One entry per open vertex: the color of the child being read, and
        # (color, profile vector, index) for each child closed so far.
        stack: list[list] = []
        pos = 0
        while True:
            # A tree starts at pos.
            if pos >= end or text[pos] != "(":
                raise ParseError("expected '('", pos)
            pos += 1
            if pos < end and text[pos] == ")":
                pos += 1
                done = ((0,) * d, 0)
                # Close every vertex whose last child this leaf ends.
                while stack:
                    vertex = stack[-1]
                    vertex[1].append((vertex[0], *done))
                    if pos >= end:
                        raise ParseError("unterminated vertex, expected ',' or ')'", pos)
                    if text[pos] == ",":
                        break
                    if text[pos] != ")":
                        raise ParseError("expected ',' or ')'", pos)
                    pos += 1
                    stack.pop()
                    done = self._rank_vertex(vertex[1])
                else:
                    break
                pos += 1
            else:
                stack.append([0, []])
            # An entry starts at pos: a color, ':' and the child's tree.
            vertex = stack[-1]
            start = pos
            while pos < end and "0" <= text[pos] <= "9":
                pos += 1
            digits = text[start:pos]
            if not digits:
                raise ParseError("expected a color (decimal digits)", pos)
            if digits[0] == "0" and len(digits) > 1:
                raise ParseError("a color has no leading zero", start)
            # Looked up, not converted: int() refuses runs over 4300 digits.
            color = colors.get(digits)
            if color is None:
                raise ColorError(f"color {digits} out of range 1..{d}")
            if color == vertex[0]:
                raise ColorError(f"duplicate color {color} among one vertex's children")
            if color < vertex[0]:
                raise ColorOrderError(f"children out of order: color {color} after {vertex[0]}")
            vertex[0] = color
            if pos >= end or text[pos] != ":":
                raise ParseError("expected ':' after color", pos)
            pos += 1
        if pos != end:
            raise ParseError("trailing characters after tree", pos)
        found, index = done
        if found != p:
            raise DomainError(f"tree has profile {found}, expected {p}")
        return index

    def _rank_vertex(self, children: list[tuple]) -> tuple[tuple[int, ...], int | None]:
        """Profile vector and index of a vertex, from the (color, profile
        vector, index) of each child in ascending color order.  The index is
        None when the vector is not in the memo: a tree with a vertex above
        the ranked profile does not have that profile.  Every vector below
        one in the memo is in it, so a vertex in the memo has indexed
        children."""
        colors, parts, sub_indices = zip(*children)
        remainder = tuple(map(sum, zip(*parts)))
        p = tuple(n + (color in colors) for color, n in enumerate(remainder, 1))
        ids, counts = self._ids, self._counts
        block = self._blocks.get(ids.get(p))
        if block is None:
            return p, None
        # Each root subset S leaves its own remainder p - chi_S.
        remainder = ids[remainder]
        choices, ends = block
        k = [chosen for _, _, chosen in choices].index(remainder)
        index = ends[k - 1] if k else 0
        prefix = 1
        for tail, q in zip(range(len(parts), 1, -1), map(ids.__getitem__, parts)):
            box, split_ends = self._splits[remainder]
            j = box.index(q)
            if j:
                index += prefix * split_ends[tail][j - 1]
            remainder = box[~j]
            prefix *= counts[q]
        sub = 0
        for q, sub_index in zip(parts, sub_indices):
            sub = sub * counts[ids[q]] + sub_index
        return p, index + sub

    def sample_uniform(self, request: SampleRequest) -> list[str]:
        """Draw ``request.count`` tree encodings independently and uniformly.

        Deterministic given the seed: indices come from SplitMix64 rejection
        sampling (see :meth:`SplitMix64.below`) and are unranked in order.
        """
        p = self._check(request.profile)
        n = self._count(p)
        root = self._ids[p]
        rng = SplitMix64(request.seed)
        return [self._unrank(root, rng.below(n)) for _ in range(request.count)]

