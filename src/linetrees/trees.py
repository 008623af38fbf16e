"""Tree data structure, canonical text encoding, and exhaustive enumeration.

This module is the brute-force oracle for the counting formulas: it builds
every tree explicitly, as its canonical encoding, and never consults a closed
form, so agreement between a tally produced here and
:func:`linetrees.combinatorics.closed_form_count` is a genuine cross-check.

Canonical encoding grammar (a stable text format, also used by the CLI):

    tree  := "(" [entry ("," entry)*] ")"
    entry := color ":" tree
    color := decimal integer >= 1

Children are written in strictly ascending color order; ``decode`` rejects
any other order, so ``encode`` is injective and ``decode(encode(t)) == t``.

The enumerator works on encodings alone: it joins each tree's encoding from
its children's finished encodings and yields plain strings, building no
``ColoredTree``.  ``encode`` and ``decode`` are the reference the enumerated
strings are tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .combinatorics import ColorProfile, CountValue, profiles_with_total
from .errors import ColorError, ColorOrderError, DomainError, ParseError
from .limits import check_colors

# The canonical encoding is a plain string over '(', ')', ',', ':' and digits.
CanonicalEncoding = str


@dataclass(frozen=True, slots=True)
class ColoredTree:
    """Rooted tree whose edges carry integer colors.

    ``children`` holds (color, subtree) pairs; construction sorts them by
    ascending color so structurally equal trees compare and hash equal.
    Validity (distinct colors in range at every vertex) is checked by
    :func:`validate`, not enforced here, so invalid candidates can be
    represented and rejected.
    """

    children: tuple[tuple[int, "ColoredTree"], ...] = field(default=())

    def __post_init__(self):
        ordered = tuple(sorted(self.children, key=lambda entry: entry[0]))
        object.__setattr__(self, "children", ordered)

    def is_leaf(self) -> bool:
        return not self.children

    def num_lines(self) -> int:
        """Total number of edges in the tree."""
        return sum(1 + child.num_lines() for _, child in self.children)


def validate(tree: ColoredTree, d: int) -> bool:
    """True iff every vertex has pairwise-distinct edge colors, all in 1..d."""
    colors = [color for color, _ in tree.children]
    if len(set(colors)) != len(colors):
        return False
    if any(color < 1 or color > d for color in colors):
        return False
    return all(validate(child, d) for _, child in tree.children)


def profile_counts(tree: ColoredTree, d: int) -> tuple[int, ...]:
    """Per-color edge counts of a valid tree, as a length-d tuple."""
    counts = [0] * d

    def walk(node: ColoredTree) -> None:
        for color, child in node.children:
            if not 1 <= color <= d:
                raise ColorError(f"color {color} out of range 1..{d}")
            counts[color - 1] += 1
            walk(child)

    walk(tree)
    return tuple(counts)


def encode(tree: ColoredTree) -> CanonicalEncoding:
    """Canonical text form of a tree; children appear in ascending color order."""
    entries = ",".join(f"{color}:{encode(child)}" for color, child in tree.children)
    return f"({entries})"


def decode(text: CanonicalEncoding, d: int) -> ColoredTree:
    """Parse a canonical encoding, enforcing the grammar and canonical order.

    Raises ParseError (with byte offset) on malformed syntax, ColorError on
    out-of-range or duplicate colors, and ColorOrderError when children are
    not in ascending color order.
    """
    tree, pos = _parse_tree(text, 0, d)
    if pos != len(text):
        raise ParseError("trailing characters after tree", pos)
    return tree


def _parse_tree(text: str, pos: int, d: int) -> tuple[ColoredTree, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    pos += 1
    if pos < len(text) and text[pos] == ")":
        return ColoredTree(), pos + 1
    entries: list[tuple[int, ColoredTree]] = []
    previous_color = 0
    while True:
        color, pos = _parse_color(text, pos, d)
        if color == previous_color:
            raise ColorError(f"duplicate color {color} among one vertex's children")
        if color < previous_color:
            raise ColorOrderError(
                f"children out of order: color {color} after {previous_color}"
            )
        previous_color = color
        if pos >= len(text) or text[pos] != ":":
            raise ParseError("expected ':' after color", pos)
        child, pos = _parse_tree(text, pos + 1, d)
        entries.append((color, child))
        if pos >= len(text):
            raise ParseError("unterminated vertex, expected ',' or ')'", pos)
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] == ")":
            return ColoredTree(tuple(entries)), pos + 1
        raise ParseError("expected ',' or ')'", pos)


def _parse_color(text: str, pos: int, d: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected a color (decimal digits)", pos)
    color = int(text[start:pos])
    if color < 1 or color > d:
        raise ColorError(f"color {color} out of range 1..{d}")
    return color, pos


def enumerate_by_lines(d: int, max_lines: int) -> Iterator[CanonicalEncoding]:
    """Yield the canonical encoding of every valid tree with at most
    ``max_lines`` edges, exactly once.

    Encodings come out in increasing order of total edge count and, within
    one count, in lexicographic order.  The stream is fully deterministic.
    A d outside 2..MAX_COLORS or a negative ``max_lines`` raises DomainError
    at the call, before the first encoding.
    """
    check_colors(d)
    if max_lines < 0:
        raise DomainError(f"max_lines must be >= 0, got {max_lines}")
    return _enumerate_levels(d, max_lines)


def _enumerate_levels(d: int, max_lines: int) -> Iterator[CanonicalEncoding]:
    levels: list[list[CanonicalEncoding]] = []
    for lines in range(max_lines + 1):
        level = _trees_with_exact_lines(d, lines, levels)
        level.sort()
        levels.append(level)
        yield from level


def _trees_with_exact_lines(
    d: int, lines: int, smaller: list[list[CanonicalEncoding]]
) -> list[CanonicalEncoding]:
    # Decompose at the root: pick the set of child colors, then split the
    # remaining edges among the subtrees.  Each tree arises exactly once.
    # A tree's encoding joins its children's finished encodings, in the
    # ascending color order that ``encode`` writes them.
    if lines == 0:
        return ["()"]
    out: list[CanonicalEncoding] = []
    for arity in range(1, min(d, lines) + 1):
        for colors in itertools.combinations(range(1, d + 1), arity):
            labels = [f"{color}:" for color in colors]
            for sizes in profiles_with_total(arity, lines - arity):
                for children in itertools.product(*(smaller[s] for s in sizes)):
                    text = ",".join([label + child for label, child in zip(labels, children)])
                    out.append(f"({text})")
    return out


def count_by_profile_bruteforce(d: int, max_total: int) -> dict[ColorProfile, CountValue]:
    """Tally the enumeration by color profile.

    The returned map has an entry for every profile with total <= max_total
    (every profile is realized by at least one chain).
    """
    # Each edge of color c appears in the encoding as "c:" exactly once, and
    # no other "c:" appears, because every color is one digit (MAX_COLORS <= 9).
    labels = [f"{color}:" for color in range(1, d + 1)]
    tally = Counter(
        tuple(text.count(label) for label in labels) for text in enumerate_by_lines(d, max_total)
    )
    return {ColorProfile(d, counts): number for counts, number in tally.items()}
