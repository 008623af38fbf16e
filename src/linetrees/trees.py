"""Tree data structure, canonical text encoding, and exhaustive enumeration.

This module is the brute-force oracle for the counting formulas: it builds
every tree explicitly, as its canonical encoding, and never consults a closed
form, so agreement between a tally produced here and
:func:`linetrees.combinatorics.closed_form_count` is a genuine cross-check.

Canonical encoding grammar (a stable text format, also used by the CLI):

    tree  := "(" [entry ("," entry)*] ")"
    entry := color ":" tree
    color := decimal integer >= 1, ASCII digits without a leading zero

Children are written in strictly ascending color order; ``decode`` rejects
any other order, so ``encode`` is injective and ``decode(encode(t)) == t``.

The enumerator works on encodings alone: it joins each tree's encoding from
its children's finished encodings and yields plain strings, building no
``ColoredTree``; so does the unranker of :mod:`linetrees.counting`.  ``encode``
and ``decode`` are the reference the enumerated and unranked strings are
tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from .combinatorics import ColorProfile, profiles_with_total
from .errors import ColorError, ColorOrderError, DomainError, ParseError
from .limits import check_colors

# Deepest vertex, in edges from the root, that decode accepts; decode and rank
# recurse once or twice per level, and Python allows 1000 frames by default.
MAX_DEPTH = 450


class ColoredTree:
    """Rooted tree whose edges carry integer colors.

    ``children`` holds (color, subtree) pairs; construction sorts them by
    ascending color.  Trees compare and hash by their canonical encoding,
    so structurally equal trees are equal, however deep.  Validity
    (distinct colors in range at every vertex) is not enforced here;
    :func:`decode` checks it.  Treat an instance as immutable.
    """

    __slots__ = ("children",)

    def __init__(self, children: tuple[tuple[int, ColoredTree], ...] = ()):
        self.children = tuple(sorted(children, key=lambda entry: entry[0]))

    def __eq__(self, other):
        if not isinstance(other, ColoredTree):
            return NotImplemented
        return encode(self) == encode(other)

    def __hash__(self):
        return hash(encode(self))

    def __repr__(self):
        return f"<ColoredTree {encode(self)}>"


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


def encode(tree: ColoredTree) -> str:
    """Canonical text form of a tree; children appear in ascending color order.

    Iterative, so any depth encodes: the stack holds, last to be written
    first, the subtrees still to write and the text between them.
    """
    out: list[str] = []
    stack: list[ColoredTree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(")
        stack.append(")")
        children = item.children
        for i in range(len(children) - 1, -1, -1):
            color, child = children[i]
            stack.append(child)
            stack.append(f",{color}:" if i else f"{color}:")
    return "".join(out)


def decode(text: str, d: int) -> ColoredTree:
    """Parse a canonical encoding, enforcing the grammar and canonical order.

    Raises ParseError (with byte offset) on malformed syntax or nesting
    deeper than MAX_DEPTH, ColorError on out-of-range or duplicate colors,
    and ColorOrderError when children are not in ascending color order.
    """
    tree, pos = _parse_tree(text, 0, d, 0)
    if pos != len(text):
        raise ParseError("trailing characters after tree", pos)
    return tree


def _parse_tree(text: str, pos: int, d: int, depth: int) -> tuple[ColoredTree, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    if depth > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} edges", pos)
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
        child, pos = _parse_tree(text, pos + 1, d, depth + 1)
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
    # ASCII digits only: str.isdigit() also admits superscripts and the
    # digits of other scripts, which int() then rejects or reads.
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ParseError("expected a color (decimal digits)", pos)
    if text[start] == "0" and pos - start > 1:
        raise ParseError("a color has no leading zero", start)
    color = int(text[start:pos])
    if color < 1 or color > d:
        raise ColorError(f"color {color} out of range 1..{d}")
    return color, pos


def enumerate_by_lines(d: int, max_lines: int) -> Iterator[str]:
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


def _enumerate_levels(d: int, max_lines: int) -> Iterator[str]:
    levels: list[list[str]] = []
    for lines in range(max_lines + 1):
        level = _trees_with_exact_lines(d, lines, levels)
        level.sort()
        levels.append(level)
        yield from level


def _trees_with_exact_lines(
    d: int, lines: int, smaller: list[list[str]]
) -> list[str]:
    # Decompose at the root: pick the set of child colors, then split the
    # remaining edges among the subtrees.  Each tree arises exactly once.
    # A tree's encoding joins its children's finished encodings, in the
    # ascending color order that ``encode`` writes them.
    if lines == 0:
        return ["()"]
    out: list[str] = []
    for arity in range(1, min(d, lines) + 1):
        for colors in itertools.combinations(range(1, d + 1), arity):
            labels = [f"{color}:" for color in colors]
            for sizes in profiles_with_total(arity, lines - arity):
                for children in itertools.product(*(smaller[s] for s in sizes)):
                    text = ",".join([label + child for label, child in zip(labels, children)])
                    out.append(f"({text})")
    return out


def count_by_profile_bruteforce(d: int, max_total: int) -> dict[ColorProfile, int]:
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
