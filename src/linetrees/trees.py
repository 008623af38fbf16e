"""Canonical text encoding of trees, and exhaustive enumeration.

This module is the brute-force oracle for the counting formulas: it builds
every tree explicitly, as its canonical encoding, and never consults a closed
form, so agreement between a tally produced here and
:func:`linetrees.combinatorics.closed_form_count` is a genuine cross-check.

Canonical encoding grammar (a stable text format, also used by the CLI):

    tree  := "(" [entry ("," entry)*] ")"
    entry := color ":" tree
    color := decimal integer >= 1, ASCII digits without a leading zero

Children are written in strictly ascending color order, so each tree has
exactly one encoding and distinct trees have distinct encodings.
:meth:`linetrees.counting.ProfileCountTable.rank` accepts only this
canonical text.

The enumerator works on encodings alone: it fills one template per set of
root colors, such as ``"(1:{},3:{})"``, with its children's finished
encodings and yields plain strings, as the unranker of
:mod:`linetrees.counting` does.  ``encode`` turns a tree given as plain data,
a tuple of (color, subtree) pairs with the leaf ``()``, into its encoding;
``(1:(2:()),3:())`` is ``((1, ((2, ()),)), (3, ()))``.  The tests build their
reference trees this way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from .combinatorics import profiles_with_total
from .limits import check_colors, check_int

_TALLY_BATCH = 8192


def encode(tree: tuple) -> str:
    """Canonical text form of a tree given as a tuple of (color, subtree)
    pairs, the leaf being ``()``.

    Children are written in ascending color order, whatever their order in
    the tuple; colors are not checked.  The tuples compare and hash as
    tuples, so two orders of the same children encode alike but are not
    equal.  Iterative, so any depth encodes: the stack holds, last to be
    written first, the subtrees still to write and the text between them.
    """
    out: list[str] = []
    stack: list[tuple | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(")
        stack.append(")")
        children = sorted(item, key=lambda entry: entry[0])
        for i in range(len(children) - 1, -1, -1):
            color, child = children[i]
            stack.append(child)
            stack.append(f",{color}:" if i else f"{color}:")
    return "".join(out)


def enumerate_by_lines(d: int, max_lines: int) -> Iterator[str]:
    """Yield the canonical encoding of every valid tree with at most
    ``max_lines`` edges, exactly once.

    Encodings come out in increasing order of total edge count and, within
    one count, in lexicographic order.  The stream is fully deterministic.
    A d outside 2..MAX_COLORS, or a ``max_lines`` that is a float, a bool or
    negative, raises DomainError at the call, before the first encoding.
    """
    check_colors(d)
    check_int("max_lines", max_lines)
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
    # One template per color set, such as "(1:{},3:{})", takes the children's
    # finished encodings in the ascending color order that ``encode`` writes
    # them; the grammar has no braces, so ``str.format`` copies them as they
    # are.
    if lines == 0:
        return ["()"]
    out: list[str] = []
    for arity in range(1, min(d, lines) + 1):
        for colors in itertools.combinations(range(1, d + 1), arity):
            fmt = "({})".format(",".join(f"{color}:{{}}" for color in colors)).format
            for sizes in profiles_with_total(arity, lines - arity):
                out.extend(itertools.starmap(fmt, itertools.product(*(smaller[s] for s in sizes))))
    return out


def count_by_profile_bruteforce(d: int, max_total: int) -> dict[tuple[int, ...], int]:
    """Tally the enumeration by color profile, keyed by count tuple.

    The returned map has an entry for every profile with total <= max_total
    (every profile is realized by at least one chain).  d is checked first,
    then ``max_total`` under its own name.
    """
    # A tree's color word is its encoding with "(),:" deleted: one digit per
    # edge, because every color is one digit (MAX_COLORS <= 9).  A batch of
    # encodings takes one translate and one split; batching bounds the joined
    # text's memory.  Each distinct word is then folded into its profile.
    words: Counter[bytes] = Counter()
    check_colors(d)
    stream = enumerate_by_lines(d, check_int("max_total", max_total))
    while batch := list(itertools.islice(stream, _TALLY_BATCH)):
        words.update("\n".join(batch).encode().translate(None, b"(),:").split(b"\n"))
    digits = [str(color).encode() for color in range(1, d + 1)]
    tally: Counter[tuple[int, ...]] = Counter()
    for word, number in words.items():
        tally[tuple(map(word.count, digits))] += number
    return dict(tally)
