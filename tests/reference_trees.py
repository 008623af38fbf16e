"""Reference parser of the canonical tree encoding, for the tests.

``decode`` parses an encoding by recursive descent into plain data, a tuple
of (color, subtree) pairs in ascending color order with the leaf ``()``, and
``profile_counts`` counts such a tree's edges per color.  The enumerator and the unranker are tested against them,
and ``ProfileCountTable.rank``, which parses the same grammar in one
iterative pass, must raise what they raise.  ``decode`` recurses once per
tree level, so it stops at MAX_DEPTH.
"""

from linetrees.errors import ColorError, ColorOrderError, ParseError

# Deepest vertex, in edges from the root, that decode accepts; decode
# recurses once per level, and Python allows 1000 frames by default.
MAX_DEPTH = 450


def profile_counts(tree: tuple, d: int) -> tuple[int, ...]:
    """Per-color edge counts of a valid tree, as a length-d tuple."""
    counts = [0] * d

    def walk(node: tuple) -> None:
        for color, child in node:
            if not 1 <= color <= d:
                raise ColorError(f"color {color} out of range 1..{d}")
            counts[color - 1] += 1
            walk(child)

    walk(tree)
    return tuple(counts)


def decode(text: str, d: int) -> tuple:
    """Parse a canonical encoding, enforcing the grammar and canonical order.

    Raises ParseError (with byte offset) on malformed syntax or nesting
    deeper than MAX_DEPTH, ColorError on out-of-range or duplicate colors,
    and ColorOrderError when children are not in ascending color order.
    """
    tree, pos = _parse_tree(text, 0, d, 0)
    if pos != len(text):
        raise ParseError("trailing characters after tree", pos)
    return tree


def _parse_tree(text: str, pos: int, d: int, depth: int) -> tuple[tuple, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    if depth > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} edges", pos)
    pos += 1
    if pos < len(text) and text[pos] == ")":
        return (), pos + 1
    entries: list[tuple[int, tuple]] = []
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
            return tuple(entries), pos + 1
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
    digits = text[start:pos]
    # A run longer than d's digits is out of range without int(), which
    # refuses runs over 4300 digits; without a leading zero, the digits are
    # the color as str() writes it.
    if len(digits) > len(str(d)) or not 1 <= int(digits) <= d:
        raise ColorError(f"color {digits} out of range 1..{d}")
    return int(digits), pos
