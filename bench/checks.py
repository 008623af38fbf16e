"""Output checks for benchmark jobs, independent of the code paths they check.

Every check recomputes what it needs from the job's argv with the standard
library only: closed-form counts via ``math.comb``, the Fuss-Catalan totals,
a tiny parser of the canonical tree encoding, and the characteristic
polynomial, compared with the one rebuilt from the reported roots.  Nothing here imports ``linetrees``, so a fault in the package
cannot also hide in its check.

``check(argv, returncode, stdout)`` returns ``None`` when the output is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

# Relative tolerance on the polynomial rebuilt from the reported roots.
ROOTS_TOL = 1e-10


def options(argv: list[str]) -> dict[str, str]:
    """``--name value`` and ``--name=value`` options of a CLI argv."""
    out = {}
    for i, token in enumerate(argv):
        if token.startswith("--") and "=" in token:
            name, value = token[2:].split("=", 1)
            out[name] = value
        elif token.startswith("--") and i + 1 < len(argv):
            out[token[2:]] = argv[i + 1]
    return out


def level_count(profile: tuple[int, ...], n: int = 1) -> int:
    """n * prod_j C(P+n, p_j) / (P+n): trees (n=1) or level-n weight."""
    total = sum(profile) + n
    product = n
    for p in profile:
        product *= math.comb(total, p)
    quotient, remainder = divmod(product, total)
    if remainder:
        raise ArithmeticError(f"{product} is not divisible by {total}")
    return quotient


def fuss_catalan(d: int, vertices: int) -> int:
    """Number of d-ary trees on ``vertices`` vertices."""
    top = d * vertices + 1
    return math.comb(top, vertices) // top


def compositions(d: int, total: int):
    """Length-d non-negative vectors summing to ``total``, lexicographic."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(d - 1, total - first):
            yield (first,) + rest


def tree_profile(text: str, d: int) -> tuple[int, ...]:
    """Profile of a canonical encoding; raises ValueError if not canonical."""
    counts = [0] * d
    pos = _parse_vertex(text, 0, d, counts)
    if pos != len(text):
        raise ValueError(f"trailing text at byte {pos}")
    return tuple(counts)


def _parse_vertex(text: str, pos: int, d: int, counts: list[int]) -> int:
    if text[pos : pos + 1] != "(":
        raise ValueError(f"expected '(' at byte {pos}")
    pos += 1
    if text[pos : pos + 1] == ")":
        return pos + 1
    previous = 0
    while True:
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start or text[pos : pos + 1] != ":":
            raise ValueError(f"expected 'color:' at byte {start}")
        color = int(text[start:pos])
        if not previous < color <= d:
            raise ValueError(f"color {color} not ascending in 1..{d} at byte {start}")
        previous = color
        counts[color - 1] += 1
        pos = _parse_vertex(text, pos + 1, d, counts)
        if text[pos : pos + 1] == ",":
            pos += 1
        elif text[pos : pos + 1] == ")":
            return pos + 1
        else:
            raise ValueError(f"expected ',' or ')' at byte {pos}")


def _lines(stdout: bytes) -> list[str]:
    text = stdout.decode()
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return text[:-1].split("\n")


def _check_count(opts: dict, lines: list[str]) -> str | None:
    profile = tuple(int(x) for x in opts["profile"].split(","))
    n = int(opts.get("n", 1))
    doc = json.loads(lines[0])
    if len(lines) != 1 or doc.get("profile") != list(profile) or doc.get("n") != n:
        return "count output does not echo its arguments"
    if doc.get("count") != str(level_count(profile, n)):
        return f"count {doc.get('count')} != closed form"
    return None


def _check_series(opts: dict, lines: list[str]) -> str | None:
    d, order, n = int(opts["d"]), int(opts["order"]), int(opts.get("n", 1))
    doc = json.loads(lines[0])
    if len(lines) != 1 or doc.get("d") != d or doc.get("order") != order:
        return "series header does not match its arguments"
    expected = [
        {"p": list(p), "c": str(level_count(p, n))}
        for total in range(order + 1)
        for p in compositions(d, total)
    ]
    if doc.get("coeffs") != expected:
        return "series coefficients differ from the closed form"
    return None


def _check_sample(opts: dict, lines: list[str]) -> str | None:
    d = int(opts["d"])
    profile = tuple(int(x) for x in opts["profile"].split(","))
    if len(lines) != int(opts["count"]):
        return f"{len(lines)} samples, expected {opts['count']}"
    for number, line in enumerate(lines):
        doc = json.loads(line)
        if doc.get("profile") != list(profile):
            return f"sample {number} reports profile {doc.get('profile')}"
        if tree_profile(doc["tree"], d) != profile:
            return f"sample {number} tree does not have profile {profile}"
    return None


def _check_enumerate(opts: dict, lines: list[str]) -> str | None:
    d, max_lines = int(opts["d"]), int(opts["max-lines"])
    expected = [fuss_catalan(d, size + 1) for size in range(max_lines + 1)]
    if len(lines) != sum(expected):
        return f"{len(lines)} trees, expected {sum(expected)}"
    seen = [0] * (max_lines + 1)
    previous_size, previous = -1, ""
    # Distinct valid trees, as many per line count as exist, are all of them.
    for line in lines:
        tree = json.loads(line)["tree"]
        size = sum(tree_profile(tree, d))
        if size < previous_size or size > max_lines:
            return f"tree {tree} with {size} lines out of order"
        if size == previous_size and tree <= previous:
            return f"encodings not strictly ascending at {tree}"
        seen[size] += 1
        previous_size, previous = size, tree
    if seen != expected:
        return f"trees per line count {seen}, expected {expected}"
    return None


def _check_verify(opts: dict, lines: list[str]) -> str | None:
    doc = json.loads(lines[0])
    if len(lines) != 1 or doc.get("ok") is not True or doc.get("failure_count") != 0:
        return "verify did not report ok"
    return None


def char_polynomial(point: list[float]) -> list[float]:
    """Coefficients (constant first) of 1 + (e_1 - 1) X + e_2 X^2 + ...,
    with exactly-zero leading coefficients dropped."""
    coeffs = [1.0]
    for g in point:
        coeffs = [a + g * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    coeffs[1] -= 1.0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def from_roots(lead: float, roots: list[complex]) -> list[complex]:
    """Coefficients (constant first) of lead * prod (X - r) over ``roots``."""
    coeffs = [complex(lead)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    return coeffs


def _check_roots(opts: dict, lines: list[str]) -> str | None:
    d = int(opts["d"])
    point = [float(x) for x in opts["g"].split(",")]
    radius = float(opts.get("radius", 2.0))
    doc = json.loads(lines[0])
    if len(lines) != 1 or doc.get("d") != d or doc.get("g") != point:
        return "roots output does not echo its arguments"
    epsilon = (radius ** (1.0 / d) - 1.0) / radius
    admissible = max(abs(g) for g in point) < epsilon
    if doc.get("admissible") is not admissible or not math.isclose(
        doc.get("epsilon_R"), epsilon, rel_tol=1e-12
    ):
        return "admissibility or epsilon_R differs from (R^(1/d) - 1) / R"
    coeffs = char_polynomial(point)
    roots = [
        complex(r["re"], r["im"]) for r in doc["roots"] for _ in range(int(r["mult"]))
    ]
    if len(roots) != len(coeffs) - 1:
        return f"{len(roots)} roots with multiplicity, degree {len(coeffs) - 1}"
    # The rounding error of each rebuilt coefficient is bounded by the same
    # coefficient of lead * prod (X + |r|).
    rebuilt = from_roots(coeffs[-1], roots)
    bounds = from_roots(abs(coeffs[-1]), [-abs(r) for r in roots])
    for k, (got, want, bound) in enumerate(zip(rebuilt, coeffs, bounds)):
        if abs(got - want) > ROOTS_TOL * abs(bound):
            return f"reported roots give X^{k} coefficient {got}, expected {want}"
    inside = [r for r in roots if abs(r) < radius]
    if doc.get("inside_count") != len(inside):
        return f"inside_count {doc.get('inside_count')}, recounted {len(inside)}"
    if admissible and len(inside) != 1:
        return f"admissible point with {len(inside)} roots inside the radius"
    principal = doc.get("principal_root")
    if len(inside) == 1:
        if principal is None or complex(principal["re"], principal["im"]) != inside[0]:
            return f"principal root {principal} is not the root inside the radius"
    elif principal is not None:
        return "principal root reported without a single root inside the radius"
    return None


_CHECKS = {
    "count": _check_count,
    "series": _check_series,
    "sample": _check_sample,
    "enumerate": _check_enumerate,
    "verify": _check_verify,
    "roots": _check_roots,
}


def check(argv: list[str], returncode: int, stdout: bytes) -> str | None:
    """None if the job's output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if argv == ["--version"]:
        return None if stdout.strip() else "empty version"
    try:
        return _CHECKS[argv[0]](options(argv), _lines(stdout))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
