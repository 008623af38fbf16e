"""Every size limit of the command line, in one table, behind one check.

The paper's objects have no natural size limit, and the library takes any
size that Python's recursion limit allows: a ProfileCountTable builds its
memo without recursion and unranks with one frame per tree level, so trees
up to about 950 levels deep unrank (996 from a top-level script under the
default limit of 1000) and deeper ones end in RecursionError, unchecked.
The caps exist so that each CLI command finishes in about ten seconds or
less and no decimal count it prints reaches Python's 4300-digit limit on
int-to-str conversion; ``cli`` applies them to its input before any work.
The README's "Budgets and caps" table lists these values with the worst
measured time at each.  Caps keyed by the number of colors d hold one entry
per d in 2..MAX_COLORS.  ``check_int`` is the one check of an integer
argument, in the library and the command line alike.  The numeric bounds
of root finding are not size limits; they are constants of ``roots``.
"""

from __future__ import annotations

from .errors import BudgetExceeded, DomainError

# Largest number of colors; keeps the profile spaces walked by verifiers
# desk-sized.
MAX_COLORS = 8

CAPS: dict[str, int | dict[int, int]] = {
    # Series truncation order: series, verify recursion|geometric|convolution.
    "order": {2: 20, 3: 12, 4: 8, 5: 8, 6: 8, 7: 8, 8: 8},
    # Enumeration line count: enumerate --max-lines, verify oracle --order.
    "max_lines": {2: 8, 3: 8, 4: 5, 5: 4, 6: 4, 7: 4, 8: 4},
    # Profile total of a ProfileCountTable (sample); keeps the memo small.
    "profile total": {2: 30, 3: 15, 4: 10, 5: 10, 6: 10, 7: 10, 8: 10},
    # count --profile total and the level n of count, series and verify
    # convolution: at 1000 and 1000 a count has at most 1613 digits (d=8).
    "count profile total": 1000,
    "level": 1000,
    # verify recursion|geometric --n-max.
    "n_max": 5,
    # verify fuss-catalan and narayana --order: the largest orders whose
    # walk covers at most 10^4 profiles.
    "fuss-catalan order": {2: 140, 3: 38, 4: 20, 5: 14, 6: 11, 7: 9, 8: 8},
    "narayana order": 139,
    # sample --count.
    "sample count": 2000,
}


def check_int(name: str, value, low: int | None = 0) -> int:
    """Return ``value`` if it is an int (bools rejected) of at least ``low``,
    or of any size when ``low`` is None; raise DomainError otherwise."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def check_colors(d: int) -> int:
    """Return ``d`` if it is a supported number of colors, an int in
    2..MAX_COLORS; raise DomainError otherwise."""
    if not isinstance(d, int) or not 2 <= d <= MAX_COLORS:
        raise DomainError(f"d must be an integer in 2..{MAX_COLORS}, got {d!r}")
    return d


def check_profile(d: int, counts) -> tuple[int, ...]:
    """Return ``counts`` as a color profile for ``d`` colors: a tuple of d
    non-negative ints (bools rejected); raise DomainError otherwise."""
    check_colors(d)
    counts = tuple(counts)
    if len(counts) != d:
        raise DomainError(f"profile has {len(counts)} entries but d={d} colors")
    if any(type(c) is not int or c < 0 for c in counts):
        raise DomainError(f"profile entries must be non-negative integers: {counts}")
    return counts


def check_cap(name: str, value: int, d: int | None = None) -> int:
    """Return ``value`` if ``check_int`` accepts it and it is at most
    ``CAPS[name]``, the cap taken for ``d`` colors when it is per-d; raise
    BudgetExceeded above the cap."""
    check_int(name, value)
    cap = CAPS[name]
    if isinstance(cap, dict):
        cap = cap[check_colors(d)]
    if value > cap:
        where = "" if d is None else f" for d={d}"
        raise BudgetExceeded(f"{name} {value} exceeds the cap of {cap}{where}")
    return value
