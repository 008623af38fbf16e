"""Characteristic polynomial of the tree generating function and its roots.

At a point g = (g_1, ..., g_D) the generating function F(g) is a root of

    Q(X) = 1 + (e_1(g) - 1) X + e_2(g) X^2 + ... + e_D(g) X^D,

where e_k is the k-th elementary symmetric polynomial of the g_i.  For any
radius R > 1, whenever max_i |g_i| < epsilon_R = (R^(1/D) - 1) / R the
polynomial has exactly one root of norm below R (a Rouché-type isolation),
and that root is F(g): the unique branch tending to 1 as g -> 0.

This module is deliberately the only floating-point one in the package:
roots come from the companion matrix (numpy.roots) under a fixed residual
contract, judged at 1/r on the reversed polynomial where the bound at r
overflows, with Newton steps on Q for a root that misses it; exact zeros
in the leading coefficients are deflated before root finding, and a root
within CLUSTER_RADIUS * min(1, |c|) of a cluster's centroid c joins it as
one root with multiplicity, after which the roots must rebuild Q
coefficient by coefficient.  The contract's four numeric constants,
RESIDUAL_TOL, POLISH_STEPS, CLUSTER_RADIUS and REBUILD_TOL, live here and
nowhere else; no option changes them.  Q travels as its coefficient tuple,
``[k]`` multiplying X^k; ``RootReport`` is an immutable NamedTuple.

numpy is imported on the first root-finding call, not with this module:
importing numpy (about 0.1 s) costs more than building a polynomial, and
a call that fails its argument checks needs no numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .errors import DegenerateError, DomainError, RootFindingFailure
from .limits import check_colors

# The backward-error bound each reported root r must meet: |Q(r)| at most
# this times sum_k |c_k| |r|^k.  ``roots_all`` reads it at each call, so a
# test can patch it.
RESIDUAL_TOL = 1e-10

# A root within this times min(1, |c|) of a cluster's centroid c joins it.
CLUSTER_RADIUS = 1e-7

# Newton steps on Q that ``roots_all`` may spend on a root failing its
# backward-error bound.
POLISH_STEPS = 3

# Allowance, relative to |c_d| prod (X + |r|), within which the reported
# roots must rebuild each coefficient of Q.  Roots that each meet
# RESIDUAL_TOL can miss by about 1e-9 together; a root that stands in for
# another misses by far more.
REBUILD_TOL = 1e-8


class RootReport(NamedTuple):
    """Roots with multiplicities and the isolation diagnostics at a radius."""

    roots: tuple[tuple[complex, int], ...]
    residual_max: float
    radius: float
    epsilon_used: float
    admissible: bool
    inside_count: int
    principal_root: complex | None


def build_char_polynomial(d: int, point: Sequence[complex]) -> tuple[complex, ...]:
    """Q(X)'s coefficients at the point, ``[k]`` multiplying X^k: elementary
    symmetric coefficients with the degree-one coefficient shifted by -1."""
    check_colors(d)
    gs = tuple(complex(g) for g in point)
    if len(gs) != d:
        raise DomainError(f"point has {len(gs)} entries but d={d}")
    if not all(cmath.isfinite(g) for g in gs):
        raise DomainError(f"point entries must be finite, got {point}")
    elementary: list[complex] = [1 + 0j]
    for g in gs:
        nxt = elementary + [0j]
        for k in range(len(nxt) - 1, 0, -1):
            nxt[k] += g * elementary[k - 1]
        elementary = nxt
    elementary[1] -= 1
    if not all(cmath.isfinite(c) for c in elementary):
        raise DomainError(f"point {point} is too large: the coefficients of Q are not finite")
    return tuple(elementary)


def _horner(coeffs: Sequence[complex], r: complex) -> tuple[complex, complex, float]:
    """Q(r), Q'(r) and the scale sum_k |c_k| |r|^k for ``coeffs``, in one Horner
    pass, in which no |r|**k overflows alone for a large root of tiny |c_k|."""
    value = slope = 0j
    scale = 0.0
    for c in reversed(coeffs):
        slope = slope * r + value
        value = value * r + c
        scale = scale * abs(r) + abs(c)
    return value, slope, scale


def _cluster(roots: Sequence[complex]) -> list[tuple[complex, int]]:
    """Greedy merge of roots into (centroid, multiplicity); see CLUSTER_RADIUS."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (abs(z), z.real, z.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(r - center) <= CLUSTER_RADIUS * min(1, abs(center)):
                members.append(r)
                break
        else:
            clusters.append([r])
    return [
        (sum(members) / len(members), len(members))
        for members in clusters
    ]


def roots_all(coefficients: Sequence[complex]) -> tuple[tuple[tuple[complex, int], ...], float]:
    """``(roots, residual_max)``: the roots of Q = sum_k coefficients[k] X^k
    with their multiplicities, via the companion matrix, and the largest |Q(r)|.

    Every reported root r must have a small backward error,
    |Q(r)| <= RESIDUAL_TOL * sum_k |c_k| |r|^k: r is then an exact root of
    a polynomial whose coefficients differ from Q's by a relative
    RESIDUAL_TOL at most.  The bound grows with |r|, so the large roots
    that appear when some |g_i| is near 0 are judged on the same footing
    as the small ones.  A root takes Newton steps on Q while it fails the
    bound, at most POLISH_STEPS of them (Press et al., Numerical Recipes,
    ``zroots``): the companion matrix loses accuracy on the small roots when
    a leading coefficient is tiny, and Newton's method restores it.  Where
    the scale overflows, the bound is checked divided by |r|^d, on Q's
    reversed coefficients at 1/r, and a root that fails it there takes no
    Newton step.  The first root that still fails it raises
    RootFindingFailure.  A root or a residual that overflows floating point
    also raises RootFindingFailure, and so do roots that, with their
    multiplicities, do not rebuild Q (``_check_rebuild``).
    """
    coeffs = list(coefficients)
    while len(coeffs) > 1 and coeffs[-1] == 0:  # deflate exact zeros (some g_i = 0)
        coeffs.pop()
    if len(coeffs) < 2:
        raise DegenerateError(
            "polynomial is constant after deflation; no roots to find"
        )
    import numpy as np  # here, not at the top: see the module docstring

    try:
        # A tiny leading coefficient overflows the companion matrix, whose
        # first row is divided by it; the roots are then not finite either.
        with np.errstate(over="raise", invalid="raise"):
            raw = np.roots(np.array(coeffs[::-1], dtype=np.complex128))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RootFindingFailure(f"the roots overflow floating point ({exc})")
    found = [complex(r) for r in raw]
    if not all(math.isfinite(abs(_horner(coeffs, r)[0])) for r in found):
        raise RootFindingFailure("the residual |Q(r)| at a root overflows floating point")
    polished, residuals = [], []
    for r in found:
        for steps_left in range(POLISH_STEPS, -1, -1):
            value, slope, scale = _horner(coeffs, r)
            residual = abs(value)
            if scale == math.inf:
                # The bound divided by |r|^d: Q's reversed coefficients at 1/r.
                reversed_value, _, scale = _horner(coeffs[::-1], 1 / r)
                residual, steps_left = abs(reversed_value), 0
            if residual <= RESIDUAL_TOL * scale:
                break
            if not steps_left or slope == 0 or not cmath.isfinite(value / slope):
                raise RootFindingFailure(
                    f"root residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} * {scale:.3e}"
                )
            r -= value / slope
        polished.append(r)
        residuals.append(abs(value))
    roots = _cluster(polished)
    _check_rebuild(coeffs, roots)
    return tuple(roots), max(residuals)


def _check_rebuild(coeffs: Sequence[complex], roots: Sequence[tuple[complex, int]]) -> None:
    """Raise RootFindingFailure unless c_d prod (X - r)^mult rebuilds each
    coefficient of Q within REBUILD_TOL times the same coefficient of
    |c_d| prod (X + |r|)^mult.  Each root's own bound cannot see a root that
    is missing: ``np.roots`` may return a second copy of one root in place of
    another, and both copies meet the bound."""
    rebuilt, bounds = [coeffs[-1]], [abs(coeffs[-1])]
    for r, mult in roots:
        for _ in range(mult):
            rebuilt = [a - r * b for a, b in zip([0j, *rebuilt], [*rebuilt, 0j])]
            bounds = [a + abs(r) * b for a, b in zip([0.0, *bounds], [*bounds, 0.0])]
    for k, (got, want, bound) in enumerate(zip(rebuilt, coeffs, bounds)):
        if not abs(got - want) <= REBUILD_TOL * bound:
            raise RootFindingFailure(
                f"the roots with their multiplicities do not rebuild coefficient {k} "
                f"of Q within a relative {REBUILD_TOL:.0e}"
            )


def rouche_isolation_check(d: int, point: Sequence[complex], radius: float) -> RootReport:
    """Count the roots of Q at the point inside |X| < radius and test the
    isolation hypothesis; d and the point are checked before the radius.

    Computes epsilon_R = (radius^(1/d) - 1) / radius and flags the point
    admissible when max_i |g_i| < epsilon_R.  At admissible points exactly
    one root lies inside, and it is the principal root (the branch of F).
    Inadmissible points still get a full report, just no guarantee.
    """
    coefficients = build_char_polynomial(d, point)
    if not 1 < radius < math.inf:
        raise DomainError(f"radius must be finite and exceed 1, got {radius}")
    epsilon = (radius ** (1.0 / d) - 1.0) / radius
    admissible = max(abs(complex(g)) for g in point) < epsilon
    roots, residual_max = roots_all(coefficients)
    inside = [(r, mult) for r, mult in roots if abs(r) < radius]
    inside_count = sum(mult for _, mult in inside)
    return RootReport(
        roots=roots,
        residual_max=residual_max,
        radius=radius,
        epsilon_used=epsilon,
        admissible=admissible,
        inside_count=inside_count,
        principal_root=inside[0][0] if inside_count == 1 else None,
    )
