"""Characteristic polynomial of the tree generating function and its roots.

At a point g = (g_1, ..., g_D) the generating function F(g) is a root of

    Q(X) = 1 + (e_1(g) - 1) X + e_2(g) X^2 + ... + e_D(g) X^D,

where e_k is the k-th elementary symmetric polynomial of the g_i.  For any
radius R > 1, whenever max_i |g_i| < epsilon_R = (R^(1/D) - 1) / R the
polynomial has exactly one root of norm below R (a Rouché-type isolation),
and that root is F(g): the unique branch tending to 1 as g -> 0.

This module is deliberately the only floating-point one in the package:
roots come from the companion matrix (numpy.roots) under an explicit
residual contract, exact zeros in the leading coefficients are deflated
before root finding, and near-coincident roots are merged into one root
with multiplicity within a documented clustering radius.

numpy is imported on the first root-finding call, not with this module:
the package imports this module, and importing numpy (about 0.1 s) costs
more than the work of most other commands, none of which uses floating
point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateError, DomainError, RootFindingFailure
from .limits import check_colors

# Backward-error bound: |Q(r)| relative to sum_k |c_k| |r|^k at each root r.
DEFAULT_RESIDUAL_TOL = 1e-10

# Roots closer than this are reported as one root with multiplicity.
CLUSTER_RADIUS = 1e-7


@dataclass(frozen=True)
class CharPolynomial:
    """Q(X) at a fixed point g; ``coefficients[k]`` multiplies X^k."""

    d: int
    point: tuple[complex, ...]
    coefficients: tuple[complex, ...]

    def __call__(self, x: complex) -> complex:
        value = 0j
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    @property
    def effective_degree(self) -> int:
        """Degree after dropping exactly-zero leading coefficients.

        Only exact zeros deflate (they arise when some g_i = 0); there is no
        epsilon threshold here.
        """
        degree = len(self.coefficients) - 1
        while degree > 0 and self.coefficients[degree] == 0:
            degree -= 1
        return degree


@dataclass(frozen=True)
class RootReport:
    """Roots with multiplicities plus optional isolation diagnostics."""

    roots: tuple[tuple[complex, int], ...]
    residual_max: float
    radius: float | None = None
    epsilon_used: float | None = None
    admissible: bool | None = None
    inside_count: int | None = None
    principal_root: complex | None = None


def build_char_polynomial(d: int, point: Sequence[complex]) -> CharPolynomial:
    """Assemble Q(X) from the point: elementary symmetric coefficients with
    the degree-one coefficient shifted by -1."""
    check_colors(d)
    gs = tuple(complex(g) for g in point)
    if len(gs) != d:
        raise DomainError(f"point has {len(gs)} entries, expected d={d}")
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
    return CharPolynomial(d, gs, tuple(elementary))


def _cluster(roots: Sequence[complex], radius: float = CLUSTER_RADIUS) -> list[tuple[complex, int]]:
    """Greedy merge of near-coincident roots into (centroid, multiplicity)."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (abs(z), z.real, z.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(r - center) <= radius:
                members.append(r)
                break
        else:
            clusters.append([r])
    return [
        (sum(members) / len(members), len(members))
        for members in clusters
    ]


def roots_all(q: CharPolynomial, residual_tol: float = DEFAULT_RESIDUAL_TOL) -> RootReport:
    """All complex roots of the deflated polynomial, via the companion matrix.

    Every reported root r must have a small backward error,
    |Q(r)| <= residual_tol * sum_k |c_k| |r|^k: r is then an exact root of
    a polynomial whose coefficients differ from Q's by a relative
    ``residual_tol`` at most.  The bound grows with |r|, so the large roots
    that appear when some |g_i| is near 0 are judged on the same footing
    as the small ones.  Otherwise RootFindingFailure carries the largest
    residual |Q(r)|, which the report also gives as ``residual_max``.
    A root or a residual that overflows floating point also raises
    RootFindingFailure.  ``residual_tol`` must be finite and >= 0.
    """
    if not 0 <= residual_tol < math.inf:
        raise DomainError(f"residual_tol must be finite and >= 0, got {residual_tol}")
    coeffs = q.coefficients[: q.effective_degree + 1]
    if len(coeffs) < 2:
        raise DegenerateError(
            "polynomial is constant after deflation; no roots to find"
        )
    import numpy as np  # here, so that commands which find no roots start without numpy

    try:
        # A tiny leading coefficient overflows the companion matrix, whose
        # first row is divided by it; the roots are then not finite either.
        with np.errstate(over="raise", invalid="raise"):
            raw = np.roots(np.array(coeffs[::-1], dtype=np.complex128))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RootFindingFailure(
            f"the roots overflow floating point ({exc})", best_residual=math.inf
        )
    found = [complex(r) for r in raw]
    residuals = [abs(q(r)) for r in found]
    if not all(math.isfinite(residual) for residual in residuals):
        raise RootFindingFailure(
            "the residual |Q(r)| at a root overflows floating point", best_residual=math.inf
        )
    residual_max = max(residuals, default=0.0)
    for r, residual in zip(found, residuals):
        # Horner form: |r|**k alone overflows for large roots of tiny |c_k|.
        scale = 0.0
        for c in reversed(coeffs):
            scale = scale * abs(r) + abs(c)
        if not residual <= residual_tol * scale:
            raise RootFindingFailure(
                f"root residual {residual:.3e} exceeds {residual_tol:.1e} * {scale:.3e}",
                best_residual=residual_max,
            )
    return RootReport(roots=tuple(_cluster(found)), residual_max=residual_max)


def rouche_isolation_check(
    q: CharPolynomial, radius: float, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> RootReport:
    """Count roots inside |X| < radius and test the isolation hypothesis.

    Computes epsilon_R = (radius^(1/d) - 1) / radius and flags the point
    admissible when max_i |g_i| < epsilon_R.  At admissible points exactly
    one root lies inside, and it is the principal root (the branch of F).
    Inadmissible points still get a full report, just no guarantee.
    """
    if not 1 < radius < math.inf:
        raise DomainError(f"radius must be finite and exceed 1, got {radius}")
    epsilon = (radius ** (1.0 / q.d) - 1.0) / radius
    admissible = max(abs(g) for g in q.point) < epsilon
    base = roots_all(q, residual_tol)
    inside = [(r, mult) for r, mult in base.roots if abs(r) < radius]
    inside_count = sum(mult for _, mult in inside)
    principal = inside[0][0] if inside_count == 1 else None
    return RootReport(
        roots=base.roots,
        residual_max=base.residual_max,
        radius=radius,
        epsilon_used=epsilon,
        admissible=admissible,
        inside_count=inside_count,
        principal_root=principal,
    )


def d2_closed_form(g1: complex, g2: complex) -> tuple[complex, complex]:
    """The two roots of Q at d=2, principal root first.

    With s = 1 - g1 - g2 and disc = sqrt(s^2 - 4 g1 g2) (principal branch),
    the roots are (s -+ disc) / (2 g1 g2); the minus combination tends to 1
    as g -> 0.  Each root is evaluated in its rationalized form
    (r_- * r_+ = 1/(g1 g2)) so the subtractive cancellation near g = 0
    never degrades the small root.
    """
    g1 = complex(g1)
    g2 = complex(g2)
    product = g1 * g2
    if product == 0:
        raise DegenerateError("g1 * g2 must be nonzero; use roots_all after deflation")
    s = 1 - g1 - g2
    disc = cmath.sqrt(s * s - 4 * product)
    plus = s + disc
    minus = s - disc
    if abs(plus) >= abs(minus):
        return 2 / plus, plus / (2 * product)
    return minus / (2 * product), 2 / minus
