"""The crescent bound for the lower half of the degenerate (theta = 0) zone.

The lower half-polygon Z- is sandwiched between two congruent circles: C-_L
through the left boundary chain and C-_R through the right chain (centers one
unit edge apart).  Any circle C(r) about the pole image o meets the crescent
between them in an arc whose angle beta is independent of r, and beta < alpha/2
-- which is the missing bound for arcs crossing Z- alone.

Working in the normalization where the two circles have unit radius, the rhomb
side is L = 2 sin(alpha / 2) and n = pi / arcsin(L / 2) becomes a continuous
variable.  This module provides both the closed-form tangents of alpha and
beta in terms of L and an independent geometric oracle that intersects the
actual circles (in mpmath arbitrary precision), so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def alpha_from_n(n: float) -> float:
    """alpha = 2*pi/n, n a continuous parameter >= 2."""
    if n <= 2.0:
        raise ValueError("n must exceed 2")
    return 2.0 * math.pi / n


def side_from_n(n: float) -> float:
    """Rhomb side L = 2 sin(alpha/2) in the unit-circle normalization."""
    return 2.0 * math.sin(math.pi / n)


def n_from_side(L: float) -> float:
    """Inverse of side_from_n: n = pi / arcsin(L/2)."""
    if not 0.0 < L < 2.0:
        raise ValueError("side length must lie in (0, 2)")
    return math.pi / math.asin(L / 2.0)


def tan_alpha(L: float) -> float:
    """tan(alpha) as a function of the side L; infinite at L = sqrt(2)."""
    den = 2.0 - L * L
    if den == 0.0:
        return math.inf
    return L * math.sqrt(4.0 - L * L) / den


def alpha_from_side(L: float) -> float:
    """alpha recovered on the correct branch (alpha is obtuse for L > sqrt 2)."""
    return math.atan2(L * math.sqrt(4.0 - L * L), 2.0 - L * L)


def tan_beta(L):
    """tan(beta) for the crescent arc, in the same normalization.

    Written exactly in the raw quotient form (numerator and denominator kept
    separate, nested radicals unexpanded) so it can be cross-checked against
    the independently derived geometric value; algebraic simplification is
    exercised in the tests instead.
    """
    import mpmath as mp

    L = mp.mpf(L)
    root = mp.sqrt(4 - L**2)
    nested = mp.sqrt(L**4 * (4 - L**2))
    num = 3 * (L**4 - 4 * L**2 - root * nested)
    den = L * (9 * root * L**2 - 36 * root + nested)
    return num / den


def beta_from_side(L: float) -> float:
    """beta = arctan(tan beta); the tangent is positive for all L in (0, 2)."""
    import mpmath as mp

    return float(mp.atan(tan_beta(L)))


def beta_alpha_ratio(n: float) -> float:
    """beta/alpha at continuous n; tends to 1/3 as n grows, 1/2 at n = 3."""
    L = side_from_n(n)
    return beta_from_side(L) / alpha_from_side(L)


# ---------------------------------------------------------------------------
# geometric oracle: intersect the actual circles


@dataclass(frozen=True)
class CrescentGeometry:
    """Unit-radius circles around the lower half-polygon, o at the origin."""

    n: float
    alpha: float
    scale: float  # unit-edge chain coordinates are multiplied by this
    center_left: complex
    center_right: complex

    def radius_window(self) -> tuple[float, float]:
        """Open interval of r for which C(r) crosses both circles."""
        dl, dr = abs(self.center_left), abs(self.center_right)
        return max(dl - 1.0, dr - 1.0), min(dl + 1.0, dr + 1.0)


def crescent_geometry(n: float) -> CrescentGeometry:
    """Circle centers from the analytic chain, valid for continuous n.

    In unit-edge coordinates the left chain turns by alpha*min(k, n-k); its
    lower portion lies on a circle of radius 1/(2 sin(alpha/2)) whose center
    has the closed form below, and the right chain on its translate by one.
    Scaling by 2 sin(alpha/2) normalizes both radii to 1.
    """
    alpha = alpha_from_n(n)
    rot = complex(math.cos(alpha), math.sin(alpha))
    mid = (1.0 / rot + 1.0) / (1.0 - 1.0 / rot)  # lower-chain anchor, unit-edge frame
    center_left = mid + 1.0 / (rot - 1.0)
    center_right = center_left + 1.0
    scale = 2.0 * math.sin(alpha / 2.0)
    return CrescentGeometry(n, alpha, scale, center_left * scale, center_right * scale)


def _circle_circle_points(center, r) -> tuple:
    """The two intersections of C(r) about the origin with the unit circle at
    ``center``; mpmath precision."""
    import mpmath as mp

    c = mp.mpc(center)
    d = abs(c)
    a = (r * r - 1 + d * d) / (2 * d)
    h2 = r * r - a * a
    if h2 < 0:
        raise ValueError("circles do not intersect")
    h = mp.sqrt(h2)
    base = c / d * a
    off = mp.mpc(0, 1) * c / d * h
    return base + off, base - off


def crescent_beta_geometric(n: float, r: float | None = None, dps: int = 40) -> float:
    """beta measured by intersecting C(r) with the two circles directly.

    Works at elevated precision: near the window edges the crossings become
    tangential and double precision loses digits.  The arc is identified as
    the candidate whose midpoint direction hits the crescent (inside the
    left-chain circle, outside the right-chain one).
    """
    import mpmath as mp

    geo = crescent_geometry(n)
    lo, hi = geo.radius_window()
    if r is None:
        r = 0.5 * (lo + hi)
    if not lo < r < hi:
        raise ValueError(f"radius {r} outside the crossing window ({lo}, {hi})")
    with mp.workdps(dps):
        rr = mp.mpf(r)
        left = _circle_circle_points(geo.center_left, rr)
        right = _circle_circle_points(geo.center_right, rr)
        cl, cr = mp.mpc(geo.center_left), mp.mpc(geo.center_right)
        # B: the crossing of the left-chain circle that bounds the crescent,
        # i.e. the one farther outside the right-chain circle; D: the crossing
        # of the right-chain circle deeper inside the left-chain circle.
        b = max(left, key=lambda p: abs(p - cr))
        d = min(right, key=lambda p: abs(p - cl))
        span = abs(mp.arg(b) - mp.arg(d))
        return float(min(span, 2 * mp.pi - span))


WINDOW_MARGIN = 1e-6  # share of the radius window that constancy_deviation skips at each end


def constancy_deviation(n: float, radii: int = 50, dps: int = 40) -> float:
    """Max spread of the geometric beta over radii spanning the window."""
    geo = crescent_geometry(n)
    lo, hi = geo.radius_window()
    margin = WINDOW_MARGIN * (hi - lo)
    values = [
        crescent_beta_geometric(n, lo + margin + (hi - lo - 2 * margin) * i / (radii - 1), dps)
        for i in range(radii)
    ]
    return max(values) - min(values)
