"""Classical majorization, Lorenz curves, convex-sum checks, and the Gini index.

The Lorenz curve here follows the concentration convention: components are
ranked in decreasing order, so the polyline runs from (0,0) to (1,1) at or
above the diagonal, and a higher curve means a more concentrated array.
Classical majorization (equal totals, ranked prefix sums dominated) is
exactly "the curve lies below"; the Gini index is the normalized area
between the curve and the diagonal, which makes it an order morphism for
that relation.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Optional

from .core import (
    Array,
    MajorizeError,
    as_eps,
    _require_same_length,
)


class ZeroTotal(MajorizeError):
    """The Lorenz curve of an all-zero array is undefined."""


def lorenz_points(x: Array) -> tuple[tuple[float, float], ...]:
    """Cumulative-share polyline of the decreasingly ranked components.

    The points run from (0,0) to exactly (1,1).  Abscissas step uniformly;
    ordinates are the cumulative shares of the ranked components, so they are
    non-decreasing with non-increasing increments (a concave polyline).

    Raises ZeroTotal when the array sums to zero.
    """
    ranked = sorted(x.values, reverse=True)
    run = list(accumulate(ranked))
    total = run[-1]  # the last running sum, not sum(), so the last share is exactly 1.0
    if total <= 0.0:
        raise ZeroTotal("all components are zero; the curve is undefined")
    n = len(ranked)
    return ((0.0, 0.0), *((k / n, r / total) for k, r in enumerate(run, start=1)))


def classical_majorizes(x: Array, y: Array, tol: Optional[float] = None) -> bool:
    """True iff the ranked prefix sums of x never exceed y's and totals match.

    Equivalently, the Lorenz curve of y lies (weakly) above that of x.
    """
    _require_same_length(x, y)
    eps = as_eps(tol)
    rx = sorted(x.values, reverse=True)
    ry = sorted(y.values, reverse=True)
    sx = sy = 0.0
    for k in range(len(rx) - 1):
        sx += rx[k]
        sy += ry[k]
        if sx > sy + eps:
            return False
    sx += rx[-1]
    sy += ry[-1]
    return abs(sx - sy) <= eps


def default_convex_family(x: Array, y: Array) -> tuple[Callable[[float], float], ...]:
    """The fixed convex test family that ``convex_inequality_holds`` checks.

    v -> v**2; the hinges v -> max(v - t, 0) with t at the deciles of the
    combined components; and v -> exp(v / m) with m the combined maximum
    (omitted when m = 0).
    """
    combined = list(x.values) + list(y.values)
    family: list[Callable[[float], float]] = [lambda v: v * v]

    def hinge(t: float) -> Callable[[float], float]:
        return lambda v: v - t if v > t else 0.0

    # the inclusive deciles, as statistics.quantiles(combined, n=10, method="inclusive")
    d = sorted(combined)
    last = len(d) - 1
    for i in range(1, 10):
        j, delta = divmod(i * last, 10)
        family.append(hinge((d[j] * (10 - delta) + d[j + 1] * delta) / 10))
    m = max(combined)
    if m > 0.0:
        family.append(lambda v: math.exp(v / m))
    return tuple(family)


def convex_inequality_holds(x: Array, y: Array, tol: Optional[float] = None) -> bool:
    """True iff sum(phi(x_i)) <= sum(phi(y_i)) + eps for every phi in the default family.

    The family is ``default_convex_family(x, y)``.

    This is the testable direction of the convex-sum characterization of
    classical majorization; a finite family cannot certify the converse.
    The sums are ``math.fsum``, correctly rounded on every Python version, so
    they do not depend on the order of the values.
    """
    _require_same_length(x, y)
    eps = as_eps(tol)
    for phi in default_convex_family(x, y):
        if math.fsum(map(phi, x.values)) > math.fsum(map(phi, y.values)) + eps:
            return False
    return True


def gini(x: Array) -> float:
    """Gini concentration index in [0, 1).

    Computed geometrically as twice the area between the Lorenz polyline and
    the diagonal (exact trapezoid sum), so it inherits the curve's ordering:
    classically majorized arrays never have a larger index, with equality
    only when the curves coincide.

    Raises ZeroTotal for all-zero arrays.
    """
    pts = lorenz_points(x)
    area = 0.0
    for (a0, o0), (a1, o1) in zip(pts, pts[1:]):
        area += (o0 + o1) * (a1 - a0)
    # area already carries the factor 2 from the trapezoid rule; rounding can take a
    # flat curve's area just below 1, so the index is kept in its range
    return max(area - 1.0, 0.0)
