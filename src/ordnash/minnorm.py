"""Minimum-norm point in the convex hull of finitely many points.

Wolfe's finite method (Wolfe, Math. Programming 1976).  A corral of at most
d + 1 affinely independent points carries the current point x, the
minimum-norm point of the corral's affine hull.  Each major cycle adds the
point that minimizes <p, x>; minor cycles then drop the points whose affine
weights turn nonpositive until the corral's affine minimizer lies inside its
hull.  Every major cycle strictly decreases ||x||, so the method ends after
finitely many small affine solves, with no step size and no iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _dot

__all__ = ["MinNormResult", "min_norm_point"]

# Wolfe gap ||x||^2 - min <p, x> at which the loop stops, as a share of
# max ||p||^2: far above the gap's rounding (a few 1e-16), and ||x||^2 then
# exceeds the hull minimum by at most twice as much.
_GAP_TOL = 1e-13


@dataclass(frozen=True)
class MinNormResult:
    point: np.ndarray  # the minimum-norm point of the hull
    gap: float  # final Wolfe gap ||z||^2 - min <z, p>
    iters: int  # major cycles
    converged: bool  # gap <= _GAP_TOL * max ||p||^2


def min_norm_point(points) -> MinNormResult:
    """Minimize ||z|| over z in conv(points).

    Stops when the Wolfe gap is at most ``_GAP_TOL * max ||p||^2``
    (``converged``), or when rounding keeps a major cycle from decreasing
    ||z||^2, which then returns the last point with its gap.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0 or not np.isfinite(pts).all():
        raise ValueError("min_norm_point needs one or more finite points")
    sq_norms = _dot(pts, pts)
    tol = _GAP_TOL * float(sq_norms.max())

    corral = np.array([np.argmin(sq_norms)])
    weights = np.ones(1)
    x = pts[corral[0]].copy()
    sq = float(_dot(x, x))
    cycles = 0
    while True:
        scores = _dot(pts, x)
        j = int(np.argmin(scores))
        gap = sq - float(scores[j])
        if gap <= tol:
            return MinNormResult(x, gap, cycles, True)
        cycles += 1

        corral, lam = np.append(corral, j), np.append(weights, 0.0)
        while True:
            # Affine weights of the minimum-norm point of aff(corral), by
            # least squares on the offsets from the first member: duplicate
            # or affinely dependent members leave it rank-deficient, and
            # its minimum-norm solution is still an affine minimizer.
            base = pts[corral[0]]
            offsets = np.linalg.lstsq((pts[corral[1:]] - base).T, -base, rcond=None)[0]
            mu = np.concatenate(([1.0 - offsets.sum()], offsets))
            if mu.min() > 0.0:
                break
            # Move from lam toward mu until the first weight reaches zero,
            # and drop the points whose weight it zeroes.
            down = np.flatnonzero(mu <= 0.0)
            w = lam[down]
            ratios = np.divide(w, w - mu[down], out=np.zeros(len(down)), where=w > 0.0)
            theta = float(ratios.min())
            lam = (1.0 - theta) * lam + theta * mu
            lam[down[np.argmin(ratios)]] = 0.0
            keep = lam > 0.0
            corral, lam = corral[keep], lam[keep]

        new_x = _dot(pts[corral].T, mu)
        new_sq = float(_dot(new_x, new_x))
        if not new_sq < sq:
            return MinNormResult(x, gap, cycles, False)
        weights, x, sq = mu, new_x, new_sq
