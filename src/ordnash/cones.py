"""Normal directions of strict upper contour sets.

Three mechanisms produce elements of the normal cone of a player's strict
upper contour set at the current point:

* ``gradient_normal_direction`` -- the normalized negative utility gradient,
  by central finite differences (valid for concave utilities); it is the
  one-profile case of ``gradient_directions``, which the solver calls on all
  of its restarts at once; where the gradient is flat, ``flat_maxima`` tells
  which profiles maximize a quadratic utility over the own block;
* ``polyhedral_normal_generators`` -- active-row normals when the contour set
  is an open polyhedron;
* ``sampled_separating_direction`` -- a separator recovered from an inner
  sample of the contour set via the minimum-norm point of the sample hull.

The empty contour set has normal cone equal to the whole space; that case is
flagged with the ``FULL_SPACE`` provenance instead of a direction list.  The
selection takes it also at a flat maximum, whose strict upper contour set
lies within the flatness tolerance of the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EvaluationError,
    GameFormatError,
    InteriorPointError,
    SeparatorError,
)
from .minnorm import min_norm_point
from .model import (
    Block,
    CoordinateOrder,
    GameSpec,
    HalfspaceContour,
    PlayerId,
    Profile,
    UtilityPreference,
    _dot,
    evaluate_contour_rows,
    linprog,
)

__all__ = [
    "Provenance",
    "Direction",
    "ConeGenerators",
    "own_gradients",
    "gradient_directions",
    "gradient_normal_direction",
    "own_quadratic",
    "flat_maxima",
    "polyhedral_normal_generators",
    "contour_polyhedron",
    "sampled_separating_direction",
    "cone_membership",
    "zero_in_hull",
]

_UNIT_TOL = 1e-12
_FD_STEP = 1e-6  # central-difference step of the utility gradient
_FLAT_TOL = 1e-10  # a gradient norm at most this is flat
# A second difference of flat_maxima is trusted to this share of the largest
# utility value it reads: far above the rounding of the differences, so
# utilities whose terms cancel by up to about 1e6 are still decided safely.
_HESSIAN_RTOL = 1e-9
# flat_maxima marks a row only when the ball that holds its strict upper
# contour set spans at most this share of the widest own box side, so that a
# uniform draw over the box lands in it with probability at most 1e-9.
_FLAT_SHARE = 1e-9
_HULL_TOL = 1e-9  # a hull min-norm point at most this short counts as zero
_FEASIBLE_MARGIN = 1e-9  # Chebyshev radius that makes {a y < b} nonempty
_ACTIVE_TOL = 1e-9  # a contour row with slack at least -this at the point is active


class Provenance(str, Enum):
    """How a cone element was obtained."""

    GRADIENT = "gradient"
    POLYHEDRAL = "polyhedral"
    SAMPLED = "sampled"
    FULL_SPACE = "full-space"


@dataclass(frozen=True)
class Direction:
    """A unit direction (or the distinguished zero direction) for one player."""

    player: PlayerId
    vector: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(float(v) for v in self.vector))
        norm = float(np.sqrt(_dot(self.array, self.array)))
        # A non-finite entry gives a NaN or infinite norm, which fails both tests.
        if not (norm == 0.0 or abs(norm - 1.0) <= _UNIT_TOL):
            raise ValueError(
                f"direction must be unit or zero, got norm {norm!r}"
            )

    @classmethod
    def unit(cls, player: PlayerId, vector) -> "Direction":
        arr = np.asarray(vector, dtype=np.float64)
        norm = np.sqrt(_dot(arr, arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(player, tuple(arr / norm))

    @classmethod
    def zero(cls, player: PlayerId, dim: int) -> "Direction":
        return cls(player, (0.0,) * dim)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.vector, dtype=np.float64)

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.vector)


@dataclass(frozen=True)
class ConeGenerators:
    """A finite generator set for (part of) a normal cone."""

    player: PlayerId
    directions: tuple[Direction, ...]
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        for d in self.directions:
            if d.player != self.player:
                raise ValueError(
                    f"generator for player {d.player} in a set for player {self.player}"
                )


def own_gradients(game: GameSpec, player: PlayerId, points: np.ndarray) -> np.ndarray:
    """Own-gradients of the player's utility at many profiles.

    ``points`` is an (R, n) array of stacked profiles.  Central differences
    with step ``_FD_STEP`` are taken by one compiled call on the (2 dim R, n)
    shifted profiles; returns the (R, dim) gradients, each row bit-equal to
    the computation at that profile alone.  Raises ``EvaluationError`` where
    a utility value is non-finite.
    """
    pref = game.players[player].preference
    if not isinstance(pref, UtilityPreference):
        raise GameFormatError(
            f"player {player} has no utility; gradient direction undefined"
        )
    dim = game.dims[player]
    start = game.own_slice(player).start
    base = np.asarray(points, dtype=np.float64)
    base = base.reshape(-1, base.shape[-1])
    batch = base.repeat(2 * dim, axis=0)
    shifted = batch.reshape(base.shape[0], dim, 2, base.shape[1])
    for k in range(dim):  # rows 2k, 2k+1 of each profile move coordinate k up, down
        shifted[:, k, 0, start + k] += _FD_STEP
        shifted[:, k, 1, start + k] -= _FD_STEP
    values = pref.fn(batch)
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        bad = base[int(np.argmin(finite.reshape(base.shape[0], -1).all(axis=1)))]
        raise EvaluationError(
            f"utility expression {pref.expr!r} non-finite near {bad.tolist()}"
        )
    pairs = values.reshape(-1, 2)
    return ((pairs[:, 0] - pairs[:, 1]) / (2.0 * _FD_STEP)).reshape(-1, dim)


def gradient_directions(
    game: GameSpec, player: PlayerId, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized negative own-gradients of the utility at many profiles.

    ``points`` is an (R, n) array of stacked profiles; the gradients are
    those of :func:`own_gradients`.  Returns the (R, dim) unit directions
    and the (R,) mask of flat rows, whose gradient norm is at most
    ``_FLAT_TOL`` and whose direction row is zero.  Each row is bit-equal to
    the computation at that profile alone: the block norms are index-order
    sums (:func:`model._dot`).
    """
    grad = own_gradients(game, player, points)
    norms = np.sqrt(_dot(grad, grad))
    flat = norms <= _FLAT_TOL
    # A flat row divides by norm + 1 (any nonzero value) and is zeroed below.
    directions = -grad / (norms + flat)[:, None]
    unit = np.sqrt(_dot(directions, directions))
    if np.count_nonzero(flat):
        directions[flat], unit[flat] = 0.0, 1.0
    if np.maximum.reduce(np.abs(unit - 1.0), initial=0.0) > _UNIT_TOL:
        raise ValueError(f"direction must be unit or zero, got norms {unit!r}")
    return directions, flat


def gradient_normal_direction(game: GameSpec, player: PlayerId, x: Profile) -> Direction | None:
    """Normalized negative own-gradient of the utility, or None when flat.

    For a concave utility the returned direction lies in the normal cone of
    the strict upper contour set at ``x``.  Returns None when the gradient
    norm is at most ``_FLAT_TOL``.  This is the one-profile case of
    :func:`gradient_directions`.
    """
    directions, flat = gradient_directions(game, player, x.stacked[None, :])
    return None if flat[0] else Direction(player, tuple(directions[0]))


def _stencil(dim: int) -> np.ndarray:
    """Own-block offsets of the second differences: 0, then +e_k and -e_k
    for each k, then e_k + e_l for each k < l."""
    eye = np.eye(dim)
    pairs = [eye[k] + eye[l] for k in range(dim) for l in range(k + 1, dim)]
    return np.vstack([np.zeros((1, dim)), np.stack([eye, -eye], axis=1).reshape(-1, dim), *pairs])


def own_quadratic(game: GameSpec, player: PlayerId) -> bool:
    """Is the player's preference a utility of degree at most 2 in the own
    block (``Expr.degree``), so that its own Hessian depends on the rivals
    alone?"""
    pref = game.players[player].preference
    if not isinstance(pref, UtilityPreference):
        return False
    sl = game.own_slice(player)
    degree = pref.parsed.degree(frozenset(range(sl.start, sl.stop)))
    return degree is not None and degree <= 2


def flat_maxima(game: GameSpec, player: PlayerId, points: np.ndarray) -> np.ndarray:
    """Which flat profiles maximize the player's utility over the own block.

    ``points`` is an (m, n) array of stacked profiles at which
    :func:`gradient_directions` finds the gradient flat.  The (m,) result
    marks a row when the utility's degree in the own block is at most 2, so
    that its own Hessian H depends on the rivals alone, and when H, from
    unit-step second differences of the compiled utility around the row (one
    compiled call on the stacked stencil), is negative definite by more than
    ``_HESSIAN_RTOL`` of the largest value read.  Then u(y) > u(x) needs
    ||y - x|| < 2 ||grad u(x)|| / lambda_min(-H), and at a flat row the
    gradient norm is at most ``_FLAT_TOL``: the strict upper contour set lies
    in the ball of diameter 4 ``_FLAT_TOL`` / lambda_min(-H) around x.  The
    row is marked only when that diameter is at most ``_FLAT_SHARE`` of the
    widest side of the player's box, too small for a uniform sample of the
    box to find; a small curvature (``-1e-12*(x1-0.5)^2``) gives a ball
    wider than the box, and its rows stay unmarked.  Any other row, a
    non-finite value among them, is left unmarked.  Each row is decided as
    it would be alone.
    """
    pref = game.players[player].preference
    points = np.asarray(points, dtype=np.float64).reshape(-1, game.total_dim)
    if not own_quadratic(game, player):
        return np.zeros(points.shape[0], dtype=bool)
    sl = game.own_slice(player)
    dim = game.dims[player]
    steps = _stencil(dim)
    batch = np.repeat(points[:, None, :], steps.shape[0], axis=1)
    batch[:, :, sl] += steps
    values = pref.fn(batch)
    finite = np.isfinite(values).all(axis=1)
    values = np.where(finite[:, None], values, 0.0)  # eigvalsh needs finite input
    center, up, down = values[:, 0], values[:, 1 : 2 * dim : 2], values[:, 2 : 2 * dim + 1 : 2]
    hessian = np.empty((points.shape[0], dim, dim))
    hessian[:, range(dim), range(dim)] = (up + down) - 2.0 * center[:, None]
    pair = 2 * dim + 1
    for k in range(dim):
        for l in range(k + 1, dim):
            cross = ((values[:, pair] - up[:, k]) - up[:, l]) + center
            hessian[:, k, l] = hessian[:, l, k] = cross
            pair += 1
    # An error of margin in each entry moves an eigenvalue by at most dim * margin.
    margin = dim * _HESSIAN_RTOL * np.abs(values).max(axis=1)
    curvature = -np.linalg.eigvalsh(hessian).max(axis=1)  # lambda_min(-H)
    lo, hi = game.player_box(player)
    small = 4.0 * _FLAT_TOL <= _FLAT_SHARE * np.max(hi - lo) * curvature
    return finite & (curvature > margin) & small


def _normalize_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale rows to unit normals; returns (a, b, keep) with zero rows dropped.

    A row whose squares overflow the norm is divided, offset too, by its
    largest magnitude first; every other row is scaled as it is.
    """
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norms = np.sqrt(_dot(a, a))
    overflowed = ~np.isfinite(norms)
    if overflowed.any():
        peak = np.where(overflowed, np.abs(a).max(axis=1), 1.0)
        a, b = a / peak[:, None], b / peak
        norms = np.sqrt(_dot(a, a))
    keep = norms > 1e-15
    scale = np.where(keep, norms, 1.0)
    return a / scale[:, None], b / scale, keep


def _strictly_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    """Is the open polyhedron {y : a y < b} nonempty (with unit-normal rows)?"""
    dim = a.shape[1]
    # max t subject to a y + t <= b, t <= 1; strictly feasible iff optimum > 0.
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([a, np.ones((a.shape[0], 1))])
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b,
        bounds=[(None, None)] * dim + [(None, 1.0)],
        method="highs",
    )
    if result.status != 0:
        return False
    return float(result.x[-1]) > _FEASIBLE_MARGIN


def polyhedral_normal_generators(
    rows: tuple[np.ndarray, np.ndarray],
    xblock: Block,
    *,
    assume_nonempty: bool = False,
) -> ConeGenerators:
    """Normal-cone generators of an open polyhedron {y : A y < b} at ``xblock``.

    Rows at (or beyond) their boundary at ``xblock`` contribute their outward
    normals, ordered by row index.  An empty polyhedron yields the full-space
    flag with no directions.  A point strictly inside every row is an error:
    the normal cone there is trivial.
    """
    a_raw, b_raw = (np.asarray(v, dtype=np.float64) for v in rows)
    a_raw = np.atleast_2d(a_raw)
    point = xblock.array
    if a_raw.shape[1] != point.size:
        raise GameFormatError(
            f"contour rows have {a_raw.shape[1]} columns, block has {point.size}"
        )
    a, b, keep = _normalize_rows(a_raw, b_raw)
    # A zero row 0 y < b is vacuous for b > 0 and kills the set for b <= 0.
    if np.any(~keep & (b_raw <= 0.0)):
        return ConeGenerators(xblock.player, (), Provenance.FULL_SPACE)
    a, b = a[keep], b[keep]
    if a.shape[0] == 0:
        raise InteriorPointError(
            "contour polyhedron is the whole space; interior point has trivial cone"
        )
    if not assume_nonempty and not _strictly_feasible(a, b):
        return ConeGenerators(xblock.player, (), Provenance.FULL_SPACE)
    slack = _dot(a, point) - b
    active = slack >= -_ACTIVE_TOL
    if not np.any(active):
        raise InteriorPointError(
            "point is strictly inside the contour set; interior point has trivial cone"
        )
    directions = tuple(
        Direction.unit(xblock.player, a[i]) for i in np.flatnonzero(active)
    )
    return ConeGenerators(xblock.player, directions, Provenance.POLYHEDRAL)


def contour_polyhedron(
    game: GameSpec, player: PlayerId, x: Profile
) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows (A, b) with U = {y : A y < b} when the contour set is polyhedral.

    CoordinateOrder contours are the open dominance orthant; HalfspaceContour
    rows are evaluated at ``x``.  Returns None for other preference variants.
    """
    pref = game.players[player].preference
    if isinstance(pref, CoordinateOrder):
        own = x.block(player).array
        return -np.eye(own.size), -own
    if isinstance(pref, HalfspaceContour):
        return evaluate_contour_rows(game, player, x)
    return None


def _stack_samples(samples) -> np.ndarray:
    """Samples as rows of one array: an (m, dim) array or a sequence of Blocks/rows."""
    if isinstance(samples, np.ndarray):
        return np.atleast_2d(samples.astype(np.float64, copy=False))
    rows = [s.array if isinstance(s, Block) else np.asarray(s, float) for s in samples]
    return np.vstack(rows) if rows else np.empty((0, 0))


def sampled_separating_direction(samples, xblock: Block) -> Direction | None:
    """Separator from an inner sample of a convex contour set.

    Computes the minimum-norm point z of conv{y - x} over the samples and
    returns the unit direction -z/||z||.  Returns None when there are no
    samples (the empirical contour set is empty).  Raises
    :class:`SeparatorError` when z counts as zero (:func:`_is_zero`): the
    hull of the samples already surrounds the point, so no separator exists.
    """
    pts = _stack_samples(samples)
    if pts.shape[0] == 0:
        return None
    z = min_norm_point(pts - xblock.array).point
    if _is_zero(z):
        raise SeparatorError(
            "no separator found: sample hull reaches within "
            f"{float(np.sqrt(_dot(z, z))):.3e} of the point"
        )
    return Direction.unit(xblock.player, -z)


def _is_zero(z: np.ndarray) -> bool:
    """Does the hull min-norm point ``z`` count as zero?  One rule for every hull test."""
    return float(np.sqrt(_dot(z, z))) <= _HULL_TOL


def cone_membership(
    direction: Direction,
    samples,
    xblock: Block,
    tol: float = 1e-7,
) -> bool:
    """Does ``direction`` make a nonpositive (within tol) product with every sample offset?"""
    pts = _stack_samples(samples)
    if pts.shape[0] == 0:
        return True
    offsets = pts - xblock.array
    return bool(np.all(_dot(offsets, direction.array) <= tol))


def zero_in_hull(generators) -> bool:
    """Is the zero vector in the convex hull of the generator directions?"""
    if isinstance(generators, ConeGenerators):
        vectors = [d.array for d in generators.directions]
    else:
        vectors = [
            g.array if isinstance(g, Direction) else np.asarray(g, dtype=np.float64)
            for g in generators
        ]
    if not vectors:
        return False
    return _is_zero(min_norm_point(np.vstack(vectors)).point)
