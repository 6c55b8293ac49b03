"""Game model: players, ordinal preferences, and constraint maps.

A game couples per-player strategy boxes with an ordinal preference for each
player and a constraint map that may tie players together.  Preferences enter
only through their strict part: ``strictly_prefers(game, p, y, x)`` answers
whether player ``p`` strictly prefers deviating to own-block ``y`` while the
rivals stay at ``x``.  Everything downstream (normal cones, the solver, the
verifier) is built on that single predicate and on the feasible-region map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (
    EvaluationError,
    ExpressionError,
    GameFormatError,
    InfeasiblePointError,
    ProfileError,
    shown_number,
)
from .expressions import ColumnView, Expr, compile_expression, parse_expression

__all__ = [
    "PlayerId",
    "Block",
    "Profile",
    "UtilityPreference",
    "CoordinateOrder",
    "TrivialZero",
    "ContourRow",
    "HalfspaceContour",
    "ThresholdBand",
    "PreferenceSpec",
    "BoxOnly",
    "SharedLinear",
    "ConstraintMapSpec",
    "PlayerSpec",
    "GameSpec",
    "FeasibleRegion",
    "ValidationIssue",
    "assemble_profile",
    "split_profile",
    "strictly_prefers",
    "strict_upper_mask",
    "feasible_region",
    "sample_contour",
    "validate_spec",
]

PlayerId = int

_FEAS_TOL = 1e-9
# FeasibleRegion.linear_min enumerates vertices up to this shape, else one LP.
_VERTEX_MAX_DIM = 3
_VERTEX_MAX_ROWS = 4
# A shared row binds a player when one of its own coefficients exceeds this.
_BIND_TOL = 1e-15
# validate_spec's irreflexivity probe: this many seeded profiles.
_PROBE_COUNT = 16
_PROBE_SEED = 0


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: importing
    scipy.optimize takes most of the time of a fresh ``import ordnash``."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Block:
    """One player's strategy block."""

    player: PlayerId
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_tuple(self.values))
        if self.player < 0:
            raise ValueError(f"player index must be nonnegative, got {self.player}")
        if len(self.values) == 0:
            raise ValueError("block must have at least one coordinate")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError(f"block entries must be finite, got {self.values}")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Profile:
    """A full strategy profile, one block per player in player order."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for position, block in enumerate(self.blocks):
            if block.player != position:
                raise ProfileError(
                    f"blocks must be ordered by player; found player {block.player} "
                    f"at position {position}"
                )

    @cached_property
    def stacked(self) -> np.ndarray:
        return np.concatenate([b.array for b in self.blocks])

    def block(self, player: PlayerId) -> Block:
        return self.blocks[player]

    def rivals(self, player: PlayerId) -> np.ndarray:
        """All other blocks, concatenated in player order."""
        parts = [b.array for i, b in enumerate(self.blocks) if i != player]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def with_block(self, player: PlayerId, values: Sequence[float]) -> "Profile":
        blocks = list(self.blocks)
        blocks[player] = Block(player, _as_float_tuple(values))
        return Profile(tuple(blocks))


@dataclass(frozen=True)
class UtilityPreference:
    """Strict preference by utility comparison: y beats x iff theta(y) > theta(x).

    ``expr`` is an arithmetic expression over the profile coordinates x1..xn.
    """

    expr: str

    @cached_property
    def parsed(self) -> Expr:
        return parse_expression(self.expr)

    @cached_property
    def fn(self):
        return compile_expression(self.parsed)


@dataclass(frozen=True)
class CoordinateOrder:
    """Componentwise order on the own block; strict part is all-coordinates-strict."""


@dataclass(frozen=True)
class TrivialZero:
    """Total indifference: the strict part is empty."""


@dataclass(frozen=True)
class ContourRow:
    """One open halfspace a(x) . y < b(x) of a contour polyhedron.

    ``coeffs`` has one expression per own-block coordinate and ``offset`` is
    the right-hand side, all in the profile variables x1..xn.
    """

    coeffs: tuple[str, ...]
    offset: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(str(c) for c in self.coeffs))
        object.__setattr__(self, "offset", str(self.offset))

    @cached_property
    def parsed(self) -> tuple[Expr, ...]:
        """The coefficient expressions followed by the offset expression."""
        return tuple(parse_expression(t) for t in (*self.coeffs, self.offset))

    @cached_property
    def fns(self):
        """Compiled :attr:`parsed`, in the same order."""
        return tuple(compile_expression(e) for e in self.parsed)


@dataclass(frozen=True)
class HalfspaceContour:
    """Strict upper contour set given directly as an open polyhedron."""

    rows: tuple[ContourRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("HalfspaceContour needs at least one row")


@dataclass(frozen=True)
class ThresholdBand:
    """Two-coordinate relation: (a, b) weakly beats (x, y) iff a >= 0 and b >= y.

    The strict part is the asymmetric part of that relation.  Only defined for
    games whose profiles have exactly two coordinates.
    """


PreferenceSpec = Union[
    UtilityPreference, CoordinateOrder, TrivialZero, HalfspaceContour, ThresholdBand
]


@dataclass(frozen=True)
class BoxOnly:
    """Constraints decouple: each player moves freely in the own box."""


@dataclass(frozen=True)
class SharedLinear:
    """Shared rows A x <= b restricting each player with rivals held fixed."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_as_float_tuple(row) for row in self.a))
        object.__setattr__(self, "b", _as_float_tuple(self.b))
        if len(self.a) != len(self.b):
            raise ValueError(
                f"constraint rows ({len(self.a)}) and offsets ({len(self.b)}) disagree"
            )
        if len(self.a) == 0:
            raise ValueError("SharedLinear needs at least one row")
        widths = sorted({len(row) for row in self.a})
        if len(widths) > 1:
            raise ValueError(f"constraint rows have unequal lengths {widths}")
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.rhs).all()):
            raise ValueError("constraint rows and offsets must be finite")

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(np.array(self.a, dtype=np.float64))

    @cached_property
    def rhs(self) -> np.ndarray:
        return _read_only(np.array(self.b, dtype=np.float64))


ConstraintMapSpec = Union[BoxOnly, SharedLinear]


@dataclass(frozen=True)
class PlayerSpec:
    """Dimension, box, and preference of one player."""

    dim: int
    box: tuple[tuple[float, float], ...]
    preference: PreferenceSpec

    def __post_init__(self):
        object.__setattr__(
            self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box)
        )
        if self.dim < 1:
            raise ValueError(
                f"player dimension must be positive, got {shown_number(self.dim)}"
            )
        if len(self.box) != self.dim:
            raise ValueError(
                f"box has {len(self.box)} intervals but dim is {shown_number(self.dim)}"
            )
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"box bounds must be finite, got ({lo}, {hi})")


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of a complete game."""

    players: tuple[PlayerSpec, ...]
    constraints: ConstraintMapSpec = field(default_factory=BoxOnly)

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        if not self.players:
            raise ValueError("a game needs at least one player")

    @property
    def n_players(self) -> int:
        return len(self.players)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.dim for p in self.players)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.cumsum((0,) + self.dims[:-1]))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def own_slice(self, player: PlayerId) -> slice:
        start = self.offsets[player]
        return slice(start, start + self.dims[player])

    @cached_property
    def box_lo(self) -> np.ndarray:
        return _read_only(np.array([lo for p in self.players for lo, _ in p.box]))

    @cached_property
    def box_hi(self) -> np.ndarray:
        return _read_only(np.array([hi for p in self.players for _, hi in p.box]))

    def player_box(self, player: PlayerId) -> tuple[np.ndarray, np.ndarray]:
        sl = self.own_slice(player)
        return self.box_lo[sl], self.box_hi[sl]

    @cached_property
    def _row_split(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per player, the shared rows as :func:`_feasible_offsets` reads them:
        rival columns of A, own columns of the binding rows (the normals), and
        the indices of the binding rows and of the others (read-only, shared)."""
        split = []
        for player in range(self.n_players):
            own = np.zeros(self.total_dim, dtype=bool)
            own[self.own_slice(player)] = True
            a_own = self.constraints.matrix[:, own]
            binds = np.max(np.abs(a_own), axis=1) > _BIND_TOL
            parts = (
                self.constraints.matrix[:, ~own],
                a_own[binds],
                np.flatnonzero(binds),
                np.flatnonzero(~binds),
            )
            split.append(tuple(map(_read_only, parts)))
        return tuple(split)


@dataclass
class FeasibleRegion:
    """Box intersected with halfspaces; the feasible set of one player.

    Emptiness is reported through :attr:`is_empty`, never raised from the
    constructor, so callers can surface degenerate constraint maps as data.
    """

    lo: np.ndarray
    hi: np.ndarray
    normals: np.ndarray  # shape (k, dim); k may be zero
    offsets: np.ndarray  # shape (k,)
    forced_empty: bool = False

    def contains(self, point: np.ndarray) -> bool:
        """Whether one point lies in the region: the test of :meth:`contains_many`,
        on Python floats when the region is an interval."""
        if self.lo.size == 1:
            p = np.asarray(point, dtype=np.float64)
            if p.size == 1:
                return self._interval_contains(p.item())
        return bool(self.contains_many(point)[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Which rows of an (m, dim) array lie in the region: within ``_FEAS_TOL``
        of the box, and of each row relative to max(1, |offset|)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.forced_empty:
            return np.zeros(pts.shape[0], dtype=bool)
        mask = np.all((pts >= self.lo - _FEAS_TOL) & (pts <= self.hi + _FEAS_TOL), axis=1)
        if self.normals.size:
            slack = pts @ self.normals.T - self.offsets
            mask &= np.all(
                slack <= _FEAS_TOL * np.maximum(1.0, np.abs(self.offsets)), axis=1
            )
        return mask

    @cached_property
    def is_empty(self) -> bool:
        """No point of the region exists: :meth:`linear_min` finds none."""
        return self.linear_min(np.zeros(self.lo.size)) is None

    def linear_min(self, c: np.ndarray) -> np.ndarray | None:
        """A minimizer of ``<c, y>`` over the region, or None if it is empty.

        A box gives its best corner.  An interval (one coordinate) and a
        polytope of 2-3 coordinates give their best vertex, the first in basis
        order on ties; both are exact by construction.  More coordinates or
        rows than that, or a shape without a contained vertex, take one HiGHS
        LP, exact only up to the solver's tolerances.
        """
        if self.lo.size == 1:
            return self._interval_min(c)
        if self.forced_empty or (self.lo > self.hi).any():
            return None
        if self.normals.shape[0] == 0:
            return np.where(c > 0, self.lo, self.hi)
        if self.lo.size <= _VERTEX_MAX_DIM and self.normals.shape[0] <= _VERTEX_MAX_ROWS:
            vertices = self._vertices()
            if vertices.shape[0]:
                return vertices[int(np.argmin(vertices @ c))]
        return self._highs_min(c)

    @cached_property
    def _interval(self) -> tuple[float, float, list[tuple[float, float]]]:
        """A one-coordinate region as Python floats: lo, hi and the rows (a, b)."""
        rows = list(zip(self.normals[:, 0].tolist(), self.offsets.tolist()))
        return float(self.lo[0]), float(self.hi[0]), rows

    def _interval_contains(self, y: float) -> bool:
        """:meth:`contains_many`'s test of one point of a one-coordinate region."""
        if self.forced_empty:
            return False
        lo, hi, rows = self._interval
        if not (y >= lo - _FEAS_TOL and y <= hi + _FEAS_TOL):
            return False
        for a, b in rows:
            if not y * a - b <= _FEAS_TOL * max(1.0, abs(b)):
                return False
        return True

    def _interval_min(self, c: np.ndarray) -> np.ndarray | None:
        """:meth:`linear_min` of a one-coordinate region, on Python floats.

        The vertices are, in basis order, ``hi``, ``lo`` and ``b / a`` for each
        row with |a| >= 1e-12 (``b / a`` is bit for bit what a 1x1
        ``np.linalg.solve`` returns).  Of those the region contains,
        the first of least ``c * y`` wins, and a NaN product counts as least,
        as in ``np.argmin``.
        """
        lo, hi, rows = self._interval
        if self.forced_empty or lo > hi:
            return None
        cost = float(c[0])
        if not rows:
            return np.array([lo if cost > 0 else hi])
        if len(rows) <= _VERTEX_MAX_ROWS:
            best = least = None
            for y in [hi, lo] + [b / a for a, b in rows if abs(a) >= 1e-12]:
                if self._interval_contains(y):
                    value = y * cost
                    if value != value:
                        return np.array([y])
                    if best is None or value < least:
                        best, least = y, value
            if best is not None:
                return np.array([best])
        return self._highs_min(c)

    def _highs_min(self, c: np.ndarray) -> np.ndarray | None:
        """:meth:`linear_min` by one HiGHS LP, within the solver's tolerances."""
        result = linprog(
            c=c,
            A_ub=self.normals,
            b_ub=self.offsets,
            bounds=list(zip(self.lo, self.hi)),
            method="highs",
        )
        return result.x if result.status == 0 else None

    def _vertices(self) -> np.ndarray:
        """Vertices of a region of 2-3 coordinates in basis order: of the rows
        ``[I; -I; normals]``, every ``dim``-subset in ``itertools.combinations``
        order whose matrix has |det| >= 1e-12, solved in one stacked call, and
        kept if contained."""
        dim = self.lo.size
        a_all = np.vstack([np.eye(dim), -np.eye(dim), self.normals])
        b_all = np.concatenate([self.hi, -self.lo, self.offsets])
        bases = np.array(list(itertools.combinations(range(a_all.shape[0]), dim)))
        a_sq = a_all[bases]
        regular = np.abs(np.linalg.det(a_sq)) >= 1e-12
        points = np.linalg.solve(a_sq[regular], b_all[bases[regular]][..., None])[..., 0]
        return points[self.contains_many(points)]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by :func:`validate_spec`."""

    code: str
    message: str
    player: PlayerId | None = None


def assemble_profile(game: GameSpec, blocks: Sequence[Block]) -> Profile:
    """Assemble per-player blocks into a profile, validating coverage and dims."""
    seen: dict[int, Block] = {}
    for block in blocks:
        if block.player in seen:
            raise ProfileError(f"duplicate block for player {block.player}")
        if block.player >= game.n_players:
            raise ProfileError(
                f"player {block.player} out of range for a {game.n_players}-player game"
            )
        seen[block.player] = block
    missing = [p for p in range(game.n_players) if p not in seen]
    if missing:
        raise ProfileError(f"missing block for player(s) {missing}")
    for player, block in seen.items():
        if block.dim != game.dims[player]:
            raise ProfileError(
                f"player {player} block has dimension {block.dim}, "
                f"expected {game.dims[player]}"
            )
    return Profile(tuple(seen[p] for p in range(game.n_players)))


def split_profile(game: GameSpec, vector: Sequence[float]) -> Profile:
    """Split a stacked vector into a profile (inverse of ``Profile.stacked``)."""
    flat = np.asarray(vector, dtype=np.float64).ravel()
    if flat.size != game.total_dim:
        raise ProfileError(
            f"vector has {flat.size} coordinates, game has {game.total_dim}"
        )
    blocks = tuple(
        Block(p, tuple(flat[game.own_slice(p)])) for p in range(game.n_players)
    )
    return Profile(blocks)


def _own_block_view(
    game: GameSpec, player: PlayerId, own: np.ndarray, points: np.ndarray
) -> ColumnView:
    """The profiles ``points[r]`` with the own block replaced by each row of
    the (m, dim) ``own``, as a column view: own columns are (m,) arrays, and
    each rival column of a (u, n) ``points`` is a (u, 1) array, of shape
    (u, m, n) in all; one (n,) point gives shape-(1,) columns and (m, n)."""
    columns = list(points.T[..., None])
    columns[game.own_slice(player)] = own.T
    return ColumnView(columns)


def _rival_runs(game: GameSpec, player: PlayerId, points: np.ndarray):
    """Runs of consecutive rows of ``points`` whose rival coordinates are
    bit-identical: the first row of each run and the run of every row."""
    bits = points.view(np.uint64)
    differs = bits[1:] != bits[:-1]
    differs[:, game.own_slice(player)] = False
    new = np.concatenate(([True], differs.any(axis=1)))
    return np.flatnonzero(new), np.cumsum(new) - 1


def _utility_values(pref: UtilityPreference, batch: np.ndarray | ColumnView) -> np.ndarray:
    values = pref.fn(batch)
    if not np.all(np.isfinite(values)):
        raise EvaluationError(
            f"utility expression {pref.expr!r} evaluated to a non-finite value"
        )
    return values


def _contour_rows(
    pref: HalfspaceContour, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """HalfspaceContour rows at each of the (k, n) profiles: A (k, rows, dim), b (k, rows)."""
    values = np.array([[f(points) for f in row.fns] for row in pref.rows])
    if not np.isfinite(values).all():
        raise EvaluationError("contour row evaluated to a non-finite value")
    # values is (rows, dim + 1, k), the offset last.  One C-ordered (rows, dim)
    # matrix per profile, the layout of a single profile's rows, so that
    # ``y @ A.T`` rounds alike for one or many profiles.
    return np.ascontiguousarray(values[:, :-1].transpose(2, 0, 1)), values[:, -1].T


def evaluate_contour_rows(
    game: GameSpec, player: PlayerId, x: Profile
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate HalfspaceContour rows at profile ``x``: arrays (A, b) with A y < b."""
    pref = game.players[player].preference
    if not isinstance(pref, HalfspaceContour):
        raise GameFormatError("player preference has no contour rows")
    a, b = _contour_rows(pref, x.stacked[None, :])
    return a[0], b[0]


def _threshold_band_weak(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (a, b) weakly beats (x, y) iff a >= 0 and b >= y, on two-coordinate profiles.
    return (z[..., 0] >= 0.0) & (z[..., 1] >= w[..., 1])


def _strict_upper_table(
    game: GameSpec, player: PlayerId, candidates: np.ndarray, profiles: np.ndarray
) -> np.ndarray:
    """Strict preference of ``player`` between own-block candidates and profiles.

    ``candidates`` is an (m, dim) array of own blocks and ``profiles`` a
    (k, n) array of stacked profiles, each with its own rival coordinates.
    Entry (i, j) of the (k, m) result says whether the player, at
    ``profiles[i]``, strictly prefers moving to ``candidates[j]``, that is to
    ``profiles[i]`` with its own block replaced by ``candidates[j]``.
    Expressions are evaluated only at the given profiles and at the
    candidates placed into their rivals.  A utility, whose value at a moved
    candidate depends only on the rivals, is evaluated there once per run of
    consecutive profiles with bit-identical rivals; so a caller that stacks
    the profiles of each rival point together pays one evaluation of the
    candidates per rival point.
    """
    own = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    points = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    if own.shape[1] != game.dims[player]:
        raise ProfileError(
            f"candidates have dimension {own.shape[1]}, "
            f"player {player} has dimension {game.dims[player]}"
        )
    pref = game.players[player].preference

    if isinstance(pref, TrivialZero):
        return np.zeros((points.shape[0], own.shape[0]), dtype=bool)

    if isinstance(pref, CoordinateOrder):
        current = points[:, game.own_slice(player)]
        return np.all(own[None, :, :] > current[:, None, :], axis=2)

    if isinstance(pref, UtilityPreference):
        base = _utility_values(pref, points)
        if points.shape[0] == 1:  # one profile: no runs to look for
            moved = _utility_values(pref, _own_block_view(game, player, own, points[0]))
        else:
            first, run = _rival_runs(game, player, points)
            view = _own_block_view(game, player, own, points[first])
            moved = _utility_values(pref, view)[run]
        return moved > base[:, None]

    if isinstance(pref, HalfspaceContour):
        a, b = _contour_rows(pref, points)
        if own.shape[1] == 1:
            # One coordinate: a broadcast product, equal to the matmul up to
            # the sign of zero, which ``<`` ignores.
            lhs = own[None] * a[:, :, 0][:, None, :]
        else:
            lhs = own[None, :, :] @ a.transpose(0, 2, 1)
        return np.all(lhs < b[:, None, :], axis=2)

    if isinstance(pref, ThresholdBand):
        if game.total_dim != 2:
            raise GameFormatError(
                "ThresholdBand preference requires a two-coordinate game"
            )
        moved = _own_block_view(game, player, own, points)
        base = points[:, None, :]
        return _threshold_band_weak(moved, base) & ~_threshold_band_weak(base, moved)

    raise GameFormatError(f"unknown preference variant {type(pref).__name__}")


def strict_upper_mask(
    game: GameSpec, player: PlayerId, candidates: np.ndarray, x: Profile
) -> np.ndarray:
    """Vectorized strict preference: which candidate own-blocks beat ``x``.

    ``candidates`` is an (m, dim) array of own blocks for ``player``; returns a
    boolean array of length m.  This is :func:`_strict_upper_table` at one profile.
    """
    return _strict_upper_table(game, player, candidates, x.stacked[None, :])[0]


def strictly_prefers(
    game: GameSpec, player: PlayerId, deviation, x: Profile
) -> bool:
    """Does ``player`` strictly prefer own-block ``deviation`` over staying at ``x``?"""
    if isinstance(deviation, Block):
        deviation = deviation.array
    mask = strict_upper_mask(game, player, np.atleast_2d(deviation), x)
    return bool(mask[0])


def _feasible_offsets(
    game: GameSpec, player: PlayerId, rivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Player i's feasible set K_i(x_-i) on a game with shared rows, at one
    (r,) rival point or at each row of an (m, r) array.

    The set is the box ``game.player_box`` cut by the binding rows, whose
    normals are ``game._row_split[player][1]``.  Returns their offsets, (k,)
    or (m, k), and the 0-d or (m,) mask of rivals that violate a non-binding
    row, which empties the set.  Each row equals the one-point call bit for
    bit: one matvec per row (a batched product can differ in the last bit).
    """
    rival_a, _, binding, other = game._row_split[player]
    if rivals.ndim == 1:
        products = rival_a @ rivals
    else:
        products = np.array([rival_a @ row for row in rivals])
    offsets = game.constraints.rhs - products
    if other.size:
        forced_empty = offsets.take(other, axis=-1).min(axis=-1) < -_FEAS_TOL
    else:
        forced_empty = np.zeros(offsets.shape[:-1], dtype=bool)
    return offsets.take(binding, axis=-1), forced_empty


def feasible_region(
    game: GameSpec, player: PlayerId, rivals: Sequence[float]
) -> FeasibleRegion:
    """Feasible set K_i(x_-i) of ``player`` with the rivals fixed at ``rivals``.

    ``rivals`` concatenates the other players' blocks in player order.  This
    is the one-point case of :func:`_feasible_offsets`, which the solver
    calls at all its rows at once; the verifier checks against these regions.
    A shared row binds the player when its largest own coefficient exceeds
    1e-15 in absolute value; a row that does not is decided by the rivals
    alone, and if they violate it the region is ``forced_empty``.
    """
    rivals = np.asarray(rivals, dtype=np.float64).ravel()
    expected = game.total_dim - game.dims[player]
    if rivals.size != expected:
        raise ProfileError(
            f"rivals vector has {rivals.size} coordinates, expected {expected}"
        )
    lo, hi = game.player_box(player)
    if isinstance(game.constraints, BoxOnly):
        return FeasibleRegion(lo, hi, np.empty((0, lo.size)), np.empty(0))
    offsets, forced_empty = _feasible_offsets(game, player, rivals)
    return FeasibleRegion(lo, hi, game._row_split[player][1], offsets, bool(forced_empty))


def _joint_region(game: GameSpec) -> FeasibleRegion:
    """The self-consistent feasible set {x in box : A x <= b} over all coordinates.

    Its slice at rivals x_-i, the own blocks y with (y, x_-i) in the set, is
    player i's region :func:`feasible_region` at x_-i; the two differ only
    in how ``_FEAS_TOL`` scales a row (by max(1, |b|) here, by the row's
    offset at x_-i there).
    """
    if isinstance(game.constraints, SharedLinear):
        normals, offsets = game.constraints.matrix, game.constraints.rhs
    else:
        normals, offsets = np.empty((0, game.total_dim)), np.empty(0)
    return FeasibleRegion(game.box_lo, game.box_hi, normals, offsets)


def _require_feasible(game: GameSpec, x: Profile) -> list[FeasibleRegion]:
    """Each player's feasible region at ``x``; raises if a block lies outside its own."""
    point = x.stacked
    regions = []
    for player in range(game.n_players):
        sl = game.own_slice(player)
        rivals = np.concatenate((point[: sl.start], point[sl.stop :]))
        region = feasible_region(game, player, rivals)
        if not region.contains(point[sl]):
            raise InfeasiblePointError(
                f"player {player} block {x.block(player).values} is outside "
                f"its feasible set"
            )
        regions.append(region)
    return regions


def sample_contour(
    game: GameSpec,
    player: PlayerId,
    x: Profile,
    count: int,
    seed: int,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Seeded rejection sample of the strict upper contour set over ``bounds``.

    Returns the first ``count`` of ``max(20 * count, 2000)`` uniform draws
    from ``bounds`` (default: the player's box) that ``player`` strictly
    prefers at ``x``, in draw order, as one (m, dim) float64 array: the draws
    of ``default_rng(seed).uniform(lo, hi, (attempts, dim))``, masked and cut
    to ``count``.  ``m`` is below ``count`` (possibly 0, shape ``(0, dim)``)
    when the contour set misses the sampling box or is thin.

    The draws are made and tested in chunks from one generator, the first of
    ``2 * count`` rows and each later one twice the last, and drawing stops
    once ``count`` are accepted.  A ``Generator`` passed as ``seed`` is
    advanced only by the rows drawn.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if bounds is None:
        lo, hi = game.player_box(player)
    else:
        lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    if count == 0:
        return np.empty((0, game.dims[player]))
    attempts = max(20 * count, 2000)
    rng = np.random.default_rng(seed)
    accepted = [np.empty((0, game.dims[player]))]
    found = start = 0
    chunk = 2 * count
    while found < count and start < attempts:
        stop = min(start + chunk, attempts)
        draws = rng.uniform(lo, hi, size=(stop - start, lo.size))
        hits = draws[strict_upper_mask(game, player, draws, x)]
        accepted.append(hits)
        found += len(hits)
        start, chunk = stop, 2 * chunk
    return np.concatenate(accepted)[:count]


def _probe_profiles(game: GameSpec, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = game.box_lo, game.box_hi
    width = np.where(hi > lo, hi - lo, 1.0)
    return rng.uniform(0.0, 1.0, size=(count, game.total_dim)) * width + lo


def validate_spec(game: GameSpec) -> list[ValidationIssue]:
    """Check a game for structural problems; issues are returned, not raised."""
    issues: list[ValidationIssue] = []
    n = game.total_dim

    for idx, spec in enumerate(game.players):
        for lo, hi in spec.box:
            if lo >= hi:
                issues.append(
                    ValidationIssue(
                        "empty-interval",
                        f"player {idx} box interval [{lo}, {hi}] is empty",
                        idx,
                    )
                )
            elif not np.isfinite(hi - lo):
                issues.append(
                    ValidationIssue(
                        "box-width",
                        f"player {idx} box interval [{lo}, {hi}] is wider than "
                        f"the largest float",
                        idx,
                    )
                )
        pref = spec.preference
        if isinstance(pref, UtilityPreference):
            issues.extend(_validate_expression(lambda: (pref.parsed,), n, idx, "utility"))
        elif isinstance(pref, HalfspaceContour):
            for row_idx, row in enumerate(pref.rows):
                if len(row.coeffs) != spec.dim:
                    issues.append(
                        ValidationIssue(
                            "row-arity",
                            f"player {idx} contour row {row_idx} has "
                            f"{len(row.coeffs)} coefficients for a {spec.dim}-dimensional block",
                            idx,
                        )
                    )
                issues.extend(
                    _validate_expression(lambda: row.parsed, n, idx, f"contour row {row_idx}")
                )
        elif isinstance(pref, ThresholdBand) and n != 2:
            issues.append(
                ValidationIssue(
                    "threshold-band-arity",
                    f"ThresholdBand needs a two-coordinate game, this one has {n}",
                    idx,
                )
            )

    if isinstance(game.constraints, SharedLinear):
        if game.constraints.matrix.shape[1] != n:
            issues.append(
                ValidationIssue(
                    "constraint-arity",
                    f"constraint rows have {game.constraints.matrix.shape[1]} "
                    f"columns, game has {n} coordinates",
                )
            )
        largest = np.max(np.abs(game.constraints.matrix), axis=1, initial=0.0)
        for row in np.flatnonzero(largest <= _BIND_TOL):
            issues.append(
                ValidationIssue(
                    "constraint-row",
                    f"constraint row {row} has no coefficient above {_BIND_TOL} in "
                    f"absolute value, so it binds no player",
                )
            )

    if issues:
        return issues  # probing needs a structurally sound game

    # Sampling probe: catch non-finite utilities and contour rows that break
    # irreflexivity (the current point strictly inside its own contour set).
    probes = _probe_profiles(game, _PROBE_COUNT, _PROBE_SEED)
    for idx, spec in enumerate(game.players):
        pref = spec.preference
        if not isinstance(pref, (UtilityPreference, HalfspaceContour)):
            continue
        for row in probes:
            profile = split_profile(game, row)
            own = profile.block(idx).array
            try:
                if strictly_prefers(game, idx, own, profile):
                    issues.append(
                        ValidationIssue(
                            "irreflexivity",
                            f"player {idx} strictly prefers a point to itself "
                            f"at profile {np.round(row, 6).tolist()}",
                            idx,
                        )
                    )
                    break
            except EvaluationError as err:
                issues.append(ValidationIssue("non-finite", str(err), idx))
                break
    return issues


def _validate_expression(
    parsed, total_dim: int, player: PlayerId, where: str
) -> list[ValidationIssue]:
    """Issues of the expressions that ``parsed()`` returns from a cached parse.

    A parse error is one ``bad-expression`` issue; otherwise every variable
    beyond the game's coordinates goes into one ``unknown-variable`` issue.
    """
    try:
        exprs = parsed()
    except ExpressionError as err:
        return [
            ValidationIssue(
                "bad-expression", f"player {player} {where}: {err}", player
            )
        ]
    used = frozenset().union(*(e.variables() for e in exprs))
    out_of_range = sorted(i for i in used if i >= total_dim)
    if out_of_range:
        names = ", ".join(f"x{i + 1}" for i in out_of_range)
        return [
            ValidationIssue(
                "unknown-variable",
                f"player {player} {where} references {names} but the game has "
                f"{total_dim} coordinates",
                player,
            )
        ]
    return []
