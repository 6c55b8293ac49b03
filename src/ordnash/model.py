"""Game model: players, ordinal preferences, and constraint maps.

A game couples per-player strategy boxes with an ordinal preference for each
player and a constraint map that may tie players together.  Preferences enter
only through their strict part: ``strictly_prefers(game, p, y, x)`` answers
whether player ``p`` strictly prefers deviating to own-block ``y`` while the
rivals stay at ``x``.  Everything downstream (normal cones, the solver, the
verifier) is built on that single predicate and on the feasible-region map.
"""

from __future__ import annotations

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
# A shared row binds a player when one of its own coefficients exceeds this.
_BIND_TOL = 1e-15
# validate_spec's irreflexivity probe: this many seeded profiles.
_PROBE_COUNT = 16
_PROBE_SEED = 0


def linprog(c, A_ub, b_ub, bounds) -> np.ndarray | None:
    """A minimizer of <c, y> subject to A_ub y <= b_ub within ``bounds`` (one
    (lo, hi) pair per variable, None for no bound), or None when the LP is
    infeasible or unbounded; a non-finite input raises ValueError.

    One simplex in Chvátal's dictionary form with Bland's rule (the least
    variable index enters, and leaves on a tied ratio; only entries above
    ``_FEAS_TOL`` pivot), on a condensed tableau of one row per finite upper
    bound, one per finite lower bound, then A_ub, each in the units of
    :meth:`FeasibleRegion.contains_many`'s test: a bound row as it is, an
    A_ub row divided by max(1, |b|).  The variables are free, each split
    into two nonnegative parts.  Phase I minimizes one auxiliary x0 over
    ``g y - x0 <= h``, so its optimum is the least worst-row violation in
    those units, and the LP is infeasible when that exceeds ``_FEAS_TOL``.
    Otherwise x0 leaves the basis on the entry of largest magnitude in its
    row and stays at that optimum, so Phase II works on the rows relaxed by
    it, from a basis feasible for them, until every reduced cost is >=
    -``_FEAS_TOL``; a column without a pivot entry is a ray.  The minimizer
    is solved again from its active (relaxed) rows by elementwise
    elimination (:func:`_solve`) and returned only if it passes the
    containment test.  Every step is elementwise or a :func:`_dot`, so no
    bit depends on the BLAS kernel, and the tableau is the one (m + 1) x
    (2n + 2) array.
    """
    cost = np.asarray(c, dtype=np.float64)
    n = cost.size
    a = np.asarray(A_ub, dtype=np.float64).reshape(-1, n)
    b = np.asarray(b_ub, dtype=np.float64).ravel()
    given = [v for pair in bounds for v in pair if v is not None]
    if not np.isfinite(np.concatenate([cost, a.ravel(), b, given])).all():
        raise ValueError("linprog needs finite costs, rows, offsets and bounds")
    limits = np.array(bounds, dtype=np.float64).reshape(n, 2)  # None reads as nan
    floor, ceiling = np.where(np.isnan(limits), [-np.inf, np.inf], limits).T
    upper, lower = np.isfinite(ceiling), np.isfinite(floor)
    a_all = np.vstack([np.eye(n)[upper], -np.eye(n)[lower], a])
    b_all = np.concatenate([ceiling[upper], -floor[lower], b])
    m = b_all.size
    scale = np.concatenate([np.ones(m - b.size), np.maximum(1.0, np.abs(b))])
    rows, rhs = a_all / scale[:, None], b_all / scale
    table = np.vstack([np.column_stack([rows, -rows, -np.ones(m), rhs]), np.zeros(2 * n + 2)])
    # Variables: y's parts u (0..n-1) and v (n..2n-1), x0 (2n), row slacks.
    column, basic = np.arange(2 * n + 1), np.arange(2 * n + 1, 2 * n + 1 + m)
    violation = 0.0
    if m and rhs.min() < 0.0:
        table[m, 2 * n] = 1.0
        _exchange(table, column, basic, int(np.argmin(rhs)), 2 * n)
        _bland(table, column, basic)
        if 2 * n in basic:
            p = int(np.flatnonzero(basic == 2 * n)[0])
            violation = table[p, -1]
            if violation > _FEAS_TOL:
                return None
            _exchange(table, column, basic, p, int(np.argmax(np.abs(table[p, :-1]))))
    q = np.flatnonzero(column == 2 * n)
    table[:, -1] -= violation * table[:, q[0]]
    table[:, q] = 0.0
    full = np.concatenate([cost, -cost, np.zeros(m + 1)])
    table[m] = np.append(full[column], 0.0)
    for p in np.flatnonzero(full[basic]):
        table[m] -= full[basic[p]] * table[p]
    if not _bland(table, column, basic):
        return None
    point = np.zeros(n)
    active, free = column[column > 2 * n] - (2 * n + 1), basic[basic < 2 * n] % n
    with np.errstate(all="ignore"):  # a singular basis gives a point no test contains
        point[free] = _solve(a_all[np.ix_(active, free)], (b_all + violation * scale)[active])
        return point if _within(point[None, :], floor, ceiling, a, b)[0] else None


def _within(points, lo, hi, normals, offsets) -> np.ndarray:
    """Which rows of the (m, dim) ``points`` lie within ``_FEAS_TOL`` of the
    box [lo, hi] and of each row ``normals y <= offsets`` relative to
    max(1, |offset|): the one containment test."""
    mask = np.all((points >= lo - _FEAS_TOL) & (points <= hi + _FEAS_TOL), axis=1)
    if normals.size:
        slack = _dot(points[:, None, :], normals) - offsets
        mask &= np.all(slack <= _FEAS_TOL * np.maximum(1.0, np.abs(offsets)), axis=1)
    return mask


def _exchange(table: np.ndarray, column: np.ndarray, basic: np.ndarray, p: int, q: int) -> None:
    """Pivot the condensed tableau in place: the nonbasic variable of column
    ``q`` enters the basis at row ``p``, whose basic variable takes column
    ``q``.  The update is one elementwise outer product and subtraction."""
    pivot = table[p, q]
    row = table[p] / pivot
    row[q] = 1.0 / pivot
    col = table[:, q].copy()
    col[p] = 0.0
    table[:, q] = 0.0
    table -= np.multiply.outer(col, row)
    table[p] = row
    column[q], basic[p] = basic[p], column[q]


def _bland(table: np.ndarray, column: np.ndarray, basic: np.ndarray) -> bool:
    """Minimize the tableau's last row by Bland's rule: the column of least
    variable index with reduced cost below -``_FEAS_TOL`` enters, and of
    the rows whose entry there exceeds ``_FEAS_TOL`` the least ratio
    leaves, the least variable index on ties.  False on a ray (no such
    row), True at the optimum."""
    while True:
        entering = np.flatnonzero(table[-1, :-1] < -_FEAS_TOL)
        if entering.size == 0:
            return True
        q = int(entering[np.argmin(column[entering])])
        rows = np.flatnonzero(table[:-1, q] > _FEAS_TOL)
        if rows.size == 0:
            return False
        ratios = np.maximum(table[rows, -1], 0.0) / table[rows, q]
        ties = rows[ratios == ratios.min()]
        _exchange(table, column, basic, int(ties[np.argmin(basic[ties])]), q)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of the square system ``a x = b`` by Gaussian elimination
    with partial pivoting (the first row of largest magnitude on ties) on
    the augmented matrix, then back substitution that divides x_k by its
    pivot and subtracts its products from the rows above, k from last to
    first.  Every step is elementwise and in index order, so the bits do not
    depend on the LAPACK build.  A singular ``a`` divides by a zero pivot, so
    its solution is not finite."""
    m = np.column_stack((a, b))
    for k in range(len(b)):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, p]] = m[[p, k]]
        m[k + 1 :] -= np.multiply.outer(m[k + 1 :, k] / m[k, k], m[k])
    for k in reversed(range(len(b))):
        m[k, -1] /= m[k, k]
        m[:k, -1] -= m[:k, k] * m[k, -1]
    return m[:, -1]


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over the last axis of ``a * b``, the other axes broadcast.

    The sum starts at the first product (so products that are all -0.0 sum
    to -0.0) and adds the others in index order, each by one elementwise
    multiply and one elementwise add.  So every entry rounds as a
    left-to-right loop over Python floats does, whatever the layout or the
    number of the rows and whatever BLAS kernel the host picks; a matmul,
    ``dot``, ``einsum`` or ``np.sum`` promises none of that.  An empty last
    axis sums to +0.0.
    """
    if a.shape[-1] == 0:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    total = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


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
        return _within(pts, self.lo, self.hi, self.normals, self.offsets)

    @cached_property
    def is_empty(self) -> bool:
        """No point of the region exists: :meth:`linear_min` finds none."""
        return self.linear_min(np.zeros(self.lo.size)) is None

    def linear_min(self, c: np.ndarray) -> np.ndarray | None:
        """A minimizer of ``<c, y>`` over the region, or None if it is empty.

        A box gives its best corner, and an interval (one coordinate) its best
        vertex, the first in basis order on ties; both are exact by
        construction.  Every other region with rows, and an interval none of
        whose vertices it contains, is one in-house simplex
        (:func:`linprog`), whose minimizer passes :meth:`contains_many`.
        """
        if self.lo.size == 1:
            return self._interval_min(c)
        if self.forced_empty or (self.lo > self.hi).any():
            return None
        if self.normals.shape[0] == 0:
            return np.where(c > 0, self.lo, self.hi)
        return linprog(c, self.normals, self.offsets, list(zip(self.lo, self.hi)))

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
        row with |a| >= 1e-12.  Of those the region contains, the first of
        least ``c * y`` wins, and a NaN product counts as least, as in
        ``np.argmin``.  Where it contains none, :func:`linprog` decides.
        """
        lo, hi, rows = self._interval
        if self.forced_empty or lo > hi:
            return None
        cost = float(c[0])
        if not rows:
            return np.array([lo if cost > 0 else hi])
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
        return linprog(c, self.normals, self.offsets, [(lo, hi)])


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


_CONTOUR_NON_FINITE = "contour row evaluated to a non-finite value"


def _contour_arrays(
    pref: HalfspaceContour, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """HalfspaceContour rows at each of the (k, n) profiles, unchecked:
    A (k, rows, dim), b (k, rows), as views of one (rows, dim + 1, k) array."""
    values = np.array([[f(points) for f in row.fns] for row in pref.rows])
    return values[:, :-1].transpose(2, 0, 1), values[:, -1].T


def _contour_rows(
    pref: HalfspaceContour, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_contour_arrays`, raising EvaluationError on a non-finite value."""
    a, b = _contour_arrays(pref, points)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EvaluationError(_CONTOUR_NON_FINITE)
    return a, b


def _inside_contour(own: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether own blocks lie strictly inside the open polyhedra ``a y < b``
    of k profiles: ``own`` is (k or 1, m, dim), ``a`` (k, rows, dim) and
    ``b`` (k, rows); returns the (k, m) mask.

    A product (:func:`_dot`) that overflows (inf, or NaN where infs of both
    signs meet) is computed again with its row, offset too, divided by the
    row's largest magnitude, as ``cones._normalize_rows`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # recomputed below
        lhs = _dot(own[:, :, None, :], a[:, None, :, :])
    inside = lhs < b[:, None, :]
    if not np.isfinite(lhs).all():
        profile, point, row = np.nonzero(~np.isfinite(lhs))
        normals, offsets = a[profile, row], b[profile, row]
        peak = np.abs(normals).max(axis=1)
        blocks = np.broadcast_to(own, (a.shape[0],) + own.shape[1:])[profile, point]
        with np.errstate(over="ignore"):  # a sum past the float range compares as inf
            scaled = _dot(blocks, normals / peak[:, None])
        inside[profile, point, row] = scaled < offsets / peak
    return np.all(inside, axis=2)


def evaluate_contour_rows(
    game: GameSpec, player: PlayerId, x: Profile
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate HalfspaceContour rows at profile ``x``: arrays (A, b) with A y < b."""
    pref = game.players[player].preference
    if not isinstance(pref, HalfspaceContour):
        raise GameFormatError("player preference has no contour rows")
    a, b = _contour_rows(pref, x.stacked[None, :])
    return a[0], b[0]


def _require_band_game(game: GameSpec) -> None:
    if game.total_dim != 2:
        raise GameFormatError("ThresholdBand preference requires a two-coordinate game")


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
        return _inside_contour(own[None], a, b)

    if isinstance(pref, ThresholdBand):
        _require_band_game(game)
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
    row, which empties the set.  The products with the rival columns are
    index-order sums (:func:`_dot`), so each row equals the one-point call
    bit for bit.
    """
    rival_a, _, binding, other = game._row_split[player]
    offsets = game.constraints.rhs - _dot(rivals[..., None, :], rival_a)
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


def _contour_box(
    game: GameSpec, player: PlayerId, x: Profile, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """A box inside [lo, hi] that holds the strict upper contour set U of
    ``player`` at ``x`` cut to [lo, hi], read from the class's mask in
    :func:`_strict_upper_table`; None when that cut has no interior.

    ``TrivialZero`` has no U.  ``CoordinateOrder``'s U lies above the own
    block.  At the profile (u, v), ``ThresholdBand``'s U lies in {first >= 0,
    second >= v}; it is empty for the sole owner of the first coordinate when
    u >= 0, and for the sole owner of the second when u < 0.  A raised floor
    that meets ``hi`` leaves a face of zero volume, which is None too.  Every
    other class gets [lo, hi] itself.
    """
    pref = game.players[player].preference
    if isinstance(pref, TrivialZero):
        return None
    sl = game.own_slice(player)
    if isinstance(pref, CoordinateOrder):
        floor = x.stacked[sl]
    elif isinstance(pref, ThresholdBand):
        _require_band_game(game)
        first, second = x.stacked
        if (sl.stop == 1 and first >= 0.0) or (sl.start == 1 and first < 0.0):
            return None
        floor = np.array([0.0, second])[sl]
    else:
        return lo, hi
    lo = np.maximum(lo, floor)
    return None if np.any(lo >= hi) else (lo, hi)


def sample_contour(
    game: GameSpec,
    player: PlayerId,
    x: Profile,
    count: int,
    seed: int,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Seeded rejection sample of the strict upper contour set over ``bounds``.

    The draws are made over the class box (lo, hi): the part of ``bounds``
    (default: the player's box) where the preference's class lets the
    contour set lie.  It is above the own block for ``CoordinateOrder``,
    above the band's floor for ``ThresholdBand``, and all of ``bounds`` for
    utilities and ``HalfspaceContour``.  It holds every point of the contour
    set within ``bounds``, so the sample is uniform on that set either way.
    Returns the first ``count`` of ``max(20 * count, 2000)`` uniform draws
    from (lo, hi) that ``player`` strictly prefers at ``x``, in draw order,
    as one (m, dim) float64 array: the draws of
    ``default_rng(seed).uniform(lo, hi, (attempts, dim))``, masked and cut to
    ``count``.  ``m`` is below ``count`` (possibly 0, shape ``(0, dim)``)
    when the contour set misses the sampling box or is thin.  Nothing is
    drawn where the class box is empty: for ``TrivialZero``, for a band
    owner on the wrong side of 0, or where a floor meets the top of
    ``bounds``.

    The draws are made and tested in chunks from one generator, the first of
    ``2 * count`` rows and each later one twice the last, and drawing stops
    once ``count`` are accepted.  A ``Generator`` passed as ``seed`` is
    advanced only by the rows drawn.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if bounds is None:
        bounds = game.player_box(player)
    lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    box = None if count == 0 else _contour_box(game, player, x, lo, hi)
    if box is None:
        return np.empty((0, game.dims[player]))
    lo, hi = box
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
    return rng.uniform(0.0, 1.0, size=(count, game.total_dim)) * (hi - lo) + lo


def validate_spec(game: GameSpec) -> list[ValidationIssue]:
    """Check a game for structural problems; issues are returned, not raised.

    The structural checks come first: box intervals, expressions (parse
    errors, variables beyond the game), contour row and ThresholdBand
    arity, and shared rows that bind no player.  Only a game without such
    issues is probed, for the irreflexive strict preferences that the
    existence results assume: at 16 seeded profiles drawn uniformly from the
    box, each utility and HalfspaceContour player is evaluated once, at all
    of them (:func:`_probe_issue`), and its first non-finite value or
    profile that strictly beats itself, in probe order, is one issue.
    """
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

    probes = _probe_profiles(game, _PROBE_COUNT, _PROBE_SEED)
    for idx in range(game.n_players):
        issue = _probe_issue(game, idx, probes)
        if issue is not None:
            issues.append(issue)
    return issues


def _probe_issue(
    game: GameSpec, player: PlayerId, probes: np.ndarray
) -> ValidationIssue | None:
    """The first problem of ``player`` at the (k, n) ``probes``, in probe
    order: a non-finite utility or contour row, or a probe whose own block
    lies strictly inside its own contour set there (irreflexivity broken).
    At one probe, a non-finite value is reported first.

    The player's expressions are evaluated once, at all probes.  A utility
    can fail only by a non-finite value, since no value exceeds itself.  A
    contour player's rows are tested only at each probe's own block, the
    deviation irreflexivity is about; no probe's block meets another
    probe's rows.
    """
    pref = game.players[player].preference
    try:
        if isinstance(pref, UtilityPreference):
            _utility_values(pref, probes)
            return None
        if not isinstance(pref, HalfspaceContour):
            return None
        a, b = _contour_arrays(pref, probes)
    except EvaluationError as err:
        return ValidationIssue("non-finite", str(err), player)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    inside = np.zeros(finite.shape, dtype=bool)
    own = probes[finite, None, game.own_slice(player)]
    inside[finite] = _inside_contour(own, a[finite], b[finite])[:, 0]
    failing = np.flatnonzero(~finite | inside)
    if failing.size == 0:
        return None
    first = failing[0]
    if not finite[first]:
        return ValidationIssue("non-finite", _CONTOUR_NON_FINITE, player)
    return ValidationIssue(
        "irreflexivity",
        f"player {player} strictly prefers a point to itself "
        f"at profile {np.round(probes[first], 6).tolist()}",
        player,
    )


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
