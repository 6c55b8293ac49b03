"""Projection-based solver for the variational reformulation of a game.

The operator evaluated at a profile x stacks one normal direction per player:
unit vectors from the player's contour normal cone, or the zero direction when
the contour set is (empirically) empty.  At a flat gradient of a utility that
is a quadratic in the own block, curved enough that its strict upper contour
set is far too small for a sample of the box to find, the point maximizes the
utility over that block up to the flatness tolerance, and the zero direction
is taken without sampling (``cones.flat_maxima``).  A profile solves the
variational problem when the natural residual

    r(x) = || x - Proj_{K(x)}(x - step * g(x)) ||

vanishes, where the projection is taken player by player with rivals fixed:
player i's block goes onto K_i(x_-i), the set ``model.feasible_region``
builds at one rival point and the verifier checks against (a plain clip on
box-only games, Dykstra's alternating projections once shared rows bind).
The iteration reads K_i at all rows as arrays: the player's box and binding
normals, and (R, k) offsets from ``model._feasible_offsets``.

``solve_svip`` iterates the projected step from several seeded interior
starting points.  Because the operator values are unit-scale, a constant step
cannot settle onto interior solutions; each player's working step is therefore
halved whenever that player stops making net progress (chatter around a
best-response manifold) and re-doubled, up to the configured step, while it
travels.  Convergence is always declared against the configured step and
tolerance, never against the internal working steps.

All restarts advance together as the rows of one (R, n) iterate; a row leaves
the loop when it converges or reaches ``max_iters``.  The loop state is arrays
only: points, operator values, an (R, P) provenance array, per-player steps,
residuals and iteration counts; ``Direction`` objects are built once, for the
returned run.  Each iteration makes one finite-difference gradient call per
utility player for all live rows (``cones.gradient_directions``), one
``cones.flat_maxima`` call per utility player for its flat rows, one clip
(box-only games) or one ``_feasible_offsets`` call and one row-batched
Dykstra per player (shared rows), and falls back to ``selection_T`` only for
rows that need it.  The starting points and the final points of every row
on shared games are each projected onto the joint region by one row-batched
Dykstra call.  Every row is bit-identical to iterating its start alone, so
results, traces and the lowest-index tie-break do not depend on R.  That is
kept by one rule: a reduction of length two or more (a block norm, a
halfspace product, the residual over the stacked vector) is one 1-D ``dot``
per contiguous row, because a matvec, ``einsum``, ``norm(axis=1)`` or a
strided row can differ from it in the last bit; length-1 reductions and
elementwise steps are vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import (
    Direction,
    Provenance,
    _row_dots,
    contour_polyhedron,
    flat_maxima,
    gradient_directions,
    gradient_normal_direction,
    polyhedral_normal_generators,
    sampled_separating_direction,
)
from .errors import InfeasibleRegionError, SeparatorError
from .model import (
    BoxOnly,
    CoordinateOrder,
    FeasibleRegion,
    GameSpec,
    PlayerId,
    Profile,
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    _feasible_offsets,
    _joint_region,
    _require_feasible,
    sample_contour,
    split_profile,
)

__all__ = [
    "SolverConfig",
    "Selection",
    "SvipSolution",
    "selection_T",
    "project_feasible",
    "natural_residual",
    "fixed_point_step",
    "solve_svip",
]

_DYKSTRA_CYCLES = 200
_DYKSTRA_MOVE_TOL = 1e-12
_ADAPT_WINDOW = 8
_STEP_FLOOR = 1e-13
_SAMPLE_COUNT = 1000  # contour draws behind one sampled selection


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the projected iteration."""

    step: float = 0.1
    tol: float = 1e-8
    max_iters: int = 10_000
    restarts: int = 16
    seed: int = 42

    def __post_init__(self):
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Selection:
    """One operator value: a direction per player plus its provenance."""

    directions: tuple[Direction, ...]
    provenance: tuple[Provenance, ...]

    @cached_property
    def stacked(self) -> np.ndarray:
        return np.concatenate([d.array for d in self.directions])

    @property
    def full_space_players(self) -> tuple[PlayerId, ...]:
        return tuple(
            i for i, p in enumerate(self.provenance) if p is Provenance.FULL_SPACE
        )

    @property
    def all_nonzero(self) -> bool:
        return all(not d.is_zero for d in self.directions)


@dataclass(frozen=True)
class SvipSolution:
    """Best run of the multistart solver."""

    point: Profile
    operator_value: tuple[Direction, ...]
    residual: float
    iters: int
    converged: bool
    restart: int
    provenance: tuple[Provenance, ...]
    trace: tuple[tuple[int, float], ...]


def selection_T(game: GameSpec, x: Profile, *, sample_seed: int = 0) -> Selection:
    """Pick one normal-cone element per player at profile ``x``.

    Mechanism precedence per player: utility gradient, then polyhedral active
    rows (lowest row index first), then a sampled separator.  The zero
    direction is returned (and flagged) when the contour set is empty or no
    nonzero element could be produced.  Where a utility's gradient is flat,
    :func:`cones.flat_maxima` decides first: at a row it marks, ``x``
    maximizes the utility over the own block up to the flatness tolerance,
    and the player gets the zero direction with ``FULL_SPACE`` provenance
    without sampling; elsewhere the flat player's contour set is sampled.
    """
    directions: list[Direction] = []
    provenance: list[Provenance] = []
    for player in range(game.n_players):
        pref = game.players[player].preference
        dim = game.dims[player]

        if isinstance(pref, TrivialZero):
            directions.append(Direction.zero(player, dim))
            provenance.append(Provenance.FULL_SPACE)
            continue

        if isinstance(pref, UtilityPreference):
            d = gradient_normal_direction(game, player, x)
            if d is not None:
                directions.append(d)
                provenance.append(Provenance.GRADIENT)
            elif flat_maxima(game, player, x.stacked[None, :])[0]:
                directions.append(Direction.zero(player, dim))
                provenance.append(Provenance.FULL_SPACE)
            else:
                d, prov = _sampled_selection(game, player, x, sample_seed)
                directions.append(d)
                provenance.append(prov)
            continue

        rows = contour_polyhedron(game, player, x)
        if rows is not None:
            gens = polyhedral_normal_generators(
                rows,
                x.block(player),
                assume_nonempty=isinstance(pref, CoordinateOrder),
            )
            if gens.provenance is Provenance.FULL_SPACE:
                directions.append(Direction.zero(player, dim))
                provenance.append(Provenance.FULL_SPACE)
            else:
                directions.append(gens.directions[0])
                provenance.append(Provenance.POLYHEDRAL)
            continue

        if isinstance(pref, ThresholdBand):
            d, prov = _sampled_selection(game, player, x, sample_seed)
            directions.append(d)
            provenance.append(prov)
            continue

        raise TypeError(f"unsupported preference {type(pref).__name__}")

    return Selection(tuple(directions), tuple(provenance))


def _sampled_selection(
    game: GameSpec, player: PlayerId, x: Profile, seed: int
) -> tuple[Direction, Provenance]:
    samples = sample_contour(game, player, x, _SAMPLE_COUNT, seed)
    dim = game.dims[player]
    if samples.size == 0:
        return Direction.zero(player, dim), Provenance.FULL_SPACE
    try:
        d = sampled_separating_direction(samples, x.block(player))
    except SeparatorError:
        return Direction.zero(player, dim), Provenance.SAMPLED
    return d, Provenance.SAMPLED


def _dykstra(
    lo: np.ndarray,
    hi: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Dykstra alternating projections of each row of ``points`` onto its region.

    Row ``r`` of the (m, dim) ``points`` is projected onto the box [lo, hi]
    intersected with {y : normals @ y <= offsets[r]}, offsets being (m, k),
    or (k,) for one region.  Every row cycles until its own iterate stops
    moving, so each row equals the projection of that point alone.  A settled
    row leaves the cycle with its value, so a batch costs about what its rows
    cost one by one.
    """
    if normals.size == 0:
        return np.clip(points, lo, hi)
    out = np.array(points, dtype=np.float64)
    if offsets.ndim == 1:  # one region for every row
        offsets = np.broadcast_to(offsets, (out.shape[0], offsets.size))
    y, rows = out, np.arange(out.shape[0])  # the rows still cycling
    corrections = np.zeros((1 + normals.shape[0],) + y.shape)
    sq_norms = np.einsum("ij,ij->i", normals, normals)
    for _ in range(_DYKSTRA_CYCLES):
        y_start = y
        w = y + corrections[0]
        y = np.clip(w, lo, hi)
        corrections[0] = w - y
        for i, normal in enumerate(normals):
            w = y + corrections[i + 1]
            excess = _row_dots(w, normal)[:, None] - offsets[:, i : i + 1]
            y = np.where(excess > 0.0, w - (excess / sq_norms[i]) * normal, w)
            corrections[i + 1] = w - y
        settled = np.maximum.reduce(np.abs(y - y_start), axis=1) < _DYKSTRA_MOVE_TOL
        count = np.count_nonzero(settled)
        if count == rows.size:
            break
        if count:
            out[rows[settled]] = y[settled]
            moving = ~settled
            y, rows, offsets = y[moving], rows[moving], offsets[moving]
            corrections = corrections[:, moving]
    out[rows] = y
    return out


def project_feasible(region: FeasibleRegion, point) -> np.ndarray:
    """Euclidean projection onto a feasible region (box and halfspaces)."""
    if region.is_empty:
        raise InfeasibleRegionError("infeasible constraint set")
    point = np.asarray(point, dtype=np.float64).ravel()[None, :]
    return _dykstra(region.lo, region.hi, region.normals, region.offsets, point)[0]


def _stack_operator(game: GameSpec, operator_value) -> np.ndarray:
    """One stacked vector from a Selection, a list of Directions or an array;
    raises ValueError unless it is finite and of the game's size."""
    if isinstance(operator_value, Selection):
        g = operator_value.stacked
    elif isinstance(operator_value, (list, tuple)) and operator_value and isinstance(
        operator_value[0], Direction
    ):
        g = np.concatenate([d.array for d in operator_value])
    else:
        g = np.asarray(operator_value, dtype=np.float64).ravel()
    if g.size != game.total_dim:
        raise ValueError(
            f"operator value has {g.size} coordinates, game has {game.total_dim}"
        )
    if not np.isfinite(g).all():
        raise ValueError(f"operator value must be finite, got {g.tolist()}")
    return g


def _row_offsets(game: GameSpec, x: np.ndarray) -> list[np.ndarray]:
    """Per player, the (m, k) offsets of K_i(x_-i) at the rivals of each row of
    ``x`` (none on box-only games).  Dropping the forced-empty masks holds only
    while the Jacobi iterate may leave the joint region and the final polish
    of every row projects it back onto it."""
    if isinstance(game.constraints, BoxOnly):
        return []
    offsets = []
    for player in range(game.n_players):
        sl = game.own_slice(player)
        rivals = np.concatenate((x[:, : sl.start], x[:, sl.stop :]), axis=1)
        offsets.append(_feasible_offsets(game, player, rivals)[0])
    return offsets


def _project_rows(game: GameSpec, offsets: list, target: np.ndarray) -> np.ndarray:
    """Project each player's block of every target row onto its feasible set at
    the player's (m, k) or (k,) ``offsets``; a clip on box-only games."""
    if isinstance(game.constraints, BoxOnly):
        return np.clip(target, game.box_lo, game.box_hi)
    out = np.empty_like(target)
    for player, rows in enumerate(offsets):
        sl = game.own_slice(player)
        lo, hi = game.player_box(player)
        out[:, sl] = _dykstra(lo, hi, game._row_split[player][1], rows, target[:, sl])
    return out


def _residuals(game: GameSpec, x: np.ndarray, g: np.ndarray, step: float, offsets) -> np.ndarray:
    """Natural residual ``||x - Proj_K(x)(x - step * g)||`` of every row of ``x``."""
    moves = x - _project_rows(game, offsets, x - step * g)
    return np.sqrt(_row_dots(moves, moves))


def natural_residual(game: GameSpec, x: Profile, operator_value, alpha: float) -> float:
    """Distance from ``x`` to the projected step taken with size ``alpha``."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    g = _stack_operator(game, operator_value)
    offsets = [region.offsets for region in _require_feasible(game, x)]
    return float(_residuals(game, x.stacked[None, :], g, alpha, offsets)[0])


def fixed_point_step(game: GameSpec, x: Profile, cfg: SolverConfig) -> Profile:
    """One projected step: every player moves simultaneously, rivals fixed at x."""
    sel = selection_T(game, x, sample_seed=cfg.seed)
    offsets = [region.offsets for region in _require_feasible(game, x)]
    target = x.stacked[None, :] - cfg.step * sel.stacked
    return split_profile(game, _project_rows(game, offsets, target))


def _starting_points(game: GameSpec, cfg: SolverConfig) -> np.ndarray:
    from scipy.stats import qmc  # deferred: importing scipy.stats is slow

    sampler = qmc.Halton(d=game.total_dim, scramble=True, seed=cfg.seed)
    unit = sampler.random(cfg.restarts)
    lo, hi = game.box_lo, game.box_hi
    points = lo + (0.1 + 0.8 * unit) * (hi - lo)  # keep starts interior to the box
    region = _joint_region(game)
    if region.is_empty:
        raise InfeasibleRegionError(
            "infeasible constraint set: no feasible starting point exists"
        )
    if isinstance(game.constraints, SharedLinear):
        points = _dykstra(region.lo, region.hi, region.normals, region.offsets, points)
    return points


def _select_rows(game: GameSpec, x: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Operator values at every row of ``x``: the stacked directions and the
    (R, P) provenance array.

    When every player has a utility or the trivial preference, one batched
    gradient call per utility player covers all rows, and trivial players
    keep the zero direction.  The flat rows of each utility player go to one
    :func:`cones.flat_maxima` call; a row it marks keeps the zero direction
    with ``FULL_SPACE`` provenance.  A row with a flat gradient that is not
    marked, and every row of any other game, gets its whole selection from
    :func:`selection_T`, the only route to polyhedral, sampled and band
    selections.  Every row equals :func:`selection_T` at that row.
    """
    g = np.zeros(x.shape)
    provenance = np.empty((x.shape[0], game.n_players), dtype=object)
    prefs = [spec.preference for spec in game.players]
    if all(isinstance(pref, (UtilityPreference, TrivialZero)) for pref in prefs):
        fallback = np.zeros(x.shape[0], dtype=bool)
        for player, pref in enumerate(prefs):
            if isinstance(pref, TrivialZero):
                provenance[:, player] = Provenance.FULL_SPACE
                continue
            directions, flat = gradient_directions(game, player, x)
            g[:, game.own_slice(player)] = directions
            provenance[:, player] = Provenance.GRADIENT
            if flat.any():
                rows = np.flatnonzero(flat)
                maxima = flat_maxima(game, player, x[rows])
                provenance[rows[maxima], player] = Provenance.FULL_SPACE
                fallback[rows[~maxima]] = True
    else:
        fallback = np.ones(x.shape[0], dtype=bool)
    if fallback.any():
        for row in np.flatnonzero(fallback):
            sel = selection_T(game, split_profile(game, x[row]), sample_seed=seed)
            g[row], provenance[row] = sel.stacked, sel.provenance
    return g, provenance


@dataclass
class _Restarts:
    """Final state of every restart, one row each."""

    points: np.ndarray
    operator: np.ndarray
    provenance: np.ndarray
    residuals: np.ndarray
    iters: np.ndarray
    converged: np.ndarray
    traces: list[list[tuple[int, float]]]


def _run_restarts(game: GameSpec, cfg: SolverConfig, starts: np.ndarray) -> _Restarts:
    """Iterate every restart as one row of a stacked (R, n) array.

    The loop state holds the live rows only.  A row leaves when it converges
    or reaches ``max_iters`` and keeps its selection at its final point.
    Each row's iterates, steps and trace equal those of its start iterated
    alone.
    """
    x = np.array(starts, dtype=np.float64)
    count = x.shape[0]
    runs = _Restarts(
        points=np.empty_like(x),
        operator=np.empty_like(x),
        provenance=np.empty((count, game.n_players), dtype=object),
        residuals=np.empty(count),
        iters=np.empty(count, dtype=int),
        converged=np.zeros(count, dtype=bool),
        traces=[[] for _ in range(count)],
    )

    def leave(rows, at, res, it):
        runs.points[rows], runs.operator[rows] = x[at], g[at]
        runs.provenance[rows], runs.residuals[rows], runs.iters[rows] = provenance[at], res[at], it

    live = np.arange(count)
    alpha = np.full((count, game.n_players), cfg.step)
    block_of = np.repeat(np.arange(game.n_players), game.dims)  # player of each coordinate
    anchor = x.copy()
    g, provenance = _select_rows(game, x, cfg.seed)
    for it in range(1, cfg.max_iters + 1):
        offsets = _row_offsets(game, x)
        res = _residuals(game, x, g, cfg.step, offsets)
        for row, value in zip(live.tolist(), res.tolist()):
            runs.traces[row].append((it, value))
        done = res <= cfg.tol
        if done.any():
            leave(live[done], done, res, it)
            runs.converged[live[done]] = True
            keep = ~done
            live, x, g, provenance = live[keep], x[keep], g[keep], provenance[keep]
            res, alpha, anchor = res[keep], alpha[keep], anchor[keep]
            if live.size == 0:
                break
            offsets = [rows[keep] for rows in offsets]

        # Per-player working steps; the reference residual above always uses
        # the configured step, so damping cannot fake convergence.
        x = _project_rows(game, offsets, x - alpha[:, block_of] * g)

        if it % _ADAPT_WINDOW == 0:
            budget = _ADAPT_WINDOW * alpha
            moves = x - anchor
            net = np.column_stack(
                [
                    np.sqrt(_row_dots(moves[:, sl], moves[:, sl]))
                    for sl in map(game.own_slice, range(game.n_players))
                ]
            )
            shrink = net <= 0.5 * budget
            grow = ~shrink & (net >= 0.9 * budget)
            alpha = np.where(grow, np.minimum(alpha * 2.0, cfg.step), alpha)
            alpha = np.where(shrink, np.maximum(alpha * 0.5, _STEP_FLOOR), alpha)
            anchor = x

        g, provenance = _select_rows(game, x, cfg.seed)
    else:
        leave(live, np.ones(live.size, dtype=bool), res, cfg.max_iters)

    if isinstance(game.constraints, SharedLinear):
        # The Jacobi update can leave a point outside the self-consistent
        # region (a residual-sized distance once converged); polish every row
        # back in and judge convergence at the polished point.
        joint = _joint_region(game)
        x = _dykstra(joint.lo, joint.hi, joint.normals, joint.offsets, runs.points)
        g, provenance = _select_rows(game, x, cfg.seed)
        res = _residuals(game, x, g, cfg.step, _row_offsets(game, x))
        runs.points, runs.operator, runs.provenance = x, g, provenance
        runs.residuals, runs.converged = res, res <= cfg.tol
    return runs


def solve_svip(game: GameSpec, cfg: SolverConfig | None = None) -> SvipSolution:
    """Multistart projected iteration; returns the run with smallest residual.

    Ties between runs break toward the lowest restart index.  Identical game
    and configuration always reproduce the same solution and trace.
    """
    cfg = cfg or SolverConfig()
    runs = _run_restarts(game, cfg, _starting_points(game, cfg))
    best = 0
    for restart in range(1, len(runs.traces)):
        if runs.residuals[restart] < runs.residuals[best]:
            best = restart
    g = runs.operator[best]
    return SvipSolution(
        point=split_profile(game, runs.points[best]),
        operator_value=tuple(
            Direction(player, tuple(g[game.own_slice(player)]))
            for player in range(game.n_players)
        ),
        residual=float(runs.residuals[best]),
        iters=int(runs.iters[best]),
        converged=bool(runs.converged[best]),
        restart=best,
        provenance=tuple(runs.provenance[best]),
        trace=tuple(runs.traces[best]),
    )
