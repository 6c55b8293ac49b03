"""Projection-based solver for the variational reformulation of a game.

The operator evaluated at a profile x stacks one normal direction per player:
unit vectors from the player's contour normal cone, or the zero direction when
the contour set is (empirically) empty.  A profile solves the variational
problem when the natural residual

    r(x) = || x - Proj_{K(x)}(x - step * g(x)) ||

vanishes, where the projection is taken player by player with rivals fixed:
player i's block goes onto K_i(x_-i) = ``model.feasible_region(game, i,
rivals)``, the same map the verifier checks against (a plain clip on box-only
games, Dykstra's alternating projections once shared rows bind).

``solve_svip`` iterates the projected step from several seeded interior
starting points.  Because the operator values are unit-scale, a constant step
cannot settle onto interior solutions; each player's working step is therefore
halved whenever that player stops making net progress (chatter around a
best-response manifold) and re-doubled, up to the configured step, while it
travels.  Convergence is always declared against the configured step and
tolerance, never against the internal working steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.stats import qmc

from .cones import (
    Direction,
    Provenance,
    contour_polyhedron,
    gradient_normal_direction,
    polyhedral_normal_generators,
    sampled_separating_direction,
)
from .errors import (
    InfeasiblePointError,
    InfeasibleRegionError,
    SeparatorError,
)
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
    feasible_region,
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


def selection_T(
    game: GameSpec,
    x: Profile,
    *,
    sample_count: int = 1000,
    sample_seed: int = 0,
) -> Selection:
    """Pick one normal-cone element per player at profile ``x``.

    Mechanism precedence per player: utility gradient, then polyhedral active
    rows (lowest row index first), then a sampled separator.  The zero
    direction is returned (and flagged) when the contour set is empty or no
    nonzero element could be produced.
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
            else:
                d, prov = _sampled_selection(game, player, x, sample_count, sample_seed)
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
            if gens.provenance is Provenance.FULL_SPACE or not gens.directions:
                directions.append(Direction.zero(player, dim))
                provenance.append(Provenance.FULL_SPACE)
            else:
                directions.append(gens.directions[0])
                provenance.append(Provenance.POLYHEDRAL)
            continue

        if isinstance(pref, ThresholdBand):
            d, prov = _sampled_selection(game, player, x, sample_count, sample_seed)
            directions.append(d)
            provenance.append(prov)
            continue

        raise TypeError(f"unsupported preference {type(pref).__name__}")

    return Selection(tuple(directions), tuple(provenance))


def _sampled_selection(
    game: GameSpec, player: PlayerId, x: Profile, count: int, seed: int
) -> tuple[Direction, Provenance]:
    samples = sample_contour(game, player, x, count, seed)
    dim = game.dims[player]
    if samples.size == 0:
        return Direction.zero(player, dim), Provenance.FULL_SPACE
    try:
        d = sampled_separating_direction(samples, x.block(player))
    except SeparatorError:
        return Direction.zero(player, dim), Provenance.SAMPLED
    if d is None:
        return Direction.zero(player, dim), Provenance.FULL_SPACE
    return d, Provenance.SAMPLED


def _project_box_halfspaces(region: FeasibleRegion, point: np.ndarray) -> np.ndarray:
    """Dykstra alternating projections onto the region's box and halfspaces."""
    lo, hi, normals, offsets = region.lo, region.hi, region.normals, region.offsets
    if normals.size == 0:
        return np.clip(point, lo, hi)
    sets = 1 + normals.shape[0]
    corrections = np.zeros((sets, point.size))
    sq_norms = np.einsum("ij,ij->i", normals, normals)
    y = np.asarray(point, dtype=np.float64).copy()
    for _ in range(_DYKSTRA_CYCLES):
        y_start = y.copy()
        w = y + corrections[0]
        y = np.clip(w, lo, hi)
        corrections[0] = w - y
        for i in range(normals.shape[0]):
            w = y + corrections[i + 1]
            excess = normals[i] @ w - offsets[i]
            if excess > 0.0:
                y = w - (excess / sq_norms[i]) * normals[i]
            else:
                y = w
            corrections[i + 1] = w - y
        if float(np.max(np.abs(y - y_start))) < _DYKSTRA_MOVE_TOL:
            break
    return y


def project_feasible(region: FeasibleRegion, point) -> np.ndarray:
    """Euclidean projection onto a feasible region (box and halfspaces)."""
    if region.is_empty:
        raise InfeasibleRegionError("infeasible constraint set")
    return _project_box_halfspaces(region, np.asarray(point, dtype=np.float64))


def _require_feasible(game: GameSpec, x: Profile) -> list[FeasibleRegion]:
    """Each player's feasible region at ``x``; raises if a block lies outside its own."""
    regions = []
    for player in range(game.n_players):
        region = feasible_region(game, player, x.rivals(player))
        if not region.contains(x.block(player).array):
            raise InfeasiblePointError(
                f"player {player} block {x.block(player).values} is outside "
                f"its feasible set"
            )
        regions.append(region)
    return regions


def _stack_operator(game: GameSpec, operator_value) -> np.ndarray:
    """One stacked vector from a Selection, a list of Directions or an array."""
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
    return g


def _project_blocks(game: GameSpec, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Project each player's target block onto its feasible set, rivals fixed at ``x``."""
    if isinstance(game.constraints, BoxOnly):
        return np.clip(target, game.box_lo, game.box_hi)
    out = np.empty_like(target)
    for player in range(game.n_players):
        sl = game.own_slice(player)
        rivals = np.concatenate((x[: sl.start], x[sl.stop :]))
        out[sl] = _project_box_halfspaces(feasible_region(game, player, rivals), target[sl])
    return out


def _residual(game: GameSpec, x: np.ndarray, g: np.ndarray, step: float) -> float:
    """Natural residual ``||x - Proj_K(x)(x - step * g)||`` at the stacked profile ``x``."""
    return float(np.linalg.norm(x - _project_blocks(game, x, x - step * g)))


def _joint_region(game: GameSpec) -> FeasibleRegion:
    """The self-consistent feasible set {x in box : A x <= b} over all coordinates."""
    if isinstance(game.constraints, SharedLinear):
        normals, offsets = game.constraints.matrix, game.constraints.rhs
    else:
        normals, offsets = np.empty((0, game.total_dim)), np.empty(0)
    return FeasibleRegion(
        game.box_lo.copy(), game.box_hi.copy(), normals.copy(), offsets.copy()
    )


def natural_residual(game: GameSpec, x: Profile, operator_value, alpha: float) -> float:
    """Distance from ``x`` to the projected step taken with size ``alpha``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    g = _stack_operator(game, operator_value)
    _require_feasible(game, x)
    return _residual(game, x.stacked, g, alpha)


def fixed_point_step(game: GameSpec, x: Profile, cfg: SolverConfig) -> Profile:
    """One projected step: every player moves simultaneously, rivals fixed at x."""
    sel = selection_T(game, x, sample_seed=cfg.seed)
    _require_feasible(game, x)
    point = x.stacked
    return split_profile(
        game, _project_blocks(game, point, point - cfg.step * sel.stacked)
    )


def _starting_points(game: GameSpec, cfg: SolverConfig) -> np.ndarray:
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
        points = np.array([project_feasible(region, p) for p in points])
    return points


def _run_single(
    game: GameSpec,
    cfg: SolverConfig,
    start: np.ndarray,
) -> tuple[np.ndarray, Selection, float, int, bool, list[tuple[int, float]]]:
    x = start.copy()
    alpha = np.full(game.n_players, cfg.step)
    anchor = x.copy()
    trace: list[tuple[int, float]] = []
    sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)
    residual = float("inf")
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = sel.stacked
        residual = _residual(game, x, g, cfg.step)
        trace.append((it, residual))
        if residual <= cfg.tol:
            converged = True
            break

        # Per-player working steps; the reference residual above always uses
        # the configured step, so damping cannot fake convergence.
        x = _project_blocks(game, x, x - np.repeat(alpha, game.dims) * g)

        if it % _ADAPT_WINDOW == 0:
            for player in range(game.n_players):
                sl = game.own_slice(player)
                net = float(np.linalg.norm(x[sl] - anchor[sl]))
                budget = _ADAPT_WINDOW * alpha[player]
                if net <= 0.5 * budget:
                    alpha[player] = max(alpha[player] * 0.5, _STEP_FLOOR)
                elif net >= 0.9 * budget:
                    alpha[player] = min(alpha[player] * 2.0, cfg.step)
            anchor = x.copy()

        sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)

    if converged and isinstance(game.constraints, SharedLinear):
        # The Jacobi update can leave a converged point a residual-sized
        # distance outside the self-consistent region; polish it back in.
        x = project_feasible(_joint_region(game), x)
        sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)
        residual = _residual(game, x, sel.stacked, cfg.step)
        converged = residual <= cfg.tol
    return x, sel, residual, it, converged, trace


def solve_svip(game: GameSpec, cfg: SolverConfig | None = None) -> SvipSolution:
    """Multistart projected iteration; returns the run with smallest residual.

    Ties between runs break toward the lowest restart index.  Identical game
    and configuration always reproduce the same solution and trace.
    """
    cfg = cfg or SolverConfig()
    starts = _starting_points(game, cfg)
    best: tuple[float, int] | None = None
    best_payload = None
    for restart, start in enumerate(starts):
        x, sel, residual, iters, converged, trace = _run_single(game, cfg, start)
        if best is None or residual < best[0]:
            best = (residual, restart)
            best_payload = (x, sel, residual, iters, converged, trace, restart)
    x, sel, residual, iters, converged, trace, restart = best_payload
    return SvipSolution(
        point=split_profile(game, x),
        operator_value=sel.directions,
        residual=residual,
        iters=iters,
        converged=converged,
        restart=restart,
        provenance=sel.provenance,
        trace=tuple(trace),
    )
