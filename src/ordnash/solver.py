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

Finishes.  Every ``_ADAPT_WINDOW`` iterations (the joint step also at
iteration 1), after the selection, each live row is offered one candidate
point.  The row takes it only if the unchanged convergence test passes
there: the selection at the candidate and its residual at the configured
step, at most the tolerance.  The row then takes that selection too, the
next iteration measures the same residual and the row leaves converged, so
a finish cannot fake convergence; a row whose tries all fail iterates
exactly as it would without them.  There are two candidate rules:

- Newton finish.  On box-only games where every player is trivial or has a
  utility of degree at most 2 in the own block (``cones.own_quadratic``, the
  test ``flat_maxima`` makes), the equilibrium conditions on the coordinates
  strictly inside the box are a small system G = 0 in the stacked raw
  own-gradients G (``cones.own_gradients``, the gradient the selection
  normalizes).  The candidate is one Newton step on those free coordinates,
  with a Jacobian from unit-step central differences of G (exact for
  quadratic utilities), offered only if it lies in the box without
  clipping.  Utilities of higher own-degree never try.  Concave quadratic
  games converge in about 10-50 iterations where step halving takes about
  250.  The first try waits one window: at a start every coordinate is
  free, so the candidate is the unconstrained equilibrium, usually outside
  the box, and an early try costs more than it saves.
- Joint-step finish.  On shared games the candidate is the projected step
  Proj_K(x - step * g(x)) onto the joint region K, by one row-batched
  Dykstra call.  That is the step of the variational inequality on K, whose
  solutions are equilibria of the shared game (the variational equilibria
  of Facchinei & Kanzow, 4OR 2007).  The per-player step above moves every
  player at once against a binding budget, so it overshoots (two players
  take a budget sum s to 2 - s) and settles only by halving its steps; the
  joint step lands on the face of equilibria where the budget binds, the
  first time it is offered.  It is therefore offered from iteration 1, and
  Arrow-Debreu and mixed-budget games converge in 1-2 iterations where step
  halving takes about 170-200.  A game whose equilibria are off that face
  rejects every try, at the cost of one selection per row and try.  The
  candidate is judged by the per-player residual test above, not by the
  residual on K.

All restarts advance together as the rows of one (R, n) iterate; a row leaves
the loop when it converges or reaches ``max_iters``.  The loop state is arrays
only: points, operator values, an (R, P) provenance array, per-player steps,
residuals and iteration counts; ``Direction`` objects are built once, for the
returned run.  One rule selects a utility or trivial player at all live
rows (``_select_player``): one finite-difference gradient call
(``cones.gradient_directions``), one ``cones.flat_maxima`` call on the flat
rows, and a contour sample of that player alone at a flat row it does not
mark.  Games whose players all have a utility or the trivial preference
select that way in each iteration; a game with a contour or band player
selects row by row through ``selection_T``.  The projection is one clip
(box-only games) or one ``_feasible_offsets`` call and one row-batched
Dykstra per player (shared rows).  The starting points (scrambled Halton
draws, ``_halton``) and the final points of every row on shared games are
each projected onto the joint region by one row-batched Dykstra call.  A
selection depends only on the game, the point and the seed, so that final
polish selects again only at the rows it moves (those not bit-identical to
the point the loop left); the others keep theirs.  Every row is
bit-identical to iterating its start alone, so results, traces and the
lowest-index tie-break do not depend on R.  That is kept by one rule: every
reduction (a block norm, a halfspace product, the residual over the stacked
vector) is an index-order sum of elementwise products (``model._dot``), and
the Newton step eliminates elementwise (``_solve``), never by BLAS or
LAPACK.  So a row's bits depend neither on the batch nor on the OpenBLAS
kernel the host picks.

A row's reported residual is always that of its returned point, and its
trace ends there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import (
    Direction,
    Provenance,
    contour_polyhedron,
    flat_maxima,
    gradient_directions,
    own_gradients,
    own_quadratic,
    polyhedral_normal_generators,
    sampled_separating_direction,
)
from .errors import EvaluationError, InfeasibleRegionError, SeparatorError
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
    _dot,
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
_ADAPT_WINDOW = 8  # a power of two: the step adaptation divides by it exactly
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
    nonzero element could be produced.  Utility and trivial players are
    :func:`_select_player` at the one row of ``x``; contour and band players
    go through :func:`_contour_selection`.
    """
    directions: list[Direction] = []
    provenance: list[Provenance] = []
    for player, spec in enumerate(game.players):
        if isinstance(spec.preference, (UtilityPreference, TrivialZero)):
            rows, prov = _select_player(game, player, x.stacked[None, :], sample_seed)
            d, prov = Direction(player, tuple(rows[0])), prov[0]
        else:
            d, prov = _contour_selection(game, player, x, sample_seed)
        directions.append(d)
        provenance.append(prov)
    return Selection(tuple(directions), tuple(provenance))


def _select_player(
    game: GameSpec, player: PlayerId, x: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """A utility or trivial player's selection at every row of the (m, n)
    ``x``: the (m, dim) directions and the (m,) provenance array.

    A trivial player gets the zero direction with ``FULL_SPACE`` provenance,
    a utility player its gradient direction (one batched
    :func:`cones.gradient_directions` call).  Its flat rows go to one
    :func:`cones.flat_maxima` call.  At a row it marks, ``x`` maximizes the
    utility over the own block up to the flatness tolerance, and the player
    gets the zero direction with ``FULL_SPACE`` provenance; at any other flat
    row the player's contour set is sampled.  Each row equals the
    computation at that row alone.
    """
    provenance = np.empty(x.shape[0], dtype=object)
    if isinstance(game.players[player].preference, TrivialZero):
        provenance[:] = Provenance.FULL_SPACE
        return np.zeros((x.shape[0], game.dims[player])), provenance
    directions, flat = gradient_directions(game, player, x)
    provenance[:] = Provenance.GRADIENT
    if np.count_nonzero(flat):
        rows = np.flatnonzero(flat)
        maxima = flat_maxima(game, player, x[rows])
        provenance[rows[maxima]] = Provenance.FULL_SPACE
        for row in rows[~maxima]:
            d, provenance[row] = _sampled_selection(
                game, player, split_profile(game, x[row]), seed
            )
            directions[row] = d.array
    return directions, provenance


def _contour_selection(
    game: GameSpec, player: PlayerId, x: Profile, seed: int
) -> tuple[Direction, Provenance]:
    """A contour or band player's selection at profile ``x``: the first active
    row of its contour polyhedron, the zero direction where that polyhedron
    is empty, and a sampled separator for ``ThresholdBand``."""
    pref = game.players[player].preference
    rows = contour_polyhedron(game, player, x)
    if rows is not None:
        gens = polyhedral_normal_generators(
            rows,
            x.block(player),
            assume_nonempty=isinstance(pref, CoordinateOrder),
        )
        if gens.provenance is Provenance.FULL_SPACE:
            return Direction.zero(player, game.dims[player]), Provenance.FULL_SPACE
        return gens.directions[0], Provenance.POLYHEDRAL
    if isinstance(pref, ThresholdBand):
        return _sampled_selection(game, player, x, seed)
    raise TypeError(f"unsupported preference {type(pref).__name__}")


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
    moving, and its products with the normals are index-order sums
    (:func:`model._dot`), so each row equals the projection of that point
    alone bit for bit.  A settled row leaves the cycle with its value, so a
    batch costs about what its rows cost one by one.
    """
    if normals.size == 0:
        return np.clip(points, lo, hi)
    out = np.array(points, dtype=np.float64)
    offsets = np.broadcast_to(offsets, (out.shape[0], normals.shape[0]))
    y, rows = out, np.arange(out.shape[0])  # the rows still cycling
    corrections = np.zeros((1 + normals.shape[0],) + y.shape)
    sq_norms = _dot(normals, normals)
    for _ in range(_DYKSTRA_CYCLES):
        y_start = y
        w = y + corrections[0]
        y = np.clip(w, lo, hi)
        corrections[0] = w - y
        for i, normal in enumerate(normals):
            w = y + corrections[i + 1]
            excess = _dot(w, normal)[:, None] - offsets[:, i : i + 1]
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


def _targets(x: np.ndarray, step, g: np.ndarray) -> np.ndarray:
    """The step targets ``x - step * g``.  On a box near the largest float an
    entry can overflow; it is infinite then, and the projection clips it to
    its box bound, so the overflow is not an error."""
    with np.errstate(over="ignore"):
        return x - step * g


def _residuals(game: GameSpec, x: np.ndarray, g: np.ndarray, step: float, offsets) -> np.ndarray:
    """Natural residual ``||x - Proj_K(x)(x - step * g)||`` of every row of ``x``."""
    moves = x - _project_rows(game, offsets, _targets(x, step, g))
    with np.errstate(over="ignore"):  # an infinite residual fails any tolerance
        return np.sqrt(_dot(moves, moves))


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
    target = _targets(x.stacked[None, :], cfg.step, sel.stacked)
    return split_profile(game, _project_rows(game, offsets, target))


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first ``n`` points of the scrambled Halton sequence in [0, 1)^d,
    bit-equal to ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``.

    Owen's randomized Halton (arXiv:1706.02808): coordinate k uses the k-th
    prime b as its base, and each of its ``ceil(54 / log2 b) - 1`` base-b
    digits goes through its own random permutation of ``arange(b)``.  One
    ``default_rng(seed)`` shuffles those rows in order, base after base
    (``permuted(axis=1)`` draws as scipy's loop of ``shuffle`` calls does).
    Point i's coordinate is the sum, in digit order, of
    ``perm[j, (i // b**j) % b]`` times b**-(j + 1), a scale formed by
    successive division as scipy forms it; the digits of all points are one
    (digits, n) array per base.
    """
    rng = np.random.default_rng(seed)
    index, columns, base = np.arange(n), [], 1
    while len(columns) < d:
        base += 1
        if any(base % b == 0 for b in range(2, math.isqrt(base) + 1)):
            continue
        count = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        digits = index // base ** np.arange(count)[:, None] % base
        scales = np.divide.accumulate(np.r_[1.0 / base, np.full(count - 1, float(base))])
        terms = perms[np.arange(count)[:, None], digits] * scales[:, None]
        columns.append(np.add.accumulate(terms, axis=0)[-1])
    return np.array(columns).T


def _starting_points(game: GameSpec, cfg: SolverConfig) -> np.ndarray:
    """``cfg.restarts`` scrambled Halton points (:func:`_halton`) in the
    interior of the box, projected onto the joint region on shared games."""
    unit = _halton(game.total_dim, cfg.restarts, cfg.seed)
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

    When every player has a utility or the trivial preference, each player's
    directions are :func:`_select_player` on all rows at once.  Any other
    game goes row by row through :func:`selection_T`, the only route to
    polyhedral and band selections.  Every row equals :func:`selection_T` at
    that row.
    """
    g = np.empty(x.shape)
    provenance = np.empty((x.shape[0], game.n_players), dtype=object)
    if all(isinstance(spec.preference, (UtilityPreference, TrivialZero)) for spec in game.players):
        for player in range(game.n_players):
            g[:, game.own_slice(player)], provenance[:, player] = _select_player(
                game, player, x, seed
            )
    else:
        for row, point in enumerate(x):
            sel = selection_T(game, split_profile(game, point), sample_seed=seed)
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


def _newton_point(game: GameSpec, x: np.ndarray) -> np.ndarray | None:
    """One Newton step from the (n,) profile ``x`` towards a zero of the
    stacked own-gradients (:func:`cones.own_gradients`) of the utility players.

    The step moves the free coordinates only, those of utility players that
    lie strictly inside their box, and solves J d = -G on them, J being the
    Jacobian of the gradient G by unit-step central differences: one
    compiled call per utility player on the stacked shifted profiles.  Those
    differences are exact when every utility is quadratic.  Returns None
    when no coordinate is free or a utility value or a difference is
    non-finite; a singular J gives a point that is not finite
    (:func:`_solve`), which no box contains.
    """
    players = [
        p for p, spec in enumerate(game.players) if isinstance(spec.preference, UtilityPreference)
    ]
    movable = np.zeros(x.size, dtype=bool)
    for player in players:
        movable[game.own_slice(player)] = True
    free = np.flatnonzero(movable & (game.box_lo < x) & (x < game.box_hi))
    if free.size == 0:
        return None
    shifts = np.zeros((1 + 2 * free.size, x.size))  # x, then x + e_k and x - e_k per free k
    shifts[1::2][np.arange(free.size), free] = 1.0
    shifts[2::2][np.arange(free.size), free] = -1.0
    points, grads = x + shifts, np.zeros(shifts.shape)
    try:
        # The shifted profiles reach a unit beyond the box; a difference that
        # overflows there only rejects the step.
        with np.errstate(over="ignore", invalid="ignore"):
            for player in players:
                grads[:, game.own_slice(player)] = own_gradients(game, player, points)
            jacobian = ((grads[1::2] - grads[2::2]) / 2.0)[:, free].T
    except EvaluationError:
        return None
    if not (np.isfinite(jacobian).all() and np.isfinite(grads[0]).all()):
        return None
    point = x.copy()
    with np.errstate(all="ignore"):  # a point that is not finite is not offered
        point[free] -= _solve(jacobian, grads[0, free])
    return point


def _take_passing(
    game: GameSpec,
    cfg: SolverConfig,
    x: np.ndarray,
    g: np.ndarray,
    provenance: np.ndarray,
    rows: np.ndarray,
    candidates: np.ndarray,
) -> None:
    """Move each listed row of the iterate to its candidate point where the
    unchanged convergence test passes there: the selection at the candidate
    and its residual at the configured step, at most the tolerance.  Such a
    row takes the candidate's operator value and provenance too, so the next
    iteration measures that same residual and the row leaves converged."""
    if rows.size == 0:
        return
    cg, cprov = _select_rows(game, candidates, cfg.seed)
    res = _residuals(game, candidates, cg, cfg.step, _row_offsets(game, candidates))
    passed = res <= cfg.tol
    rows = rows[passed]
    x[rows], g[rows], provenance[rows] = candidates[passed], cg[passed], cprov[passed]


def _newton_finish(
    game: GameSpec, cfg: SolverConfig, x: np.ndarray, g: np.ndarray, provenance: np.ndarray
) -> None:
    """Offer each row of the (R, n) box-game iterate its Newton point
    (:func:`_newton_point`) where that point lies in the box without
    clipping; :func:`_take_passing` decides."""
    rows, points = [], []
    for row in range(x.shape[0]):
        point = _newton_point(game, x[row])
        if point is not None and ((game.box_lo <= point) & (point <= game.box_hi)).all():
            rows.append(row)
            points.append(point)
    _take_passing(game, cfg, x, g, provenance, np.array(rows, dtype=int), np.array(points))


def _joint_finish(
    game: GameSpec, cfg: SolverConfig, x: np.ndarray, g: np.ndarray, provenance: np.ndarray
) -> None:
    """Offer each row of the (R, n) shared-game iterate the joint step
    Proj_K(x - step * g), K being the joint region, by one row-batched
    Dykstra call; :func:`_take_passing` decides.  Where the equilibria form
    a face of K, the first try at a row lands on it, so the loop offers this
    step from iteration 1."""
    joint = _joint_region(game)
    targets = _targets(x, cfg.step, g)
    points = _dykstra(joint.lo, joint.hi, joint.normals, joint.offsets, targets)
    _take_passing(game, cfg, x, g, provenance, np.arange(x.shape[0]), points)


def _run_restarts(game: GameSpec, cfg: SolverConfig, starts: np.ndarray) -> _Restarts:
    """Iterate every restart as one row of a stacked (R, n) array.

    The loop state holds the live rows only.  A row leaves when it converges
    or reaches ``max_iters`` and keeps its selection at its final point.
    The finish, if the game has one, is offered after the selection of its
    first iteration (1 for the joint step, ``_ADAPT_WINDOW`` for the Newton
    step) and of every ``_ADAPT_WINDOW``-th.
    Each row's iterates, steps and trace equal those of its start iterated
    alone.  The trace ends at the residual of the returned point: a row
    stopped at ``max_iters``, and every row of a shared game after the
    polish, gets one more entry, numbered one past its last iteration.
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

    def leave(rows, at, it):
        runs.points[rows], runs.operator[rows] = x[at], g[at]
        runs.provenance[rows], runs.iters[rows] = provenance[at], it

    if isinstance(game.constraints, SharedLinear):
        finish, first = _joint_finish, 1
    elif all(
        isinstance(spec.preference, TrivialZero) or own_quadratic(game, player)
        for player, spec in enumerate(game.players)
    ):
        finish, first = _newton_finish, _ADAPT_WINDOW
    else:
        finish, first = None, 0
    measure = np.zeros(count, dtype=bool)  # rows whose returned point is not yet measured
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
            leave(live[done], done, it)
            runs.residuals[live[done]], runs.converged[live[done]] = res[done], True
            keep = ~done
            live, x, g, provenance = live[keep], x[keep], g[keep], provenance[keep]
            res, alpha, anchor = res[keep], alpha[keep], anchor[keep]
            if live.size == 0:
                break
            offsets = [rows[keep] for rows in offsets]

        # Per-player working steps; the reference residual above always uses
        # the configured step, so damping cannot fake convergence.
        x = _project_rows(game, offsets, _targets(x, alpha[:, block_of], g))

        if it % _ADAPT_WINDOW == 0:
            moves = x - anchor
            blocks = [moves[:, game.own_slice(player)] for player in range(game.n_players)]
            net = np.sqrt(np.column_stack([_dot(block, block) for block in blocks]))
            # Shrink where the net move is at most half the window's budget
            # _ADAPT_WINDOW * alpha, grow where it is at least 0.9 of it, up to
            # the configured step.  Scaling by a power of two is exact in the
            # normal range, so dividing the move instead of multiplying the
            # step changes no decision, and no product overflows at a step
            # near the largest float.
            rate = net / _ADAPT_WINDOW
            shrink = rate <= 0.5 * alpha
            grow = ~shrink & (rate >= 0.9 * alpha)
            alpha = np.where(grow, np.minimum(alpha, 0.5 * cfg.step) * 2.0, alpha)
            alpha = np.where(shrink, np.maximum(alpha * 0.5, _STEP_FLOOR), alpha)
            anchor = x

        g, provenance = _select_rows(game, x, cfg.seed)
        if finish is not None and (it == first or it % _ADAPT_WINDOW == 0):
            finish(game, cfg, x, g, provenance)
    else:
        leave(live, np.ones(live.size, dtype=bool), cfg.max_iters)
        measure[live] = True

    if isinstance(game.constraints, SharedLinear):
        # The Jacobi update can leave a point outside the self-consistent
        # region (a residual-sized distance once converged); polish every row
        # back in and judge convergence at the polished point.  A selection
        # depends only on the point, so a row the polish leaves bit-identical
        # keeps the one it has.
        joint = _joint_region(game)
        polished = _dykstra(joint.lo, joint.hi, joint.normals, joint.offsets, runs.points)
        bits_differ = polished.view(np.uint64) != runs.points.view(np.uint64)
        moved = np.flatnonzero(bits_differ.any(axis=1))
        runs.points = polished
        if moved.size:
            runs.operator[moved], runs.provenance[moved] = _select_rows(
                game, polished[moved], cfg.seed
            )
        measure[:] = True
    rows = np.flatnonzero(measure)
    x = runs.points[rows]
    res = _residuals(game, x, runs.operator[rows], cfg.step, _row_offsets(game, x))
    runs.residuals[rows], runs.converged[rows] = res, res <= cfg.tol
    for row, value in zip(rows.tolist(), res.tolist()):
        runs.traces[row].append((runs.traces[row][-1][0] + 1, value))
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
