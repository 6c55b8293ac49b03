"""Independent certification of candidate equilibria and solver output.

Everything here re-derives its verdict from the game definition alone:
grid search over feasible deviations (``check_gne_grid``, ``brute_force_gne``),
the variational inequality margin minimized exactly over each feasible
region by ``FeasibleRegion.linear_min`` (``check_svip``), executable forms of
the two bridge properties between variational solutions and equilibria, and
a numeric lower-hemicontinuity probe for contour maps.

``brute_force_gne`` decides each player's whole lattice at once: utility
games through one utility tensor per player, every other game through
stacked strict-preference tables over all live profiles of the player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cones import sampled_separating_direction
from .errors import EvaluationError, GridBudgetError, SeparatorError
from .expressions import ColumnView
from .model import (
    BoxOnly,
    GameSpec,
    PlayerId,
    Profile,
    TrivialZero,
    UtilityPreference,
    _strict_upper_table,
    feasible_region,
    sample_contour,
    split_profile,
    strict_upper_mask,
)
from .solver import (
    SolverConfig,
    _joint_region,
    _require_feasible,
    _stack_operator,
    solve_svip,
)

__all__ = [
    "Certificate",
    "grid_coordinates",
    "player_grid",
    "check_gne_grid",
    "check_svip",
    "brute_force_gne",
    "theorem1_property",
    "theorem2_property",
    "lhc_probe",
]

_GRID_BUDGET = 10_000_000
# Entry cap of one (profiles, pool) strict-preference table of the generic
# enumeration.  The utility tensor is not chunked: it is evaluated on a column
# view, never on the (points, n) profile array, so its largest temporary holds
# one value per grid point, and only for subexpressions that read every axis.
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Certificate:
    """Outcome of one verification; ``witness`` explains failures."""

    kind: str  # one of: gne-grid, svip, theorem1, theorem2, lhc
    passed: bool
    resolution: float | None
    witness: object | None
    detail: str


def _grid_size(lo: float, hi: float, h: float) -> float:
    """Number of points :func:`grid_coordinates` returns, as a float (may be inf)."""
    if not (h > 0 and np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"grid needs finite lo <= hi and a positive step, got {lo}, {hi}, {h}")
    return float(np.floor((hi - lo) / h + 1e-9)) + 1.0


def grid_coordinates(lo: float, hi: float, h: float) -> np.ndarray:
    """Lattice lo, lo+h, ... clipped into [lo, hi]; includes hi when h divides."""
    pts = lo + h * np.arange(int(_grid_size(lo, hi, h)))
    if abs(pts[-1] - hi) <= 1e-9 * max(1.0, abs(hi), h):
        pts[-1] = hi
    return pts


def _cartesian(axes: list[np.ndarray]) -> np.ndarray:
    """All points of the lattice spanned by ``axes``, shape (m, len(axes)), last axis fastest."""
    if not axes:
        return np.empty((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _grid_axes(lo, hi, h: float, what: str) -> list[np.ndarray]:
    """Per-coordinate grids of the box [lo, hi], refusing more than the point budget."""
    bounds = [(float(l), float(u)) for l, u in zip(lo, hi)]
    # Count before building: a wide box or a tiny step must not allocate.
    total = float(np.prod([_grid_size(l, u, h) for l, u in bounds]))
    if total > _GRID_BUDGET:
        raise GridBudgetError(
            f"{what} grid would have {total:.3g} points, budget is {_GRID_BUDGET}"
        )
    return [grid_coordinates(l, u, h) for l, u in bounds]


def player_grid(game: GameSpec, player: PlayerId, h: float) -> np.ndarray:
    """All grid points of one player's box, shape (m, dim), last axis fastest."""
    return _cartesian(_grid_axes(*game.player_box(player), h, "player"))


def check_gne_grid(game: GameSpec, x: Profile, h: float) -> Certificate:
    """Search the deviation grid of every player for a strict improvement.

    Passes when no feasible grid deviation is strictly preferred.  The witness
    on failure is ``(player, deviation)`` for the first improving grid point
    in grid order.
    """
    regions = _require_feasible(game, x)
    for player in range(game.n_players):
        candidates = player_grid(game, player, h)
        feasible = regions[player].contains_many(candidates)
        if not np.any(feasible):
            continue
        pool = candidates[feasible]
        better = strict_upper_mask(game, player, pool, x)
        if np.any(better):
            first = pool[int(np.argmax(better))]
            return Certificate(
                kind="gne-grid",
                passed=False,
                resolution=h,
                witness=(player, tuple(float(v) for v in first)),
                detail=(
                    f"player {player} strictly prefers grid deviation "
                    f"{np.round(first, 12).tolist()}"
                ),
            )
    return Certificate(
        kind="gne-grid",
        passed=True,
        resolution=h,
        witness=None,
        detail=f"no improving feasible deviation on the step-{h} grid",
    )


def check_svip(game: GameSpec, x: Profile, operator_value, tol: float = 1e-6) -> Certificate:
    """Exact variational-inequality check of a point and operator value.

    Normalizes the stacked operator value to unit norm, then computes
    m = min over feasible y of <g, y - x>, player by player over
    ``model.feasible_region`` with the rivals at ``x``.  Each minimum comes
    from :meth:`FeasibleRegion.linear_min`, exact on every shape; should it
    find none, the own block stands in.  Passes when m >= -tol.  A zero
    operator value passes vacuously.
    """
    regions = _require_feasible(game, x)
    g = _stack_operator(game, operator_value)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return Certificate(
            kind="svip",
            passed=True,
            resolution=None,
            witness=None,
            detail="zero operator value: inequality holds vacuously",
        )
    g = g / norm

    margin = 0.0
    minimizer = np.empty(game.total_dim)
    for player, region in enumerate(regions):
        sl = game.own_slice(player)
        own = x.stacked[sl]
        y = region.linear_min(g[sl])
        minimizer[sl] = own if y is None else y
        margin += float(g[sl] @ minimizer[sl]) - float(g[sl] @ own)
    passed = margin >= -tol
    witness = None
    if not passed:
        witness = {
            "margin": margin,
            "minimizer": [float(v) for v in minimizer],
        }
    return Certificate(
        kind="svip",
        passed=passed,
        resolution=None,
        witness=witness,
        detail=f"margin {margin:.6e} against tolerance {tol:.1e}",
    )


def _feasible_tensor(game: GameSpec, axes: list[np.ndarray]) -> np.ndarray | None:
    """Boolean tensor over the profile grid for shared constraints, else None."""
    if isinstance(game.constraints, BoxOnly):
        return None
    shape = tuple(a.size for a in axes)
    return _joint_region(game).contains_many(_cartesian(axes)).reshape(shape)


def _utility_tensor(
    game: GameSpec, player: PlayerId, axes: list[np.ndarray]
) -> np.ndarray:
    """Utility values over the whole profile grid, as a tensor of its shape.

    One compiled call on a :class:`ColumnView` of the lattice, in which column
    k is ``axes[k]`` varying along dimension k only, so the profile grid is
    never materialized; each entry equals the utility at that grid profile bit
    for bit.  The compiled call broadcasts its result to the grid shape, which
    also covers a utility that ignores some coordinates or is constant.
    """
    pref = game.players[player].preference
    columns = [
        a.reshape((1,) * k + (a.size,) + (1,) * (len(axes) - k - 1))
        for k, a in enumerate(axes)
    ]
    values = pref.fn(ColumnView(columns))
    if not np.all(np.isfinite(values)):
        raise EvaluationError(
            f"utility of player {player} is non-finite on the grid"
        )
    return values


def brute_force_gne(game: GameSpec, h: float) -> list[tuple[Profile, Certificate]]:
    """Enumerate all grid equilibria: no feasible grid deviation improves.

    Exhaustive over the profile lattice of step ``h`` (budget-guarded).  When
    every player has a utility, each utility is evaluated once over the whole
    lattice (:func:`_utility_tensor`, on broadcast columns rather than a
    materialized profile array) and a profile survives when no feasible own
    grid point has a strictly larger value.  Other preference variants go
    through the generic strict-preference oracle.
    """
    axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
    feasible = _feasible_tensor(game, axes)
    shape = tuple(a.size for a in axes)

    all_utility = all(
        isinstance(p.preference, UtilityPreference) for p in game.players
    )
    if all_utility:
        equilibrium = (
            feasible.copy()
            if feasible is not None
            else np.ones(shape, dtype=bool)
        )
        for player in range(game.n_players):
            values = _utility_tensor(game, player, axes)
            if feasible is not None:
                values = np.where(feasible, values, -np.inf)
            sl = game.own_slice(player)
            own_axes = tuple(range(sl.start, sl.stop))
            best = values.max(axis=own_axes, keepdims=True)
            # A strictly larger feasible value along the own axes means the
            # player can improve; equality (including ties) does not.
            equilibrium &= ~(values < best)
    else:
        equilibrium = _generic_equilibria(game, axes, feasible)

    index = np.unravel_index(np.flatnonzero(equilibrium), shape)
    vectors = np.stack([a[i] for a, i in zip(axes, index)], axis=1)
    cert = Certificate(
        kind="gne-grid",
        passed=True,
        resolution=h,
        witness=None,
        detail=f"grid equilibrium at resolution {h}",
    )
    return [(split_profile(game, vector), cert) for vector in vectors]


def _generic_equilibria(
    game: GameSpec, axes: list[np.ndarray], feasible: np.ndarray | None
) -> np.ndarray:
    """Grid equilibria through the strict-preference oracle, for any preference.

    A profile stays an equilibrium candidate ("live") while no player has a
    feasible own grid point it strictly prefers there.  Players are taken in
    order, and each decides its whole lattice at once.  The feasible own grid
    points at a rival point are its pool: a box-only game has one pool, a
    shared one builds one feasible region per live rival point.  The live
    profiles of all live rival points with the same pool are stacked, rival
    point by rival point, and decided by one (profiles, pool)
    strict-preference table, chunked to at most ``_CHUNK_ENTRIES`` entries.
    Only live profiles, and the pool at their rival points, are evaluated.
    Returns the boolean tensor of the surviving profiles.
    """
    shape = tuple(a.size for a in axes)
    equilibrium = np.ones(shape, dtype=bool) if feasible is None else feasible.copy()
    for player in range(game.n_players):
        if isinstance(game.players[player].preference, TrivialZero):
            continue  # nothing is ever strictly preferred
        sl = game.own_slice(player)
        own_points = _cartesian(axes[sl])
        # View (before, own, after): own axes are contiguous in the profile.
        before = int(np.prod(shape[: sl.start]))
        live_view = equilibrium.reshape(before, own_points.shape[0], -1)
        # The live rival points, in grid order, as rows (i, k) of the view.
        i, k = np.nonzero(live_view.any(axis=1))
        if i.size == 0:
            break  # no live profile is left to decide
        rivals = _cartesian(axes[: sl.start] + axes[sl.stop :])[i * live_view.shape[2] + k]
        pools = {}  # pool mask bytes -> the live rival points with that pool
        if isinstance(game.constraints, BoxOnly):
            # Box-only regions ignore the rivals: every rival point has one pool.
            mask = feasible_region(game, player, rivals[0]).contains_many(own_points)
            pools[mask.tobytes()] = list(range(i.size))
        else:
            for rival, at in enumerate(rivals):
                mask = feasible_region(game, player, at).contains_many(own_points)
                pools.setdefault(mask.tobytes(), []).append(rival)
        for key, members in pools.items():
            pool = own_points[np.frombuffer(key, dtype=bool)]
            if pool.shape[0] == 0:
                continue
            members = np.array(members)
            live = np.flatnonzero(live_view[i[members], :, k[members]])
            chunk = max(1, _CHUNK_ENTRIES // pool.shape[0])
            for start in range(0, live.size, chunk):
                member, own = np.divmod(live[start : start + chunk], own_points.shape[0])
                rival = members[member]  # the live rival point of each profile
                profiles = np.empty((own.size, game.total_dim))
                profiles[:, : sl.start] = rivals[rival, : sl.start]
                profiles[:, sl] = own_points[own]
                profiles[:, sl.stop :] = rivals[rival, sl.start :]
                beaten = _strict_upper_table(game, player, pool, profiles).any(axis=1)
                rival = rival[beaten]
                live_view[i[rival], own[beaten], k[rival]] = False
    return equilibrium


def theorem1_property(
    games: Sequence[GameSpec], cfg: SolverConfig, h: float
) -> Certificate:
    """Converged solutions with all-nonzero selections must verify as grid equilibria.

    Solutions with a zero component fall outside the nonzero-selection
    operator and are skipped (counted).  Detail format:
    ``C solutions checked: games=A converged=B zero_selection=D failures=E``.
    """
    converged = checked = zero_selection = failures = 0
    witness = None
    for index, game in enumerate(games):
        solution = solve_svip(game, cfg)
        if not solution.converged:
            continue
        converged += 1
        if any(d.is_zero for d in solution.operator_value):
            zero_selection += 1
            continue
        cert = check_gne_grid(game, solution.point, h)
        checked += 1
        if not cert.passed:
            failures += 1
            if witness is None:
                witness = {"game": index, "grid_witness": cert.witness}
    detail = (
        f"{checked} solutions checked: games={len(games)} converged={converged} "
        f"zero_selection={zero_selection} failures={failures}"
    )
    return Certificate(
        kind="theorem1",
        passed=failures == 0,
        resolution=h,
        witness=witness,
        detail=detail,
    )


def _inflated_bounds(game: GameSpec, player: PlayerId) -> tuple[np.ndarray, np.ndarray]:
    # Contour sets at equilibria live outside the strategy box; sample wider.
    lo, hi = game.player_box(player)
    width = hi - lo
    return lo - width, hi + width


def theorem2_property(
    games: Sequence[GameSpec],
    h: float,
    tol: float = 1e-6,
    *,
    sample_count: int = 1000,
    seed: int = 0,
) -> Certificate:
    """Every grid equilibrium must admit a separator certifying the inequality.

    Separators are built per player from contour samples over an inflated box
    and stacked.  An equilibrium whose contour set yields no sample at all has
    no separator (the convexity/closure hypotheses fail there); that counts as
    a failure.  A sample hull that surrounds the point is recorded as
    inconclusive instead.  Detail format:
    ``games=A equilibria=B certified=C no_separator=D inconclusive=E failures=F``.
    """
    equilibria = certified = no_separator = inconclusive = failures = 0
    witness = None
    for index, game in enumerate(games):
        for profile, _ in brute_force_gne(game, h):
            equilibria += 1
            directions = []
            empty_contour = False
            hull_reaches = False
            for player in range(game.n_players):
                samples = sample_contour(
                    game,
                    player,
                    profile,
                    sample_count,
                    seed,
                    bounds=_inflated_bounds(game, player),
                )
                if samples.size == 0:
                    empty_contour = True
                    break
                try:
                    d = sampled_separating_direction(samples, profile.block(player))
                except SeparatorError:
                    hull_reaches = True
                    break
                directions.append(d)
            if empty_contour:
                no_separator += 1
                if witness is None:
                    witness = {
                        "game": index,
                        "equilibrium": [float(v) for v in profile.stacked],
                        "reason": "empty strict upper contour: no separator exists",
                    }
                continue
            if hull_reaches:
                inconclusive += 1
                continue
            cert = check_svip(game, profile, directions, tol)
            if cert.passed:
                certified += 1
            else:
                failures += 1
                if witness is None:
                    witness = {
                        "game": index,
                        "equilibrium": [float(v) for v in profile.stacked],
                        "svip_witness": cert.witness,
                    }
    detail = (
        f"games={len(games)} equilibria={equilibria} certified={certified} "
        f"no_separator={no_separator} inconclusive={inconclusive} failures={failures}"
    )
    return Certificate(
        kind="theorem2",
        passed=failures == 0 and no_separator == 0,
        resolution=h,
        witness=witness,
        detail=detail,
    )


def lhc_probe(
    contour: Callable[[float], tuple[float, float] | None],
    base_points: Iterable[float],
    directions: Iterable[float],
    steps: Sequence[float],
    tol: float = 1e-6,
    samples_per_base: int = 5,
) -> Certificate:
    """Falsification probe for lower hemicontinuity of an interval-valued map.

    For every base parameter x with contour(x) nonempty, every sampled point
    y in contour(x), and every approach direction, the distances from y to
    contour(x + s * direction) along the shrinking steps s must trend down
    (no increase beyond ``tol``) and end at most ``tol`` at the smallest step
    (an empty contour counts as infinite distance).  The probe can only
    falsify; passing is evidence, not proof.
    """
    steps = sorted((float(s) for s in steps), reverse=True)
    if not steps or steps[-1] <= 0:
        raise ValueError("steps must be positive")
    final_step = steps[-1]
    checks = 0
    for base in base_points:
        interval = contour(float(base))
        if interval is None:
            continue  # empty contour imposes no condition at the base point
        lo, hi = float(interval[0]), float(interval[1])
        window_hi = min(hi, lo + 4.0)
        ys = np.linspace(lo, window_hi, samples_per_base)
        for direction in directions:
            probes = [contour(float(base) + s * float(direction)) for s in steps]
            for y in ys:
                checks += 1
                distances = [
                    np.inf
                    if probe is None
                    else max(probe[0] - y, y - probe[1], 0.0)
                    for probe in probes
                ]
                trending = all(
                    not (nxt > prev + tol)
                    for prev, nxt in zip(distances, distances[1:])
                )
                if distances[-1] <= tol and trending:
                    continue
                final = distances[-1]
                witness = {
                    "base": float(base),
                    "point": float(y),
                    "direction": float(direction),
                    "steps": list(steps),
                    "distances": [
                        None if np.isinf(d) else float(d) for d in distances
                    ],
                }
                return Certificate(
                    kind="lhc",
                    passed=False,
                    resolution=final_step,
                    witness=witness,
                    detail=(
                        f"point {y:.6g} of contour({base:.6g}) is unreachable "
                        f"along direction {direction:+g}: final distance "
                        f"{'inf' if np.isinf(final) else format(final, '.3e')} "
                        f"at step {final_step:g}"
                    ),
                )
    return Certificate(
        kind="lhc",
        passed=True,
        resolution=final_step,
        witness=None,
        detail=f"no lower-hemicontinuity violation in {checks} probes",
    )
