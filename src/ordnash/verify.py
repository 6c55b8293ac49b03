"""Independent certification of candidate equilibria and solver output.

Everything here re-derives its verdict from the game definition alone:
grid search over feasible deviations (``check_gne_grid``, ``brute_force_gne``),
the variational inequality margin minimized over each feasible region by
``FeasibleRegion.linear_min`` (``check_svip``; exact by construction up to 3
coordinates and 4 rows, else one HiGHS LP, exact up to its tolerances),
executable forms of the two bridge properties between variational solutions
and equilibria, and a numeric lower-hemicontinuity probe for contour maps.
Feasibility comes from ``model`` alone: the player regions at a profile
(``_require_feasible``, through ``feasible_region``, the one-point case of
the ``_feasible_offsets`` rule the solver projects with at all its rows)
and the joint region over the lattice (``_joint_region``).

``brute_force_gne`` decides the players in order, each by its own rule and
only where profiles are still live: a utility player through its utility
over the window of rival points that still hold a live profile (own axes
whole), any other player through stacked strict-preference tables over the
live profiles alone.  A non-finite utility value raises where it is read:
anywhere in a utility player's window, live or not, in any game.  The grid
routines build and decide their lattices in blocks of at most
``_CHUNK_ENTRIES`` values, so the only lattice-sized arrays are the boolean
tensors of ``brute_force_gne``, one byte per profile each.
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
    _joint_region,
    _require_feasible,
    _strict_upper_table,
    sample_contour,
    split_profile,
    strict_upper_mask,
)
from .solver import SolverConfig, _stack_operator, solve_svip

__all__ = [
    "Certificate",
    "grid_coordinates",
    "player_grid",
    "require_player_grids",
    "check_gne_grid",
    "check_svip",
    "brute_force_gne",
    "theorem1_property",
    "theorem2_property",
    "lhc_probe",
]

_GRID_BUDGET = 10_000_000
# Entry cap of every lattice-sized block (see _blocks): a (profiles, pool)
# strict-preference table of _decide_by_table, a utility block of
# _decide_by_utility, a block of the joint mask of _feasible_tensor and a
# block of a player's deviation grid in check_gne_grid.  A block is one run
# of indices along one axis with every other axis whole, so it holds more
# only when one index along that axis does.  At 2**16 values (512 KiB of
# float64) a block's temporaries stay near an L2 cache: on 2 cores, caps
# from 2**15 to 2**18 took alike on lattices of 10**5 to 10**6 points,
# 2**14 and less up to 1.6x longer, and larger caps only raised the peak.
_CHUNK_ENTRIES = 1 << 16
# theorem2_property: VI tolerance of a sampled separator, and its contour draws.
_SEPARATOR_VI_TOL = 1e-6
_SEPARATOR_SAMPLES = 1000
_SEPARATOR_SEED = 0
# lhc_probe: tolerance on the distances, and points sampled per base interval.
_LHC_TOL = 1e-6
_LHC_SAMPLES_PER_BASE = 5
# check_svip: below this norm the squares that np.linalg.norm sums are
# subnormal and lose bits, so the operator value is rescaled first.
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


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


def _blocks(start: int, stop: int, entries_per_index: int) -> list[slice]:
    """Consecutive slices covering ``range(start, stop)``, in order, each
    holding at most ``_CHUNK_ENTRIES`` entries at ``entries_per_index``
    entries per index, and at least one index."""
    step = max(1, _CHUNK_ENTRIES // entries_per_index)
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def _require_grid_budget(lo, hi, h: float, what: str) -> None:
    """Refuse a grid of the box [lo, hi] with more points than the budget,
    counting them without building any."""
    total = float(np.prod([_grid_size(float(l), float(u), h) for l, u in zip(lo, hi)]))
    if total > _GRID_BUDGET:
        raise GridBudgetError(
            f"{what} grid would have {total:.3g} points, budget is {_GRID_BUDGET}"
        )


def _grid_axes(lo, hi, h: float, what: str) -> list[np.ndarray]:
    """Per-coordinate grids of the box [lo, hi], refusing more than the point budget."""
    # Count before building: a wide box or a tiny step must not allocate.
    _require_grid_budget(lo, hi, h, what)
    return [grid_coordinates(float(l), float(u), h) for l, u in zip(lo, hi)]


def require_player_grids(game: GameSpec, h: float) -> None:
    """Raise the GridBudgetError :func:`check_gne_grid` would raise at step
    ``h`` for the first player whose grid is over the budget, building nothing."""
    for player in range(game.n_players):
        _require_grid_budget(*game.player_box(player), h, "player")


def player_grid(game: GameSpec, player: PlayerId, h: float) -> np.ndarray:
    """All grid points of one player's box, shape (m, dim), last axis fastest."""
    return _cartesian(_grid_axes(*game.player_box(player), h, "player"))


def check_gne_grid(game: GameSpec, x: Profile, h: float) -> Certificate:
    """Search the deviation grid of every player for a strict improvement.

    Passes when no feasible grid deviation is strictly preferred.  The witness
    on failure is ``(player, deviation)`` for the first improving grid point
    in grid order.  Each player's grid (:func:`player_grid`) is built and
    tested in blocks along its first axis, in grid order, each of at most
    ``_CHUNK_ENTRIES`` coordinates unless one index of that axis holds more
    (:func:`_blocks`).  The search stops at the first block that holds an
    improving feasible point: the blocks after it are never evaluated, so a
    non-finite value there does not raise.
    """
    regions = _require_feasible(game, x)
    for player in range(game.n_players):
        axes = _grid_axes(*game.player_box(player), h, "player")
        # A block's largest array is its (points, dim) candidates.
        per_index = int(np.prod([a.size for a in axes[1:]])) * len(axes)
        for block in _blocks(0, axes[0].size, per_index):
            candidates = _cartesian([axes[0][block]] + axes[1:])
            feasible = regions[player].contains_many(candidates)
            if not np.any(feasible):
                continue
            pool = candidates[feasible]
            better = strict_upper_mask(game, player, pool, x)
            if not np.any(better):
                continue
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
    """Variational-inequality check of a point and operator value.

    Normalizes the stacked operator value to unit norm, then computes
    m = min over feasible y of <g, y - x>, player by player over
    ``model.feasible_region`` with the rivals at ``x``.  Each minimum comes
    from :meth:`FeasibleRegion.linear_min`: exact by construction on a box, an
    interval, or 2-3 coordinates with at most 4 rows; on a larger region, or
    one without a vertex, HiGHS finds it within its own tolerances.  Should it
    find none, the own block stands in.  Passes when m >= -tol.  A zero
    operator value passes vacuously, and a non-finite one raises ValueError.
    One whose squares overflow, or underflow below the normal range, is
    divided by its largest magnitude first.
    """
    regions = _require_feasible(game, x)
    g = _stack_operator(game, operator_value)
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norm = float(np.linalg.norm(g))
    if not _NORM_FLOOR <= norm < np.inf:  # zero, or squares out of range
        if g.any():
            g = g / np.abs(g).max()
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
    """Boolean tensor over the profile grid for shared constraints, else None.

    Each entry is the joint region's ``contains_many`` at that profile.  The
    tensor is filled in blocks along axis 0 (:func:`_blocks`), so the float
    profiles of one block are built at a time, never the whole lattice's.
    """
    if isinstance(game.constraints, BoxOnly):
        return None
    region = _joint_region(game)
    shape = tuple(a.size for a in axes)
    feasible = np.empty(shape, dtype=bool)
    # A block's largest array is its (profiles, n) float profiles.
    for block in _blocks(0, shape[0], int(np.prod(shape[1:])) * len(axes)):
        profiles = _cartesian([axes[0][block]] + axes[1:])
        feasible[block] = region.contains_many(profiles).reshape((-1,) + shape[1:])
    return feasible


def _utility_tensor(
    game: GameSpec, player: PlayerId, axes: list[np.ndarray]
) -> np.ndarray:
    """Utility values over the lattice spanned by ``axes``, as a tensor of its shape.

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

    Exhaustive over the profile lattice of step ``h`` (budget-guarded).  On a
    shared game, one joint tensor (:func:`_feasible_tensor`) marks the
    jointly feasible profiles; it masks the profiles and, sliced at the
    rivals, gives every player's feasible own grid points, so no per-player
    region is built.  A profile stays live while no player decided so far
    strictly prefers a feasible own grid point there.  The players are taken
    in order, the pass stops once no profile is live, a ``TrivialZero``
    player beats nothing and is skipped, and every other player is decided
    by its own rule: a utility player by :func:`_decide_by_utility`, any
    other by :func:`_decide_by_table`.  A utility player reads its whole
    window, in a game that mixes it with other players as in an all-utility
    one, so a non-finite utility value there raises :class:`EvaluationError`
    even at a profile that is no longer live; a value outside every window
    is never read and does not raise.  The joint tensor and every window are
    built in blocks of at most ``_CHUNK_ENTRIES`` values, so the only
    lattice-sized arrays are the boolean ``equilibrium`` tensor and, on a
    shared game, the joint one, at one byte per profile each.
    """
    axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
    feasible = _feasible_tensor(game, axes)
    shape = tuple(a.size for a in axes)
    equilibrium = np.ones(shape, dtype=bool) if feasible is None else feasible.copy()
    for player, spec in enumerate(game.players):
        if isinstance(spec.preference, TrivialZero):
            continue  # nothing is ever strictly preferred
        if not equilibrium.any():
            break  # no live profile is left to decide
        if isinstance(spec.preference, UtilityPreference):
            _decide_by_utility(game, player, axes, feasible, equilibrium)
        else:
            _decide_by_table(game, player, axes, feasible, equilibrium)

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


def _decide_by_utility(game: GameSpec, player: PlayerId, axes, feasible, equilibrium) -> None:
    """Clear the live profiles of ``equilibrium`` (in place) at which the
    utility player ``player`` has a feasible own grid point of strictly
    larger value.

    The utility is read over a window: the own axes whole, and on each rival
    axis the index range of the rival points that still hold a live
    profile.  The window is evaluated in blocks along its first rival axis
    (:func:`_blocks`), each by :func:`_utility_tensor` on broadcast columns,
    not a materialized profile array; a one-player game has no rival axis
    and is one block.  A block holds the own axes whole, so the max over
    them never crosses it and the blocks are decided independently.  Each
    value read is bit-equal to the full tensor's entry, every value of the
    window is read, and an infeasible point counts as minus infinity.
    """
    sl = game.own_slice(player)
    own_axes = tuple(range(sl.start, sl.stop))
    live = equilibrium.any(axis=own_axes)  # over the rival axes, in order
    window = [slice(None)] * equilibrium.ndim
    rival_axes = [k for k in range(equilibrium.ndim) if k not in own_axes]
    for j, k in enumerate(rival_axes):
        others = tuple(i for i in range(live.ndim) if i != j)
        hit = np.flatnonzero(live.any(axis=others))
        window[k] = slice(hit[0], hit[-1] + 1)
    window = tuple(window)
    blocks = [window]  # a one-player game has no rival axis
    if rival_axes:
        k, sizes = rival_axes[0], equilibrium[window].shape
        parts = _blocks(window[k].start, window[k].stop, int(np.prod(sizes)) // sizes[k])
        blocks = [window[:k] + (part,) + window[k + 1 :] for part in parts]
    for block in blocks:
        values = _utility_tensor(game, player, [a[w] for a, w in zip(axes, block)])
        if feasible is not None:
            values = np.where(feasible[block], values, -np.inf)
        best = values.max(axis=own_axes, keepdims=True)
        # A strictly larger feasible value along the own axes means the
        # player can improve; equality (including ties) does not.
        decided = equilibrium[block]  # a view: basic slices only
        decided &= ~(values < best)


def _decide_by_table(game: GameSpec, player: PlayerId, axes, feasible, equilibrium) -> None:
    """Clear the live profiles of ``equilibrium`` (in place) at which
    ``player`` strictly prefers a feasible own grid point, for any preference.

    The pool of a rival point is the set of own grid points that the joint
    tensor ``feasible`` marks at it, the slice of the shared set at those
    rivals; on a box-only game (``feasible`` None) it is every own grid
    point.  The live profiles of all live rival points with the same pool
    are stacked, rival point by rival point, and decided by one (profiles,
    pool) strict-preference table, chunked to at most ``_CHUNK_ENTRIES``
    entries.  Only live profiles, and the pool at their rival points, are
    evaluated.
    """
    sl = game.own_slice(player)
    own_points = _cartesian(axes[sl])
    # View (before, own, after): own axes are contiguous in the profile.
    before = int(np.prod(equilibrium.shape[: sl.start]))
    live_view = equilibrium.reshape(before, own_points.shape[0], -1)
    # The live rival points, in grid order, as rows (i, k) of the view.
    i, k = np.nonzero(live_view.any(axis=1))
    rivals = _cartesian(axes[: sl.start] + axes[sl.stop :])[i * live_view.shape[2] + k]
    pools = {}  # pool mask bytes -> the live rival points with that pool
    if feasible is None:
        pools[np.ones(own_points.shape[0], dtype=bool).tobytes()] = list(range(i.size))
    else:
        for rival, mask in enumerate(feasible.reshape(live_view.shape)[i, :, k]):
            pools.setdefault(mask.tobytes(), []).append(rival)
    for key, members in pools.items():
        pool = own_points[np.frombuffer(key, dtype=bool)]
        if pool.shape[0] == 0:
            continue
        members = np.array(members)
        live = np.flatnonzero(live_view[i[members], :, k[members]])
        for block in _blocks(0, live.size, pool.shape[0]):
            member, own = np.divmod(live[block], own_points.shape[0])
            rival = members[member]  # the live rival point of each profile
            profiles = np.empty((own.size, game.total_dim))
            profiles[:, : sl.start] = rivals[rival, : sl.start]
            profiles[:, sl] = own_points[own]
            profiles[:, sl.stop :] = rivals[rival, sl.start :]
            beaten = _strict_upper_table(game, player, pool, profiles).any(axis=1)
            rival = rival[beaten]
            live_view[i[rival], own[beaten], k[rival]] = False


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


def theorem2_property(games: Sequence[GameSpec], h: float) -> Certificate:
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
                    _SEPARATOR_SAMPLES,
                    _SEPARATOR_SEED,
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
            cert = check_svip(game, profile, directions, _SEPARATOR_VI_TOL)
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
) -> Certificate:
    """Falsification probe for lower hemicontinuity of an interval-valued map.

    For every base parameter x with contour(x) nonempty, every sampled point
    y in contour(x), and every approach direction, the distances from y to
    contour(x + s * direction) along the shrinking steps s must trend down
    (no increase beyond ``_LHC_TOL``) and end at most ``_LHC_TOL`` at the
    smallest step (an empty contour counts as infinite distance).  The probe
    can only falsify; passing is evidence, not proof.
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
        ys = np.linspace(lo, window_hi, _LHC_SAMPLES_PER_BASE)
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
                    not (nxt > prev + _LHC_TOL)
                    for prev, nxt in zip(distances, distances[1:])
                )
                if distances[-1] <= _LHC_TOL and trending:
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
