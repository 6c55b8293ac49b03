"""Verification layer: grid certificates, exact variational checks, bridge
properties between solver output and grid equilibria, continuity probes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import formula_linear_min, make_budget_pair, make_pull_to_half_rival
from ordnash.cones import Direction
from ordnash.corpus import (
    arrow_debreu_instance,
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    random_concave_quadratic,
)
from ordnash.errors import EvaluationError, GridBudgetError, InfeasiblePointError
from ordnash.model import (
    BoxOnly,
    ContourRow,
    CoordinateOrder,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    _strict_upper_table,
    feasible_region,
    split_profile,
    strictly_prefers,
)
from ordnash.solver import SolverConfig
from ordnash.verify import (
    _cartesian,
    _feasible_tensor,
    _grid_axes,
    _utility_tensor,
    brute_force_gne,
    check_gne_grid,
    check_svip,
    grid_coordinates,
    lhc_probe,
    player_grid,
    theorem1_property,
    theorem2_property,
)


class TestGridCoordinates:
    def test_even_division_includes_endpoint(self):
        np.testing.assert_allclose(
            grid_coordinates(-1.0, 1.0, 0.5), [-1.0, -0.5, 0.0, 0.5, 1.0]
        )
        assert grid_coordinates(-1.0, 1.0, 0.5)[-1] == 1.0

    def test_uneven_step_stops_inside(self):
        pts = grid_coordinates(-1.0, 1.0, 0.3)
        assert pts.size == 7
        assert pts[-1] == pytest.approx(0.8)
        assert pts[-1] < 1.0

    def test_binary_friendly_step(self):
        pts = grid_coordinates(0.0, 1.0, 0.25)
        np.testing.assert_array_equal(pts, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            grid_coordinates(0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "lo, hi", [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_rejects_inverted_or_nonfinite_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            grid_coordinates(lo, hi, 0.1)

    def test_inverted_box_raises_value_error_not_index_error(self):
        from ordnash.model import GameSpec, PlayerSpec, TrivialZero

        game = GameSpec(players=(PlayerSpec(1, ((1.0, 0.0),), TrivialZero()),))
        with pytest.raises(ValueError):
            player_grid(game, 0, 0.1)
        with pytest.raises(ValueError):
            brute_force_gne(game, 0.1)

    def test_player_grid_orders_last_axis_fastest(self):
        from ordnash.model import GameSpec, PlayerSpec, TrivialZero

        game = GameSpec(
            players=(
                PlayerSpec(2, ((0.0, 1.0), (0.0, 1.0)), TrivialZero()),
            )
        )
        grid = player_grid(game, 0, 0.5)
        assert grid.shape == (9, 2)
        np.testing.assert_array_equal(grid[0], [0.0, 0.0])
        np.testing.assert_array_equal(grid[1], [0.0, 0.5])
        np.testing.assert_array_equal(grid[3], [0.5, 0.0])

    def test_player_grid_budget(self):
        from ordnash.model import GameSpec, PlayerSpec, TrivialZero

        game = GameSpec(
            players=(
                PlayerSpec(2, ((0.0, 1.0), (0.0, 1.0)), TrivialZero()),
            )
        )
        with pytest.raises(GridBudgetError):
            player_grid(game, 0, 1e-5)

    @pytest.mark.parametrize("box, h", [((0.0, 1e300), 0.05), ((0.0, 1.0), 1e-12)])
    def test_budget_is_checked_before_any_grid_is_built(self, box, h):
        from ordnash.model import GameSpec, PlayerSpec, TrivialZero

        game = GameSpec(players=(PlayerSpec(1, (box,), TrivialZero()),))
        with pytest.raises(GridBudgetError):
            player_grid(game, 0, h)
        with pytest.raises(GridBudgetError):
            brute_force_gne(game, h)


class TestCheckGneGrid:
    def test_trivial_game_everything_passes(self):
        game = example_trivial_pref()
        cert = check_gne_grid(game, split_profile(game, [0.0, 0.0]), h=0.05)
        assert cert.passed
        assert cert.kind == "gne-grid"
        assert cert.resolution == 0.05

    def test_coordinate_interior_fails_with_witness(self):
        game = example_coordinate_pref()
        cert = check_gne_grid(game, split_profile(game, [0.0, 0.0]), h=0.1)
        assert not cert.passed
        player, deviation = cert.witness
        assert player == 0
        assert deviation[0] == pytest.approx(0.1, abs=1e-9)

    def test_coordinate_corner_passes(self):
        game = example_coordinate_pref()
        cert = check_gne_grid(game, split_profile(game, [1.0, 1.0]), h=0.1)
        assert cert.passed

    def test_infeasible_point_rejected(self):
        game = example_coordinate_pref()
        with pytest.raises(InfeasiblePointError):
            check_gne_grid(game, split_profile(game, [2.0, 0.0]), h=0.1)

    def test_budget_game_constrained_point(self, budget_game):
        # Both players capped by the budget line: no feasible improvement.
        # 0.75 and 0.25 are exact binary floats, so the grid lands on the cap
        # instead of a hair beyond it.
        good = check_gne_grid(
            budget_game, split_profile(budget_game, [0.75, 0.25]), h=0.05
        )
        assert good.passed
        # Second player is free to move to its bliss point 0.8 and improve.
        bad = check_gne_grid(
            budget_game, split_profile(budget_game, [0.05, 0.95]), h=0.05
        )
        assert not bad.passed
        player, deviation = bad.witness
        assert player == 1
        assert deviation[0] <= 0.95

    def test_finer_pass_implies_coarser_pass(self, pull_game):
        # A coarse grid is a subset of the half-stepped grid, so a pass at
        # h/2 must survive at h.
        rng = np.random.default_rng(17)
        for _ in range(12):
            x = split_profile(pull_game, rng.uniform(-1, 1, 2))
            fine = check_gne_grid(pull_game, x, h=0.125)
            coarse = check_gne_grid(pull_game, x, h=0.25)
            if fine.passed:
                assert coarse.passed


def _assert_margin_matches_linprog(dim, rows, seed):
    """check_svip's margin on a random 2-player shared-row game equals the sum
    of per-player HiGHS objectives; the point is interior, so it fails."""
    rng = np.random.default_rng([seed, dim, rows])
    box = tuple((0.0, 1.0) for _ in range(dim))
    players = tuple(PlayerSpec(dim, box, TrivialZero()) for _ in range(2))
    point = rng.uniform(0.2, 0.8, 2 * dim)
    a = rng.uniform(-1.0, 1.0, (rows, 2 * dim))
    b = a @ point + rng.uniform(0.05, 0.5, rows)
    game = GameSpec(players, SharedLinear(a=a.tolist(), b=b.tolist()))
    g = rng.normal(size=2 * dim)

    unit = g / np.linalg.norm(g)
    reference = 0.0
    first, second = slice(0, dim), slice(dim, None)
    for own, rival in ((first, second), (second, first)):
        result = linprog(
            unit[own],
            A_ub=a[:, own],
            b_ub=b - a[:, rival] @ point[rival],
            bounds=[(0.0, 1.0)] * dim,
            method="highs",
        )
        assert result.status == 0
        reference += result.fun - unit[own] @ point[own]

    cert = check_svip(game, split_profile(game, point), g)
    assert not cert.passed
    assert cert.witness["margin"] == pytest.approx(reference, abs=1e-9)


def _formula_margin(game, point, g):
    """check_svip's margin written out over the region formulas."""
    g = np.asarray(g, dtype=np.float64) / np.linalg.norm(g)
    margin = 0.0
    for player in range(game.n_players):
        sl = game.own_slice(player)
        region = feasible_region(game, player, np.delete(point, np.arange(sl.start, sl.stop)))
        best = formula_linear_min(region, g[sl])
        margin += float(g[sl] @ best) - float(g[sl] @ point[sl])
    return margin


class TestCheckSvip:
    @pytest.mark.parametrize("seed", range(4))
    def test_arrow_debreu_margins_are_bit_equal_to_the_formula(self, seed):
        game = arrow_debreu_instance(seed)
        rng = np.random.default_rng(seed)
        for share in rng.uniform(0.05, 0.85, 25):
            for point in ([share, 1.0 - share], [share, 0.9 - share]):
                point = np.array(point)
                for g in (np.full(2, -1.0), rng.normal(size=2)):
                    cert = check_svip(game, split_profile(game, point), g)
                    margin = _formula_margin(game, point, g)
                    assert cert.passed == (margin >= -1e-6)
                    assert cert.detail == f"margin {margin:.6e} against tolerance 1.0e-06"
                    if not cert.passed:
                        assert _bits(cert.witness["margin"]) == _bits(margin)

    def test_corner_with_descent_direction_passes(self):
        game = example_coordinate_pref()
        x = split_profile(game, [1.0, 1.0])
        cert = check_svip(game, x, [-1.0, -1.0], tol=1e-9)
        assert cert.passed
        assert "margin" in cert.detail

    def test_interior_direction_fails_with_margin(self):
        game = example_trivial_pref()
        x = split_profile(game, [0.0, 0.0])
        cert = check_svip(game, x, [1.0, 0.0], tol=1e-6)
        assert not cert.passed
        assert cert.witness["margin"] == pytest.approx(-1.0, abs=1e-9)
        assert cert.witness["minimizer"][0] == pytest.approx(-1.0)

    def test_zero_operator_vacuous(self):
        game = example_trivial_pref()
        x = split_profile(game, [0.3, -0.3])
        cert = check_svip(game, x, [0.0, 0.0])
        assert cert.passed
        assert "vacuous" in cert.detail

    def test_accepts_direction_tuple(self):
        game = example_coordinate_pref()
        x = split_profile(game, [1.0, 1.0])
        dirs = (Direction.unit(0, [-1.0]), Direction.unit(1, [-1.0]))
        assert check_svip(game, x, dirs, tol=1e-9).passed

    def test_wrong_operator_size(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.0, 0.0])
        with pytest.raises(ValueError):
            check_svip(game, x, [1.0, 0.0, 0.0])

    def test_shared_constraints_use_moving_region(self, budget_game):
        x = split_profile(budget_game, [0.7, 0.3])
        # Gradient-style operator pointing up for both players: each player's
        # best feasible move is capped by the budget line at the current point.
        cert = check_svip(budget_game, x, [-1.0, -1.0], tol=1e-9)
        assert cert.passed

    @pytest.mark.parametrize("dim, rows", [(4, 2), (2, 6)])
    @pytest.mark.parametrize("seed", range(5))
    def test_margin_matches_linprog_beyond_vertex_shapes(self, dim, rows, seed):
        """Blocks outside the vertex-enumeration shapes are minimized exactly."""
        _assert_margin_matches_linprog(dim, rows, seed)

    @pytest.mark.parametrize("dim, rows", [(1, 1), (2, 3), (3, 4)])
    @pytest.mark.parametrize("seed", range(5))
    def test_margin_matches_linprog_within_vertex_shapes(self, dim, rows, seed):
        """Blocks inside the vertex-enumeration cap match the HiGHS objective too."""
        _assert_margin_matches_linprog(dim, rows, seed)

    @given(
        st.floats(0.01, 100.0),
        st.floats(-0.9, 0.9),
        st.floats(-0.9, 0.9),
    )
    @settings(max_examples=40)
    def test_scale_invariance(self, scale, a, b):
        """The verdict only depends on the direction of the operator value."""
        game = example_coordinate_pref()
        x = split_profile(game, [a, b])
        base = np.array([-1.0, 0.5])
        one = check_svip(game, x, base, tol=1e-6)
        other = check_svip(game, x, scale * base, tol=1e-6)
        assert one.passed == other.passed
        if not one.passed:
            assert one.witness["margin"] == pytest.approx(
                other.witness["margin"], rel=1e-9, abs=1e-12
            )


class TestBruteForce:
    def test_trivial_game_every_profile_qualifies(self):
        game = example_trivial_pref()
        found = brute_force_gne(game, h=1.0)
        assert len(found) == 9
        points = {tuple(p.stacked) for p, _ in found}
        assert (0.0, 0.0) in points
        assert all(cert.passed for _, cert in found)

    def test_coordinate_game_unique_corner(self):
        game = example_coordinate_pref()
        found = brute_force_gne(game, h=0.5)
        assert [tuple(p.stacked) for p, _ in found] == [(1.0, 1.0)]

    def test_pull_game_equilibria_cluster_at_origin(self, pull_game):
        found = brute_force_gne(pull_game, h=0.05)
        points = np.array([p.stacked for p, _ in found])
        assert any(np.all(row == 0.0) for row in points)
        # Exact best-response ties admit neighbors within one cell.
        assert np.max(np.abs(points)) <= 0.05 + 1e-12

    def test_budget_game_equilibrium_segment(self, budget_game):
        found = brute_force_gne(budget_game, h=0.1)
        points = np.array([p.stacked for p, _ in found])
        assert len(found) == 8
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-9)
        assert points[:, 0].min() == pytest.approx(0.2, abs=1e-9)
        assert points[:, 0].max() == pytest.approx(0.9, abs=1e-9)

    def test_threshold_band_game_goes_generic(self):
        _, _, game = example_lhc_remark()
        found = brute_force_gne(game, h=0.5)
        points = {tuple(p.stacked) for p, _ in found}
        # First player deviates to any nonnegative value whenever the first
        # coordinate is negative, so equilibria need x >= 0; the second
        # player then climbs to the top of the band.
        assert points
        assert all(x >= 0.0 and y == 1.0 for x, y in points)

    def test_budget_guard(self, pull_game):
        with pytest.raises(GridBudgetError):
            brute_force_gne(pull_game, h=1e-5)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _scalar_game(exprs, box=(-1.0, 1.0), constraints=None):
    players = tuple(PlayerSpec(1, (box,), UtilityPreference(e)) for e in exprs)
    return GameSpec(players, constraints or BoxOnly())


def _count_rows(game):
    """Wrap each compiled utility to record the rows of every call, counted
    as the bench's tracer counts them: prod(shape[:-1]) of the input."""
    rows = []
    for spec in game.players:
        fn = spec.preference.fn

        def counted(values, fn=fn):
            rows.append(math.prod(np.shape(values)[:-1]))
            return fn(values)

        spec.preference.__dict__["fn"] = counted  # replaces the cached compile
    return rows


_TENSOR_GAMES = {
    "3x1 h0.02": (lambda: random_concave_quadratic(5, 3, 1), 0.02),
    "2x2": (lambda: random_concave_quadratic(6, 2, 2), 0.1),
    "own-only, rival-only term, constant": (
        lambda: _scalar_game(["-(x1-0.3)^2", "x1*x3 - x2^2 + 0.5*x3", "1"]),
        0.1,
    ),
    "odd powers": (
        lambda: _scalar_game(["x1^3 - x2^5*x1 + x2^-3", "-x2^7 + x1^-1*x2"], box=(0.5, 2.0)),
        0.05,
    ),
    "shared": (lambda: arrow_debreu_instance(3), 0.02),
}


class TestUtilityTensor:
    """The column-view tensor against the utility evaluated on materialized profiles."""

    @pytest.mark.parametrize("name", list(_TENSOR_GAMES))
    def test_equals_materialized_evaluation_bit_for_bit(self, name):
        make, h = _TENSOR_GAMES[name]
        game = make()
        axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
        shape = tuple(a.size for a in axes)
        profiles = _cartesian(axes)
        for player, spec in enumerate(game.players):
            expected = np.broadcast_to(spec.preference.fn(profiles), profiles.shape[:1])
            tensor = _utility_tensor(game, player, axes)
            assert tensor.shape == shape
            np.testing.assert_array_equal(_bits(tensor), _bits(expected).reshape(shape))

    @pytest.mark.parametrize("expr", ["1/x1", "x2/(x1-x2)", "x1^-2 + 1/(x2*x2)"])
    def test_non_finite_grid_utility_raises(self, expr):
        game = _scalar_game([expr, "-x2^2"])
        axes = _grid_axes(game.box_lo, game.box_hi, 0.5, "profile")
        message = "utility of player 0 is non-finite on the grid"
        with pytest.raises(EvaluationError, match=message):
            _utility_tensor(game, 0, axes)
        with pytest.raises(EvaluationError, match=message):
            brute_force_gne(game, 0.5)

    @pytest.mark.parametrize("name", ["3x1 h0.02", "own-only, rival-only term, constant"])
    def test_rows_count_as_the_materialized_grid(self, name):
        make, h = _TENSOR_GAMES[name]
        game = make()
        rows = _count_rows(game)
        brute_force_gne(game, h)
        points = math.prod(
            a.size for a in _grid_axes(game.box_lo, game.box_hi, h, "profile")
        )
        assert rows == [points] * game.n_players


def _reference_equilibria(game, h):
    """Naive grid enumeration: one profile, one player, one deviation at a time."""
    axes = [grid_coordinates(lo, hi, h) for lo, hi in zip(game.box_lo, game.box_hi)]
    grids = [player_grid(game, p, h) for p in range(game.n_players)]
    found = []
    for vector in itertools.product(*axes):
        x = split_profile(game, vector)
        regions = [feasible_region(game, p, x.rivals(p)) for p in range(game.n_players)]
        if not all(
            region.contains(x.block(p).array) for p, region in enumerate(regions)
        ):
            continue
        improvable = any(
            region.contains(y) and strictly_prefers(game, p, y, x)
            for p, region in enumerate(regions)
            for y in grids[p]
        )
        if not improvable:
            found.append(tuple(float(v) for v in vector))
    return found


def _random_rows(rng, total_dim):
    """One or two seeded shared rows a x <= b that keep part of the box feasible."""
    a = np.round(rng.uniform(0.2, 1.0, (int(rng.integers(1, 3)), total_dim)), 2)
    b = np.round(rng.uniform(0.1, 0.6, a.shape[0]) * a.sum(axis=1), 2)
    return SharedLinear(tuple(map(tuple, a)), tuple(b))


def _away(coefficient, own):
    """Open halfspace {y : c y < c own} with c = ``coefficient`` at the profile.

    The player wants to move against the sign of c, which depends on the
    profile; where c is 0 the set is empty.
    """
    return ContourRow((coefficient,), f"({coefficient})*{own}")


def _generic_game(family, seed, shared):
    rng = np.random.default_rng(seed)
    box = ((-1.0, 1.0),)
    # Grid-aligned thresholds, so that some profiles zero a coefficient.
    c = [float(v) for v in rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], 3)]
    if family == "coordinate":
        players = [PlayerSpec(1, box, CoordinateOrder()) for _ in range(2)]
    elif family == "threshold-band":
        players = [PlayerSpec(1, box, ThresholdBand()) for _ in range(2)]
    elif family == "halfspace":
        players = [
            PlayerSpec(1, box, HalfspaceContour((_away(f"x2-{c[0]}", "x1"),))),
            PlayerSpec(
                1,
                box,
                HalfspaceContour((_away(f"x1-{c[1]}", "x2"), ContourRow(("1",), "x2+0.5"))),
            ),
        ]
    elif family == "trivial":
        players = [
            PlayerSpec(1, box, TrivialZero()),
            PlayerSpec(1, box, HalfspaceContour((_away(f"x1-{c[0]}", "x2"),))),
        ]
    elif family == "utility-halfspace":
        players = [
            PlayerSpec(1, box, UtilityPreference(f"-(x1-{c[0]}*x2-{c[1]})^2")),
            PlayerSpec(1, box, HalfspaceContour((_away(f"x1-{c[2]}", "x2"),))),
        ]
    else:  # a two-coordinate block
        players = [
            PlayerSpec(2, box * 2, CoordinateOrder()),
            PlayerSpec(1, box, HalfspaceContour((_away(f"x1+x2-{c[0]}", "x3"),))),
        ]
    total_dim = sum(p.dim for p in players)
    constraints = _random_rows(rng, total_dim) if shared else BoxOnly()
    return GameSpec(tuple(players), constraints)


class TestGenericEnumeration:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "family",
        ["coordinate", "threshold-band", "halfspace", "trivial", "utility-halfspace", "blocks"],
    )
    def test_matches_naive_reference(self, family, seed, shared):
        game = _generic_game(family, seed, shared)
        h = 0.5 if family == "blocks" else 0.25
        found = [tuple(float(v) for v in p.stacked) for p, _ in brute_force_gne(game, h)]
        assert found == _reference_equilibria(game, h)

    def test_only_live_profiles_are_evaluated(self):
        # Player 1's utility divides by zero at x1 in {-1, 0}, and player 0
        # already rules those profiles out, so they are never evaluated.
        box = ((-1.0, 1.0),)
        game = GameSpec(
            (
                PlayerSpec(1, box, CoordinateOrder()),
                PlayerSpec(1, box, UtilityPreference("x2/(x1*(x1+1))")),
            )
        )
        found = [tuple(p.stacked) for p, _ in brute_force_gne(game, 1.0)]
        assert found == [(1.0, 1.0)] == _reference_equilibria(game, 1.0)

    def test_chunked_tables_match_one_table(self, monkeypatch):
        from ordnash import verify

        game = _generic_game("halfspace", 3, True)
        whole = brute_force_gne(game, 0.1)
        monkeypatch.setattr(verify, "_CHUNK_ENTRIES", 7)
        chunked = brute_force_gne(game, 0.1)
        assert [p.stacked.tolist() for p, _ in chunked] == [
            p.stacked.tolist() for p, _ in whole
        ]
        assert whole


def _per_rival_point_equilibria(game, h):
    """The enumeration the generic path replaced, kept as an oracle: one
    feasible region, pool and (live, pool) table per player and rival point."""
    axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
    shape = tuple(a.size for a in axes)
    feasible = _feasible_tensor(game, axes)
    equilibrium = np.ones(shape, dtype=bool) if feasible is None else feasible.copy()
    for player in range(game.n_players):
        if isinstance(game.players[player].preference, TrivialZero):
            continue
        sl = game.own_slice(player)
        own_points = _cartesian(axes[sl])
        before = int(np.prod(shape[: sl.start]))
        live_view = equilibrium.reshape(before, own_points.shape[0], -1)
        after = live_view.shape[2]
        for rival_flat, rivals in enumerate(_cartesian(axes[: sl.start] + axes[sl.stop :])):
            i, k = divmod(rival_flat, after)
            live = np.flatnonzero(live_view[i, :, k])
            if live.size == 0:
                continue
            region = feasible_region(game, player, rivals)
            pool = own_points[region.contains_many(own_points)]
            if pool.shape[0] == 0:
                continue
            profiles = np.empty((live.size, game.total_dim))
            profiles[:, : sl.start] = rivals[: sl.start]
            profiles[:, sl] = own_points[live]
            profiles[:, sl.stop :] = rivals[sl.start :]
            table = _strict_upper_table(game, player, pool, profiles)
            live_view[i, live[table.any(axis=1)], k] = False
    return [tuple(axes[j][i] for j, i in enumerate(idx)) for idx in np.argwhere(equilibrium)]


def _mixed_budget_like(seed):
    """Three scalar players on [0, 1] under one budget row: two bliss-point
    utilities (the second moving with x3) and a rival-dependent contour row."""
    rng = np.random.default_rng(seed)
    t1, t2 = (float(v) for v in rng.uniform(0.3, 1.3, 2))
    c = float(rng.uniform(0.2, 0.8))
    box = ((0.0, 1.0),)
    players = (
        PlayerSpec(1, box, UtilityPreference(f"-(x1-{t1!r})^2")),
        PlayerSpec(1, box, UtilityPreference(f"-(x2-{t2!r}+{c!r}*x3)^2")),
        PlayerSpec(
            1, box, HalfspaceContour((ContourRow((f"-(1+{c!r}*x1)",), f"-(1+{c!r}*x1)*x3"),))
        ),
    )
    a = np.round(rng.uniform(0.5, 1.0, 3), 2)
    budget = SharedLinear(a=(tuple(a),), b=(float(np.round(rng.uniform(0.8, 1.5), 2)),))
    return GameSpec(players, budget)


def _found(game, h):
    return [tuple(p.stacked) for p, _ in brute_force_gne(game, h)]


class TestGenericMatchesPerRivalPointOracle:
    """The whole-lattice generic enumeration finds what deciding one rival
    point at a time finds, in grid order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_three_player_shared_games_at_fine_step(self, seed):
        game = _mixed_budget_like(seed)
        found = _found(game, 0.02)
        assert found == _per_rival_point_equilibria(game, 0.02)
        assert found

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize(
        "family",
        ["coordinate", "threshold-band", "halfspace", "trivial", "utility-halfspace", "blocks"],
    )
    def test_every_generic_family(self, family, shared, chunk, monkeypatch):
        from ordnash import verify

        if chunk is not None:
            monkeypatch.setattr(verify, "_CHUNK_ENTRIES", chunk)
        for seed in range(2):
            game = _generic_game(family, seed, shared)
            assert _found(game, 0.1) == _per_rival_point_equilibria(game, 0.1)


class TestSolverToGridBridge:
    def test_coordinate_singleton_checks_out(self):
        cert = theorem1_property(
            [example_coordinate_pref()], SolverConfig(restarts=4), h=0.1
        )
        assert cert.passed
        assert cert.kind == "theorem1"
        assert "1 solutions checked" in cert.detail
        assert "converged=1" in cert.detail
        assert "failures=0" in cert.detail

    def test_unconverged_runs_are_vacuous(self, pull_game):
        cfg = SolverConfig(max_iters=3, restarts=1, tol=1e-15)
        cert = theorem1_property([pull_game], cfg, h=0.1)
        assert cert.passed
        assert "0 solutions checked" in cert.detail
        assert "converged=0" in cert.detail

    def test_interior_solutions_skip_via_zero_selection(self, pull_game):
        cert = theorem1_property([pull_game], SolverConfig(restarts=4), h=0.05)
        assert cert.passed
        assert "zero_selection=1" in cert.detail
        assert "0 solutions checked" in cert.detail

    def test_batch_of_seeded_games(self):
        games = [random_concave_quadratic(seed) for seed in range(5)]
        cert = theorem1_property(games, SolverConfig(restarts=4), h=0.05)
        assert cert.passed
        assert "failures=0" in cert.detail


class TestGridToSeparatorBridge:
    def test_coordinate_corner_certified(self):
        cert = theorem2_property([example_coordinate_pref()], h=0.1)
        assert cert.passed
        assert cert.kind == "theorem2"
        assert "equilibria=1" in cert.detail
        assert "certified=1" in cert.detail

    def test_trivial_game_has_no_separators(self):
        cert = theorem2_property([example_trivial_pref()], h=0.5)
        assert not cert.passed
        assert "no_separator=25" in cert.detail
        assert "equilibria=25" in cert.detail
        assert "no separator" in cert.witness["reason"]

    def test_monotone_scalar_batch_certifies(self):
        from ordnash.corpus import monotone_concave_instance

        games = [monotone_concave_instance(seed) for seed in range(5)]
        cert = theorem2_property(games, h=0.25)
        assert cert.passed
        assert "failures=0" in cert.detail
        assert "no_separator=0" in cert.detail


class TestLhcProbe:
    STEPS = (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)

    def test_vanishing_interval_map_passes(self):
        lhc_map, _, _ = example_lhc_remark()
        cert = lhc_probe(
            lhc_map,
            base_points=(-0.75, -0.5, -0.25, -0.1),
            directions=(1.0, -1.0),
            steps=self.STEPS,
        )
        assert cert.passed
        assert cert.kind == "lhc"

    def test_boundary_value_map_fails(self):
        _, non_lhc_map, _ = example_lhc_remark()
        cert = lhc_probe(
            non_lhc_map,
            base_points=(-0.5, -0.1, 0.0),
            directions=(1.0, -1.0),
            steps=self.STEPS,
        )
        assert not cert.passed
        assert cert.witness["base"] == 0.0
        assert cert.witness["direction"] == 1.0
        assert cert.witness["distances"][-1] is None

    def test_constant_map_passes(self):
        cert = lhc_probe(
            lambda x: (0.0, 1.0),
            base_points=(-1.0, 0.0, 1.0),
            directions=(1.0, -1.0),
            steps=self.STEPS,
        )
        assert cert.passed

    def test_jump_map_fails_with_finite_distance(self):
        def jump(x):
            return (0.0, 1.0) if x <= 0 else (2.0, 3.0)

        cert = lhc_probe(
            jump, base_points=(0.0,), directions=(1.0,), steps=self.STEPS
        )
        assert not cert.passed
        # First reported witness samples y = 0, which sits 2 away from [2, 3].
        assert cert.witness["distances"][-1] == pytest.approx(2.0)

    def test_nonmonotone_distance_trend_fails(self):
        # Interval wanders away mid-approach even though the final step is
        # back on target; the trend requirement catches the excursion.
        def wobble(x):
            if abs(x - 0.16) < 1e-12:
                return (0.5, 1.5)
            return (0.0, 1.0)

        cert = lhc_probe(
            wobble, base_points=(0.0,), directions=(1.0,), steps=self.STEPS
        )
        assert not cert.passed
        assert cert.witness["point"] == pytest.approx(0.0)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            lhc_probe(lambda x: (0.0, 1.0), (0.0,), (1.0,), steps=())
        with pytest.raises(ValueError):
            lhc_probe(lambda x: (0.0, 1.0), (0.0,), (1.0,), steps=(0.1, -0.2))
