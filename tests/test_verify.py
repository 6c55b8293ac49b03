"""Verification layer: grid certificates, exact variational checks, bridge
properties between solver output and grid equilibria, continuity probes."""

import itertools
import math
import tracemalloc

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
    quadratic_equilibrium,
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
    _joint_region,
    _strict_upper_table,
    feasible_region,
    split_profile,
    strictly_prefers,
)
from ordnash.solver import SolverConfig, selection_T
from ordnash.verify import (
    Certificate,
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

    def test_blocks_give_the_certificate_of_one_block(self, budget_game, monkeypatch):
        """At cap 7 each player's grid is tested in many blocks; certificate
        and witness (the first improving grid point) stay those of one block."""
        from ordnash import verify

        quadratic = random_concave_quadratic(2, 2, 2)
        rng = np.random.default_rng(5)
        cases = [
            (quadratic, quadratic_equilibrium(2, 2, 2), 0.05),
            *((quadratic, rng.uniform(-1, 1, 4), 0.05) for _ in range(4)),
            (budget_game, [0.75, 0.25], 0.05),
            (budget_game, [0.05, 0.95], 0.05),
            (example_coordinate_pref(), [0.0, 0.0], 0.1),
            (example_coordinate_pref(), [1.0, 1.0], 0.1),
        ]
        whole = [check_gne_grid(g, split_profile(g, x), h) for g, x, h in cases]
        monkeypatch.setattr(verify, "_CHUNK_ENTRIES", 7)
        blocked = [check_gne_grid(g, split_profile(g, x), h) for g, x, h in cases]
        assert blocked == whole
        assert {cert.passed for cert in whole} == {True, False}

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
    """check_svip's margin and minimizer written out over the region formulas."""
    g = np.asarray(g, dtype=np.float64) / np.linalg.norm(g)
    margin = 0.0
    minimizer = []
    for player in range(game.n_players):
        sl = game.own_slice(player)
        region = feasible_region(game, player, np.delete(point, np.arange(sl.start, sl.stop)))
        best = formula_linear_min(region, g[sl])
        margin += float(g[sl] @ best) - float(g[sl] @ point[sl])
        minimizer.extend(best)
    return margin, minimizer


class TestCheckSvip:
    @pytest.mark.parametrize("seed", range(4))
    def test_arrow_debreu_margins_are_bit_equal_to_the_formula(self, seed):
        """600 calls per seed at the budget-line and inside points of the
        ``svip`` bench operation (its unit direction, and random ones):
        verdict, detail and witness bit for bit the formula's."""
        game = arrow_debreu_instance(seed)
        rng = np.random.default_rng(seed)
        for share in rng.uniform(0.05, 0.85, 150):
            for point in ([share, 1.0 - share], [share, 0.9 - share]):
                point = np.array(point)
                for g in (np.full(2, -1.0), rng.normal(size=2)):
                    cert = check_svip(game, split_profile(game, point), g)
                    margin, minimizer = _formula_margin(game, point, g)
                    assert cert.passed == (margin >= -1e-6)
                    assert cert.detail == f"margin {margin:.6e} against tolerance 1.0e-06"
                    if cert.passed:
                        assert cert.witness is None
                    else:
                        assert _bits(cert.witness["margin"]) == _bits(margin)
                        np.testing.assert_array_equal(
                            _bits(cert.witness["minimizer"]), _bits(minimizer)
                        )

    @pytest.mark.parametrize(
        "g",
        [[1e200, 1e200], [1e308, 1e308], [1e-200, 1e-200], [1e-320, 1e-320], [3e-162, 3e-162]],
    )
    def test_norm_overflow_and_underflow_are_rescaled(self, g):
        # The squares overflow to inf, underflow to 0, or are subnormal (the
        # last case read -0.675); the verdict is that of [1, 1].
        game = arrow_debreu_instance(1)
        x = split_profile(game, [0.3, 0.7])
        cert, unit = check_svip(game, x, g), check_svip(game, x, [1.0, 1.0])
        assert not cert.passed
        assert cert.detail == unit.detail == "margin -7.071068e-01 against tolerance 1.0e-06"
        assert cert.witness == unit.witness
        assert cert.witness["margin"] == pytest.approx(-math.sqrt(0.5), abs=1e-15)

    def test_one_huge_entry_is_rescaled(self):
        game = arrow_debreu_instance(1)
        x = split_profile(game, [0.3, 0.7])
        cert = check_svip(game, x, [0.0, -1e300])
        assert cert == check_svip(game, x, [0.0, -1.0])
        assert cert.passed

    @pytest.mark.parametrize(
        "g", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, -np.inf], [np.inf, np.nan]]
    )
    def test_non_finite_operator_rejected(self, g):
        game = arrow_debreu_instance(1)
        x = split_profile(game, [0.3, 0.7])
        with pytest.raises(ValueError, match="must be finite"):
            check_svip(game, x, g)

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
        # A Selection counts as its stacked array, passing or failing.
        selection = selection_T(game, split_profile(game, [0.0, 0.5]))
        for point in ([1.0, 1.0], [0.0, 0.5]):
            y = split_profile(game, point)
            assert check_svip(game, y, selection) == check_svip(game, y, selection.stacked)
        assert not check_svip(game, split_profile(game, [0.0, 0.5]), selection).passed

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
        """Blocks outside the vertex-enumeration shapes take HiGHS; they match
        the reference LP's objective to 1e-9."""
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
    """Wrap each compiled utility to record the rows of every call, one list
    per player, counted as the bench's tracer counts them: prod(shape[:-1])
    of the input."""
    rows = [[] for _ in game.players]
    for spec, calls in zip(game.players, rows):
        fn = spec.preference.fn

        def counted(values, fn=fn, calls=calls):
            calls.append(math.prod(np.shape(values)[:-1]))
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
    # 0 is off the grid, so every best response is unique and the first two
    # players chase each other round; the third player is never reached.
    "no grid equilibrium": (lambda: _scalar_game(["x1*x2", "-x1*x2", "-x3^2"]), 0.3),
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

    @pytest.mark.parametrize(
        "name", ["3x1 h0.02", "own-only, rival-only term, constant", "no grid equilibrium"]
    )
    def test_rows_count_as_the_materialized_grid(self, name):
        # Player 0 reads the whole lattice; each later player reads the
        # product of its window sizes: own axes whole, each rival axis the
        # index range of the rival points still live before its pass (from
        # the full-tensor reference).  Once nothing is live, nothing is read.
        # A player's reads are summed over its blocks, and no block reads
        # more than the cap or one index of the window's first rival axis.
        from ordnash import verify

        make, h = _TENSOR_GAMES[name]
        game = make()
        _, before = _ref_tensor_equilibria(make(), h)
        calls = _count_rows(game)
        brute_force_gne(game, h)
        shape = tuple(a.size for a in _grid_axes(game.box_lo, game.box_hi, h, "profile"))
        expected = []
        for player, equilibrium in enumerate(before):
            sl = game.own_slice(player)
            live = equilibrium.any(axis=tuple(range(sl.start, sl.stop)))
            if not live.any():
                break
            spans = [int(np.ptp(index)) + 1 for index in np.nonzero(live)]
            expected.append(math.prod(shape[sl]) * math.prod(spans))
            one_index = expected[-1] // spans[0]
            assert max(calls[player]) <= max(verify._CHUNK_ENTRIES, one_index)
        rows = [sum(player_calls) for player_calls in calls if player_calls]
        assert rows == expected
        assert rows[0] == math.prod(shape)
        if name == "no grid equilibrium":
            assert len(rows) == 2 < game.n_players
        else:
            assert len(rows) == game.n_players and rows[-1] < rows[0]

    def test_later_player_non_finite_inside_its_window_raises(self):
        # Player 0 keeps only x1 = 0.5, where player 1 divides by zero.
        game = _scalar_game(["-(x1-0.5)^2", "x2/(x1-0.5)"])
        with pytest.raises(EvaluationError, match="utility of player 1 is non-finite"):
            brute_force_gne(game, 0.5)

    def test_later_player_non_finite_outside_its_window_is_not_read(self):
        # Player 1 divides by zero at x1 = -1 only, outside its window
        # {x1 = 0.5}: the full tensor raises, the windowed pass does not.
        exprs = ["-(x1-0.5)^2", "-x2^2/(x1+1)"]
        game = _scalar_game(exprs)
        with pytest.raises(EvaluationError, match="utility of player 1 is non-finite"):
            _ref_tensor_equilibria(game, 0.5)
        found = np.array([p.stacked for p, _ in brute_force_gne(game, 0.5)])
        # The same game over the finite part of the lattice, x1 >= -0.5.
        players = tuple(
            PlayerSpec(1, (box,), UtilityPreference(e))
            for e, box in zip(exprs, [(-0.5, 1.0), (-1.0, 1.0)])
        )
        finite, _ = _ref_tensor_equilibria(GameSpec(players, BoxOnly()), 0.5)
        np.testing.assert_array_equal(_bits(found), _bits(finite))
        assert found.tolist() == [[0.5, 0.0]]


def _ref_tensor_equilibria(game, h):
    """The utility-tensor enumeration before windowing, kept as an oracle:
    every player's utility over the whole lattice.  Returns the equilibrium
    vectors in grid order and the live tensor before each player's pass."""
    axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
    feasible = _feasible_tensor(game, axes)
    shape = tuple(a.size for a in axes)
    equilibrium = feasible.copy() if feasible is not None else np.ones(shape, dtype=bool)
    before = []
    for player in range(game.n_players):
        before.append(equilibrium.copy())
        values = _utility_tensor(game, player, axes)
        if feasible is not None:
            values = np.where(feasible, values, -np.inf)
        sl = game.own_slice(player)
        own_axes = tuple(range(sl.start, sl.stop))
        best = values.max(axis=own_axes, keepdims=True)
        # A strictly larger feasible value along the own axes means the
        # player can improve; equality (including ties) does not.
        equilibrium &= ~(values < best)
    index = np.unravel_index(np.flatnonzero(equilibrium), shape)
    vectors = np.stack([a[i] for a, i in zip(axes, index)], axis=1)
    return vectors, before


# (players, dims, h) of the four box shapes.
_BOX_SHAPES = [(2, 1, 0.05), (3, 1, 0.1), (2, 2, 0.2), (3, 2, 0.5)]


@pytest.fixture(params=[None, 7], ids=["default-cap", "cap-7"])
def chunk_cap(request, monkeypatch):
    """The block cap ``verify._CHUNK_ENTRIES`` at its default, and at 7,
    where most blocks hold one index of their axis."""
    from ordnash import verify

    if request.param is not None:
        monkeypatch.setattr(verify, "_CHUNK_ENTRIES", request.param)


@pytest.mark.usefixtures("chunk_cap")
class TestWindowedTensorMatchesFullTensor:
    """``brute_force_gne`` on utility games returns, bit for bit and in grid
    order, the profiles of the full-tensor enumeration it replaced, whatever
    the block cap."""

    @staticmethod
    def _assert_same(game, h):
        found = [p.stacked for p, _ in brute_force_gne(game, h)]
        expected, _ = _ref_tensor_equilibria(game, h)
        found = np.array(found).reshape(-1, game.total_dim)
        np.testing.assert_array_equal(_bits(found), _bits(expected))
        return len(found)

    @pytest.mark.parametrize("nonnegative", [False, True])
    @pytest.mark.parametrize("players, dims, h", _BOX_SHAPES)
    def test_box_games(self, players, dims, h, nonnegative):
        for seed in range(20):
            game = random_concave_quadratic(
                seed, players, dims, nonnegative_coupling=nonnegative
            )
            self._assert_same(game, h)

    def test_arrow_debreu_games(self):
        for seed in range(20):
            assert self._assert_same(arrow_debreu_instance(seed), 0.05)

    @pytest.mark.parametrize("players, dims, h", _BOX_SHAPES)
    def test_shared_random_rows(self, players, dims, h):
        for seed in range(5):
            box_game = random_concave_quadratic(seed, players, dims)
            rows = _random_rows(np.random.default_rng(seed), box_game.total_dim)
            self._assert_same(GameSpec(box_game.players, rows), h)

    @pytest.mark.parametrize("name", list(_TENSOR_GAMES))
    def test_tensor_games(self, name):
        make, h = _TENSOR_GAMES[name]
        count = self._assert_same(make(), h)
        assert (count == 0) == (name == "no grid equilibrium")

    @pytest.mark.parametrize(
        "game, h",
        [
            (_scalar_game(["x1^2"]), 0.5),
            (_scalar_game(["-(x1-0.3)^2"]), 0.05),
            (GameSpec((PlayerSpec(2, ((-1.0, 1.0),) * 2, UtilityPreference("x1*x2")),)), 0.1),
        ],
        ids=["corners", "interior", "two-coordinate"],
    )
    def test_one_player_game_is_one_block(self, game, h, monkeypatch):
        """A lone player has no rival axis: its whole lattice is one block,
        also when the cap is smaller than the lattice."""
        from ordnash import verify

        calls = []

        def counted(game, player, axes, original=verify._utility_tensor):
            calls.append(player)
            return original(game, player, axes)

        monkeypatch.setattr(verify, "_utility_tensor", counted)
        assert self._assert_same(game, h)
        assert calls == [0]

    def test_later_player_non_finite_in_the_last_block_raises(self):
        # Player 0 keeps x1 = x2 live for every x2, so player 1's window is
        # the whole lattice; its utility is non-finite only at x1 = 1, the
        # last index of its first rival axis, so the last block at cap 7.
        game = _scalar_game(["-(x1-x2)^2", "x2/(x1-1)"])
        with pytest.raises(EvaluationError, match="utility of player 1 is non-finite on the grid"):
            brute_force_gne(game, 0.5)


@pytest.mark.usefixtures("chunk_cap")
class TestBlockedJointMask:
    """The joint tensor, filled block by block, equals the joint region's
    ``contains_many`` on the whole materialized lattice."""

    @staticmethod
    def _assert_same(game, h):
        axes = _grid_axes(game.box_lo, game.box_hi, h, "profile")
        expected = _joint_region(game).contains_many(_cartesian(axes))
        feasible = _feasible_tensor(game, axes)
        assert feasible.shape == tuple(a.size for a in axes)
        np.testing.assert_array_equal(feasible.ravel(), expected)
        return expected

    @pytest.mark.parametrize("players, dims, h", _BOX_SHAPES)
    def test_shared_random_rows(self, players, dims, h):
        for seed in range(5):
            box_game = random_concave_quadratic(seed, players, dims)
            rows = _random_rows(np.random.default_rng(seed), box_game.total_dim)
            mask = self._assert_same(GameSpec(box_game.players, rows), h)
            assert mask.any() and not mask.all()

    def test_arrow_debreu_games(self):
        for seed in range(20):
            assert self._assert_same(arrow_debreu_instance(seed), 0.02).any()

    def test_box_only_game_has_no_mask(self):
        game = random_concave_quadratic(0, 2, 1)
        assert _feasible_tensor(game, _grid_axes(game.box_lo, game.box_hi, 0.1, "profile")) is None


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """The grid routines hold one byte per lattice point plus a few blocks;
    building the lattice's float profiles or utility values at once takes
    from 9.9 MiB (the 101^3 box game) to 63 MiB (the million-point grid)."""

    BOUND_MIB = 4.0

    @pytest.mark.parametrize("shared", [False, True], ids=["box", "shared"])
    def test_brute_force_on_a_million_profiles(self, shared):
        game = random_concave_quadratic(3, 3, nonnegative_coupling=True)
        if shared:
            game = GameSpec(game.players, SharedLinear(((0.5, 0.6, 0.7),), (0.4,)))
        found = []
        peak = _traced_peak_mib(lambda: found.extend(brute_force_gne(game, 0.02)))
        assert found
        assert peak < self.BOUND_MIB

    def test_grid_check_of_a_million_deviations(self):
        game = random_concave_quadratic(2, 2, 2)
        x = split_profile(game, quadratic_equilibrium(2, 2, 2))
        certs = []
        peak = _traced_peak_mib(lambda: certs.append(check_gne_grid(game, x, 0.002)))
        assert certs[0].passed
        assert peak < self.BOUND_MIB


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
    elif family == "trivial-utility":
        players = [
            PlayerSpec(1, box, TrivialZero()),
            PlayerSpec(1, box, UtilityPreference(f"-(x2-{c[0]}*x1-{c[1]})^2")),
        ]
    else:  # a two-coordinate block
        players = [
            PlayerSpec(2, box * 2, CoordinateOrder()),
            PlayerSpec(1, box, HalfspaceContour((_away(f"x1+x2-{c[0]}", "x3"),))),
        ]
    total_dim = sum(p.dim for p in players)
    constraints = _random_rows(rng, total_dim) if shared else BoxOnly()
    return GameSpec(tuple(players), constraints)


_GENERIC_FAMILIES = [
    "coordinate",
    "threshold-band",
    "halfspace",
    "trivial",
    "utility-halfspace",
    "trivial-utility",
    "blocks",
]


class TestGenericEnumeration:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", _GENERIC_FAMILIES)
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

    @pytest.mark.parametrize(
        "family, utility_player", [("utility-halfspace", 0), ("trivial-utility", 1)]
    )
    def test_utility_players_take_the_tensor(self, family, utility_player, monkeypatch):
        """Beside a contour or trivial player, a utility player is decided by
        its utility tensor, not by the strict-preference tables."""
        from ordnash import verify

        calls = []

        def counted(game, player, axes, original=verify._utility_tensor):
            calls.append(player)
            return original(game, player, axes)

        monkeypatch.setattr(verify, "_utility_tensor", counted)
        for shared in (False, True):
            game = _generic_game(family, 0, shared)
            assert _found(game, 0.25) == _reference_equilibria(game, 0.25)
        assert calls == [utility_player, utility_player]

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


def _zero_coefficient_game(seed):
    """Three scalar players under two seeded rows, each with no coefficient
    for one player, so that the row decides that player's region from the
    rivals alone."""
    rng = np.random.default_rng(seed)
    box = ((-1.0, 1.0),)
    c = float(rng.choice([-0.5, 0.0, 0.25]))
    players = (
        PlayerSpec(1, box, CoordinateOrder()),
        PlayerSpec(1, box, HalfspaceContour((_away(f"x3-{c}", "x2"),))),
        PlayerSpec(1, box, CoordinateOrder()),
    )
    a = rng.choice([-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0], (2, 3))
    a[[0, 1], rng.choice(3, 2, replace=False)] = 0.0
    b = np.round(rng.uniform(0.2, 1.0, 2), 2)
    return GameSpec(players, SharedLinear(tuple(map(tuple, a)), tuple(b)))


def _large_offset_game(seed):
    """Two scalar players under seeded rows with |b| > 1: the tolerance of a
    row scales with |b| in the joint region and with |b - rival part| in a
    player's region."""
    rng = np.random.default_rng(seed)
    box = ((-1.0, 1.0),)
    t, u = (float(v) for v in np.round(rng.uniform(-1.0, 1.0, 2), 2))
    players = (
        PlayerSpec(1, box, UtilityPreference(f"-(x1-{t}*x2-{u})^2")),
        PlayerSpec(1, box, CoordinateOrder()),
    )
    a = np.round(rng.uniform(1.0, 3.0, (2, 2)) * 2.0) / 2.0 * rng.choice([-1.0, 1.0], (2, 2))
    reach = np.abs(a).sum(axis=1)  # a x ranges over [-reach, reach] on the box
    b = np.round(rng.uniform(1.2, 0.9 * reach), 2) * rng.choice([-1.0, 1.0], 2)
    return GameSpec(players, SharedLinear(tuple(map(tuple, a)), tuple(b)))


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

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [_zero_coefficient_game, _large_offset_game])
    def test_shared_rows_with_zero_coefficients_and_large_offsets(self, make, seed):
        game = make(seed)
        found = _found(game, 0.1)
        assert found == _per_rival_point_equilibria(game, 0.1)

    @pytest.mark.parametrize(
        "name",
        [
            f"{family}-{seed}"
            for family in (
                "coordinate",
                "halfspace",
                "utility-halfspace",
                "blocks",
                "mixed-budget",
                "zero-coefficient",
                "large-offset",
            )
            for seed in range(2)
        ],
    )
    def test_pools_equal_player_regions_on_the_grid(self, name):
        """At every rival point with a jointly feasible profile, the joint
        tensor's slice is the set of own grid points the player's region
        contains."""
        family, seed = name.rsplit("-", 1)
        makers = {
            "mixed-budget": _mixed_budget_like,
            "zero-coefficient": _zero_coefficient_game,
            "large-offset": _large_offset_game,
        }
        game = makers.get(family, lambda s: _generic_game(family, s, True))(int(seed))
        axes = _grid_axes(game.box_lo, game.box_hi, 0.1, "profile")
        feasible = _feasible_tensor(game, axes)
        for player in range(game.n_players):
            sl = game.own_slice(player)
            own_points = _cartesian(axes[sl])
            before = int(np.prod(feasible.shape[: sl.start]))
            view = feasible.reshape(before, own_points.shape[0], -1)
            for flat, rivals in enumerate(_cartesian(axes[: sl.start] + axes[sl.stop :])):
                i, k = divmod(flat, view.shape[2])
                if view[i, :, k].any():
                    region = feasible_region(game, player, rivals)
                    np.testing.assert_array_equal(
                        view[i, :, k], region.contains_many(own_points)
                    )

    def test_shared_pools_build_no_player_region(self, monkeypatch):
        """On a shared game the pools are slices of the joint tensor, so no
        per-player feasible region is built."""
        from ordnash import model, verify

        calls = []

        def counted(*args, original=model.feasible_region):
            calls.append(args[1])
            return original(*args)

        for module in (model, verify):
            monkeypatch.setattr(module, "feasible_region", counted, raising=False)
        assert _found(_mixed_budget_like(0), 0.05)
        assert calls == []

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("family", _GENERIC_FAMILIES)
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

    def test_a_failing_grid_check_is_counted_with_its_witness(self, monkeypatch):
        from ordnash import verify

        failed = Certificate("gne-grid", False, 0.1, (1, (0.5,)), "player 1 improves")
        monkeypatch.setattr(verify, "check_gne_grid", lambda game, x, h: failed)
        cert = theorem1_property([example_coordinate_pref()], SolverConfig(restarts=4), h=0.1)
        assert not cert.passed
        assert cert.detail.endswith("failures=1")
        assert cert.witness == {"game": 0, "grid_witness": (1, (0.5,))}


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

    def test_a_contour_around_the_point_is_inconclusive(self):
        # The equilibria of x1^2 on [-1, 1] are the two corners; the contour
        # {y : y^2 > 1} lies on both sides of each, so no separator is drawn.
        cert = theorem2_property([_scalar_game(["x1^2"])], h=0.5)
        assert cert.passed
        assert cert.witness is None
        assert cert.detail == (
            "games=1 equilibria=2 certified=0 no_separator=0 inconclusive=2 failures=0"
        )

    def test_a_failing_svip_check_is_counted_with_its_witness(self, monkeypatch):
        from ordnash import verify

        svip_witness = {"margin": -0.5, "minimizer": [0.5, 1.0]}
        failed = Certificate("svip", False, None, svip_witness, "margin -5e-01")
        monkeypatch.setattr(verify, "check_svip", lambda game, x, g, tol: failed)
        cert = theorem2_property([example_coordinate_pref()], h=0.1)
        assert not cert.passed
        assert cert.detail.endswith("certified=0 no_separator=0 inconclusive=0 failures=1")
        assert cert.witness == {
            "game": 0,
            "equilibrium": [1.0, 1.0],
            "svip_witness": svip_witness,
        }

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
