"""Projected-iteration solver: selections, projections, steps, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_budget_pair, make_pull_to_half_rival
from ordnash.cones import Direction, Provenance
from ordnash.corpus import (
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    random_concave_quadratic,
)
from ordnash.errors import (
    InfeasiblePointError,
    InfeasibleRegionError,
)
from ordnash.model import (
    CoordinateOrder,
    FeasibleRegion,
    GameSpec,
    PlayerSpec,
    SharedLinear,
    TrivialZero,
    UtilityPreference,
    feasible_region,
    split_profile,
)
from ordnash.solver import (
    SolverConfig,
    SvipSolution,
    fixed_point_step,
    natural_residual,
    project_feasible,
    selection_T,
    solve_svip,
)
from ordnash.verify import check_svip


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.step, cfg.tol, cfg.max_iters, cfg.restarts, cfg.seed) == (
            0.1,
            1e-8,
            10_000,
            16,
            42,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0},
            {"step": float("inf")},
            {"tol": -1e-8},
            {"max_iters": 0},
            {"restarts": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestProjection:
    def test_box_clamp(self):
        region = FeasibleRegion(
            np.array([-1.0, -1.0]),
            np.array([1.0, 1.0]),
            np.empty((0, 2)),
            np.empty(0),
        )
        np.testing.assert_allclose(
            project_feasible(region, [2.0, 0.3]), [1.0, 0.3]
        )

    def test_halfspace_cap(self):
        region = FeasibleRegion(
            np.array([0.0]), np.array([1.0]), np.array([[1.0]]), np.array([0.25])
        )
        np.testing.assert_allclose(project_feasible(region, [0.9]), [0.25])

    def test_idempotent(self):
        region = FeasibleRegion(
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
        )
        once = project_feasible(region, [0.9, 0.9])
        twice = project_feasible(region, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)
        assert region.contains(once, tol=1e-9)

    def test_empty_region_raises(self):
        region = FeasibleRegion(
            np.array([0.0]), np.array([1.0]), np.array([[1.0]]), np.array([-0.5])
        )
        with pytest.raises(InfeasibleRegionError):
            project_feasible(region, [0.5])

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=2),
        st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    )
    @settings(max_examples=60)
    def test_nonexpansive(self, p, q):
        region = FeasibleRegion(
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([1.2]),
        )
        pp = project_feasible(region, p)
        qq = project_feasible(region, q)
        gap = float(np.linalg.norm(np.array(p) - np.array(q)))
        assert float(np.linalg.norm(pp - qq)) <= gap + 1e-8


class TestSelection:
    def test_coordinate_order_always_descends(self):
        game = example_coordinate_pref()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = split_profile(game, rng.uniform(-0.95, 0.95, 2))
            sel = selection_T(game, x)
            np.testing.assert_array_equal(sel.stacked, [-1.0, -1.0])
            assert sel.provenance == (
                Provenance.POLYHEDRAL,
                Provenance.POLYHEDRAL,
            )

    def test_gradient_selection_frozen_point(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        sel = selection_T(pull_game, x)
        np.testing.assert_allclose(sel.stacked, [1.0, -1.0], atol=1e-9)
        assert sel.provenance == (Provenance.GRADIENT, Provenance.GRADIENT)
        assert sel.all_nonzero

    def test_trivial_preference_yields_zero(self):
        game = example_trivial_pref()
        x = split_profile(game, [0.4, -0.2])
        sel = selection_T(game, x)
        np.testing.assert_array_equal(sel.stacked, [0.0, 0.0])
        assert sel.provenance == (
            Provenance.FULL_SPACE,
            Provenance.FULL_SPACE,
        )
        assert sel.full_space_players == (0, 1)
        assert not sel.all_nonzero

    def test_threshold_band_sampled_or_empty(self):
        _, _, game = example_lhc_remark()
        below = split_profile(game, [-0.3, 0.2])
        sel = selection_T(game, below)
        # Player 0's contour is [0, 1]; the separator points away from it.
        assert sel.directions[0].vector == (-1.0,)
        assert sel.provenance[0] is Provenance.SAMPLED
        above = split_profile(game, [0.3, 0.2])
        sel = selection_T(game, above)
        assert sel.directions[0].is_zero
        assert sel.provenance[0] is Provenance.FULL_SPACE


class TestNaturalResidual:
    def test_zero_at_pinned_corner(self):
        game = example_coordinate_pref()
        x = split_profile(game, [1.0, 1.0])
        r = natural_residual(game, x, [-1.0, -1.0], alpha=0.1)
        assert r == 0.0

    def test_interior_step_length(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.0, 0.0])
        r = natural_residual(game, x, [-1.0, -1.0], alpha=0.1)
        assert r == pytest.approx(0.1 * np.sqrt(2.0), abs=1e-12)

    def test_zero_operator(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.3, 0.3])
        assert natural_residual(game, x, [0.0, 0.0], alpha=0.1) == 0.0

    def test_rejects_nonpositive_alpha(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.0, 0.0])
        with pytest.raises(ValueError):
            natural_residual(game, x, [1.0, 0.0], alpha=0.0)

    def test_rejects_infeasible_point(self):
        game = example_coordinate_pref()
        x = split_profile(game, [2.0, 0.0])
        with pytest.raises(InfeasiblePointError):
            natural_residual(game, x, [1.0, 0.0], alpha=0.1)

    def test_rejects_wrong_operator_size(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.0, 0.0])
        with pytest.raises(ValueError):
            natural_residual(game, x, [1.0, 0.0, 0.0], alpha=0.1)


class TestFixedPointStep:
    def test_gradient_game_step(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        y = fixed_point_step(pull_game, x, SolverConfig())
        np.testing.assert_allclose(y.stacked, [0.9, 0.1], atol=1e-9)

    def test_coordinate_game_interior_step(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.5, 0.5])
        y = fixed_point_step(game, x, SolverConfig())
        np.testing.assert_allclose(y.stacked, [0.6, 0.6], atol=1e-12)

    def test_corner_is_fixed(self):
        game = example_coordinate_pref()
        x = split_profile(game, [1.0, 1.0])
        y = fixed_point_step(game, x, SolverConfig())
        np.testing.assert_array_equal(y.stacked, [1.0, 1.0])

    def test_shared_constraint_iterates_stay_feasible(self, budget_game):
        cfg = SolverConfig()
        x = split_profile(budget_game, [0.0, 0.0])
        region_tol = 1e-9
        for _ in range(30):
            x = fixed_point_step(budget_game, x, cfg)
            for player in range(budget_game.n_players):
                region = feasible_region(
                    budget_game, player, x.rivals(player)
                )
                assert region.contains(x.block(player).array, tol=region_tol)
        # The chain settles on the budget line.
        assert sum(x.stacked) == pytest.approx(1.0, abs=1e-9)


class TestSharedProjection:
    """On shared rows, every block is projected onto its own feasible region."""

    @staticmethod
    def _game():
        # Player 0 holds two coordinates; the second row involves player 2 only.
        return GameSpec(
            players=(
                PlayerSpec(
                    2,
                    ((0.0, 1.0), (0.0, 1.0)),
                    UtilityPreference("-(x1-2)^2-(x2-2)^2"),
                ),
                PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("-(x3-2)^2")),
                PlayerSpec(1, ((0.0, 1.0),), CoordinateOrder()),
            ),
            constraints=SharedLinear(
                a=((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 1.0)), b=(2.5, 0.7)
            ),
        )

    @staticmethod
    def _projected(game, x, target):
        return np.concatenate(
            [
                project_feasible(
                    feasible_region(game, p, x.rivals(p)), target[game.own_slice(p)]
                )
                for p in range(game.n_players)
            ]
        )

    def test_natural_residual(self):
        game = self._game()
        x = split_profile(game, [0.6, 0.6, 0.6, 0.65])
        g = np.array([-1.0, -0.5, -2.0, -1.0])
        target = x.stacked - 0.3 * g
        expected = self._projected(game, x, target)
        # Both shared rows cut the targets: the clip alone would differ.
        assert not np.allclose(expected, np.clip(target, 0.0, 1.0))
        r = natural_residual(game, x, g, alpha=0.3)
        assert r == float(np.linalg.norm(x.stacked - expected))

    def test_fixed_point_step(self):
        game = self._game()
        cfg = SolverConfig()
        x = split_profile(game, [0.6, 0.6, 0.6, 0.65])
        sel = selection_T(game, x, sample_seed=cfg.seed)
        assert sel.all_nonzero
        target = x.stacked - cfg.step * sel.stacked
        expected = self._projected(game, x, target)
        assert not np.allclose(expected, np.clip(target, 0.0, 1.0))
        y = fixed_point_step(game, x, cfg)
        np.testing.assert_array_equal(y.stacked, expected)


class TestSolveSvip:
    def test_coordinate_game_reaches_corner(self):
        game = example_coordinate_pref()
        sol = solve_svip(game)
        assert sol.converged
        assert sol.residual <= 1e-8
        np.testing.assert_allclose(sol.point.stacked, [1.0, 1.0], atol=1e-8)
        assert sol.provenance == (Provenance.POLYHEDRAL, Provenance.POLYHEDRAL)

    def test_pull_game_finds_origin(self, pull_game):
        sol = solve_svip(pull_game)
        assert sol.converged
        np.testing.assert_allclose(sol.point.stacked, [0.0, 0.0], atol=1e-6)

    def test_trivial_game_converges_immediately(self):
        game = example_trivial_pref()
        sol = solve_svip(game)
        assert sol.converged
        assert sol.residual == 0.0
        assert all(d.is_zero for d in sol.operator_value)
        assert set(sol.provenance) == {Provenance.FULL_SPACE}

    def test_budget_game_lands_on_budget_line(self, budget_game):
        sol = solve_svip(budget_game)
        assert sol.converged
        assert sum(sol.point.stacked) == pytest.approx(1.0, abs=1e-7)

    def test_deterministic_replay(self, pull_game):
        cfg = SolverConfig(restarts=4)
        a = solve_svip(pull_game, cfg)
        b = solve_svip(pull_game, cfg)
        assert a.point.stacked.tolist() == b.point.stacked.tolist()
        assert a.trace == b.trace
        assert a.restart == b.restart

    def test_converged_flag_matches_residual(self):
        for seed in range(5):
            game = random_concave_quadratic(seed, players=2, dims=1)
            cfg = SolverConfig(restarts=4)
            sol = solve_svip(game, cfg)
            assert sol.converged == (sol.residual <= cfg.tol)

    def test_trace_is_recorded_per_iteration(self, pull_game):
        sol = solve_svip(pull_game, SolverConfig(restarts=2))
        iters = [i for i, _ in sol.trace]
        assert iters == list(range(1, len(iters) + 1))
        assert sol.trace[-1][1] == sol.residual

    def test_infeasible_shared_rows_raise(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
            ),
            constraints=SharedLinear(a=((1.0, 1.0),), b=(-1.0,)),
        )
        with pytest.raises(InfeasibleRegionError):
            solve_svip(game)


class TestVariationalConsistency:
    """A converged run with a fully nonzero selection satisfies the
    variational inequality at ten times the solver tolerance."""

    @pytest.mark.parametrize(
        "game_builder",
        [example_coordinate_pref, make_budget_pair],
    )
    def test_nonzero_solutions_certify(self, game_builder):
        game = game_builder()
        cfg = SolverConfig(restarts=4)
        sol = solve_svip(game, cfg)
        assert sol.converged
        if not all(not d.is_zero for d in sol.operator_value):
            pytest.skip("selection has zero components at this solution")
        cert = check_svip(game, sol.point, sol.operator_value, tol=10 * cfg.tol)
        assert cert.passed, cert.detail
