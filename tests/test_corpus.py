"""Bundled examples and seeded instance families."""

import re

import numpy as np
import pytest

from ordnash.corpus import (
    EXAMPLES,
    arrow_debreu_instance,
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    monotone_concave_instance,
    quadratic_equilibrium,
    random_concave_quadratic,
)
from ordnash.gamefile import dumps_game
from ordnash.model import (
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    validate_spec,
)
from ordnash.solver import SolverConfig, solve_svip
from ordnash.verify import check_gne_grid


class TestBundledExamples:
    def test_example_names(self):
        assert set(EXAMPLES) == {
            "trivial-pref",
            "coordinate-pref",
            "lhc-remark",
            "quadratic",
            "arrow-debreu",
        }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_examples_validate_clean(self, name):
        assert validate_spec(EXAMPLES[name]()) == []

    def test_trivial_pref_layout(self):
        game = example_trivial_pref()
        assert game.n_players == 2
        assert all(isinstance(p.preference, TrivialZero) for p in game.players)
        assert all(p.box == ((-1.0, 1.0),) for p in game.players)

    def test_lhc_remark_maps_disagree_only_at_zero(self):
        lhc_map, non_lhc_map, game = example_lhc_remark()
        assert lhc_map(-0.5) == (0.0, np.inf)
        assert lhc_map(0.0) is None
        assert non_lhc_map(0.0) == (0.0, np.inf)
        assert non_lhc_map(0.5) is None
        assert game.total_dim == 2
        assert all(isinstance(p.preference, ThresholdBand) for p in game.players)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_examples_are_bit_stable(self, name):
        assert dumps_game(EXAMPLES[name]()) == dumps_game(EXAMPLES[name]())

    @pytest.mark.parametrize("seed", [0, 1, 42, 999])
    def test_quadratic_family_is_bit_stable(self, seed):
        a = random_concave_quadratic(seed, players=3, dims=2)
        b = random_concave_quadratic(seed, players=3, dims=2)
        assert dumps_game(a) == dumps_game(b)

    def test_different_seeds_differ(self):
        assert dumps_game(random_concave_quadratic(0)) != dumps_game(
            random_concave_quadratic(1)
        )


class TestQuadraticFamily:
    @pytest.mark.parametrize("players,dims", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_valid_across_sizes(self, players, dims):
        game = random_concave_quadratic(7, players=players, dims=dims)
        assert game.n_players == players
        assert game.total_dim == players * dims
        assert validate_spec(game) == []

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            random_concave_quadratic(0, players=4)
        with pytest.raises(ValueError):
            random_concave_quadratic(0, dims=3)
        with pytest.raises(ValueError):
            quadratic_equilibrium(0, players=0)

    @pytest.mark.parametrize("players, dims", [(2, 1), (3, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("seed", range(8))
    def test_analytic_equilibrium_matches_solver(self, seed, players, dims):
        # The Newton finish lands on the equilibrium up to the rounding of the
        # gradient differences, well inside max_iters 300.
        game = random_concave_quadratic(seed, players=players, dims=dims)
        reference = quadratic_equilibrium(seed, players=players, dims=dims)
        sol = solve_svip(game, SolverConfig(restarts=4, max_iters=300))
        assert sol.converged
        np.testing.assert_allclose(sol.point.stacked, reference, rtol=0.0, atol=1e-9)
        assert check_gne_grid(game, sol.point, 0.02).passed

    @pytest.mark.parametrize("players,dims", [(2, 1), (2, 2), (3, 1)])
    def test_analytic_equilibrium_is_a_fixed_point(self, players, dims):
        # Each coordinate's utility term is -(u - k)^2 + const for some pull
        # target k determined by the rivals; recover k from two utility
        # evaluations and confirm the equilibrium is the clipped best response.
        game = random_concave_quadratic(11, players=players, dims=dims)
        x = quadratic_equilibrium(11, players=players, dims=dims)
        for player, spec in enumerate(game.players):
            theta = spec.preference.fn
            for i in range(dims):
                coord = player * dims + i
                at0 = x.copy()
                at0[coord] = 0.0
                at1 = x.copy()
                at1[coord] = 1.0
                k = (1.0 + float(theta(at1)) - float(theta(at0))) / 2.0
                best = min(1.0, max(-1.0, k))
                assert x[coord] == pytest.approx(best, abs=1e-9)


class TestMonotoneFamily:
    @pytest.mark.parametrize("seed", range(5))
    def test_bliss_point_outside_box(self, seed):
        game = monotone_concave_instance(seed)
        assert validate_spec(game) == []
        for spec in game.players:
            assert isinstance(spec.preference, UtilityPreference)
            match = re.search(r"x\d([+-]\d+\.\d+)", spec.preference.expr)
            m = -float(match.group(1))
            assert 4.0 <= abs(m) <= 6.0

    def test_contour_is_half_line(self):
        from ordnash.model import split_profile, strict_upper_mask

        game = monotone_concave_instance(0)
        x = split_profile(game, [0.0, 0.0])
        candidates = np.linspace(-1, 1, 41).reshape(-1, 1)
        mask = strict_upper_mask(game, 0, candidates, x)
        switches = np.count_nonzero(mask[1:] != mask[:-1])
        assert switches == 1  # one sign change: an open half-line


class TestArrowDebreuFamily:
    @pytest.mark.parametrize("seed", range(5))
    def test_budget_binds(self, seed):
        game = arrow_debreu_instance(seed)
        assert validate_spec(game) == []
        assert isinstance(game.constraints, SharedLinear)
        assert game.constraints.a == ((1.0, 1.0),)
        assert game.constraints.b == (1.0,)
        for spec in game.players:
            match = re.search(r"-(\d+\.\d+)\)", spec.preference.expr)
            target = float(match.group(1))
            assert 1.0 <= target <= 1.25

    def test_solution_on_budget_line(self):
        game = arrow_debreu_instance(42)
        sol = solve_svip(game, SolverConfig(restarts=4))
        assert sol.converged
        assert sum(sol.point.stacked) == pytest.approx(1.0, abs=1e-7)
