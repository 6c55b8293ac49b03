"""Projected-iteration solver: selections, projections, steps, convergence."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_budget_pair, make_pull_to_half_rival, ref_dot, shared_three_player_game
from ordnash import cones, model, solver
from ordnash.cones import Direction, Provenance, gradient_normal_direction
from ordnash.corpus import (
    arrow_debreu_instance,
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    random_concave_quadratic,
)
from ordnash.errors import (
    EvaluationError,
    InfeasiblePointError,
    InfeasibleRegionError,
)
from ordnash.model import (
    ContourRow,
    CoordinateOrder,
    FeasibleRegion,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    SharedLinear,
    TrivialZero,
    UtilityPreference,
    _joint_region,
    _require_feasible,
    feasible_region,
    split_profile,
)
from ordnash.solver import (
    SolverConfig,
    _run_restarts,
    _starting_points,
    SvipSolution,
    fixed_point_step,
    natural_residual,
    project_feasible,
    selection_T,
    solve_svip,
)
from ordnash.verify import check_gne_grid, check_svip


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
            {"seed": -1},
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
        assert region.contains(once)

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
        assert not any(d.is_zero for d in sel.directions)

    def test_trivial_preference_yields_zero(self):
        game = example_trivial_pref()
        x = split_profile(game, [0.4, -0.2])
        sel = selection_T(game, x)
        np.testing.assert_array_equal(sel.stacked, [0.0, 0.0])
        assert sel.provenance == (
            Provenance.FULL_SPACE,
            Provenance.FULL_SPACE,
        )
        assert all(d.is_zero for d in sel.directions)

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

    @pytest.mark.parametrize(
        "operator, alpha",
        [
            ([np.nan, 1.0], 0.1),
            ([np.inf, 0.0], 0.1),
            ([1.0, 0.0], np.nan),
            ([1.0, 0.0], np.inf),
            ([1.0, np.nan], 0.1),
            ([-np.inf, -np.inf], 0.1),
            ([np.inf, np.nan], 0.1),
        ],
    )
    def test_rejects_non_finite_input(self, operator, alpha):
        # Unchecked, the first four gave nan, 1.0, nan and 1.414; the operator
        # values are rejected with check_svip's error.
        game = example_coordinate_pref()
        x = split_profile(game, [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            natural_residual(game, x, operator, alpha=alpha)

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
        for _ in range(30):
            x = fixed_point_step(budget_game, x, cfg)
            for player in range(budget_game.n_players):
                region = feasible_region(
                    budget_game, player, x.rivals(player)
                )
                assert region.contains(x.block(player).array)
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
        assert not any(d.is_zero for d in sel.directions)
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

    @pytest.mark.parametrize("case", ["converged", "shared-polished", "box-stopped"])
    def test_trace_is_recorded_per_iteration(self, pull_game, case):
        game, cfg = {
            "converged": (pull_game, SolverConfig(restarts=2)),
            # Stops at iteration 2 with residual 0.0531; the polish converges.
            "shared-polished": (arrow_debreu_instance(1), SolverConfig(restarts=1, max_iters=2)),
            # Stops before the first Newton try.
            "box-stopped": (
                random_concave_quadratic(3, players=3, dims=2),
                SolverConfig(restarts=1, max_iters=5),
            ),
        }[case]
        sol = solve_svip(game, cfg)
        iters = [i for i, _ in sol.trace]
        assert iters == list(range(1, len(iters) + 1))
        assert sol.trace[-1][1] == sol.residual
        # A stopped or polished run measures its returned point once more.
        assert len(iters) == sol.iters + (case != "converged")

    @pytest.mark.parametrize("finish", [True, False])
    def test_stopped_run_reports_the_residual_of_its_point(self, monkeypatch, finish):
        # Without the finish this run stops at max_iters 50; its residual was
        # once that of the iterate before the last step (0.1732, not 0.1582).
        if not finish:
            monkeypatch.setattr(solver, "_newton_point", lambda game, x: None)
        game = random_concave_quadratic(3, players=3, dims=2)
        cfg = SolverConfig(max_iters=50, restarts=1)
        sol = solve_svip(game, cfg)
        assert sol.residual == natural_residual(game, sol.point, sol.operator_value, cfg.step)
        assert (sol.converged, sol.iters) == ((True, 9) if finish else (False, 50))

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


# --- batched restarts --------------------------------------------------------
#
# Reference: the sequential single-restart loop the batched loop replaced
# (one restart, one Profile and one selection_T per iteration, one Dykstra per
# block), with the Newton try of box games whose utilities are at most
# quadratic in the own block, the joint try of shared games, and one more
# trace entry wherever the returned point was not measured in the loop.
# Every row of the batched loop must equal it from the same start, bit for
# bit.

_REF_DYKSTRA_CYCLES = 200
_REF_DYKSTRA_MOVE_TOL = 1e-12
_REF_ADAPT_WINDOW = 8
_REF_STEP_FLOOR = 1e-13


def _ref_project_box_halfspaces(region, point):
    lo, hi, normals, offsets = region.lo, region.hi, region.normals, region.offsets
    if normals.size == 0:
        return np.clip(point, lo, hi)
    sets = 1 + normals.shape[0]
    corrections = np.zeros((sets, point.size))
    sq_norms = [ref_dot(normal, normal) for normal in normals]
    y = np.asarray(point, dtype=np.float64).copy()
    for _ in range(_REF_DYKSTRA_CYCLES):
        y_start = y.copy()
        w = y + corrections[0]
        y = np.clip(w, lo, hi)
        corrections[0] = w - y
        for i in range(normals.shape[0]):
            w = y + corrections[i + 1]
            excess = ref_dot(normals[i], w) - offsets[i]
            if excess > 0.0:
                y = w - (excess / sq_norms[i]) * normals[i]
            else:
                y = w
            corrections[i + 1] = w - y
        if float(np.max(np.abs(y - y_start))) < _REF_DYKSTRA_MOVE_TOL:
            break
    return y


def _ref_project_blocks(game, x, target):
    if not isinstance(game.constraints, SharedLinear):
        return np.clip(target, game.box_lo, game.box_hi)
    out = np.empty_like(target)
    for player in range(game.n_players):
        sl = game.own_slice(player)
        rivals = np.concatenate((x[: sl.start], x[sl.stop :]))
        region = feasible_region(game, player, rivals)
        out[sl] = _ref_project_box_halfspaces(region, target[sl])
    return out


def _ref_norm(v):
    return math.sqrt(ref_dot(v, v))


def _ref_residual(game, x, g, step):
    return _ref_norm(x - _ref_project_blocks(game, x, x - step * g))


def _ref_solve(a, b):
    """``a x = b`` on Python floats, or None at a zero pivot: Gaussian
    elimination with partial pivoting (the first row of largest magnitude)
    on the augmented rows, then back substitution from the last unknown,
    each one's products subtracted from the rows above in turn."""
    rows = [row + [value] for row, value in zip(a.tolist(), b.tolist())]
    n = len(rows)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for row in rows[k + 1 :]:
            f = row[k] / rows[k][k]
            row[:] = [v - f * w for v, w in zip(row, rows[k])]
    for k in reversed(range(n)):
        rows[k][n] /= rows[k][k]
        for row in rows[:k]:
            row[n] -= row[k] * rows[k][n]
    return np.array([row[n] for row in rows])


def _ref_newton_applies(game):
    if isinstance(game.constraints, SharedLinear):
        return False
    for player, spec in enumerate(game.players):
        if isinstance(spec.preference, TrivialZero):
            continue
        if not isinstance(spec.preference, UtilityPreference):
            return False
        sl = game.own_slice(player)
        degree = spec.preference.parsed.degree(frozenset(range(sl.start, sl.stop)))
        if degree is None or degree > 2:
            return False
    return True


def _ref_stacked_gradient(game, y):
    out = np.zeros(y.size)
    for player, spec in enumerate(game.players):
        if isinstance(spec.preference, UtilityPreference):
            out[game.own_slice(player)] = cones.own_gradients(game, player, y[None, :])[0]
    return out


def _ref_newton_try(game, cfg, x):
    """The finish's one-row try, one gradient per shifted profile: the
    Newton point on the free coordinates if it lies in the box and passes
    the residual test at the configured step, else ``x``."""
    utility = np.zeros(x.size, dtype=bool)
    for player, spec in enumerate(game.players):
        utility[game.own_slice(player)] = isinstance(spec.preference, UtilityPreference)
    free = [j for j in range(x.size) if utility[j] and game.box_lo[j] < x[j] < game.box_hi[j]]
    if not free:
        return x
    eye = np.eye(x.size)  # shifts add +0.0 off the moved coordinate, as the solver's
    try:
        base = _ref_stacked_gradient(game, x + 0.0)
        up = [_ref_stacked_gradient(game, x + eye[j]) for j in free]
        down = [_ref_stacked_gradient(game, x + (0.0 - eye[j])) for j in free]
    except EvaluationError:
        return x
    columns = [(u - d) / 2.0 for u, d in zip(up, down)]
    jacobian = np.array(columns)[:, free].T
    if not (np.isfinite(jacobian).all() and np.isfinite(base).all()):
        return x
    move = _ref_solve(jacobian, base[free])
    if move is None:
        return x
    point = x.copy()
    point[free] -= move
    if not np.array_equal(np.clip(point, game.box_lo, game.box_hi), point):
        return x
    sel = selection_T(game, split_profile(game, point), sample_seed=cfg.seed)
    return point if _ref_residual(game, point, sel.stacked, cfg.step) <= cfg.tol else x


def _ref_joint_try(game, cfg, x, sel):
    """The joint finish's one-row try: the projection of the configured step
    onto the joint region, with its selection, if it passes the residual test
    at the configured step, else ``x`` and ``sel``."""
    region = _joint_region(game)
    point = _ref_project_box_halfspaces(region, x - cfg.step * sel.stacked)
    at_point = selection_T(game, split_profile(game, point), sample_seed=cfg.seed)
    if _ref_residual(game, point, at_point.stacked, cfg.step) <= cfg.tol:
        return point, at_point
    return x, sel


def _ref_run_single(game, cfg, start):
    newton = _ref_newton_applies(game)
    shared = isinstance(game.constraints, SharedLinear)
    x = start.copy()
    alpha = np.full(game.n_players, cfg.step)
    anchor = x.copy()
    trace = []
    sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)
    residual = float("inf")
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = sel.stacked
        residual = _ref_residual(game, x, g, cfg.step)
        trace.append((it, residual))
        if residual <= cfg.tol:
            converged = True
            break
        x = _ref_project_blocks(game, x, x - np.repeat(alpha, game.dims) * g)
        if it % _REF_ADAPT_WINDOW == 0:
            for player in range(game.n_players):
                sl = game.own_slice(player)
                net = _ref_norm(x[sl] - anchor[sl])
                budget = _REF_ADAPT_WINDOW * alpha[player]
                if net <= 0.5 * budget:
                    alpha[player] = max(alpha[player] * 0.5, _REF_STEP_FLOOR)
                elif net >= 0.9 * budget:
                    alpha[player] = min(alpha[player] * 2.0, cfg.step)
            anchor = x.copy()
            if newton:
                x = _ref_newton_try(game, cfg, x)
        sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)
        if shared and (it == 1 or it % _REF_ADAPT_WINDOW == 0):
            x, sel = _ref_joint_try(game, cfg, x, sel)
    if shared:
        region = _joint_region(game)
        assert not region.is_empty
        x = _ref_project_box_halfspaces(region, x)
        sel = selection_T(game, split_profile(game, x), sample_seed=cfg.seed)
    if shared or not converged:
        # The returned point was not measured in the loop.
        residual = _ref_residual(game, x, sel.stacked, cfg.step)
        converged = residual <= cfg.tol
        trace.append((trace[-1][0] + 1, residual))
    return x, sel, residual, it, converged, trace


UNIT_01 = ((0.0, 1.0),)


def trivial_rival_game():
    """A TrivialZero player beside a utility player that reacts to it."""
    return GameSpec(
        players=(
            PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x2-0.5*x1-0.2)^2")),
        )
    )


BATCH_GAMES = {
    "box-2x1": lambda: random_concave_quadratic(11, players=2, dims=1),
    "box-3x2": lambda: random_concave_quadratic(12, players=3, dims=2),
    "arrow-debreu": lambda: arrow_debreu_instance(13),
    "shared-3": shared_three_player_game,
    "mixed-budget": lambda: mixed_budget_game(0),
    "coordinate": example_coordinate_pref,
    "trivial-rival": trivial_rival_game,
}


def _explicit_starts(game, count=5):
    """Seeded starts from two solver seeds, plus one box corner (clipped in).

    Column-major, as the Halton draws of ``_starting_points`` are on box games:
    a strided row rounds its dot products unlike the contiguous vector of a
    single restart, so the loop must not depend on the layout it is given.
    """
    a = _starting_points(game, SolverConfig(restarts=3, seed=3))
    b = _starting_points(game, SolverConfig(restarts=count - 3, seed=42))
    corner = _ref_project_blocks(game, game.box_hi.copy(), game.box_hi.copy())
    return np.asfortranarray(np.vstack([a, b, corner[None, :]]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_row_matches(game, runs, row, ref):
    x, sel, residual, iters, converged, trace = ref
    assert _bits(runs.points[row]) == _bits(x)
    assert float(runs.residuals[row]).hex() == float(residual).hex()
    assert int(runs.iters[row]) == iters
    assert bool(runs.converged[row]) == converged
    assert [(i, r.hex()) for i, r in runs.traces[row]] == [(i, r.hex()) for i, r in trace]
    assert _bits(runs.operator[row]) == _bits(sel.stacked)
    assert tuple(runs.provenance[row]) == sel.provenance


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_row_reductions_round_like_one_vector(n):
    """Per-row norms and dots equal the index-order sum over one row's Python
    floats, whatever the layout of the rows (C, Fortran or strided)."""
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(300, n)) * 10.0 ** rng.integers(-3, 4, size=(300, n))
    v = rng.normal(size=n)
    norms = [math.sqrt(ref_dot(row, row)).hex() for row in rows]
    dots = [ref_dot(row, v).hex() for row in rows]
    for layout in (rows, np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
        assert [float(r).hex() for r in np.sqrt(model._dot(layout, layout))] == norms
        assert [float(d).hex() for d in model._dot(layout, v)] == dots


def _iters_for(name):
    # shared-3 never converges and pays one LP per selection: one per
    # iteration and start, and one more per start for each rejected joint try
    # (at iteration 1 and every 8 iterations).
    return 60 if name == "shared-3" else 300


@pytest.mark.parametrize("d", range(1, 13))
def test_halton_equals_scipy_bit_for_bit(d):
    """``solver._halton`` is scipy's scrambled Halton sequence, layout
    included, at seeds past 2**64 too (the CLI takes any nonnegative seed)."""
    from scipy.stats import qmc

    seeds = [0, 1, 42, 2**31 - 1, 2**62 + 7, 2**64 + 3, 2**80 - 1, 12345678901234567890123]
    for n in (1, 2, 4, 16, 64, 257):
        for seed in seeds:
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = solver._halton(d, n, seed)
            assert got.shape == expected.shape
            assert got.flags.f_contiguous == expected.flags.f_contiguous
            assert _bits(got) == _bits(expected), (n, seed)


class TestBatchedRestarts:
    @pytest.mark.parametrize("name", sorted(BATCH_GAMES))
    def test_rows_equal_sequential_reference(self, name):
        game = BATCH_GAMES[name]()
        cfg = SolverConfig(max_iters=_iters_for(name), seed=42)
        starts = _explicit_starts(game)
        runs = _run_restarts(game, cfg, starts)
        for row, start in enumerate(starts):
            _assert_row_matches(game, runs, row, _ref_run_single(game, cfg, start))

    @pytest.mark.parametrize(
        "name, max_iters",
        [("box-3x2", 8), ("box-3x2", 9), ("arrow-debreu", 4), ("trivial-rival", 6)],
    )
    def test_rows_stopped_at_max_iters(self, name, max_iters):
        # box-3x2 at 8: three rows take their Newton point at the last
        # iteration and converge at the returned point, three stop; at 9:
        # the three converge at 9 and the others stop after a rejected try.
        # arrow-debreu at 4: the seeded rows take the joint try of iteration
        # 1 and converge at 1 or 2, while the corner start stops (it converges
        # at 5);
        # trivial-rival: one row converges at 4, before any Newton try.
        game = BATCH_GAMES[name]()
        cfg = SolverConfig(max_iters=max_iters, seed=42)
        starts = _explicit_starts(game)
        runs = _run_restarts(game, cfg, starts)
        assert (runs.iters == cfg.max_iters).any() and not runs.converged.all()
        for row, start in enumerate(starts):
            _assert_row_matches(game, runs, row, _ref_run_single(game, cfg, start))

    @pytest.mark.parametrize("name", ["box-2x1", "arrow-debreu", "shared-3", "trivial-rival"])
    def test_each_start_alone_matches_the_batch(self, name):
        game = BATCH_GAMES[name]()
        cfg = SolverConfig(max_iters=_iters_for(name), seed=42)
        starts = _explicit_starts(game)
        runs = _run_restarts(game, cfg, starts)
        for row in range(len(starts)):
            alone = _run_restarts(game, cfg, starts[row : row + 1])
            assert _bits(alone.points[0]) == _bits(runs.points[row])
            assert float(alone.residuals[0]).hex() == float(runs.residuals[row]).hex()
            assert alone.iters[0] == runs.iters[row]
            assert alone.converged[0] == runs.converged[row]
            assert alone.traces[0] == runs.traces[row]
            assert _bits(alone.operator[0]) == _bits(runs.operator[row])
            assert tuple(alone.provenance[0]) == tuple(runs.provenance[row])

    @pytest.mark.parametrize("name", sorted(BATCH_GAMES))
    def test_solution_directions_equal_a_fresh_selection(self, name):
        """The Directions and provenance that solve_svip builds from its arrays
        equal selection_T at the returned point, sign of zero included."""
        game = BATCH_GAMES[name]()
        cfg = SolverConfig(restarts=4, max_iters=_iters_for(name), seed=42)
        sol = solve_svip(game, cfg)
        sel = selection_T(game, sol.point, sample_seed=cfg.seed)
        assert sol.provenance == sel.provenance
        assert [d.player for d in sol.operator_value] == [d.player for d in sel.directions]
        assert [[v.hex() for v in d.vector] for d in sol.operator_value] == [
            [v.hex() for v in d.vector] for d in sel.directions
        ]

    @pytest.mark.parametrize("name", ["arrow-debreu", "shared-3"])
    def test_starting_points_equal_one_row_projections(self, name):
        """One batched projection of the starts equals projecting each start alone."""
        game = BATCH_GAMES[name]()
        cfg = SolverConfig(restarts=7, seed=5)
        # The same box without shared rows gives the starts before projection.
        raw = _starting_points(GameSpec(players=game.players), cfg)
        region = _joint_region(game)
        expected = np.array([project_feasible(region, row) for row in raw])
        assert not np.array_equal(expected, raw)  # some start is moved
        assert _bits(_starting_points(game, cfg)) == _bits(expected)


@pytest.mark.parametrize("name", ["arrow-debreu", "shared-3"])
def test_region_builds_on_shared_games(name, monkeypatch):
    """The restarts read every player's feasible set at all rows as arrays and
    build no region; natural_residual and fixed_point_step build each
    player's region once, in ``_require_feasible``."""
    calls = []

    def counted(*args, original=model.feasible_region):
        calls.append(args[1])
        return original(*args)

    for module in (model, solver):
        monkeypatch.setattr(module, "feasible_region", counted, raising=False)
    game = BATCH_GAMES[name]()
    cfg = SolverConfig(restarts=4, max_iters=_iters_for(name), seed=42)
    solve_svip(game, cfg)
    assert calls == []
    x = split_profile(game, _starting_points(game, cfg)[0])
    natural_residual(game, x, np.ones(game.total_dim), alpha=0.1)
    assert calls == list(range(game.n_players))
    calls.clear()
    fixed_point_step(game, x, cfg)
    assert calls == list(range(game.n_players))


# Recorded from the sequential solver (one restart after another) before the
# restarts were batched: float.hex of the point and the residual, iterations,
# restart, trace length and convergence, with 4 restarts and seed 42.
# shared-3 stops at max_iters; its residual is the one at the returned point,
# measured since the final polish covers unconverged rows too (before, it was
# the residual of the iterate before the last step).  The traces of the
# shared games end with the polish, one entry past the last iteration.  The
# box entries converge by the Newton finish, after the try of iteration 8
# (box-2x1, at 9) or 16 (box-3x2, at 17); before it they converged at 258 and
# 242 by step halving.  box-3x2 was re-recorded when the corpus scaled its
# couplings by a closed-form spectral norm: its coefficients moved in the last
# bit, and restart 0's try of iteration 8 (which converged at 9 before) lands
# where player 0's gradient is no longer flat.
# arrow-debreu converges by the joint finish of iteration 1 at iteration 2, on
# restart 3; with the first joint try at iteration 8 it converged at 9 on
# restart 0, and by step halving alone restart 3 converged first, at 179.
PINNED_SOLVES = {
    "box-2x1": (["-0x1.3e3b1a468f6b2p-1", "0x1.2ce87289d2851p-2"], "0x0.0p+0", 9, 0, 9, True),
    "box-3x2": (
        [
            "-0x1.fd309a5e6c92bp-2",
            "0x1.e2c2478f3910dp-1",
            "-0x1.e341a5c16cad6p-2",
            "-0x1.3268f4d0ea92ep-1",
            "-0x1.3dcdd3b59e088p-4",
            "-0x1.7db5a0eca6c41p-1",
        ],
        "0x0.0p+0",
        17,
        0,
        17,
        True,
    ),
    "arrow-debreu": (["0x1.07deab7d5eab2p-1", "0x1.f042a90542a9cp-2"], "0x0.0p+0", 2, 3, 3, True),
    "shared-3": (
        [
            "0x1.df02a63ae09a3p-2",
            "0x1.ba96f35eb8ff9p-2",
            "0x1.68d2097a9ff64p-2",
            "0x1.1863c80f7cd1ap-1",
        ],
        "0x1.66b5adc6b31a6p-16",
        60,
        3,
        61,
        False,
    ),
    "coordinate": (["0x1.0000000000000p+0", "0x1.0000000000000p+0"], "0x0.0p+0", 17, 0, 17, True),
    "trivial-rival": (["0x1.503cf727e8450p-4", "0x1.eda8d76393039p-3"], "0x0.0p+0", 9, 0, 9, True),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_solve_svip_pinned_to_sequential_results(name):
    cfg = SolverConfig(restarts=4, max_iters=_iters_for(name), seed=42)
    sol = solve_svip(BATCH_GAMES[name](), cfg)
    point, residual, iters, restart, trace_len, converged = PINNED_SOLVES[name]
    assert [v.hex() for v in sol.point.stacked.tolist()] == point
    assert float(sol.residual).hex() == residual
    assert (sol.iters, sol.restart, len(sol.trace), sol.converged) == (
        iters,
        restart,
        trace_len,
        converged,
    )


def mixed_budget_game(seed):
    """Three scalar players sharing x1 + x2 + x3 <= 1: two bliss-point utilities
    beyond the budget (the second moving with x3) and a rival-dependent "more
    is better" contour row, so selection takes the polyhedral route."""
    rng = np.random.default_rng(seed)
    t1 = float(1.0 + 0.25 * rng.uniform())
    c = float(rng.uniform(0.2, 0.8))
    t2 = float(1.0 + c + 0.25 * rng.uniform())
    row = ContourRow((f"-(1+{c!r}*x1)",), f"-(1+{c!r}*x1)*x3")
    return GameSpec(
        players=(
            PlayerSpec(1, UNIT_01, UtilityPreference(f"-(x1-{t1!r})^2")),
            PlayerSpec(1, UNIT_01, UtilityPreference(f"-(x2-{t2!r}+{c!r}*x3)^2")),
            PlayerSpec(1, UNIT_01, HalfspaceContour((row,))),
        ),
        constraints=SharedLinear(a=((1.0, 1.0, 1.0),), b=(1.0,)),
    )


SHORT_SOLVE_GAMES = {"arrow-debreu": arrow_debreu_instance, "mixed-budget": mixed_budget_game}


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 8, 13, 40])
@pytest.mark.parametrize("name", sorted(SHORT_SOLVE_GAMES))
def test_shared_solves_return_feasible_points_at_any_max_iters(name, max_iters):
    """The final polish covers every restart, converged or not, so a solve
    stopped after any number of iterations returns a jointly feasible point
    (before, 72 of these 336 solves returned one outside the budget)."""
    for seed in range(12):
        game = SHORT_SOLVE_GAMES[name](seed)
        for restarts in (1, 4):
            cfg = SolverConfig(max_iters=max_iters, restarts=restarts, seed=42)
            _require_feasible(game, solve_svip(game, cfg).point)


class TestFlatMaxima:
    """At a flat gradient of a negative-definite quadratic utility the solver
    takes the zero direction without sampling, as the sample would give."""

    SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2)]

    @staticmethod
    def _record_flat_rows(monkeypatch):
        """Wrap the solver's flat_maxima; returns the list of (game, player, rows, marks)."""
        calls = []

        def recording(game, player, points):
            marks = cones.flat_maxima(game, player, points)
            calls.append((game, player, np.array(points), marks))
            return marks

        monkeypatch.setattr(solver, "flat_maxima", recording)
        return calls

    @staticmethod
    def _count_samples(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return model.sample_contour(*args, **kwargs)

        monkeypatch.setattr(solver, "sample_contour", counting)
        return calls

    @pytest.mark.parametrize("players, dims", SHAPES)
    def test_marked_rows_select_what_the_sample_gives(self, monkeypatch, players, dims):
        flat_calls = self._record_flat_rows(monkeypatch)
        cfg = SolverConfig(restarts=4, max_iters=300, seed=42)
        seen, marked = set(), 0
        for seed in (1, 2, 3):
            game = random_concave_quadratic(seed, players=players, dims=dims)
            flat_calls.clear()
            solve_svip(game, cfg)
            for _, player, rows, marks in flat_calls:
                # A batch decides each row as that row alone.
                alone = [cones.flat_maxima(game, player, row[None, :])[0] for row in rows]
                assert marks.tolist() == alone
                for row in rows[marks]:
                    key = (seed, player, row.tobytes())
                    if key in seen:
                        continue
                    seen.add(key)
                    marked += 1
                    d, prov = solver._sampled_selection(
                        game, player, split_profile(game, row), cfg.seed
                    )
                    assert [v.hex() for v in d.vector] == [(0.0).hex()] * dims
                    assert prov == Provenance.FULL_SPACE
        assert marked > 0

    @pytest.mark.parametrize("players, dims", SHAPES)
    def test_a_solve_draws_no_contour_sample(self, monkeypatch, players, dims):
        samples = self._count_samples(monkeypatch)
        flat_calls = self._record_flat_rows(monkeypatch)
        game = random_concave_quadratic(7, players=players, dims=dims)
        solve_svip(game, SolverConfig(restarts=4, max_iters=300, seed=42))
        assert any(marks.any() for *_, marks in flat_calls)
        assert samples == []

    @staticmethod
    def _one_player(expr, dim=1):
        return GameSpec((PlayerSpec(dim, ((-1.0, 1.0),) * dim, UtilityPreference(expr)),))

    @pytest.mark.parametrize(
        "expr, dim",
        [
            ("-(x1)^4", 1),  # degree 4
            ("((-(x1)^2)^3)^3", 1),  # degree 18
            ("x1^2 - x2^2 + 0.5*x1*x2", 2),  # indefinite quadratic
            ("-x1^2/(1 + x1^2)", 1),  # divides by an own variable
        ],
    )
    def test_refused_utilities_are_still_sampled(self, monkeypatch, expr, dim):
        game = self._one_player(expr, dim)
        x = split_profile(game, [0.0] * dim)
        assert gradient_normal_direction(game, 0, x) is None  # flat at the origin
        assert not cones.flat_maxima(game, 0, x.stacked[None, :])[0]
        samples = self._count_samples(monkeypatch)
        sel = selection_T(game, x, sample_seed=3)
        assert len(samples) == 1
        expected = solver._sampled_selection(game, 0, x, 3)
        assert sel.provenance == (expected[1],)
        assert sel.directions[0].vector == expected[0].vector

    @pytest.mark.parametrize("scale, marked", [(0.2, True), (0.05, False)])
    def test_curvature_must_confine_the_contour_set(self, scale, marked):
        # On [-1, 1] the ball of diameter 4e-10 / (2 scale) is certified only
        # when it spans at most 1e-9 of the side, that is for scale >= 0.1.
        game = self._one_player(f"-{scale}*x1^2")
        assert cones.flat_maxima(game, 0, np.zeros((1, 1)))[0] == marked

    @pytest.mark.parametrize(
        "expr, dim, target, draws, point",
        [
            ("-1e-12*(x1-0.5)^2", 1, [0.5], 40, ["0x1.000000000014ap-1"]),
            (
                "-1e-12*((x1-0.5)^2 + (x2+0.25)^2)",
                2,
                [0.5, -0.25],
                40,
                ["0x1.0000000000290p-1", "-0x1.0000000009a68p-2"],
            ),
        ],
    )
    def test_small_curvature_is_sampled_toward_the_maximizer(
        self, monkeypatch, expr, dim, target, draws, point
    ):
        # Every gradient of this utility is flat, but its contour sets are wide:
        # no row is marked, and the sampled selection moves the point toward
        # the maximizer.  The Newton try of iteration 8 lands on the maximizer
        # (up to rounding of the tiny differences), where the sample finds the
        # contour set empty, so the residual test passes there.
        game = self._one_player(expr, dim)
        flat_calls = self._record_flat_rows(monkeypatch)
        samples = self._count_samples(monkeypatch)
        run = solve_svip(game, SolverConfig(restarts=4, max_iters=200, seed=42))
        assert flat_calls and not any(marks.any() for *_, marks in flat_calls)
        assert len(samples) == draws
        assert run.converged
        assert [v.hex() for v in run.point.stacked] == point
        assert (run.iters, run.trace[-1]) == (9, (9, 0.0))
        assert np.allclose(run.point.stacked, target, rtol=0.0, atol=1e-9)

    def test_rival_dependent_hessian_is_checked_at_each_row(self, monkeypatch):
        # Player 0's own Hessian is -2 (1 + x2): negative definite only for x2 > -1.
        game = GameSpec(
            (
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(1 + x2)*x1^2")),
                PlayerSpec(1, ((-3.0, 1.0),), UtilityPreference("-(x2 + 2)^2")),
            )
        )
        rows = np.array([[0.0, -2.5], [0.0, -1.0], [0.0, 0.5], [0.0, -0.75]])
        assert cones.flat_maxima(game, 0, rows).tolist() == [False, False, True, True]
        samples = self._count_samples(monkeypatch)
        below = selection_T(game, split_profile(game, [0.0, -2.5]), sample_seed=0)
        assert len(samples) == 1 and below.provenance[0] == Provenance.SAMPLED
        above = selection_T(game, split_profile(game, [0.0, 0.5]), sample_seed=0)
        assert len(samples) == 1 and above.provenance[0] == Provenance.FULL_SPACE
        assert above.directions[0].vector == (0.0,)

    def test_batch_samples_only_the_unmarked_player(self, monkeypatch):
        # Player 0's utility has degree 4, so flat_maxima refuses it and its
        # flat rows are sampled; player 1's quadratic is marked where flat.
        game = GameSpec(
            (
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x1)^4")),
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x2 - 0.5*x1)^2")),
            )
        )
        # A gradient row, a row flat for both players, a row flat for player 0 only.
        rows = np.array([[0.5, 0.1], [0.0, 0.0], [0.0, 0.7]])
        alone = [selection_T(game, split_profile(game, row), sample_seed=5) for row in rows]
        assert [sel.provenance for sel in alone] == [
            (Provenance.GRADIENT, Provenance.GRADIENT),
            (Provenance.FULL_SPACE, Provenance.FULL_SPACE),
            (Provenance.FULL_SPACE, Provenance.GRADIENT),
        ]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return selection_T(*args, **kwargs)

        monkeypatch.setattr(solver, "selection_T", counting)
        samples = self._count_samples(monkeypatch)
        g, provenance = solver._select_rows(game, rows, 5)
        assert calls == []
        assert [(args[1], args[2].stacked.tolist()) for args in samples] == [
            (0, [0.0, 0.0]),
            (0, [0.0, 0.7]),
        ]
        assert _bits(g) == _bits([sel.stacked for sel in alone])
        assert [tuple(row) for row in provenance] == [sel.provenance for sel in alone]


# --- Newton finish ------------------------------------------------------------


def quartic_game():
    """A box game whose first utility has own-degree 4: the finish does not apply."""
    return GameSpec(
        players=(
            PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x1-0.3)^4 + 0.1*x1*x2")),
            PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x2-0.5*x1)^2")),
        )
    )


def _solution_digest(sol):
    parts = [
        [v.hex() for v in sol.point.stacked.tolist()],
        float(sol.residual).hex(),
        sol.iters,
        sol.converged,
        sol.restart,
        [[v.hex() for v in d.vector] for d in sol.operator_value],
        [p.value for p in sol.provenance],
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _trace_digest(trace):
    return hashlib.sha256(repr([(i, r.hex()) for i, r in trace]).encode()).hexdigest()[:16]


# Recorded before either finish existed, with 4 restarts and seed 42: the
# solution digest, and the length and digest of the trace.  The trace digests
# of quartic and shared-3 were re-recorded when every reduction became an
# index-order sum (``model._dot``): some residuals moved in the last bit.
UNQUALIFIED_SOLVES = {
    "quartic": (quartic_game, 300, "237dc5a09eb9bb8d", 242, "d5e2330e71ecc66e"),
    "shared-3": (shared_three_player_game, 60, "9c59b3533d5d43d8", 60, "2bb494449fa0b535"),
    "coordinate": (example_coordinate_pref, 300, "a9a4823c802b7dc8", 17, "d5b02de39730415d"),
}


class TestNewtonFinish:
    @staticmethod
    def _record_points(monkeypatch):
        """Wrap the solver's _newton_point; returns the list of points it gave."""
        points = []

        def recording(game, x, original=solver._newton_point):
            point = original(game, x)
            points.append(point)
            return point

        monkeypatch.setattr(solver, "_newton_point", recording)
        return points

    @pytest.mark.parametrize("name", sorted(UNQUALIFIED_SOLVES))
    def test_unqualified_games_solve_as_before(self, monkeypatch, name):
        """Shared games and utilities of own-degree above 2 try no Newton
        step.  Where no joint try is taken either (every try of shared-3 is
        rejected), the solutions are unchanged, and so are the traces up to
        the entry that measures the returned point."""
        build, max_iters, digest, trace_len, trace_digest = UNQUALIFIED_SOLVES[name]
        points = self._record_points(monkeypatch)
        sol = solve_svip(build(), SolverConfig(restarts=4, max_iters=max_iters, seed=42))
        assert points == []
        assert _solution_digest(sol) == digest
        assert _trace_digest(sol.trace[:trace_len]) == trace_digest
        assert sol.trace[trace_len:] in ((), ((trace_len + 1, sol.residual),))

    @pytest.mark.parametrize(
        "first, second",
        [
            ("-(x1-2)^2 + x1*x2", "-(x2+2)^2"),
            # Within the tolerance of the box: the residual test alone would
            # pass there, and return a point outside the box.
            ("-(x1-1.000000005)^2", "-(x2+1.000000005)^2"),
        ],
    )
    def test_candidates_outside_the_box_are_rejected(self, monkeypatch, first, second):
        # Both players are pulled past their upper and lower bound, so every
        # Newton point leaves the box: the run is the one without the finish.
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(first)),
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(second)),
            )
        )
        cfg = SolverConfig(restarts=4, max_iters=300, seed=42)
        points = self._record_points(monkeypatch)
        sol = solve_svip(game, cfg)
        tried = [p for p in points if p is not None]
        assert tried and all(
            not ((game.box_lo <= p) & (p <= game.box_hi)).all() for p in tried
        )
        monkeypatch.setattr(solver, "_newton_point", lambda game, x: None)
        alone = solve_svip(game, cfg)
        assert _solution_digest(sol) == _solution_digest(alone)
        assert sol.trace == alone.trace
        assert sol.converged and sol.point.stacked.tolist() == [1.0, -1.0]

    def test_coordinates_on_a_bound_stay_out_of_the_step(self, monkeypatch):
        # x1 is pulled past its bound and the Newton points leave the box
        # until x1 sits on it; then the step moves x2 alone, to its best
        # response 0.5 * x1.
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x1-2)^2")),
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x2-0.5*x1)^2")),
            )
        )
        points = self._record_points(monkeypatch)
        sol = solve_svip(game, SolverConfig(restarts=4, max_iters=300, seed=42))
        outside = [p for p in points if p is not None and p[0] > 1.0]
        assert outside and any(p is not None and p[0] == 1.0 for p in points)
        assert sol.converged and sol.iters < 40
        assert sol.point.stacked[0] == 1.0
        assert abs(sol.point.stacked[1] - 0.5) <= 1e-9


# --- joint-step finish -----------------------------------------------------------

JOINT_GAMES = [("arrow-debreu", seed) for seed in range(8)] + [
    ("mixed-budget", seed) for seed in range(4)
]


class TestJointFinish:
    @staticmethod
    def _record_calls(monkeypatch):
        """Wrap the solver's _joint_finish; returns the (game, iteration) of
        each call.  The iteration counts the loop's selections of that game
        before the call, less the one at the starts; the selections a finish
        makes itself are not counted."""
        calls, selections = [], []

        def select_rows(game, x, seed, original=solver._select_rows):
            selections.append(game)
            return original(game, x, seed)

        def recording(game, *args, original=solver._joint_finish):
            calls.append((game, sum(seen is game for seen in selections) - 1))
            before = len(selections)
            original(game, *args)
            del selections[before:]

        monkeypatch.setattr(solver, "_select_rows", select_rows)
        monkeypatch.setattr(solver, "_joint_finish", recording)
        return calls

    @pytest.mark.parametrize("name, seed", JOINT_GAMES)
    def test_shared_solves_converge_on_the_budget(self, name, seed):
        # Step halving took 172-195 iterations on these games; the joint try
        # of iteration 1 lands on the budget.
        game = SHORT_SOLVE_GAMES[name](seed)
        cfg = SolverConfig(restarts=4, max_iters=300, seed=42)
        runs = _run_restarts(game, cfg, _starting_points(game, cfg))
        assert runs.converged.all() and (runs.iters <= 2).all()
        slack = game.constraints.rhs[:, None] - game.constraints.matrix @ runs.points.T
        assert (np.abs(slack) <= 1e-9).all()
        sol = solve_svip(game, cfg)
        assert sol.converged
        assert check_svip(game, sol.point, sol.operator_value).passed
        assert check_gne_grid(game, sol.point, h=0.02).passed
        # The trace ends with the polish, which measures the returned point.
        assert sol.trace[-1] == (sol.iters + 1, sol.residual)

    def test_box_only_games_never_try_it(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        cfg = SolverConfig(restarts=4, max_iters=300, seed=42)
        for build in (
            lambda: random_concave_quadratic(3, players=3, dims=2),
            quartic_game,
            example_coordinate_pref,
            trivial_rival_game,
        ):
            solve_svip(build(), cfg)
        assert calls == []
        game = arrow_debreu_instance(0)
        solve_svip(game, cfg)
        # One try: every restart converges at iteration 1 or 2.
        assert calls == [(game, 1)]
        # shared-3 tries at iteration 1 and at every window; UNQUALIFIED_SOLVES
        # pins that its rejected tries change nothing.
        calls.clear()
        solve_svip(shared_three_player_game(), SolverConfig(restarts=4, max_iters=16, seed=42))
        assert [it for _, it in calls] == [1, 8, 16]


class TestPolish:
    """The final polish of a shared game selects again only at the rows it
    moves; a row it leaves bit-identical keeps its selection."""

    @staticmethod
    def _polish(monkeypatch, game, cfg):
        """Solve ``game`` and return the polish: its input and projected
        points, and the rows it passed to ``_select_rows`` (an empty array
        when it made no call)."""
        events = []

        def dykstra(lo, hi, normals, offsets, points, original=solver._dykstra):
            out = original(lo, hi, normals, offsets, points)
            if lo.size == game.total_dim:  # the joint region, not a player's
                events.append(("joint", points.copy(), out.copy()))
            return out

        def select_rows(game, x, seed, original=solver._select_rows):
            events.append(("select", x.copy()))
            return original(game, x, seed)

        monkeypatch.setattr(solver, "_dykstra", dykstra)
        monkeypatch.setattr(solver, "_select_rows", select_rows)
        solve_svip(game, cfg)
        # The polish is the last projection onto the joint region; only its
        # own selection can follow it.
        last = max(i for i, event in enumerate(events) if event[0] == "joint")
        _, before, after = events[last]
        selected = [event[1] for event in events[last + 1 :]]
        assert all(event[0] == "select" for event in events[last + 1 :])
        assert len(selected) <= 1
        return before, after, selected[0] if selected else np.empty((0, game.total_dim))

    @pytest.mark.parametrize("name, seed", JOINT_GAMES)
    def test_only_moved_rows_are_selected_again(self, monkeypatch, name, seed):
        game = SHORT_SOLVE_GAMES[name](seed)
        cfg = SolverConfig(restarts=4, max_iters=300, seed=42)
        before, after, selected = self._polish(monkeypatch, game, cfg)
        moved = (before.view(np.uint64) != after.view(np.uint64)).any(axis=1)
        assert _bits(selected) == _bits(after[moved])
        if name == "arrow-debreu":
            # The joint finish leaves every row on the joint region already.
            assert selected.shape[0] == 0
        else:
            assert selected.shape[0] > 0  # the polish moves a row


def huge_box_game():
    """Two CoordinateOrder players, the first on [0, 1.7e308]: at a huge step
    its targets and residual squares overflow to inf."""
    return GameSpec(
        (
            PlayerSpec(1, ((0.0, 1.7e308),), CoordinateOrder()),
            PlayerSpec(1, ((0.0, 1.0),), CoordinateOrder()),
        )
    )


@pytest.mark.parametrize(
    "name", ["box-2x1", "box-3x2", "arrow-debreu", "mixed-budget", "shared-3", "huge-box"]
)
def test_huge_step_adapts_without_overflow(name):
    """At a step near the largest float the step adaptation warns of no
    overflow, and every row is that of the sequential reference, whose
    products overflow to inf.  Arrow-Debreu and mixed-budget converge by the
    joint try of iteration 1, and the huge box at its top corner, before any
    step is adapted; they check only the absence of warnings and the
    bit-equality."""
    game = huge_box_game() if name == "huge-box" else BATCH_GAMES[name]()
    cfg = SolverConfig(step=1e308, restarts=4, max_iters=40, seed=42)
    starts = _explicit_starts(game)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_svip(game, cfg)
        runs = _run_restarts(game, cfg, starts)
    if name not in ("arrow-debreu", "mixed-budget", "huge-box"):
        assert (runs.iters > _REF_ADAPT_WINDOW).any()  # some step was adapted
    with np.errstate(over="ignore"):
        for row, start in enumerate(starts):
            _assert_row_matches(game, runs, row, _ref_run_single(game, cfg, start))
