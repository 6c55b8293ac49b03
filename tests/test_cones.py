"""Normal-direction mechanisms: gradient, active polyhedral rows, sampled separator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog as highs

from conftest import make_halfspace_orthant, make_pull_to_half_rival
from ordnash.cones import (
    ConeGenerators,
    Direction,
    Provenance,
    cone_membership,
    contour_polyhedron,
    gradient_directions,
    gradient_normal_direction,
    polyhedral_normal_generators,
    sampled_separating_direction,
    zero_in_hull,
)
from ordnash.corpus import random_concave_quadratic
from ordnash.errors import (
    EvaluationError,
    GameFormatError,
    InteriorPointError,
    SeparatorError,
)
from ordnash.model import (
    Block,
    GameSpec,
    PlayerSpec,
    TrivialZero,
    UtilityPreference,
    sample_contour,
    split_profile,
)


class TestDirection:
    def test_unit_normalizes(self):
        d = Direction.unit(0, [3.0, 4.0])
        np.testing.assert_allclose(d.array, [0.6, 0.8])
        assert not d.is_zero

    def test_zero_constructor(self):
        d = Direction.zero(1, 2)
        assert d.is_zero
        assert d.player == 1

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Direction(0, (0.5, 0.5))

    @pytest.mark.parametrize("vector", [(np.nan,), (np.nan, 1.0), (np.inf, 0.0)])
    def test_rejects_non_finite(self, vector):
        with pytest.raises(ValueError):
            Direction(0, vector)

    def test_unit_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Direction.unit(0, [0.0, 0.0])

    def test_generators_check_player(self):
        with pytest.raises(ValueError):
            ConeGenerators(0, (Direction.unit(1, [1.0]),), Provenance.SAMPLED)


class TestGradientDirection:
    def test_uphill_rival_pull(self, pull_game):
        # theta_1 = -(x1 - 0.5 x2)^2 at (1, 0): gradient -2, direction +1.
        x = split_profile(pull_game, [1.0, 0.0])
        d = gradient_normal_direction(pull_game, 0, x)
        np.testing.assert_allclose(d.array, [1.0], atol=1e-9)

    def test_flat_point_returns_none(self, pull_game):
        x = split_profile(pull_game, [0.0, 0.0])
        assert gradient_normal_direction(pull_game, 0, x) is None

    def test_linear_utility_points_down(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("x1")),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        x = split_profile(game, [0.3, 0.0])
        d = gradient_normal_direction(game, 0, x)
        np.testing.assert_allclose(d.array, [-1.0], atol=1e-9)

    def test_requires_utility_variant(self):
        game = GameSpec(
            players=(PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),)
        )
        x = split_profile(game, [0.0])
        with pytest.raises(GameFormatError):
            gradient_normal_direction(game, 0, x)

    @given(
        st.floats(-0.8, 0.8),
        st.floats(-0.8, 0.8),
        st.floats(0.05, 0.9),
    )
    @settings(max_examples=40)
    def test_invariant_under_monotone_rescale(self, a, b, t):
        """The normalized direction only depends on the ordinal preference."""
        base = f"-(x1-{t!r}*x2)^2"
        mono = f"({base})^3+({base})"
        g1 = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(base)),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        g2 = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(mono)),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        x = split_profile(g1, [a, b])
        d1 = gradient_normal_direction(g1, 0, x)
        d2 = gradient_normal_direction(g2, 0, x)
        if d1 is None or d2 is None:
            # Near the peak both gradients collapse below the threshold at
            # slightly different points; no directional claim to compare.
            return
        np.testing.assert_allclose(d1.array, d2.array, atol=1e-6)


class TestBatchedGradient:
    """``gradient_normal_direction`` is the one-row case of ``gradient_directions``."""

    @staticmethod
    def _rows_equal_single(game, player, points):
        directions, flat = gradient_directions(game, player, points)
        for row, point in enumerate(points):
            single = gradient_normal_direction(game, player, split_profile(game, point))
            if single is None:
                assert flat[row]
                assert not directions[row].any()
            else:
                assert not flat[row]
                assert directions[row].tobytes() == single.array.tobytes()
        return flat

    @pytest.mark.parametrize("players, dims", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_rows_match_single_profile_bit_for_bit(self, players, dims):
        game = random_concave_quadratic(7, players=players, dims=dims)
        points = np.random.default_rng(players * dims).uniform(-1.0, 1.0, (9, game.total_dim))
        for player in range(players):
            self._rows_equal_single(game, player, points)
            self._rows_equal_single(game, player, np.asfortranarray(points))

    def test_odd_powers_match_bit_for_bit(self):
        base = "-(x1-0.3*x2)^2"
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(f"({base})^3+({base})")),
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("x2^5-x2*x1^3")),
            )
        )
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (17, 2))
        for player in range(2):
            self._rows_equal_single(game, player, points)

    def test_flat_rows_are_zero_and_flagged(self, pull_game):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.5], [-0.5, 0.5]])
        flat = self._rows_equal_single(pull_game, 0, points)
        assert flat.tolist() == [True, False, True, False]

    def test_constant_utility_is_flat(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("1")),
                PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("-(x2-0.5)^2")),
            )
        )
        directions, flat = gradient_directions(game, 0, np.array([[0.2, 0.3], [0.9, 0.1]]))
        assert flat.all() and not directions.any()
        assert gradient_normal_direction(game, 0, split_profile(game, [0.2, 0.3])) is None

    def test_non_finite_value_raises_for_the_batch_and_the_row(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x1-0.5)^2+1/x2")),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        points = np.array([[0.1, 0.5], [0.2, 0.0], [0.3, -0.5]])
        with pytest.raises(EvaluationError, match=r"near \[0\.2, 0\.0\]"):
            gradient_directions(game, 0, points)
        with pytest.raises(EvaluationError):
            gradient_normal_direction(game, 0, split_profile(game, points[1]))
        self._rows_equal_single(game, 0, points[[0, 2]])

    def test_requires_utility_variant(self, pull_game):
        game = GameSpec(players=(PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),))
        with pytest.raises(GameFormatError):
            gradient_directions(game, 0, np.zeros((2, 1)))


class TestContourPolyhedron:
    def test_coordinate_order_is_dominance_orthant(self):
        from ordnash.corpus import example_coordinate_pref

        game = example_coordinate_pref()
        x = split_profile(game, [0.3, 0.4])
        a, b = contour_polyhedron(game, 0, x)
        np.testing.assert_array_equal(a, [[-1.0]])
        np.testing.assert_array_equal(b, [-0.3])

    def test_halfspace_rows_evaluated_at_profile(self):
        game = make_halfspace_orthant()
        x = split_profile(game, [0.2, 0.7])
        a, b = contour_polyhedron(game, 0, x)
        np.testing.assert_array_equal(a, [[-1.0]])
        np.testing.assert_allclose(b, [-0.7])

    def test_non_polyhedral_returns_none(self, pull_game):
        x = split_profile(pull_game, [0.0, 0.0])
        assert contour_polyhedron(pull_game, 0, x) is None


class TestPolyhedralGenerators:
    def test_orthant_corner_gives_axis_normals(self):
        # U = {y : y1 > 0.3, y2 > 0.4} at its own corner: both rows active.
        rows = (np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([-0.3, -0.4]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.3, 0.4)))
        assert gens.provenance is Provenance.POLYHEDRAL
        vectors = [d.vector for d in gens.directions]
        assert vectors == [(-1.0, 0.0), (0.0, -1.0)]

    def test_single_active_row(self):
        rows = (np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([-0.3, -0.4]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.3, 0.9)))
        assert [d.vector for d in gens.directions] == [(-1.0, 0.0)]

    def test_scalar_boundary(self):
        rows = (np.array([[-1.0]]), np.array([-0.5]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.5,)))
        assert [d.vector for d in gens.directions] == [(-1.0,)]

    def test_rows_normalized_before_activity(self):
        # 2y < 1 at y = 0.5 is active; the stored normal is unit length.
        rows = (np.array([[2.0]]), np.array([1.0]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.5,)))
        assert [d.vector for d in gens.directions] == [(1.0,)]

    def test_empty_polyhedron_flags_full_space(self):
        # y < 0 and -y < -1 cannot both hold.
        rows = (np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.2,)))
        assert gens.provenance is Provenance.FULL_SPACE
        assert gens.directions == ()

    @pytest.mark.parametrize("slack, active", [(-0.5e-9, True), (-2e-9, False)])
    def test_activity_tolerance(self, slack, active):
        # At y = (0.5, 0) the row y1 < 0.5 - slack has that slack, and counts
        # as active within 1e-9 of its boundary; -y2 < 0 is on its boundary.
        rows = (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.5 - slack, 0.0]))
        gens = polyhedral_normal_generators(rows, Block(0, (0.5, 0.0)))
        assert [d.vector for d in gens.directions] == [(1.0, 0.0)] * active + [(0.0, -1.0)]

    def test_interior_point_is_an_error(self):
        rows = (np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(InteriorPointError):
            polyhedral_normal_generators(rows, Block(0, (0.0,)))

    def test_assume_nonempty_skips_feasibility(self):
        rows = (np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        gens = polyhedral_normal_generators(
            rows, Block(0, (0.0,)), assume_nonempty=True
        )
        # With the check skipped the active row is reported as-is.
        assert gens.provenance is Provenance.POLYHEDRAL

    def test_column_mismatch_rejected(self):
        rows = (np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(GameFormatError):
            polyhedral_normal_generators(rows, Block(0, (0.0,)))

    def test_overflowing_row_is_rescaled_not_dropped(self):
        # 1e200 (y1 + y2) < 0 at (0.5, 0.5): the row's norm overflows, and
        # its normal is active; -2 y1 < -1 beside it is scaled as alone.
        rows = (np.array([[1e200, 1e200], [-2.0, 0.0]]), np.array([0.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = polyhedral_normal_generators(rows, Block(0, (0.5, 0.5)))
        assert gens.provenance is Provenance.POLYHEDRAL
        vectors = [d.vector for d in gens.directions]
        np.testing.assert_allclose(vectors[0], [0.5**0.5] * 2, rtol=1e-15)
        assert vectors[1] == (-1.0, 0.0)

    def test_overflowing_row_keeps_its_offset(self):
        # 1e300 y < 1e300 is y < 1, and 0.5 lies strictly inside it.
        rows = (np.array([[1e300]]), np.array([1e300]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InteriorPointError):
                polyhedral_normal_generators(rows, Block(0, (0.5,)))


class TestSampledSeparator:
    def test_two_dim_frozen_case(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        d = sampled_separating_direction(samples, Block(0, (0.0, 0.0)))
        np.testing.assert_allclose(
            d.array, [-1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)], atol=1e-8
        )

    def test_scalar_frozen_case(self):
        samples = np.array([[0.2], [0.5], [0.9]])
        d = sampled_separating_direction(samples, Block(0, (0.0,)))
        np.testing.assert_allclose(d.array, [-1.0], atol=1e-12)

    def test_no_samples_returns_none(self):
        assert sampled_separating_direction([], Block(0, (0.0,))) is None

    def test_surrounded_point_raises(self):
        samples = np.array([[-0.5], [0.5]])
        with pytest.raises(SeparatorError):
            sampled_separating_direction(samples, Block(0, (0.0,)))

    def test_accepts_blocks(self):
        samples = [Block(0, (0.4,)), Block(0, (0.8,))]
        d = sampled_separating_direction(samples, Block(0, (0.1,)))
        np.testing.assert_allclose(d.array, [-1.0])

    def test_separates_its_own_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            shift = rng.uniform(0.2, 1.0, 2)
            pts = rng.uniform(0.0, 1.0, size=(12, 2)) + shift
            d = sampled_separating_direction(pts, Block(0, (0.0, 0.0)))
            assert cone_membership(d, pts, Block(0, (0.0, 0.0)))


class TestConeMembership:
    def test_frozen_scalar_cases(self):
        x = Block(0, (0.0,))
        down = Direction.unit(0, [-1.0])
        up = Direction.unit(0, [1.0])
        samples = np.array([[0.1], [0.7]])
        assert cone_membership(down, samples, x)
        assert not cone_membership(up, samples, x)

    def test_empty_samples_vacuous(self):
        assert cone_membership(Direction.unit(0, [1.0]), [], Block(0, (0.0,)))

    def test_tolerance_band(self):
        x = Block(0, (0.0,))
        d = Direction.unit(0, [1.0])
        assert cone_membership(d, np.array([[5e-8]]), x, tol=1e-7)
        assert not cone_membership(d, np.array([[5e-7]]), x, tol=1e-7)


class TestZeroInHull:
    def test_frozen_cases(self):
        assert not zero_in_hull([np.array([-1.0])])
        assert zero_in_hull([np.array([-1.0]), np.array([1.0])])
        assert not zero_in_hull([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert zero_in_hull([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])

    def test_empty_generator_set(self):
        assert not zero_in_hull([])

    def test_accepts_cone_generators(self):
        gens = ConeGenerators(
            0,
            (Direction.unit(0, [1.0]), Direction.unit(0, [-1.0])),
            Provenance.SAMPLED,
        )
        assert zero_in_hull(gens)

    def test_triangle_around_origin(self):
        pts = [
            np.array([1.0, 0.0]),
            np.array([-0.5, 0.8]),
            np.array([-0.5, -0.8]),
        ]
        assert zero_in_hull(pts)


class TestMechanismConsistency:
    """Directions from each mechanism stay in the sampled cone estimate."""

    def test_gradient_direction_against_fresh_sample(self, pull_game):
        rng = np.random.default_rng(11)
        for _ in range(25):
            coords = rng.uniform(-0.9, 0.9, 2)
            x = split_profile(pull_game, coords)
            d = gradient_normal_direction(pull_game, 0, x)
            if d is None:
                continue
            samples = sample_contour(pull_game, 0, x, count=400, seed=rng.integers(1 << 30))
            assert cone_membership(d, samples, x.block(0), tol=1e-7)

    def test_polyhedral_directions_against_fresh_sample(self):
        game = make_halfspace_orthant()
        rng = np.random.default_rng(13)
        for _ in range(25):
            coords = rng.uniform(-0.9, 0.9, 2)
            x = split_profile(game, coords)
            rows = contour_polyhedron(game, 0, x)
            try:
                gens = polyhedral_normal_generators(rows, x.block(0))
            except InteriorPointError:
                continue
            if gens.provenance is Provenance.FULL_SPACE:
                continue
            samples = sample_contour(game, 0, x, count=400, seed=rng.integers(1 << 30))
            for d in gens.directions:
                assert cone_membership(d, samples, x.block(0), tol=1e-7)


def _chebyshev_lp(a, b):
    """The LP of ``cones._strictly_feasible``: max t s.t. a y + t <= b, t <= 1."""
    dim = a.shape[1]
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * dim + [(None, 1.0)]
    return c, np.hstack([a, np.ones((a.shape[0], 1))]), b, bounds


class TestStrictFeasibilityLP:
    """The emptiness LP of a polyhedral selection, solved by ``model.linprog``
    in-house at every size and never by scipy.optimize, against scipy's HiGHS
    on the same LP."""

    def test_random_chebyshev_lps_match_highs(self, highs_calls):
        from ordnash import cones, model

        rng = np.random.default_rng(30)
        for _ in range(600):
            dim, rows = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            a = rng.normal(size=(rows, dim))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = np.round(rng.uniform(-1.0, 1.0, rows), int(rng.integers(1, 4)))
            c, a_ub, b_ub, bounds = _chebyshev_lp(a, b)
            got = model.linprog(c, a_ub, b_ub, bounds)
            want = highs(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            assert (got is None) == (want.status != 0)
            if want.status == 0:
                assert got[-1] == pytest.approx(want.x[-1], abs=1e-9)
                assert cones._strictly_feasible(a, b) == (want.x[-1] > cones._FEASIBLE_MARGIN)
        assert highs_calls == []

    @pytest.mark.parametrize("dim, rows", [(2, 40), (3, 200)])
    def test_many_rows_are_solved_in_house(self, highs_calls, dim, rows):
        from ordnash import cones, model

        rng = np.random.default_rng(33)
        a = rng.normal(size=(rows, dim))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.uniform(0.1, 1.0, rows)
        c, a_ub, b_ub, bounds = _chebyshev_lp(a, b)
        want = highs(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert model.linprog(c, a_ub, b_ub, bounds)[-1] == pytest.approx(want.x[-1], abs=1e-9)
        assert cones._strictly_feasible(a, b) == (want.x[-1] > cones._FEASIBLE_MARGIN)
        assert highs_calls == []

    def test_one_row_in_two_dims_agrees(self, highs_calls):
        # A polyhedron without a vertex: y stays free along the row.
        from ordnash import cones, model

        a, b = np.array([[0.6, 0.8]]), np.array([-0.3])
        c, a_ub, b_ub, bounds = _chebyshev_lp(a, b)
        got = model.linprog(c, a_ub, b_ub, bounds)
        want = highs(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert want.status == 0
        assert got[-1] == want.x[-1] == 1.0
        assert np.all(a_ub @ got <= b_ub + 1e-9)
        assert cones._strictly_feasible(a, b)
        assert highs_calls == []
