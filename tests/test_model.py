"""Game model: profiles, preference variants, feasible regions, validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import (
    formula_contains,
    formula_contour_box,
    formula_linear_min,
    make_budget_pair,
    make_pull_to_half_rival,
    ref_dot,
)
from ordnash import model
from ordnash.corpus import (
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    random_concave_quadratic,
)
from ordnash.errors import EvaluationError, GameFormatError, ProfileError
from ordnash.model import (
    Block,
    BoxOnly,
    ContourRow,
    CoordinateOrder,
    FeasibleRegion,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    Profile,
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    ValidationIssue,
    assemble_profile,
    feasible_region,
    sample_contour,
    split_profile,
    strict_upper_mask,
    strictly_prefers,
    validate_spec,
)


def _sum_key(value):
    """A float's bits as hex, sign of zero included; every NaN alike."""
    return "nan" if value != value else float(value).hex()


class TestDot:
    """``model._dot`` is the left-to-right sum over Python floats (``ref_dot``)."""

    SHAPES = [
        ((), ()),
        ((7,), ()),
        ((), (7,)),
        ((5, 1), (3,)),
        ((2, 1, 4), (3, 1)),
        ((4, 3), (4, 3)),
    ]
    SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300]

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("lead_a, lead_b", SHAPES)
    def test_equals_a_left_to_right_loop(self, lead_a, lead_b, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=lead_a + (n,)) * 10.0 ** rng.integers(-8, 9, size=lead_a + (n,))
        b = rng.normal(size=lead_b + (n,))
        # -0.0, inf, NaN, and products that overflow or cancel an overflow.
        a[rng.random(a.shape) < 0.15] = rng.choice(self.SPECIALS)
        b[rng.random(b.shape) < 0.15] = rng.choice(self.SPECIALS)
        b = np.swapaxes(np.swapaxes(b, 0, -1).copy(), 0, -1)  # a strided layout
        with np.errstate(over="ignore", invalid="ignore"):
            got = model._dot(a, b)
        wide_a, wide_b = np.broadcast_arrays(a, b)
        rows = int(np.prod(wide_a.shape[:-1]))
        want = [ref_dot(u, v) for u, v in zip(wide_a.reshape(rows, n), wide_b.reshape(rows, n))]
        assert np.shape(got) == wide_a.shape[:-1]
        assert [_sum_key(v) for v in np.ravel(got)] == [_sum_key(v) for v in want]

    def test_the_sum_starts_at_the_first_product(self):
        # From +0.0, -0.0 products would sum to +0.0; a pairwise or reordered
        # sum would keep the 1.0 that the index-order sum loses.
        cases = [
            ([-0.0], [1.0], "-0x0.0p+0"),
            ([-0.0, 0.0], [1.0, -1.0], "-0x0.0p+0"),
            ([1.0, 1e16, -1e16], [1.0, 1.0, 1.0], "0x0.0p+0"),
            ([1e308, 1e308, -1e308], [10.0, 1.0, 1.0], "inf"),
        ]
        for a, b, bits in cases:
            with np.errstate(over="ignore"):
                assert float(model._dot(np.array(a), np.array(b))).hex() == bits

    @pytest.mark.parametrize(
        "shape_a, shape_b, shape",
        [((0,), (0,), ()), ((3, 0), (0,), (3,)), ((2, 1, 0), (4, 0), (2, 4))],
    )
    def test_an_empty_axis_sums_to_zero(self, shape_a, shape_b, shape):
        got = model._dot(np.empty(shape_a), np.empty(shape_b))
        assert np.shape(got) == shape
        assert [float(v).hex() for v in np.ravel(got)] == ["0x0.0p+0"] * int(np.prod(shape))


class TestProfiles:
    def test_block_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Block(0, (float("nan"),))

    def test_blocks_must_be_ordered(self):
        with pytest.raises(ProfileError):
            Profile((Block(1, (0.0,)), Block(0, (0.0,))))

    def test_stacked_and_rivals(self):
        p = Profile((Block(0, (1.0, 2.0)), Block(1, (3.0,))))
        np.testing.assert_array_equal(p.stacked, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(p.rivals(0), [3.0])
        np.testing.assert_array_equal(p.rivals(1), [1.0, 2.0])

    def test_with_block(self):
        p = Profile((Block(0, (1.0,)), Block(1, (2.0,))))
        q = p.with_block(1, (5.0,))
        assert q.block(1).values == (5.0,)
        assert p.block(1).values == (2.0,)

    def test_assemble_checks_coverage(self, pull_game):
        with pytest.raises(ProfileError):
            assemble_profile(pull_game, [Block(0, (0.0,))])
        with pytest.raises(ProfileError):
            assemble_profile(
                pull_game, [Block(0, (0.0,)), Block(0, (1.0,))]
            )

    def test_split_roundtrip(self, pull_game):
        p = split_profile(pull_game, [0.25, -0.5])
        np.testing.assert_array_equal(p.stacked, [0.25, -0.5])
        q = assemble_profile(pull_game, list(p.blocks))
        np.testing.assert_array_equal(q.stacked, p.stacked)

    def test_split_rejects_wrong_size(self, pull_game):
        with pytest.raises(ProfileError):
            split_profile(pull_game, [0.0, 0.0, 0.0])

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2))
    def test_split_assemble_identity(self, coords):
        game = make_pull_to_half_rival()
        profile = split_profile(game, coords)
        back = assemble_profile(game, list(profile.blocks))
        assert tuple(back.stacked) == tuple(profile.stacked)


class TestGameSpec:
    def test_mixed_dims_layout(self):
        game = GameSpec(
            players=(
                PlayerSpec(2, ((-1.0, 1.0), (0.0, 2.0)), TrivialZero()),
                PlayerSpec(1, ((-3.0, 3.0),), TrivialZero()),
            )
        )
        assert game.dims == (2, 1)
        assert game.offsets == (0, 2)
        assert game.total_dim == 3
        assert game.own_slice(1) == slice(2, 3)
        lo, hi = game.player_box(0)
        np.testing.assert_array_equal(lo, [-1.0, 0.0])
        np.testing.assert_array_equal(hi, [1.0, 2.0])

    def test_needs_players(self):
        with pytest.raises(ValueError):
            GameSpec(players=())

    def test_box_arity_checked(self):
        with pytest.raises(ValueError):
            PlayerSpec(2, ((-1.0, 1.0),), TrivialZero())

    def test_shared_linear_row_shape(self):
        with pytest.raises(ValueError):
            SharedLinear(a=((1.0, 1.0),), b=(1.0, 2.0))


class TestUtilityPreference:
    def test_hand_evaluated_comparison(self, pull_game):
        # theta(0, 0) = 0 beats theta(1, 0) = -1 for the first player.
        x = split_profile(pull_game, [1.0, 0.0])
        assert strictly_prefers(pull_game, 0, [0.0], x)
        assert not strictly_prefers(pull_game, 0, [1.0], x)

    def test_mask_matches_scalar_calls(self, pull_game):
        x = split_profile(pull_game, [0.3, -0.4])
        candidates = np.linspace(-1.0, 1.0, 21).reshape(-1, 1)
        mask = strict_upper_mask(pull_game, 0, candidates, x)
        singles = [
            strictly_prefers(pull_game, 0, row, x) for row in candidates
        ]
        assert mask.tolist() == singles

    def test_candidate_dim_checked(self, pull_game):
        x = split_profile(pull_game, [0.0, 0.0])
        with pytest.raises(ProfileError):
            strict_upper_mask(pull_game, 0, np.zeros((3, 2)), x)


def _tiled_profiles(game, player, own, point):
    """The materialized (m, n) batch: ``point`` repeated, own block replaced."""
    batch = np.tile(point, (own.shape[0], 1))
    batch[:, game.own_slice(player)] = own
    return batch


class TestOwnBlockView:
    """The utility branch of the preference table evaluates candidates on a
    column view; the reference is the same utility on tiled profiles."""

    @pytest.mark.parametrize(
        "dims, player",
        [(1, 1), (2, 0), (2, 1), (2, 2)],
        ids=["middle-of-three", "2-block-first", "2-block-middle", "2-block-last"],
    )
    def test_table_equals_tiled_reference_bit_for_bit(self, dims, player):
        game = random_concave_quadratic(11, players=3, dims=dims)
        rng = np.random.default_rng(dims * 10 + player)
        candidates = rng.uniform(-1.0, 1.0, (200, dims))
        profiles = np.tile(rng.uniform(-1.0, 1.0, game.total_dim), (5, 1))
        profiles[:, game.own_slice(player)] = rng.uniform(-1.0, 1.0, (5, dims))
        fn = game.players[player].preference.fn
        viewed = fn(model._own_block_view(game, player, candidates, profiles[0]))
        tiled = fn(_tiled_profiles(game, player, candidates, profiles[0]))
        np.testing.assert_array_equal(
            np.asarray(viewed).view(np.uint64), np.asarray(tiled).view(np.uint64)
        )
        table = model._strict_upper_table(game, player, candidates, profiles)
        np.testing.assert_array_equal(table, tiled[None, :] > fn(profiles)[:, None])

    def test_view_has_the_shape_of_the_tiled_batch(self):
        # The bench counts the rows of a compiled call as prod(shape[:-1]).
        game = random_concave_quadratic(11, players=3, dims=2)
        own, point = np.zeros((7, 2)), np.ones(6)
        view = model._own_block_view(game, 1, own, point)
        assert view.shape == _tiled_profiles(game, 1, own, point).shape == (7, 6)
        # Rival columns are shape-(1,) arrays, never numpy scalars.
        assert [np.shape(view[..., k]) for k in range(6)] == [(1,), (1,), (7,), (7,), (1,), (1,)]


def _table_games():
    box = ((-1.0, 1.0),)
    row = ContourRow(("x2-0.25",), "(x2-0.25)*x1")
    return {
        "utility 3x2": (random_concave_quadratic(11, players=3, dims=2), 1),
        "utility odd powers": (
            GameSpec(
                (
                    PlayerSpec(1, ((0.5, 2.0),), UtilityPreference("x1^3 - x2^5*x1 + x2^-3")),
                    PlayerSpec(1, ((0.5, 2.0),), UtilityPreference("-x2^7 + x1^-1*x2")),
                )
            ),
            0,
        ),
        "coordinate": (example_coordinate_pref(), 1),
        "halfspace": (
            GameSpec((PlayerSpec(1, box, HalfspaceContour((row,))), PlayerSpec(1, box, TrivialZero()))),
            0,
        ),
        "threshold-band": (example_lhc_remark()[2], 1),
        "trivial": (example_trivial_pref(), 0),
    }


class TestStrictUpperTable:
    """Each row of the table is the one-profile mask at that row's profile."""

    @pytest.mark.parametrize("name", list(_table_games()))
    def test_rows_place_candidates_into_their_own_rivals(self, name):
        game, player = _table_games()[name]
        rng = np.random.default_rng(len(name))
        lo, hi = game.box_lo, game.box_hi
        # Runs of profiles sharing a rival point, then one run per profile.
        rival_points = rng.uniform(lo, hi, (4, game.total_dim))
        profiles = np.repeat(rival_points, [3, 1, 2, 1], axis=0)
        profiles = np.vstack([profiles, rng.uniform(lo, hi, (5, game.total_dim))])
        sl = game.own_slice(player)
        profiles[:, sl] = rng.uniform(lo[sl], hi[sl], (profiles.shape[0], sl.stop - sl.start))
        candidates = rng.uniform(lo[sl], hi[sl], (40, sl.stop - sl.start))
        table = model._strict_upper_table(game, player, candidates, profiles)
        assert table.shape == (profiles.shape[0], candidates.shape[0])
        for row, profile in zip(table, profiles):
            expected = strict_upper_mask(game, player, candidates, split_profile(game, profile))
            np.testing.assert_array_equal(row, expected)


class TestHalfspaceTable:
    def test_one_coordinate_product_equals_the_matmul_formula(self):
        """A one-coordinate block's table is a broadcast product; it equals the
        stacked-matmul formula, rows with zero coefficients included."""
        rng = np.random.default_rng(5)
        box = ((-1.0, 1.0),)
        grid = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]
        zeros = 0
        for _ in range(40):
            rows = []
            for _ in range(int(rng.integers(1, 4))):
                slope = float(rng.choice([0.0, 0.0, 1.0, -2.0, 0.3]))
                shift = float(rng.choice([0.0, -0.25, 0.5]))
                offset = str(rng.choice(["0", "x2", "0.5*x1 - x2", "x1*x2"]))
                rows.append(ContourRow((f"{slope!r}*x2 + {shift!r}",), offset))
            game = GameSpec(
                (PlayerSpec(1, box, HalfspaceContour(tuple(rows))), PlayerSpec(1, box, TrivialZero()))
            )
            profiles = rng.choice(grid, (30, 2))
            candidates = np.concatenate([grid, rng.uniform(-1.0, 1.0, 20)])[:, None]
            a, b = model._contour_rows(game.players[0].preference, profiles)
            want = np.all(candidates[None] @ a.transpose(0, 2, 1) < b[:, None, :], axis=2)
            zeros += int((a == 0.0).sum())
            np.testing.assert_array_equal(
                model._strict_upper_table(game, 0, candidates, profiles), want
            )
        assert zeros > 100

    @staticmethod
    def _huge_row_game(coeffs):
        """Player 0 holds len(coeffs) coordinates on [0, 1e10] under the one
        row coeffs @ y < 1; the rival is trivial."""
        box = ((0.0, 1e10),) * len(coeffs)
        row = ContourRow(tuple(coeffs), "1")
        return GameSpec(
            (
                PlayerSpec(len(coeffs), box, HalfspaceContour((row,))),
                PlayerSpec(1, box[:1], TrivialZero()),
            )
        )

    @pytest.mark.parametrize("coeff, inside", [("1e300", False), ("-1e300", True)])
    def test_overflowing_one_coordinate_product_warns_of_nothing(self, coeff, inside):
        # 1e10 * (+-1e300) overflows to +-inf, which compares correctly;
        # 1e-299 * (+-1e300) is +-10.
        game = self._huge_row_game((coeff,))
        x = split_profile(game, [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = strict_upper_mask(game, 0, np.array([[1e10], [0.0], [1e-299]]), x)
        assert mask.tolist() == [inside, True, inside]

    def test_overflowing_two_coordinate_product_is_rescaled(self):
        # (1e10, 1e10) @ (1e300, -1e300) is inf - inf in floats but 0 < 1; the
        # rescaled row (1, -1) with offset 1e-300 gives it.  The other
        # candidates do not overflow and keep the plain product.
        game = self._huge_row_game(("1e300", "-1e300"))
        x = split_profile(game, [0.0, 0.0, 0.0])
        candidates = np.array([[1e10, 1e10], [1e10, 0.0], [0.0, 1e10], [2e-300, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = strict_upper_mask(game, 0, candidates, x)
        assert mask.tolist() == [True, False, True, False]


class TestOrdinalInvariance:
    """Strict preference only uses the order of utility values, so any
    strictly increasing reparametrization leaves every comparison unchanged."""

    @given(
        st.floats(-0.9, 0.9),
        st.floats(-0.9, 0.9),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=80)
    def test_cubed_plus_identity(self, t1, t2, a, b, dev):
        base = f"-(x1-{t1!r})^2-(x2-{t2!r})^2"
        monotone = f"({base})^3+({base})"
        g_base = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(base)),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        g_mono = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(monotone)),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        x = split_profile(g_base, [a, b])
        assert strictly_prefers(g_base, 0, [dev], x) == strictly_prefers(
            g_mono, 0, [dev], x
        )


class TestCoordinateOrder:
    def test_strict_means_every_coordinate(self):
        game = example_coordinate_pref()
        x = split_profile(game, [0.5, 0.5])
        assert strictly_prefers(game, 0, [0.6], x)
        assert not strictly_prefers(game, 0, [0.5], x)
        assert not strictly_prefers(game, 0, [0.4], x)

    def test_multidim_requires_all_strict(self):
        game = GameSpec(
            players=(
                PlayerSpec(2, ((-1.0, 1.0), (-1.0, 1.0)), CoordinateOrder()),
            )
        )
        x = split_profile(game, [0.0, 0.0])
        assert strictly_prefers(game, 0, [0.1, 0.1], x)
        assert not strictly_prefers(game, 0, [0.1, 0.0], x)
        assert not strictly_prefers(game, 0, [0.1, -0.1], x)


class TestTrivialZero:
    def test_never_prefers(self):
        game = example_trivial_pref()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = split_profile(game, rng.uniform(-1, 1, 2))
            dev = rng.uniform(-1, 1, 1)
            assert not strictly_prefers(game, 0, dev, x)
            assert not strictly_prefers(game, 1, dev, x)


class TestThresholdBand:
    def test_first_player_contour_switches_on_sign(self):
        _, _, game = example_lhc_remark()
        candidates = np.array([[-0.5], [0.0], [0.5]])
        below = split_profile(game, [-0.3, 0.2])
        mask = strict_upper_mask(game, 0, candidates, below)
        assert mask.tolist() == [False, True, True]
        above = split_profile(game, [0.3, 0.2])
        mask = strict_upper_mask(game, 0, candidates, above)
        assert mask.tolist() == [False, False, False]

    def test_strict_part_is_asymmetric(self):
        _, _, game = example_lhc_remark()
        x = split_profile(game, [0.3, 0.2])
        assert strictly_prefers(game, 1, [0.5], x)
        assert not strictly_prefers(game, 1, [0.2], x)
        assert not strictly_prefers(game, 1, [0.1], x)


class TestIrreflexivity:
    """No player ever strictly prefers the current point to itself."""

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3))
    @settings(max_examples=60)
    def test_across_variants(self, seed, which):
        rng = np.random.default_rng(seed)
        if which == 0:
            game = random_concave_quadratic(seed % 10_000, players=2, dims=1)
        elif which == 1:
            game = example_coordinate_pref()
        elif which == 2:
            game = example_trivial_pref()
        else:
            _, _, game = example_lhc_remark()
        coords = rng.uniform(-1, 1, game.total_dim)
        x = split_profile(game, coords)
        for player in range(game.n_players):
            assert not strictly_prefers(game, player, x.block(player).array, x)


class TestFeasibleRegion:
    def test_box_only_region(self, pull_game):
        region = feasible_region(pull_game, 0, rivals=[0.3])
        assert region.normals.shape == (0, 1)
        assert region.contains(np.array([1.0]))
        assert not region.contains(np.array([1.5]))
        assert not region.is_empty

    def test_shared_row_shifts_with_rivals(self, budget_game):
        region = feasible_region(budget_game, 0, rivals=[0.4])
        np.testing.assert_array_equal(region.normals, [[1.0]])
        np.testing.assert_allclose(region.offsets, [0.6])
        assert region.contains(np.array([0.6]))
        assert not region.contains(np.array([0.7]))

    def test_rival_only_row_forces_empty(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
            ),
            constraints=SharedLinear(a=((0.0, 1.0),), b=(0.5,)),
        )
        ok = feasible_region(game, 0, rivals=[0.2])
        assert not ok.is_empty
        empty = feasible_region(game, 0, rivals=[0.9])
        assert empty.is_empty
        assert not empty.contains(np.array([0.1]))

    def test_emptiness_via_conflicting_rows(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
            ),
            constraints=SharedLinear(a=((1.0, 0.0),), b=(-0.5,)),
        )
        region = feasible_region(game, 0, rivals=[0.0])
        assert region.is_empty

    @pytest.mark.parametrize(
        "lo, hi, normals, offsets",
        [
            # one point: y <= 0.5 and -y <= -0.5
            ([0.0], [1.0], [[1.0], [-1.0]], [0.5, -0.5]),
            # conflicting rows in 2-D: y1 + y2 <= 0.5 and y1 + y2 >= 1.5
            ([0.0, 0.0], [1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]], [0.5, -1.5]),
            # lo == hi, on and off a row
            ([0.3, 0.4], [0.3, 0.4], [[1.0, 1.0]], [1.0]),
            ([0.3, 0.4], [0.3, 0.4], [[1.0, 1.0]], [0.5]),
            # inverted box, with and without rows
            ([1.0, 0.0], [0.0, 1.0], [[1.0, 1.0]], [1.0]),
            ([1.0], [0.0], np.empty((0, 1)), []),
        ],
    )
    @pytest.mark.parametrize("c_seed", range(3))
    def test_linear_min_and_is_empty_agree_with_linprog(
        self, lo, hi, normals, offsets, c_seed
    ):
        lo, hi = np.array(lo), np.array(hi)
        normals = np.array(normals, dtype=np.float64).reshape(-1, lo.size)
        offsets = np.array(offsets, dtype=np.float64)
        region = FeasibleRegion(lo, hi, normals, offsets)
        c = np.random.default_rng(c_seed).normal(size=lo.size)
        reference = linprog(
            c,
            A_ub=normals if normals.size else None,
            b_ub=offsets if normals.size else None,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        y = region.linear_min(c)
        assert region.is_empty == (reference.status != 0) == (y is None)
        if y is not None:
            assert region.contains(y)
            assert float(c @ y) == pytest.approx(reference.fun, abs=1e-9)

    def test_ragged_shared_rows_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            SharedLinear(a=((1.0, 1.0), (1.0,)), b=(1.0, 1.0))

    def test_row_binds_by_largest_own_coefficient(self):
        # Player 0 owns two coordinates; row 1 reaches it only through 1e-16,
        # so the rivals alone decide that row.
        game = GameSpec(
            players=(
                PlayerSpec(2, ((0.0, 1.0), (0.0, 1.0)), TrivialZero()),
                PlayerSpec(1, ((0.0, 1.0),), TrivialZero()),
            ),
            constraints=SharedLinear(
                a=((1.0, 2.0, 1.0), (1e-16, 0.0, 1.0)), b=(2.0, 0.5)
            ),
        )
        region = feasible_region(game, 0, rivals=[0.25])
        np.testing.assert_array_equal(region.normals, [[1.0, 2.0]])
        np.testing.assert_array_equal(region.offsets, [1.75])
        assert not region.forced_empty
        assert feasible_region(game, 0, rivals=[0.75]).forced_empty

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_row_by_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 1, 2)
        a = rng.uniform(-1.0, 1.0, (5, sum(dims)))
        a[rng.random(a.shape) < 0.4] = 0.0  # some rows miss some players
        b = rng.uniform(-0.5, 1.5, 5)
        game = GameSpec(
            tuple(PlayerSpec(d, ((0.0, 1.0),) * d, TrivialZero()) for d in dims),
            SharedLinear(a=a.tolist(), b=b.tolist()),
        )
        x = rng.uniform(0.0, 1.0, sum(dims))
        for player in range(game.n_players):
            sl = game.own_slice(player)
            rivals = np.delete(x, np.arange(sl.start, sl.stop))
            own_cols = np.zeros(sum(dims), dtype=bool)
            own_cols[sl] = True
            offsets = b - np.array([ref_dot(row, rivals) for row in a[:, ~own_cols]])
            rows = [i for i in range(5) if np.max(np.abs(a[i, sl])) > 1e-15]
            free = [i for i in range(5) if i not in rows]
            region = feasible_region(game, player, rivals)
            np.testing.assert_array_equal(region.normals, a[rows, sl])
            np.testing.assert_array_equal(region.offsets, offsets[rows])
            assert region.forced_empty == any(offsets[i] < -1e-9 for i in free)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("rival_dim", range(4))
    def test_feasible_offsets_equal_feasible_region_at_each_row(self, rival_dim, rows):
        """The array builder's offsets and forced-empty mask at each rival row
        equal the one-row region bit for bit, and both equal
        ``b - A_rivals @ rivals`` summed in index order.  Row 0 never binds
        player 0, and the rivals violate it at some rows; zeros in A and the
        rivals make products of -0.0, subtracted from offsets of -0.0.  At
        rival_dim 0 the game has one player and no rival coordinates, so the
        products are empty sums."""
        rng = np.random.default_rng(10 * rival_dim + rows)
        empty_seen = set()
        for trial in range(6):
            own_dim = int(rng.integers(1, 3))
            rival_dims = [rival_dim] if trial % 2 else [1] * rival_dim
            dims = [own_dim] + [d for d in rival_dims if d]
            n = sum(dims)
            a = rng.uniform(-1.0, 1.0, (rows, n))
            a[rng.random(a.shape) < 0.3] = 0.0
            a[0, :own_dim] = 0.0
            b = rng.uniform(-0.5, 1.5, rows)
            b[1:][rng.random(rows - 1) < 0.5] = -0.0
            b[0] = float(a[0, own_dim:].sum()) / 2 if rival_dim else rng.choice([-0.5, -0.0, 0.5])
            game = GameSpec(
                tuple(PlayerSpec(d, ((0.0, 1.0),) * d, TrivialZero()) for d in dims),
                SharedLinear(a=a.tolist(), b=b.tolist()),
            )
            for player in range(game.n_players):
                sl = game.own_slice(player)
                own_cols = np.zeros(n, dtype=bool)
                own_cols[sl] = True
                rivals = rng.uniform(-0.2, 1.2, (7, n - game.dims[player]))
                rivals[rng.random(rivals.shape) < 0.2] = 0.0
                offsets, forced_empty = model._feasible_offsets(game, player, rivals)
                binding = np.max(np.abs(a[:, sl]), axis=1) > 1e-15
                for row, values in enumerate(rivals):
                    region = feasible_region(game, player, values)
                    reference = b - np.array([ref_dot(r, values) for r in a[:, ~own_cols]])
                    assert offsets[row].tobytes() == region.offsets.tobytes()
                    assert region.offsets.tobytes() == reference[binding].tobytes()
                    assert forced_empty[row] == region.forced_empty
                    assert region.forced_empty == bool((reference[~binding] < -1e-9).any())
                    if player == 0:
                        empty_seen.add(bool(forced_empty[row]))
        assert empty_seen == {False, True}

    def test_rivals_arity_checked(self, budget_game):
        with pytest.raises(ProfileError):
            feasible_region(budget_game, 0, rivals=[0.1, 0.2])

    def test_contains_many_matches_contains(self, budget_game):
        region = feasible_region(budget_game, 0, rivals=[0.4])
        pts = np.linspace(-0.2, 1.2, 15).reshape(-1, 1)
        many = region.contains_many(pts)
        singles = [region.contains(p) for p in pts]
        assert many.tolist() == singles


def _seeded_region(rng, normal_pool):
    """A small region: 1-3 dims, 0-4 rows (some drawn from ``normal_pool``, so
    regions share normals), some boxes flat or inverted, some forced empty."""
    dim = int(rng.integers(1, 4))
    rows = int(rng.integers(0, 5))
    lo = np.round(rng.uniform(-1.0, 0.5, dim), 2)
    hi = lo + np.round(rng.uniform(0.0, 1.5, dim), 2)
    flat = rng.random(dim) < 0.15
    hi[flat] = lo[flat]
    if rng.random() < 0.03:
        lo, hi = hi, lo
    if rows and rng.random() < 0.4:
        normals = normal_pool[(dim, rows)]
    else:
        normals = np.round(rng.uniform(-1.0, 1.0, (rows, dim)), 1)
        if rows > 1 and rng.random() < 0.2:
            normals[-1] = -normals[0]  # parallel rows: singular bases
    centre = rng.uniform(lo, hi) if np.all(lo <= hi) else lo
    offsets = normals @ centre + rng.uniform(-0.02, 0.6, rows)
    return FeasibleRegion(lo, hi, normals, offsets, forced_empty=bool(rng.random() < 0.05))


def _assert_linear_min_bit_equal(region, c):
    try:
        want = formula_linear_min(region, c)
    except ValueError:  # the simplex, like HiGHS, refuses a NaN cost
        with pytest.raises(ValueError):
            region.linear_min(c)
        return
    got = region.linear_min(c)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.asarray(got).shape == np.asarray(want).shape
        np.testing.assert_array_equal(
            np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64)
        )


def _assert_linear_min_matches(region, c):
    """An interval and a box (no rows) bit for bit; any other region the same
    emptiness as the vertex formula, a point it contains, and an objective
    within 1e-12 of the formula's."""
    if region.lo.size == 1 or region.normals.shape[0] == 0:
        _assert_linear_min_bit_equal(region, c)
        return
    want = formula_linear_min(region, c)
    got = region.linear_min(c)
    assert (got is None) == (want is None)
    if got is not None:
        assert region.contains(got)
        assert ref_dot(c, got) == pytest.approx(ref_dot(c, want), abs=1e-12)


def _interval(lo, hi, normals=(), offsets=(), forced_empty=False):
    return FeasibleRegion(
        np.array([lo]),
        np.array([hi]),
        np.array(normals, dtype=np.float64).reshape(-1, 1),
        np.array(offsets, dtype=np.float64),
        forced_empty,
    )


# One-coordinate regions at the edges of the interval route, by name.
_INTERVAL_EDGES = {
    "forced-empty": _interval(0.0, 1.0, [1.0], [0.5], forced_empty=True),
    "forced-empty-box": _interval(0.0, 1.0, forced_empty=True),
    "lo-above-hi": _interval(1.0, 0.0, [1.0], [0.5]),
    "lo-above-hi-box": _interval(1.0, 0.0),
    "flat-box": _interval(0.25, 0.25, [1.0], [0.25]),
    # |a| < 1e-12: no vertex of its own; the tolerance keeps or drops hi/lo.
    "normal-1e-13-slack": _interval(-1.0, 1.0, [1e-13], [-0.5e-13]),
    "normal-1e-13-empty": _interval(-1.0, 1.0, [1e-13], [-1.0]),
    "normal-1e-12": _interval(-1.0, 1.0, [1e-12], [-0.5e-12]),
    # Row vertices just outside the box, within and beyond the tolerance.
    "vertex-above-hi-within-tol": _interval(0.0, 1.0, [1.0], [1.0 + 5e-10]),
    "vertex-below-lo-within-tol": _interval(0.0, 1.0, [-1.0], [5e-10]),
    "vertex-above-hi-beyond-tol": _interval(0.0, 1.0, [1.0], [1.0 + 2e-9]),
    "vertex-scaled-row": _interval(0.0, 1.0, [-3.0], [-0.3]),
    # c = 0 ties: hi, then lo, then the rows, whichever is contained first.
    "tie-hi-first": _interval(0.0, 1.0, [1.0], [2.0]),
    "tie-lo-first": _interval(0.0, 1.0, [1.0], [0.5]),
    "tie-row-first": _interval(0.0, 1.0, [1.0, -1.0], [0.5, -0.5]),
    "tie-between-rows": _interval(0.0, 1.0, [2.0, 1.0, -4.0], [0.8, 0.4, -1.6]),
    # No vertex within the tolerance: the simplex finds a gap of 5e-9 beyond
    # it, so the region is empty.
    "no-vertex": _interval(0.0, 1.0, [1.0, -1.0], [0.5, -0.5 - 1e-8]),
    # The vertex loop takes any number of rows.
    "five-rows": _interval(0.0, 1.0, [1.0, -1.0, 2.0, 0.5, -0.25], [0.9, -0.1, 1.5, 0.4, 0.0]),
    "no-rows": _interval(-0.5, 2.0),
    # An infinite cost makes NaN at the vertex 0, which np.argmin takes.
    "zero-vertex": _interval(-1.0, 1.0, [1.0], [0.0]),
}


class TestRegionRoutesMatchTheirFormulas:
    """``contains``, ``contains_many`` and ``linear_min`` against their
    formulas on 2,000 regions, on 2,000 intervals, and at the edges of the
    interval route: bit for bit, except that ``linear_min`` on 2-3
    coordinates with rows (the simplex) is held to the vertex formula's
    emptiness and, within 1e-12, its objective, at a point it contains."""

    def test_contains_many_and_linear_min_are_bit_equal(self):
        rng = np.random.default_rng(2024)
        normal_pool = {
            (dim, rows): np.round(rng.uniform(-1.0, 1.0, (rows, dim)), 1)
            for dim in range(1, 4)
            for rows in range(1, 5)
        }
        for _ in range(2000):
            region = _seeded_region(rng, normal_pool)
            dim = region.lo.size
            points = rng.uniform(-1.5, 2.0, (12, dim))
            points[:2] = region.lo, region.hi  # on the box boundary
            np.testing.assert_array_equal(
                region.contains_many(points), formula_contains(region, points)
            )
            assert region.contains(points[0]) == formula_contains(region, points[0])[0]
            costs = [rng.normal(size=dim), np.zeros(dim), np.round(rng.normal(size=dim))]
            for c in costs:
                _assert_linear_min_matches(region, c)

    @pytest.mark.parametrize("name", list(_INTERVAL_EDGES))
    def test_interval_linear_min_is_bit_equal_at_the_edges(self, name):
        region = _INTERVAL_EDGES[name]
        for cost in (-1.0, 0.0, -0.0, 1.0, 1e-300, -2.5, np.nan, np.inf, -np.inf):
            with np.errstate(invalid="ignore"):  # the formula's inf * 0
                _assert_linear_min_bit_equal(region, np.array([cost]))
        assert region.is_empty == (formula_linear_min(region, np.zeros(1)) is None)

    @pytest.mark.parametrize("name", list(_INTERVAL_EDGES))
    def test_interval_contains_is_bit_equal_at_the_edges(self, name):
        region = _INTERVAL_EDGES[name]
        lo, hi, tol = float(region.lo[0]), float(region.hi[0]), model._FEAS_TOL
        scalars = [lo - tol, hi + tol, lo, hi, np.nextafter(lo - tol, -np.inf)]
        scalars += [np.nextafter(hi + tol, np.inf), 0.5 * (lo + hi)]
        scalars += [b / a for a, b in zip(region.normals[:, 0], region.offsets)]
        for y in scalars:
            want = bool(formula_contains(region, [[y]])[0])
            assert region.contains_many(np.array([[y]]))[0] == want
            for point in (np.array([y]), np.array([[y]]), [y], y):
                assert region.contains(point) is want

    def test_random_intervals_are_bit_equal(self):
        rng = np.random.default_rng(12)
        normal_values = np.array([1.0, -1.0, 0.3, -7.0, 1e-13, -1e-13, 1e-12, 2e-12, -1e6])
        for _ in range(2000):
            lo = float(np.round(rng.uniform(-1.0, 0.5), 2))
            hi = lo + float(np.round(rng.uniform(-0.05, 1.5), 2))
            rows = int(rng.integers(0, 5))
            normals = rng.choice(normal_values, rows) * rng.choice([1.0, 0.5, 3.0], rows)
            centre = rng.uniform(min(lo, hi), max(lo, hi))
            offsets = normals * centre + rng.choice([0.0, 1e-10, -1e-10, 0.1, 0.4], rows)
            region = _interval(lo, hi, normals, offsets, forced_empty=bool(rng.random() < 0.03))
            for c in (rng.normal(), 0.0, float(np.round(rng.normal()))):
                _assert_linear_min_bit_equal(region, np.array([c]))
            points = np.concatenate([[lo, hi], offsets / normals])
            points = np.concatenate([points, rng.uniform(lo - 0.5, hi + 0.5, 4)])
            np.testing.assert_array_equal(
                [region.contains(p) for p in points], formula_contains(region, points[:, None])
            )


class TestSampleContour:
    def test_deterministic_and_inside_contour(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        first = sample_contour(pull_game, 0, x, count=50, seed=9)
        second = sample_contour(pull_game, 0, x, count=50, seed=9)
        np.testing.assert_array_equal(first, second)
        assert len(first) == 50
        for row in first:
            assert strictly_prefers(pull_game, 0, row, x)
            assert -1.0 <= row[0] <= 1.0

    def test_empty_contour_yields_nothing(self):
        game = example_trivial_pref()
        x = split_profile(game, [0.2, -0.2])
        assert sample_contour(game, 0, x, count=10, seed=0).shape == (0, 1)

    def test_custom_bounds_extend_the_box(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        wide = sample_contour(
            pull_game, 0, x, count=200, seed=1,
            bounds=(np.array([-3.0]), np.array([3.0])),
        )
        values = wide[:, 0]
        # theta_1(y, 0) > theta_1(1, 0) iff |y| < 1, so samples stay in (-1, 1)
        # even though the sampling box is wider.
        assert np.all(np.abs(values) < 1.0)
        assert values.min() < -0.5

    @pytest.mark.parametrize(
        "game, coords, player, count, bounds",
        [
            (make_pull_to_half_rival(), [1.0, 0.0], 0, 50, None),
            (example_coordinate_pref(), [0.2, -0.4], 1, 30, None),
            (example_lhc_remark()[2], [-0.5, 0.3], 0, 100, None),
            (
                GameSpec((PlayerSpec(2, ((-1.0, 1.0),) * 2, CoordinateOrder()),)),
                [0.1, -0.3],
                0,
                40,
                (np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
            ),
            (make_pull_to_half_rival(), [0.0, 0.0], 0, 5000, None),
        ],
    )
    def test_array_contract_matches_seeded_draws(
        self, game, coords, player, count, bounds
    ):
        x = split_profile(game, coords)
        seed = 17
        samples = sample_contour(game, player, x, count=count, seed=seed, bounds=bounds)
        dim = game.dims[player]
        assert isinstance(samples, np.ndarray)
        assert samples.dtype == np.float64
        assert samples.ndim == 2 and samples.shape[1] == dim
        box = formula_contour_box(
            game, player, x, *(game.player_box(player) if bounds is None else bounds)
        )
        draws = np.random.default_rng(seed).uniform(
            *box, size=(max(20 * count, 2000), dim)
        )
        expected = draws[strict_upper_mask(game, player, draws, x)][:count]
        np.testing.assert_array_equal(samples, expected)

    def test_empty_results_keep_the_block_dimension(self):
        blocks = GameSpec((PlayerSpec(2, ((-1.0, 1.0),) * 2, CoordinateOrder()),))
        corner = split_profile(blocks, [1.0, 1.0])
        for count in (0, 25):
            empty = sample_contour(blocks, 0, corner, count=count, seed=3)
            assert empty.shape == (0, 2)
            assert empty.dtype == np.float64
        # At the origin the pull game's strict contour set is empty too.
        pull = make_pull_to_half_rival()
        assert sample_contour(pull, 0, split_profile(pull, [0.0, 0.0]), 10, 0).shape == (0, 1)

    def test_count_validation(self, pull_game):
        x = split_profile(pull_game, [0.0, 0.0])
        with pytest.raises(ValueError):
            sample_contour(pull_game, 0, x, count=-1, seed=0)


def _halfspace_block_game():
    """A 2-coordinate HalfspaceContour player whose rows move with the rival."""
    rows = (
        ContourRow(("1", "x3"), "0.5 - x3"),
        ContourRow(("-x3", "1"), "0.2"),
    )
    return GameSpec(
        (
            PlayerSpec(2, ((-1.0, 1.0),) * 2, HalfspaceContour(rows)),
            PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("-(x3-x1)^2")),
        )
    )


def _one_player_game(preference):
    return GameSpec((PlayerSpec(2, ((-1.0, 1.0),) * 2, preference),))


# (game, coords, player): one sampling player of every preference variant.
_SWEEP_GAMES = [
    (make_pull_to_half_rival(), [1.0, 0.0], 0),
    (random_concave_quadratic(4, players=2, dims=2), [0.3, -0.2, 0.5, 0.1], 1),
    (example_coordinate_pref(), [0.2, -0.4], 1),
    (GameSpec((PlayerSpec(2, ((-1.0, 1.0),) * 2, CoordinateOrder()),)), [0.1, -0.3], 0),
    (example_trivial_pref(), [0.2, -0.2], 0),
    (_halfspace_block_game(), [0.1, 0.4, -0.6], 0),
    (example_lhc_remark()[2], [-0.5, 0.3], 0),
    (example_lhc_remark()[2], [0.4, -0.3], 1),
    (_one_player_game(ThresholdBand()), [-0.5, 0.3], 0),
]


def _reference_sample(game, player, x, count, seed, bounds=None):
    """sample_contour by its definition: every draw over the class box made,
    masked, then cut; nothing where the class box is empty."""
    lo, hi = game.player_box(player) if bounds is None else bounds
    box = formula_contour_box(game, player, x, lo, hi)
    if box is None:
        return np.empty((0, game.dims[player]))
    attempts = max(20 * count, 2000)
    draws = np.random.default_rng(seed).uniform(*box, size=(attempts, game.dims[player]))
    return draws[strict_upper_mask(game, player, draws, x)][:count]


class TestEarlyStop:
    """sample_contour stops drawing at ``count`` and still returns the full-draw result."""

    @pytest.mark.parametrize("case", range(len(_SWEEP_GAMES)))
    def test_matches_the_full_draw_bit_for_bit(self, case):
        game, coords, player = _SWEEP_GAMES[case]
        x = split_profile(game, coords)
        dim = game.dims[player]
        wide = (np.full(dim, -1.5), np.full(dim, 1.25))
        for seed in (0, 11):
            for bounds in (None, wide):
                # 1000 and 5000 need more than the first chunk where
                # acceptance is low.
                for count in (0, 1, 1000, 5000):
                    want = _reference_sample(game, player, x, count, seed, bounds)
                    got = sample_contour(game, player, x, count=count, seed=seed, bounds=bounds)
                    assert got.shape == want.shape == (len(want), dim)
                    assert got.tobytes() == want.tobytes()

    def test_high_acceptance_tests_fewer_rows_than_attempts(self, pull_game, monkeypatch):
        rows = []
        real = model.strict_upper_mask

        def counting(game, player, candidates, x):
            rows.append(len(candidates))
            return real(game, player, candidates, x)

        monkeypatch.setattr(model, "strict_upper_mask", counting)
        x = split_profile(pull_game, [1.0, 0.0])  # nearly the whole box is preferred
        got = sample_contour(pull_game, 0, x, count=300, seed=21)
        assert len(got) == 300
        assert rows == [600]  # the first chunk, 2 * count, accepts enough
        rows.clear()
        empty = split_profile(pull_game, [0.0, 0.0])  # the best response: nothing beats it
        assert sample_contour(pull_game, 0, empty, count=300, seed=21).shape == (0, 1)
        assert sum(rows) == 6000 and rows == [600, 1200, 2400, 1800]

    def test_a_generator_seed_advances_by_the_rows_drawn(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        sample_contour(pull_game, 0, x, count=100, seed=rng)
        twin.uniform(-1.0, 1.0, size=(200, 1))
        assert rng.random() == twin.random()


class TestContourBox:
    """The class box holds every candidate the strict preference accepts
    within the sampling bounds, and an empty one draws nothing."""

    @pytest.mark.parametrize(
        "game, player",
        [
            (example_coordinate_pref(), 0),
            (example_coordinate_pref(), 1),
            (_one_player_game(CoordinateOrder()), 0),
            (example_lhc_remark()[2], 0),
            (example_lhc_remark()[2], 1),
            (_one_player_game(ThresholdBand()), 0),
        ],
    )
    def test_holds_every_accepted_candidate(self, game, player):
        rng = np.random.default_rng(29)
        n, dim = game.total_dim, game.dims[player]
        profiles = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, (140, n)),
                rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (60, n)),
            ]
        )
        box_lo, box_hi = game.player_box(player)
        wide = (np.full(dim, -1.5), np.full(dim, 1.25))
        boxes = seen = 0
        for coords in profiles:
            x = split_profile(game, coords)
            for lo, hi in ((box_lo, box_hi), wide):
                axes = [np.linspace(a, b, 40, endpoint=False) for a, b in zip(lo, hi)]
                grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
                accepted = grid[strict_upper_mask(game, player, grid, x)]
                box = model._contour_box(game, player, x, lo, hi)
                if box is None:
                    assert accepted.shape[0] == 0, coords
                    continue
                inner_lo, inner_hi = box
                assert np.all(lo <= inner_lo) and np.all(inner_hi <= hi)
                assert np.all((accepted >= inner_lo) & (accepted <= inner_hi)), coords
                boxes += 1
                seen += accepted.shape[0]
        assert boxes > 0 and seen > 0

    @pytest.mark.parametrize(
        "game, coords, player",
        [
            (example_trivial_pref(), [0.2, -0.2], 0),
            (example_lhc_remark()[2], [0.0, 0.3], 0),
            (example_lhc_remark()[2], [-0.4, 0.3], 1),
            (_one_player_game(CoordinateOrder()), [0.1, 1.0], 0),
        ],
        ids=["trivial", "band-first-owner", "band-second-owner", "coordinate-at-hi"],
    )
    def test_an_empty_box_draws_nothing(self, game, coords, player, monkeypatch):
        calls = []
        real = model.strict_upper_mask

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(model, "strict_upper_mask", counting)
        x = split_profile(game, coords)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        got = sample_contour(game, player, x, count=1000, seed=rng)
        assert got.shape == (0, game.dims[player])
        assert calls == []
        assert rng.bit_generator.state == state

    def test_coordinate_draws_fit_one_chunk(self, monkeypatch):
        rows = []
        real = model.strict_upper_mask

        def counting(game, player, candidates, x):
            rows.append(len(candidates))
            return real(game, player, candidates, x)

        monkeypatch.setattr(model, "strict_upper_mask", counting)
        game = _one_player_game(CoordinateOrder())
        x = split_profile(game, [0.1, -0.3])
        assert sample_contour(game, 0, x, count=1000, seed=0).shape == (1000, 2)
        assert rows == [2000]

    def test_a_band_outside_two_coordinates_still_raises(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), ThresholdBand()),
                PlayerSpec(2, ((-1.0, 1.0), (-1.0, 1.0)), TrivialZero()),
            )
        )
        x = split_profile(game, [-0.5, 0.0, 0.0])
        with pytest.raises(GameFormatError):
            sample_contour(game, 0, x, count=10, seed=0)


class TestRepeatedSeeds:
    """sample_contour keeps no state between calls: a seed alone fixes the draws."""

    def test_same_seed_calls_agree(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        first = sample_contour(pull_game, 0, x, count=300, seed=5)
        second = sample_contour(pull_game, 0, x, count=300, seed=5)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, _reference_sample(pull_game, 0, x, 300, 5))

    def test_returned_arrays_are_writable_and_unshared(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        first = sample_contour(pull_game, 0, x, count=300, seed=6)
        expected = first.copy()
        assert first.flags.writeable
        first[:] = 99.0
        second = sample_contour(pull_game, 0, x, count=300, seed=6)
        np.testing.assert_array_equal(second, expected)
        assert second.flags.writeable and not np.shares_memory(first, second)

    def test_generator_seeds_are_not_reused(self, pull_game):
        x = split_profile(pull_game, [1.0, 0.0])
        rng = np.random.default_rng(0)
        first = sample_contour(pull_game, 0, x, count=100, seed=rng)
        second = sample_contour(pull_game, 0, x, count=100, seed=rng)
        assert first.tobytes() != second.tobytes()


class TestValidateSpec:
    def test_clean_game_has_no_issues(self, pull_game):
        assert validate_spec(pull_game) == []

    def test_unknown_variable_reported(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("x9")),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        issues = validate_spec(game)
        assert [i.code for i in issues] == ["unknown-variable"]
        assert "x9" in issues[0].message
        assert issues[0].player == 0

    def test_bad_expression_reported(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("x1 +")),
            )
        )
        assert [i.code for i in validate_spec(game)] == ["bad-expression"]

    def test_empty_interval_reported(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((1.0, -1.0),), TrivialZero()),
            )
        )
        assert [i.code for i in validate_spec(game)] == ["empty-interval"]

    def test_overflowing_box_width_reported_before_probing(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1e308, 1e308),), UtilityPreference("-(x1-0.5)^2")),
            )
        )
        issues = validate_spec(game)
        assert [i.code for i in issues] == ["box-width"]
        assert issues[0].player == 0

    @pytest.mark.parametrize("row", [(0.0, 0.0), (1e-20, -1e-16), (5e-324, 0.0)])
    def test_row_binding_no_player_reported(self, row):
        game = make_budget_pair()
        game = GameSpec(game.players, SharedLinear(a=((1.0, 1.0), row), b=(1.0, 0.0)))
        issues = validate_spec(game)
        assert [i.code for i in issues] == ["constraint-row"]
        assert "row 1" in issues[0].message

    def test_threshold_band_needs_two_coordinates(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), ThresholdBand()),
                PlayerSpec(2, ((-1.0, 1.0), (-1.0, 1.0)), TrivialZero()),
            )
        )
        assert "threshold-band-arity" in [i.code for i in validate_spec(game)]

    def test_constraint_arity_reported(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            ),
            constraints=SharedLinear(a=((1.0, 1.0, 1.0),), b=(1.0,)),
        )
        assert "constraint-arity" in [i.code for i in validate_spec(game)]

    def test_nonfinite_utility_reported(self):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference("1/(x1-x1)")),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            codes = [i.code for i in validate_spec(game)]
        assert "non-finite" in codes

    @pytest.mark.parametrize("row", [(("(0.0)/(0.0)",), "1"), (("1",), "x1+(1e200)^2")])
    def test_nonfinite_contour_constant_reported(self, row):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), HalfspaceContour((ContourRow(*row),))),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        issues = validate_spec(game)
        assert [i.code for i in issues] == ["non-finite"]
        assert "expression is not finite" in issues[0].message

    @pytest.mark.parametrize(
        "row, code, text",
        [
            ((("x1 +",), "x9"), "bad-expression", "player 0 contour row 0: unexpected end"),
            ((("x7",), "x9"), "unknown-variable", "player 0 contour row 0 references x7, x9"),
        ],
    )
    def test_contour_row_expression_issues(self, row, code, text):
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), HalfspaceContour((ContourRow(*row),))),
                PlayerSpec(1, ((-1.0, 1.0),), TrivialZero()),
            )
        )
        issues = validate_spec(game)
        assert [(i.code, i.player) for i in issues] == [(code, 0)]
        assert issues[0].message.startswith(text)

    def test_each_expression_text_is_parsed_once(self, monkeypatch):
        texts = ["1", "x1", "-(x2-x1)^2"]  # y < x1: irreflexive
        game = GameSpec(
            players=(
                PlayerSpec(1, ((-1.0, 1.0),), HalfspaceContour((ContourRow(texts[:1], texts[1]),))),
                PlayerSpec(1, ((-1.0, 1.0),), UtilityPreference(texts[2])),
            )
        )
        calls = []
        parse = model.parse_expression
        monkeypatch.setattr(model, "parse_expression", lambda t: calls.append(t) or parse(t))
        assert validate_spec(game) == []
        assert sorted(calls) == sorted(texts)


# --- validate_spec's probe against the per-probe loop -------------------------


def _ref_probe_outcome(game, player, row):
    """The probe's verdict on ``player`` at the profile ``row``, as
    validate_spec reached it before it evaluated each player once: one
    ``strictly_prefers`` test of the own block at that profile.  Returns
    None, or the ValidationIssue it would report there."""
    profile = split_profile(game, row)
    try:
        if strictly_prefers(game, player, profile.block(player).array, profile):
            return ValidationIssue(
                "irreflexivity",
                f"player {player} strictly prefers a point to itself "
                f"at profile {np.round(row, 6).tolist()}",
                player,
            )
    except EvaluationError as err:
        return ValidationIssue("non-finite", str(err), player)
    return None


def _ref_probes(game):
    """The probe profiles, with the guard on empty box intervals that the
    probe dropped (it runs only when every interval is nonempty)."""
    rng = np.random.default_rng(model._PROBE_SEED)
    lo, hi = game.box_lo, game.box_hi
    width = np.where(hi > lo, hi - lo, 1.0)
    return rng.uniform(0.0, 1.0, size=(model._PROBE_COUNT, game.total_dim)) * width + lo


def _ref_probe_issues(game):
    """The probe issues of a structurally sound game, by the per-probe loop:
    each utility or contour player's first failing probe, in probe order."""
    issues = []
    for player, spec in enumerate(game.players):
        if isinstance(spec.preference, (UtilityPreference, HalfspaceContour)):
            for row in _ref_probes(game):
                issue = _ref_probe_outcome(game, player, row)
                if issue is not None:
                    issues.append(issue)
                    break
    return issues


_PROBE_BOX = (-2.0, 2.0)
_SQRT_MAX = 1.3407807929942596e154  # a square above this overflows


def _non_finite_beyond(var, threshold, factor):
    """A term that is non-finite where |var| exceeds ``threshold``: nan
    (0 * inf) for factor 0, else +inf; below it, zero or a tiny positive."""
    return f"{factor!r}*({_SQRT_MAX / threshold!r}*{var})^2"


def _probe_game(seed):
    """A seeded structurally sound game for the probe: 2-3 players with 1-D or
    2-D blocks on [-2, 2], each a utility, rival-dependent contour rows, a
    coordinate order or trivial.  Expressions may turn nan or +inf beyond a
    random threshold of some coordinate, contour rows may hold the own block
    strictly inside beyond a threshold of a rival, and one expression in
    eight has a constant subexpression that raises (1/0 or 1e200^2)."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 3, size=int(rng.integers(2, 4)))]
    n = sum(dims)
    names = [f"x{j + 1}" for j in range(n)]

    def num():
        return repr(float(np.round(rng.uniform(-1.5, 1.5), 3)))

    def extras(rival):
        terms = ""
        if rng.uniform() < 0.4:
            var, threshold = names[rng.integers(n)], float(rng.uniform(0.5, 2.6))
            terms += " + " + _non_finite_beyond(var, threshold, float(rng.choice([0.0, 1e-320])))
        if rng.uniform() < 0.125:
            terms += " + " + str(rng.choice(["x1*(1/0)", "(1e200)^2", "0*(0.0^-1)"]))
        return terms

    players, start = [], 0
    for dim in dims:
        own = names[start : start + dim]
        rivals = names[:start] + names[start + dim :]
        start += dim
        kind = rng.choice(["utility", "contour", "contour", "order", "trivial"])
        rival, other = (rivals[rng.integers(len(rivals))] for _ in range(2))
        if kind == "utility":
            terms = " + ".join(f"-({y} - {num()})^2 + {num()}*{y}*{rival}" for y in own)
            pref = UtilityPreference(terms + extras(rival))
        elif kind == "contour":
            rows = []
            for _ in range(int(rng.integers(1, 3))):
                coeffs = [f"({num()} + {num()}*{rival})" for _ in own]
                at_own = " + ".join(f"{c}*{y}" for c, y in zip(coeffs, own))
                # s (other - t) > 0 puts the own block strictly inside the row.
                lift = "0" if rng.uniform() < 0.25 else f"{num()}*({other} - {num()})"
                rows.append(ContourRow(coeffs, f"{at_own} + {lift}{extras(rival)}"))
            pref = HalfspaceContour(tuple(rows))
        elif kind == "order":
            pref = CoordinateOrder()
        else:
            pref = TrivialZero()
        players.append(PlayerSpec(dim, (_PROBE_BOX,) * dim, pref))
    return GameSpec(tuple(players))


class TestValidateProbe:
    """validate_spec evaluates each player once at all probes; its issues
    equal those of the per-probe loop it replaced."""

    GAMES = range(300)

    def test_issues_equal_the_per_probe_loop(self):
        for seed in self.GAMES:
            game = _probe_game(seed)
            assert validate_spec(game) == _ref_probe_issues(game), seed

    def test_the_games_cover_every_outcome(self):
        """The seeded games reach every outcome the probe can report, with
        1-D and 2-D blocks, and both orders of a non-finite and an
        irreflexive probe of one player."""
        seen = set()
        for seed in self.GAMES:
            game = _probe_game(seed)
            probes = _ref_probes(game)
            for player, spec in enumerate(game.players):
                pref = spec.preference
                if not isinstance(pref, (UtilityPreference, HalfspaceContour)):
                    continue
                codes = [
                    getattr(_ref_probe_outcome(game, player, row), "code", None)
                    for row in probes
                ]
                kind = type(pref).__name__
                seen.update((kind, spec.dim, code) for code in codes)
                issue = next((i for i in validate_spec(game) if i.player == player), None)
                if issue is not None and "expression is not finite" in issue.message:
                    seen.add((kind, "constant"))
                if isinstance(pref, HalfspaceContour) and _inside_where_non_finite(
                    game, player, probes
                ):
                    seen.add(("order", "one probe"))
                if "non-finite" in codes and "irreflexivity" in codes:
                    first = codes.index("non-finite") < codes.index("irreflexivity")
                    seen.add(("order", "non-finite first" if first else "irreflexive first"))
        for dim in (1, 2):
            for code in (None, "non-finite"):
                assert ("UtilityPreference", dim, code) in seen
            for code in (None, "non-finite", "irreflexivity"):
                assert ("HalfspaceContour", dim, code) in seen
        assert ("UtilityPreference", "constant") in seen
        assert ("HalfspaceContour", "constant") in seen
        assert ("order", "non-finite first") in seen
        assert ("order", "irreflexive first") in seen
        assert ("order", "one probe") in seen


def _inside_where_non_finite(game, player, probes):
    """Whether some probe has a non-finite contour row while its own block
    satisfies every row (a +inf offset): the probe that must report the
    non-finite value, not the irreflexivity."""
    sl = game.own_slice(player)
    rows = game.players[player].preference.rows
    for row in probes:
        try:
            values = np.array([[f(row[None, :])[0] for f in r.fns] for r in rows])
        except EvaluationError:  # a constant subexpression raises everywhere
            return False
        a, b = values[:, :-1], values[:, -1]
        with np.errstate(all="ignore"):
            if not np.isfinite(values).all() and (a @ row[sl] < b).all():
                return True
    return False


class TestLinprog:
    """``model.linprog``: one in-house simplex for every LP, never
    scipy.optimize; HiGHS stays the reference, held to 1e-9."""

    def test_regions_with_more_rows_match_highs(self, highs_calls):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(300):
            dim, rows = int(rng.integers(1, 4)), int(rng.integers(5, 9))
            lo = rng.uniform(-1.0, 0.0, dim)
            hi = lo + rng.uniform(0.2, 1.5, dim)
            normals = rng.normal(size=(rows, dim))
            centre = rng.uniform(lo, hi)
            offsets = normals @ centre + rng.uniform(-0.02, 0.5, rows)
            region = FeasibleRegion(lo, hi, normals, offsets)
            c = rng.normal(size=dim)
            reference = linprog(
                c, A_ub=normals, b_ub=offsets, bounds=list(zip(lo, hi)), method="highs"
            )
            y = region.linear_min(c)
            assert (y is None) == (reference.status != 0)
            if y is not None:
                assert region.contains(y)
                assert float(c @ y) == pytest.approx(reference.fun, abs=1e-9)
                solved += 1
        assert solved >= 250
        assert highs_calls == []

    @pytest.mark.parametrize("dim, rows", [(1, 600), (3, 200), (4, 30)])
    def test_many_rows_and_coordinates_are_solved_in_house(self, highs_calls, dim, rows):
        rng = np.random.default_rng(32)
        lo, hi = -np.ones(dim), np.ones(dim)
        normals = rng.normal(size=(rows, dim))
        offsets = normals @ rng.uniform(-0.5, 0.5, dim) + rng.uniform(0.0, 0.5, rows)
        region = FeasibleRegion(lo, hi, normals, offsets)
        c = rng.normal(size=dim)
        want = linprog(c, A_ub=normals, b_ub=offsets, bounds=list(zip(lo, hi)), method="highs")
        assert want.status == 0
        got = region.linear_min(c)
        assert region.contains(got)
        assert float(c @ got) == pytest.approx(want.fun, abs=1e-9)
        assert highs_calls == []

    def test_five_thousand_rows_fit_in_small_memory(self):
        """The tableau is (m + 1) x (2n + 2): no basis enumeration and no
        m x m block, so 5,000 rows in 3 coordinates peak well under 4 MB."""
        import tracemalloc

        rng = np.random.default_rng(34)
        normals = rng.normal(size=(5000, 3))
        offsets = normals @ rng.uniform(-0.5, 0.5, 3) + rng.uniform(0.0, 0.5, 5000)
        region = FeasibleRegion(-np.ones(3), np.ones(3), normals, offsets)
        c = rng.normal(size=3)
        tracemalloc.start()
        try:
            got = region.linear_min(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        want = linprog(c, A_ub=normals, b_ub=offsets, bounds=[(-1.0, 1.0)] * 3, method="highs")
        assert region.contains(got)
        assert float(c @ got) == pytest.approx(want.fun, abs=1e-9)

    def test_badly_scaled_rows_give_contained_points(self):
        """Rows scaled by 1e-6..1e6 on 2-4 coordinates: every point returned
        passes ``contains_many``, and the status is HiGHS's wherever HiGHS
        says infeasible or its point passes that test (it fails it on 3 of
        these 1,000 LPs).  The objectives are not compared: a row of tiny
        coefficients tolerates points far from its hyperplane, and HiGHS's
        point may use that room."""
        returned = 0
        for seed in range(2):
            rng = np.random.default_rng([35, seed])
            for _ in range(500):
                dim, rows = int(rng.integers(2, 5)), int(rng.integers(1, 31))
                lo = rng.uniform(-1.0, 0.5, dim)
                hi = lo + rng.uniform(0.0, 1.5, dim)
                normals = rng.normal(size=(rows, dim))
                offsets = normals @ rng.uniform(lo, hi) + rng.uniform(-0.1, 0.6, rows)
                scale = 10.0 ** rng.uniform(-6.0, 6.0, rows)
                region = FeasibleRegion(lo, hi, normals * scale[:, None], offsets * scale)
                got = region.linear_min(rng.normal(size=dim))
                want = linprog(np.zeros(dim), A_ub=region.normals, b_ub=region.offsets,
                               bounds=list(zip(lo, hi)), method="highs")
                if got is not None:
                    returned += 1
                    assert region.contains_many(got)[0]
                if want.status != 0 or region.contains_many(want.x)[0]:
                    assert (got is None) == (want.status != 0)
        assert returned >= 500

    def test_a_region_empty_within_the_tolerance_keeps_its_relaxation(self):
        # The rows y1 >= 4e-10 and y1 <= -2e-10 miss each other by 6e-10 on
        # a flat box: Phase I ends with x0 basic at 4e-10.  Phase II works on
        # the rows relaxed by that much, so the minimizer it re-solves is
        # (0, 0.5) up to rounding, contained like the vertex formula's.
        # Dropping x0 at 0 instead ends at the unrelaxed vertex y1 = 4e-10,
        # which the second row's tolerance excludes.
        region = FeasibleRegion(
            np.array([0.0, 0.5]), np.array([0.5, 0.5]),
            np.array([[-1.0, 0.0], [2.0, 0.0]]), np.array([-4e-10, -4e-10]),
        )
        c = np.array([2.0, 1.0])
        y = region.linear_min(c)
        assert region.contains(y)
        assert ref_dot(c, y) == pytest.approx(ref_dot(c, formula_linear_min(region, c)), abs=1e-12)

    def test_bounds_take_the_absolute_tolerance(self, highs_calls):
        # The rows x <= 1e6 + 1e-4 and y <= 1e6 + 1e-4 meet 1e-4 beyond the
        # box: within _FEAS_TOL of them relative to their offsets, but outside
        # the absolute _FEAS_TOL of the box that contains_many applies.
        hi = np.array([1e6, 1e6])
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        offsets = np.array([1e6 + 1e-4, 1e6 + 1e-4, 3e6, 1.0, 1.0])
        region = FeasibleRegion(np.zeros(2), hi, normals, offsets)
        y = region.linear_min(np.array([-1.0, -1.0]))
        assert highs_calls == []
        assert region.contains(y)
        np.testing.assert_array_equal(y, hi)

    @pytest.mark.parametrize(
        "c, bounds",
        [
            ([np.nan], [(0.0, 1.0)]),
            ([np.inf], [(0.0, 1.0)]),
            ([1.0], [(0.0, np.inf)]),
            ([1.0], [(np.nan, 1.0)]),
        ],
    )
    def test_non_finite_input_raises(self, c, bounds):
        with pytest.raises(ValueError):
            model.linprog(np.array(c), np.array([[1.0]]), np.array([1.0]), bounds)

    @pytest.mark.parametrize(
        "a_ub, b_ub",
        [
            ([[-1.0]], [0.5]),  # -y <= 0.5, minimize -y: unbounded
            ([[1.0], [-1.0]], [0.5, -1.0]),  # y <= 0.5 and y >= 1: infeasible
        ],
    )
    def test_unbounded_and_infeasible_give_none(self, highs_calls, a_ub, b_ub):
        assert model.linprog(np.array([-1.0]), np.array(a_ub), np.array(b_ub), [(None, None)]) is None
        assert highs_calls == []

    def test_bounded_lp_is_solved_in_house(self, highs_calls):
        y = model.linprog(np.array([-1.0, -2.0]), np.array([[1.0, 1.0]]), np.array([1.5]),
                          [(0.0, 1.0), (0.0, 1.0)])
        np.testing.assert_array_equal(y, [0.5, 1.0])
        assert highs_calls == []
