"""Expression grammar: parsing, compiled evaluation, and error positions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordnash.errors import EvaluationError, ExpressionError
from ordnash.expressions import (
    MAX_DEPTH,
    ColumnView,
    Literal,
    Mul,
    Negate,
    Power,
    Sub,
    Variable,
    compile_expression,
    parse_expression,
)
from ordnash.model import (
    ContourRow,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    UtilityPreference,
    evaluate_contour_rows,
    split_profile,
)


def _eval(text, values):
    return float(compile_expression(parse_expression(text))(np.asarray(values, dtype=float)))


class TestParsing:
    def test_literal(self):
        assert parse_expression("3.5") == Literal(3.5)

    def test_scientific_notation(self):
        assert _eval("1e-3", [0.0]) == 1e-3
        assert _eval("2.5E+2", [0.0]) == 250.0

    def test_variable_is_one_based(self):
        assert parse_expression("x1") == Variable(0)
        assert parse_expression("x12") == Variable(11)

    def test_precedence_mul_before_add(self):
        assert _eval("2+3*4", [0.0]) == 14.0

    def test_precedence_power_before_mul(self):
        assert _eval("2*3^2", [0.0]) == 18.0

    def test_unary_minus_binds_below_power(self):
        # -x1^2 is -(x1^2), not (-x1)^2.
        assert _eval("-x1^2", [3.0]) == -9.0

    def test_negative_exponent(self):
        assert _eval("2^-2", [0.0]) == 0.25

    def test_parentheses(self):
        assert _eval("(2+3)*4", [0.0]) == 20.0

    def test_nested_structure(self):
        expr = parse_expression("-(x1-0.5*x2)^2")
        expected = Negate(Power(Sub(Variable(0), Mul(Literal(0.5), Variable(1))), 2))
        assert expr == expected
        fn = compile_expression(expr)
        assert float(fn(np.array([1.0, 0.0]))) == -1.0
        assert float(fn(np.array([0.0, 0.0]))) == 0.0

    def test_variables_collected(self):
        assert parse_expression("x1*x3+2").variables() == frozenset({0, 2})


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "   ", "1 +", "(1", "x0", "2^x1", "2^1.5", "1 2", "*3", "1e999", "x1*2e400"],
    )
    def test_rejects(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_unknown_character_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + $")
        assert "position 4" in str(err.value)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * 5000 + "x1" + ")" * 5000, MAX_DEPTH),
            ("+".join(["x1"] * 20_000), 3 * MAX_DEPTH - 1),
            ("-" * 5000 + "x1", MAX_DEPTH),
            ("x1" + "^1" * 500, 2 + 2 * (MAX_DEPTH - 1)),
        ],
    )
    def test_depth_cap_reports_position(self, text, position):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.position == position
        assert f"deeper than {MAX_DEPTH} levels" in str(err.value)

    def test_depth_at_the_cap_compiles(self):
        values = np.ones((3, 1))
        flat = parse_expression("+".join(["x1"] * MAX_DEPTH))
        np.testing.assert_array_equal(compile_expression(flat)(values), [float(MAX_DEPTH)] * 3)
        nested = parse_expression("-" * (MAX_DEPTH - 1) + "x1")
        assert compile_expression(nested)(values)[0] == -1.0
        wrapped = parse_expression("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH)
        assert wrapped == Variable(0)

    def test_trailing_input_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + 2 )")
        assert "position 6" in str(err.value)


# Each case with its tree written out by hand as numpy arithmetic on the
# columns x1, x2 (constant subexpressions folded by hand, as Python would).
_CASES = {
    "x1": lambda x1, x2: x1,
    "-(x1-0.5*x2)^2": lambda x1, x2: -((x1 - 0.5 * x2) ** 2),
    "x1*x2 - x2^3 + 1.5": lambda x1, x2: x1 * x2 - x2**3 + 1.5,
    "(x1+x2)/(x2+2.0)": lambda x1, x2: (x1 + x2) / (x2 + 2.0),
    "2^-2 * x1 + x2^2": lambda x1, x2: 0.25 * x1 + x2**2,
    "-(x1--0.25)^2 - (x2-0.5)^2": lambda x1, x2: -((x1 - -0.25) ** 2) - (x2 - 0.5) ** 2,
}

_FLOAT_ERRORS = {
    "x1/0": lambda x1, x2: x1 / 0.0,
    "x1^400": lambda x1, x2: x1**400,
    "(x1-x1)/(x2-x2)": lambda x1, x2: (x1 - x1) / (x2 - x2),
    "x1*1e300*1e300": lambda x1, x2: x1 * 1e300 * 1e300,
}


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestCompilation:
    @pytest.mark.parametrize("text", list(_CASES))
    def test_compiled_matches_tree_walk(self, text):
        """The compiled function equals the tree walked by hand, bit for bit."""
        fn = compile_expression(parse_expression(text))
        batch = np.random.default_rng(0).uniform(-1.5, 1.5, size=(64, 2))
        want = _CASES[text](batch[:, 0], batch[:, 1])
        np.testing.assert_array_equal(_bits(fn(batch)), _bits(want))

    @pytest.mark.parametrize("text", ["(0.0)/(0.0)", "x1+1/0", "(10.0)^400"])
    def test_non_finite_constants_raise_evaluation_error(self, text):
        # Constant subexpressions are Python floats, which raise where numpy gives nan/inf.
        with pytest.raises(EvaluationError, match="expression is not finite"):
            compile_expression(parse_expression(text))(np.zeros((2, 1)))

    @pytest.mark.parametrize("text", list(_FLOAT_ERRORS))
    def test_float_errors_are_silent_on_both_routes(self, text):
        """On arrays, inf and nan come out silently and as numpy gives them."""
        batch = np.array([[10.0, 1.0], [0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = compile_expression(parse_expression(text))(batch)
        with np.errstate(all="ignore"):
            want = _FLOAT_ERRORS[text](batch[:, 0], batch[:, 1])
        assert not np.isfinite(want).all()
        np.testing.assert_array_equal(_bits(fast), _bits(want))

    @pytest.mark.parametrize("text", [*_CASES, "1.5", "x2^3 - x2"])
    def test_column_view_matches_the_array_bit_for_bit(self, text):
        fn = compile_expression(parse_expression(text))
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1.5, 1.5, (9, 1))
        x2 = rng.uniform(-1.5, 1.5, (1,))
        view = ColumnView([x1, x2])
        assert view.shape == (9, 1, 2)
        batch = np.stack(np.broadcast_arrays(x1, x2), axis=-1)
        got, want = fn(view), fn(batch)
        assert got.shape == want.shape == (9, 1)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_column_view_refuses_other_indexing(self):
        with pytest.raises(TypeError):
            ColumnView([np.zeros(3)])[0]

    def test_compiled_constant_broadcast(self):
        fn = compile_expression(parse_expression("2.5"))
        out = fn(np.zeros((7, 3)))
        assert isinstance(out, np.ndarray)
        assert (out.shape, out.dtype) == ((7,), np.float64)
        assert (out == 2.5).all()
        assert fn(ColumnView([np.zeros((4, 1)), np.zeros(5)])).shape == (4, 5)

    @pytest.mark.parametrize("values", [np.zeros((6, 2)), np.zeros((3, 4, 2)), np.zeros(2)])
    @pytest.mark.parametrize("text", ["x1", "x2^2", "1.5", "(2.0)^-3"])
    def test_result_is_float64_shaped_like_the_batch(self, text, values):
        out = compile_expression(parse_expression(text))(values)
        assert isinstance(out, np.ndarray)
        assert (out.shape, out.dtype) == (values.shape[:-1], np.float64)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_affine_identity(self, coeffs, a, b):
        a_c, b_c = coeffs
        text = f"{a_c!r}*x1 + {b_c!r}*x2"
        got = _eval(text, [a, b])
        assert got == pytest.approx(a_c * a + b_c * b, rel=1e-12, abs=1e-12)


class TestOneRoute:
    """Contour rows and utilities are evaluated by the same compiled route."""

    @pytest.mark.parametrize("text", ["(0.825)^-3*x1", "x1*x2 - (1.1)^7*x2^3", "(x1+0.3)/(2.0)^5"])
    def test_contour_coefficient_equals_utility_bit_for_bit(self, text):
        box = ((-2.0, 2.0),)
        game = GameSpec(
            players=(
                PlayerSpec(1, box, HalfspaceContour((ContourRow((text,), text),))),
                PlayerSpec(1, box, UtilityPreference(text)),
            )
        )
        points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(64, 2))
        rows = [evaluate_contour_rows(game, 0, split_profile(game, p)) for p in points]
        utility = game.players[1].preference.fn(points)
        np.testing.assert_array_equal(_bits([a[0, 0] for a, _ in rows]), _bits(utility))
        np.testing.assert_array_equal(_bits([b[0] for _, b in rows]), _bits(utility))
