"""Command-line interface: report shape, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from conftest import shared_three_player_game
import ordnash
from ordnash import __version__, cli, solver
from ordnash.cli import main
from ordnash.corpus import EXAMPLES
from ordnash.gamefile import dumps_game, game_digest, load_game
from ordnash.model import ContourRow, GameSpec, HalfspaceContour, PlayerSpec, UtilityPreference

REPORT_KEYS = [
    "command",
    "arguments",
    "version",
    "seed",
    "game_digest",
    "solution",
    "certificates",
    "warnings",
    "error",
    "exit_code",
    "wall_time_s",
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def coordinate_file(tmp_path):
    path = tmp_path / "coordinate.json"
    path.write_text(dumps_game(EXAMPLES["coordinate-pref"]()))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(dumps_game(EXAMPLES["trivial-pref"]()))
    return str(path)


def _report(result):
    assert result.stdout, f"no stdout; stderr: {result.stderr}"
    return json.loads(result.stdout)


def _strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if '"wall_time_s"' not in line
    )


class TestSolveCommand:
    def test_coordinate_game_exit_zero(self, runner, coordinate_file):
        result = runner.invoke(main, ["solve", coordinate_file])
        assert result.exit_code == 0
        report = _report(result)
        assert list(report) == REPORT_KEYS
        assert report["command"] == "solve"
        assert report["version"] == __version__
        assert report["error"] is None
        assert report["exit_code"] == 0
        point = report["solution"]["point"]
        assert point == pytest.approx([1.0, 1.0], abs=1e-8)
        assert report["solution"]["converged"] is True
        assert report["certificates"][0]["kind"] == "gne-grid"
        assert report["certificates"][0]["passed"] is True
        assert report["game_digest"] == game_digest(EXAMPLES["coordinate-pref"]())

    def test_solution_payload_shape(self, runner, coordinate_file):
        report = _report(runner.invoke(main, ["solve", coordinate_file]))
        solution = report["solution"]
        assert set(solution) == {
            "point",
            "operator_value",
            "provenance",
            "residual",
            "iters",
            "converged",
            "restart",
        }
        assert solution["operator_value"][0] == {"player": 0, "vector": [-1.0]}
        assert solution["provenance"] == ["polyhedral", "polyhedral"]

    def test_trivial_game_warns_degenerate(self, runner, trivial_file):
        result = runner.invoke(main, ["solve", trivial_file])
        assert result.exit_code == 0
        report = _report(result)
        assert report["warnings"] == ["degenerate: empty strict preference"]
        assert report["solution"]["residual"] == 0.0

    def test_arguments_echoed(self, runner, coordinate_file):
        report = _report(
            runner.invoke(
                main, ["solve", coordinate_file, "--restarts", "2", "--grid", "0.1"]
            )
        )
        assert report["arguments"]["restarts"] == 2
        assert report["arguments"]["grid"] == 0.1
        assert report["arguments"]["step"] == 0.1
        assert report["arguments"]["tol"] == 1e-8
        assert report["arguments"]["max_iters"] == 10_000
        assert report["seed"] == 42

    def test_out_file_matches_stdout_modulo_wall_time(
        self, runner, coordinate_file, tmp_path
    ):
        out = tmp_path / "report.json"
        direct = runner.invoke(main, ["solve", coordinate_file, "--restarts", "2"])
        to_file = runner.invoke(
            main,
            ["solve", coordinate_file, "--restarts", "2", "--out", str(out)],
        )
        assert to_file.exit_code == 0
        assert to_file.stdout == ""
        assert _strip_wall_time(out.read_text()) == _strip_wall_time(direct.stdout)

    @pytest.mark.parametrize(
        "name, max_iters, exit_code",
        [
            ("arrow-debreu", "2", 0),
            ("arrow-debreu", "3", 0),
            ("shared-3", "2", 2),
            ("shared-3", "3", 2),
        ],
    )
    def test_short_shared_solve_reports_a_feasible_point(
        self, runner, tmp_path, name, max_iters, exit_code
    ):
        """A solve stopped after a few iterations keeps every shared row.  The
        Arrow-Debreu example converges by the joint step of iteration 1 (exit
        0); the three-player game of two shared rows is not yet converged
        (exit 2)."""
        path = tmp_path / "game.json"
        if name == "arrow-debreu":
            runner.invoke(main, ["examples", "--name", name, "--dump", str(path)])
        else:
            path.write_text(dumps_game(shared_three_player_game()))
        result = runner.invoke(
            main, ["solve", str(path), "--restarts", "1", "--max-iters", max_iters]
        )
        report = _report(result)
        assert result.exit_code == report["exit_code"] == exit_code
        assert report["error"] is None
        assert report["solution"]["converged"] is (exit_code == 0)
        point = report["solution"]["point"]
        shared = load_game(path).constraints
        for row, bound in zip(shared.a, shared.b):
            assert sum(a * x for a, x in zip(row, point)) <= bound + 1e-9

    def test_grid_over_budget_is_refused_before_solving(self, runner, tmp_path, monkeypatch):
        """A certificate grid over the point budget ends the run in the exit-1
        report before the solver starts, instead of after every restart ran."""
        game = GameSpec(
            (
                PlayerSpec(
                    1, ((0.0, 1e10),), HalfspaceContour((ContourRow(("1",), "0"),))
                ),
                PlayerSpec(1, ((0.0, 1.0),), UtilityPreference("-(x2-0.5)^2")),
            )
        )
        path = tmp_path / "wide.json"
        path.write_text(dumps_game(game))

        def refuse(game, cfg):
            raise AssertionError("solve_svip must not run")

        monkeypatch.setattr(cli, "solve_svip", refuse)
        result = runner.invoke(main, ["solve", str(path), "--max-iters", "200"])
        report = _report(result)
        assert result.exit_code == report["exit_code"] == 1
        assert report["error"] == "player grid would have 2e+11 points, budget is 10000000"
        assert report["solution"] is None and report["certificates"] == []

    @pytest.mark.parametrize(
        "message, error",
        [
            ("Unable to allocate 745. GiB", "out of memory: Unable to allocate 745. GiB"),
            ("", "out of memory"),
        ],
    )
    def test_out_of_memory_exit_one_with_report(
        self, runner, coordinate_file, monkeypatch, message, error
    ):
        # A huge --restarts runs out of memory in the Halton starting points.
        def refuse(game, cfg):
            raise MemoryError(message)

        monkeypatch.setattr(solver, "_starting_points", refuse)
        result = runner.invoke(main, ["solve", coordinate_file, "--restarts", "100000000000"])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert report["error"] == error
        assert report["arguments"]["restarts"] == 100000000000

    def test_malformed_file_exit_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["solve", str(bad), "--out", str(out)])
        assert result.exit_code == 1
        report = json.loads(out.read_text())
        assert report["exit_code"] == 1
        assert "invalid problem file" in report["error"]
        assert report["certificates"] == []
        assert report["solution"] is None
        assert "invalid problem file" in result.stderr

    def test_invalid_game_exit_one(self, runner, tmp_path):
        path = tmp_path / "invalid.json"
        text = dumps_game(EXAMPLES["coordinate-pref"]()).replace(
            "CoordinateOrder", "Utility"
        )
        path.write_text(text)
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "expr",
        ["(" * 5000 + "x1" + ")" * 5000, "+".join(["x1"] * 20_000)],
        ids=["nested-parentheses", "flat-sum"],
    )
    def test_deep_expression_exit_one_with_report(self, runner, tmp_path, expr):
        game = json.loads(dumps_game(EXAMPLES["coordinate-pref"]()))
        game["players"][0]["preference"] = {"type": "Utility", "expr": expr}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(game))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert "nests deeper than" in report["error"]
        assert "at position" in report["error"]

    def test_ragged_constraint_rows_exit_one_with_report(self, runner, tmp_path):
        game = json.loads(dumps_game(EXAMPLES["arrow-debreu"]()))
        game["constraints"] = {"type": "SharedLinear", "a": [[1, 1], [1]], "b": [1, 1]}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(game))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert "unequal lengths" in report["error"]

    def test_bad_solver_flag_exit_one(self, runner, coordinate_file):
        result = runner.invoke(main, ["solve", coordinate_file, "--step", "0"])
        assert result.exit_code == 1
        report = _report(result)
        assert "invalid solver options" in report["error"]

    def test_missing_file_exit_one(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", str(tmp_path / "nope.json")])
        assert result.exit_code == 1


class TestVerifyCommand:
    def test_equilibrium_point_passes(self, runner, coordinate_file):
        result = runner.invoke(
            main, ["verify", coordinate_file, "--point", "1,1"]
        )
        assert result.exit_code == 0
        report = _report(result)
        assert report["certificates"][0]["passed"] is True
        assert report["seed"] is None

    def test_non_equilibrium_fails_with_witness(self, runner, coordinate_file):
        result = runner.invoke(
            main, ["verify", coordinate_file, "--point", "0,0", "--grid", "0.1"]
        )
        assert result.exit_code == 2
        report = _report(result)
        cert = report["certificates"][0]
        assert cert["passed"] is False
        player, deviation = cert["witness"]
        assert player == 0
        assert deviation[0] == pytest.approx(0.1, abs=1e-9)

    def test_infeasible_point_exit_one(self, runner, coordinate_file):
        result = runner.invoke(
            main, ["verify", coordinate_file, "--point", "2,0"]
        )
        assert result.exit_code == 1
        assert "feasible" in _report(result)["error"]

    def test_unparseable_point_exit_one(self, runner, coordinate_file):
        result = runner.invoke(
            main, ["verify", coordinate_file, "--point", "a,b"]
        )
        assert result.exit_code == 1
        assert "cannot parse --point" in _report(result)["error"]


class TestHostileInputs:
    """Inputs that used to end in a traceback with empty stdout."""

    @staticmethod
    def _file(tmp_path, expr="-(x1-0.5)^2", box=(0.0, 1.0)):
        game = {
            "players": [{"dim": 1, "box": [list(box)], "preference": {"type": "Utility", "expr": expr}}],
            "constraints": {"type": "BoxOnly"},
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        return str(path)

    @pytest.mark.parametrize("args", [["solve"], ["verify", "--point", "0.5"]])
    def test_box_width_overflow_exit_one_with_report(self, runner, tmp_path, args):
        path = self._file(tmp_path, box=(-1e308, 1e308))
        result = runner.invoke(main, [args[0], path, *args[1:]])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert "box-width" in report["error"]

    def test_integer_too_large_for_a_float_exit_one_with_report(self, runner, tmp_path):
        game = {
            "players": [{"dim": 1, "box": [[0, 10**400]], "preference": {"type": "TrivialZero"}}],
            "constraints": {"type": "SharedLinear", "a": [[1]], "b": [10**400]},
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        report = json.loads(result.stdout)  # exactly one JSON document
        assert report["exit_code"] == 1
        assert "too large to convert to float" in report["error"]

    @pytest.mark.parametrize(
        "player, message",
        [
            ({"dim": int("9" * 401)}, "player 0: box has 1 intervals but dim is a 401-digit integer"),
            (
                {"preference": {"type": "HalfspaceContour", "rows": [{"coeffs": ["9" * 401], "offset": "0"}]}},
                "contour row 0: number overflows a float: a 401-digit integer",
            ),
            ({"preference": {"type": "Utility", "expr": "1" + "0" * 400 + ".5*x1"}}, "overflows a float: a 402-digit number"),
            ({"preference": {"type": "Utility", "expr": "x" + "9" * 401}}, "variable index is a 401-digit integer"),
            ({"preference": {"type": "Utility", "expr": "x1^" + "9" * 5000}}, "exponent is a 5000-digit integer"),
        ],
        ids=["dim", "coefficient", "float-literal", "variable-index", "exponent"],
    )
    def test_oversized_integers_named_by_digit_count(self, runner, tmp_path, player, message):
        spec = {"dim": 1, "box": [[0.0, 1.0]], "preference": {"type": "TrivialZero"}, **player}
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"players": [spec], "constraints": {"type": "BoxOnly"}}))
        result = runner.invoke(main, ["verify", str(path), "--point", "0.5"])
        assert result.exit_code == 1
        error = _report(result)["error"]
        assert message in error and len(error) < 200

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"players": [{"dim": ' + "9" * 5000 + "}]}", "an integer has too many digits"),
            ("[" * 100_000, "nest too deeply"),
        ],
        ids=["5000-digit-integer", "deep-nesting"],
    )
    def test_json_beyond_the_parser_limits_exit_one_with_report(self, runner, tmp_path, text, message):
        path = tmp_path / "game.json"
        path.write_text(text)
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        assert message in _report(result)["error"]

    @pytest.mark.parametrize(
        "expr, message",
        [("1e999*x1", "overflows a float"), ("((0.0)/(0.0))", "not finite"), ("(10.0)^400", "not finite")],
    )
    def test_unrepresentable_constants_exit_one_with_report(self, runner, tmp_path, expr, message):
        result = runner.invoke(main, ["solve", self._file(tmp_path, expr=expr)])
        assert result.exit_code == 1
        assert message in _report(result)["error"]

    @pytest.mark.parametrize("expr", ["x1/0", "x1^400"])
    @pytest.mark.parametrize("args", [["solve"], ["verify", "--point", "1"]])
    def test_non_finite_utility_reported_without_runtime_warning(self, runner, tmp_path, args, expr):
        path = self._file(tmp_path, expr=expr, box=(0.0, 10.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [args[0], path, *args[1:]])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert "non-finite" in report["error"]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in result.stderr

    def test_huge_step_on_a_huge_box_reports_without_runtime_warning(self, runner, tmp_path):
        # The step targets and residual squares overflow to inf; the targets
        # clip to the box and the residuals fail the tolerance.
        game = {
            "players": [
                {"dim": 1, "box": [[0.0, 1.7e308]], "preference": {"type": "CoordinateOrder"}},
                {"dim": 1, "box": [[0.0, 1.0]], "preference": {"type": "CoordinateOrder"}},
            ],
            "constraints": {"type": "BoxOnly"},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(game))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(
                main, ["solve", str(path), "--step", "1e308", "--grid", "1e307"]
            )
        report = json.loads(result.stdout)  # exactly one JSON document
        assert result.exit_code == report["exit_code"] == 0
        assert report["solution"]["point"] == [1.7e308, 1.0]

    def test_constant_utility_is_solved(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", self._file(tmp_path, expr="1"), "--restarts", "1"])
        report = _report(result)
        assert report["exit_code"] == result.exit_code
        assert report["solution"]["provenance"] == ["full-space"]

    @pytest.mark.parametrize("grid", ["0", "-1", "nan", "inf", "1e-9"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_bad_grid_exit_one_with_report(self, runner, tmp_path, command, grid):
        args = [command, self._file(tmp_path), "--grid", grid]
        if command == "verify":
            args += ["--point", "0.5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert _report(result)["exit_code"] == 1

    def test_huge_grid_count_is_reported_briefly(self, runner, coordinate_file):
        # 2e300 grid points: the refusal names the count, not its 301 digits.
        result = runner.invoke(
            main, ["verify", coordinate_file, "--point", "0.3,0.7", "--grid", "1e-300"]
        )
        assert result.exit_code == 1
        report = json.loads(result.stdout)  # exactly one JSON document
        assert report["exit_code"] == 1
        assert "2e+300 points" in report["error"]
        assert len(report["error"]) < 200

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
    def test_non_finite_point_exit_one_with_report(self, runner, tmp_path, point):
        result = runner.invoke(main, ["verify", self._file(tmp_path), "--point", point])
        assert result.exit_code == 1
        assert "must be finite" in _report(result)["error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "FILE"],
            ["theorems", "--suite", "existence"],
            ["examples", "--name", "quadratic", "--run"],
        ],
        ids=["solve", "theorems", "examples"],
    )
    def test_negative_seed_exit_one_with_report(self, runner, tmp_path, args):
        args = [self._file(tmp_path) if a == "FILE" else a for a in args]
        result = runner.invoke(main, [*args, "--seed", "-1"])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert report["error"] == "--seed must be nonnegative, got -1"

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "FILE", "--restarts", "1"],
            ["verify", "FILE", "--point", "0.5"],
            ["theorems", "--suite", "existence", "--instances", "1"],
            ["examples", "--name", "lhc-remark", "--run"],
        ],
        ids=["solve", "verify", "theorems", "examples"],
    )
    def test_unwritable_out_reports_to_stdout(self, runner, tmp_path, args):
        out = tmp_path / "missing" / "report.json"
        args = [self._file(tmp_path) if a == "FILE" else a for a in args]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1
        report = _report(result)
        assert report["command"] == args[0]
        assert report["exit_code"] == 1
        assert report["error"] == f"cannot write report to {out}: No such file or directory"
        assert report["certificates"]
        assert not out.parent.exists()

    def test_unwritable_dump_exit_one_with_report(self, runner, tmp_path):
        dump = tmp_path / "missing" / "game.json"
        result = runner.invoke(main, ["examples", "--name", "quadratic", "--dump", str(dump)])
        assert result.exit_code == 1
        report = _report(result)
        assert report["exit_code"] == 1
        assert report["error"] == f"cannot write problem file {dump}: No such file or directory"


class TestTheoremsCommand:
    def test_solver_to_grid_suite(self, runner):
        result = runner.invoke(
            main,
            ["theorems", "--suite", "t1", "--instances", "3", "--restarts", "2"],
        )
        assert result.exit_code == 0
        report = _report(result)
        assert len(report["certificates"]) == 1
        cert = report["certificates"][0]
        assert cert["kind"] == "theorem1"
        assert cert["passed"] is True
        assert "solutions checked" in cert["detail"]

    def test_grid_to_separator_suite_bundles_counterexample(self, runner):
        result = runner.invoke(
            main, ["theorems", "--suite", "t2", "--instances", "2"]
        )
        assert result.exit_code == 0
        report = _report(result)
        main_cert, counter = report["certificates"]
        assert main_cert["kind"] == "theorem2"
        assert main_cert["passed"] is True
        assert counter["expected_failure"] is True
        assert counter["passed"] is False
        assert "no_separator" in counter["detail"]

    def test_existence_suite(self, runner):
        result = runner.invoke(
            main, ["theorems", "--suite", "existence", "--instances", "3"]
        )
        assert result.exit_code == 0
        report = _report(result)
        assert "3/3 instances" in report["certificates"][0]["detail"]

    def test_instance_count_validated(self, runner):
        result = runner.invoke(
            main, ["theorems", "--suite", "t1", "--instances", "0"]
        )
        assert result.exit_code == 1
        assert "--instances" in _report(result)["error"]

    def test_unknown_suite_rejected_by_click(self, runner):
        result = runner.invoke(main, ["theorems", "--suite", "t3"])
        assert result.exit_code == 2  # click usage error, no report


class TestExamplesCommand:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_each_example_runs_clean(self, runner, name):
        result = runner.invoke(main, ["examples", "--name", name, "--run"])
        assert result.exit_code == 0, result.output
        report = _report(result)
        assert report["exit_code"] == 0
        assert report["certificates"]

    def test_trivial_pref_records_expected_failure(self, runner):
        report = _report(
            runner.invoke(main, ["examples", "--name", "trivial-pref", "--run"])
        )
        flags = [c.get("expected_failure", False) for c in report["certificates"]]
        assert flags == [False, True]
        assert report["warnings"] == ["degenerate: empty strict preference"]

    def test_dump_round_trips(self, runner, tmp_path):
        dumped = tmp_path / "quadratic.json"
        result = runner.invoke(
            main,
            ["examples", "--name", "quadratic", "--dump", str(dumped)],
        )
        assert result.exit_code == 0
        game = load_game(dumped)
        assert dumps_game(game) == dumped.read_text()
        report = _report(result)
        assert report["game_digest"] == game_digest(game)

    def test_unknown_name_rejected_by_click(self, runner):
        result = runner.invoke(main, ["examples", "--name", "mystery"])
        assert result.exit_code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "COORD", "--restarts", "4"],
            ["verify", "COORD", "--point", "0.5,0.5"],
            ["theorems", "--suite", "t2", "--instances", "2"],
            ["examples", "--name", "trivial-pref", "--run"],
        ],
    )
    def test_identical_reports_modulo_wall_time(
        self, runner, coordinate_file, args
    ):
        argv = [coordinate_file if a == "COORD" else a for a in args]
        first = runner.invoke(main, argv)
        second = runner.invoke(main, argv)
        assert first.exit_code == second.exit_code
        assert _strip_wall_time(first.stdout) == _strip_wall_time(second.stdout)


class TestArgumentsEcho:
    """``arguments`` follows the declaration order of a command's parameters,
    whatever order the flags are given in, and leaves out ``--out``."""

    @pytest.mark.parametrize(
        "name, declared, flags",
        [
            (
                "solve",
                ["file", "step", "tol", "max_iters", "restarts", "seed", "grid"],
                [["COORD"], ["--step", "0.2"], ["--tol", "1e-6"], ["--max-iters", "40"],
                 ["--restarts", "2"], ["--seed", "3"], ["--grid", "0.25"]],
            ),
            ("verify", ["file", "point", "grid"], [["COORD"], ["--point", "1,1"], ["--grid", "0.25"]]),
            (
                "theorems",
                ["suite", "instances", "step", "tol", "max_iters", "restarts", "seed", "grid"],
                [["--suite", "t1"], ["--instances", "1"], ["--step", "0.2"], ["--tol", "1e-6"],
                 ["--max-iters", "40"], ["--restarts", "1"], ["--seed", "3"], ["--grid", "0.25"]],
            ),
            (
                "examples",
                ["name", "run", "dump", "seed"],
                [["--name", "lhc-remark"], ["--run"], ["--dump", "DUMP"], ["--seed", "3"]],
            ),
        ],
        ids=["solve", "verify", "theorems", "examples"],
    )
    def test_declaration_order_whatever_the_flag_order(
        self, runner, coordinate_file, tmp_path, name, declared, flags
    ):
        values = {"COORD": coordinate_file, "DUMP": str(tmp_path / "game.json")}
        reports = []
        for order in (flags, flags[::-1]):
            argv = [name] + [values.get(a, a) for flag in order for a in flag]
            argv += ["--out", str(tmp_path / "report.json")]
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, result.output
            reports.append((tmp_path / "report.json").read_text())
        assert _strip_wall_time(reports[0]) == _strip_wall_time(reports[1])
        assert list(json.loads(reports[1])["arguments"]) == declared


def _readme_cli_lines():
    """Every ``ordnash ...`` command line of the README's CLI code block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [
        " ".join(line.split()) for line in joined.splitlines() if line.startswith("ordnash ")
    ]


class TestReadme:
    def test_cli_block_has_every_command(self):
        names = {shlex.split(line)[1] for line in _readme_cli_lines()}
        assert names == set(main.commands)

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_cli_line_resolves(self, line):
        """Parse the line against the click command tree without invoking it."""
        program, name, *args = shlex.split(line)
        assert program == "ordnash"
        parent = click.Context(main, info_name=program)
        command = main.get_command(parent, name)
        assert command is not None, f"no subcommand {name!r}"
        command.make_context(name, args, parent=parent)


class TestVersion:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    """The first LP imports scipy.optimize only when a command needs it, and
    nothing imports scipy.stats."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordnash.__file__).parents[1]))
    code = f"import sys, ordnash.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_a_solve_leaves_scipy_stats_unloaded():
    """The starting points are numpy's own Halton draws: a fresh import of
    the CLI plus one solve loads no scipy.stats."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordnash.__file__).parents[1]))
    code = (
        "import sys, ordnash.cli\n"
        "from ordnash.corpus import arrow_debreu_instance\n"
        "from ordnash.solver import solve_svip\n"
        "assert solve_svip(arrow_debreu_instance(42)).converged\n"
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Each call the verify benchmark workload makes, in a fresh interpreter: grid
# brute force on both rules and a shared mixed game, theorem 2, check_svip at
# Arrow-Debreu points, and the cone trials of the four criterion-7 families.
_VERIFIER_PATH = """
import sys
import numpy as np
import ordnash.cli
from ordnash import corpus
from ordnash.cones import cone_membership
from ordnash.model import (
    ContourRow, CoordinateOrder, GameSpec, HalfspaceContour, PlayerSpec, SharedLinear,
    UtilityPreference, sample_contour, split_profile,
)
from ordnash.solver import selection_T
from ordnash.verify import brute_force_gne, check_svip, theorem2_property

ad = corpus.arrow_debreu_instance(3)
for share in (0.2, 0.5, 0.8):
    for point in ([share, 1.0 - share], [share, 0.9 - share]):
        check_svip(ad, split_profile(ad, point), [-1.0, -1.0])
box, unit = ((-1.0, 1.0),), ((0.0, 1.0),)
halfspace = GameSpec(tuple(
    PlayerSpec(1, box, HalfspaceContour((ContourRow((f"{a}-0.5*{b}",), f"({a}-0.5*{b})*{a}"),)))
    for a, b in (("x1", "x2"), ("x2", "x1"))
))
mixed = GameSpec(
    (
        PlayerSpec(1, unit, UtilityPreference("-(x1-1.1)^2")),
        PlayerSpec(1, unit, UtilityPreference("-(x2-1.5+0.4*x3)^2")),
        PlayerSpec(1, unit, HalfspaceContour((ContourRow(("-(1+0.4*x1)",), "-(1+0.4*x1)*x3"),))),
    ),
    SharedLinear(((1.0, 1.0, 1.0),), (1.0,)),
)
tensor = corpus.random_concave_quadratic(1, players=3, nonnegative_coupling=True)
band = corpus.example_lhc_remark()[2]
for game in (corpus.example_coordinate_pref(), band, halfspace, tensor, mixed):
    assert brute_force_gne(game, 0.05)
theorem2_property([corpus.monotone_concave_instance(1)], 0.05)
two_block = GameSpec((PlayerSpec(2, box * 2, CoordinateOrder()),) * 2)
rng = np.random.default_rng(0)
for game in (corpus.random_concave_quadratic(2), corpus.example_coordinate_pref(), two_block, band):
    for _ in range(3):
        x = split_profile(game, rng.uniform(-1.0, 1.0, game.total_dim))
        for player, d in enumerate(selection_T(game, x, sample_seed=1).directions):
            if not d.is_zero:
                samples = sample_contour(game, player, x, count=200, seed=2)
                cone_membership(d, samples, x.block(player))
print("scipy.optimize" in sys.modules)
"""


def test_the_verifier_path_leaves_scipy_optimize_unloaded():
    """No call of the verify workload solves an LP: importing scipy.optimize
    more than doubles a fresh interpreter's resident memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordnash.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _VERIFIER_PATH], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
