"""Problem-file serialization: canonical dumps, parse diagnostics, digests."""

import json

import pytest

from conftest import make_budget_pair, make_halfspace_orthant
from ordnash.corpus import EXAMPLES
from ordnash.errors import GameFormatError
from ordnash.gamefile import (
    atomic_write_text,
    dumps_game,
    game_digest,
    game_from_dict,
    game_to_dict,
    load_game,
    loads_game,
    save_game,
)
from ordnash.model import SharedLinear, UtilityPreference


ALL_BUILDERS = list(EXAMPLES.values()) + [make_budget_pair, make_halfspace_orthant]


class TestRoundTrip:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_dump_parse_dump_is_byte_identical(self, builder):
        game = builder()
        first = dumps_game(game)
        second = dumps_game(loads_game(first))
        assert first == second

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_parsed_game_behaves_identically(self, builder):
        game = builder()
        clone = loads_game(dumps_game(game))
        assert clone.dims == game.dims
        assert clone.total_dim == game.total_dim
        assert type(clone.constraints) is type(game.constraints)
        for orig, copy in zip(game.players, clone.players):
            assert type(copy.preference) is type(orig.preference)
            assert copy.box == orig.box

    def test_dump_format_is_canonical(self):
        game = EXAMPLES["coordinate-pref"]()
        text = dumps_game(game)
        assert text.endswith("\n")
        data = json.loads(text)
        assert set(data) == {"players", "constraints"}
        assert data["constraints"] == {"type": "BoxOnly"}
        assert data["players"][0]["preference"] == {"type": "CoordinateOrder"}

    def test_shared_linear_payload(self):
        game = make_budget_pair()
        data = game_to_dict(game)
        assert data["constraints"] == {
            "type": "SharedLinear",
            "a": [[1.0, 1.0]],
            "b": [1.0],
        }

    def test_halfspace_rows_payload(self):
        game = make_halfspace_orthant()
        data = game_to_dict(game)
        pref = data["players"][0]["preference"]
        assert pref["type"] == "HalfspaceContour"
        assert pref["rows"] == [{"coeffs": ["-1"], "offset": "-x2"}]

    def test_expression_text_preserved_verbatim(self):
        game = EXAMPLES["quadratic"]()
        clone = loads_game(dumps_game(game))
        for orig, copy in zip(game.players, clone.players):
            assert isinstance(copy.preference, UtilityPreference)
            assert copy.preference.expr == orig.preference.expr


class TestParseErrors:
    def test_invalid_json_reports_line_and_column(self):
        with pytest.raises(GameFormatError) as err:
            loads_game('{"players": [,]}')
        message = str(err.value)
        assert "invalid problem file" in message
        assert "line 1" in message
        assert "column" in message

    def test_missing_players(self):
        with pytest.raises(GameFormatError) as err:
            loads_game('{"constraints": {"type": "BoxOnly"}}')
        assert "players" in str(err.value)

    def test_missing_constraints(self):
        with pytest.raises(GameFormatError) as err:
            game_from_dict({"players": []})
        assert "constraints" in str(err.value)

    def test_empty_players_array(self):
        with pytest.raises(GameFormatError):
            game_from_dict(
                {"players": [], "constraints": {"type": "BoxOnly"}}
            )

    def test_unknown_preference_type(self):
        data = {
            "players": [
                {
                    "dim": 1,
                    "box": [[-1.0, 1.0]],
                    "preference": {"type": "Lexicographic"},
                }
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "Lexicographic" in str(err.value)

    def test_unknown_constraints_type(self):
        data = {
            "players": [
                {
                    "dim": 1,
                    "box": [[-1.0, 1.0]],
                    "preference": {"type": "TrivialZero"},
                }
            ],
            "constraints": {"type": "Quadratic"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "Quadratic" in str(err.value)

    def test_bad_dim(self):
        data = {
            "players": [
                {
                    "dim": 0,
                    "box": [],
                    "preference": {"type": "TrivialZero"},
                }
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "dim" in str(err.value)

    def test_boolean_dim_rejected(self):
        data = {
            "players": [
                {
                    "dim": True,
                    "box": [[-1.0, 1.0]],
                    "preference": {"type": "TrivialZero"},
                }
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "'dim' must be a positive integer" in str(err.value)

    def test_box_arity_mismatch_located(self):
        data = {
            "players": [
                {
                    "dim": 2,
                    "box": [[-1.0, 1.0]],
                    "preference": {"type": "TrivialZero"},
                }
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "player 0" in str(err.value)

    def test_contour_rows_must_be_strings(self):
        data = {
            "players": [
                {
                    "dim": 1,
                    "box": [[-1.0, 1.0]],
                    "preference": {
                        "type": "HalfspaceContour",
                        "rows": [{"coeffs": [1.0], "offset": "0"}],
                    },
                }
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "row 0" in str(err.value)

    def test_bad_shared_linear_payload(self):
        data = {
            "players": [
                {
                    "dim": 1,
                    "box": [[-1.0, 1.0]],
                    "preference": {"type": "TrivialZero"},
                }
            ],
            "constraints": {"type": "SharedLinear", "a": [["x"]], "b": [1.0]},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "SharedLinear" in str(err.value)

    def test_ragged_shared_rows_rejected(self):
        data = {
            "players": [
                {"dim": 1, "box": [[0, 1]], "preference": {"type": "TrivialZero"}},
                {"dim": 1, "box": [[0, 1]], "preference": {"type": "TrivialZero"}},
            ],
            "constraints": {"type": "SharedLinear", "a": [[1, 1], [1]], "b": [1, 1]},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "unequal lengths" in str(err.value)

    @pytest.mark.parametrize("value", ["0", True, None, [0]])
    def test_box_bounds_must_be_numbers(self, value):
        data = {
            "players": [
                {"dim": 1, "box": [[value, 1]], "preference": {"type": "TrivialZero"}}
            ],
            "constraints": {"type": "BoxOnly"},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "player 0: bad box data" in str(err.value)

    @pytest.mark.parametrize("value", ["1", False])
    def test_shared_row_entries_must_be_numbers(self, value):
        data = {
            "players": [
                {"dim": 1, "box": [[0, 1]], "preference": {"type": "TrivialZero"}}
            ],
            "constraints": {"type": "SharedLinear", "a": [[value]], "b": [1]},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "bad SharedLinear data" in str(err.value)

    @pytest.mark.parametrize("value", ["1", True])
    def test_shared_offsets_must_be_numbers(self, value):
        data = {
            "players": [
                {"dim": 1, "box": [[0, 1]], "preference": {"type": "TrivialZero"}}
            ],
            "constraints": {"type": "SharedLinear", "a": [[1]], "b": [value]},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "bad SharedLinear data" in str(err.value)

    @pytest.mark.parametrize(
        "a, b", [([[float("nan")]], [1]), ([[1]], [float("inf")])], ids=["nan-row", "inf-offset"]
    )
    def test_shared_linear_must_be_finite(self, a, b):
        data = {
            "players": [
                {"dim": 1, "box": [[0, 1]], "preference": {"type": "TrivialZero"}}
            ],
            "constraints": {"type": "SharedLinear", "a": a, "b": b},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(data)
        assert "must be finite" in str(err.value)

    @pytest.mark.parametrize(
        "box, a, b, message",
        [
            ([[0, 10**400]], [[1]], [1], "player 0: bad box data"),
            ([[0, 1]], [[10**400]], [1], "bad SharedLinear data"),
            ([[0, 1]], [[1]], [-(10**400)], "bad SharedLinear data"),
        ],
        ids=["box", "a", "b"],
    )
    def test_integer_too_large_for_a_float(self, box, a, b, message):
        data = {
            "players": [{"dim": 1, "box": box, "preference": {"type": "TrivialZero"}}],
            "constraints": {"type": "SharedLinear", "a": a, "b": b},
        }
        with pytest.raises(GameFormatError) as err:
            game_from_dict(json.loads(json.dumps(data)))
        assert message in str(err.value)
        assert "too large to convert to float" in str(err.value)

    def test_integer_and_float_numbers_accepted(self):
        data = {
            "players": [
                {"dim": 1, "box": [[0, 1.5]], "preference": {"type": "TrivialZero"}}
            ],
            "constraints": {"type": "SharedLinear", "a": [[2]], "b": [1.25]},
        }
        game = game_from_dict(data)
        assert game.players[0].box == ((0.0, 1.5),)
        assert game.constraints == SharedLinear(a=((2.0,),), b=(1.25,))

    def test_missing_file(self, tmp_path):
        with pytest.raises(GameFormatError) as err:
            load_game(tmp_path / "absent.json")
        assert "cannot read" in str(err.value)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        game = make_budget_pair()
        path = tmp_path / "game.json"
        save_game(game, path)
        assert dumps_game(load_game(path)) == dumps_game(game)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_atomic_write_overwrites(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"

    @pytest.mark.parametrize("where", ["missing/game.json", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_path_is_a_game_format_error(self, tmp_path, where):
        path = tmp_path / where
        with pytest.raises(GameFormatError) as err:
            save_game(make_budget_pair(), path)
        assert str(err.value).startswith(f"cannot write problem file {path}: ")
        assert [p for p in tmp_path.rglob("*.tmp")] == []


class TestDigest:
    def test_digest_tracks_canonical_dump(self):
        import hashlib

        game = make_budget_pair()
        expected = hashlib.sha256(dumps_game(game).encode()).hexdigest()
        assert game_digest(game) == expected

    def test_digest_stable_across_round_trip(self):
        game = EXAMPLES["quadratic"]()
        clone = loads_game(dumps_game(game))
        assert game_digest(clone) == game_digest(game)

    def test_digest_differs_across_games(self):
        a = EXAMPLES["trivial-pref"]()
        b = EXAMPLES["coordinate-pref"]()
        assert game_digest(a) != game_digest(b)
