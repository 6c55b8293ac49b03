"""Problem-file serialization: games to and from JSON documents.

The on-disk format mirrors the model types: top-level ``players`` (array of
``{dim, box, preference}``) and ``constraints``, with ``type`` tags naming
the variants.  Dumps are canonical (sorted keys, two-space indent, trailing
newline), so dump -> parse -> dump is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import GameFormatError
from .model import (
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
)

__all__ = [
    "game_to_dict",
    "game_from_dict",
    "dumps_game",
    "loads_game",
    "load_game",
    "save_game",
    "game_digest",
    "atomic_write_text",
]


def _preference_to_dict(pref) -> dict:
    if isinstance(pref, UtilityPreference):
        return {"type": "Utility", "expr": pref.expr}
    if isinstance(pref, CoordinateOrder):
        return {"type": "CoordinateOrder"}
    if isinstance(pref, TrivialZero):
        return {"type": "TrivialZero"}
    if isinstance(pref, HalfspaceContour):
        return {
            "type": "HalfspaceContour",
            "rows": [
                {"coeffs": list(row.coeffs), "offset": row.offset}
                for row in pref.rows
            ],
        }
    if isinstance(pref, ThresholdBand):
        return {"type": "ThresholdBand"}
    raise GameFormatError(f"cannot serialize preference {type(pref).__name__}")


def _constraints_to_dict(constraints) -> dict:
    if isinstance(constraints, BoxOnly):
        return {"type": "BoxOnly"}
    if isinstance(constraints, SharedLinear):
        return {
            "type": "SharedLinear",
            "a": [list(row) for row in constraints.a],
            "b": list(constraints.b),
        }
    raise GameFormatError(f"cannot serialize constraints {type(constraints).__name__}")


def game_to_dict(game: GameSpec) -> dict:
    """Plain-data form of a game, ready for JSON dumping."""
    return {
        "players": [
            {
                "dim": spec.dim,
                "box": [[lo, hi] for lo, hi in spec.box],
                "preference": _preference_to_dict(spec.preference),
            }
            for spec in game.players
        ],
        "constraints": _constraints_to_dict(game.constraints),
    }


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise GameFormatError(f"{where} must be an object, got {type(data).__name__}")
    if key not in data:
        raise GameFormatError(f"{where} is missing required key {key!r}")
    return data[key]


def _number(value) -> float:
    # float() would also take "1" and True; a problem file must spell numbers.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _parse_preference(data, where: str):
    tag = _require(data, "type", where)
    if tag == "Utility":
        expr = _require(data, "expr", where)
        if not isinstance(expr, str):
            raise GameFormatError(f"{where}: 'expr' must be a string")
        return UtilityPreference(expr)
    if tag == "CoordinateOrder":
        return CoordinateOrder()
    if tag == "TrivialZero":
        return TrivialZero()
    if tag == "HalfspaceContour":
        rows_data = _require(data, "rows", where)
        if not isinstance(rows_data, list) or not rows_data:
            raise GameFormatError(f"{where}: 'rows' must be a nonempty array")
        rows = []
        for i, row in enumerate(rows_data):
            coeffs = _require(row, "coeffs", f"{where} row {i}")
            offset = _require(row, "offset", f"{where} row {i}")
            if not isinstance(coeffs, list) or not all(
                isinstance(c, str) for c in coeffs
            ):
                raise GameFormatError(
                    f"{where} row {i}: 'coeffs' must be an array of strings"
                )
            if not isinstance(offset, str):
                raise GameFormatError(f"{where} row {i}: 'offset' must be a string")
            rows.append(ContourRow(coeffs=tuple(coeffs), offset=offset))
        return HalfspaceContour(rows=tuple(rows))
    if tag == "ThresholdBand":
        return ThresholdBand()
    raise GameFormatError(f"{where}: unknown preference type {tag!r}")


def _parse_constraints(data, where: str):
    tag = _require(data, "type", where)
    if tag == "BoxOnly":
        return BoxOnly()
    if tag == "SharedLinear":
        a = _require(data, "a", where)
        b = _require(data, "b", where)
        try:
            return SharedLinear(
                a=tuple(tuple(_number(v) for v in row) for row in a),
                b=tuple(_number(v) for v in b),
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise GameFormatError(f"{where}: bad SharedLinear data: {err}") from err
    raise GameFormatError(f"{where}: unknown constraints type {tag!r}")


def game_from_dict(data: dict) -> GameSpec:
    """Build a game from plain data, raising :class:`GameFormatError` on problems."""
    players_data = _require(data, "players", "problem file")
    constraints_data = _require(data, "constraints", "problem file")
    if not isinstance(players_data, list) or not players_data:
        raise GameFormatError("'players' must be a nonempty array")
    players = []
    for idx, entry in enumerate(players_data):
        where = f"player {idx}"
        dim = _require(entry, "dim", where)
        box = _require(entry, "box", where)
        pref_data = _require(entry, "preference", where)
        # bool is an int subclass, but "dim": true is not a dimension.
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise GameFormatError(f"{where}: 'dim' must be a positive integer")
        try:
            box_tuple = tuple((_number(lo), _number(hi)) for lo, hi in box)
        except (TypeError, ValueError, OverflowError) as err:
            raise GameFormatError(f"{where}: bad box data: {err}") from err
        pref = _parse_preference(pref_data, f"{where} preference")
        try:
            players.append(PlayerSpec(dim=dim, box=box_tuple, preference=pref))
        except ValueError as err:
            raise GameFormatError(f"{where}: {err}") from err
    constraints = _parse_constraints(constraints_data, "constraints")
    return GameSpec(players=tuple(players), constraints=constraints)


def dumps_game(game: GameSpec) -> str:
    """Canonical JSON text of a game (sorted keys, indent 2, trailing newline)."""
    return json.dumps(game_to_dict(game), sort_keys=True, indent=2) + "\n"


def loads_game(text: str) -> GameSpec:
    """Parse problem-file text; syntax errors carry line and column."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise GameFormatError(
            f"invalid problem file: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from err
    return game_from_dict(data)


def load_game(path: str | Path) -> GameSpec:
    """Read and parse a problem file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise GameFormatError(f"cannot read problem file {path}: {err}") from err
    return loads_game(text)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_game(game: GameSpec, path: str | Path) -> None:
    """Dump a game to a problem file atomically."""
    try:
        atomic_write_text(path, dumps_game(game))
    except OSError as err:
        raise GameFormatError(
            f"cannot write problem file {path}: {err.strerror or err}"
        ) from err


def game_digest(game: GameSpec) -> str:
    """SHA-256 of the canonical dump; stable identity for reports."""
    return hashlib.sha256(dumps_game(game).encode()).hexdigest()
