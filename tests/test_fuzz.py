"""Fuzzed game files: loading never escapes OrdnashError, and the CLI always reports.

Documents are drawn near the file format (right keys, wrong values, odd
expressions, extreme numbers) so that most reach validation and many load.
Every ``ordnash solve`` and ``ordnash verify`` call on such a file (and, for
``solve``, with any integer ``--seed``, negative ones included) must print
one parseable JSON report whose exit code is the process exit code, in
{0, 1, 2}.  The examples are derandomized so tier-1 stays reproducible.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from ordnash.cli import main
from ordnash.errors import OrdnashError
from ordnash.gamefile import loads_game
from ordnash.model import GameSpec

# Widths stay small or overflow the grid budget at once, so no fuzzed grid
# is large enough to cost memory or seconds.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, 1e-300, 1e300, -1e308, 1e308, math.inf, -math.inf, math.nan]),
)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
EXPRESSIONS = st.one_of(
    st.sampled_from(
        [
            "-(x1-0.5)^2",
            "-(x2-0.3*x1)^2-(x1+0.2)^2",
            "x1*x2",
            "x1^3-x2",
            "1",
            "1/x1",
            "x1/0",
            "1e999*x1",
            "x0",
            "x9",
            "(x1",
            "x1^1.5",
            "x1^99999999999999999999",
            "x1^-2",
            "",
        ]
    ),
    st.text(alphabet="x0123456789+-*/^(). e", max_size=12),
)


SMALL = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: f"({v!r})")


def _expressions(total):
    """Well-formed expressions over x1..x{total}, mostly; sometimes any EXPRESSIONS."""
    atoms = st.one_of(st.sampled_from([f"x{i + 1}" for i in range(total)]), SMALL)
    grown = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({''.join(t)})"),
            inner.map(lambda e: f"-({e})^2"),
            inner.map(lambda e: f"({e})^3"),
        ),
        max_leaves=6,
    )
    return st.one_of(grown, grown, grown, grown, EXPRESSIONS)


def _preference(total, dim):
    expressions = _expressions(total)
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("Utility"), "expr": expressions}),
        st.fixed_dictionaries(
            {
                "type": st.just("HalfspaceContour"),
                "rows": st.lists(
                    st.fixed_dictionaries(
                        {
                            "coeffs": st.lists(expressions, min_size=dim, max_size=dim),
                            "offset": expressions,
                        }
                    ),
                    min_size=1,
                    max_size=2,
                ),
            }
        ),
        st.sampled_from(
            [{"type": "CoordinateOrder"}, {"type": "TrivialZero"}, {"type": "ThresholdBand"}]
        ),
    )


def _interval(draw):
    lo = draw(st.floats(-3.0, 2.0, allow_nan=False))
    return [lo, lo + draw(st.floats(0.1, 3.0, allow_nan=False))]


def _nodes(value, path=()):
    """Every (container path) position of a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


@st.composite
def documents(draw):
    """A well-formed game file, then up to two random edits of any of its nodes."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    total = sum(dims)
    players = [
        {
            "dim": dim,
            "box": [_interval(draw) for _ in range(dim)],
            "preference": draw(_preference(total, dim)),
        }
        for dim in dims
    ]
    shared = {
        "type": "SharedLinear",
        "a": draw(
            st.lists(
                st.lists(st.floats(-2.0, 2.0), min_size=total, max_size=total),
                min_size=1,
                max_size=2,
            )
        ),
    }
    shared["b"] = draw(
        st.lists(st.floats(-1.0, 3.0), min_size=len(shared["a"]), max_size=len(shared["a"]))
    )
    doc = {
        "players": players,
        "constraints": draw(st.sampled_from([{"type": "BoxOnly"}, shared])),
    }
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(st.one_of(JUNK, NUMBERS))
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(NUMBERS, JUNK, EXPRESSIONS))
    return json.dumps(doc)


@st.composite
def loadable_files(draw):
    """Documents that load; the first drawn among several tries, else any."""
    for _ in range(20):
        text = draw(documents())
        try:
            loads_game(text)
        except OrdnashError:
            continue
        return text
    return draw(documents())


@st.composite
def points(draw, text):
    """A --point for the game in ``text``: inside its box when it loads, else any."""
    try:
        game = loads_game(text)
        box = [sorted((float(lo), float(hi))) for lo, hi in zip(game.box_lo, game.box_hi)]
    except OrdnashError:
        box = [(-3.0, 3.0)] * draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = [draw(st.floats(lo, hi)) for lo, hi in box]
    else:
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    return ",".join(repr(v) for v in values)


FUZZ = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@settings(FUZZ, max_examples=100)
@given(st.one_of(documents(), st.text(max_size=40)))
def test_loads_game_gives_a_game_or_an_ordnash_error(text):
    try:
        game = loads_game(text)
    except OrdnashError:
        return
    assert isinstance(game, GameSpec)


def _assert_reported(result):
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    report = json.loads(result.stdout)
    assert report["exit_code"] == result.exit_code
    assert result.exit_code in (0, 1, 2)
    return report


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_verify_always_reports(tmp_path_factory, data):
    text = data.draw(loadable_files())
    point = data.draw(points(text))
    path = tmp_path_factory.mktemp("fuzz") / "game.json"
    path.write_text(text)
    _assert_reported(CliRunner().invoke(main, ["verify", str(path), "--point", point]))


SEEDS = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@settings(FUZZ, max_examples=30)
@given(text=loadable_files(), seed=SEEDS)
def test_solve_always_reports(tmp_path_factory, text, seed):
    path = tmp_path_factory.mktemp("fuzz") / "game.json"
    path.write_text(text)
    args = ["solve", str(path), "--restarts", "1", "--max-iters", "20", "--grid", "0.5"]
    report = _assert_reported(CliRunner().invoke(main, [*args, "--seed", str(seed)]))
    if seed < 0:
        assert report["error"] == f"--seed must be nonnegative, got {seed}"
