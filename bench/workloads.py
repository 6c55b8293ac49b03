"""The benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs are generated from the workload seed
as plain data (game-file strings, coordinates, seeds), so the same seed
always gives the same inputs (``generate``).  The operations call ordnash
through module attributes (``solver.solve_svip(...)``), never through names
bound at import, so a traced run sees every call.

Operations run in rounds.  A round holds a fixed number of operations of
each kind in a fixed order, and a run only stops at the end of a round, so
every run measures the same mix of kinds whatever its length.

A workload is made of parts, each with its own kinds, inputs and checks:
``box`` and ``shared`` (solver pipelines), ``cones`` (criterion-7 trials)
and ``sweep`` (verifier calls).  Each part was first a workload of its own
(solve-box, solve-shared, cone-trials, certify-sweep).  On a shared 2-core
host, 20 s runs of each spread 10-30% between runs, so they are folded into
two workloads whose runs are long enough to average the host's slow phases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ordnash import cones, corpus, gamefile, model, report, solver, verify

# The CLI's default solver seed.  A fixed solver seed keeps the starting
# points, and so the number of restarts that must iterate, the same for
# every game of a family; the workload seed varies the games.
SOLVER_SEED = 42
RESTARTS = 4
# Converging games need 160-260 iterations per restart (step halving from
# 0.1 down to the 1e-8 tolerance); 300 bounds the non-converging tail.
SOLVE_MAX_ITERS = 300
SOLVE_GRID = 0.02

BOX_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2))
SHARED_ROUND = ("arrow-debreu", "mixed-3")
# x1 + x2 + x3 <= 1: exactly one of the four seed-42 starts lies inside.
MIXED_BUDGET = 1.0

CONE_POOL = 40
CONE_FAMILIES = ("trial-quadratic", "trial-coordinate", "trial-coordinate-2", "trial-band")
CONE_SAMPLE = 1000
CONE_TOL = 1e-7

SWEEP_ROUND = ("gne-coordinate", "gne-band", "gne-halfspace", "gne-tensor", "t2", "svip")
SWEEP_GRID = 0.05
TENSOR_GRID = 0.02
SVIP_POINTS = 40



@dataclass
class Op:
    """One operation: ``run`` does the work, ``check`` judges its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Part:
    """Kinds of one round, seeded input generation, and operation building."""

    round_kinds: tuple[str, ...]
    generate: Callable[[np.random.Generator, int], list]
    build: Callable[[list], list[Op]]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


# --- solve pipeline ----------------------------------------------------------


@dataclass
class SolveOutput:
    point: np.ndarray
    converged: bool
    grid_passed: bool
    svip_passed: bool | None
    exit_code: int
    report_text: str


def _solve_pipeline(text: str, *, with_svip: bool) -> SolveOutput:
    """What ``ordnash solve FILE --restarts 4 --max-iters 300 --grid 0.02`` does."""
    game = gamefile.loads_game(text)
    issues = model.validate_spec(game)
    if issues:
        raise ValueError(f"invalid game: {issues}")
    cfg = solver.SolverConfig(
        max_iters=SOLVE_MAX_ITERS, restarts=RESTARTS, seed=SOLVER_SEED
    )
    solution = solver.solve_svip(game, cfg)
    grid = verify.check_gne_grid(game, solution.point, SOLVE_GRID)
    certificates = [report.certificate_payload(grid)]
    svip_passed = None
    if with_svip:
        svip = verify.check_svip(game, solution.point, solution.operator_value)
        certificates.append(report.certificate_payload(svip))
        svip_passed = svip.passed
    warnings = []
    if any(d.is_zero for d in solution.operator_value):
        warnings.append("degenerate: empty strict preference")
    exit_code = 0 if (solution.converged and grid.passed) else 2
    document = report.build_report(
        "solve",
        {"file": "<memory>", "max_iters": SOLVE_MAX_ITERS, "restarts": RESTARTS,
         "seed": SOLVER_SEED, "grid": SOLVE_GRID},
        seed=SOLVER_SEED,
        game_digest=gamefile.game_digest(game),
        solution=report.solution_payload(solution),
        certificates=certificates,
        warnings=warnings,
        error=None,
        exit_code=exit_code,
        wall_time_s=0.0,
    )
    return SolveOutput(
        point=solution.point.stacked,
        converged=solution.converged,
        grid_passed=grid.passed,
        svip_passed=svip_passed,
        exit_code=exit_code,
        report_text=report.render_report(document),
    )


def _report_problem(out: SolveOutput) -> str | None:
    try:
        document = json.loads(out.report_text)
    except json.JSONDecodeError as err:
        return f"report is not JSON: {err}"
    if document["exit_code"] != out.exit_code:
        return "report exit code disagrees with the solution"
    if out.converged and not out.grid_passed:
        return "converged point fails the grid certificate"
    return None


# --- part box: solver on box-constrained games --------------------------------


def _generate_box(rng, rounds):
    items = []
    for _ in range(rounds):
        for players, dims in BOX_SHAPES:
            seed = _seed(rng)
            game = corpus.random_concave_quadratic(seed, players=players, dims=dims)
            items.append((f"{players}x{dims}", seed, players, dims, gamefile.dumps_game(game)))
    return items


def _build_box(items):
    ops = []
    limit = SOLVE_GRID * math.sqrt(2.0)
    for kind, seed, players, dims, text in items:

        def check(out, seed=seed, players=players, dims=dims):
            problem = _report_problem(out)
            if problem or not out.converged:
                return problem
            analytic = corpus.quadratic_equilibrium(seed, players=players, dims=dims)
            distance = float(np.linalg.norm(out.point - analytic))
            if distance > limit:
                return f"converged point is {distance:.3g} from the analytic equilibrium"
            return None

        ops.append(Op(kind, lambda text=text: _solve_pipeline(text, with_svip=False), check))
    return ops


# --- part shared: solver on shared-budget games -------------------------------


def mixed_budget_game(seed: int) -> model.GameSpec:
    """Three scalar players on [0, 1] sharing x1 + x2 + x3 <= MIXED_BUDGET.

    Players 1 and 2 have bliss-point utilities beyond the budget (player 2's
    target moves with x3), so all three want more and the budget binds at
    every equilibrium; player 3's strict upper contour set is the halfspace
    {y : -(1 + c x1) y < -(1 + c x1) x3}, i.e. "more is better", given as a
    rival-dependent contour row so that selection goes through the
    polyhedral route and its feasibility LP.
    """
    rng = np.random.default_rng(seed)
    t1 = float(1.0 + 0.25 * rng.uniform())
    c = float(rng.uniform(0.2, 0.8))
    t2 = float(1.0 + c + 0.25 * rng.uniform())
    box = ((0.0, 1.0),)
    players = (
        model.PlayerSpec(1, box, model.UtilityPreference(f"-(x1-{t1!r})^2")),
        model.PlayerSpec(1, box, model.UtilityPreference(f"-(x2-{t2!r}+{c!r}*x3)^2")),
        model.PlayerSpec(
            1,
            box,
            model.HalfspaceContour(
                (model.ContourRow((f"-(1+{c!r}*x1)",), f"-(1+{c!r}*x1)*x3"),)
            ),
        ),
    )
    budget = model.SharedLinear(a=((1.0, 1.0, 1.0),), b=(MIXED_BUDGET,))
    return model.GameSpec(players, budget)


def _generate_shared(rng, rounds):
    items = []
    for _ in range(rounds):
        for kind in SHARED_ROUND:
            seed = _seed(rng)
            if kind == "arrow-debreu":
                game = corpus.arrow_debreu_instance(seed)
            else:
                game = mixed_budget_game(seed)
            items.append((kind, seed, gamefile.dumps_game(game)))
    return items


def _budget_slack(text: str, point: np.ndarray) -> float:
    shared = gamefile.loads_game(text).constraints
    return float(np.max(shared.matrix @ point - shared.rhs))


def _build_shared(items):
    ops = []
    for kind, _seed_value, text in items:

        def check(out, text=text):
            problem = _report_problem(out)
            if problem or not out.converged:
                return problem
            slack = _budget_slack(text, out.point)
            if slack > 1e-9:
                return f"converged point exceeds the budget by {slack:.3g}"
            if not out.svip_passed:
                return "converged point fails check_svip"
            return None

        ops.append(Op(kind, lambda text=text: _solve_pipeline(text, with_svip=True), check))
    return ops


# --- part cones: criterion-7 trials -------------------------------------------


def _two_block_coordinate_game():
    box = ((-1.0, 1.0), (-1.0, 1.0))
    return model.GameSpec(
        players=(
            model.PlayerSpec(2, box, model.CoordinateOrder()),
            model.PlayerSpec(2, box, model.CoordinateOrder()),
        )
    )


def _cone_games(pool_texts):
    quad = [gamefile.loads_game(text) for text in pool_texts]
    for game in quad:
        for spec in game.players:
            spec.preference.fn  # compile once, as the criterion-7 pool does
    return {
        "trial-quadratic": quad,
        "trial-coordinate": [corpus.example_coordinate_pref()],
        "trial-coordinate-2": [_two_block_coordinate_game()],
        "trial-band": [corpus.example_lhc_remark()[2]],
    }


def _generate_cones(rng, rounds):
    pool = [
        gamefile.dumps_game(corpus.random_concave_quadratic(_seed(rng)))
        for _ in range(CONE_POOL)
    ]
    total_dims = dict(zip(CONE_FAMILIES, (2, 2, 4, 2)))
    trials = []
    for _ in range(rounds):
        for family in CONE_FAMILIES:
            index = int(rng.integers(CONE_POOL)) if family == "trial-quadratic" else 0
            # Every box here is [-1, 1] per coordinate.
            coords = tuple(float(v) for v in rng.uniform(-1.0, 1.0, total_dims[family]))
            trials.append((family, index, coords, _seed(rng)))
    return [("pool", tuple(pool)), *trials]


@dataclass
class ConeOutput:
    emitted: int
    violations: int


def _cone_trial(game, coords, trial_seed) -> ConeOutput:
    x = model.split_profile(game, coords)
    selection = solver.selection_T(game, x, sample_seed=trial_seed)
    emitted = violations = 0
    for player, direction in enumerate(selection.directions):
        if direction.is_zero:
            continue
        emitted += 1
        fresh = model.sample_contour(game, player, x, count=CONE_SAMPLE, seed=trial_seed + 1)
        if not cones.cone_membership(direction, fresh, x.block(player), tol=CONE_TOL):
            violations += 1
    return ConeOutput(emitted, violations)


def _build_cones(items):
    (_, pool), trials = items[0], items[1:]
    games = _cone_games(pool)
    ops = []
    for family, index, coords, trial_seed in trials:
        game = games[family][index]

        def check(out):
            if out.violations:
                return f"{out.violations} emitted directions left the sampled cone"
            return None

        ops.append(Op(family, lambda g=game, c=coords, s=trial_seed: _cone_trial(g, c, s), check))
    return ops


# --- part sweep: verifier calls -----------------------------------------------


def _halfspace_game(a: float, b: float) -> model.GameSpec:
    """Each player wants to move toward a multiple of the rival's coordinate.

    Player 1's strictly better set is {y : (x1 - a x2) y < (x1 - a x2) x1},
    the side of x1 where a x2 lies, and symmetrically for player 2.  With
    0 < a, b < 1 the only grid profile where both sets are empty is (0, 0).
    """
    box = ((-1.0, 1.0),)
    rows = (
        model.ContourRow((f"x1-{a!r}*x2",), f"(x1-{a!r}*x2)*x1"),
        model.ContourRow((f"x2-{b!r}*x1",), f"(x2-{b!r}*x1)*x2"),
    )
    return model.GameSpec(
        tuple(model.PlayerSpec(1, box, model.HalfspaceContour((row,))) for row in rows)
    )


def _band_expected(h):
    xs = verify.grid_coordinates(-1.0, 1.0, h)
    return sorted((float(x), 1.0) for x in xs if x >= 0.0)


def _generate_sweep(rng, rounds):
    items = []
    coordinate = gamefile.dumps_game(corpus.example_coordinate_pref())
    band = gamefile.dumps_game(corpus.example_lhc_remark()[2])
    for _ in range(rounds):
        for kind in SWEEP_ROUND:
            if kind == "gne-coordinate":
                items.append((kind, coordinate, ()))
            elif kind == "gne-band":
                items.append((kind, band, ()))
            elif kind == "gne-halfspace":
                a, b = (float(v) for v in rng.uniform(0.2, 0.8, 2))
                items.append((kind, gamefile.dumps_game(_halfspace_game(a, b)), ()))
            elif kind == "gne-tensor":
                # The existence-suite family: with nonnegative coupling best
                # responses are monotone, so a grid equilibrium always exists.
                # Signed 3-player coupling can have none on the grid.
                game = corpus.random_concave_quadratic(
                    _seed(rng), players=3, nonnegative_coupling=True
                )
                items.append((kind, gamefile.dumps_game(game), ()))
            elif kind == "t2":
                game = corpus.monotone_concave_instance(_seed(rng))
                items.append((kind, gamefile.dumps_game(game), ()))
            else:
                game = corpus.arrow_debreu_instance(_seed(rng))
                share = tuple(float(v) for v in rng.uniform(0.05, 0.85, SVIP_POINTS))
                items.append((kind, gamefile.dumps_game(game), share))
    return items


def _equilibria(text, h):
    found = verify.brute_force_gne(gamefile.loads_game(text), h)
    return sorted(tuple(float(v) for v in p.stacked) for p, _ in found)


def _t2(text):
    cert = verify.theorem2_property([gamefile.loads_game(text)], SWEEP_GRID)
    return cert.passed, cert.detail


_UNIT = np.full(2, -1.0 / math.sqrt(2.0))


def _svip_points(text, shares):
    """check_svip at budget-line points (must pass) and inside points (must fail)."""
    game = gamefile.loads_game(text)
    verdicts = []
    for share in shares:
        on_line = model.split_profile(game, [share, 1.0 - share])
        inside = model.split_profile(game, [share, 0.9 - share])
        verdicts.append(verify.check_svip(game, on_line, _UNIT).passed)
        verdicts.append(not verify.check_svip(game, inside, _UNIT).passed)
    return verdicts


def _t2_check(out):
    passed, detail = out
    fields = dict(part.split("=") for part in detail.split())
    if not passed or fields["certified"] != fields["equilibria"]:
        return f"theorem 2 not fully certified: {detail}"
    return None


def _build_sweep(items):
    ops = []
    band_expected = _band_expected(SWEEP_GRID)
    for kind, text, extra in items:
        if kind == "gne-coordinate":
            run = lambda text=text: _equilibria(text, SWEEP_GRID)
            check = lambda out: None if out == [(1.0, 1.0)] else f"equilibria {out}"
        elif kind == "gne-band":
            run = lambda text=text: _equilibria(text, SWEEP_GRID)
            check = lambda out: None if out == band_expected else f"equilibria {out}"
        elif kind == "gne-halfspace":
            run = lambda text=text: _equilibria(text, SWEEP_GRID)
            check = lambda out: None if out == [(0.0, 0.0)] else f"equilibria {out}"
        elif kind == "gne-tensor":
            run = lambda text=text: _equilibria(text, TENSOR_GRID)
            check = lambda out: None if out else "no grid equilibrium"
        elif kind == "t2":
            run = lambda text=text: _t2(text)
            check = _t2_check
        else:
            run = lambda text=text, shares=extra: _svip_points(text, shares)
            check = lambda out: None if all(out) else f"{out.count(False)} wrong verdicts"
        ops.append(Op(kind, run, check))
    return ops


PARTS = {
    "box": Part(tuple(f"{p}x{d}" for p, d in BOX_SHAPES), _generate_box, _build_box),
    "shared": Part(SHARED_ROUND, _generate_shared, _build_shared),
    "cones": Part(CONE_FAMILIES, _generate_cones, _build_cones),
    "sweep": Part(SWEEP_ROUND, _generate_sweep, _build_sweep),
}


@dataclass(frozen=True)
class Workload:
    """Rounds made of ``repeats`` rounds of each part, in order."""

    name: str
    parts: tuple[tuple[str, int], ...]  # (part, repeats per round)
    pool_rounds: int  # rounds of inputs generated; a run cycles through them

    @property
    def round_size(self) -> int:
        return sum(len(PARTS[part].round_kinds) * repeats for part, repeats in self.parts)


WORKLOADS = {
    w.name: w
    for w in (
        # Six solves per round: four box shapes, an Arrow-Debreu pair and a
        # 3-player shared-budget game.
        Workload("solve", (("box", 1), ("shared", 1)), pool_rounds=60),
        # Two cone trials per family and one call of each verifier kind, so
        # the median latency falls among the trials while the throughput is
        # mostly grid enumeration.
        Workload("verify", (("cones", 2), ("sweep", 1)), pool_rounds=150),
    )
}


def generate(name: str, seed: int, rounds: int | None = None) -> dict:
    """Inputs of workload ``name`` for ``seed``, as plain comparable data."""
    workload = WORKLOADS[name]
    rounds = rounds if rounds is not None else workload.pool_rounds
    return {
        part: PARTS[part].generate(
            np.random.default_rng([seed, list(PARTS).index(part)]), rounds * repeats
        )
        for part, repeats in workload.parts
    }


def build(name: str, inputs: dict) -> list[Op]:
    """Operations in run order, round after round."""
    workload = WORKLOADS[name]
    built = {part: PARTS[part].build(inputs[part]) for part, _ in workload.parts}
    sizes = {part: len(PARTS[part].round_kinds) * repeats for part, repeats in workload.parts}
    rounds = min(len(built[part]) // sizes[part] for part in sizes)
    ops = []
    for index in range(rounds):
        for part, size in sizes.items():
            ops.extend(built[part][index * size:(index + 1) * size])
    return ops
