"""Command-line interface: solve, verify, theorem suites, bundled examples.

Every command emits one JSON report (stdout or ``--out``) and exits with
0 when all checks pass, 2 when a check was run and failed, and 1 on errors
(malformed files, infeasible points, invalid flags, unwritable paths).  A
report that cannot be written to ``--out`` goes to stdout with the error.

One runner, :func:`_reported`, wraps every command body and owns the report:
it echoes the command's declared parameters as ``arguments``, times the run,
turns an :class:`OrdnashError` or a ``MemoryError`` into the exit-1 report
and writes the result.  A body only does its work and returns its exit code
and report fields.
"""

from __future__ import annotations

import functools
import time

import click
import numpy as np

from . import __version__
from .corpus import (
    EXAMPLES,
    example_lhc_remark,
    example_trivial_pref,
    monotone_concave_instance,
    quadratic_equilibrium,
    random_concave_quadratic,
)
from .errors import OrdnashError
from .gamefile import game_digest, load_game, save_game
from .model import sample_contour, split_profile, validate_spec
from .report import (
    build_report,
    certificate_payload,
    emit_report,
    solution_payload,
)
from .solver import SolverConfig, selection_T, solve_svip
from .verify import (
    Certificate,
    brute_force_gne,
    check_gne_grid,
    check_svip,
    lhc_probe,
    require_player_grids,
    theorem1_property,
    theorem2_property,
)

_LHC_BASES = (-0.75, -0.5, -0.25, -0.1, 0.0, 0.5)
_LHC_DIRECTIONS = (1.0, -1.0)
_LHC_STEPS = (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)


def _solver_options(command):
    for option in reversed(
        [
            click.option("--step", default=0.1, show_default=True, help="projected step size"),
            click.option("--tol", default=1e-8, show_default=True, help="residual tolerance"),
            click.option("--max-iters", default=10_000, show_default=True, help="iteration cap per restart"),
            click.option("--restarts", default=16, show_default=True, help="multistart count"),
            click.option("--seed", default=42, show_default=True, help="random seed (nonnegative)"),
        ]
    ):
        command = option(command)
    return command


@click.group()
@click.version_option(__version__, prog_name="ordnash")
def main():
    """Ordinal-preference game solver and verifier."""


def _reported(body):
    """Run a command body and end the call in its one JSON report.

    ``arguments`` echoes the command's parameters in declaration order (click
    fills ``ctx.params`` in command-line order), without ``--out``.  The body
    gets every parameter but ``out`` and returns ``(exit_code, fields)``, the
    fields being keywords of :func:`build_report` (``game_digest``,
    ``solution``, ``certificates``, ``warnings``).
    """

    @functools.wraps(body)
    def runner(out, **params):
        started = time.monotonic()
        command = click.get_current_context().command
        arguments = {p.name: params[p.name] for p in command.params if p.name != "out"}
        fields = {"game_digest": None, "solution": None, "certificates": [], "warnings": []}
        error = None
        try:
            exit_code, found = body(**params)
            fields.update(found)
        except OrdnashError as err:
            exit_code, error = 1, str(err)
        except MemoryError as err:
            # A request beyond the machine's memory, such as a huge --restarts.
            exit_code, error = 1, f"out of memory: {err}" if str(err) else "out of memory"
        report = build_report(
            command.name,
            arguments,
            seed=params.get("seed"),
            error=error,
            exit_code=exit_code,
            wall_time_s=time.monotonic() - started,
            **fields,
        )
        try:
            emit_report(report, out)
        except OSError as err:
            failure = f"cannot write report to {out}: {err.strerror or err}"
            error = failure if error is None else f"{error}; {failure}"
            exit_code = 1
            report.update(error=error, exit_code=exit_code)
            emit_report(report, None)
        if error is not None:
            click.echo(error, err=True)
        raise SystemExit(exit_code)

    return runner


def _validated_game(path):
    game = load_game(path)
    issues = validate_spec(game)
    if issues:
        summary = "; ".join(f"{i.code}: {i.message}" for i in issues)
        raise OrdnashError(f"invalid game: {summary}")
    return game


def _check_grid(grid):
    if not (grid > 0 and np.isfinite(grid)):
        raise OrdnashError(f"--grid must be positive and finite, got {grid}")


def _check_seed(seed):
    if seed < 0:
        raise OrdnashError(f"--seed must be nonnegative, got {seed}")


def _solver_config(step, tol, max_iters, restarts, seed):
    try:
        return SolverConfig(
            step=step, tol=tol, max_iters=max_iters, restarts=restarts, seed=seed
        )
    except ValueError as err:
        raise OrdnashError(f"invalid solver options: {err}") from err


@main.command()
@click.argument("file", type=str)
@_solver_options
@click.option("--grid", default=0.05, show_default=True, help="certification grid step")
@click.option("--out", default=None, type=str, help="report path (default stdout)")
@_reported
def solve(file, step, tol, max_iters, restarts, seed, grid):
    """Solve the variational problem for FILE and certify the result."""
    _check_grid(grid)
    _check_seed(seed)
    game = _validated_game(file)
    cfg = _solver_config(step, tol, max_iters, restarts, seed)
    require_player_grids(game, grid)  # the certificate's grids, before the solve
    solution = solve_svip(game, cfg)
    cert = check_gne_grid(game, solution.point, grid)
    warnings = []
    if any(d.is_zero for d in solution.operator_value):
        warnings.append("degenerate: empty strict preference")
    return 0 if (solution.converged and cert.passed) else 2, {
        "game_digest": game_digest(game),
        "solution": solution_payload(solution),
        "certificates": [certificate_payload(cert)],
        "warnings": warnings,
    }


@main.command()
@click.argument("file", type=str)
@click.option("--point", required=True, help="comma-separated profile coordinates")
@click.option("--grid", default=0.05, show_default=True, help="certification grid step")
@click.option("--out", default=None, type=str, help="report path (default stdout)")
@_reported
def verify(file, point, grid):
    """Certify a candidate equilibrium point for FILE on a deviation grid."""
    _check_grid(grid)
    game = _validated_game(file)
    try:
        values = [float(tok) for tok in point.split(",")]
    except ValueError as err:
        raise OrdnashError(f"cannot parse --point {point!r}: {err}") from err
    if not np.all(np.isfinite(values)):
        raise OrdnashError(f"--point coordinates must be finite, got {point!r}")
    cert = check_gne_grid(game, split_profile(game, values), grid)
    return 0 if cert.passed else 2, {
        "game_digest": game_digest(game),
        "certificates": [certificate_payload(cert)],
    }


@main.command()
@click.option(
    "--suite",
    type=click.Choice(["t1", "t2", "existence"]),
    required=True,
    help="which theorem suite to run",
)
@click.option("--instances", default=20, show_default=True, help="seeded instance count")
@_solver_options
@click.option("--grid", default=0.05, show_default=True, help="grid resolution h")
@click.option("--out", default=None, type=str, help="report path (default stdout)")
@_reported
def theorems(suite, instances, step, tol, max_iters, restarts, seed, grid):
    """Run a batch property suite over seeded corpus instances."""
    _check_grid(grid)
    _check_seed(seed)
    if instances < 1:
        raise OrdnashError(f"--instances must be at least 1, got {instances}")
    certificates = []
    warnings = []
    if suite == "t1":
        cfg = _solver_config(step, tol, max_iters, restarts, seed)
        games = [random_concave_quadratic(seed + i) for i in range(instances)]
        cert = theorem1_property(games, cfg, grid)
        certificates.append(certificate_payload(cert))
        passed = cert.passed
    elif suite == "t2":
        games = [monotone_concave_instance(seed + i) for i in range(instances)]
        cert = theorem2_property(games, grid)
        certificates.append(certificate_payload(cert))
        # Bundled counterexample: trivial preferences break the closure
        # hypothesis, so its equilibria must fail to produce separators.
        counter = theorem2_property([example_trivial_pref()], 0.5)
        certificates.append(certificate_payload(counter, expected_failure=True))
        if counter.passed:
            warnings.append(
                "counterexample unexpectedly produced separators for all equilibria"
            )
        passed = cert.passed and not counter.passed
    else:
        with_equilibrium = 0
        witness = None
        for i in range(instances):
            game = random_concave_quadratic(seed + i, nonnegative_coupling=True)
            if brute_force_gne(game, grid):
                with_equilibrium += 1
            elif witness is None:
                witness = {"instance": i, "seed": seed + i}
        cert = Certificate(
            kind="gne-grid",
            passed=with_equilibrium == instances,
            resolution=grid,
            witness=witness,
            detail=(
                f"{with_equilibrium}/{instances} instances have a grid "
                f"equilibrium at resolution {grid}"
            ),
        )
        certificates.append(certificate_payload(cert))
        passed = cert.passed
    return 0 if passed else 2, {"certificates": certificates, "warnings": warnings}


def _run_trivial_pref(game, seed):
    certificates = []
    ok = True
    issues = validate_spec(game)
    ok &= not issues

    rng = np.random.default_rng(seed)
    # Empty strict preference: no sampled profile yields any contour point.
    empty_everywhere = True
    for _ in range(16):
        profile = split_profile(game, rng.uniform(-1.0, 1.0, game.total_dim))
        for player in range(game.n_players):
            if sample_contour(game, player, profile, 200, seed).size:
                empty_everywhere = False
    ok &= empty_everywhere

    origin = split_profile(game, np.zeros(game.total_dim))
    gne = check_gne_grid(game, origin, 0.05)
    certificates.append(certificate_payload(gne))
    ok &= gne.passed

    worst = -np.inf
    failed_all = True
    for _ in range(64):
        direction = rng.normal(size=game.total_dim)
        direction /= np.linalg.norm(direction)
        cert = check_svip(game, origin, direction, tol=1e-6)
        if cert.passed:
            failed_all = False
            worst = 0.0
        else:
            worst = max(worst, float(cert.witness["margin"]))
    ok &= failed_all and worst <= -0.01
    certificates.append(
        certificate_payload(
            Certificate(
                kind="svip",
                passed=False,
                resolution=None,
                witness=None,
                detail=(
                    "64/64 sampled unit operator values fail at (0,0); "
                    f"largest margin {worst:.6e}"
                ),
            ),
            expected_failure=True,
        )
    )
    warnings = ["degenerate: empty strict preference"]
    return ok, certificates, warnings


def _run_coordinate_pref(game, seed):
    certificates = []
    equilibria = brute_force_gne(game, 0.5)
    points = [tuple(p.stacked) for p, _ in equilibria]
    ok = points == [(1.0, 1.0)]
    certificates.append(
        certificate_payload(
            Certificate(
                kind="gne-grid",
                passed=ok,
                resolution=0.5,
                witness=None if ok else {"equilibria": [list(p) for p in points]},
                detail=f"grid equilibria at h=0.5: {[list(p) for p in points]}",
            )
        )
    )

    solution = solve_svip(game, SolverConfig(seed=seed))
    top = np.ones(game.total_dim)
    near = bool(np.max(np.abs(solution.point.stacked - top)) <= 1e-6)
    ok &= solution.converged and near
    certificates.append(
        certificate_payload(
            Certificate(
                kind="svip",
                passed=solution.converged and near,
                resolution=None,
                witness=None,
                detail=(
                    f"solver point {solution.point.stacked.tolist()} within 1e-06 "
                    f"of (1, 1): {near}"
                ),
            )
        )
    )

    rng = np.random.default_rng(seed)
    constant = True
    for _ in range(100):
        profile = split_profile(game, rng.uniform(-0.95, 0.95, game.total_dim))
        sel = selection_T(game, profile)
        constant &= bool(np.array_equal(sel.stacked, -np.ones(game.total_dim)))
    ok &= constant
    certificates.append(
        certificate_payload(
            Certificate(
                kind="svip",
                passed=constant,
                resolution=None,
                witness=None,
                detail="operator selection is (-1, -1) at 100 interior profiles",
            )
        )
    )
    return ok, certificates, []


def _run_lhc_remark(game, seed):
    lhc_map, non_lhc_map, _ = example_lhc_remark()
    passing = lhc_probe(lhc_map, _LHC_BASES, _LHC_DIRECTIONS, _LHC_STEPS)
    failing = lhc_probe(non_lhc_map, _LHC_BASES, _LHC_DIRECTIONS, _LHC_STEPS)
    ok = passing.passed and not failing.passed
    certificates = [
        certificate_payload(passing),
        certificate_payload(failing, expected_failure=True),
    ]
    return ok, certificates, []


def _run_quadratic(game, seed):
    certificates = []
    cfg = SolverConfig(seed=seed)
    t1 = theorem1_property([game], cfg, 0.02)
    certificates.append(certificate_payload(t1))
    ok = t1.passed

    analytic = quadratic_equilibrium(seed)
    solution = solve_svip(game, cfg)
    tol = 0.05 * np.sqrt(2.0)
    solver_close = bool(np.linalg.norm(solution.point.stacked - analytic) <= tol)
    equilibria = brute_force_gne(game, 0.05)
    grid_close = bool(equilibria) and all(
        np.linalg.norm(p.stacked - analytic) <= tol for p, _ in equilibria
    )
    ok &= solution.converged and solver_close and grid_close
    certificates.append(
        certificate_payload(
            Certificate(
                kind="gne-grid",
                passed=solver_close and grid_close,
                resolution=0.05,
                witness=None,
                detail=(
                    f"analytic point {analytic.tolist()}; solver and "
                    f"{len(equilibria)} grid equilibria within h*sqrt(2)"
                ),
            )
        )
    )
    return ok, certificates, []


def _run_arrow_debreu(game, seed):
    certificates = []
    solution = solve_svip(game, SolverConfig(seed=seed))
    total = float(np.sum(solution.point.stacked))
    feasible = total <= 1.0 + 1e-9
    cert = check_gne_grid(game, solution.point, 0.02)
    certificates.append(certificate_payload(cert))
    ok = solution.converged and feasible and cert.passed

    equilibria = brute_force_gne(game, 0.05)
    on_line = bool(equilibria) and all(
        abs(float(np.sum(p.stacked)) - 1.0) <= 0.05 + 1e-9 for p, _ in equilibria
    )
    ok &= on_line
    certificates.append(
        certificate_payload(
            Certificate(
                kind="gne-grid",
                passed=on_line,
                resolution=0.05,
                witness=None,
                detail=(
                    f"{len(equilibria)} grid equilibria all satisfy "
                    "x1 + x2 = 1 within h"
                ),
            )
        )
    )
    return ok, certificates, []


_CHECKS = {
    "trivial-pref": _run_trivial_pref,
    "coordinate-pref": _run_coordinate_pref,
    "lhc-remark": _run_lhc_remark,
    "quadratic": _run_quadratic,
    "arrow-debreu": _run_arrow_debreu,
}


@main.command()
@click.option(
    "--name",
    type=click.Choice(sorted(EXAMPLES)),
    required=True,
    help="bundled example to build",
)
@click.option("--run", is_flag=True, help="run the example's canonical checks")
@click.option("--dump", default=None, type=str, help="write the problem file here")
@click.option("--seed", default=42, show_default=True, help="random seed for checks (nonnegative)")
@click.option("--out", default=None, type=str, help="report path (default stdout)")
@_reported
def examples(name, run, dump, seed):
    """Build a bundled example; optionally dump it or run its checks."""
    _check_seed(seed)
    game = EXAMPLES[name]()
    if dump is not None:
        save_game(game, dump)
    ok, certificates, warnings = _CHECKS[name](game, seed) if run else (True, [], [])
    return 0 if ok else 2, {
        "game_digest": game_digest(game),
        "certificates": certificates,
        "warnings": warnings,
    }


if __name__ == "__main__":
    main()
