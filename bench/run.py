"""Closed-loop benchmark of ordnash: one client, one process, one BLAS thread.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 45 --trace 0

The program is imported from ``src/`` next to this directory; nothing needs
installing.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (see ``bench/README.md``);
with ``--trace 1`` timing wrappers are installed and the metrics are the
per-layer ones.  The line before it is a JSON object with run metadata and
details (sample count, p90 where there are at least 100 operations, per-kind
latencies, failures).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one client.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ordnash"

SETUP_REPEATS = 3
P90_MIN_OPS = 100

# Per-layer metric name -> (span stat name, field).  Fields: ``calls``,
# ``self_s`` or a counter recorded by the span's hook.
LAYER_FIELDS = {
    "expressions.parse": ("calls", "self_s"),
    "expressions.compile": ("calls", "self_s"),
    "expressions.compiled_fn": ("calls", "rows", "self_s"),
    "model.sample_contour": ("calls", "self_s", "draws", "accepted"),
    "model.strict_upper_mask": ("calls", "rows", "self_s"),
    "model.split_profile": ("calls", "self_s"),
    "model.evaluate_contour_rows": ("calls", "self_s"),
    "model.feasible_region": ("calls", "self_s"),
    "model.validate_spec": ("calls", "self_s"),
    "model.linprog": ("calls", "self_s"),
    "minnorm.min_norm_point": ("calls", "self_s", "iters", "unconverged"),
    "cones.gradient": ("calls", "self_s"),
    "cones.polyhedral": ("calls", "self_s"),
    "cones.linprog": ("calls", "self_s"),
    "cones.separator": ("calls", "self_s", "separator_errors"),
    "cones.cone_membership": ("calls", "self_s"),
    "solver.selection_T": ("calls", "self_s", "gradient", "polyhedral", "sampled", "full_space"),
    "solver.solve_svip": ("calls", "self_s", "converged"),
    "solver.project_feasible": ("calls", "self_s"),
    "verify.brute_force_gne": ("calls", "self_s", "grid_points"),
    "verify.check_gne_grid": ("calls", "self_s"),
    "verify.check_svip": ("calls", "self_s"),
    "verify.theorem2_property": ("calls", "self_s"),
    "gamefile.loads_game": ("calls", "self_s"),
    "gamefile.game_digest": ("calls", "self_s"),
    "report.payload": ("calls", "self_s"),
    "report.build_report": ("calls", "self_s"),
    "report.render_report": ("calls", "self_s"),
}
# Ratios: name -> (numerator, denominator) as "stat.field".
LAYER_RATIOS = {
    "model.sample_contour.accept_ratio": ("model.sample_contour.accepted", "model.sample_contour.draws"),
    "cones.gradient.flat_ratio": ("cones.gradient.flat", "cones.gradient.calls"),
    "solver.solve_svip.converged_ratio": ("solver.solve_svip.converged", "solver.solve_svip.calls"),
}
BENCH_FIELDS = ("bench.unattributed_s", "bench.traced_wall_s", "bench.traced_ops_per_s", "bench.traced_op_p50_ms")


def per_layer_names() -> list[str]:
    names = [f"{stat}.{field}" for stat, fields in LAYER_FIELDS.items() for field in fields]
    return names + list(LAYER_RATIOS) + list(BENCH_FIELDS)


def per_layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program sources)."""


def import_program():
    """Import ordnash from ``src/`` of this checkout, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no program sources at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import ordnash

    if Path(ordnash.__file__).resolve().parent != PACKAGE.resolve():
        raise SetupError(f"ordnash imported from {ordnash.__file__}, not {PACKAGE}")
    return ordnash


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing ``ordnash.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ordnash.cli"],
            env=env,
            check=True,
            timeout=120,
            stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
    }


def run_loop(ops, round_size: int, seconds: float):
    """Closed loop over ``ops`` in whole rounds until ``seconds`` have passed."""
    clock = time.perf_counter
    latencies, records = [], []
    position = 0
    start = clock()
    while True:
        for _ in range(round_size):
            op = ops[position % len(ops)]
            position += 1
            began = clock()
            try:
                output, error = op.run(), None
            except Exception:  # a failed operation is counted, not fatal
                output, error = None, traceback.format_exc(limit=3)
            latencies.append(clock() - began)
            records.append((op, output, error))
        if clock() - start >= seconds:
            break
    return latencies, records, clock() - start


def judge(records) -> list[str]:
    """One message per failed operation: it raised, or its output check failed."""
    failures = []
    for index, (op, output, error) in enumerate(records):
        if error is None:
            try:
                error = op.check(output)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            failures.append(f"op {index} ({op.kind}): {error.strip()}")
    return failures


def latency_summary(latencies) -> dict:
    ms = [1e3 * v for v in latencies]
    summary = {"samples": len(ms), "p50_ms": statistics.median(ms)}
    if len(ms) >= P90_MIN_OPS:
        summary["p90_ms"] = statistics.quantiles(ms, n=10)[8]
    return summary


def per_kind(records, latencies) -> dict:
    kinds: dict[str, list[float]] = {}
    for (op, _, _), latency in zip(records, latencies):
        kinds.setdefault(op.kind, []).append(1e3 * latency)
    return {kind: {"n": len(v), "p50_ms": statistics.median(v)} for kind, v in kinds.items()}


def _field(tracer, stat_name: str, field: str):
    entry = tracer.stats.get(stat_name)
    if entry is None:
        return 0
    if field == "calls":
        return entry.calls
    if field == "self_s":
        return entry.self_s
    return entry.counters.get(field, 0)


def layer_metrics(tracer, wall_s: float, latencies) -> dict:
    values = {
        f"{stat_name}.{field}": _field(tracer, stat_name, field)
        for stat_name, fields in LAYER_FIELDS.items()
        for field in fields
    }
    for name, (num, den) in LAYER_RATIOS.items():
        numerator = _field(tracer, *num.rsplit(".", 1))
        denominator = _field(tracer, *den.rsplit(".", 1))
        values[name] = numerator / denominator if denominator else 0.0
    values["bench.unattributed_s"] = wall_s - tracer.total_self_s()
    values["bench.traced_wall_s"] = wall_s
    values["bench.traced_ops_per_s"] = len(latencies) / wall_s
    values["bench.traced_op_p50_ms"] = 1e3 * statistics.median(latencies)
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, rounds: int | None = None):
    """One benchmark run; returns (result, details)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    details = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load_start": os.getloadavg(),
        "meta": metadata(),
    }
    setup_times = None if trace else measure_setup()
    inputs = workloads.generate(workload_name, seed, rounds)

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        details["trace_missing"] = tracer.missing
    try:
        ops = workloads.build(workload_name, inputs)
        round_size = workload.round_size
        run_loop(ops[:round_size], round_size, 0.0)  # warm-up, not measured
        if tracer is not None:
            tracer.reset()
        latencies, records, wall_s = run_loop(ops, round_size, seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    left_installed = tracing.untouched()
    failures = judge(records)

    details["load_end"] = os.getloadavg()
    details["wall_s"] = wall_s
    details["latency"] = latency_summary(latencies)
    details["per_kind"] = per_kind(records, latencies)
    details["end_to_end"] = {
        "ops_per_s": len(records) / wall_s,
        "op_p50_ms": details["latency"]["p50_ms"],
    }
    details["fail_ratio"] = len(failures) / len(records)
    details["failures"] = failures[:20]
    details["wrappers_left"] = left_installed
    flags = [getattr(out, "converged", None) for _, out, _ in records]
    if any(flag is not None for flag in flags):
        details["converged_ratio"] = sum(bool(flag) for flag in flags) / len(records)

    if trace:
        values = layer_metrics(tracer, wall_s, latencies)
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    else:
        details["setup_times_s"] = setup_times
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": details["end_to_end"]["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": details["end_to_end"]["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not failures and not left_installed,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
