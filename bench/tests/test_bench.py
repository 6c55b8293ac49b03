"""Tests of the benchmark itself: tiny runs, seeded inputs, wrapper hygiene.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, one_setup):
    result, details = run.run(name, seed=3, seconds=0.01, trace=False, rounds=1)
    round_size = workloads.WORKLOADS[name].round_size
    assert result["correct"], details["failures"]
    assert result["attempted"] == round_size and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["latency"]["samples"] == round_size


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_layers_that_add_up(name):
    result, details = run.run(name, seed=3, seconds=0.01, trace=True, rounds=1)
    assert result["correct"], details["failures"]
    assert details["trace_missing"] == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert math.isclose(
        self_total + values["bench.unattributed_s"],
        values["bench.traced_wall_s"],
        rel_tol=1e-9,
    )
    assert values["bench.unattributed_s"] >= 0
    assert tracing.untouched() == []


def test_solve_layers_count_iterations():
    result, _ = run.run("solve", seed=5, seconds=0.01, trace=True, rounds=1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["solver.solve_svip.calls"] == workloads.WORKLOADS["solve"].round_size
    # One feasibility LP per polyhedral selection, one selection per iteration.
    assert values["cones.linprog.calls"] > 0
    assert (
        values["solver.selection_T.polyhedral"]
        == values["cones.polyhedral.calls"]
        == values["cones.linprog.calls"]
    )
    assert values["solver.selection_T.calls"] > values["solver.solve_svip.calls"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = workloads.generate(name, 11, rounds=2)
    assert first == workloads.generate(name, 11, rounds=2)
    assert first != workloads.generate(name, 12, rounds=2)


def test_wrappers_install_at_every_call_site_and_restore():
    import ordnash.cli
    import ordnash.model
    import ordnash.solver

    originals = {
        (module, "split_profile"): getattr(module, "split_profile")
        for module in (ordnash.model, ordnash.solver, ordnash.cli)
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracing.untouched()) >= {
            "ordnash.model.split_profile",
            "ordnash.solver.split_profile",
            "ordnash.cli.split_profile",
            "ordnash.cones.linprog",
            "ordnash.model.linprog",
        }
        game = ordnash.corpus.example_coordinate_pref()
        ordnash.solver.selection_T(game, ordnash.model.split_profile(game, [0.0, 0.0]))
        assert tracer.stats["model.split_profile"].calls == 1
        assert tracer.stats["solver.selection_T"].counters == {"polyhedral": 2}
    finally:
        tracer.restore()
    assert tracing.untouched() == []
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_separator_errors_are_counted_and_reraised():
    from ordnash import cones, model
    from ordnash.errors import SeparatorError

    tracer = tracing.Tracer()
    tracer.install()
    try:
        block = model.Block(0, (0.0,))
        with pytest.raises(SeparatorError):
            cones.sampled_separating_direction([[1.0], [-1.0]], block)
    finally:
        tracer.restore()
    assert tracer.stats["cones.separator"].counters == {"separator_errors": 1}


def test_every_traced_span_is_exported():
    spans = {t.metric for t in tracing.TARGETS} | {"expressions.compiled_fn"}
    assert spans == set(run.LAYER_FIELDS)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not Path(tmp_path / "src").exists()
