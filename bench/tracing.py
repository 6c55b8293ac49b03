"""Per-layer tracing by timing wrappers installed at module attributes.

A traced run replaces each layer function with a wrapper at every
``ordnash.*`` module attribute that is bound to it, which is the name its
callers look up at call time (``ordnash.solver.selection_T``,
``ordnash.verify.sample_contour``, ...).  No source file changes.  Each
wrapper records a span; a span's self time is its duration minus the
durations of the spans it encloses.  Spans are aggregated in memory per
metric name (calls, self time, counters) rather than kept one by one,
because a solve makes tens of thousands of them.

``restore`` puts every original object back; ``untouched`` checks that no
wrapper is left anywhere, which untraced runs assert.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_MARK = "__bench_wrapped__"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


# --- counter hooks: (stats, args, kwargs, result) -> None -------------------


def _rows(stats, args, kwargs, result):
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    stats.add("rows", int(np.atleast_2d(candidates).shape[0]))


def _sample_counts(stats, args, kwargs, result):
    names = ("game", "player", "x", "count", "seed", "bounds", "max_attempts")
    bound = dict(zip(names, args), **kwargs)
    count = int(bound["count"])
    attempts = bound.get("max_attempts")
    if count > 0:
        stats.add("draws", attempts if attempts is not None else max(20 * count, 2000))
    stats.add("accepted", len(result))


def _minnorm_counts(stats, args, kwargs, result):
    stats.add("iters", int(result.iters))
    stats.add("unconverged", 0 if result.converged else 1)


def _gradient_counts(stats, args, kwargs, result):
    stats.add("flat", 1 if result is None else 0)


def _selection_counts(stats, args, kwargs, result):
    for provenance in result.provenance:
        stats.add(provenance.value.replace("-", "_"), 1)


def _solve_counts(stats, args, kwargs, result):
    stats.add("converged", 1 if result.converged else 0)


def _grid_points(stats, args, kwargs, result):
    game = args[0]
    h = args[1] if len(args) > 1 else kwargs["h"]
    verify = sys.modules["ordnash.verify"]
    points = 1
    for lo, hi in zip(game.box_lo, game.box_hi):
        points *= verify.grid_coordinates(float(lo), float(hi), h).size
    stats.add("grid_points", points)


def _separator_error(stats, exc):
    if type(exc).__name__ == "SeparatorError":
        stats.add("separator_errors", 1)


@dataclass(frozen=True)
class Target:
    """One traced layer function.

    ``module``/``attr`` name where the function is defined.  With
    ``every_site`` the wrapper goes to every ``ordnash.*`` module attribute
    bound to the same object; otherwise only to ``module.attr`` (used for
    ``linprog``, which two modules import from scipy under one name but
    which belongs to a different layer in each).
    """

    metric: str
    module: str
    attr: str
    on_result: Callable | None = None
    on_error: Callable | None = None
    every_site: bool = True
    wrap_result: str | None = None


TARGETS = (
    Target("expressions.parse", "ordnash.expressions", "parse_expression"),
    Target("expressions.compile", "ordnash.expressions", "compile_expression",
           wrap_result="expressions.compiled_fn"),
    Target("model.sample_contour", "ordnash.model", "sample_contour", _sample_counts),
    Target("model.strict_upper_mask", "ordnash.model", "strict_upper_mask", _rows),
    Target("model.split_profile", "ordnash.model", "split_profile"),
    Target("model.evaluate_contour_rows", "ordnash.model", "evaluate_contour_rows"),
    Target("model.feasible_region", "ordnash.model", "feasible_region"),
    Target("model.validate_spec", "ordnash.model", "validate_spec"),
    Target("model.linprog", "ordnash.model", "linprog", every_site=False),
    Target("minnorm.min_norm_point", "ordnash.minnorm", "min_norm_point", _minnorm_counts),
    Target("cones.gradient", "ordnash.cones", "gradient_normal_direction", _gradient_counts),
    Target("cones.polyhedral", "ordnash.cones", "polyhedral_normal_generators"),
    Target("cones.linprog", "ordnash.cones", "linprog", every_site=False),
    Target("cones.separator", "ordnash.cones", "sampled_separating_direction",
           on_error=_separator_error),
    Target("cones.cone_membership", "ordnash.cones", "cone_membership"),
    Target("solver.selection_T", "ordnash.solver", "selection_T", _selection_counts),
    Target("solver.solve_svip", "ordnash.solver", "solve_svip", _solve_counts),
    Target("solver.project_feasible", "ordnash.solver", "project_feasible"),
    Target("verify.brute_force_gne", "ordnash.verify", "brute_force_gne", _grid_points),
    Target("verify.check_gne_grid", "ordnash.verify", "check_gne_grid"),
    Target("verify.check_svip", "ordnash.verify", "check_svip"),
    Target("verify.theorem2_property", "ordnash.verify", "theorem2_property"),
    Target("gamefile.loads_game", "ordnash.gamefile", "loads_game"),
    Target("gamefile.game_digest", "ordnash.gamefile", "game_digest"),
    Target("report.payload", "ordnash.report", "solution_payload"),
    Target("report.payload", "ordnash.report", "certificate_payload"),
    Target("report.build_report", "ordnash.report", "build_report"),
    Target("report.render_report", "ordnash.report", "render_report"),
)


def _ordnash_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "ordnash" or name.startswith("ordnash."))
    ]


def sites(target: Target) -> list:
    """Modules whose attribute ``target.attr`` is the traced function."""
    home = sys.modules.get(target.module) or importlib.import_module(target.module)
    original = getattr(home, target.attr, None)
    if original is None:
        return []
    if not target.every_site:
        return [home]
    return [m for m in _ordnash_modules() if getattr(m, target.attr, None) is original]


class Tracer:
    """Aggregating span recorder; one per traced run."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._children: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self):
        self.stats = {}

    def stat(self, name: str) -> SpanStats:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        return entry

    def wrap(self, name: str, fn, on_result=None, on_error=None, wrap_result=None):
        children = self._children
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer.stat(name), exc)
                raise
            finally:
                elapsed = clock() - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                entry = tracer.stat(name)
                entry.calls += 1
                entry.self_s += elapsed - inner[0]
            if on_result is not None:
                on_result(tracer.stat(name), args, kwargs, result)
            if wrap_result is not None:
                result = tracer.wrap_compiled(wrap_result, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def wrap_compiled(self, name: str, fn):
        """Wrap a compiled expression; counts the rows it evaluates."""

        def rows(stats, args, kwargs, result):
            stats.add("rows", math.prod(np.shape(args[0])[:-1]))

        return self.wrap(name, fn, on_result=rows)

    def install(self):
        """Wrap every target at each of its call sites."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = []
        for target in TARGETS:
            found = sites(target)
            if not found:
                self.missing.append(f"{target.module}.{target.attr}")
            for module in found:
                plan.append((module, target))
        for module, target in plan:
            original = getattr(module, target.attr)
            self._saved.append((module, target.attr, original))
            setattr(
                module,
                target.attr,
                self.wrap(
                    target.metric,
                    original,
                    target.on_result,
                    target.on_error,
                    target.wrap_result,
                ),
            )

    def restore(self):
        """Put back every original object; raises if one cannot be restored."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        bad = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr) is not original
        ]
        self._saved = []
        if bad:
            raise RuntimeError(f"could not restore {bad}")

    def total_self_s(self) -> float:
        return sum(entry.self_s for entry in self.stats.values())


def untouched() -> list[str]:
    """Module attributes that still hold a tracing wrapper (should be none)."""
    left = []
    for module in _ordnash_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                left.append(f"{module.__name__}.{attr}")
    return left
