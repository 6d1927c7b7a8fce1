"""Per-layer tracing from outside the package.

The tracer replaces each traced public function with a timing wrapper in
every ``qkdopt`` module that holds it, under whatever name that module uses
(``harness`` calls ``cga.run`` as ``run_cga``), so the wrapper sees the calls
the package makes between its own modules.  Nothing under ``src/`` changes:
:meth:`Tracer.install` patches module attributes and :meth:`Tracer.remove`
puts the originals back.

A function that no longer exists under its traced name is listed in
``missing`` and reads as zero calls; refactors that remove a function do not
break the traced run.  Spans nest through a stack; a span's exclusive time is
its duration minus its direct children's, and a layer's self time is the sum
of the exclusive times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Traced functions as (span name, defining module, attribute).  The layer
#: of a span is its defining module.
SPANS = (
    ("cli.main", "cli", "main"),
    ("harness.run_sweep", "harness", "run_sweep"),
    ("harness.emit", "harness", "emit_results"),
    ("harness.baselines", "budget", "baseline_budgets"),
    ("cga.run", "cga", "run"),
    ("cga.select", "cga", "select"),
    ("cga.pair", "cga", "pair"),
    ("cga.softmax", "cga", "softmax_probabilities"),
    ("cga.crossover", "cga", "crossover"),
    ("cga.mutate", "cga", "mutate"),
    ("budget.reconstruct", "budget", "reconstruct_sec"),
    ("budget.map_gene", "budget", "map_gene"),
    ("dv_rate", "dv_rate", "dv_key_rate"),
    ("cv_rate", "cv_rate", "cv_key_rate"),
    ("oracle.grid_search", "oracle", "grid_search"),
    ("oracle.csv", "oracle", "grid_csv_text"),
)

LAYERS = ("cli", "harness", "cga", "budget", "dv_rate", "cv_rate", "oracle")


@dataclass
class SpanStats:
    layer: str
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    raised: int = 0
    returned_none: int = 0
    out_chars: int = 0
    cells: int = 0
    feasible: int = 0
    reseeds: int = 0
    gen_of_best: list[int] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


def _record_result(stats: SpanStats, result: Any) -> None:
    """Counts read off a traced function's return value."""
    if result is None:
        stats.returned_none += 1
    elif isinstance(result, str):
        stats.out_chars += len(result)
    if hasattr(result, "feasible_count"):
        stats.cells += len(getattr(result, "cells", ()))
        stats.feasible += result.feasible_count
    history = getattr(result, "fitness_history", None)
    if history:
        best = getattr(result, "best_fitness", history[-1])
        first = next((i for i, f in enumerate(history) if f >= best), len(history) - 1)
        stats.gen_of_best.append(first)
        stats.reseeds += getattr(result, "reseeds", 0)


class Tracer:
    """Aggregated spans of every traced call made while installed."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = {name: SpanStats(layer) for name, layer, _ in spans}
        self.missing: list[str] = []
        self.nesting_errors = 0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Callable]] = []
        for name, module, attr in spans:
            mod = importlib.import_module(f"qkdopt.{module}")
            if not callable(getattr(mod, attr, None)):
                self.missing.append(f"{module}.{attr}")

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.seconds += duration
                stats.child_seconds += frame[0]
                if frame[0] > duration:
                    self.nesting_errors += 1
                if stack:
                    stack[-1][0] += duration
            _record_result(stats, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "qkdopt" or key.startswith("qkdopt.")
        ]
        for name, module, attr in self.spans:
            original = getattr(importlib.import_module(f"qkdopt.{module}"), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def remove(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_self_seconds(self, layer: str) -> float:
        return sum(s.self_seconds for s in self.stats.values() if s.layer == layer)
