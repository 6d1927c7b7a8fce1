"""qkdopt benchmark entry point.

Run from the root of a source checkout::

    python3 bench/run.py --workload sweep-small-pop --seed 1 --seconds 55 --trace 0

It imports the package from ``src/`` of the same checkout, runs one seeded
closed-loop workload (see ``workloads.py``) for about ``--seconds`` seconds,
checks every output, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each
block runs once plain and once under the tracer of ``tracing.py``, and the
metrics are the per-layer ones.  All timing is process-level wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter start-ups per run, spread over the run; ``setup_s`` is
#: their median.  Their time does not count towards ``--seconds``.
SETUP_SAMPLES = 16
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import qkdopt.cli; qkdopt.cli.build_parser()"
)


def import_package() -> None:
    """Import ``qkdopt`` from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qkdopt

    if Path(qkdopt.__file__).resolve().parent != SRC / "qkdopt":
        raise ImportError(f"qkdopt imported from {qkdopt.__file__}, not {SRC}")


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, the start-up a user pays before the first op."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], check=True, cwd=ROOT)
    return time.perf_counter() - start


class Loop:
    """Closed loop over a workload's blocks, with or without a tracer."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.block_seconds: list[float] = []  # plain block time per op
        self.plain_seconds = 0.0
        self.traced_seconds = 0.0
        self.evals = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: list[float] = []
        self.out_bytes = 0
        self.traced_ops = 0
        self.setup_seconds: list[float] = []
        self.peak_rss_kb = 0

    def _check(self, block):
        failed, outcome = block.check()
        self.attempted += block.ops
        self.failures += failed
        self.gaps += outcome.gaps
        return outcome

    def run(self) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            # Plain runs sample start-up between blocks, spread over the run.
            if self.tracer is None:
                busy = time.perf_counter() - start - sum(self.setup_seconds)
                taken = len(self.setup_seconds)
                while taken < SETUP_SAMPLES and taken * self.seconds / SETUP_SAMPLES <= busy:
                    self.setup_seconds.append(setup_sample())
                    taken += 1
            block = self.workload.block(index)
            t0 = time.perf_counter()
            block.run()
            elapsed = time.perf_counter() - t0
            self.block_seconds.append(elapsed / block.ops)
            self.plain_seconds += elapsed
            self.evals += block.evals
            if index == 0:
                # Read before any check runs, so check memory never counts.
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._check(block)
            if self.tracer is not None:
                self.tracer.install()
                t0 = time.perf_counter()
                try:
                    block.run()
                finally:
                    self.traced_seconds += time.perf_counter() - t0
                    self.tracer.remove()
                self.traced_ops += block.ops
                self.out_bytes += self._check(block).out_bytes
            index += 1
            busy = time.perf_counter() - start - sum(self.setup_seconds)
            # Stop before a block that would end past the deadline.
            if busy + busy / index > self.seconds:
                break
        while self.tracer is None and len(self.setup_seconds) < SETUP_SAMPLES:
            self.setup_seconds.append(setup_sample())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop) -> dict:
    return {
        "setup_s": metric(statistics.median(loop.setup_seconds), "s"),
        "op_s.p50": metric(statistics.median(loop.block_seconds), "s"),
        "evals_per_s": metric(loop.evals / loop.plain_seconds, "1/s"),
        "peak_rss_mb": metric(loop.peak_rss_kb / 1024.0, "MB"),
    }


def src_lines() -> dict[str, int]:
    return {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((SRC / "qkdopt").glob("*.py"))
    }


def per_layer(loop: Loop, tracer) -> dict:
    """Per-layer readings of the traced executions, per traced op unless the
    name says otherwise (``us_per_call``, ``_frac``, ``.max``, ``code.``)."""
    from tracing import LAYERS

    ops = max(loop.traced_ops, 1)
    st = tracer.stats
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def per_op(name, value, unit):
        put(name, value / ops, unit)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    per_op("cga.pair.calls", st["cga.pair"].calls, "count")
    per_op("cga.pair.self_s", st["cga.pair"].self_seconds, "s")
    per_op("cga.softmax.calls", st["cga.softmax"].calls, "count")
    per_op("cga.softmax.s", st["cga.softmax"].seconds, "s")
    per_op("cga.select.s", st["cga.select"].seconds, "s")
    per_op("cga.crossover.calls", st["cga.crossover"].calls, "count")
    per_op("cga.crossover.s", st["cga.crossover"].seconds, "s")
    per_op("cga.mutate.s", st["cga.mutate"].seconds, "s")
    runs = st["cga.run"]
    per_op("cga.run.calls", runs.calls, "count")
    per_op("cga.run.s", runs.seconds, "s")
    per_op("cga.self_s", tracer.layer_self_seconds("cga"), "s")
    put("cga.gen_of_best", statistics.median(runs.gen_of_best) if runs.gen_of_best else 0, "generation")
    per_op("cga.reseeds", runs.reseeds, "count")
    put("cga.gap_rel.max", max(loop.gaps) if loop.gaps else 0.0, "ratio")
    for rate in ("dv_rate", "cv_rate"):
        s = st[rate]
        per_op(f"{rate}.calls", s.calls, "count")
        per_op(f"{rate}.s", s.seconds, "s")
        put(f"{rate}.us_per_call", 1e6 * ratio(s.seconds, s.calls), "us")
        per_op(f"{rate}.raised", s.raised, "count")
    rec = st["budget.reconstruct"]
    per_op("budget.reconstruct.calls", rec.calls, "count")
    per_op("budget.reconstruct.s", rec.seconds, "s")
    put("budget.infeasible_frac", ratio(rec.returned_none, rec.calls), "ratio")
    per_op("budget.map_gene.calls", st["budget.map_gene"].calls, "count")
    per_op("budget.map_gene.s", st["budget.map_gene"].seconds, "s")
    grid = st["oracle.grid_search"]
    per_op("oracle.grid_search.calls", grid.calls, "count")
    per_op("oracle.grid_search.s", grid.seconds, "s")
    per_op("oracle.self_s", tracer.layer_self_seconds("oracle"), "s")
    per_op("oracle.cells", grid.cells, "count")
    put("oracle.feasible_frac", ratio(grid.feasible, grid.cells), "ratio")
    per_op("oracle.csv.s", st["oracle.csv"].seconds, "s")
    per_op("oracle.csv.bytes", st["oracle.csv"].out_chars, "B")
    per_op("cli.main.s", st["cli.main"].seconds, "s")
    per_op("cli.self_s", tracer.layer_self_seconds("cli"), "s")
    per_op("cli.out_bytes", loop.out_bytes, "B")
    per_op("harness.run_sweep.s", st["harness.run_sweep"].seconds, "s")
    per_op("harness.self_s", tracer.layer_self_seconds("harness"), "s")
    per_op("harness.emit.s", st["harness.emit"].seconds, "s")
    per_op("harness.emit.bytes", st["harness.emit"].out_chars, "B")
    per_op("harness.baselines.calls", st["harness.baselines"].calls, "count")
    put("trace.overhead_frac", loop.traced_seconds / loop.plain_seconds - 1.0, "ratio")
    put("trace.missing", len(tracer.missing), "count")
    put("trace.nesting_errors", tracer.nesting_errors, "count")
    put("op.count", loop.attempted, "count")
    put("fail_frac", len(loop.failures) / loop.attempted, "ratio")
    lines = src_lines()
    put("code.src_lines", sum(lines.values()), "lines")
    for module in ("__init__",) + LAYERS:
        put(f"code.src_lines.{module}", lines.get(module, 0), "lines")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as err:
        print(f"error: cannot import the package from {SRC}: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    reference = workloads.load_reference()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        workload = workloads.WORKLOADS[args.workload](seed, reference, tmp)
        tracer = Tracer() if args.trace else None
        loop = Loop(workload, args.seconds, tracer)
        loop.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            tmp_root.rmdir()

    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    if tracer is not None and tracer.missing:
        print("traced names missing: " + ", ".join(tracer.missing))
    metrics = per_layer(loop, tracer) if tracer else end_to_end(loop)
    print(
        f"# {args.workload} seed={seed} ops={loop.attempted} blocks={len(loop.block_seconds)}"
        f" failed={len(loop.failures)} plain_s={loop.plain_seconds:.3f}"
    )
    correct = not loop.failures and (tracer is None or tracer.nesting_errors == 0)
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
