"""Tests of the benchmark itself: corrupted outputs are failures, seeds change
inputs but not metric names, and tracing survives a missing function.

Run from the root of a source checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qkdopt  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_seeds_differ_in_inputs_not_in_metric_names():
    first = [workloads.draw_scalar(random.Random(1)) for _ in range(3)]
    second = [workloads.draw_scalar(random.Random(2)) for _ in range(3)]
    assert first != second
    names = {m["name"] for m in SPEC["end_to_end"]}
    for seed in ("1", "2"):
        doc = result_of(bench("--workload", "scalar-rate", "--seed", seed, "--seconds", "1", "--trace", "0"))
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert set(doc["metrics"]) == names
    doc = result_of(bench("--workload", "scalar-rate", "--seed", "2", "--seconds", "1", "--trace", "1"))
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def optimize_block(tmp_path: Path, reference: dict, scale: float) -> workloads.CliBlock:
    """A finished ``optimize`` op whose record holds the oracle's best split,
    with its rate multiplied by ``scale``."""
    level = 1e-18
    best = reference["oracle200"]["dv"][workloads.level_key(level)]
    budget = qkdopt.reconstruct_sec(level, best["best_eps_pe"], best["best_eps_cor"], qkdopt.Family.DV)
    rate = workloads.default_rate("dv", budget) * scale
    record = {
        "family": "dv", "eps_total": level, "feasible": True,
        "eps_pe": budget.eps_pe, "eps_cor": budget.eps_cor, "eps_sec": budget.eps_sec,
        "rate_bps_raw": rate, "rate_bps": max(rate, 0.0),
        "evaluations": workloads.DEFAULT_CGA_EVALS, "reseeds": 0,
    }
    out = tmp_path / "optimize.json"
    out.write_text(json.dumps(record))
    call = workloads.Call([], "optimize", "dv", level, out)
    return workloads.CliBlock([call], workloads.DEFAULT_CGA_EVALS, reference, {})


def test_rate_scaled_by_two_percent_fails_the_op(tmp_path, reference):
    failed, _ = optimize_block(tmp_path, reference, 1.0).check()
    assert failed == []
    failed, _ = optimize_block(tmp_path, reference, 1.02).check()
    assert len(failed) == 1 and "re-evaluated" in failed[0]


def test_scaled_scalar_rate_fails_only_that_evaluation(reference):
    rng = random.Random(workloads.DEFAULT_SEED)
    inputs = [workloads.draw_scalar(rng) for _ in range(4)]
    block = workloads.ScalarBlock(inputs, 0, reference["scalar_rate"]["breakdowns"])
    block.run()
    assert block.check()[0] == []
    budget, bd = block.results[2]
    block.results[2] = (budget, dataclasses.replace(bd, rate_bits_per_sec=bd.rate_bits_per_sec * 1.02))
    failed, _ = block.check()
    assert len(failed) == 1 and failed[0].startswith("evaluation 2 ")


def test_truncated_oracle_csv_fails_the_op(tmp_path, reference):
    level = 1e-18
    out = tmp_path / "grid.csv"
    argv = ["oracle", "--family", "dv", "--eps", repr(level), "--points", "200",
            "--format", "csv", "--out", str(out)]
    block = workloads.CliBlock([workloads.Call(argv, "oracle", "dv", level, out, "csv")], 40000, reference, {})
    block.run()
    assert block.check()[0] == []
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-100]))
    failed, _ = block.check()
    assert len(failed) == 1 and "rows" in failed[0]


def test_nonzero_exit_is_a_failed_op(tmp_path, reference):
    out = tmp_path / "bad.json"
    argv = ["optimize", "--family", "dv", "--eps", "2", "--format", "json", "--out", str(out)]
    block = workloads.CliBlock([workloads.Call(argv, "optimize", "dv", 2.0, out)], 0, reference, {})

    class OneBlock:
        def block(self, index):
            return block

    loop = run.Loop(OneBlock(), seconds=0.0)
    loop.run()
    assert loop.attempted == 1
    assert len(loop.failures) == 1 and "exit 1" in loop.failures[0]


def small_run() -> qkdopt.OptimizationResult:
    params = qkdopt.DvProtocolParams()
    return qkdopt.run(
        qkdopt.CgaConfig(population=12, iterations=5, rng_seed=3), 1e-17, qkdopt.Family.DV,
        lambda budget: qkdopt.dv_key_rate(params, budget).rate_bits_per_sec,
    )


def test_tracer_lists_a_missing_function_and_restores_originals():
    original_pair = qkdopt.cga.pair
    spans = tracing.SPANS + (("cga.evaluate", "cga", "no_such_function"),)
    tracer = tracing.Tracer(spans=spans)
    assert tracer.missing == ["cga.no_such_function"]
    tracer.install()
    try:
        assert qkdopt.cga.pair is not original_pair
        traced = small_run()
    finally:
        tracer.remove()
    assert qkdopt.cga.pair is original_pair
    assert traced.best_fitness == small_run().best_fitness
    st = tracer.stats
    assert st["cga.run"].calls == 1 and st["cga.evaluate"].calls == 0
    assert st["dv_rate"].calls > 0 and st["budget.reconstruct"].calls > st["dv_rate"].calls - 1
    assert st["cga.run"].gen_of_best and st["cga.softmax"].calls == st["cga.pair"].calls


def test_traced_child_time_stays_within_parent_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        small_run()
    finally:
        tracer.remove()
    assert tracer.nesting_errors == 0
    for stats in tracer.stats.values():
        assert 0.0 <= stats.child_seconds <= stats.seconds
    run_s = tracer.stats["cga.run"].seconds
    assert 0.0 < tracer.layer_self_seconds("cga") < run_s
    children = sum(tracer.layer_self_seconds(layer) for layer in ("budget", "dv_rate"))
    assert tracer.layer_self_seconds("cga") + children == pytest.approx(run_s, rel=1e-9)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scalar-rate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
