"""Write the next ``BENCH_<n>.json`` at the repository root from benchmark runs.

Run from anywhere, with no arguments::

    python3 tools/bench_record.py

It runs the unmodified ``bench/run.py`` of this checkout for every workload
that ``BENCHMARK.json`` lists, untraced, with seeds 1, 2 and 3, each for
``BENCHMARK.json``'s ``run_seconds``, then one traced ``sweep-small-pop`` run
with seed 1.  The file holds each run's arguments and the JSON line it
printed, the median of each metric over each workload's untraced runs, the
git revision, the Python and numpy versions, the CPU count,
``code.src_lines`` and this command.  ``tools/check_bench_records.py``
checks every such file.  It refuses to run when ``src/`` or ``bench/``
differ from the revision, as the file would then not describe it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACED = ("sweep-small-pop", 1)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run: its arguments and the JSON line it printed last."""
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, check=True, capture_output=True, text=True
    )
    line = done.stdout.splitlines()[-1]
    if json.loads(line)["correct"] is not True:
        sys.exit(f"{' '.join(args)} was not correct:\n{done.stdout}")
    return {"argv": ["python3", *args], "workload": workload, "seed": seed, "trace": trace,
            "line": line}


def medians(runs: list[dict]) -> dict:
    """Each workload's median of each metric over its untraced runs."""
    out: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs if not run["trace"]):
        metrics = [json.loads(run["line"])["metrics"] for run in runs
                   if run["workload"] == workload and not run["trace"]]
        out[workload] = {
            name: {"value": statistics.median(m[name]["value"] for m in metrics),
                   "unit": metrics[0][name]["unit"]}
            for name in metrics[0]
        }
    return out


def main() -> int:
    if git("status", "--porcelain", "--", "src", "bench"):
        sys.exit("src/ or bench/ differ from the revision: commit them first")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = [bench_run(w["name"], seed, seconds, 0) for seed in SEEDS for w in spec["workloads"]]
    runs.append(bench_run(*TRACED, seconds, 1))
    traced = json.loads(runs[-1]["line"])["metrics"]
    taken = [int(m[1]) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    path = ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    record = {
        "revision": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "code.src_lines": traced["code.src_lines"]["value"],
        "command": "python3 tools/bench_record.py",
        "runs": runs,
        "medians": medians(runs),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
