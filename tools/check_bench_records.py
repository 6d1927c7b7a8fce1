"""Check every ``BENCH_<n>.json`` at the repository root.

Run with no arguments::

    python3 tools/check_bench_records.py

Each file must name its git revision, its Python and numpy versions, its CPU
count and the command that made it; every run's line must be a correct
benchmark result; and each median must be the median of its workload's
untraced runs, as ``tools/bench_record.py`` writes it.  Exits 1 naming each
problem, 0 when every file holds.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems_of(doc: dict) -> list[str]:
    problems = []
    if not re.fullmatch(r"[0-9a-f]{40}", str(doc.get("revision"))):
        problems.append(f"revision is not a git commit: {doc.get('revision')!r}")
    for key in ("python", "numpy", "command"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            problems.append(f"{key} is missing")
    if not isinstance(doc.get("cpu_count"), int) or doc["cpu_count"] < 1:
        problems.append(f"cpu_count is not a positive integer: {doc.get('cpu_count')!r}")
    runs = doc.get("runs") or []
    if not runs:
        problems.append("no runs")
    values: dict = {}  # workload -> metric -> untraced values
    for run in runs:
        result = json.loads(run["line"])
        if result["correct"] is not True:
            problems.append(f"run {' '.join(run['argv'])} is not correct")
        if not run["trace"]:
            for name, metric in result["metrics"].items():
                values.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    medians = doc.get("medians") or {}
    if set(medians) != set(values):
        problems.append(f"medians cover {sorted(medians)}, the untraced runs {sorted(values)}")
    for workload, metrics in medians.items():
        for name, metric in metrics.items():
            of_runs = values.get(workload, {}).get(name)
            if not of_runs or metric["value"] != statistics.median(of_runs):
                median = metric["value"]
                problems.append(f"{workload} {name}: {median} is not the median of {of_runs}")
    return problems


def main() -> int:
    paths = sorted(ROOT.glob("BENCH_*.json"))
    failed = False
    for path in paths:
        for problem in problems_of(json.loads(path.read_text(encoding="utf-8"))):
            print(f"{path.name}: {problem}")
            failed = True
    print(f"checked {len(paths)} file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
