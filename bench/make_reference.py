"""Regenerate ``reference.json``, the data the benchmark checks outputs against.

Run from the root of a source checkout::

    python3 bench/make_reference.py

It holds, for every budget level a workload can draw, the best rate and the
feasible-cell count of the grid oracle at 200 and at 60 points per axis, and
the ``scalar-rate`` breakdowns of the first evaluations at the default seed.
The commit the data was made from is recorded with it.  Regenerate only when a
change is meant to alter these numbers, and say why in the change.
"""

from __future__ import annotations

import json
import platform
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import qkdopt  # noqa: E402
import workloads  # noqa: E402

#: Leading ``scalar-rate`` evaluations recorded at the default seed.
SCALAR_REFERENCE_COUNT = 200


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def oracle_table(points: int) -> dict:
    table = {}
    for family, levels in workloads.LEVELS.items():
        table[family] = {}
        for level in levels:
            grid = qkdopt.grid_search(
                qkdopt.GridSpec(points_per_axis=points),
                level,
                qkdopt.Family(family),
                lambda budget: workloads.default_rate(family, budget),
            )
            best = grid.best_budget
            table[family][workloads.level_key(level)] = {
                "best_rate_bps": grid.best_fitness,
                "feasible_count": grid.feasible_count,
                "best_eps_pe": best.eps_pe,
                "best_eps_cor": best.eps_cor,
            }
            print(f"oracle {points}: {family} {level!r} {grid.best_fitness!r}", flush=True)
    return table


def scalar_breakdowns(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = workloads.draw_scalar(rng)
        budget = qkdopt.reconstruct_sec(x.total, x.eps_pe, x.eps_cor, x.family)
        breakdown = workloads.key_rate(x.family, x.params, budget)
        out.append({"family": x.family.value, "total": x.total, "breakdown": asdict(breakdown)})
    return out


def main() -> None:
    doc = {
        "generated_from": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "oracle200": oracle_table(workloads.ORACLE_POINTS),
        "oracle60": oracle_table(workloads.sweep_config("dv")["oracle_points"]),
        "scalar_rate": {
            "seed": workloads.DEFAULT_SEED,
            "breakdowns": scalar_breakdowns(workloads.DEFAULT_SEED, SCALAR_REFERENCE_COUNT),
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
