"""Check ``bench/reference.json`` against the package.

Run from the root of a source checkout::

    python3 tools/check_reference.py

Every entry is derived again as ``bench/make_reference.py`` made it: the grid
oracle's table at 200 and at 60 points per axis, and the ``scalar-rate``
breakdowns.  A count, a name or a seed must match exactly; every other number,
the best cells included, within the relative tolerance at which the benchmark
checks its outputs against the file.  Prints how many entries were checked and
the largest relative difference found, and exits 1 naming each entry that
differs, 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import make_reference  # noqa: E402  (puts the package's source on the path)
import workloads  # noqa: E402


def leaves(doc, path=()):
    """Each value of ``doc`` that is not a dict or a list, with its key path."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path, doc
        return
    for key, value in items:
        yield from leaves(value, (*path, key))


def relative_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def main() -> int:
    stored = workloads.load_reference()
    seed, count = workloads.DEFAULT_SEED, make_reference.SCALAR_REFERENCE_COUNT
    with contextlib.redirect_stdout(io.StringIO()):  # the generator's progress lines
        derived = {
            "oracle200": make_reference.oracle_table(workloads.ORACLE_POINTS),
            "oracle60": make_reference.oracle_table(workloads.sweep_config("dv")["oracle_points"]),
            "scalar_rate": {
                "seed": seed,
                "breakdowns": make_reference.scalar_breakdowns(seed, count),
            },
        }
    want = dict(leaves({key: stored.get(key) for key in derived}))
    got = dict(leaves(derived))
    missing = sorted(want.keys() - got.keys(), key=str)
    problems = [f"{'/'.join(map(str, path))}: not derived" for path in missing]
    worst, worst_at = 0.0, None
    for path, value in got.items():
        name = "/".join(map(str, path))
        if path not in want:
            problems.append(f"{name}: missing from the file")
        elif isinstance(value, float) and type(want[path]) is float:
            if (diff := relative_difference(value, want[path])) > worst:
                worst, worst_at = diff, name
            if not diff <= workloads.REL:
                problems.append(f"{name}: {want[path]!r} in the file, {value!r} derived")
        elif value != want[path] or type(value) is not type(want[path]):
            problems.append(f"{name}: {want[path]!r} in the file, {value!r} derived")
    at = f" at {worst_at}" if worst_at else ""
    print(f"checked {len(got)} entries; largest relative difference {worst:.3g}{at}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
