"""Byte-for-byte behaviour goldens of the command line.

Each file under ``tests/golden/`` is the exact output of one seeded ``qkdopt``
invocation listed in :data:`CASES`.  A change that alters any byte — a
different random stream, a reordered float operation, a changed format —
fails here.  A deliberate change regenerates the files with::

    PYTHONPATH=src python3 tests/test_golden.py

and records the reason (and the largest relative difference) in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from qkdopt.budget import Family
from qkdopt.cga import CgaConfig, run
from qkdopt.cli import main
from qkdopt.dv_rate import DvProtocolParams, dv_key_rate

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sweep(family: str, fmt: str, *extra: str) -> list[str]:
    ini = str(GOLDEN / f"sweep_{family}.ini")
    return ["sweep", "--config", ini, *extra, "--format", fmt]


#: ``qkdopt rate`` inputs per family: the total, and one explicit split.
_RATE = {
    "dv": ("1e-17", ["--eps-pe", "2e-18", "--eps-cor", "3e-19"]),
    "cv": ("1e-9", ["--eps-pe", "1e-10", "--eps-cor", "2e-12"]),
}
_EXT = {"text": "txt", "csv": "csv", "json": "json"}


def _rate_cases() -> dict[str, list[str]]:
    cases = {}
    for family, (total, explicit) in _RATE.items():
        for split, extra in (("sym", []), ("split", explicit)):
            for fmt, ext in _EXT.items():
                cases[f"rate_{family}_{split}.{ext}"] = [
                    "rate", "--family", family, "--eps", total, *extra, "--format", fmt,
                ]
    return cases


#: Golden file name -> command line (without ``--out``).
CASES = {
    "sweep_dv.csv": _sweep("dv", "csv"),
    "sweep_dv.json": _sweep("dv", "json"),
    "sweep_cv.csv": _sweep("cv", "csv"),
    "sweep_cv.json": _sweep("cv", "json"),
    "optimize_dv.json": [
        "optimize", "--family", "dv", "--eps", "1e-18", "--seed", "1", "--format", "json",
    ],
    "optimize_cv.json": [
        "optimize", "--family", "cv", "--eps", "1e-9", "--seed", "1", "--format", "json",
    ],
    "oracle_dv.csv": ["oracle", "--family", "dv", "--eps", "1e-18", "--points", "20"],
    "oracle_cv.csv": ["oracle", "--family", "cv", "--eps", "1e-9", "--points", "20"],
    "oracle_dv.json": [
        "oracle", "--family", "dv", "--eps", "1e-18", "--points", "20", "--format", "json",
    ],
    "oracle_cv.json": [
        "oracle", "--family", "cv", "--eps", "1e-9", "--points", "20", "--format", "json",
    ],
    "sweep_oracle_dv.csv": _sweep("dv", "csv", "--oracle"),
    "sweep_oracle_dv.json": _sweep("dv", "json", "--oracle"),
    "sweep_oracle_cv.csv": _sweep("cv", "csv", "--oracle"),
    "sweep_oracle_cv.json": _sweep("cv", "json", "--oracle"),
    "optimize_cv_paper_sign_xi.json": [
        "optimize", "--family", "cv", "--eps", "1e-9", "--seed", "1", "--paper-sign-xi",
        "--format", "json",
    ],
    **_rate_cases(),
}


def _produce(name: str, out: Path) -> None:
    code = main([*CASES[name], "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: qkdopt exited {code}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    _produce(name, out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}"
    )


def test_the_library_run_is_the_optimize_golden():
    # `optimize --seed 1` and the library's run at the same seed are one run
    doc = json.loads((GOLDEN / "optimize_dv.json").read_text(encoding="utf-8"))
    params = DvProtocolParams()
    result = run(
        CgaConfig(rng_seed=1), 1e-18, Family.DV,
        lambda budget: dv_key_rate(params, budget).rate_bits_per_sec,
    )
    names = ("eps_pe", "eps_cor", "eps_sec")
    assert {k: getattr(result.best_budget, k) for k in names} == {k: doc[k] for k in names}
    assert result.best_fitness == doc["rate_bps_raw"]


if __name__ == "__main__":
    for case in sorted(CASES):
        _produce(case, GOLDEN / case)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
