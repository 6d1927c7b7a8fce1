"""Seeded workloads of the qkdopt benchmark: inputs, operations and output checks.

Every workload is a closed loop of one client: the next block of work starts
only when the previous one has returned.  A block is the timed unit.  For the
command-line workloads a block is one op, a *round* that makes one call per
variant (family, and for the oracle also output format), so every op does the
same mix of work whatever the seed; for ``scalar-rate`` a block is a fixed
number of single-split evaluations, each of them an op.

The seed only picks inputs from fixed menus (budget levels, optimizer seeds,
protocol parameters and splits).  Checks run outside the timed region and
compare every output with a re-evaluation through the library and with the
reference data in ``reference.json``, so a fast wrong answer is a failure.
"""

from __future__ import annotations

import configparser
import csv
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import qkdopt

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Budget levels the command-line workloads draw from: the package's default
#: sweep levels (one per decade) plus DV at 1e-18, the paper's tightest level.
LEVELS = {
    "dv": (1e-18,) + tuple(10.0**e for e in range(-17, -4)),
    "cv": tuple(10.0**e for e in range(-12, -4)),
}
#: Levels ``qkdopt sweep`` uses when its config names none.
SWEEP_LEVELS = {"dv": LEVELS["dv"][1:], "cv": LEVELS["cv"]}

FAMILIES = ("dv", "cv")
#: Population times generations of the default CGA config (200 x 300).
DEFAULT_CGA_EVALS = 200 * 300
ORACLE_POINTS = 200
#: Relative tolerance of every numeric comparison against a re-evaluation or
#: the reference data.
REL = 1e-12
#: Single-split evaluations per timed block of ``scalar-rate``.
SCALAR_BLOCK = 500
#: Default seed; ``reference.json`` holds the ``scalar-rate`` breakdowns of
#: the first evaluations drawn from it.
DEFAULT_SEED = 1

ORACLE_CSV_HEADER = ["eps_pe", "eps_cor", "eps_sec", "feasible", "rate_bits_per_sec"]


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


def level_key(level: float) -> str:
    return repr(level)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def cli_main(argv: list[str]) -> int:
    # Looked up at call time, so the traced run sees its wrapper.
    return importlib.import_module("qkdopt.cli").main(argv)


def default_rate(family: str, budget: Any) -> float:
    """Rate of ``budget`` under the family's default protocol parameters."""
    if family == "dv":
        return qkdopt.dv_key_rate(qkdopt.DvProtocolParams(), budget).rate_bits_per_sec
    return qkdopt.cv_key_rate(qkdopt.CvProtocolParams(), budget).rate_bits_per_sec


@dataclass
class Outcome:
    """What the checks of one op found.  ``gaps`` holds the optimizer's
    relative shortfall against the reference oracle best, one per optimized
    level; ``out_bytes`` the size of the files the op wrote."""

    problems: list[str] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    out_bytes: int = 0


def check_budget(
    out: Outcome,
    where: str,
    family: str,
    total: float,
    eps_pe: float,
    eps_cor: float,
    eps_sec: float,
    rate: float,
) -> None:
    """Closure of a reported budget, and its rate against a re-evaluation."""
    fam = qkdopt.Family(family)
    closure = fam.pe_weight * eps_pe + eps_cor + eps_sec
    if not abs(closure - total) <= REL * total:
        out.problems.append(f"{where}: budget does not close ({closure!r} vs {total!r})")
        return
    budget = qkdopt.reconstruct_sec(total, eps_pe, eps_cor, fam)
    if budget is None or not close(budget.eps_sec, eps_sec):
        out.problems.append(f"{where}: reported eps_sec {eps_sec!r} is not the remainder")
        return
    again = default_rate(family, budget)
    if not close(rate, again):
        out.problems.append(f"{where}: reported rate {rate!r} != re-evaluated {again!r}")


def check_against_oracle(
    out: Outcome, where: str, reference: dict, family: str, total: float, rate: float
) -> None:
    """The acceptance rule of criterion 06: at least the 200x200 oracle best
    minus ``max(1e-9, 1%)`` of it."""
    best = reference["oracle200"][family][level_key(total)]["best_rate_bps"]
    if not rate >= best - max(1e-9, 0.01 * abs(best)):
        out.problems.append(f"{where}: optimized {rate!r} below oracle best {best!r} - 1%")
    out.gaps.append((best - rate) / abs(best))


# --- command-line workloads --------------------------------------------------


@dataclass
class Call:
    """One ``qkdopt`` invocation and what its output must satisfy."""

    argv: list[str]
    kind: str
    family: str
    level: float | None
    out_path: Path
    fmt: str = "json"


class CliBlock:
    """One op: a round of ``qkdopt`` calls, one per variant, run in order."""

    ops = 1

    def __init__(self, calls: list[Call], evals: int, reference: dict, config: dict):
        self.calls = calls
        self.evals = evals
        self.reference = reference
        self.config = config
        self.error: str | None = None

    def run(self) -> None:
        self.error = None
        for call in self.calls:
            call.out_path.unlink(missing_ok=True)
            try:
                code = cli_main(call.argv)
            except Exception as err:  # the op fails; the loop goes on
                self.error = f"{' '.join(call.argv[:5])}: {type(err).__name__}: {err}"
                return
            if code != 0:
                self.error = f"{' '.join(call.argv[:5])}: exit {code}"
                return

    def check(self) -> tuple[list[str], Outcome]:
        out = Outcome()
        if self.error is not None:
            out.problems.append(self.error)
            return [self.error], out
        for call in self.calls:
            try:
                text = call.out_path.read_text()
            except OSError as err:
                out.problems.append(f"{call.kind}: no output: {err}")
                continue
            out.out_bytes += call.out_path.stat().st_size
            where = f"{call.kind} {call.family} {call.level!r} {call.fmt}"
            try:
                CHECKS[call.kind](out, where, call, text, self.reference, self.config)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                out.problems.append(f"{where}: malformed output: {type(err).__name__}: {err}")
        return ([f"op: {out.problems[0]}"] if out.problems else []), out


def check_optimize(out, where, call, text, reference, config) -> None:
    rec = json.loads(text)
    if rec["family"] != call.family or rec["eps_total"] != call.level:
        out.problems.append(f"{where}: record is for {rec['family']} {rec['eps_total']!r}")
        return
    if rec["feasible"] is not True:
        out.problems.append(f"{where}: no feasible split found")
        return
    if rec["evaluations"] != DEFAULT_CGA_EVALS:
        out.problems.append(f"{where}: {rec['evaluations']} evaluations, not {DEFAULT_CGA_EVALS}")
    rate = rec["rate_bps_raw"]
    if rec["rate_bps"] != max(rate, 0.0):
        out.problems.append(f"{where}: clamped rate {rec['rate_bps']!r} != max(raw, 0)")
    check_budget(out, where, call.family, call.level, rec["eps_pe"], rec["eps_cor"], rec["eps_sec"], rate)
    check_against_oracle(out, where, reference, call.family, call.level, rate)


def check_oracle(out, where, call, text, reference, config) -> None:
    ref = reference["oracle200"][call.family][level_key(call.level)]
    cells = ORACLE_POINTS * ORACLE_POINTS
    if call.fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader, None) != ORACLE_CSV_HEADER:
            out.problems.append(f"{where}: bad CSV header")
            return
        w = qkdopt.Family(call.family).pe_weight
        rows = feasible = 0
        best = None
        for row in reader:
            rows += 1
            if row[3] == "false":
                if row[2] or row[4]:
                    out.problems.append(f"{where}: infeasible row with values {row}")
                    return
                continue
            pe, cor, sec, rate = float(row[0]), float(row[1]), float(row[2]), float(row[4])
            if not abs(w * pe + cor + sec - call.level) <= REL * call.level:
                out.problems.append(f"{where}: row {row} does not close")
                return
            feasible += 1
            if best is None or rate > best[3]:
                best = (pe, cor, sec, rate)
        if rows != cells:
            out.problems.append(f"{where}: {rows} rows, not {cells}")
            return
        best_rate = None if best is None else best[3]
    else:
        doc = json.loads(text)
        if len(doc["cells"]) != cells:
            out.problems.append(f"{where}: {len(doc['cells'])} cells, not {cells}")
            return
        feasible = doc["feasible_count"]
        counted = sum(1 for c in doc["cells"] if c["feasible"])
        if counted != feasible:
            out.problems.append(f"{where}: feasible_count {feasible} but {counted} feasible cells")
        best_rate = doc["best_rate_bps"]
        top = max(c["rate_bits_per_sec"] for c in doc["cells"] if c["feasible"])
        if top != best_rate:
            out.problems.append(f"{where}: best_rate_bps {best_rate!r} != best cell {top!r}")
        b = doc["best_budget"]
        best = (b["eps_pe"], b["eps_cor"], b["eps_sec"], best_rate)
    if feasible != ref["feasible_count"]:
        out.problems.append(f"{where}: {feasible} feasible cells, reference {ref['feasible_count']}")
    if best_rate is None or not close(best_rate, ref["best_rate_bps"]):
        out.problems.append(f"{where}: best rate {best_rate!r}, reference {ref['best_rate_bps']!r}")
        return
    check_budget(out, where + " best", call.family, call.level, *best)


def check_sweep(out, where, call, text, reference, config) -> None:
    doc = json.loads(text)
    levels = SWEEP_LEVELS[call.family]
    if doc["family"] != call.family or tuple(doc["eps_levels"]) != levels:
        out.problems.append(f"{where}: sweep is for {doc['family']} {doc['eps_levels']}")
        return
    if len(doc["records"]) != len(levels):
        out.problems.append(f"{where}: {len(doc['records'])} records for {len(levels)} levels")
        return
    for total, rec in zip(levels, doc["records"]):
        at = f"{where} level {total!r}"
        if rec["error"] is not None or rec["budget_opt"] is None:
            out.problems.append(f"{at}: error {rec['error']!r}")
            continue
        raw, clamped = rec["rates_raw"], rec["rates_clamped"]
        for key in ("opt", "sym", "asym", "oracle"):
            if clamped[key] != max(raw[key], 0.0):
                out.problems.append(f"{at}: clamped {key} rate != max(raw, 0)")
        opt = rec["budget_opt"]
        check_budget(out, at, call.family, total, opt["eps_pe"], opt["eps_cor"], opt["eps_sec"], raw["opt"])
        check_against_oracle(out, at, reference, call.family, total, raw["opt"])
        history = rec["fitness_history"]
        if len(history) != config["iterations"] or history[-1] != raw["opt"]:
            out.problems.append(f"{at}: fitness history does not end at the optimum")
        if any(later < earlier for earlier, later in zip(history, history[1:])):
            out.problems.append(f"{at}: fitness history decreases")
        for label, key in (("symmetric", "sym"), ("asymmetric", "asym")):
            budget = dict(qkdopt.baseline_budgets(total, qkdopt.Family(call.family)))[label]
            if not close(raw[key], default_rate(call.family, budget)):
                out.problems.append(f"{at}: {label} baseline rate {raw[key]!r} is wrong")
        ref60 = reference["oracle60"][call.family][level_key(total)]["best_rate_bps"]
        if not close(raw["oracle"], ref60):
            out.problems.append(f"{at}: oracle rate {raw['oracle']!r}, reference {ref60!r}")


CHECKS = {"optimize": check_optimize, "oracle": check_oracle, "sweep": check_sweep}


class CliWorkload:
    """Seeded inputs of a command-line workload; one op per ``block``."""

    name = ""

    def __init__(self, seed: int, reference: dict, tmp: Path):
        self.rng = random.Random(seed)
        self.reference = reference
        self.tmp = tmp


class OptimizeTight(CliWorkload):
    """``qkdopt optimize --format json`` at the default CGA config, DV then CV."""

    name = "optimize-tight"

    def block(self, index: int) -> CliBlock:
        calls = []
        for family in FAMILIES:
            level = self.rng.choice(LEVELS[family])
            out = self.tmp / f"optimize-{family}.json"
            argv = ["optimize", "--family", family, "--eps", repr(level),
                    "--seed", str(self.rng.randrange(2**32)), "--format", "json",
                    "--out", str(out)]
            calls.append(Call(argv, "optimize", family, level, out))
        return CliBlock(calls, len(calls) * DEFAULT_CGA_EVALS, self.reference, {})


class OracleGrid(CliWorkload):
    """``qkdopt oracle`` at 200 points per axis: DV and CV, CSV and JSON."""

    name = "oracle-grid"

    def block(self, index: int) -> CliBlock:
        calls = []
        for fmt in ("csv", "json"):
            for family in FAMILIES:
                level = self.rng.choice(LEVELS[family])
                out = self.tmp / f"oracle-{family}.{fmt}"
                argv = ["oracle", "--family", family, "--eps", repr(level),
                        "--points", str(ORACLE_POINTS), "--format", fmt, "--out", str(out)]
                calls.append(Call(argv, "oracle", family, level, out, fmt))
        evals = len(calls) * ORACLE_POINTS * ORACLE_POINTS
        return CliBlock(calls, evals, self.reference, {})


def sweep_config(family: str) -> dict[str, int]:
    """CGA and sweep sizes of the committed small-population config."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(BENCH_DIR / "config" / f"sweep_{family}.ini")
    return {
        "population": parser.getint("cga", "population"),
        "iterations": parser.getint("cga", "iterations"),
        "restarts": parser.getint("sweep", "restarts"),
        "oracle_points": parser.getint("sweep", "oracle_points"),
    }


class SweepSmallPop(CliWorkload):
    """``qkdopt sweep --config`` with a small population, per-level oracle and
    baselines, DV then CV."""

    name = "sweep-small-pop"

    def __init__(self, seed: int, reference: dict, tmp: Path):
        super().__init__(seed, reference, tmp)
        self.config = sweep_config("dv")
        if sweep_config("cv") != self.config:
            raise ValueError("the DV and CV sweep configs must have the same sizes")

    def block(self, index: int) -> CliBlock:
        calls = []
        evals = 0
        cfg = self.config
        for family in FAMILIES:
            out = self.tmp / f"sweep-{family}.json"
            argv = ["sweep", "--config", str(BENCH_DIR / "config" / f"sweep_{family}.ini"),
                    "--seed", str(self.rng.randrange(2**32)), "--format", "json",
                    "--out", str(out)]
            calls.append(Call(argv, "sweep", family, None, out))
            per_level = (cfg["population"] * cfg["iterations"] * cfg["restarts"]
                         + 2 + cfg["oracle_points"] ** 2)
            evals += per_level * len(SWEEP_LEVELS[family])
        return CliBlock(calls, evals, self.reference, cfg)


# --- scalar-rate ----------------------------------------------------------------


@dataclass(frozen=True)
class ScalarInput:
    family: qkdopt.Family
    params: Any
    total: float
    eps_pe: float
    eps_cor: float


def draw_scalar(rng: random.Random) -> ScalarInput:
    """Random protocol parameters and a random split at a random total.

    Each share of the total lies in about [0.5%, 99%], so the split is
    always feasible and no evaluation raises.
    """
    family = rng.choice(FAMILIES)
    if family == "dv":
        params = qkdopt.DvProtocolParams(
            length_km=rng.uniform(0.0, 120.0), intrinsic_error=rng.uniform(0.0, 0.03)
        )
        total = 10.0 ** rng.uniform(-18.0, -5.0)
    else:
        params = qkdopt.CvProtocolParams(
            length_km=rng.uniform(0.0, 20.0), excess_noise=rng.uniform(0.0, 0.05)
        )
        total = 10.0 ** rng.uniform(-12.0, -5.0)
    shares = [10.0 ** rng.uniform(-2.0, 0.0) for _ in range(3)]
    norm = sum(shares)
    fam = qkdopt.Family(family)
    eps_pe = total * shares[0] / norm / fam.pe_weight
    return ScalarInput(fam, params, total, eps_pe, total * shares[1] / norm)


def breakdown_identities(family: qkdopt.Family, params: Any, bd: Any) -> list[str]:
    """The identities stated in the breakdown dataclasses' docstrings."""
    bad = []
    if family is qkdopt.Family.DV:
        if not close(bd.rate_per_use, bd.kappa * bd.secret_fraction):
            bad.append("rate_per_use != kappa * secret_fraction")
        if not close(bd.rate_bits_per_sec, bd.c_dt * params.clock_hz * bd.rate_per_use):
            bad.append("rate_bits_per_sec != c_dt * clock_hz * rate_per_use")
        if not bd.qber_wc >= bd.qber_est:
            bad.append("qber_wc < qber_est")
    else:
        n = params.block_size - math.floor(params.pe_ratio * params.block_size)
        lhs = bd.rate_per_use * params.block_size
        rhs = n * bd.r_pe_bits - bd.finite_term_bits
        scale = max(abs(n * bd.r_pe_bits), abs(bd.finite_term_bits))
        if not abs(lhs - rhs) <= REL * scale:
            bad.append("rate_per_use != (n * r_pe_bits - finite_term_bits) / N")
        if not close(bd.rate_bits_per_sec, params.clock_hz * bd.rate_per_use):
            bad.append("rate_bits_per_sec != clock_hz * rate_per_use")
    return bad


def key_rate(family: qkdopt.Family, params: Any, budget: Any) -> Any:
    if family is qkdopt.Family.DV:
        return qkdopt.dv_key_rate(params, budget)
    return qkdopt.cv_key_rate(params, budget)


class ScalarBlock:
    """``SCALAR_BLOCK`` single-split evaluations, each one op."""

    def __init__(self, inputs: list[ScalarInput], first: int, reference: list | None):
        self.inputs = inputs
        self.first = first
        self.reference = reference
        self.ops = len(inputs)
        self.evals = len(inputs)
        self.results: list[Any] = []

    def run(self) -> None:
        results = []
        for x in self.inputs:
            try:
                budget = qkdopt.reconstruct_sec(x.total, x.eps_pe, x.eps_cor, x.family)
                results.append((budget, key_rate(x.family, x.params, budget)))
            except Exception as err:  # the op fails; the block goes on
                results.append(err)
        self.results = results

    def check(self) -> tuple[list[str], Outcome]:
        failed = []
        for k, (x, res) in enumerate(zip(self.inputs, self.results)):
            where = f"evaluation {self.first + k} ({x.family.value} {x.total!r})"
            if isinstance(res, Exception):
                failed.append(f"{where}: {type(res).__name__}: {res}")
                continue
            budget, bd = res
            bad = []
            if budget is None:
                bad.append("split reported infeasible")
            else:
                closure = x.family.pe_weight * budget.eps_pe + budget.eps_cor + budget.eps_sec
                if not abs(closure - x.total) <= REL * x.total:
                    bad.append("budget does not close")
                again = key_rate(x.family, x.params, budget).rate_bits_per_sec
                if not close(bd.rate_bits_per_sec, again):
                    bad.append(f"rate {bd.rate_bits_per_sec!r} != re-evaluated {again!r}")
                bad += breakdown_identities(x.family, x.params, bd)
                index = self.first + k
                if self.reference is not None and index < len(self.reference):
                    bad += compare_breakdown(self.reference[index], x, bd)
            if bad:
                failed.append(f"{where}: {'; '.join(bad)}")
        return failed, Outcome(problems=list(failed))


def compare_breakdown(ref: dict, x: ScalarInput, bd: Any) -> list[str]:
    if ref["family"] != x.family.value or ref["total"] != x.total:
        return [f"input differs from the reference ({ref['family']} {ref['total']!r})"]
    bad = []
    for name, value in ref["breakdown"].items():
        got = getattr(bd, name, None)
        if got is None or not close(got, value):
            bad.append(f"{name} {got!r}, reference {value!r}")
    return bad


class ScalarRate:
    """Single-split evaluations over random parameters and splits."""

    name = "scalar-rate"

    def __init__(self, seed: int, reference: dict, tmp: Path):
        self.rng = random.Random(seed)
        scalar = reference["scalar_rate"]
        self.reference = scalar["breakdowns"] if seed == scalar["seed"] else None
        self.drawn = 0

    def block(self, index: int) -> ScalarBlock:
        inputs = [draw_scalar(self.rng) for _ in range(SCALAR_BLOCK)]
        block = ScalarBlock(inputs, self.drawn, self.reference)
        self.drawn += len(inputs)
        return block


WORKLOADS = {w.name: w for w in (OptimizeTight, OracleGrid, ScalarRate, SweepSmallPop)}
