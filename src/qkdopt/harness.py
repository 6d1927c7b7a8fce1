"""Experiment harness: configuration files, budget sweeps, result emission.

A sweep runs the genetic optimizer at each total-budget level, rates the two
fixed baseline splits for comparison, and optionally cross-checks against the
brute-force grid.  Results serialize to a fixed-column CSV (reported rates
clamped at zero — a negative key rate means "no key", not "negative key")
or to JSON, which additionally preserves the raw unclamped rates and the
per-generation fitness history.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, get_type_hints

import numpy as np

from .budget import EpsilonBudget, Family, baseline_budgets
from .cga import CgaConfig, OptimizationResult, run_lockstep
from .cv_rate import CvProtocolParams, cv_key_rate
from .dv_rate import DvProtocolParams, dv_key_rate
from .oracle import GridSpec, grid_search

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "default_eps_levels",
    "load_config",
    "loads_config",
    "parse_eps_levels",
    "run_sweep",
    "optimize_level",
    "emit_results",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "eps_total",
    "eps_pe_opt",
    "eps_cor_opt",
    "eps_sec_opt",
    "rate_opt_bps",
    "rate_sym_bps",
    "rate_asym_bps",
    "rate_oracle_bps",
]

#: Sweep levels used when a config gives none: one level per decade.
_DEFAULT_LEVELS = {
    Family.CV: tuple(10.0**e for e in range(-12, -4)),
    Family.DV: tuple(10.0**e for e in range(-17, -4)),
}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def default_eps_levels(family: Family) -> tuple[float, ...]:
    """Decade grid of total budgets swept by default for ``family``."""
    return _DEFAULT_LEVELS[family]


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep, bit for bit.

    ``params`` must match ``family``; ``restarts`` independent optimizer
    runs are made per level (best kept).  With a fixed ``cga.rng_seed`` the
    per-level generators derive deterministically from
    ``(seed, level index, restart index)``, so two runs of the same spec
    emit identical bytes.
    """

    family: Family
    params: CvProtocolParams | DvProtocolParams
    cga: CgaConfig = CgaConfig()
    eps_levels: tuple[float, ...] = ()
    include_baselines: bool = True
    include_oracle: bool = False
    oracle_points: int = 200
    restarts: int = 1
    paper_sign_xi: bool = False
    output_path: str | None = None

    def __post_init__(self) -> None:
        expected = CvProtocolParams if self.family is Family.CV else DvProtocolParams
        if not isinstance(self.params, expected):
            raise ConfigError(
                f"params type {type(self.params).__name__} does not match "
                f"family {self.family.value}"
            )
        if not self.eps_levels:
            object.__setattr__(self, "eps_levels", default_eps_levels(self.family))
        levels = self.eps_levels
        if any(not (0.0 < lv < 1.0) for lv in levels):
            raise ConfigError("every eps level must lie in (0, 1)")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("eps_levels must be strictly increasing")
        if self.oracle_points < 2:
            raise ConfigError("oracle_points must be at least 2")
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")

    def rate_fn(self) -> Callable[[EpsilonBudget], float]:
        """Budget-to-bits/s closure for this spec's protocol: a float for one
        split, an array for a batch budget."""
        if self.family is Family.CV:
            return lambda budget: cv_key_rate(
                self.params, budget, subtractive_xi=self.paper_sign_xi
            ).rate_bits_per_sec
        return lambda budget: dv_key_rate(self.params, budget).rate_bits_per_sec


@dataclass(frozen=True)
class SweepRecord:
    """Outcome at one total-budget level; raw (unclamped) rates in bits/s.

    ``error`` holds the message of the baseline splits when the total is too
    small for them; the optimizer's budget, rate and history and the oracle
    are kept and the baseline rates are ``None``.
    """

    eps_total: float
    budget_opt: EpsilonBudget | None = None
    rate_opt: float | None = None
    rate_sym: float | None = None
    rate_asym: float | None = None
    rate_oracle: float | None = None
    fitness_history: list[float] | None = field(default=None, repr=False)
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: list[SweepRecord]


def _level_rng(seed: int | None, level: int, restart: int) -> np.random.Generator:
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([seed, level, restart])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the optimizer (and comparisons) at every requested eps level.

    Every (level, restart) optimizer run of the sweep advances in one
    lockstep (see :func:`optimize_level`).  A model that cannot run — for
    instance a block that degenerates at the configured sizes — raises its
    domain error and stops the sweep; only a baseline split too small for
    its total is recorded in a level's ``error`` (see :class:`SweepRecord`).
    """
    rate = spec.rate_fn()
    best = _optimize_levels(spec, list(enumerate(spec.eps_levels)))
    records = [
        _run_level(spec, rate, total, opt) for total, opt in zip(spec.eps_levels, best)
    ]
    return SweepResult(spec=spec, records=records)


def optimize_level(spec: SweepSpec, total: float, level: int) -> OptimizationResult:
    """Best of ``spec.restarts`` optimizer runs at one total budget.

    Restart ``r`` at level index ``level`` draws from its own generator,
    derived from ``(spec.cga.rng_seed, level, r)``; the restarts advance in
    lockstep, and the first restart with the highest fitness wins.
    """
    return _optimize_levels(spec, [(level, total)])[0]


def _optimize_levels(
    spec: SweepSpec, levels: list[tuple[int, float]]
) -> list[OptimizationResult]:
    """:func:`optimize_level` at each ``(level index, total)``, every run of
    every level in one :func:`run_lockstep` call."""
    restarts = range(spec.restarts)
    results = run_lockstep(
        spec.cga,
        [total for _, total in levels for _ in restarts],
        spec.family,
        spec.rate_fn(),
        [_level_rng(spec.cga.rng_seed, idx, r) for idx, _ in levels for r in restarts],
    )
    return [
        max(results[k : k + spec.restarts], key=lambda result: result.best_fitness)
        for k in range(0, len(results), spec.restarts)
    ]


def _run_level(
    spec: SweepSpec,
    rate: Callable[[EpsilonBudget], float],
    total: float,
    best: OptimizationResult,
) -> SweepRecord:
    """The record of one level: ``best`` from the optimizer, plus the
    baseline and oracle rates."""
    rate_opt = best.best_fitness if best.best_budget is not None else None
    rate_sym = rate_asym = error = None
    if spec.include_baselines:
        # a total too small for a baseline split loses only the baselines
        try:
            (_, sym), (_, asym) = baseline_budgets(total, spec.family)
            rate_sym, rate_asym = rate(sym), rate(asym)
        except (ValueError, ArithmeticError, OverflowError) as err:
            error = str(err)
    rate_oracle = None
    if spec.include_oracle:
        grid = grid_search(
            GridSpec(points_per_axis=spec.oracle_points), total, spec.family, rate
        )
        rate_oracle = grid.best_fitness if grid.best_budget is not None else None
    return SweepRecord(
        eps_total=total,
        budget_opt=best.best_budget,
        rate_opt=rate_opt,
        rate_sym=rate_sym,
        rate_asym=rate_asym,
        rate_oracle=rate_oracle,
        fitness_history=list(best.fitness_history),
        error=error,
    )


def _clamped(rate: float | None) -> str:
    clamped = _raw_clamped(rate)
    return "" if clamped is None else repr(clamped)


def emit_results(result: SweepResult, fmt: str = "csv") -> str:
    """Serialize a sweep to CSV or JSON text.

    CSV holds one row per level with the fixed column set
    :data:`CSV_COLUMNS`; reported rates are clamped at zero and cells for
    disabled or failed computations, or for rates that are not finite, are
    left empty.  JSON mirrors the CSV
    content and additionally carries raw rates, the winning budget, the
    fitness history and any baseline error.
    """
    if fmt == "csv":
        text = _emit_csv(result)
    elif fmt == "json":
        text = _emit_json(result)
    else:
        raise ValueError(f"unknown output format {fmt!r} (expected 'csv' or 'json')")
    return text


def _emit_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in result.records:
        budget = rec.budget_opt
        writer.writerow(
            [
                repr(rec.eps_total),
                "" if budget is None else repr(budget.eps_pe),
                "" if budget is None else repr(budget.eps_cor),
                "" if budget is None else repr(budget.eps_sec),
                _clamped(rec.rate_opt),
                _clamped(rec.rate_sym),
                _clamped(rec.rate_asym),
                _clamped(rec.rate_oracle),
            ]
        )
    return buf.getvalue()


def _raw(rate: float | None) -> float | None:
    if rate is None or not math.isfinite(rate):
        return None
    return rate


def _raw_clamped(rate: float | None) -> float | None:
    raw = _raw(rate)
    return None if raw is None else max(raw, 0.0)


def _emit_json(result: SweepResult) -> str:
    records = []
    for rec in result.records:
        budget = None
        if rec.budget_opt is not None:
            budget = {
                "eps_pe": rec.budget_opt.eps_pe,
                "eps_cor": rec.budget_opt.eps_cor,
                "eps_sec": rec.budget_opt.eps_sec,
            }
        records.append(
            {
                "eps_total": rec.eps_total,
                "budget_opt": budget,
                "rates_raw": {
                    "opt": _raw(rec.rate_opt),
                    "sym": _raw(rec.rate_sym),
                    "asym": _raw(rec.rate_asym),
                    "oracle": _raw(rec.rate_oracle),
                },
                "rates_clamped": {
                    "opt": _raw_clamped(rec.rate_opt),
                    "sym": _raw_clamped(rec.rate_sym),
                    "asym": _raw_clamped(rec.rate_asym),
                    "oracle": _raw_clamped(rec.rate_oracle),
                },
                "fitness_history": rec.fitness_history,
                "error": rec.error,
            }
        )
    doc = {
        "family": result.spec.family.value,
        "eps_levels": list(result.spec.eps_levels),
        "records": records,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- configuration files ---------------------------------------------------
#
# INI-style text with four sections.  [budget] names the protocol family;
# [protocol] holds the family's physical parameters (any subset — the rest
# take the family defaults); [cga] the optimizer hyperparameters; [sweep]
# the level list and output switches.  The keys of a section are the fields
# of the dataclass it builds, read as the fields' annotated types.  Unknown
# sections or keys are errors.

#: The SweepSpec fields that are not [sweep] keys.
_NOT_SWEEP_KEYS = ("family", "params", "cga", "paper_sign_xi")


def load_config(path: str) -> SweepSpec:
    """Read a sweep spec from an INI file; see :func:`loads_config`."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return loads_config(text)


def loads_config(text: str) -> SweepSpec:
    """Parse and validate a sweep spec from INI text.

    Collects every problem it can find — unknown keys, malformed values,
    violated parameter bounds — into a single :class:`ConfigError`.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err

    problems: list[str] = []
    known_sections = {"budget", "protocol", "cga", "sweep"}
    for section in parser.sections():
        if section not in known_sections:
            problems.append(f"unknown section [{section}]")

    family = None
    if not parser.has_section("budget") or not parser.has_option("budget", "family"):
        problems.append("missing required key 'family' in section [budget]")
    else:
        for key in parser["budget"]:
            if key != "family":
                problems.append(f"unknown key '{key}' in section [budget]")
        raw = parser.get("budget", "family").strip().lower()
        if raw in ("cv", "dv"):
            family = Family(raw)
        else:
            problems.append(f"family must be 'cv' or 'dv', got '{raw}'")
    if family is None:
        raise ConfigError("; ".join(problems))

    spec_types = get_type_hints(SweepSpec)
    cls = CvProtocolParams if family is Family.CV else DvProtocolParams
    protocol_types = get_type_hints(cls)
    protocol_types["paper_sign_xi"] = spec_types["paper_sign_xi"]
    protocol = _read_section(parser, "protocol", protocol_types, problems)
    paper_sign_xi = protocol.pop("paper_sign_xi", False)
    if paper_sign_xi and family is Family.DV:
        problems.append("paper_sign_xi applies only to the CV family")
    params = _build("protocol", cls, protocol, problems)
    cga_kwargs = _read_section(parser, "cga", get_type_hints(CgaConfig), problems)
    cga = _build("cga", CgaConfig, cga_kwargs, problems)
    sweep_types = {k: t for k, t in spec_types.items() if k not in _NOT_SWEEP_KEYS}
    sweep = _read_section(parser, "sweep", sweep_types, problems)

    if problems:
        raise ConfigError("; ".join(problems))
    try:
        return SweepSpec(
            family=family, params=params, cga=cga, paper_sign_xi=paper_sign_xi, **sweep
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _read_section(
    parser: configparser.ConfigParser,
    section: str,
    types: dict[str, Any],
    problems: list[str],
) -> dict[str, Any]:
    """The keys of ``section`` converted by ``types``, a field-to-type map;
    unknown keys and unreadable values go to ``problems``."""
    values: dict[str, Any] = {}
    if not parser.has_section(section):
        return values
    for key, raw in parser[section].items():
        if key not in types:
            problems.append(f"unknown key '{key}' in section [{section}]")
            continue
        try:
            values[key] = _convert(types[key], raw)
        except ValueError as err:
            problems.append(f"bad value for {section}.{key}: {err}")
    return values


def _convert(tp: Any, raw: str) -> Any:
    """``raw`` read as a value of the annotated field type ``tp``."""
    if tp is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"expected a boolean, got '{raw}'")
    if tp == tuple[float, ...]:
        return parse_eps_levels(raw)
    if tp in (int, int | None):
        return int(raw)
    if tp in (float, float | None):
        return float(raw)
    if tp == str | None:
        return raw.strip()
    raise TypeError(f"no INI reading for a field of type {tp}")


def parse_eps_levels(raw: str) -> tuple[float, ...]:
    """A level list, ``[sweep] eps_levels`` or ``--eps``: floats separated by
    commas and/or whitespace."""
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _build(section: str, cls: type, kwargs: dict[str, Any], problems: list[str]) -> Any:
    """``cls(**kwargs)``, or the defaults with the violated bound in ``problems``."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        problems.append(f"[{section}] {err}")
        return cls()
