"""Experiment harness: configuration files, budget sweeps, every command's output.

A sweep runs the genetic optimizer at each total-budget level, rates the two
fixed baseline splits for comparison, and optionally cross-checks against the
brute-force grid.  Every command's bytes come from the one set of output rules
here: a sweep becomes a fixed-column CSV (reported rates clamped at zero, as a
negative key rate means no key) or JSON, which also keeps the raw rates and
the fitness history; a ``rate`` or ``optimize`` record and the oracle's grid too.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .budget import (
    EPSILON_FLOOR, EpsilonBudget, Family, baseline_budgets, check_fields, field_types, fits
)
from .cga import CgaConfig, OptimizationResult, run as run_cga
from .cv_rate import CvProtocolParams
from .dv_rate import DvProtocolParams
from .oracle import PROTOCOLS, GridSearchResult, GridSpec, grid_search

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "key_rate",
    "load_config",
    "loads_config",
    "parse_eps_levels",
    "run_sweep",
    "optimize_levels",
    "emit_results",
    "grid_csv_text",
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

#: Sweep levels used when a config gives none: each decade read as a literal, not by pow.
_DEFAULT_LEVELS = {
    Family.CV: tuple(float(f"1e{e}") for e in range(-12, -4)),
    Family.DV: tuple(float(f"1e{e}") for e in range(-17, -4)),
}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def key_rate(params: CvProtocolParams | DvProtocolParams, budget: EpsilonBudget):
    """The rate breakdown of ``budget`` under the protocol that ``params``
    describe: ``cv_key_rate`` or ``dv_key_rate``."""
    return PROTOCOLS[params.family].key_rate(params, budget)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep, bit for bit.

    ``params`` are the protocol: their class carries :attr:`family`.
    ``restarts`` independent optimizer runs are made per level (best kept).
    With a fixed ``cga.rng_seed``, restart ``k`` of level ``eps`` draws from
    the key ``[seed, bits of eps, k]`` (see :func:`~qkdopt.cga.run`): the same
    spec emits the same bytes, and a row does not depend on the other levels.
    """

    params: CvProtocolParams | DvProtocolParams
    cga: CgaConfig = CgaConfig()
    eps_levels: tuple[float, ...] = ()
    include_baselines: bool = True
    include_oracle: bool = False
    oracle_points: int = 200
    restarts: int = 1
    output_path: str | None = None

    def __post_init__(self) -> None:
        levels, cga = self.eps_levels, self.cga
        check_fields(self, lambda: [
            *((EPSILON_FLOOR <= lv < 1.0, f"eps level {lv!r} outside [{EPSILON_FLOOR!r}, 1)")
              for lv in levels),  # the floor bounds every component of a split
            (not any(b <= a for a, b in zip(levels, levels[1:])),
             "eps_levels must be strictly increasing"),
            (self.oracle_points >= 2, "oracle_points must be at least 2"),
            (self.restarts >= 1, "restarts must be at least 1"),
            (self.output_path != "", "output_path must not be empty"),
            # the largest arrays: every (level, restart) run's genes or history, the grid
            fits("restarts", "genes or history", len(levels or _DEFAULT_LEVELS[self.family]),
                 self.restarts, max(2 * cga.population, cga.iterations)),
            fits("oracle_points", "grid", self.oracle_points, self.oracle_points, 4),
        ])
        if not levels:  # the checked params now name the family
            object.__setattr__(self, "eps_levels", _DEFAULT_LEVELS[self.family])

    @property
    def family(self) -> Family:
        """The protocol family of :attr:`params`."""
        return self.params.family


@dataclass(frozen=True)
class SweepRecord:
    """Outcome at one total-budget level; raw (unclamped) rates in bits/s.

    ``opt`` is the level's best optimizer run: its budget, rate (``-inf`` if
    nothing was feasible, as for the oracle) and history.  ``error`` holds the
    message of the baseline splits when the total is too small for them, whose
    rates are then ``None``; ``rate_oracle`` is ``None`` only with the oracle off.
    """

    eps_total: float
    opt: OptimizationResult
    rate_sym: float | None = None
    rate_asym: float | None = None
    rate_oracle: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: list[SweepRecord]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the optimizer (and comparisons) at every requested eps level.

    Every (level, restart) optimizer run of the sweep advances in one
    lockstep (see :func:`optimize_levels`), and every level's baseline splits
    are rated in one batch call.  Each level's record then takes its best
    run, its baseline rates or their ``error``, and, with the oracle on, the
    rate of the grid's best split.  A model that cannot run — for instance a
    block that degenerates at the configured sizes — raises its domain error
    and stops the sweep; only a baseline split too small for its total is
    recorded in a level's ``error`` (see :class:`SweepRecord`).
    """
    best = optimize_levels(spec)
    baselines = _baselines(spec) if spec.include_baselines else [(None, None, None)] * len(best)
    records = []
    for total, opt, (rate_sym, rate_asym, error) in zip(spec.eps_levels, best, baselines):
        rate_oracle = None
        if spec.include_oracle:
            grid = grid_search(GridSpec(spec.oracle_points), total, spec.family, spec.params)
            rate_oracle = grid.best_fitness
        records.append(SweepRecord(
            eps_total=total,
            opt=opt,
            rate_sym=rate_sym,
            rate_asym=rate_asym,
            rate_oracle=rate_oracle,
            error=error,
        ))
    return SweepResult(spec=spec, records=records)


def optimize_levels(spec: SweepSpec) -> list[OptimizationResult]:
    """Best of ``spec.restarts`` optimizer runs at each of ``spec.eps_levels``.

    A level's restarts are ``restarts`` runs of its total in one
    :func:`~qkdopt.cga.run` call for all levels (keyed ``[seed, bits, k]``,
    ``k`` the restart), rated by :func:`key_rate`; the first with the highest
    fitness wins, and restart 0 equals ``run`` at that level alone.
    """
    results = run_cga(
        spec.cga,
        [total for total in spec.eps_levels for _ in range(spec.restarts)],
        spec.family,
        lambda budget: key_rate(spec.params, budget).rate_bits_per_sec,
    )
    return [
        max(results[k : k + spec.restarts], key=lambda result: result.best_fitness)
        for k in range(0, len(results), spec.restarts)
    ]


def _baselines(spec: SweepSpec) -> list[tuple[float | None, float | None, str | None]]:
    """Each level's symmetric and asymmetric rates, or the message of a total
    too small for the baseline splits; every level's splits in one rate call."""
    splits, errors = [], []
    for total in spec.eps_levels:
        try:  # a total too small for a baseline split loses only the baselines
            splits += [budget for _, budget in baseline_budgets(total, spec.family)]
        except ValueError as err:
            errors.append(str(err))
        else:
            errors.append(None)
    rates = []
    if splits:
        columns = np.array([(b.total, b.eps_pe, b.eps_cor, b.eps_sec) for b in splits]).T
        budget = EpsilonBudget(*columns, spec.family)
        rates = key_rate(spec.params, budget).rate_bits_per_sec.tolist()
    pairs = zip(rates[::2], rates[1::2])  # (symmetric, asymmetric) of each level with splits
    return [(None, None, error) if error else (*next(pairs), None) for error in errors]


# --- output: the rules by which every command's result becomes bytes ---------


def finite(value: Any) -> Any:
    """``value``, or ``None`` (null, an empty cell) for a missing or non-finite number."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def clamped(rate: float | None) -> float | None:
    """A reported rate: :func:`finite`, and zero for a negative rate (no key)."""
    rate = finite(rate)
    return None if rate is None else max(rate, 0.0)


def budget_fields(budget: EpsilonBudget | None) -> dict[str, float | None]:
    """The component fields of ``budget``, each ``None`` without a budget."""
    return {name: getattr(budget, name, None) for name in ("eps_pe", "eps_cor", "eps_sec")}


def _emit(fmt: str, **writers: Callable[[], str]) -> str:
    if fmt in writers:
        return writers[fmt]()
    raise ValueError(f"unknown output format {fmt!r} (expected {' or '.join(map(repr, writers))})")


def _json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows: Iterable[Iterable[Any]]) -> str:
    """``header``, then each row's cells: the repr of a value, empty if not :func:`finite`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if finite(v) is None else repr(v) for v in row] for row in rows)
    return buf.getvalue()


def emit_record(record: dict[str, Any], fmt: str) -> str:
    """One record of named values (``qkdopt rate``, ``qkdopt optimize``) as
    aligned ``text``, a two-row ``csv`` or ``json``."""
    width = max(map(len, record))
    return _emit(
        fmt,
        text=lambda: "".join(f"{k:<{width}}  {v!r}\n" for k, v in record.items()),
        csv=lambda: _csv(list(record), [record.values()]),
        json=lambda: _json({k: finite(v) for k, v in record.items()}),
    )


def emit_results(result: SweepResult, fmt: str = "csv") -> str:
    """Serialize a sweep to CSV or JSON text.

    CSV holds one row per level with the fixed column set
    :data:`CSV_COLUMNS`; reported rates are clamped at zero and cells for
    disabled or failed computations, or for rates that are not finite, are
    left empty.  JSON mirrors the CSV content and additionally carries raw
    rates, the winning budget, the fitness history and any baseline error.
    """
    rows = (
        [rec.eps_total, *budget_fields(rec.opt.best_budget).values()]
        + [clamped(rate) for rate in _rates(rec).values()]
        for rec in result.records
    )
    return _emit(fmt, csv=lambda: _csv(CSV_COLUMNS, rows), json=lambda: _sweep_json(result))


def _rates(rec: SweepRecord) -> dict[str, float | None]:
    return dict(opt=rec.opt.best_fitness, sym=rec.rate_sym, asym=rec.rate_asym,
                oracle=rec.rate_oracle)


def _sweep_json(result: SweepResult) -> str:
    records = [
        {
            "eps_total": rec.eps_total,
            "budget_opt": None if (best := rec.opt.best_budget) is None else budget_fields(best),
            "rates_raw": {k: finite(v) for k, v in _rates(rec).items()},
            "rates_clamped": {k: clamped(v) for k, v in _rates(rec).items()},
            "fitness_history": rec.opt.fitness_history,
            "error": rec.error,
        }
        for rec in result.records
    ]
    family, levels = result.spec.family.value, list(result.spec.eps_levels)
    return _json({"family": family, "eps_levels": levels, "records": records})


def emit_grid(grid: GridSearchResult, total: float, family: Family, fmt: str) -> str:
    """The oracle's rated grid as CSV (:func:`grid_csv_text`) or as JSON: the
    best split, its rate, the feasible count and every cell."""
    return _emit(
        fmt, csv=lambda: grid_csv_text(grid.cells), json=lambda: _grid_json(grid, total, family)
    )


def _grid_json(grid: GridSearchResult, total: float, family: Family) -> str:
    cells = []
    for row in grid.cells.tolist():  # NaN marks what an infeasible cell lacks
        cell = dict(zip(("eps_pe", "eps_cor", "eps_sec", "rate_bits_per_sec"), map(finite, row)))
        cells.append({**cell, "feasible": cell["rate_bits_per_sec"] is not None})
    best = grid.best_budget
    doc = {
        "family": family.value,
        "eps_total": total,
        "feasible_count": grid.feasible_count,
        "best_budget": None if best is None else budget_fields(best),
        "best_rate_bps": finite(grid.best_fitness),
        "cells": cells,
    }
    return _json(doc)


def grid_csv_text(cells: np.ndarray) -> str:
    """Render a rated grid as CSV for offline landscape inspection."""
    lines = ["eps_pe,eps_cor,eps_sec,feasible,rate_bits_per_sec\n"]
    for pe, cor, sec, rate in cells.tolist():
        if math.isnan(rate):
            lines.append(f"{pe!r},{cor!r},,false,\n")
        else:
            lines.append(f"{pe!r},{cor!r},{sec!r},true,{rate!r}\n")
    return "".join(lines)


# --- configuration files ---------------------------------------------------
#
# INI-style text with four sections.  [budget] names the protocol family;
# [protocol] holds the family's physical parameters (any subset — the rest
# take the family defaults); [cga] the optimizer hyperparameters; [sweep]
# the level list and output switches.  One reader takes each section's keys:
# [budget]'s one key as a Family, the others' as the ``field_types`` of the
# dataclass each builds, which checks its values when built, so every
# section's problems join one ConfigError.  Unknown sections or keys are errors.

#: The SweepSpec fields that are not [sweep] keys.
_NOT_SWEEP_KEYS = ("params", "cga")


def load_config(path: str) -> SweepSpec:
    """Read a sweep spec from an INI file; see :func:`loads_config`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
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
        # configparser spreads its message over lines; the error is one line
        raise ConfigError(f"config parse error: {' '.join(str(err).split())}") from err

    problems: list[str] = []
    known_sections = {"budget", "protocol", "cga", "sweep"}
    for section in parser.sections():
        if section not in known_sections:
            problems.append(f"unknown section [{section}]")

    family = _read_section(parser, "budget", {"family": (Family, False)}, problems).get("family")
    if family is None:
        if not parser.has_option("budget", "family"):
            problems.append("missing required key 'family' in section [budget]")
        raise ConfigError("; ".join(problems))

    cls = PROTOCOLS[family].params
    protocol = _read_section(parser, "protocol", field_types(cls), problems)
    params = _build("protocol", cls, protocol, problems)
    cga_kwargs = _read_section(parser, "cga", field_types(CgaConfig), problems)
    cga = _build("cga", CgaConfig, cga_kwargs, problems)
    sweep_types = {k: t for k, t in field_types(SweepSpec).items() if k not in _NOT_SWEEP_KEYS}
    sweep = _read_section(parser, "sweep", sweep_types, problems)
    spec = _build("sweep", SweepSpec, sweep, problems, params=params, cga=cga)
    if problems:
        raise ConfigError("; ".join(problems))
    return spec


def _read_section(
    parser: configparser.ConfigParser, section: str, types: dict, problems: list[str]
) -> dict[str, Any]:
    """The keys of ``section`` converted by ``types``, a :func:`field_types` map;
    unknown keys and unreadable values go to ``problems``."""
    values: dict[str, Any] = {}
    if not parser.has_section(section):
        return values
    for key, raw in parser[section].items():
        if key not in types:
            problems.append(f"unknown key '{key}' in section [{section}]")
            continue
        try:
            values[key] = _convert(types[key][0], raw)
        except ValueError as err:
            problems.append(f"bad value for {section}.{key}: {err}")
    return values


def _convert(tp: Any, raw: str) -> Any:
    """``raw`` read as a value of the annotated field type ``tp``."""
    if tp is bool:  # configparser's words: true/yes/on/1 or false/no/off/0, any case
        states = configparser.ConfigParser.BOOLEAN_STATES
        if (lowered := raw.strip().lower()) in states:
            return states[lowered]
        raise ValueError(f"expected a boolean, got '{raw}'")
    if tp == tuple[float, ...]:
        return parse_eps_levels(raw)
    if tp is Family:
        if (name := raw.strip().lower()) in ("cv", "dv"):
            return Family(name)
        raise ValueError(f"must be 'cv' or 'dv', got '{name}'")
    if tp in (int, float, str):
        return tp(raw.strip())
    raise TypeError(f"no INI reading for a field of type {tp}")


def parse_eps_levels(raw: str) -> tuple[float, ...]:
    """A level list, ``[sweep] eps_levels`` or ``--eps``: floats separated by
    commas and/or whitespace.  An empty list raises ``ValueError``: only a
    spec built in code may leave its levels to the defaults."""
    if not (levels := tuple(float(tok) for tok in raw.replace(",", " ").split())):
        raise ValueError("no level given")
    return levels


def _build(section: str, cls: type, kwargs: dict, problems: list[str], **fixed: Any) -> Any:
    """``cls(**fixed, **kwargs)``, or ``cls(**fixed)`` with the violated bounds in ``problems``."""
    try:
        return cls(**fixed, **kwargs)
    except ValueError as err:
        problems.append(f"[{section}] {err}")
        return cls(**fixed)
