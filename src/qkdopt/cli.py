"""Command-line front end.

Four subcommands::

    qkdopt rate      evaluate one budget split and print the rate breakdown
    qkdopt optimize  run the genetic optimizer at a single total budget
    qkdopt sweep     run a full multi-level sweep and emit CSV/JSON
    qkdopt oracle    dump the brute-force grid for a single total budget

Exit codes: 0 on success, 1 for configuration or validation problems
(including bad command-line usage), 2 for runtime failures such as I/O
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Any, Sequence

from .budget import Family, baseline_budgets, reconstruct_sec
from .cv_rate import CvProtocolParams, cv_key_rate
from .dv_rate import DvProtocolParams, dv_key_rate
from .harness import (
    ConfigError,
    SweepSpec,
    emit_results,
    load_config,
    optimize_level,
    parse_eps_levels,
    run_sweep,
)
from .oracle import GridSpec, grid_csv_text, grid_search

__all__ = ["main", "build_parser"]


class _UsageError(ValueError):
    """Bad command line; reported like any other validation error."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is
    # that validation problems exit 1, so surface them as exceptions.
    def error(self, message: str) -> Any:
        raise _UsageError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument(
        "--family", choices=["cv", "dv"], help="protocol family (overrides config)"
    )
    parser.add_argument(
        "--eps",
        metavar="LIST",
        help="total budget level(s), comma separated (overrides config)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="U64", help="optimizer RNG seed (overrides config)"
    )
    parser.add_argument(
        "--format",
        choices=["text", "csv", "json"],
        default=None,
        dest="fmt",
        help="output format",
    )
    parser.add_argument("--out", metavar="PATH", help="write output here, not stdout")
    parser.add_argument(
        "--paper-sign-xi",
        action="store_true",
        help="use the subtractive worst-case excess-noise convention",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_rate = sub.add_parser("rate", help="evaluate a single budget split")
    _add_common(p_rate)
    p_rate.add_argument(
        "--split",
        choices=["sym", "asym"],
        default=None,
        help="use a named baseline split (default: sym)",
    )
    p_rate.add_argument(
        "--eps-pe", type=float, metavar="X", help="explicit estimation component"
    )
    p_rate.add_argument(
        "--eps-cor", type=float, metavar="X", help="explicit correctness component"
    )
    p_rate.set_defaults(func=_cmd_rate)

    p_opt = sub.add_parser("optimize", help="optimize the split at one total budget")
    _add_common(p_opt)
    p_opt.add_argument(
        "--restarts", type=int, default=None, help="independent runs, best kept"
    )
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="optimize across a grid of total budgets")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--oracle", action="store_true", help="also run the grid oracle per level"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="dump the brute-force grid")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--points", type=int, default=None, help="grid points per axis"
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


# --- shared plumbing -------------------------------------------------------


def _build_spec(args: argparse.Namespace) -> SweepSpec:
    """Config file plus command-line overrides, in that precedence order."""
    if args.config is not None:
        spec = load_config(args.config)
    else:
        if args.family is None:
            raise _UsageError("--family is required when no --config is given")
        family = Family(args.family)
        params = CvProtocolParams() if family is Family.CV else DvProtocolParams()
        spec = SweepSpec(family=family, params=params)
    if args.family is not None and Family(args.family) is not spec.family:
        raise _UsageError(
            f"--family {args.family} conflicts with the config's "
            f"{spec.family.value} parameters"
        )
    updates: dict[str, Any] = {}
    if args.eps is not None:
        updates["eps_levels"] = _parse_eps_list(args.eps)
    if args.paper_sign_xi:
        updates["paper_sign_xi"] = True
    if args.out is not None:
        updates["output_path"] = args.out
    if getattr(args, "oracle", False):
        updates["include_oracle"] = True
    if getattr(args, "points", None) is not None:
        updates["oracle_points"] = args.points
    if getattr(args, "restarts", None) is not None:
        updates["restarts"] = args.restarts
    if args.seed is not None:
        updates["cga"] = replace(spec.cga, rng_seed=args.seed)
    return replace(spec, **updates) if updates else spec


def _parse_eps_list(raw: str) -> tuple[float, ...]:
    try:
        return parse_eps_levels(raw)
    except ValueError as err:
        raise _UsageError(f"bad --eps value: {err}") from err


def _single_eps(args: argparse.Namespace) -> float:
    if args.eps is None:
        raise _UsageError("--eps with a single value is required")
    levels = _parse_eps_list(args.eps)
    if len(levels) != 1:
        raise _UsageError(f"expected one --eps value, got {len(levels)}")
    return levels[0]


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _render_record(record: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record)
        writer.writerow("" if v is None else repr(v) for v in record.values())
        return buf.getvalue()
    width = max(len(k) for k in record)
    return "".join(f"{k:<{width}}  {v!r}\n" for k, v in record.items())


# --- subcommands -----------------------------------------------------------


def _cmd_rate(args: argparse.Namespace) -> None:
    spec = _build_spec(args)
    total = _single_eps(args)
    explicit = args.eps_pe is not None or args.eps_cor is not None
    if explicit:
        if args.split is not None:
            raise _UsageError("--split cannot be combined with --eps-pe/--eps-cor")
        if args.eps_pe is None or args.eps_cor is None:
            raise _UsageError("--eps-pe and --eps-cor must be given together")
        budget = reconstruct_sec(total, args.eps_pe, args.eps_cor, spec.family)
        if budget is None:
            raise _UsageError(
                "the requested components leave no room for the secrecy share"
            )
    else:
        label = "symmetric" if (args.split or "sym") == "sym" else "asymmetric"
        named = dict(baseline_budgets(total, spec.family))
        budget = named[label]
    if spec.family is Family.CV:
        breakdown = cv_key_rate(spec.params, budget, subtractive_xi=spec.paper_sign_xi)
    else:
        breakdown = dv_key_rate(spec.params, budget)
    record: dict[str, Any] = {
        "family": spec.family.value,
        "eps_total": budget.total,
        "eps_pe": budget.eps_pe,
        "eps_cor": budget.eps_cor,
        "eps_sec": budget.eps_sec,
    }
    record.update(asdict(breakdown))
    _write_out(_render_record(record, args.fmt or "text"), args.out)


def _cmd_optimize(args: argparse.Namespace) -> None:
    spec = _build_spec(args)
    total = _single_eps(args)
    best = optimize_level(spec, total, level=0)
    budget = best.best_budget
    record: dict[str, Any] = {
        "family": spec.family.value,
        "eps_total": total,
        "feasible": budget is not None,
        "eps_pe": None if budget is None else budget.eps_pe,
        "eps_cor": None if budget is None else budget.eps_cor,
        "eps_sec": None if budget is None else budget.eps_sec,
        "rate_bps_raw": None if budget is None else best.best_fitness,
        "rate_bps": None if budget is None else max(best.best_fitness, 0.0),
        "evaluations": best.evaluations,
        "reseeds": best.reseeds,
    }
    _write_out(_render_record(record, args.fmt or "text"), args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    spec = _build_spec(args)
    fmt = args.fmt or "csv"
    if fmt == "text":
        raise _UsageError("sweep output format must be csv or json")
    result = run_sweep(spec)
    text = emit_results(result, fmt=fmt)
    _write_out(text, spec.output_path)


_GRID_KEYS = ("eps_pe", "eps_cor", "eps_sec", "rate_bits_per_sec")


def _cmd_oracle(args: argparse.Namespace) -> None:
    spec = _build_spec(args)
    total = _single_eps(args)
    grid = grid_search(
        GridSpec(points_per_axis=spec.oracle_points),
        total,
        spec.family,
        spec.rate_fn(),
    )
    fmt = args.fmt or "csv"
    if fmt == "csv":
        _write_out(grid_csv_text(grid.cells), args.out)
        return
    if fmt != "json":
        raise _UsageError("oracle output format must be csv or json")
    best = grid.best_budget
    cells = []
    for row in grid.cells.tolist():  # NaN marks what an infeasible cell lacks
        cell = dict(zip(_GRID_KEYS, (None if math.isnan(v) else v for v in row)))
        cell["feasible"] = cell["rate_bits_per_sec"] is not None
        cells.append(cell)
    doc = {
        "family": spec.family.value,
        "eps_total": total,
        "feasible_count": grid.feasible_count,
        "best_budget": None
        if best is None
        else {
            "eps_pe": best.eps_pe,
            "eps_cor": best.eps_cor,
            "eps_sec": best.eps_sec,
        },
        "best_rate_bps": None if best is None else grid.best_fitness,
        "cells": cells,
    }
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except (_UsageError, ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (e.g. piping into head); swallow the tail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - safety net
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
