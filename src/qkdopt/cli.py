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
import errno
import math
import os
import sys
from dataclasses import asdict, fields, replace
from typing import Any, Sequence

from .budget import Family, baseline_budgets, reconstruct_sec
from .harness import (
    SweepSpec,
    budget_fields,
    clamped,
    emit_grid,
    emit_record,
    emit_results,
    finite,
    key_rate,
    load_config,
    optimize_levels,
    parse_eps_levels,
    run_sweep,
)
from .oracle import PROTOCOLS, GridSpec, grid_search

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is
    # that validation problems exit 1, so surface them as exceptions.
    def error(self, message: str) -> Any:
        raise ValueError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument("--family", choices=["cv", "dv"], help="protocol family (overrides config)")
    parser.add_argument(
        "--eps",
        metavar="LIST",
        help="total budget level(s), comma separated (overrides config)",
    )
    parser.add_argument(
        "--format",
        choices=formats,
        default=formats[0],
        dest="fmt",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="PATH", dest="output_path", help="write output here, not stdout"
    )
    parser.add_argument(
        "--paper-sign-xi",
        action="store_true",
        help="use the subtractive worst-case excess-noise convention (CV only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_rate = sub.add_parser("rate", help="evaluate a single budget split")
    _add_common(p_rate, ("text", "csv", "json"))
    p_rate.add_argument(
        "--split", choices=["sym", "asym"], help="use a named baseline split (default: sym)"
    )
    p_rate.add_argument("--eps-pe", type=float, metavar="X", help="explicit estimation component")
    p_rate.add_argument("--eps-cor", type=float, metavar="X", help="explicit correctness component")
    p_rate.set_defaults(func=_cmd_rate)

    p_opt = sub.add_parser("optimize", help="optimize the split at one total budget")
    _add_common(p_opt, ("text", "csv", "json"))
    p_opt.add_argument("--restarts", type=int, help="independent runs, best kept")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="optimize across a grid of total budgets")
    _add_common(p_sweep, ("csv", "json"))
    p_sweep.add_argument(
        "--oracle", action="store_const", const=True, dest="include_oracle",
        help="also run the grid oracle per level",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="dump the brute-force grid")
    _add_common(p_oracle, ("csv", "json"))
    p_oracle.add_argument(
        "--points", type=int, metavar="POINTS", dest="oracle_points", help="grid points per axis"
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    for p_cga in (p_opt, p_sweep):  # the commands that run the optimizer
        p_cga.add_argument(
            "--seed", type=int, metavar="U64", help="optimizer RNG seed (overrides config)"
        )
    return parser


# --- shared plumbing -------------------------------------------------------


def _build_spec(args: argparse.Namespace) -> SweepSpec:
    """Config file plus command-line overrides, in that precedence order."""
    if args.config is not None:
        spec = load_config(args.config)
    else:
        if args.family is None:
            raise ValueError("--family is required when no --config is given")
        spec = SweepSpec(params=PROTOCOLS[Family(args.family)].params())
    if args.family is not None and Family(args.family) is not spec.family:
        raise ValueError(
            f"--family {args.family} conflicts with the config's "
            f"{spec.family.value} parameters"
        )
    named = {field.name for field in fields(SweepSpec)}  # a flag named after a field sets it
    updates = {name: v for name, v in vars(args).items() if name in named and v is not None}
    if args.eps is not None:
        try:
            updates["eps_levels"] = parse_eps_levels(args.eps)
        except ValueError as err:
            raise ValueError(f"bad --eps value: {err}") from err
    if args.paper_sign_xi:
        if spec.family is not Family.CV:
            raise ValueError("--paper-sign-xi applies only to the cv family")
        updates["params"] = replace(spec.params, paper_sign_xi=True)
    if getattr(args, "seed", None) is not None:
        updates["cga"] = replace(spec.cga, rng_seed=args.seed)
    return replace(spec, **updates) if updates else spec


def _check_output_path(path: str) -> None:
    """Raise the ``OSError`` of a ``path`` that is a directory or that has no
    directory to go in.  Nothing is opened, so a file already at ``path``
    stays as it is until the output exists."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _single_eps(args: argparse.Namespace, spec: SweepSpec) -> float:
    if args.eps is None:
        raise ValueError("--eps with a single value is required")
    if (count := len(spec.eps_levels)) != 1:
        raise ValueError(f"expected one --eps value, got {count}")
    return spec.eps_levels[0]


# --- subcommands -----------------------------------------------------------


def _cmd_rate(args: argparse.Namespace, spec: SweepSpec) -> str:
    total = _single_eps(args, spec)
    if args.eps_pe is not None or args.eps_cor is not None:
        if args.split is not None:
            raise ValueError("--split cannot be combined with --eps-pe/--eps-cor")
        if args.eps_pe is None or args.eps_cor is None:
            raise ValueError("--eps-pe and --eps-cor must be given together")
        for flag, value in (("--eps-pe", args.eps_pe), ("--eps-cor", args.eps_cor)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be a finite number, got {value!r}")
        budget = reconstruct_sec(total, args.eps_pe, args.eps_cor, spec.family)
        if budget is None:
            raise ValueError("the requested components leave no room for the secrecy share")
    else:
        label = "symmetric" if (args.split or "sym") == "sym" else "asymmetric"
        budget = dict(baseline_budgets(total, spec.family))[label]
    breakdown = key_rate(spec.params, budget)
    record = {
        "family": spec.family.value,
        "eps_total": budget.total,
        **budget_fields(budget),
        **asdict(breakdown),
    }
    return emit_record(record, args.fmt)


def _cmd_optimize(args: argparse.Namespace, spec: SweepSpec) -> str:
    total = _single_eps(args, spec)
    (best,) = optimize_levels(spec)
    record = {
        "family": spec.family.value,
        "eps_total": total,
        "feasible": best.best_budget is not None,
        **budget_fields(best.best_budget),
        "rate_bps_raw": finite(best.best_fitness),
        "rate_bps": clamped(best.best_fitness),
        "evaluations": best.evaluations,
        "reseeds": best.reseeds,
    }
    return emit_record(record, args.fmt)


def _cmd_sweep(args: argparse.Namespace, spec: SweepSpec) -> str:
    return emit_results(run_sweep(spec), fmt=args.fmt)


def _cmd_oracle(args: argparse.Namespace, spec: SweepSpec) -> str:
    total = _single_eps(args, spec)
    grid = grid_search(GridSpec(spec.oracle_points), total, spec.family, spec.params)
    return emit_grid(grid, total, spec.family, args.fmt)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _build_spec(args)
        if spec.output_path is not None:  # set by --out or [sweep] output_path
            _check_output_path(spec.output_path)  # before the command's work
        text = args.func(args, spec)
        if spec.output_path is None:
            sys.stdout.write(text)
        else:
            with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except ValueError as err:  # ConfigError and bad usage included
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
