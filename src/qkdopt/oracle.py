"""Brute-force grid search over budget splits, used to validate the optimizer.

Rates every feasible point of a two-dimensional log grid over the free
components ``(eps_pe, eps_cor)`` at once and keeps the best.  Given the
protocol parameters, it runs the rate chain's ``eps_pe`` stage once per axis
value, as a grid has only as many distinct ``eps_pe`` as axis points; given a
rate function, it makes one call on a batch budget of the feasible cells.
Both rate each cell bit for bit as a budget of that cell alone.  Exhaustive
and deterministic: the genetic search is trusted only because it matches this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .budget import EPSILON_FLOOR, EpsilonBudget, Family, check_fields, fits, log2, reconstruct_sec
from .cv_rate import CvProtocolParams, cv_key_rate, cv_rate_chain
from .dv_rate import DvProtocolParams, dv_key_rate, dv_rate_chain

__all__ = [
    "GridSpec",
    "GridSearchResult",
    "PROTOCOLS",
    "grid_search",
]


class Protocol(NamedTuple):
    """One family's parameters class (whose ``family`` it is), its rate breakdown
    ``key_rate(params, budget)`` and its rate chain on logarithms."""

    params: type
    key_rate: Callable
    chain: Callable


#: The one table of the protocol families, kept in the lowest module that imports
#: both rate modules.  A rate breakdown is called through this module's names, so
#: that a wrapper set on one sees every call.
PROTOCOLS = {
    Family.CV: Protocol(CvProtocolParams, lambda p, budget: cv_key_rate(p, budget), cv_rate_chain),
    Family.DV: Protocol(DvProtocolParams, lambda p, budget: dv_key_rate(p, budget), dv_rate_chain),
}


@dataclass(frozen=True)
class GridSpec:
    """Number of points on each axis.

    Points are spaced geometrically between the component floor and the
    total budget, which matches how the rate models respond to the
    components.
    """

    points_per_axis: int = 200

    def __post_init__(self) -> None:
        check_fields(self, lambda: [
            (self.points_per_axis >= 2, "points_per_axis must be at least 2"),
            fits("points_per_axis", "grid", self.points_per_axis, self.points_per_axis, 4),
        ])

    def axis(self, upper: float) -> np.ndarray:
        if upper < EPSILON_FLOOR:  # on the floor, every point is the floor: no feasible cell
            raise ValueError(f"upper bound {upper} is below the floor {EPSILON_FLOOR}")
        return np.logspace(
            math.log10(EPSILON_FLOOR), math.log10(upper), self.points_per_axis
        )


@dataclass(frozen=True)
class GridSearchResult:
    """Best feasible cell plus the full rated grid.

    ``cells`` is a ``(K, 4)`` array of ``eps_pe, eps_cor, eps_sec, rate``
    rows in ``eps_pe``-major order, with NaN in the last two columns of an
    infeasible cell.  When no cell is feasible, ``best_budget`` is ``None``
    and ``best_fitness`` is ``-inf``; ``feasible_count`` makes the empty
    feasible set explicit.
    """

    best_budget: EpsilonBudget | None
    best_fitness: float
    feasible_count: int
    cells: np.ndarray = field(repr=False)


def grid_search(
    spec: GridSpec,
    total_eps: float,
    family: Family,
    rate: CvProtocolParams | DvProtocolParams | Callable[[EpsilonBudget], np.ndarray],
) -> GridSearchResult:
    """Rate every grid point and return the best feasible split.

    ``rate`` is the protocol parameters of ``family``, whose rate chain
    takes one :func:`~qkdopt.budget.log2` of the axis (it serves ``eps_pe``
    and ``eps_cor``) with the feasible cells' ``eps_sec`` and runs its
    ``eps_pe`` stage once per axis value; or a function from a batch budget
    of the feasible cells to their rates, called once.  Parameters of
    another family raise ``ValueError``.

    A cell is infeasible when its secrecy remainder falls below the floor or
    its rate is NaN; anything the rate raises propagates.  The best cell
    has the largest rate, then the smallest ``eps_pe``, then the smallest
    ``eps_cor``, so the winner does not depend on evaluation order; as the
    cells run ``eps_pe``-major over increasing axes, it is the first maximum
    in row order.
    """
    protocol = PROTOCOLS[family]
    if not callable(rate) and not isinstance(rate, protocol.params):
        raise ValueError(f"parameters {type(rate).__name__} cannot rate a {family.value} grid")
    axis = spec.axis(total_eps)
    cells = np.full((axis.size**2, 4), np.nan)
    cells[:, 0] = np.repeat(axis, axis.size)
    cells[:, 1] = np.tile(axis, axis.size)
    feasible, budget = reconstruct_sec(total_eps, cells[:, 0], cells[:, 1], family)
    if budget is not None:
        cells[feasible, 2] = budget.eps_sec
        if callable(rate):
            cells[feasible, 3] = rate(budget)
        else:  # cell k of the feasible rows sits on axis points pe_of[k] and cor_of[k]
            logs = log2(np.concatenate((axis, budget.eps_sec)))
            log2_axis, log2_sec = logs[: axis.size], logs[axis.size :]
            pe_of, cor_of = np.divmod(np.flatnonzero(feasible), axis.size)
            breakdown = protocol.chain(rate, log2_axis, log2_axis[cor_of], log2_sec, pe_of)
            cells[feasible, 3] = breakdown.rate_bits_per_sec
    rated = np.flatnonzero(~np.isnan(cells[:, 3]))
    cells[np.isnan(cells[:, 3]), 2] = np.nan
    if rated.size == 0:
        return GridSearchResult(None, float("-inf"), 0, cells)
    best = rated[cells[rated, 3].argmax()]
    best_pe, best_cor, _, best_rate = cells[best].tolist()
    return GridSearchResult(
        best_budget=reconstruct_sec(total_eps, best_pe, best_cor, family),
        best_fitness=best_rate,
        feasible_count=int(rated.size),
        cells=cells,
    )


def __getattr__(name: str):  # harness writes the CSV; bench/tracing.py traces it under this name
    if name != "grid_csv_text":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .harness import grid_csv_text
    return grid_csv_text
