"""Brute-force grid search over budget splits, used to validate the optimizer.

Rates every point of a two-dimensional log grid over the free components
``(eps_pe, eps_cor)`` in one call of the rate function, on one batch budget
of the feasible cells, and keeps the best.  Exhaustive and deterministic: the
genetic search is trusted only because it matches this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .budget import EPSILON_FLOOR, EpsilonBudget, Family, reconstruct_sec

__all__ = [
    "GridSpec",
    "GridSearchResult",
    "grid_search",
]


@dataclass(frozen=True)
class GridSpec:
    """Number of points on each axis.

    Points are spaced geometrically between the component floor and the
    total budget, which matches how the rate models respond to the
    components.
    """

    points_per_axis: int = 200

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")

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
    rate_fn: Callable[[EpsilonBudget], float | np.ndarray],
) -> GridSearchResult:
    """Rate every grid point and return the best feasible split.

    A cell is infeasible when its secrecy remainder falls below the floor or
    its rate is NaN; anything ``rate_fn`` raises propagates.  The best cell
    has the largest rate, then the smallest ``eps_pe``, then the smallest
    ``eps_cor``, so the winner does not depend on evaluation order.
    """
    axis = spec.axis(total_eps)
    cells = np.full((axis.size**2, 4), np.nan)
    cells[:, 0] = np.repeat(axis, axis.size)
    cells[:, 1] = np.tile(axis, axis.size)
    feasible, budget = reconstruct_sec(total_eps, cells[:, 0], cells[:, 1], family)
    if budget is not None:
        cells[feasible, 2] = budget.eps_sec
        cells[feasible, 3] = rate_fn(budget)
    rated = np.flatnonzero(~np.isnan(cells[:, 3]))
    cells[np.isnan(cells[:, 3]), 2] = np.nan
    if rated.size == 0:
        return GridSearchResult(None, float("-inf"), 0, cells)
    pe, cor, _, rate = cells[rated].T
    best = rated[np.lexsort((cor, pe, -rate))[0]]
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
