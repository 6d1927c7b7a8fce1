"""Algebra of the total epsilon-security budget.

A composable security level ``eps_total`` is spent on three purposes: parameter
estimation (``eps_pe``), correctness of error correction (``eps_cor``), and
secrecy of the extracted key (``eps_sec``).  How many times ``eps_pe`` is
charged depends on the protocol family: the continuous-variable protocol
estimates two channel parameters and additionally pays an entropy-estimation
penalty equal to ``eps_pe`` (weight 3), while the discrete-variable protocol
estimates a single error rate (weight 1).  The secrecy share is always split
evenly between the smoothing and hashing failure probabilities,
``eps_s = eps_h = eps_sec / 2``.

This module owns the budget bookkeeping: reconstruction of ``eps_sec`` from the
two free components, the fixed baseline splits used for comparison, and the
linear map from optimizer genes in ``[-1, 1]`` to component values.

A budget holds one split (floats) or a batch of splits (equal-length 1-d
arrays of each component, sharing one family; the total is one float for
all of them or an array with one total per split).  The rate chains
take either and return floats or arrays to match; :func:`libm` is their one
route to the logarithms.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "EPSILON_FLOOR",
    "Family",
    "EpsilonBudget",
    "reconstruct_sec",
    "baseline_budgets",
    "map_gene",
    "libm",
    "per_distinct",
    "holds",
    "nonfinite_fields",
]

#: Smallest admissible value for any epsilon component.  Components may sit
#: exactly on this floor; anything below it is rejected or infeasible.
EPSILON_FLOOR = 1e-21

#: Relative tolerance for the budget-closure identity.
_CLOSURE_RTOL = 1e-12

_COMPONENTS = ("eps_pe", "eps_cor", "eps_sec", "eps_s", "eps_h")


class Family(enum.Enum):
    """Protocol family, which fixes how components add up to the total."""

    CV = "cv"
    DV = "dv"

    @property
    def pe_weight(self) -> int:
        """Multiplicity of ``eps_pe`` in the budget constraint."""
        return 3 if self is Family.CV else 1


@dataclass(frozen=True)
class EpsilonBudget:
    """A fully resolved split of the total security budget.

    Instances always satisfy the family closure identity
    ``pe_weight * eps_pe + eps_cor + eps_sec == total`` (to relative
    tolerance 1e-12) with every component in ``[EPSILON_FLOOR, total)``,
    and ``eps_s == eps_h == eps_sec / 2`` exactly.  A batch holds each
    component as a 1-d array of one common length and is checked once, for
    all of its splits, each against its own total when ``total`` is an array
    of that length too.
    """

    total: float | np.ndarray
    eps_pe: float | np.ndarray
    eps_cor: float | np.ndarray
    eps_sec: float | np.ndarray
    eps_s: float | np.ndarray
    eps_h: float | np.ndarray
    family: Family

    def __post_init__(self) -> None:
        if not holds((0.0 < self.total) & (self.total < 1.0)):
            raise ValueError(f"total budget must lie in (0, 1), got {self.total}")
        shapes = {getattr(getattr(self, name), "shape", ()) for name in _COMPONENTS}
        if len(shapes) != 1 or len(shape := shapes.pop()) > 1:
            raise ValueError("components must be floats or 1-d arrays of one length")
        if np.ndim(self.total) and np.shape(self.total) != shape:
            raise ValueError("an array of totals must hold one total per split")
        for name in ("eps_pe", "eps_cor", "eps_sec"):
            value = getattr(self, name)
            if not holds((EPSILON_FLOOR <= value) & (value < self.total)):
                raise ValueError(
                    f"{name} = {value} outside [{EPSILON_FLOOR}, total = {self.total})"
                )
        half = self.eps_sec * 0.5
        if not holds((self.eps_s == half) & (self.eps_h == half)):
            raise ValueError("eps_s and eps_h must each equal eps_sec / 2")
        closure = self.family.pe_weight * self.eps_pe + self.eps_cor + self.eps_sec
        if not holds(abs(closure - self.total) <= _CLOSURE_RTOL * self.total):
            raise ValueError(
                f"budget does not close: weighted sum {closure} vs total {self.total}"
            )

    @classmethod
    def from_components(
        cls, eps_pe: float, eps_cor: float, eps_sec: float, family: Family
    ) -> "EpsilonBudget":
        """Build a budget from explicit components, deriving the matching total."""
        total = family.pe_weight * eps_pe + eps_cor + eps_sec
        return cls(total, eps_pe, eps_cor, eps_sec, eps_sec * 0.5, eps_sec * 0.5, family)


def reconstruct_sec(total, eps_pe, eps_cor, family: Family):
    """Complete a budget from its two free components.

    ``eps_sec`` is whatever remains of ``total`` after charging ``eps_pe``
    (with its family weight) and ``eps_cor``.  Returns ``None`` when the
    remainder falls below the component floor: infeasibility is an ordinary
    value here, not an error, because the optimizer must be able to score
    arbitrary candidate splits.

    Equal-length 1-d arrays of the two components are completed row by row
    and give ``(feasible, budget)``: the mask of rows whose remainder clears
    the floor, and one batch budget of those rows (``None`` if there are
    none).  ``total`` may then be an array of the same length, one total per
    row.  A single split is the 0-d case of the same rule.

    Raises ``ValueError`` for genuine domain violations: ``total`` outside
    ``(0, 1)`` or either input below ``EPSILON_FLOOR``.
    """
    if not holds((0.0 < total) & (total < 1.0)):
        raise ValueError(f"total budget must lie in (0, 1), got {total}")
    if not holds((eps_pe >= EPSILON_FLOOR) & (eps_cor >= EPSILON_FLOOR)):
        raise ValueError(
            f"components must be at least {EPSILON_FLOOR}, "
            f"got eps_pe = {eps_pe}, eps_cor = {eps_cor}"
        )
    eps_sec = total - family.pe_weight * eps_pe - eps_cor
    feasible = eps_sec >= EPSILON_FLOOR
    # Subtracting components below half an ulp of ``total`` rounds back to
    # ``total`` itself; nudge down so the strict component bound holds.
    eps_sec = np.minimum(eps_sec, np.nextafter(total, 0.0))
    if not isinstance(eps_sec, np.ndarray):
        if not feasible:
            return None
        eps_sec = float(eps_sec)
    elif feasible.any():
        eps_pe, eps_cor, eps_sec = eps_pe[feasible], eps_cor[feasible], eps_sec[feasible]
        if isinstance(total, np.ndarray):
            total = total[feasible]
    else:
        return feasible, None
    budget = EpsilonBudget(total, eps_pe, eps_cor, eps_sec, eps_sec * 0.5, eps_sec * 0.5, family)
    return (feasible, budget) if isinstance(feasible, np.ndarray) else budget


# Fixed reference splits, expressed as (pe, cor) fractions of the total.
# The secrecy share is reconstructed so the closure identity holds exactly.
_BASELINE_FRACTIONS = {
    Family.CV: (
        ("symmetric", 1.0 / 5.0, 1.0 / 5.0),
        ("asymmetric", 1.0 / 10.0, 2.0 / 5.0),
    ),
    Family.DV: (
        ("symmetric", 1.0 / 3.0, 1.0 / 3.0),
        ("asymmetric", 5.0 / 99.5, 90.0 / 99.5),
    ),
}


def baseline_budgets(total: float, family: Family) -> list[tuple[str, EpsilonBudget]]:
    """Return the labelled reference splits for ``total``.

    Two fixed splits per family: an even division of the budget
    (``symmetric``) and a deliberately lopsided one (``asymmetric``) that
    overweights correctness.  Both are feasible for any ``total`` well above
    the component floor and serve as the non-optimized comparison points.
    """
    out = []
    for label, pe_frac, cor_frac in _BASELINE_FRACTIONS[family]:
        budget = reconstruct_sec(total, total * pe_frac, total * cor_frac, family)
        if budget is None:  # only possible within a few floors of EPSILON_FLOOR
            raise ValueError(
                f"total = {total} too small for the {label} baseline split"
            )
        out.append((label, budget))
    return out


def map_gene(p, total):
    """Map normalized genes ``p`` in ``[-1, 1]`` linearly onto
    ``[EPSILON_FLOOR, total]``, element by element.

    ``total`` is one float, or an array that broadcasts against ``p``: the
    per-row totals of an ``(N, 2)`` gene array are an ``(N, 1)`` column.

    ``p = -1`` lands exactly on the floor and ``p = +1`` on ``total``; the
    upper endpoint is admissible here because the feasibility of the
    resulting split is judged downstream.
    """
    if not holds((-1.0 <= p) & (p <= 1.0)):
        raise ValueError(f"genes must lie in [-1, 1], got {p}")
    return EPSILON_FLOOR + 0.5 * (p + 1.0) * (total - EPSILON_FLOOR)


def libm(fn: Callable[..., float], x, *args: float):
    """``fn(v, *args)`` for every element ``v`` of ``x``, one C-library call each.

    The rate chains take their logarithms (and any function containing one),
    and the CGA its softmax exponentials, through ``math`` here rather than
    through numpy, whose SIMD ``log`` and ``exp`` may round differently by
    CPU: a split's rate is then bit-identical whether it is rated alone or in
    a batch.  ``map`` and ``np.fromiter`` drive the calls from C, with no
    Python loop around them.  A float gives a float, a 1-d array an array.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        values = map(fn, x.tolist(), *map(itertools.repeat, args))
        return np.fromiter(values, dtype=float, count=x.size)
    return fn(float(x), *args)


def per_distinct(chain: Callable[[np.ndarray], tuple], x) -> tuple:
    """``chain`` rated once per distinct value of ``x``, gathered back to its shape.

    ``chain`` takes the sorted distinct values as a 1-d array and returns a
    tuple of arrays, one entry per value.  Each is returned indexed by the
    position of every element of ``x`` among those values: a batch whose
    splits repeat a component (a grid row, say) pays for that component's
    chain once per value, and each element's result is the one it would get
    alone.  A float gives 0-d arrays.
    """
    values, inverse = np.unique(x, return_inverse=True)
    inverse = inverse.reshape(np.shape(x))
    return tuple(out[inverse] for out in chain(values))


def holds(cond) -> bool:
    """Whether a comparison holds: for one value, or for every element.

    The cheap path for a single split, where numpy's reductions would cost
    more than the rate formula itself.
    """
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def nonfinite_fields(obj) -> list[str]:
    """One message per float field of dataclass ``obj`` that is NaN or infinite.

    Range checks written as comparisons pass NaN (``nan <= 0.0`` is False)
    and an unbounded side passes infinity, so a config object runs this first.
    """
    return [
        f"{f.name} must be finite, got {value!r}"
        for f in fields(obj)
        if isinstance(value := getattr(obj, f.name), float) and not math.isfinite(value)
    ]
