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
all of them or an array with one total per split).  The functions here and
the rate chains compute over 1-d arrays only, reading a float as a batch of
one; floats come back in one place per public result: the budget that
:func:`reconstruct_sec` returns for float inputs, and a rate chain's
breakdown of a budget of floats.  :func:`libm` is the chains' one route to
the logarithms.
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
    "check_fields",
]

#: Smallest admissible value for any epsilon component.  Components may sit
#: exactly on this floor; anything below it is rejected or infeasible.
EPSILON_FLOOR = 1e-21

#: Relative tolerance for the budget-closure identity.
_CLOSURE_RTOL = 1e-12

_COMPONENTS = ("eps_pe", "eps_cor", "eps_sec")


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
    tolerance 1e-12) with every component in ``[EPSILON_FLOOR, total)``.
    The secrecy share splits evenly, ``eps_s == eps_h == eps_sec / 2``.  A
    batch holds each component as a 1-d array of one common length and is
    checked once, for all of its splits, each against its own total when
    ``total`` is an array of that length too.
    """

    total: float | np.ndarray
    eps_pe: float | np.ndarray
    eps_cor: float | np.ndarray
    eps_sec: float | np.ndarray
    family: Family

    def __post_init__(self) -> None:
        shapes = {getattr(getattr(self, name), "shape", ()) for name in _COMPONENTS}
        if len(shapes) != 1 or len(shape := shapes.pop()) > 1:
            raise ValueError("components must be floats or 1-d arrays of one length")
        if getattr(self.total, "shape", ()) not in ((), shape):
            raise ValueError("an array of totals must hold one total per split")
        total = _as_batch(self.total)  # one total for every split, or one each
        _check_totals(total)
        parts = np.array((self.eps_pe, self.eps_cor, self.eps_sec)).reshape(3, -1)
        if not (inside := (EPSILON_FLOOR <= parts) & (parts < total)).all():
            k, row = np.argwhere(~inside)[0]  # name one value, not the arrays
            where = f" (row {row})" if shape else ""
            bounds = f"[{EPSILON_FLOOR}, total = {total[row % total.size]})"
            raise ValueError(f"{_COMPONENTS[k]} = {parts[k, row]}{where} outside {bounds}")
        closure = self.family.pe_weight * parts[0] + parts[1] + parts[2]
        if not (closes := abs(closure - total) <= _CLOSURE_RTOL * total).all():
            row = closes.argmin()
            where = f" in row {row}" if shape else ""
            sums = f"weighted sum {closure[row]} vs total {total[row % total.size]}"
            raise ValueError(f"budget does not close{where}: {sums}")

    #: Smoothing and hashing failure probabilities, half the secrecy share each.
    eps_s = eps_h = property(lambda self: self.eps_sec / 2)


def _check_totals(total: np.ndarray) -> None:
    if not (inside := (0.0 < total) & (total < 1.0)).all():  # name one total, not the array
        raise ValueError(f"total budget must lie in (0, 1), got {total[~inside][0]}")


def reconstruct_sec(total, eps_pe, eps_cor, family: Family):
    """Complete a budget from its two free components.

    ``eps_sec`` is whatever remains of ``total`` after charging ``eps_pe``
    (with its family weight) and ``eps_cor``.  Returns ``None`` when the
    remainder falls below the component floor: infeasibility is an ordinary
    value here, not an error, because the optimizer must be able to score
    arbitrary candidate splits.

    Equal-length 1-d arrays of the two components are completed row by row
    and give ``(feasible, budget)``: the mask of rows whose remainder clears
    the floor, and one batch budget of those rows, each with its own total
    (``None`` if there are none).  ``total`` may be one float or an array of
    the same length.  Float components are completed as a one-row batch and
    give a budget of floats (or ``None``).

    Raises ``ValueError`` for genuine domain violations: ``total`` outside
    ``(0, 1)`` or either input below ``EPSILON_FLOOR``.
    """
    rows_total, rows_pe, rows_cor = _as_batch(total), _as_batch(eps_pe), _as_batch(eps_cor)
    _check_totals(rows_total)
    if not ((rows_pe >= EPSILON_FLOOR) & (rows_cor >= EPSILON_FLOOR)).all():
        if rows_total.min() < EPSILON_FLOOR:  # name the cause, not the arrays
            raise ValueError(f"total {rows_total.min()} is below the floor {EPSILON_FLOOR}")
        for name, rows in (("eps_pe", rows_pe), ("eps_cor", rows_cor)):
            if not (above := rows >= EPSILON_FLOOR).all():
                low = rows[~above].min()
                raise ValueError(f"{name} must be at least {EPSILON_FLOOR}, got {low}")
    eps_sec = rows_total - family.pe_weight * rows_pe - rows_cor
    feasible = eps_sec >= EPSILON_FLOOR
    # Subtracting components below half an ulp of ``total`` rounds back to
    # ``total`` itself; nudge down so the strict component bound holds.
    eps_sec = np.minimum(eps_sec, np.nextafter(rows_total, 0.0))
    if rows_total.shape != feasible.shape:  # one total for every split
        rows_total = np.broadcast_to(rows_total, feasible.shape)
    rows = (rows_total, rows_pe, rows_cor, eps_sec)
    if isinstance(eps_pe, float):  # one split: a budget of floats
        return EpsilonBudget(*(v.item() for v in rows), family) if feasible[0] else None
    return feasible, EpsilonBudget(*(v[feasible] for v in rows), family) if feasible.any() else None


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
    per-row totals of an ``(N, 2)`` gene array are an ``(N, 1)`` column.  A
    float ``p`` is read as a one-row array.

    ``p = -1`` lands exactly on the floor and ``p = +1`` on ``total``; the
    upper endpoint is admissible here because the feasibility of the
    resulting split is judged downstream.
    """
    p = _as_batch(p)
    if not (inside := (-1.0 <= p) & (p <= 1.0)).all():  # name one gene, not the array
        raise ValueError(f"genes must lie in [-1, 1], got {p[~inside][0]}")
    return EPSILON_FLOOR + 0.5 * (p + 1.0) * (total - EPSILON_FLOOR)


def _as_batch(x) -> np.ndarray:
    """``x`` as an array of one or more dimensions (itself, if it is one)."""
    return x if isinstance(x, np.ndarray) and x.ndim else np.atleast_1d(x)


def libm(fn: Callable[..., float], x, *args: float):
    """``fn(v, *args)`` for every element ``v`` of ``x``, one C-library call each.

    The rate chains take their logarithms (and any function containing one),
    and the CGA its softmax exponentials, through ``math`` here rather than
    through numpy, whose SIMD ``log`` and ``exp`` may round differently by
    CPU: a split's rate is then bit-identical whether it is rated alone or in
    a batch.  ``map`` and ``np.fromiter`` drive the calls from C, with no
    Python loop around them.  A float is read as a one-row array.
    """
    x = _as_batch(x)
    values = map(fn, x.tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, float, x.size)  # positional: numpy parses keywords slowly


def per_distinct(chain: Callable[[np.ndarray], tuple], x) -> list[np.ndarray]:
    """``chain`` rated once per distinct value of ``x``, gathered back per element.

    ``chain`` takes the sorted distinct values as a 1-d array and returns a
    tuple of arrays, one entry per value.  Each is returned indexed by the
    position of every element of ``x`` among those values: a batch whose
    splits repeat a component (a grid row, say) pays for that component's
    chain once per value, and each element's result is the one it would get
    alone.  A float is read as a one-row array.
    """
    x = _as_batch(x)
    order = x.argsort()  # np.unique, without its overhead on a few rows
    ranked = x[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    inverse = np.empty(x.size, np.intp)
    inverse[order] = first.cumsum() - 1
    return [out[inverse] for out in chain(ranked[first])]


def check_fields(obj, checks: list[tuple[bool, str]]) -> None:
    """Raise one ``ValueError`` listing each NaN or infinite float field of dataclass ``obj``
    or, if none, each failed ``(holds, message)`` check (which may pass NaN or infinity)."""
    bad = [
        f"{f.name} must be finite, got {value!r}"
        for f in fields(obj)
        if isinstance(value := getattr(obj, f.name), float) and not math.isfinite(value)
    ] or [message for holds, message in checks if not holds]
    if bad:
        raise ValueError("; ".join(bad))
