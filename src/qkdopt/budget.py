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
arrays of each component and of the total, sharing one family).  The
functions here and the rate chains compute over 1-d arrays only, reading a
float as a batch of one; floats come back in one place per public result:
the budget that :func:`reconstruct_sec` returns for float inputs, and a rate
chain's breakdown of a budget of one split (:func:`floats_of`).  :func:`log2` is
the chains' one logarithm, one array kernel whatever the batch size, a single
split included: each rate call makes two calls of it, one on the budget's
components and one on its entropy arguments, and so does each oracle grid.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, get_args, get_type_hints

import numpy as np

__all__ = [
    "EPSILON_FLOOR",
    "Family",
    "EpsilonBudget",
    "reconstruct_sec",
    "baseline_budget",
    "baseline_budgets",
    "map_gene",
    "LN2",
    "log2",
    "floats_of",
    "check_fields",
    "field_types",
]

#: Smallest admissible value for any epsilon component.  Components may sit
#: exactly on this floor; anything below it is rejected or infeasible.
EPSILON_FLOOR = 1e-21

#: Relative tolerance for the budget-closure identity.
_CLOSURE_RTOL = 1e-12

_COMPONENTS = ("eps_pe", "eps_cor", "eps_sec")

#: ``ln 2``, the factor from a base-2 logarithm to a natural one.  Written out,
#: like the constants of :func:`log2`, so that no C library computes it.
LN2 = 0.6931471805599453

_SQRT_HALF = 0.7071067811865476

#: ``log2(m) = sum_k c_k f^(2k+1)`` with ``f = (m - 1) / (m + 1)`` and
#: ``c_k = 2 / ((2k + 1) ln 2)``, the series of ``2 atanh(f) / ln 2``.  On
#: ``m`` in ``[sqrt(1/2), sqrt(2))``, ``f^2 <= (3 - 2 sqrt 2)^2 < 0.0295``, and
#: the first term left out is below 2.4e-17 of the sum.
_LOG2_SERIES = tuple(2.0 / (2 * k + 1) / LN2 for k in range(10))


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
    tolerance 1e-12) with every component in ``[EPSILON_FLOOR, total)``.  A
    batch holds each component and the total as 1-d arrays of one common
    length and is checked once, for all of its splits, each against its own
    total.
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
        if getattr(self.total, "shape", ()) != shape:
            raise ValueError("total must be a float, or an array of one total per split")
        total = _as_batch(self.total)
        refuse_outside(total, (0.0 < total) & (total < 1.0), "total budget must lie in (0, 1)")
        parts = self.components
        if not (inside := (EPSILON_FLOOR <= parts) & (parts < total)).all():
            k, row = np.argwhere(~inside)[0]  # name one value, not the arrays
            where = f" (row {row})" if shape else ""
            bounds = f"[{EPSILON_FLOOR}, total = {total[row]})"
            raise ValueError(f"{_COMPONENTS[k]} = {parts[k, row]}{where} outside {bounds}")
        closure = self.family.pe_weight * parts[0] + parts[1] + parts[2]
        if not (closes := abs(closure - total) <= _CLOSURE_RTOL * total).all():
            row = closes.argmin()
            where = f" in row {row}" if shape else ""
            sums = f"weighted sum {closure[row]} vs total {total[row]}"
            raise ValueError(f"budget does not close{where}: {sums}")

    @property
    def components(self) -> np.ndarray:
        """``eps_pe``, ``eps_cor`` and ``eps_sec`` as the rows of one ``(3, n)`` array."""
        return np.array((self.eps_pe, self.eps_cor, self.eps_sec)).reshape(3, -1)


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
    the same length.  Scalar components, of any real type, are completed as a
    one-row batch and give a budget of Python floats (or ``None``).

    Raises ``ValueError`` for genuine domain violations: ``total`` outside
    ``(0, 1)`` or either input below ``EPSILON_FLOOR``; and for components of
    two shapes, or a total that is neither one float nor one per split.
    """
    totals, rows_pe, rows_cor = _as_batch(total), _as_batch(eps_pe), _as_batch(eps_cor)
    if rows_pe.shape != rows_cor.shape or totals.shape not in ((1,), rows_pe.shape):
        raise ValueError(
            f"components must share one shape, and the total be a float or one per split; got "
            f"total {np.shape(total)}, eps_pe {np.shape(eps_pe)}, eps_cor {np.shape(eps_cor)}")
    refuse_outside(totals, (0.0 < totals) & (totals < 1.0), "total budget must lie in (0, 1)")
    if not ((rows_pe >= EPSILON_FLOOR) & (rows_cor >= EPSILON_FLOOR)).all():
        if totals.min() < EPSILON_FLOOR:  # name the cause, not the arrays
            raise ValueError(f"total {totals.min()} is below the floor {EPSILON_FLOOR}")
        for name, rows in (("eps_pe", rows_pe), ("eps_cor", rows_cor)):
            refuse_outside(rows, rows >= EPSILON_FLOOR, f"{name} must be at least {EPSILON_FLOOR}")
    eps_sec = totals - family.pe_weight * rows_pe - rows_cor
    feasible = eps_sec >= EPSILON_FLOOR
    # Subtracting components below half an ulp of ``total`` rounds back to
    # ``total`` itself; nudge down so the strict component bound holds.
    eps_sec = np.minimum(eps_sec, np.nextafter(totals, 0.0))
    if totals.shape != feasible.shape:  # one total for every split
        totals = np.broadcast_to(totals, feasible.shape)
    rows = (totals, rows_pe, rows_cor, eps_sec)
    if np.ndim(eps_pe) == np.ndim(eps_cor) == 0:  # one split: a budget of floats
        return EpsilonBudget(*(v.item() for v in rows), family) if feasible[0] else None
    return feasible, EpsilonBudget(*(v[feasible] for v in rows), family) if feasible.any() else None


# Fixed reference splits, expressed as (pe, cor) fractions of the total.
# The secrecy share is reconstructed so the closure identity holds exactly.
_BASELINE_FRACTIONS = {
    Family.CV: {"symmetric": (1.0 / 5.0, 1.0 / 5.0), "asymmetric": (1.0 / 10.0, 2.0 / 5.0)},
    Family.DV: {"symmetric": (1.0 / 3.0, 1.0 / 3.0), "asymmetric": (5.0 / 99.5, 90.0 / 99.5)},
}


def baseline_budget(total: float, family: Family, label: str) -> EpsilonBudget:
    """The ``label`` reference split of ``total``, built on its own.

    ``symmetric`` divides the budget evenly; ``asymmetric`` deliberately
    overweights correctness.  Either is feasible for any ``total`` well above
    the component floor.  Within a few floors of it, where a component or the
    remainder falls below the floor, it raises one ``ValueError``, ``total =
    X too small for the {label} baseline split``.  ``total`` is one float: an
    array raises ``ValueError``.
    """
    if np.ndim(total):
        raise ValueError(f"baseline splits take one total, got an array of shape {np.shape(total)}")
    pe_frac, cor_frac = _BASELINE_FRACTIONS[family][label]
    eps_pe, eps_cor = total * pe_frac, total * cor_frac
    # a component below the floor is refused here, by label; a total out of (0, 1) is not
    below_floor = 0.0 < total < 1.0 and min(eps_pe, eps_cor) < EPSILON_FLOOR
    if below_floor or (budget := reconstruct_sec(total, eps_pe, eps_cor, family)) is None:
        raise ValueError(f"total = {total} too small for the {label} baseline split")
    return budget


def baseline_budgets(total: float, family: Family) -> list[tuple[str, EpsilonBudget]]:
    """Both labelled reference splits of ``total`` (:func:`baseline_budget`),
    the non-optimized comparison points, or the first one's ``ValueError``."""
    return [(label, baseline_budget(total, family, label)) for label in _BASELINE_FRACTIONS[family]]


def map_gene(p, total):
    """Map normalized genes ``p`` in ``[-1, 1]`` linearly onto
    ``[EPSILON_FLOOR, total]``, element by element.

    ``total`` is one float, or an array that broadcasts against ``p``: the
    per-row totals of an ``(N, 2)`` gene array are an ``(N, 1)`` column.  A
    float ``p`` is read as a one-row array.

    ``p = -1`` lands exactly on the floor.  ``p = +1`` lands on ``total``, or
    one ulp above it (a scan of 200,000 random totals found the ulp only for
    totals in (2.7e-21, 3.4e-21)); either way the component leaves the other
    two no room above the floor, and the split is judged infeasible downstream.
    """
    p = _as_batch(p)
    refuse_outside(p, (-1.0 <= p) & (p <= 1.0), "genes must lie in [-1, 1]")
    return EPSILON_FLOOR + 0.5 * (p + 1.0) * (total - EPSILON_FLOOR)


def refuse_outside(values: np.ndarray, inside: np.ndarray, bound: str) -> None:
    """Refuse the first of ``values`` where the mask ``inside`` fails: ``"{bound}, got {it}"``."""
    if not inside.all():
        raise ValueError(f"{bound}, got {values[~inside][0]}")


def _as_batch(x) -> np.ndarray:
    """``x`` as a float64 array of one or more dimensions (itself, if it is one)."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def log2(x) -> np.ndarray:
    """Base-2 logarithm of each element of a positive, finite array ``x``.

    Built only from operations that IEEE 754 rounds exactly (``frexp``, a
    doubling, ``+``, ``-``, ``*`` and ``/``), with no C-library or SIMD
    logarithm, so each element comes out the same on every host and CPU,
    whatever its position in ``x`` and the size of ``x``.  ``frexp`` splits
    ``x = m 2^e``; a mantissa below ``sqrt(1/2)`` is doubled, so ``m`` lies in
    ``[sqrt(1/2), sqrt(2))``; then ``log2(x) = e + 2 atanh(f) / ln 2`` with
    ``f = (m - 1) / (m + 1)``, by Horner's rule in ``f^2``.  A power of two
    gives its exponent exactly, and the relative error is below 5e-16 from
    the subnormals up.  Zero, negative and non-finite elements give
    meaningless values: callers keep them out.
    """
    mant, exp = np.frexp(x)  # x = mant * 2**exp, mant in [1/2, 1)
    low = mant < _SQRT_HALF
    mant = np.ldexp(mant, low)  # into [sqrt(1/2), sqrt(2)): exact
    exp -= low
    f = mant - 1.0  # exact
    mant += 1.0
    f /= mant
    z = f * f
    series = z * _LOG2_SERIES[-1]
    for c in _LOG2_SERIES[-2:0:-1]:
        series += c
        series *= z
    series += _LOG2_SERIES[0]
    series *= f
    series += exp
    return series


def floats_of(breakdown, budget: EpsilonBudget):
    """A rate chain's ``breakdown`` of ``budget``: for one split (scalar
    components of any real type), each 1-element array field as its float,
    which prints by ``repr``; for a batch, the breakdown as it is."""
    if np.ndim(budget.eps_pe):
        return breakdown
    arrays = {k: v.item() for k, v in vars(breakdown).items() if isinstance(v, np.ndarray)}
    return replace(breakdown, **arrays)


def refuse_overflow(chain):
    """Rate chain ``chain``, raising a ``ValueError`` that names an overflow of its
    arithmetic: a rate of ``±inf`` would score a feasible split as infeasible."""
    @functools.wraps(chain)
    def checked(*args):
        try:
            with np.errstate(over="raise"):  # an exception, not numpy's warning
                return chain(*args)
        except (FloatingPointError, OverflowError) as err:
            raise ValueError(f"the rate overflows the float range: {err}") from err
    return checked


@functools.cache
def field_types(cls: type) -> dict[str, tuple[Any, bool]]:
    """Each field of dataclass ``cls`` as ``(type, optional)``, from its resolved
    annotation: ``X | None`` reads as ``(X, True)``, any other ``T`` as ``(T, False)``.
    A ``ClassVar``, such as a parameters class's ``family``, is not a field."""
    hints = get_type_hints(cls)
    types = {}
    for name in (f.name for f in fields(cls)):
        if optional := type(None) in (args := get_args(tp := hints[name])):
            (tp,) = (arg for arg in args if arg is not type(None))
        types[name] = (tp, optional)
    return types


#: The class a field annotated with each checked kind must hold, and its noun.
_KINDS = {
    bool: (bool, "a boolean"),
    int: (numbers.Integral, "an integer"),  # numpy's integers included
    float: (numbers.Real, "a real number"),
}


def _kind_problem(name: str, kind: Any, value: Any) -> str | None:
    """Why field ``name`` does not hold the annotated ``kind`` with ``value``, or
    ``None`` if it does or the kind is not checked."""
    if kind == tuple[float, ...]:
        if not isinstance(value, tuple):
            return f"{name} must be a tuple of real numbers, got {value!r}"
        problems = (_kind_problem(f"{name}[{i}]", float, v) for i, v in enumerate(value))
        return next(filter(None, problems), None)
    if kind in _KINDS:
        of, noun = _KINDS[kind]
        if not isinstance(value, of) or (kind is not bool and isinstance(value, bool)):
            return f"{name} must be {noun}, got {value!r}"
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, 10**400
            return f"{name} must be finite, got {value!r}"
    elif all(map(is_dataclass, classes := get_args(kind) or (kind,))):  # one or a union
        if not isinstance(value, classes):
            return f"{name} must be a {' or '.join(c.__name__ for c in classes)}, got {value!r}"
    return None


def check_fields(obj, checks: Callable[[], list[tuple[bool, str]]]) -> None:
    """Raise one ``ValueError`` listing each field of dataclass ``obj`` that does not hold
    the kind its annotation names or, if none, each failed ``(holds, message)`` of
    ``checks()``: no bound is judged on a mistyped value.  A ``bool`` field takes only a
    ``bool``, an ``int`` or ``float`` field no ``bool``, a ``float`` field a value that is
    a finite float, each element of a ``tuple[float, ...]`` field a ``float`` field's
    value, a dataclass field an instance of that class, a union of dataclasses an instance
    of one of them, and ``X | None`` also ``None``."""
    bad = []
    for name, (kind, optional) in field_types(type(obj)).items():
        value = getattr(obj, name)
        if not (optional and value is None) and (problem := _kind_problem(name, kind, value)):
            bad.append(problem)
    if bad := bad or [message for holds, message in checks() if not holds]:
        raise ValueError("; ".join(bad))


#: The most bytes that one float array sized by a configuration may take; a
#: larger one is refused when the configuration is built, before any is made.
MAX_ARRAY_BYTES = 2**27


def fits(name: str, array: str, *shape: int) -> tuple[bool, str]:
    """A :func:`check_fields` check that the float ``array`` of ``shape``, sized
    by field ``name``, takes at most :data:`MAX_ARRAY_BYTES`."""
    too_large = f"{name} too large: the {array} would take over {MAX_ARRAY_BYTES} bytes"
    return 8 * math.prod(shape) <= MAX_ARRAY_BYTES, too_large
