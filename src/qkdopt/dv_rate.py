"""Finite-size composable key rate for a single-photon prepare-and-measure link.

Qubits are encoded in one of two bases (X with probability ``x_basis_prob``),
sent through a fibre of transmissivity ``T`` and detected with efficiency
``eta``; dark counts fire with probability ``dark_count_prob`` per gate and
produce a random bit.  Basis reconciliation keeps matching-basis events only,
a fraction ``pe_ratio`` of which is consumed to estimate the error rate.

All block counts refer to sifted-and-detected events: ``N`` transmitted
qubits yield about ``N * p_sift * Q1`` usable bits, split between parameter
estimation (``m``) and key generation (``n``).

Only the worst-case error rate and the log and AEP terms depend on the
budget; one :func:`dv_key_rate` call computes the rest once and rates a whole
batch over 1-d arrays, a single split as a batch of one (see :mod:`qkdopt.budget`),
through the base-2 logarithms of the budget's components.  The worst-case
error rate and its entropy depend on ``eps_pe`` alone: :func:`dv_rate_chain`
runs them as one stage, once per distinct ``eps_pe`` of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .budget import (
    LN2, EpsilonBudget, Family, check_fields, floats_of, log2, refuse_outside, refuse_overflow)
from .cv_rate import transmissivity

__all__ = [
    "DvProtocolParams",
    "DetectionStats",
    "DvRateBreakdown",
    "detection_stats",
    "estimated_qber",
    "worst_case_qber",
    "aep_term",
    "binary_entropy",
    "dv_key_rate",
    "dv_rate_chain",
]


@dataclass(frozen=True)
class DvProtocolParams:
    """Inputs of the single-photon link, defaulting to a long-haul fibre.

    :param length_km: fibre length
    :param attenuation_db_per_km: fibre attenuation
    :param det_efficiency: single-photon detector efficiency, in (0, 1]
    :param x_basis_prob: probability of choosing the X basis on either side
    :param block_size: number of transmitted qubits ``N``
    :param dark_count_prob: dark-count probability per detection gate
    :param recon_efficiency: error-correction inefficiency ``f_EC``, >= 1
    :param pe_ratio: fraction of sifted bits used for error estimation
    :param clock_hz: repetition rate
    :param dead_time_s: detector dead time after each click
    :param intrinsic_error: misalignment error of a true detection
    :param qber_override: if set, bypasses the detection model and uses this
        value directly as the estimated error rate
    """

    #: The protocol these parameters describe: a class attribute, not a field.
    family: ClassVar[Family] = Family.DV
    length_km: float = 100.0
    attenuation_db_per_km: float = 0.2
    det_efficiency: float = 0.92
    x_basis_prob: float = 0.5
    block_size: int = 30_000_000
    dark_count_prob: float = 1e-3
    recon_efficiency: float = 1.25
    pe_ratio: float = 0.25
    clock_hz: float = 2e9
    dead_time_s: float = 2e-6
    intrinsic_error: float = 0.0
    qber_override: float | None = None

    def __post_init__(self) -> None:
        check_fields(self, lambda: [
            (self.length_km >= 0.0, "length_km must be non-negative"),
            (self.attenuation_db_per_km >= 0.0, "attenuation_db_per_km must be non-negative"),
            (0.0 < self.det_efficiency <= 1.0, "det_efficiency must lie in (0, 1]"),
            (0.0 < self.x_basis_prob < 1.0, "x_basis_prob must lie in (0, 1)"),
            (self.block_size >= 2, "block_size must be at least 2"),
            (0.0 <= self.dark_count_prob <= 1.0, "dark_count_prob must lie in [0, 1]"),
            (self.recon_efficiency >= 1.0, "recon_efficiency must be at least 1"),
            (0.0 < self.pe_ratio < 1.0, "pe_ratio must lie in (0, 1)"),
            (self.clock_hz > 0.0, "clock_hz must be positive"),
            (self.dead_time_s >= 0.0, "dead_time_s must be non-negative"),
            (0.0 <= self.intrinsic_error <= 0.5, "intrinsic_error must lie in [0, 0.5]"),
            (
                self.qber_override is None or 0.0 <= self.qber_override <= 0.5,
                "qber_override must lie in [0, 0.5] when set",
            ),
        ])


class DetectionStats(NamedTuple):
    """End-to-end efficiency, sifting probability and per-qubit click probability."""

    eta_tot: float
    p_sift: float
    q1: float


@dataclass(frozen=True)
class DvRateBreakdown:
    """Intermediate quantities of one key-rate evaluation.

    ``qber_wc``, ``secret_fraction``, ``rate_per_use`` and
    ``rate_bits_per_sec`` depend on the budget: arrays for a batch, floats
    for a budget of floats.  ``rate_per_use = kappa * secret_fraction`` and
    ``rate_bits_per_sec = c_dt * clock_hz * rate_per_use`` always hold, and
    ``qber_wc >= qber_est``.
    """

    eta_tot: float
    p_sift: float
    q1: float
    qber_est: float
    qber_wc: float | np.ndarray
    kappa: float
    secret_fraction: float | np.ndarray
    c_dt: float
    rate_per_use: float | np.ndarray
    rate_bits_per_sec: float | np.ndarray


def detection_stats(params: DvProtocolParams) -> DetectionStats:
    """Detection-layer probabilities of the link.

    ``eta_tot = eta * T`` is the end-to-end photon survival probability,
    ``p_sift = p_X^2 + (1 - p_X)^2`` the probability both sides pick the
    same basis, and ``Q1 = eta_tot + (1 - eta_tot) * p_dc`` the probability
    a gate clicks at all (true detection or dark count).
    """
    t = transmissivity(params.length_km, params.attenuation_db_per_km)
    eta_tot = params.det_efficiency * t
    p_x = params.x_basis_prob
    p_sift = p_x * p_x + (1.0 - p_x) * (1.0 - p_x)
    q1 = eta_tot + (1.0 - eta_tot) * params.dark_count_prob
    return DetectionStats(eta_tot=eta_tot, p_sift=p_sift, q1=q1)


def estimated_qber(params: DvProtocolParams, q1: float, eta_tot: float) -> float:
    """Expected error rate of a sifted detection, capped at 1/2.

    True detections err with the intrinsic misalignment probability; dark
    counts are uncorrelated with the sent bit and err half the time:

        ``E = (e_int * eta_tot + 0.5 * (1 - eta_tot) * p_dc) / Q1``.

    When ``qber_override`` is set on the parameters it is returned verbatim.
    """
    if params.qber_override is not None:
        return params.qber_override
    if q1 <= 0.0:
        raise ValueError("click probability must be positive to define an error rate")
    errors = params.intrinsic_error * eta_tot + 0.5 * (1.0 - eta_tot) * params.dark_count_prob
    return min(errors / q1, 0.5)


def worst_case_qber(qber_est: float, m: int, log2_eps_pe):
    """Upper confidence limit on the error rate after comparing ``m`` bits.

    ``E_wc = E + sqrt((2 / m) * ln((m + 1) / eps_pe))``, capped at 1/2,
    element by element over a 1-d array of ``log2(eps_pe)``, with
    ``ln((m + 1) / eps_pe) = ln(m + 1) - ln 2 * log2(eps_pe)``.

    :param qber_est: estimated error rate, in [0, 0.5]
    :param m: number of disclosed estimation bits, >= 1
    :param log2_eps_pe: ``log2`` of the estimation failure probability
        ``eps_pe`` in (0, 1), so negative and finite
    """
    if not (0.0 <= qber_est <= 0.5):
        raise ValueError(f"qber_est must lie in [0, 0.5], got {qber_est}")
    if m < 1:
        raise ValueError(f"need at least one estimation bit, got m = {m}")
    log2_eps_pe = np.atleast_1d(log2_eps_pe)
    inside = (-np.inf < log2_eps_pe) & (log2_eps_pe < 0.0)
    refuse_outside(log2_eps_pe, inside, "log2(eps_pe) must lie in (-inf, 0)")
    dev = np.sqrt((2.0 / m) * (math.log(m + 1) - LN2 * log2_eps_pe))
    return np.minimum(qber_est + dev, 0.5)


def aep_term(log2_eps_s):
    """Entropy-rate convergence penalty ``7 * sqrt(log2(2 / eps_s))`` per element,
    ``7 * sqrt(1 - log2(eps_s))`` over a 1-d array of ``log2(eps_s)``.

    Vanishes at the boundary value ``eps_s = 2`` (included for that
    mathematical check; real budgets keep ``eps_s`` far below 1).
    """
    log2_eps_s = np.atleast_1d(log2_eps_s)
    inside = (-np.inf < log2_eps_s) & (log2_eps_s <= 1.0)
    refuse_outside(log2_eps_s, inside, "log2(eps_s) must lie in (-inf, 1]")
    return 7.0 * np.sqrt(1.0 - log2_eps_s)


def binary_entropy(p):
    """Binary Shannon entropy in bits, element by element; ``h(0) = h(1) = 0``.

    ``h(p) = -p * log2(p) - (1 - p) * log2(1 - p)`` over a 1-d array, with
    one logarithm call for ``p`` and ``1 - p`` together.
    """
    p = np.atleast_1d(p)
    refuse_outside(p, (0.0 <= p) & (p <= 1.0), "probability must lie in [0, 1]")
    inner = (0.0 < p) & (p < 1.0)
    p = np.where(inner, p, 0.5)  # keep the endpoints out of log2's domain
    pq = np.stack((p, 1.0 - p))
    h_p, h_q = pq * log2(pq)
    return np.where(inner, -h_p - h_q, 0.0)


def dv_key_rate(params: DvProtocolParams, budget: EpsilonBudget) -> DvRateBreakdown:
    """Composable secret-key rate of the single-photon protocol.

    Sifted-and-detected counts ``n = floor((1 - pe_ratio) * N * p_sift * Q1)``
    and ``m = floor(pe_ratio * N * p_sift * Q1)`` set the finite-size
    penalties of the secret fraction

        ``r = 1 - h(E_wc) - f_EC * h(E)
        + (1 + log2(eps_cor * eps_h^2)) / n - aep(eps_s) / sqrt(n)``;

    the throughput prefactor ``kappa = (1 - pe_ratio) * p_sift * Q1``
    converts it into bits per transmitted qubit, and the dead-time factor
    ``c_dt = 1 / (1 + Q1 * t_dt * clock)`` deflates the clock for bits/s.
    A batch budget gives one rate per split, each equal to the rate of that
    split alone.  The call takes two logarithms: :func:`~qkdopt.budget.log2`
    of the budget's components, from which :func:`dv_rate_chain` writes every
    ``eps`` term, and one in :func:`binary_entropy` of every ``E_wc`` and ``E``.

    Raises ``ValueError`` when the detected block degenerates (``n < 2`` or
    ``m < 1``) or the rate overflows the float range.

    :param budget: feasible budget with ``family == Family.DV``
    """
    if budget.family is not Family.DV:
        raise ValueError(f"budget family must be DV, got {budget.family}")
    return floats_of(dv_rate_chain(params, *log2(budget.components)), budget)


@refuse_overflow
def dv_rate_chain(
    params: DvProtocolParams, log2_pe, log2_cor, log2_sec, pe_of=slice(None)
) -> DvRateBreakdown:
    """The breakdown of :func:`dv_key_rate` from 1-d arrays of the ``log2`` of
    the components, in two stages.

    The ``eps_pe`` stage, ``E_wc`` and ``1 - h(E_wc) - f_EC * h(E)``, runs once
    per element of ``log2_pe``; the remainder runs once per split, split ``k``
    taking stage ``pe_of[k]`` (by default stage ``k``).  A grid passes
    its axis once with ``pe_of`` indexing it, and rates each cell exactly as
    a budget of that cell alone.  The one logarithm is in
    :func:`binary_entropy`; ``log2(eps_h) = log2(eps_sec) - 1``.
    """
    stats = detection_stats(params)
    sifted = params.block_size * stats.p_sift * stats.q1
    n = math.floor((1.0 - params.pe_ratio) * sifted)
    m = math.floor(params.pe_ratio * sifted)
    if n < 2 or m < 1:
        raise ValueError(
            f"detected block degenerate: n = {n} key and m = {m} estimation bits"
        )
    qber = estimated_qber(params, stats.q1, stats.eta_tot)
    kappa = (1.0 - params.pe_ratio) * stats.p_sift * stats.q1
    c_dt = 1.0 / (1.0 + stats.q1 * params.dead_time_s * params.clock_hz)

    qber_wc = worst_case_qber(qber, m, log2_pe)
    h = binary_entropy(np.concatenate((qber_wc, [qber])))  # each h(E_wc), then h(E)
    head = 1.0 - h[:-1] - params.recon_efficiency * h[-1]
    qber_wc, head = qber_wc[pe_of], head[pe_of]  # the default slice: views, no copy

    log2_h = log2_sec - 1.0  # eps_h = eps_s = eps_sec / 2
    log_term = (1.0 + log2_cor + 2.0 * log2_h) / n  # log2(eps_cor * eps_h^2)
    secret_fraction = head + log_term - aep_term(log2_h) / math.sqrt(n)
    rate_per_use = kappa * secret_fraction
    return DvRateBreakdown(
        eta_tot=stats.eta_tot,
        p_sift=stats.p_sift,
        q1=stats.q1,
        qber_est=qber,
        qber_wc=qber_wc,
        kappa=kappa,
        secret_fraction=secret_fraction,
        c_dt=c_dt,
        rate_per_use=rate_per_use,
        rate_bits_per_sec=c_dt * params.clock_hz * rate_per_use,
    )
