"""Finite-size composable key rate for Gaussian-modulated coherent states.

The sender modulates coherent states with total quadrature variance ``mu`` and
the receiver applies homodyne detection with efficiency ``eta`` and electronic
noise ``v_el``.  Channel loss and excess noise are estimated from a fraction
``pe_ratio`` of the block; the surviving ``n`` signals pay the finite-size
penalty of the privacy-amplification and error-correction steps.

Model conventions:

* Detector loss and electronic noise are trusted: they enter the mutual
  information between the honest parties but the eavesdropper's Holevo bound
  is evaluated on the channel output with an ideal homodyne measurement.
* Parameter estimation is forecast at the true channel values
  (``t_hat = T``, ``xi_hat = xi``); only the estimator spreads depend on the
  number ``m`` of estimation signals.
* The worst-case excess noise is the upper confidence limit
  ``xi_hat + w * sigma_xi`` (pessimistic for the honest parties).  The
  subtractive variant, ``paper_sign_xi``, is kept for comparison runs.

Only the worst-case channel, its Holevo bound and the finite-size term depend
on the budget; one :func:`cv_key_rate` call computes the rest once and rates a
whole batch over 1-d arrays, a single split as a batch of one (see :mod:`qkdopt.budget`),
through the base-2 logarithms of the budget's components.  The worst-case
channel, its Holevo bound and the finite-size term's entropy-estimation penalty
depend on ``eps_pe`` alone: :func:`cv_rate_chain` runs them as one stage, once
per distinct ``eps_pe`` of a grid.  Its leftover-hash cost depends on
``eps_sec`` alone, and only its log term mixes ``eps_cor`` and ``eps_sec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .budget import LN2, EpsilonBudget, Family, check_fields, floats_of, log2, refuse_overflow

__all__ = [
    "CvProtocolParams",
    "EstimatorModel",
    "WorstCaseChannel",
    "CvRateBreakdown",
    "transmissivity",
    "pe_confidence_width",
    "ml_estimator_model",
    "worst_case_estimators",
    "mutual_information",
    "bosonic_entropy",
    "holevo_bound",
    "cv_key_rate",
    "cv_rate_chain",
]

#: Worst-case transmissivity is clamped to this floor before use; hitting it
#: marks the channel estimate as degenerate (the confidence interval reached 0).
_T_FLOOR = 1e-12

#: Symplectic eigenvalues this far below 1 are treated as rounding noise and
#: clamped; anything lower is an unphysical state and raises.
_NU_TOL = 1e-9


@dataclass(frozen=True)
class CvProtocolParams:
    """Inputs of the coherent-state link, defaulting to a short metropolitan fibre.

    :param length_km: fibre length (zero models a back-to-back bench test)
    :param attenuation_db_per_km: fibre attenuation
    :param det_efficiency: homodyne detector efficiency, in (0, 1]
    :param excess_noise: channel excess noise at the channel input
    :param electronic_noise: detector electronic noise (shot-noise units)
    :param signal_variance: modulation variance ``mu`` (shot-noise units, in [1, 1e4])
    :param block_size: total number of transmitted signals ``N``
    :param recon_efficiency: reconciliation efficiency ``beta``, in (0, 1]
    :param discretization: bits per quadrature sample in key generation, in [1, 1023]
    :param pe_ratio: fraction of the block sacrificed for parameter estimation
    :param clock_hz: repetition rate converting rate/use into bits per second
    :param paper_sign_xi: use the optimistic, subtractive worst-case excess noise
    """

    #: The protocol these parameters describe: a class attribute, not a field.
    family: ClassVar[Family] = Family.CV
    length_km: float = 4.0
    attenuation_db_per_km: float = 0.2
    det_efficiency: float = 0.85
    excess_noise: float = 0.01
    electronic_noise: float = 0.1
    signal_variance: float = 25.0
    block_size: int = 400_000
    recon_efficiency: float = 0.95
    discretization: int = 7
    pe_ratio: float = 0.3
    clock_hz: float = 1e9
    paper_sign_xi: bool = False

    def __post_init__(self) -> None:
        check_fields(self, lambda: [
            (self.length_km >= 0.0, "length_km must be non-negative"),
            (self.attenuation_db_per_km >= 0.0, "attenuation_db_per_km must be non-negative"),
            (0.0 < self.det_efficiency <= 1.0, "det_efficiency must lie in (0, 1]"),
            (self.excess_noise >= 0.0, "excess_noise must be non-negative"),
            (self.electronic_noise >= 0.0, "electronic_noise must be non-negative"),
            (1.0 <= self.signal_variance <= 1e4, "signal_variance must lie in [1, 1e4], "
             "from shot noise to where the Holevo bound keeps its float precision"),
            (self.block_size >= 2, "block_size must be at least 2"),
            (0.0 < self.recon_efficiency <= 1.0, "recon_efficiency must lie in (0, 1]"),
            (1 <= self.discretization <= 1023,
             "discretization must lie in [1, 1023], so that 2**discretization is a finite float"),
            (0.0 < self.pe_ratio < 1.0, "pe_ratio must lie in (0, 1)"),
            (self.clock_hz > 0.0, "clock_hz must be positive"),
        ])


class EstimatorModel(NamedTuple):
    """Point estimates and one-sigma spreads of the channel parameters."""

    t_hat: float
    xi_hat: float
    sigma_t: float
    sigma_xi: float
    m: int


class WorstCaseChannel(NamedTuple):
    """Confidence-limit channel parameters fed to the Holevo bound.

    ``degenerate`` is set when the lower transmissivity limit collapsed to
    (or below) the clamping floor, i.e. estimation failed to exclude a dead
    channel; callers must then refuse to claim any key.  One entry per
    confidence level.
    """

    t: np.ndarray
    xi: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class CvRateBreakdown:
    """Intermediate quantities of one key-rate evaluation.

    ``rate_per_use = (n * r_pe_bits - finite_term_bits) / N`` and
    ``rate_bits_per_sec = clock_hz * rate_per_use`` always hold.  Every field
    but ``mutual_info_bits`` depends on the budget: arrays for a batch,
    floats for a budget of floats.
    """

    mutual_info_bits: float
    holevo_bits: float | np.ndarray
    r_pe_bits: float | np.ndarray
    finite_term_bits: float | np.ndarray
    rate_per_use: float | np.ndarray
    rate_bits_per_sec: float | np.ndarray


def transmissivity(length_km: float, attenuation_db_per_km: float) -> float:
    """Power transmissivity of a fibre: ``10 ** (-A * L / 10)``.

    :param length_km: fibre length, >= 0
    :param attenuation_db_per_km: attenuation coefficient, >= 0
    """
    if length_km < 0.0 or attenuation_db_per_km < 0.0:
        raise ValueError("fibre length and attenuation must be non-negative")
    return 10.0 ** (-attenuation_db_per_km * length_km / 10.0)


def pe_confidence_width(log2_eps_pe):
    """Number of standard deviations covering all but ``eps_pe`` of a Gaussian tail.

    ``w = sqrt(2 * ln(1 / eps_pe)) = sqrt(-2 ln 2 * log2(eps_pe))``, element by
    element over a 1-d array of ``log2(eps_pe)``; the estimation failure
    probability ``eps_pe`` may be 1 (``log2(eps_pe) = 0``), in which case the
    interval has zero width.
    """
    log2_eps_pe = np.atleast_1d(log2_eps_pe)
    if not (inside := (-np.inf < log2_eps_pe) & (log2_eps_pe <= 0.0)).all():
        bad = log2_eps_pe[~inside][0]  # name one value, not the array
        raise ValueError(f"log2(eps_pe) must lie in (-inf, 0], got {bad}")
    return np.sqrt(-2.0 * LN2 * log2_eps_pe)


def ml_estimator_model(
    params: CvProtocolParams, t_hat: float, xi_hat: float, m: int
) -> EstimatorModel:
    """Default maximum-likelihood spreads for the channel estimators.

    With ``m`` pairs of modulation/outcome samples, the transmissivity
    estimator built from the empirical correlation has variance
    ``4 * tau * sigma_z^2 / (eta^2 * m * sigma_x^2)`` and the excess-noise
    estimator has spread ``sigma_z^2 * sqrt(2 / m) / (eta * t_hat)``, where
    ``tau = eta * t_hat``, ``sigma_x^2 = mu - 1`` is the modulation variance
    and ``sigma_z^2 = 1 + v_el + tau * xi_hat`` is the residual noise
    variance seen by the receiver.

    :param t_hat: transmissivity point estimate, in (0, 1]
    :param xi_hat: excess-noise point estimate, >= 0
    :param m: number of estimation samples, >= 1
    """
    if not (0.0 < t_hat <= 1.0):
        raise ValueError(f"t_hat must lie in (0, 1], got {t_hat}")
    if xi_hat < 0.0:
        raise ValueError(f"xi_hat must be non-negative, got {xi_hat}")
    if m < 1:
        raise ValueError(f"need at least one estimation sample, got m = {m}")
    if params.signal_variance <= 1.0:
        raise ValueError("estimator spreads require modulation (signal_variance > 1)")
    eta = params.det_efficiency
    tau = eta * t_hat
    sigma_x2 = params.signal_variance - 1.0
    sigma_z2 = 1.0 + params.electronic_noise + tau * xi_hat
    sigma_t = 2.0 * math.sqrt(tau * sigma_z2 / (m * sigma_x2)) / eta
    sigma_xi = sigma_z2 * math.sqrt(2.0 / m) / (eta * t_hat)
    return EstimatorModel(t_hat=t_hat, xi_hat=xi_hat, sigma_t=sigma_t, sigma_xi=sigma_xi, m=m)


def worst_case_estimators(
    est: EstimatorModel, log2_eps_pe, subtractive_xi: bool = False
) -> WorstCaseChannel:
    """Pessimistic channel parameters at confidence level ``1 - eps_pe``.

    Transmissivity is lowered and excess noise raised by ``w`` estimator
    spreads, with ``w = pe_confidence_width(log2_eps_pe)``.  The lowered
    transmissivity is clamped into ``[1e-12, 1]``; reaching the floor flags
    the result as degenerate.  ``subtractive_xi`` flips the noise bound to
    ``xi_hat - w * sigma_xi`` (clamped at 0), an optimistic variant retained
    for comparison only.

    :param est: point estimates and spreads, e.g. from :func:`ml_estimator_model`
    :param log2_eps_pe: ``log2`` of the estimation failure probability, in (0, 1]
    """
    w = pe_confidence_width(log2_eps_pe)
    t_wc = est.t_hat - w * est.sigma_t
    degenerate = t_wc < _T_FLOOR
    t_wc = np.minimum(np.maximum(t_wc, _T_FLOOR), 1.0)
    if subtractive_xi:
        xi_wc = np.maximum(est.xi_hat - w * est.sigma_xi, 0.0)
    else:
        xi_wc = est.xi_hat + w * est.sigma_xi
    return WorstCaseChannel(t=t_wc, xi=xi_wc, degenerate=degenerate)


def mutual_information(params: CvProtocolParams, t: float, xi: float) -> float:
    """Shannon information between the modulation and the homodyne outcome.

    The receiver sees variance ``b_m = eta * b + 1 - eta + v_el`` where
    ``b = t * mu + 1 - t + t * xi`` is the channel output variance;
    conditioning on the modulation removes the signal part
    ``eta * t * (mu - 1)``, so

        ``I = (1/2) * log2(b_m / (b_m - eta * t * (mu - 1)))``.

    :param t: channel transmissivity, in (0, 1]
    :param xi: channel excess noise, >= 0
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"transmissivity must lie in (0, 1], got {t}")
    if xi < 0.0:
        raise ValueError(f"excess noise must be non-negative, got {xi}")
    mu = params.signal_variance
    eta = params.det_efficiency
    b = t * mu + 1.0 - t + t * xi
    b_m = eta * b + 1.0 - eta + params.electronic_noise
    return 0.5 * math.log2(b_m / (b_m - eta * t * (mu - 1.0)))


def bosonic_entropy(nu):
    """Entropy (bits) of a thermal state with symplectic eigenvalue ``nu``.

    ``h(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2)``,
    element by element, with one logarithm call for both halves.  Eigenvalues
    within 1e-9 below 1 are clamped to 1 (vacuum); anything smaller is
    unphysical and raises ``ValueError``.
    """
    nu = np.atleast_1d(nu)
    if not (physical := nu >= 1.0 - _NU_TOL).all():
        raise ValueError(f"symplectic eigenvalue {nu[~physical][0]} below 1: unphysical state")
    mixed = nu > 1.0
    nu = np.where(mixed, nu, 3.0)  # keep the vacuum out of log2's domain
    up_dn = 0.5 * np.stack((nu + 1.0, nu - 1.0))
    h_up, h_dn = up_dn * log2(up_dn)
    return np.where(mixed, h_up - h_dn, 0.0)


def holevo_bound(params: CvProtocolParams, t, xi):
    """Eavesdropper information bound for an ideal homodyne at the channel output.

    The two-mode state shared before measurement has covariance blocks
    ``mu`` (sender), ``b = t * mu + 1 - t + t * xi`` (channel output) and
    correlation ``c = sqrt(t * (mu^2 - 1))``.  With
    ``Delta = mu^2 + b^2 - 2 c^2`` and ``det = (mu * b - c^2)^2`` the joint
    symplectic eigenvalues are ``nu_pm^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2``
    and the conditional eigenvalue after a quadrature measurement is
    ``nu_c = sqrt(mu * (mu - c^2 / b))``, giving

        ``chi = h(nu_+) + h(nu_-) - h(nu_c)``,

    element by element over 1-d arrays of ``t`` and ``xi``.

    :param t: transmissivity of the pessimistic channel, in (0, 1]
    :param xi: excess noise of the pessimistic channel, >= 0
    """
    t, xi = np.atleast_1d(t, xi)
    if not (inside := (0.0 < t) & (t <= 1.0)).all():
        raise ValueError(f"transmissivity must lie in (0, 1], got {t[~inside][0]}")
    if not (inside := xi >= 0.0).all():
        raise ValueError(f"excess noise must be non-negative, got {xi[~inside][0]}")
    mu = params.signal_variance
    b = t * mu + 1.0 - t + t * xi
    c2 = t * (mu * mu - 1.0)
    delta = mu * mu + b * b - 2.0 * c2
    sqrt_det = mu * b - c2
    root = np.sqrt(np.maximum(delta * delta - 4.0 * (sqrt_det * sqrt_det), 0.0))
    nu2 = (delta + root) * 0.5, (delta - root) * 0.5, mu * sqrt_det / b
    nu = np.sqrt(np.maximum(np.concatenate(nu2), 0.0))  # nu_+, nu_- and nu_c: one entropy call
    h_plus, h_minus, h_cond = bosonic_entropy(nu).reshape(3, -1)
    return h_plus + h_minus - h_cond


def cv_key_rate(params: CvProtocolParams, budget: EpsilonBudget) -> CvRateBreakdown:
    """Composable secret-key rate of the coherent-state protocol.

    The block of ``N`` signals is split into ``m = floor(pe_ratio * N)``
    estimation signals and ``n = N - m`` key signals.  Estimation is
    forecast at the true channel values; the asymptotic secret fraction
    ``beta * I(t_hat, xi_hat) - chi(t_wc, xi_wc)`` is then charged the
    finite-size deduction ``F`` of :func:`cv_rate_chain`:

        ``R = (n * R_pe - F) / N``,  bits/s = ``clock_hz * R``.

    A degenerate worst-case channel (transmissivity interval reaching zero)
    yields no claimable key: ``R_pe`` is forced to 0 so the rate comes out
    strictly negative at ``-F / N``.  A batch budget gives one rate per
    split, each equal to the rate of that split alone.  The call takes two
    logarithms: :func:`~qkdopt.budget.log2` of the budget's components, from
    which :func:`cv_rate_chain` writes every ``eps`` term, and one in
    :func:`bosonic_entropy` of every symplectic eigenvalue of the Holevo bounds.

    :param budget: feasible budget with ``family == Family.CV``
    """
    if budget.family is not Family.CV:
        raise ValueError(f"budget family must be CV, got {budget.family}")
    breakdown = cv_rate_chain(params, *log2(budget.components))
    return floats_of(breakdown) if isinstance(budget.eps_pe, float) else breakdown


@refuse_overflow
def cv_rate_chain(
    params: CvProtocolParams, log2_pe, log2_cor, log2_sec, pe_of=None
) -> CvRateBreakdown:
    """The breakdown of :func:`cv_key_rate` from 1-d arrays of the ``log2`` of
    the components, in two stages, with the finite-size deduction of each split

        ``F = sqrt(n) log2(n) sqrt(2 ln(2 / eps_pe))
        + 4 sqrt(n) log2(sqrt(2^D) + 2) sqrt(log2(8 / eps_sec^2)) - log2(eps_sec^2 eps_cor / 2)``:

    the entropy-estimation penalty (``ln(2 / eps_pe) = ln 2 (1 - log2 eps_pe)``),
    the leftover-hash cost at ``D`` bits per sample and the log term.  The
    ``eps_pe`` stage, the worst-case channel, its Holevo bound, ``R_pe`` and the
    entropy-estimation penalty, runs once per element of ``log2_pe``; the
    remainder once per split, split ``k`` taking stage ``pe_of[k]`` (stage ``k``
    without ``pe_of``).  A grid passes its axis once with ``pe_of`` indexing it,
    and rates each cell exactly as a budget of that cell alone.  The one
    logarithm is in :func:`bosonic_entropy`.
    """
    m = math.floor(params.pe_ratio * params.block_size)
    n = params.block_size - m
    if m < 1 or n < 2:
        raise ValueError(
            f"block split degenerate: m = {m} estimation and n = {n} key signals"
        )
    root_n = math.sqrt(n)
    t_true = transmissivity(params.length_km, params.attenuation_db_per_km)
    est = ml_estimator_model(params, t_true, params.excess_noise, m)
    info = mutual_information(params, est.t_hat, est.xi_hat)

    wc = worst_case_estimators(est, log2_pe, subtractive_xi=params.paper_sign_xi)
    chi = holevo_bound(params, wc.t, wc.xi)
    r_pe = np.where(wc.degenerate, 0.0, params.recon_efficiency * info - chi)
    ent = root_n * math.log2(n) * np.sqrt(2.0 * LN2 * (1.0 - log2_pe))
    if pe_of is not None:
        chi, r_pe, ent = chi[pe_of], r_pe[pe_of], ent[pe_of]

    hashing = 4.0 * root_n * math.log2(math.sqrt(2.0**params.discretization) + 2.0)
    fs = ent + hashing * np.sqrt(3.0 - 2.0 * log2_sec) - (2.0 * log2_sec + log2_cor - 1.0)
    rate_per_use = (n * r_pe - fs) / params.block_size
    return CvRateBreakdown(
        mutual_info_bits=info,
        holevo_bits=chi,
        r_pe_bits=r_pe,
        finite_term_bits=fs,
        rate_per_use=rate_per_use,
        rate_bits_per_sec=params.clock_hz * rate_per_use,
    )
