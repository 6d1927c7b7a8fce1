import math
from dataclasses import replace

import numpy as np
import pytest

from qkdopt.budget import Family, baseline_budgets, log2, reconstruct_sec
from qkdopt.cv_rate import (
    CvProtocolParams,
    EstimatorModel,
    bosonic_entropy,
    cv_key_rate,
    cv_rate_chain,
    holevo_bound,
    ml_estimator_model,
    mutual_information,
    pe_confidence_width,
    transmissivity,
    worst_case_estimators,
)

# Frozen values recomputed independently by tests/oracles.py (mpmath, 50 digits).
T_4KM = 0.831763771102671
W_1E10 = 6.786140424415112
SIGMA_T = 0.0012266250468920764
SIGMA_XI = 0.00639264412469189
T_WC_1E10 = 0.8234397212863566
XI_WC_1E10 = 0.05338138071347139
I_TABLE = 2.014590685170712
CHI_TABLE = 1.1787226990650879
F_280K = 148104.31821042922
SYM_1E9_RPE = 0.4838872713076037
SYM_1E9_F = 129993.03176031217
SYM_1E9_RATE = 0.013738510514542153
SYM_1E9_BPS = 13738510.514542153


def table_params(**overrides):
    return replace(CvProtocolParams(), **overrides)


def test_transmissivity():
    assert transmissivity(0.0, 0.2) == 1.0
    assert transmissivity(4.0, 0.2) == pytest.approx(T_4KM, rel=1e-12)
    assert transmissivity(100.0, 0.2) == pytest.approx(0.01, abs=1e-12)


def test_pe_confidence_width():
    # the width takes log2(eps_pe): eps_pe = 1, exp(-2), 1e-10
    assert pe_confidence_width(0.0) == 0.0
    assert pe_confidence_width(-2.0 / math.log(2.0)) == pytest.approx(2.0, abs=1e-12)
    assert pe_confidence_width(log2(1e-10)) == pytest.approx(W_1E10, rel=1e-12)
    with pytest.raises(ValueError):
        pe_confidence_width(-math.inf)  # eps_pe = 0
    with pytest.raises(ValueError):
        pe_confidence_width(log2(1.0 + 1e-9))


def test_ml_estimator_model_table_values():
    params = table_params()
    t = transmissivity(params.length_km, params.attenuation_db_per_km)
    est = ml_estimator_model(params, t, params.excess_noise, 120_000)
    assert est.t_hat == pytest.approx(T_4KM, rel=1e-12)
    assert est.xi_hat == 0.01
    assert est.sigma_t == pytest.approx(SIGMA_T, rel=1e-12)
    assert est.sigma_xi == pytest.approx(SIGMA_XI, rel=1e-12)
    assert est.m == 120_000


def test_worst_case_zero_width():
    est = EstimatorModel(t_hat=0.8, xi_hat=0.02, sigma_t=0.1, sigma_xi=0.1, m=100)
    wc = worst_case_estimators(est, 0.0)  # eps_pe = 1
    assert (wc.t, wc.xi) == (0.8, 0.02)
    assert not wc.degenerate


def test_worst_case_noiseless_estimators():
    est = EstimatorModel(t_hat=0.7, xi_hat=0.03, sigma_t=0.0, sigma_xi=0.0, m=10)
    for eps_pe in (1e-3, 1e-10, 1e-18):
        wc = worst_case_estimators(est, log2(eps_pe))
        assert (wc.t, wc.xi) == (0.7, 0.03)


def test_worst_case_table_values():
    params = table_params()
    t = transmissivity(params.length_km, params.attenuation_db_per_km)
    est = ml_estimator_model(params, t, params.excess_noise, 120_000)
    wc = worst_case_estimators(est, log2(1e-10))
    assert wc.t == pytest.approx(T_WC_1E10, rel=1e-12)
    assert wc.xi == pytest.approx(XI_WC_1E10, rel=1e-12)
    assert not wc.degenerate
    # the literal (subtractive) sign convention drives the noise to its floor
    lit = worst_case_estimators(est, log2(1e-10), subtractive_xi=True)
    assert lit.t == wc.t
    assert lit.xi == 0.0


def test_worst_case_degenerate_marker():
    est = EstimatorModel(t_hat=0.01, xi_hat=0.01, sigma_t=10.0, sigma_xi=0.0, m=4)
    wc = worst_case_estimators(est, log2(1e-10))
    assert wc.degenerate
    assert wc.t == 1e-12  # clamped to the floor


def test_mutual_information_closed_forms():
    ideal = table_params(det_efficiency=1.0, electronic_noise=0.0, excess_noise=0.0)
    assert mutual_information(ideal, 1.0, 0.0) == pytest.approx(
        0.5 * math.log2(25.0), rel=1e-12
    )
    # no modulation, no information
    flat = table_params(signal_variance=1.0)
    assert mutual_information(flat, 0.9, 0.01) == 0.0
    assert mutual_information(table_params(), T_4KM, 0.01) == pytest.approx(
        I_TABLE, rel=1e-12
    )


def test_bosonic_entropy():
    assert bosonic_entropy(1.0) == 0.0
    assert bosonic_entropy(1.0 - 5e-10) == 0.0  # inside the clamp band
    assert bosonic_entropy(3.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        bosonic_entropy(0.9)


def scalar_bosonic_entropy(nu: float) -> float:
    """The formula for one eigenvalue, each logarithm a one-element kernel call."""
    if nu <= 1.0:
        return 0.0
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    return up * log2(np.array([up]))[0] - dn * log2(np.array([dn]))[0]


def test_bosonic_entropy_of_an_array_is_the_scalar_formula_per_element():
    rng = np.random.default_rng(12)
    edges = [1.0, 1.0 - 1e-10, 1.0 + 2.0**-52, 3.0]
    nu = np.concatenate([edges, 1.0 + 10.0 ** rng.uniform(-15.0, 4.0, 1000)])
    rng.shuffle(nu)
    assert bosonic_entropy(nu).tolist() == [scalar_bosonic_entropy(v) for v in nu.tolist()]
    for v in edges:  # a float is a one-row array
        assert bosonic_entropy(v).tolist() == [scalar_bosonic_entropy(v)]
    assert bosonic_entropy(1.0 - 1e-10) == 0.0  # clamped to the vacuum
    for below in (1.0 - 2e-9, np.array([2.0, 1.0 - 2e-9])):
        with pytest.raises(ValueError, match="unphysical"):
            bosonic_entropy(below)


def test_holevo_pure_state_limits():
    params = table_params()
    assert holevo_bound(params, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    flat = table_params(signal_variance=1.0)
    assert holevo_bound(flat, 0.5, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_holevo_table_value():
    assert holevo_bound(table_params(), T_4KM, 0.01) == pytest.approx(
        CHI_TABLE, rel=1e-12
    )


def test_holevo_matches_matrix_route():
    # independent route: symplectic eigenvalues from |eig(i.Omega.Gamma)|
    # instead of the closed-form discriminant
    mu = 25.0
    for t, xi in [(0.83, 0.01), (0.5, 0.05), (0.05, 0.2), (0.999, 0.0)]:
        b = t * mu + 1.0 - t + t * xi
        c = math.sqrt(t * (mu * mu - 1.0))
        gamma = np.array(
            [
                [mu, 0.0, c, 0.0],
                [0.0, mu, 0.0, -c],
                [c, 0.0, b, 0.0],
                [0.0, -c, 0.0, b],
            ]
        )
        omega = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        nus = np.abs(np.linalg.eigvals(1j * omega @ gamma).real)
        nus = np.sort(nus)[::2]  # each symplectic eigenvalue appears twice
        nu_c = math.sqrt(mu * (mu - c * c / b))

        def h(nu):
            if nu <= 1.0:
                return 0.0
            return ((nu + 1) / 2) * math.log2((nu + 1) / 2) - (
                (nu - 1) / 2
            ) * math.log2((nu - 1) / 2)

        chi_matrix = h(nus[0]) + h(nus[1]) - h(nu_c)
        assert holevo_bound(table_params(), t, xi) == pytest.approx(
            chi_matrix, rel=1e-9, abs=1e-9
        )


def cv_budget(total, eps_pe, eps_cor):
    budget = reconstruct_sec(total, eps_pe, eps_cor, Family.CV)
    assert budget is not None
    return budget


def component_budget(eps_pe, eps_cor, eps_sec):
    """The CV budget of these components, completed from their total."""
    return cv_budget(3.0 * eps_pe + eps_cor + eps_sec, eps_pe, eps_cor)


def finite_size_term(block_size, n, budget):
    """The finite-size deduction ``F`` of ``budget`` from the rate chain, for a block
    of ``block_size`` signals, of which ``n`` are key signals at the default
    ``pe_ratio`` 0.3, and the default ``discretization`` 7."""
    params = CvProtocolParams(block_size=block_size)
    assert (params.pe_ratio, params.discretization) == (0.3, 7)
    assert block_size - math.floor(params.pe_ratio * block_size) == n
    (fs,) = cv_rate_chain(params, *log2(budget.components)).finite_term_bits
    return fs


def test_finite_size_term_frozen_value():
    budget = component_budget(2e-13, 2e-13, 2e-13)
    assert finite_size_term(400_000, 280_000, budget) == pytest.approx(F_280K, rel=1e-12)


def test_finite_size_term_monotone_in_each_component():
    base = (2e-13, 2e-13, 2e-13)
    f0 = finite_size_term(400_000, 280_000, component_budget(*base))
    for i in range(3):
        grown = list(base)
        grown[i] *= 10.0
        f1 = finite_size_term(400_000, 280_000, component_budget(*grown))
        assert f1 < f0


def test_finite_size_term_block_doubling():
    budget = component_budget(2e-13, 2e-13, 2e-13)
    n = 280_000
    f1 = finite_size_term(400_000, n, budget)
    f2 = finite_size_term(800_000, 2 * n, budget)
    # predicted change, term by term: the sqrt(n).log2(n) head picks up a
    # factor sqrt(2).(1 + 1/log2 n), the middle term a plain sqrt(2), the
    # log tail is n-free
    head = math.sqrt(n) * math.log2(n) * math.sqrt(2.0 * math.log(2.0 / 2e-13))
    mid = (
        4.0
        * math.sqrt(n)
        * math.log2(math.sqrt(2.0**7) + 2.0)
        * math.sqrt(math.log2(8.0 / (2e-13) ** 2))
    )
    predicted = head * (math.sqrt(2.0) * (1.0 + 1.0 / math.log2(n)) - 1.0) + mid * (
        math.sqrt(2.0) - 1.0
    )
    assert f2 - f1 == pytest.approx(predicted, rel=1e-9)


def test_cv_key_rate_frozen_pipeline():
    params = table_params()
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    out = cv_key_rate(params, budget)
    assert out.r_pe_bits == pytest.approx(SYM_1E9_RPE, rel=1e-12)
    assert out.finite_term_bits == pytest.approx(SYM_1E9_F, rel=1e-12)
    assert out.rate_per_use == pytest.approx(SYM_1E9_RATE, rel=1e-12)
    assert out.rate_bits_per_sec == pytest.approx(SYM_1E9_BPS, rel=1e-12)
    # breakdown consistency
    assert out.rate_bits_per_sec == pytest.approx(
        params.clock_hz * out.rate_per_use, rel=1e-12
    )
    n = params.block_size - math.floor(params.pe_ratio * params.block_size)
    assert out.rate_per_use == pytest.approx(
        (n * out.r_pe_bits - out.finite_term_bits) / params.block_size, rel=1e-12
    )


def test_cv_key_rate_pure_loss_sanity():
    # no loss, no noise: only the estimator spreads leave the eavesdropper
    # anything, so chi falls toward 0 and R_pe rises toward beta.I with the block
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    holevo = []
    for block in (10**6, 10**8, 10**10, 10**12):
        params = table_params(
            length_km=0.0, det_efficiency=1.0, electronic_noise=0.0,
            excess_noise=0.0, block_size=block,
        )
        out = cv_key_rate(params, budget)
        ideal = params.recon_efficiency * out.mutual_info_bits
        assert out.mutual_info_bits == pytest.approx(0.5 * math.log2(25.0), rel=1e-12)
        assert out.r_pe_bits == pytest.approx(ideal - out.holevo_bits, abs=1e-12)
        holevo.append(out.holevo_bits)
    assert all(b < a for a, b in zip(holevo, holevo[1:]))
    assert 0.0 < holevo[-1] < 3e-3


def test_cv_key_rate_asymptotic_consistency():
    params = table_params()
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    t = transmissivity(params.length_km, params.attenuation_db_per_km)
    target = (1.0 - params.pe_ratio) * (
        params.recon_efficiency * mutual_information(params, t, params.excess_noise)
        - holevo_bound(params, t, params.excess_noise)
    )
    deviations = []
    for k in range(8):
        big = replace(params, block_size=400_000 * 10**k)
        out = cv_key_rate(big, budget)
        deviations.append(abs(out.rate_per_use - target))
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 1e-3 * target


def test_cv_key_rate_degenerate_channel():
    # 100 km and m = 2 estimation signals: the transmissivity interval
    # reaches zero, so no key is claimed whatever the channel
    params = table_params(length_km=100.0, block_size=20, pe_ratio=0.1)
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    est = ml_estimator_model(params, transmissivity(100.0, 0.2), params.excess_noise, 2)
    assert worst_case_estimators(est, log2(budget.eps_pe)).degenerate
    out = cv_key_rate(params, budget)
    assert out.r_pe_bits == 0.0
    assert out.rate_per_use == pytest.approx(
        -out.finite_term_bits / params.block_size, rel=1e-12
    )
    assert out.rate_per_use < 0.0


def test_cv_key_rate_monotone_in_each_component():
    params = table_params()
    base = (2e-10, 2e-10, 2e-10)
    r0 = cv_key_rate(params, component_budget(*base)).rate_per_use
    for i in range(3):
        grown = list(base)
        grown[i] *= 100.0
        r1 = cv_key_rate(params, component_budget(*grown)).rate_per_use
        assert r1 >= r0 - 1e-15


def test_cv_rate_bounds_random_draws():
    # I >= 0, chi >= 0 and R_PE <= beta.I over random physical inputs
    rng = np.random.default_rng(19)
    params = table_params()
    for _ in range(200):
        t = float(rng.uniform(0.01, 1.0))
        xi = float(rng.uniform(0.0, 0.3))
        i_bits = mutual_information(params, t, xi)
        chi = holevo_bound(params, t, xi)
        assert i_bits >= 0.0
        assert chi >= -1e-12
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    out = cv_key_rate(params, budget)
    assert out.r_pe_bits <= params.recon_efficiency * out.mutual_info_bits


def test_a_rate_past_the_float_range_raises():
    # the largest discretization, 1023 bits, rates finitely at about -22 bits
    # per use, which passes the float range at a clock of 1e308 Hz
    budget = cv_budget(1e-9, 2e-10, 2e-10)
    assert cv_key_rate(table_params(discretization=1023), budget).rate_per_use < -20
    with pytest.raises(ValueError, match="overflows the float range"):
        cv_key_rate(table_params(discretization=1023, clock_hz=1e308), budget)


def test_signal_variance_is_bounded_where_the_holevo_bound_keeps_its_precision():
    # at 1e4 float chi is within 1.7e-8 bits of its 50-digit value on a grid of
    # channels; just past it the params are refused, as 1e20 once raised
    # ZeroDivisionError from the mutual information
    budget = reconstruct_sec(1e-9, 2e-10, 2e-10, Family.CV)
    assert math.isfinite(cv_key_rate(table_params(signal_variance=1e4), budget).rate_per_use)
    for value in (math.nextafter(1e4, math.inf), 1e20):
        with pytest.raises(ValueError, match=r"signal_variance must lie in \[1, 1e4\]"):
            CvProtocolParams(signal_variance=value)


def test_cv_params_validation_collects_problems():
    with pytest.raises(ValueError) as exc:
        CvProtocolParams(det_efficiency=1.5, pe_ratio=2.0, signal_variance=0.5)
    message = str(exc.value)
    assert "det_efficiency" in message
    assert "pe_ratio" in message
    assert "signal_variance" in message

