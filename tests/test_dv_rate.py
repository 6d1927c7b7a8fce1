import math
from dataclasses import replace

import numpy as np
import pytest

from qkdopt.budget import Family, reconstruct_sec
from qkdopt.dv_rate import (
    DvProtocolParams,
    aep_term,
    binary_entropy,
    detection_stats,
    dv_key_rate,
    estimated_qber,
    worst_case_qber,
)

# Frozen values recomputed independently by tests/oracles.py (mpmath, 50 digits).
ETA_TOT = 0.009199999999999998
Q1 = 0.010190799999999998
QBER_EST = 0.048612473996153406
C_DT = 0.02394452532372999
N_KEY = 114_646
M_PE = 38_215
QBER_WC_MODEL = 0.10077870615876329
QBER_WC_04862 = 0.10078623216260989
AEP_5E19 = 55.02672604917227
H_011 = 0.499915958164528
SYM_1E17_BPS = 3317.4760058384104
ASYM_1E18_BPS = 614.3393102702065


def table_params(**overrides):
    return replace(DvProtocolParams(), **overrides)


def dv_budget(total, eps_pe, eps_cor):
    budget = reconstruct_sec(total, eps_pe, eps_cor, Family.DV)
    assert budget is not None
    return budget


def test_detection_stats_table_values():
    stats = detection_stats(table_params())
    assert stats.p_sift == 0.5
    assert stats.eta_tot == pytest.approx(ETA_TOT, rel=1e-12)
    assert stats.eta_tot == pytest.approx(0.0092, rel=1e-12)
    assert stats.q1 == pytest.approx(Q1, rel=1e-12)
    assert stats.q1 == pytest.approx(0.0101908, rel=1e-12)


def test_detection_stats_biased_basis():
    stats = detection_stats(table_params(x_basis_prob=0.9))
    assert stats.p_sift == pytest.approx(0.81 + 0.01, rel=1e-12)


def test_estimated_qber_model():
    params = table_params()
    stats = detection_stats(params)
    assert estimated_qber(params, stats.q1, stats.eta_tot) == pytest.approx(
        QBER_EST, rel=1e-12
    )
    clean = table_params(dark_count_prob=0.0)
    clean_stats = detection_stats(clean)
    assert estimated_qber(clean, clean_stats.q1, clean_stats.eta_tot) == 0.0


def test_estimated_qber_override_and_cap():
    params = table_params(qber_override=0.05)
    stats = detection_stats(params)
    assert estimated_qber(params, stats.q1, stats.eta_tot) == 0.05
    # with self-consistent stats the formula never exceeds 1/2 (it is a
    # convex combination); the cap still guards hand-fed mismatched stats
    noisy = table_params(intrinsic_error=0.5)
    assert estimated_qber(noisy, 0.001, 0.5) == 0.5


def test_worst_case_qber_frozen_values():
    assert worst_case_qber(QBER_EST, M_PE, 1e-18) == pytest.approx(
        QBER_WC_MODEL, rel=1e-12
    )
    assert worst_case_qber(0.04862, M_PE, 1e-18) == pytest.approx(
        QBER_WC_04862, rel=1e-12
    )


def test_worst_case_qber_monotone_in_m_and_eps():
    widths = [worst_case_qber(0.05, m, 1e-10) for m in (10**3, 10**4, 10**5, 10**6)]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert worst_case_qber(0.05, 10**4, 1e-6) < worst_case_qber(0.05, 10**4, 1e-12)


def test_worst_case_qber_cap():
    assert worst_case_qber(0.4, 10, 1e-18) == 0.5


def test_aep_term():
    assert aep_term(2.0) == 0.0
    assert aep_term(0.125) == pytest.approx(14.0, abs=1e-12)
    assert aep_term(5e-19) == pytest.approx(AEP_5E19, rel=1e-12)
    with pytest.raises(ValueError):
        aep_term(0.0)
    with pytest.raises(ValueError):
        aep_term(2.0 + 1e-12)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(H_011, rel=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def scalar_binary_entropy(p: float) -> float:
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def test_binary_entropy_of_an_array_is_the_scalar_formula_per_element():
    rng = np.random.default_rng(11)
    p = np.concatenate(
        [[0.0, 1.0, 0.5, 5e-324], rng.uniform(0.0, 1.0, 500), 10.0 ** rng.uniform(-300, 0, 500)]
    )
    rng.shuffle(p)
    assert binary_entropy(p).tolist() == [scalar_binary_entropy(v) for v in p.tolist()]
    for v in (0.0, 1.0, 0.3):  # a float is a one-row array
        assert binary_entropy(v).tolist() == [scalar_binary_entropy(v)]
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, -1e-300]))


def test_binary_entropy_symmetry_grid():
    for p in np.linspace(0.0, 1.0, 1000):
        assert abs(binary_entropy(float(p)) - binary_entropy(float(1.0 - p))) < 1e-14


def test_dv_key_rate_frozen_symmetric():
    eps = 1e-17
    out = dv_key_rate(table_params(), dv_budget(eps, eps / 3, eps / 3))
    assert out.rate_bits_per_sec == pytest.approx(SYM_1E17_BPS, rel=1e-12)
    assert out.c_dt == pytest.approx(C_DT, rel=1e-12)
    assert out.qber_est == pytest.approx(QBER_EST, rel=1e-12)
    # breakdown consistency pins the internal counts: qber_wc at m = 38,215
    assert out.qber_wc == pytest.approx(
        worst_case_qber(out.qber_est, M_PE, eps / 3), rel=1e-12
    )
    assert out.rate_per_use == pytest.approx(
        out.kappa * out.secret_fraction, rel=1e-12
    )
    # and the secret fraction pins n = 114,646
    budget = dv_budget(eps, eps / 3, eps / 3)
    expected_r = (
        1.0
        - binary_entropy(out.qber_wc)
        - 1.25 * binary_entropy(out.qber_est)
        + (1.0 + math.log2(budget.eps_cor * budget.eps_h**2)) / N_KEY
        - aep_term(budget.eps_s) / math.sqrt(N_KEY)
    )
    assert out.secret_fraction == pytest.approx(expected_r, rel=1e-12)


def test_dv_key_rate_frozen_asymmetric():
    eps = 1e-18
    budget = dv_budget(eps, 5 * eps / 99.5, 90 * eps / 99.5)
    out = dv_key_rate(table_params(), budget)
    assert out.rate_bits_per_sec == pytest.approx(ASYM_1E18_BPS, rel=1e-12)


def test_dv_key_rate_ideal_limit():
    # no dark counts, no misalignment, huge block, f_EC = 1: r approaches 1
    params = table_params(
        dark_count_prob=0.0, recon_efficiency=1.0, block_size=10**16
    )
    out = dv_key_rate(params, dv_budget(1e-9, 1e-9 / 3, 1e-9 / 3))
    assert out.qber_est == 0.0
    assert 1.0 - 1e-3 < out.secret_fraction < 1.0


def test_dv_key_rate_dead_time():
    out = dv_key_rate(table_params(dead_time_s=0.0), dv_budget(1e-17, 3e-18, 3e-18))
    assert out.c_dt == 1.0
    for t_dt in (1e-7, 1e-6, 1e-5):
        slower = dv_key_rate(
            table_params(dead_time_s=t_dt), dv_budget(1e-17, 3e-18, 3e-18)
        )
        assert 0.0 < slower.c_dt < 1.0


def test_dv_key_rate_asymptotic_secret_fraction():
    # r(N) approaches 1 - h(qber_wc(N)) - f_EC.h(qber_est): compare against
    # the target with the worst-case estimate evaluated at the same m, which
    # isolates the 1/n and 1/sqrt(n) penalty terms
    eps = 1e-17
    deviations = []
    for n_block in (3e7, 3e9, 1e12):
        params = table_params(block_size=int(n_block))
        out = dv_key_rate(params, dv_budget(eps, eps / 3, eps / 3))
        target = (
            1.0
            - binary_entropy(out.qber_wc)
            - params.recon_efficiency * binary_entropy(out.qber_est)
        )
        deviations.append(abs(out.secret_fraction - target))
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 1e-3


def component_budget(eps_pe, eps_cor, eps_sec):
    """The DV budget of these components, completed from their total."""
    return dv_budget(eps_pe + eps_cor + eps_sec, eps_pe, eps_cor)


def test_dv_key_rate_monotone_in_each_component():
    params = table_params()
    base = (3e-18, 3e-18, 3e-18)
    r0 = dv_key_rate(params, component_budget(*base)).rate_per_use
    for i in range(3):
        grown = list(base)
        grown[i] *= 100.0
        r1 = dv_key_rate(params, component_budget(*grown)).rate_per_use
        assert r1 >= r0 - 1e-15


def test_dv_key_rate_degenerate_block():
    with pytest.raises(ValueError, match="degenerate"):
        dv_key_rate(
            table_params(block_size=100), dv_budget(1e-17, 3e-18, 3e-18)
        )


def test_dv_params_validation_collects_problems():
    with pytest.raises(ValueError) as exc:
        DvProtocolParams(x_basis_prob=0.0, recon_efficiency=0.5, pe_ratio=1.5)
    message = str(exc.value)
    assert "x_basis_prob" in message
    assert "recon_efficiency" in message
    assert "pe_ratio" in message
