"""Independent high-precision recomputation of the frozen test constants.

Every numeric literal asserted in the unit tests was produced by running
this script (``python3 tests/oracles.py``), which re-derives the whole
rate pipeline from scratch in 50-digit mpmath arithmetic without importing
the package.  Each constant a test names is also read from that test
file's source and compared with its recomputation; the script exits 1 if
one differs by more than rel 1e-12, the tolerance the tests assert with.

Inputs are converted from their IEEE-754 double values (``mpf(0.2)``, not
``mpf("0.2")``) so the only difference from the library is rounding noise
in the library's float64 arithmetic, a few ulps at most.

Sample counts are the one exception: ``floor`` is discontinuous, and the
pipeline defines the counts as the floor of *double-precision* products
(0.3 * 400000 rounds up to exactly 120000.0; the infinitely precise
product floors to 119999).  Counts are therefore computed here in plain
floats, exactly as the pipeline does, before the arithmetic goes exact.
"""

import ast
import math
import sys
from pathlib import Path

from mpmath import mp, mpf, sqrt, log

mp.dps = 50

LOG2 = log(2)
REL = 1e-12


def log2(x):
    return log(x) / LOG2


def literals(test_file):
    """The module-level ``NAME = number`` constants of ``test_file``, read from
    its source so that the package is not imported."""
    tree = ast.parse((Path(__file__).resolve().parent / test_file).read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, (int, float))
    }


CV = literals("test_cv_rate.py")
DV = literals("test_dv_rate.py")
drifted = []


def show(name, value, literal=None):
    """Print ``value``; note it in ``drifted`` if it is off the test's ``literal``."""
    print(f"{name} = {float(value)!r}")
    if literal is not None and abs(value - literal) > REL * abs(value):
        drifted.append(f"{name} = {float(value)!r}, the test asserts {literal!r}")


# --- CV chain --------------------------------------------------------------

print("# CV")
eta = mpf(0.85)
xi = mpf(0.01)
v_el = mpf(0.1)
mu = mpf(25.0)
n_block = 400000
beta = mpf(0.95)
disc = 7
r_pe = mpf(0.3)
clock = mpf(1e9)

T4 = mpf(10) ** (-(mpf(4.0) * mpf(0.2) / 10))
show("cv_T_4km", T4, CV["T_4KM"])

w_1e10 = sqrt(2 * log(1 / mpf(1e-10)))
show("cv_w_1e-10", w_1e10, CV["W_1E10"])

# worst-case channel at eps_pe = 1e-10 with the ML variance model
m_pe = math.floor(0.3 * n_block)
tau = eta * T4
sx2 = mu - 1
sz2 = 1 + v_el + tau * xi
sigma_t = 2 * sqrt(tau * sz2 / (m_pe * sx2)) / eta
sigma_xi = sz2 * sqrt(mpf(2) / m_pe) / (eta * T4)
t_wc = T4 - w_1e10 * sigma_t
xi_wc = xi + w_1e10 * sigma_xi
show("cv_sigma_t", sigma_t, CV["SIGMA_T"])
show("cv_sigma_xi", sigma_xi, CV["SIGMA_XI"])
show("cv_t_wc_1e-10", t_wc, CV["T_WC_1E10"])
show("cv_xi_wc_1e-10", xi_wc, CV["XI_WC_1E10"])
show("cv_xi_wc_lit_1e-10", max(xi - w_1e10 * sigma_xi, mpf(0)))


def mutual_info(t, x):
    b = t * mu + 1 - t + t * x
    b_m = eta * b + 1 - eta + v_el
    return log2(b_m / (b_m - eta * t * (mu - 1))) / 2


def bosonic_entropy(nu):
    if nu <= 1:
        return mpf(0)
    return ((nu + 1) / 2) * log2((nu + 1) / 2) - ((nu - 1) / 2) * log2((nu - 1) / 2)


def holevo(t, x):
    b = t * mu + 1 - t + t * x
    c2 = t * (mu * mu - 1)
    delta = mu * mu + b * b - 2 * c2
    det_gamma = (mu * b - c2) ** 2
    root = sqrt(delta * delta - 4 * det_gamma)
    nu_plus = sqrt((delta + root) / 2)
    nu_minus = sqrt((delta - root) / 2)
    nu_cond = sqrt(mu * (mu * b - c2) / b)
    return bosonic_entropy(nu_plus) + bosonic_entropy(nu_minus) - bosonic_entropy(nu_cond)


show("cv_I_tableI", mutual_info(T4, xi), CV["I_TABLE"])
show("cv_chi_tableI", holevo(T4, xi), CV["CHI_TABLE"])


def finite_term(n, eps_pe, eps_cor, eps_sec, d):
    first = sqrt(n) * log2(n) * sqrt(2 * log(2 / eps_pe))
    second = 4 * sqrt(n) * log2(sqrt(mpf(2) ** d) + 2) * sqrt(log2(8 / eps_sec**2))
    third = -log2(eps_sec**2 * eps_cor / 2)
    return first + second + third


show(
    "cv_F_280k_2e-13",
    finite_term(280000, mpf(2e-13), mpf(2e-13), mpf(2e-13), disc),
    CV["F_280K"],
)

# full pipeline at eps = 1e-9 symmetric split (all components eps/5)
eps = mpf(1e-9)
e_pe = e_cor = e_sec = eps / 5
w = sqrt(2 * log(1 / e_pe))
sigma_t = 2 * sqrt(tau * sz2 / (m_pe * sx2)) / eta
sigma_xi = sz2 * sqrt(mpf(2) / m_pe) / (eta * T4)
t_wc = T4 - w * sigma_t
xi_wc = xi + w * sigma_xi
n_key = n_block - m_pe
r_pe_bits = beta * mutual_info(T4, xi) - holevo(t_wc, xi_wc)
fs = finite_term(n_key, e_pe, e_cor, e_sec, disc)
rate_use = (n_key * r_pe_bits - fs) / n_block
show("cv_sym_1e-9_r_pe_bits", r_pe_bits, CV["SYM_1E9_RPE"])
show("cv_sym_1e-9_F", fs, CV["SYM_1E9_F"])
show("cv_sym_1e-9_rate_per_use", rate_use, CV["SYM_1E9_RATE"])
show("cv_sym_1e-9_bps", clock * rate_use, CV["SYM_1E9_BPS"])

# --- DV chain --------------------------------------------------------------

print("# DV")
eta_d = mpf(0.92)
p_x = mpf(0.5)
n_block_d = 30_000_000
p_dc = mpf(1e-3)
f_ec = mpf(1.25)
r_pe_d = mpf(0.25)
clock_d = mpf(2e9)
t_dt = mpf(2e-6)

T100 = mpf(10) ** (-(mpf(100.0) * mpf(0.2) / 10))
eta_tot = eta_d * T100
p_sift = p_x**2 + (1 - p_x) ** 2
q1 = eta_tot + (1 - eta_tot) * p_dc
show("dv_eta_tot", eta_tot, DV["ETA_TOT"])
show("dv_q1", q1, DV["Q1"])

qber = (mpf(0) * eta_tot + (1 - eta_tot) * p_dc / 2) / q1
show("dv_qber_est", qber, DV["QBER_EST"])

c_dt = 1 / (1 + q1 * t_dt * clock_d)
show("dv_c_dt", c_dt, DV["C_DT"])

sifted_f = n_block_d * 0.5 * float(q1)
n_key_d = math.floor(0.75 * sifted_f)
m_pe_d = math.floor(0.25 * sifted_f)
show("dv_n", n_key_d, DV["N_KEY"])
show("dv_m", m_pe_d, DV["M_PE"])


def qber_wc(e_hat, m, eps_pe):
    return min(e_hat + sqrt((mpf(2) / m) * log((m + 1) / eps_pe)), mpf("0.5"))


show("dv_qber_wc_model_1e-18", qber_wc(qber, m_pe_d, mpf(1e-18)), DV["QBER_WC_MODEL"])
show("dv_qber_wc_04862_1e-18", qber_wc(mpf(0.04862), m_pe_d, mpf(1e-18)), DV["QBER_WC_04862"])


def aep(eps_s):
    return 7 * sqrt(log2(2 / eps_s))


show("dv_aep_5e-19", aep(mpf(5e-19)), DV["AEP_5E19"])


def h2(p):
    if p == 0 or p == 1:
        return mpf(0)
    return -p * log2(p) - (1 - p) * log2(1 - p)


show("dv_h_0.11", h2(mpf(0.11)), DV["H_011"])


def dv_rate_bps(eps_pe, eps_cor, eps_sec):
    eps_s = eps_sec / 2
    eps_h = eps_sec / 2
    e_wc = qber_wc(qber, m_pe_d, eps_pe)
    kappa = (1 - r_pe_d) * p_sift * q1
    r = (
        1
        - h2(e_wc)
        - f_ec * h2(qber)
        + (1 + log2(eps_cor * eps_h**2)) / n_key_d
        - aep(eps_s) / sqrt(n_key_d)
    )
    return c_dt * clock_d * kappa * r


eps = mpf(1e-17)
show("dv_sym_1e-17_bps", dv_rate_bps(eps / 3, eps / 3, eps / 3), DV["SYM_1E17_BPS"])
eps = mpf(1e-18)
show(
    "dv_asym_1e-18_bps",
    dv_rate_bps(5 * eps / mpf(99.5), 90 * eps / mpf(99.5), mpf(4.5) * eps / mpf(99.5)),
    DV["ASYM_1E18_BPS"],
)

if drifted:
    print(f"constants off their test literals by more than rel {REL}:", file=sys.stderr)
    for line in drifted:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
