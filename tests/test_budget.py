import math

import mpmath
import numpy as np
import pytest

from qkdopt.budget import (
    EPSILON_FLOOR,
    LN2,
    EpsilonBudget,
    Family,
    baseline_budgets,
    log2,
    map_gene,
    reconstruct_sec,
)


def test_reconstruct_cv_basic():
    budget = reconstruct_sec(1e-5, 1e-6, 1e-6, Family.CV)
    assert budget is not None
    assert budget.eps_sec == pytest.approx(6e-6, rel=1e-12)
    # the smoothing and hashing failure probabilities, half the secrecy share each
    assert budget.eps_sec / 2 == pytest.approx(3e-6, rel=1e-12)


def test_reconstruct_infeasible_returns_marker():
    # half the budget on each free component already overshoots for CV
    eps = 1e-7
    assert reconstruct_sec(eps, eps / 2, eps / 2, Family.CV) is None


def test_reconstruct_dv_asymmetric_split():
    eps = 1e-17
    budget = reconstruct_sec(eps, 5 * eps / 99.5, 90 * eps / 99.5, Family.DV)
    assert budget is not None
    assert budget.eps_sec == pytest.approx(4.5 * eps / 99.5, rel=1e-9)


def test_reconstruct_domain_errors():
    with pytest.raises(ValueError):
        reconstruct_sec(0.0, 1e-21, 1e-21, Family.CV)
    with pytest.raises(ValueError):
        reconstruct_sec(1.0, 1e-21, 1e-21, Family.CV)
    with pytest.raises(ValueError):
        reconstruct_sec(1e-5, 1e-22, 1e-21, Family.CV)
    with pytest.raises(ValueError):
        reconstruct_sec(1e-5, 1e-21, 0.0, Family.DV)


def test_reconstruct_floor_components_stay_below_total():
    # both free components at the floor: eps_sec must still be < total
    budget = reconstruct_sec(1e-4, EPSILON_FLOOR, EPSILON_FLOOR, Family.CV)
    assert budget is not None
    assert budget.eps_sec < budget.total


def test_budget_invariants_enforced():
    with pytest.raises(ValueError):
        # components do not close to the total
        EpsilonBudget(total=1e-5, eps_pe=1e-6, eps_cor=1e-6, eps_sec=1e-6, family=Family.CV)


def test_reconstruct_from_the_components_total():
    # the total of three components, with the family's weight on eps_pe,
    # completes back to the third
    budget = reconstruct_sec(3 * 1e-6 + 1e-6 + 6e-6, 1e-6, 1e-6, Family.CV)
    assert budget.total == pytest.approx(1e-5, rel=1e-12)
    assert budget.eps_sec == pytest.approx(6e-6, rel=1e-12)
    dv = reconstruct_sec(1e-6 + 1e-6 + 6e-6, 1e-6, 1e-6, Family.DV)
    assert dv.total == pytest.approx(8e-6, rel=1e-12)
    assert dv.eps_sec == pytest.approx(6e-6, rel=1e-12)


def test_map_gene_endpoints_and_midpoint():
    assert map_gene(-1.0, 1e-5) == pytest.approx(1e-21, rel=1e-12)
    assert map_gene(1.0, 1e-5) == pytest.approx(1e-5, rel=1e-12)
    assert map_gene(0.0, 1e-5) == pytest.approx((1e-21 + 1e-5) / 2, rel=1e-12)
    with pytest.raises(ValueError):
        map_gene(1.0000001, 1e-5)
    with pytest.raises(ValueError):
        map_gene(np.array([0.0, -1.1]), 1e-5)


def test_map_gene_names_one_bad_gene_in_one_line():
    genes = np.zeros((200, 2))
    genes[7, 1] = 1.25
    with pytest.raises(ValueError) as err:
        map_gene(genes, 1e-9)
    message = str(err.value)
    assert "\n" not in message and len(message) < 200
    assert "1.25" in message


def test_map_gene_round_trip():
    genes = np.random.default_rng(42).uniform(-1.0, 1.0, size=500)
    x = map_gene(genes, 1e-8)
    assert np.all((EPSILON_FLOOR <= x) & (x <= 1e-8))
    # the affine inverse recovers the genes, and each element is the scalar map
    back = 2.0 * (x - EPSILON_FLOOR) / (1e-8 - EPSILON_FLOOR) - 1.0
    assert np.allclose(back, genes, rtol=0.0, atol=1e-12)
    assert x.tolist() == [map_gene(p, 1e-8) for p in genes.tolist()]


def test_reconstruct_batch_matches_single_splits():
    total = 1e-9
    pe = np.array([1e-21, 1e-10, 3e-10, 3.4e-10, 2e-10])
    cor = np.array([1e-21, 2e-10, 1e-21, 1e-21, 5e-10])
    feasible, budget = reconstruct_sec(total, pe, cor, Family.CV)
    singles = [reconstruct_sec(total, p, c, Family.CV) for p, c in zip(pe.tolist(), cor.tolist())]
    assert feasible.tolist() == [b is not None for b in singles] == [True, True, True, False, False]
    kept = [b for b in singles if b is not None]
    for name in ("eps_pe", "eps_cor", "eps_sec"):
        assert getattr(budget, name).tolist() == [getattr(b, name) for b in kept]
    assert budget.total.tolist() == [total] * 3 and budget.family is Family.CV
    # the nextafter nudge is the same rule in both forms
    feasible, budget = reconstruct_sec(1e-4, np.full(2, EPSILON_FLOOR), np.full(2, EPSILON_FLOOR), Family.CV)
    single = reconstruct_sec(1e-4, EPSILON_FLOOR, EPSILON_FLOOR, Family.CV)
    assert budget.eps_sec.tolist() == [single.eps_sec] * 2
    feasible, budget = reconstruct_sec(1e-9, np.full(3, 4e-10), np.full(3, 1e-21), Family.CV)
    assert not feasible.any() and budget is None
    with pytest.raises(ValueError, match="at least"):
        reconstruct_sec(1e-9, np.array([1e-10, 1e-22]), np.full(2, 1e-12), Family.CV)


def test_batch_budget_validated_as_a_whole():
    sec = np.array([6e-6, 7e-6])
    good = dict(total=np.full(2, 1e-5), eps_pe=np.array([1e-6, 1e-6]),
                eps_cor=np.array([1e-6, 0.0]), eps_sec=sec, family=Family.CV)
    with pytest.raises(ValueError, match="eps_cor"):
        EpsilonBudget(**good)  # second row below the floor
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        EpsilonBudget(**{**good, "eps_cor": 1e-6})
    with pytest.raises(ValueError, match="close"):
        EpsilonBudget(**{**good, "eps_cor": np.array([1e-6, 1e-6])})  # second row overshoots
    with pytest.raises(ValueError, match="one total per split"):
        EpsilonBudget(**{**good, "total": 1e-5})  # arrays take their totals as an array


def test_batch_budget_errors_name_one_value_in_one_line():
    # a 300-row CV batch: the messages name the offending row's value, not
    # every row's
    pe, cor = np.full(300, 1e-10), np.full(300, 1e-10)
    rows = dict(total=np.full(300, 1e-9), eps_cor=cor, family=Family.CV)
    low = pe.copy()
    low[17] = 1e-30
    open_row = 1e-9 - 3 * pe - cor
    open_row[5] *= 1.5
    cases = (
        ({**rows, "eps_pe": low, "eps_sec": 1e-9 - 3 * pe - cor}, "eps_pe = 1e-30 (row 17)"),
        ({**rows, "eps_pe": pe, "eps_sec": open_row}, "does not close in row 5"),
    )
    for budget, named in cases:
        with pytest.raises(ValueError) as err:
            EpsilonBudget(**budget)
        message = str(err.value)
        assert "\n" not in message and len(message) < 200
        assert named in message
    # a budget of floats has no rows to name
    with pytest.raises(ValueError, match=r"^eps_pe = 1e-30 outside"):
        EpsilonBudget(1e-9, 1e-30, 1e-10, 1e-9 - 1e-10, Family.DV)
    with pytest.raises(ValueError, match=r"^budget does not close: weighted sum"):
        EpsilonBudget(1e-9, 1e-10, 1e-10, 1e-10, Family.DV)


def test_reconstruct_per_row_totals_match_float_calls():
    # one total per row, as a stack of runs at several levels has: the mask
    # and every component equal the float calls row by row, floor rows too
    rng = np.random.default_rng(8)
    for family in Family:
        totals = np.repeat([3e-21, 1e-18, 1e-9, 1e-5], 50)
        genes = rng.uniform(-1.0, 1.0, size=(len(totals), 2))
        genes[::7] = -1.0
        eps = map_gene(genes, totals[:, None])
        feasible, budget = reconstruct_sec(totals, eps[:, 0], eps[:, 1], family)
        singles = [
            reconstruct_sec(t, p, c, family)
            for t, p, c in zip(totals.tolist(), eps[:, 0].tolist(), eps[:, 1].tolist())
        ]
        assert feasible.tolist() == [b is not None for b in singles]
        assert 0 < feasible.sum() < len(totals)
        kept = [b for b in singles if b is not None]
        for name in ("total", "eps_pe", "eps_cor", "eps_sec"):
            assert getattr(budget, name).tolist() == [getattr(b, name) for b in kept]
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        reconstruct_sec(np.array([1e-9, 1.5]), np.full(2, 1e-12), np.full(2, 1e-12), Family.DV)


def _one_line(err: pytest.ExceptionInfo) -> str:
    message = str(err.value)
    assert "\n" not in message and len(message) < 200
    return message


def test_reconstruct_refuses_components_of_two_shapes():
    # a float eps_pe has no row to pair with each of two eps_cor values
    with pytest.raises(ValueError) as err:
        reconstruct_sec(1e-9, 1e-11, np.array([1e-12, 1e-13]), Family.DV)
    assert _one_line(err) == (
        "components must share one shape, and the total be a float or one per split; "
        "got total (), eps_pe (), eps_cor (2,)")
    with pytest.raises(ValueError, match=r"eps_pe \(3,\), eps_cor \(2,\)$"):
        reconstruct_sec(1e-9, np.full(3, 1e-12), np.full(2, 1e-12), Family.CV)


def test_reconstruct_refuses_a_total_that_is_not_one_per_split():
    with pytest.raises(ValueError) as err:
        reconstruct_sec(np.array([1e-9, 1e-8]), 1e-11, 1e-12, Family.DV)
    assert _one_line(err) == (
        "components must share one shape, and the total be a float or one per split; "
        "got total (2,), eps_pe (), eps_cor ()")
    with pytest.raises(ValueError, match=r"total \(3,\), eps_pe \(2,\)"):
        reconstruct_sec(np.full(3, 1e-9), np.full(2, 1e-12), np.full(2, 1e-12), Family.CV)


def test_batch_budget_closes_each_row_against_its_own_total():
    sec = np.array([6e-6, 6e-9])
    rows = dict(eps_pe=np.array([1e-6, 1e-9]), eps_cor=np.array([1e-6, 1e-9]),
                eps_sec=sec, family=Family.CV)
    budget = EpsilonBudget(total=np.array([1e-5, 1e-8]), **rows)
    assert budget.total.tolist() == [1e-5, 1e-8]
    with pytest.raises(ValueError, match="close"):
        EpsilonBudget(total=np.array([1e-5, 1e-5]), **rows)  # second row is 1e-8
    with pytest.raises(ValueError, match="close"):
        EpsilonBudget(total=np.array([1e-5, 2e-8]), **rows)
    with pytest.raises(ValueError, match="one total per split"):
        EpsilonBudget(total=np.array([1e-5, 1e-8, 1e-8]), **rows)


def test_map_gene_per_row_totals_match_float_form():
    genes = np.random.default_rng(9).uniform(-1.0, 1.0, size=(300, 2))
    genes[0] = (-1.0, 1.0)
    totals = np.repeat([3e-21, 1e-17, 1e-9], 100)
    eps = map_gene(genes, totals[:, None])
    assert eps.tolist() == [
        [map_gene(p, t) for p in row] for row, t in zip(genes.tolist(), totals.tolist())
    ]
    # a stack of runs: (R, P, 2) genes against (R, 1, 1) totals
    stacked = map_gene(genes.reshape(3, 100, 2), np.array([3e-21, 1e-17, 1e-9])[:, None, None])
    assert stacked.reshape(-1, 2).tolist() == eps.tolist()


#: Largest relative error of :func:`log2` against a 50-digit reference,
#: fixed before the test was first run.
LOG2_REL_BOUND = 5e-16


def kernel_inputs() -> np.ndarray:
    """Subnormals, 1 +- a few ulps, both sides of the sqrt(1/2) reduction
    boundary at many exponents, and random magnitudes over the whole range."""
    rng = np.random.default_rng(16)
    ulps = np.arange(1, 40)
    boundary = np.ldexp(math.sqrt(0.5), np.arange(-1070, 1024, 23))
    return np.concatenate(
        [
            [5e-324, 1e-323, 1e-320, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022],
            1.0 + ulps * 2.0**-52,
            1.0 - ulps * 2.0**-53,
            1.0 + rng.uniform(-0.3, 0.4, 1_000),
            boundary,
            np.nextafter(boundary, 0.0),
            np.nextafter(boundary, np.inf),
            10.0 ** rng.uniform(-323.0, 308.0, 3_000),
            10.0 ** rng.uniform(-21.0, 0.0, 1_000),  # the budget's range
        ]
    )


def test_log2_against_mpmath():
    x = kernel_inputs()
    got = log2(x)
    worst = 0.0
    with mpmath.workdps(50):
        for v, g in zip(x.tolist(), got.tolist()):
            want = mpmath.log(mpmath.mpf(v), 2)
            worst = max(worst, float(abs((g - want) / want)))
    assert worst <= LOG2_REL_BOUND
    # ln x = ln 2 * log2 x, as the rate chains form it
    assert LN2 == float(mpmath.log(2))


def test_log2_exact_cases():
    k = np.arange(-1074, 1024)
    powers = np.ldexp(1.0, k)
    assert (log2(powers) == k).all()
    assert [log2(powers[i : i + 1])[0] for i in range(k.size)] == k.tolist()
    assert log2(np.array([1.0])).tolist() == [0.0]


def test_log2_batch_equals_single():
    # an element's value depends on neither its position nor the batch length,
    # across the tails of every SIMD width
    x = kernel_inputs()
    whole = log2(x).tolist()
    assert [log2(np.array([v]))[0] for v in x.tolist()] == whole
    for length in (2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 1000):
        for start in (0, 1, 3):
            assert log2(x[start : start + length]).tolist() == whole[start : start + length]
    assert log2(x[::-1]).tolist() == whole[::-1]


def test_baselines_cv():
    named = dict(baseline_budgets(1e-10, Family.CV))
    sym = named["symmetric"]
    assert sym.eps_pe == pytest.approx(2e-11, rel=1e-12)
    assert sym.eps_cor == pytest.approx(2e-11, rel=1e-12)
    assert sym.eps_sec == pytest.approx(2e-11, rel=1e-9)
    asym = named["asymmetric"]
    assert asym.eps_pe == pytest.approx(1e-11, rel=1e-12)
    assert asym.eps_cor == pytest.approx(4e-11, rel=1e-12)
    assert asym.eps_sec == pytest.approx(3e-11, rel=1e-9)


def test_baselines_dv():
    named = dict(baseline_budgets(3e-18, Family.DV))
    sym = named["symmetric"]
    assert sym.eps_pe == pytest.approx(1e-18, rel=1e-12)
    assert sym.eps_cor == pytest.approx(1e-18, rel=1e-12)
    assert sym.eps_sec == pytest.approx(1e-18, rel=1e-9)


def test_baselines_refuse_an_array_total():
    # the splits of several totals would be batches, not the promised budgets
    with pytest.raises(ValueError) as err:
        baseline_budgets(np.array([1e-9, 1e-8]), Family.DV)
    assert _one_line(err) == "baseline splits take one total, got an array of shape (2,)"
    # a numpy scalar is one total, and the floor still refuses a tiny one
    assert dict(baseline_budgets(np.float64(3e-18), Family.DV)) == dict(
        baseline_budgets(3e-18, Family.DV))
    with pytest.raises(ValueError, match="too small for the asymmetric baseline split"):
        baseline_budgets(2e-20, Family.DV)


def test_closure_property_random_splits():
    # re-summing the reconstructed budget reproduces the total
    rng = np.random.default_rng(7)
    for _ in range(300):
        family = Family.CV if rng.random() < 0.5 else Family.DV
        total = float(10.0 ** rng.uniform(-18, -4))
        eps_pe = float(10.0 ** rng.uniform(-21, np.log10(total / 8)))
        eps_cor = float(10.0 ** rng.uniform(-21, np.log10(total / 8)))
        budget = reconstruct_sec(total, eps_pe, eps_cor, family)
        assert budget is not None
        weight = 3.0 if family is Family.CV else 1.0
        resummed = weight * budget.eps_pe + budget.eps_cor + budget.eps_sec
        assert resummed == pytest.approx(total, rel=1e-12)


def test_baselines_survive_reconstruction():
    for family in Family:
        for total in (1e-18, 1e-12, 1e-6):
            for _, budget in baseline_budgets(total, family):
                redone = reconstruct_sec(
                    total, budget.eps_pe, budget.eps_cor, family
                )
                assert redone is not None
                assert redone.eps_sec == pytest.approx(budget.eps_sec, rel=1e-12)
