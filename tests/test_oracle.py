import math
import random

import numpy as np
import pytest

from qkdopt.budget import MAX_ARRAY_BYTES, Family, reconstruct_sec
from qkdopt.dv_rate import DvProtocolParams, dv_key_rate
from qkdopt.harness import grid_csv_text
from qkdopt.oracle import GridSpec, grid_search


def test_grid_spec_validation_and_axes():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=1)
    # the (points^2, 4) float grid must fit in MAX_ARRAY_BYTES: refused when the
    # spec is built, before grid_search would ask for it (10**5 points: 320 GB)
    assert 8 * 2048**2 * 4 == MAX_ARRAY_BYTES
    assert GridSpec(points_per_axis=2048).points_per_axis == 2048
    for points in (2049, 10**5):
        with pytest.raises(ValueError, match="points_per_axis too large"):
            GridSpec(points_per_axis=points)
    log_axis = GridSpec(points_per_axis=5).axis(1e-5)
    assert log_axis[0] == pytest.approx(1e-21, rel=1e-12)
    assert log_axis[-1] == pytest.approx(1e-5, rel=1e-12)
    ratios = log_axis[1:] / log_axis[:-1]
    assert np.allclose(ratios, ratios[0])
    # at the floor every point is the floor; below it there is no axis
    assert GridSpec(points_per_axis=5).axis(1e-21).tolist() == [1e-21] * 5
    with pytest.raises(ValueError, match="below the floor"):
        GridSpec(points_per_axis=5).axis(9e-22)


def test_grid_search_separable_concave():
    # peak at eps_pe = 1e-10, eps_cor = 1e-6 in log space; the grid argmax
    # must land within one cell of it
    def landscape(budget):
        return -((np.log10(budget.eps_pe) + 10.0) ** 2) - (
            np.log10(budget.eps_cor) + 6.0
        ) ** 2

    spec = GridSpec(points_per_axis=100)
    result = grid_search(spec, 1e-4, Family.DV, landscape)
    spacing = (math.log10(1e-4) - math.log10(1e-21)) / 99
    assert abs(math.log10(result.best_budget.eps_pe) + 10.0) <= spacing
    assert abs(math.log10(result.best_budget.eps_cor) + 6.0) <= spacing


def test_grid_search_single_feasible_cell():
    spec = GridSpec(points_per_axis=10)
    axis = spec.axis(1e-6)
    chosen_pe, chosen_cor = float(axis[3]), float(axis[7])

    def picky(budget):
        chosen = (budget.eps_pe == chosen_pe) & (budget.eps_cor == chosen_cor)
        return np.where(chosen, 42.0, np.nan)

    result = grid_search(spec, 1e-6, Family.DV, picky)
    assert result.feasible_count == 1
    assert result.best_fitness == 42.0
    assert result.best_budget.eps_pe == chosen_pe
    assert result.best_budget.eps_cor == chosen_cor


def test_grid_search_empty_feasible_set():
    def never(budget):
        return np.full(len(budget.eps_pe), np.nan)

    result = grid_search(GridSpec(points_per_axis=8), 1e-6, Family.CV, never)
    assert result.best_budget is None
    assert result.best_fitness == float("-inf")
    assert result.feasible_count == 0
    assert result.cells.shape == (64, 4)
    assert np.isnan(result.cells[:, 2:]).all()


def test_grid_search_nan_cells_are_infeasible():
    def noisy(budget):
        return np.where(budget.eps_pe < 1e-10, np.nan, 1.0)

    result = grid_search(GridSpec(points_per_axis=12), 1e-6, Family.DV, noisy)
    assert result.best_fitness == 1.0
    pe, _, sec, rate = result.cells.T
    # a NaN rate blanks the cell's secrecy share too: the cell is infeasible
    assert np.array_equal(np.isnan(rate), np.isnan(sec))
    assert np.isnan(rate[pe < 1e-10]).all()
    assert result.feasible_count == np.count_nonzero(~np.isnan(rate))


def test_grid_search_tie_break_toward_small_components():
    # constant landscape: every feasible cell ties, so the reported argmax
    # must be the smallest eps_pe, then the smallest eps_cor
    result = grid_search(GridSpec(points_per_axis=15), 1e-6, Family.CV, lambda b: 5.0)
    feasible = result.cells[~np.isnan(result.cells[:, 3])]
    assert result.best_budget.eps_pe == feasible[:, 0].min()
    at_min_pe = feasible[feasible[:, 0] == result.best_budget.eps_pe]
    assert result.best_budget.eps_cor == at_min_pe[:, 1].min()


def test_grid_search_reduction_is_order_invariant():
    params = DvProtocolParams()
    rate = lambda b: dv_key_rate(params, b).rate_bits_per_sec
    result = grid_search(GridSpec(points_per_axis=40), 1e-17, Family.DV, rate)

    # re-reduce the returned cells in shuffled order with the documented
    # comparison; the winner must not change
    cells = [row for row in result.cells.tolist() if not math.isnan(row[3])]
    random.Random(99).shuffle(cells)
    best = None
    for pe, cor, _, rate in cells:
        key = (-rate, pe, cor)
        if best is None or key < best:
            best = key
    assert -best[0] == result.best_fitness
    assert best[1] == result.best_budget.eps_pe
    assert best[2] == result.best_budget.eps_cor


def test_grid_refinement_never_loses():
    params = DvProtocolParams()
    rate = lambda b: dv_key_rate(params, b).rate_bits_per_sec
    coarse = grid_search(GridSpec(points_per_axis=50), 1e-17, Family.DV, rate)
    fine = grid_search(GridSpec(points_per_axis=100), 1e-17, Family.DV, rate)
    assert fine.best_fitness >= coarse.best_fitness


def test_grid_search_dv_beats_symmetric_baseline():
    params = DvProtocolParams()
    rate = lambda b: dv_key_rate(params, b).rate_bits_per_sec
    result = grid_search(GridSpec(points_per_axis=200), 1e-17, Family.DV, rate)
    assert result.best_fitness > 0.0
    from qkdopt.budget import baseline_budgets

    (_, sym), _ = baseline_budgets(1e-17, Family.DV)
    assert rate(sym) < result.best_fitness


def test_grid_csv_round_trip():
    params = DvProtocolParams()
    rate = lambda b: dv_key_rate(params, b).rate_bits_per_sec
    result = grid_search(GridSpec(points_per_axis=12), 1e-17, Family.DV, rate)
    text = grid_csv_text(result.cells)
    lines = text.strip().split("\n")
    assert lines[0] == "eps_pe,eps_cor,eps_sec,feasible,rate_bits_per_sec"
    assert len(lines) == 1 + 12 * 12
    # feasible rows parse back to the stored floats exactly
    for line, (pe, cor, sec, rate) in zip(lines[1:], result.cells.tolist()):
        fields = line.split(",")
        assert float(fields[0]) == pe and float(fields[1]) == cor
        if not math.isnan(rate):
            assert fields[3] == "true"
            assert float(fields[2]) == sec
            assert float(fields[4]) == rate
        else:
            assert fields[2:] == ["", "false", ""]


def test_grid_search_rates_the_grid_in_one_call():
    params = DvProtocolParams()
    calls = []

    def counting(budget):
        calls.append(np.size(budget.eps_pe))
        return dv_key_rate(params, budget).rate_bits_per_sec

    result = grid_search(GridSpec(points_per_axis=30), 1e-17, Family.DV, counting)
    assert calls == [result.feasible_count]
    feasible = ~np.isnan(result.cells[:, 3])
    assert 0 < result.feasible_count == np.count_nonzero(feasible) < 900
    # every rated cell holds the single-split rate of its budget
    for pe, cor, sec, rate in result.cells[feasible][::37].tolist():
        budget = reconstruct_sec(1e-17, pe, cor, Family.DV)
        assert budget.eps_sec == sec
        assert dv_key_rate(params, budget).rate_bits_per_sec == rate


def test_grid_search_raises_for_a_rate_function_of_the_wrong_family():
    params = DvProtocolParams()
    rate = lambda b: dv_key_rate(params, b).rate_bits_per_sec
    with pytest.raises(ValueError, match="family must be DV"):
        grid_search(GridSpec(points_per_axis=8), 1e-9, Family.CV, rate)
