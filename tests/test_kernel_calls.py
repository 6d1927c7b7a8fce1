"""Batches as the CGA and the grid oracle rate them.

A grid's rows repeat ``eps_pe`` values; every row must still equal, bit for
bit, the rate of its split alone, and so must every cell that the oracle rates
from the protocol parameters, with each ``eps_pe`` stage run once per axis
value.  Whatever the batch size, a rate call takes two calls of the logarithm
kernel, one on the budget's components (on a grid, its axis and the cells'
``eps_sec``) and one on the entropy arguments, and no per-element ``math``
logarithm or power.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from qkdopt import cv_rate, dv_rate, oracle
from qkdopt.budget import EPSILON_FLOOR, Family, log2, reconstruct_sec
from qkdopt.harness import key_rate
from qkdopt.oracle import GridSpec, grid_search

CASES = [
    pytest.param(Family.DV, dv_rate.DvProtocolParams(), 1e-15, id="dv"),
    pytest.param(Family.CV, cv_rate.CvProtocolParams(), 1e-8, id="cv"),
    pytest.param(
        Family.CV, cv_rate.CvProtocolParams(paper_sign_xi=True), 1e-8,
        id="cv-paper-sign-xi",
    ),
]


def log_grid_batch(total: float, family: Family):
    """The feasible cells of a 40x40 log grid, rows in a shuffled order."""
    axis = GridSpec(points_per_axis=40).axis(total)
    order = np.random.default_rng(5).permutation(axis.size**2)
    eps_pe = np.repeat(axis, axis.size)[order]
    eps_cor = np.tile(axis, axis.size)[order]
    _, budget = reconstruct_sec(total, eps_pe, eps_cor, family)
    return budget


@pytest.mark.parametrize("family, params, total", CASES)
def test_each_row_equals_its_split_alone(family, params, total):
    budget = log_grid_batch(total, family)
    assert np.unique(budget.eps_pe).size < budget.eps_pe.size  # repeats to share
    batch = key_rate(params, budget)
    for i in range(budget.eps_pe.size):
        one = reconstruct_sec(
            total, float(budget.eps_pe[i]), float(budget.eps_cor[i]), family
        )
        alone = key_rate(params, one)
        for f in fields(batch):
            got, want = getattr(batch, f.name), getattr(alone, f.name)
            assert type(want) is float
            assert (got[i] if np.ndim(got) else got) == want, (f.name, i)


def counting(fn, calls: list):
    """``fn``, recording the size of its first argument at every call."""

    def counted(x, *args):
        calls.append(np.size(x))
        return fn(x, *args)

    return counted


def random_splits(total: float, family: Family, rows: int):
    """``rows`` feasible splits, log-uniform below a tenth of ``total`` (a
    budget of floats for one row)."""
    pe, cor = 10.0 ** np.random.default_rng(rows).uniform(
        -21.0, math.log10(total / 10.0), size=(2, rows)
    )
    if rows == 1:
        return reconstruct_sec(total, pe.item(), cor.item(), family)
    feasible, budget = reconstruct_sec(total, pe, cor, family)
    assert feasible.all()
    return budget


@pytest.mark.parametrize("family, params, total", CASES)
def test_each_rate_call_makes_two_kernel_calls(monkeypatch, family, params, total):
    module = dv_rate if family is Family.DV else cv_rate
    kernel, scalar = [], []
    monkeypatch.setattr(module, "log2", counting(log2, kernel))
    for name in ("log", "log2", "pow"):
        monkeypatch.setattr(math, name, counting(getattr(math, name), scalar))
    scalar_calls = set()
    for rows in (1, 200, 3_600):
        budget = random_splits(total, family, rows)
        kernel.clear()
        scalar.clear()
        key_rate(params, budget)
        # the components, then p and 1 - p of each E_wc and E (DV) or both
        # halves of nu_+, nu_- and nu_c per split (CV)
        entropy_args = 2 * (rows + 1) if family is Family.DV else 2 * 3 * rows
        assert kernel == [3 * rows, entropy_args], rows
        assert all(size == 1 for size in scalar)  # model constants, never an array
        scalar_calls.add(len(scalar))
    assert len(scalar_calls) == 1  # the same few whatever the batch size


@pytest.mark.parametrize("points", [60, 200])
@pytest.mark.parametrize("family, params, total", CASES)
def test_grid_of_parameters_equals_grid_of_the_rate_function(family, params, total, points):
    # the rate function rates the feasible cells as one batch budget: the
    # reference for the eps_pe stage run once per axis value and gathered
    for level in (total, EPSILON_FLOOR):  # the floor has no feasible cell
        spec = GridSpec(points_per_axis=points)
        got = grid_search(spec, level, family, params)
        want = grid_search(spec, level, family, lambda b: key_rate(params, b).rate_bits_per_sec)
        assert got.cells.tobytes() == want.cells.tobytes()
        assert got.best_budget == want.best_budget
        assert got.best_fitness == want.best_fitness
        assert got.feasible_count == want.feasible_count
        if level == total:  # some cells feasible, the corner past the total not
            assert 0 < got.feasible_count < points**2
        else:
            assert got.best_budget is None and got.feasible_count == 0


@pytest.mark.parametrize("family, params, total", CASES)
def test_grid_of_parameters_makes_two_kernel_calls(monkeypatch, family, params, total):
    kernel = []
    for module in (oracle, dv_rate, cv_rate):
        monkeypatch.setattr(module, "log2", counting(log2, kernel))
    points = 60
    result = grid_search(GridSpec(points_per_axis=points), total, family, params)
    # the axis with each feasible cell's eps_sec, then the entropy arguments
    # of one eps_pe stage per axis value
    entropy_args = 2 * (points + 1) if family is Family.DV else 2 * 3 * points
    assert kernel == [points + result.feasible_count, entropy_args]
    kernel.clear()
    grid_search(GridSpec(points_per_axis=points), EPSILON_FLOOR, family, params)
    assert kernel == []  # no feasible cell, nothing rated


@pytest.mark.parametrize("family, params, total", CASES)
def test_grid_of_parameters_of_another_family_raises(family, params, total):
    other = Family.CV if family is Family.DV else Family.DV
    for level in (total, EPSILON_FLOOR):
        with pytest.raises(ValueError, match=f"cannot rate a {other.value} grid"):
            grid_search(GridSpec(points_per_axis=8), level, other, params)
