"""A batch whose splits repeat ``eps_pe`` values, as a grid's rows do.

The ``eps_pe``-only part of a rate (DV: the worst-case error rate and its
entropy; CV: the worst-case channel, its Holevo bound and the
entropy-estimation penalty) is rated once per distinct ``eps_pe`` and
gathered back to the rows.  Every row must still equal, bit for bit, the
rate of its split alone.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from qkdopt import cv_rate, dv_rate
from qkdopt.budget import Family, reconstruct_sec
from qkdopt.harness import key_rate
from qkdopt.oracle import GridSpec

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


def spy(monkeypatch, module, name: str, seen: list, arg: int = 1):
    """Record argument ``arg`` of every call of ``module.name``."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(np.asarray(args[arg]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


@pytest.mark.parametrize("family, params, total", CASES)
def test_the_eps_pe_chain_sees_each_distinct_value_once(
    monkeypatch, family, params, total
):
    budget = log_grid_batch(total, family)
    distinct = np.unique(budget.eps_pe)
    if family is Family.DV:
        qber_eps, entropy_in = [], []
        spy(monkeypatch, dv_rate, "worst_case_qber", qber_eps, arg=2)
        spy(monkeypatch, dv_rate, "binary_entropy", entropy_in, arg=0)
        key_rate(params, budget)
        (eps_pe,) = qber_eps
        # one entropy call: h(E_wc) once per distinct eps_pe, then h(E) of the model
        assert [a.size for a in entropy_in] == [distinct.size + 1]
    else:
        channel_eps, holevo_t, entropy_eps = [], [], []
        spy(monkeypatch, cv_rate, "worst_case_estimators", channel_eps)
        spy(monkeypatch, cv_rate, "holevo_bound", holevo_t)
        spy(monkeypatch, cv_rate, "_entropy_estimation_term", entropy_eps)
        key_rate(params, budget)
        (eps_pe,), (entropy_eps_pe,) = channel_eps, entropy_eps
        assert entropy_eps_pe.tolist() == eps_pe.tolist()
        assert [t.size for t in holevo_t] == [distinct.size]
    assert eps_pe.tolist() == distinct.tolist()
