"""Property tests: rating a batch budget equals rating each of its splits alone.

One ``dv_key_rate``/``cv_key_rate`` call on a batch must give, element by
element and bit for bit (``==``, not a tolerance), the breakdown of the
single-split call on the same components, and a single split must come back
as plain ``float`` fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdopt.budget import EpsilonBudget, Family, reconstruct_sec
from qkdopt.cv_rate import (
    CvProtocolParams,
    bosonic_entropy,
    cv_key_rate,
    holevo_bound,
    pe_confidence_width,
)
from qkdopt.dv_rate import (
    DvProtocolParams,
    aep_term,
    binary_entropy,
    dv_key_rate,
    worst_case_qber,
)
from qkdopt.harness import key_rate

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def dv_case():
    params = st.builds(
        DvProtocolParams,
        length_km=st.floats(0.0, 150.0),
        intrinsic_error=st.floats(0.0, 0.05),
    )
    rate = st.just(lambda params, budget: dv_key_rate(params, budget))
    return st.tuples(st.just(Family.DV), params, rate, st.floats(-18.0, -3.0))


def cv_case():
    params = st.builds(
        CvProtocolParams,
        length_km=st.floats(0.0, 30.0),
        excess_noise=st.floats(0.0, 0.08),
        paper_sign_xi=st.booleans(),
    )
    rate = st.just(lambda params, budget: cv_key_rate(params, budget))
    return st.tuples(st.just(Family.CV), params, rate, st.floats(-13.0, -3.0))


#: Log10 of the three shares of the total; normalized, each is at least 1/201.
SHARES = st.lists(
    st.tuples(st.floats(-2.0, 0.0), st.floats(-2.0, 0.0), st.floats(-2.0, 0.0)),
    min_size=1,
    max_size=12,
)


def batch_and_singles(case, shares):
    family, params, rate, log_total = case
    total = 10.0**log_total
    pe, cor = [], []
    for share in shares:
        a, b, c = (10.0**s for s in share)
        norm = a + b + c
        pe.append(total * a / norm / family.pe_weight)
        cor.append(total * b / norm)
    feasible, batch = reconstruct_sec(total, np.array(pe), np.array(cor), family)
    singles = [reconstruct_sec(total, p, c, family) for p, c in zip(pe, cor)]
    assert feasible.tolist() == [s is not None for s in singles]
    return params, rate, batch, [s for s in singles if s is not None]


def rate_or_error(rate, params, budget):
    try:
        return rate(params, budget)
    except ValueError as err:
        return err


@PROPERTY
@given(st.one_of(dv_case(), cv_case()), SHARES)
def test_batch_rate_equals_single_split_rates(case, shares):
    params, rate, batch, singles = batch_and_singles(case, shares)
    if batch is None:
        assert singles == []
        return
    one_by_one = [rate_or_error(rate, params, budget) for budget in singles]
    if any(isinstance(r, ValueError) for r in one_by_one):
        # a model domain error raises for the whole batch, never per split
        with pytest.raises(ValueError):
            rate(params, batch)
        return
    whole = rate(params, batch)
    for field in fields(whole):
        got = getattr(whole, field.name)
        want = [getattr(r, field.name) for r in one_by_one]
        if np.ndim(got) == 0:  # budget-independent: computed once per call
            assert type(got) is float and all(w == got for w in want), field.name
        else:
            assert got.shape == (len(singles),), field.name
            assert got.tolist() == want, field.name


@PROPERTY
@given(st.one_of(dv_case(), cv_case()), SHARES)
def test_single_split_fields_are_plain_floats(case, shares):
    params, rate, _, singles = batch_and_singles(case, shares)
    for budget in singles[:3]:
        out = rate_or_error(rate, params, budget)
        if isinstance(out, ValueError):
            continue
        for field in fields(out):
            value = getattr(out, field.name)
            assert type(value) is float, (field.name, type(value))
            assert not math.isnan(value), field.name


@pytest.mark.parametrize("family", [Family.DV, Family.CV])
def test_large_batch_equals_single_splits(family):
    # a numpy logarithm in place of the C library's differs in the last bit
    # for about one argument in 10^4; this many splits makes that visible
    rng = np.random.default_rng(2024)
    total = 1e-12 if family is Family.DV else 1e-9
    pe, cor = 10.0 ** rng.uniform(-21.0, math.log10(total), size=(2, 12_000))
    params = DvProtocolParams() if family is Family.DV else CvProtocolParams()
    feasible, batch = reconstruct_sec(total, pe, cor, family)
    assert feasible.sum() > 4_000
    whole = key_rate(params, batch)
    varying = [f.name for f in fields(whole) if np.ndim(getattr(whole, f.name)) == 1]
    columns = zip(*(getattr(whole, name).tolist() for name in varying))
    for p, c, row in zip(pe[feasible].tolist(), cor[feasible].tolist(), columns):
        single = key_rate(params, reconstruct_sec(total, p, c, family))
        assert tuple(getattr(single, name) for name in varying) == row


@pytest.mark.parametrize("family", [Family.DV, Family.CV])
def test_a_float_split_is_a_json_ready_budget(family):
    # the one-split API as bench/ reads it: reconstruct_sec(...).eps_sec, and
    # a record of the components and the rate that goes through json.dumps
    total = 1e-18 if family is Family.DV else 1e-9
    params = DvProtocolParams() if family is Family.DV else CvProtocolParams()
    budget = reconstruct_sec(total, total / 5, total / 5, family)
    assert isinstance(budget, EpsilonBudget)
    record = {name: getattr(budget, name) for name in ("eps_pe", "eps_cor", "eps_sec")}
    record["rate_bps_raw"] = key_rate(params, budget).rate_bits_per_sec
    assert all(type(value) is float for value in record.values())
    assert json.loads(json.dumps(record)) == record
    assert reconstruct_sec(total, total / 2, total / 2, family) is None


def test_scalar_components_of_any_real_type_give_a_budget_of_floats():
    # the shape of the answer follows the components' ndim, not their Python type
    budget = reconstruct_sec(1e-9, np.float32(1e-10), 1e-11, Family.DV)
    assert isinstance(budget, EpsilonBudget)
    values = budget.total, budget.eps_pe, budget.eps_cor, budget.eps_sec
    assert all(type(value) is float for value in values)
    assert budget.eps_pe == float(np.float32(1e-10))  # read as float64, exactly
    assert type(dv_key_rate(DvProtocolParams(), budget).rate_bits_per_sec) is float
    assert reconstruct_sec(0.5, 1, 1, Family.DV) is None


_QBER = lambda x: worst_case_qber(0.01, 1000, x)  # noqa: E731

#: The helpers that take log2(eps) rather than eps.
_LOG2_HELPERS = (_QBER, aep_term, pe_confidence_width)


@pytest.mark.parametrize(
    "check, bad",
    [
        (_QBER, 1.5),
        (aep_term, 1.5),
        (binary_entropy, 1.25),
        (pe_confidence_width, 0.25),
        (lambda x: holevo_bound(CvProtocolParams(), x, np.full(300, 0.01)), 1.5),
        (lambda x: holevo_bound(CvProtocolParams(), np.full(300, 0.5), x), -0.7),
        (bosonic_entropy, 0.5),
    ],
)
def test_a_bad_element_is_named_in_one_line(check, bad):
    # one out-of-domain element among 300: its value, not the array; the
    # log2-taking helpers get log2(1/2) around it
    x = np.full(300, -1.0 if check in _LOG2_HELPERS else 0.5)
    x[123] = bad
    with pytest.raises(ValueError) as err:
        check(x)
    message = str(err.value)
    assert "\n" not in message and len(message) < 200
    assert repr(bad) in message
