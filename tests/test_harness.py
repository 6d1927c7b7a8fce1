import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest

from qkdopt import harness
from qkdopt.budget import Family, baseline_budgets, field_types
from qkdopt.cga import WORST_FITNESS, CgaConfig, run
from qkdopt.cv_rate import CvProtocolParams
from qkdopt.dv_rate import DvProtocolParams
from qkdopt.harness import (
    CSV_COLUMNS,
    ConfigError,
    SweepSpec,
    emit_results,
    key_rate,
    load_config,
    loads_config,
    optimize_levels,
    run_sweep,
)
from qkdopt.oracle import GridSpec

SMALL_CGA = CgaConfig(population=24, iterations=20, rng_seed=7)


def dv_rate(budget):
    return key_rate(DvProtocolParams(), budget).rate_bits_per_sec


def route_rates(monkeypatch, rate):
    """Make ``rate(budget)`` the bits/s of every rate call of the harness."""
    monkeypatch.setattr(
        harness, "key_rate", lambda params, budget: SimpleNamespace(rate_bits_per_sec=rate(budget))
    )


def small_dv_spec(**overrides):
    defaults = dict(
        params=DvProtocolParams(),
        cga=SMALL_CGA,
        eps_levels=(1e-18, 1e-17),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_minimal_config_applies_defaults():
    spec = loads_config("[budget]\nfamily = cv\n")
    assert spec.family is Family.CV
    assert spec.params == CvProtocolParams()
    assert spec.cga == CgaConfig()
    assert spec.eps_levels == SweepSpec(params=CvProtocolParams()).eps_levels
    assert spec.include_baselines is True
    assert spec.include_oracle is False
    assert spec.restarts == 1
    assert spec.params.paper_sign_xi is False


def test_default_levels_are_decade_grids():
    cv = SweepSpec(params=CvProtocolParams()).eps_levels
    assert cv[0] == 1e-12 and cv[-1] == 1e-5 and len(cv) == 8
    dv = SweepSpec(params=DvProtocolParams()).eps_levels
    assert dv[0] == 1e-17 and dv[-1] == 1e-5 and len(dv) == 13
    # each level is its decimal literal, whatever the host's pow
    assert cv == (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5)
    assert dv == (
        1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5
    )


CV_EVERY_KEY_INI = """
[budget]
family = cv

[protocol]
length_km = 7
attenuation_db_per_km = 0.18
det_efficiency = 0.7
excess_noise = 0.02
electronic_noise = 0.05
signal_variance = 12.5
block_size = 250000
recon_efficiency = 0.9
discretization = 5
pe_ratio = 0.4
clock_hz = 5e8
paper_sign_xi = yes

[cga]
population = 50
iterations = 25
rng_seed = 3

[sweep]
eps_levels = 1e-12, 1e-11
include_baselines = off
include_oracle = true
oracle_points = 64
restarts = 2
output_path =  out.csv
"""

DV_EVERY_KEY_INI = """
[budget]
family = DV

[protocol]
length_km = 50
attenuation_db_per_km = 0.25
det_efficiency = 0.6
x_basis_prob = 0.7
block_size = 1000000
dark_count_prob = 1e-4
recon_efficiency = 1.1
pe_ratio = 0.2
clock_hz = 1e9
dead_time_s = 1e-6
intrinsic_error = 0.01
qber_override = 0.03

[cga]
population = 30
iterations = 40
rng_seed = 0

[sweep]
eps_levels = 1e-18 1e-17 1e-16
include_baselines = no
include_oracle = 1
oracle_points = 16
restarts = 3
output_path = dv.json
"""

EVERY_KEY_SPECS = {
    "cv": (
        CV_EVERY_KEY_INI,
        SweepSpec(
            params=CvProtocolParams(
                length_km=7.0,
                attenuation_db_per_km=0.18,
                det_efficiency=0.7,
                excess_noise=0.02,
                electronic_noise=0.05,
                signal_variance=12.5,
                block_size=250_000,
                recon_efficiency=0.9,
                discretization=5,
                pe_ratio=0.4,
                clock_hz=5e8,
                paper_sign_xi=True,
            ),
            cga=CgaConfig(population=50, iterations=25, rng_seed=3),
            eps_levels=(1e-12, 1e-11),
            include_baselines=False,
            include_oracle=True,
            oracle_points=64,
            restarts=2,
            output_path="out.csv",
        ),
    ),
    "dv": (
        DV_EVERY_KEY_INI,
        SweepSpec(
            params=DvProtocolParams(
                length_km=50.0,
                attenuation_db_per_km=0.25,
                det_efficiency=0.6,
                x_basis_prob=0.7,
                block_size=1_000_000,
                dark_count_prob=1e-4,
                recon_efficiency=1.1,
                pe_ratio=0.2,
                clock_hz=1e9,
                dead_time_s=1e-6,
                intrinsic_error=0.01,
                qber_override=0.03,
            ),
            cga=CgaConfig(population=30, iterations=40, rng_seed=0),
            eps_levels=(1e-18, 1e-17, 1e-16),
            include_baselines=False,
            include_oracle=True,
            oracle_points=16,
            restarts=3,
            output_path="dv.json",
        ),
    ),
}


def _fields_with_types(obj):
    hints = get_type_hints(type(obj))
    return [(f.name, hints[f.name], getattr(obj, f.name)) for f in fields(obj)]


@pytest.mark.parametrize("family", sorted(EVERY_KEY_SPECS))
def test_config_sets_every_field_with_its_type(family):
    text, expected = EVERY_KEY_SPECS[family]
    spec = loads_config(text)
    assert spec == expected
    # every field of every section is set, each away from its default
    defaults = SweepSpec(params=type(spec.params)())
    not_keys = {"params", "cga"}
    pairs = ((spec.params, defaults.params), (spec.cga, defaults.cga), (spec, defaults))
    for obj, default in pairs:
        for name, _, value in _fields_with_types(obj):
            if obj is not spec or name not in not_keys:
                assert value != getattr(default, name), name
    # each value has exactly its field's annotated type, and none is None
    exact = {bool: bool, int: int, int | None: int, float: float, float | None: float}
    for obj in (spec.params, spec.cga, spec):
        for name, tp, value in _fields_with_types(obj):
            assert value is not None, name
            if tp in exact:
                assert type(value) is exact[tp], (name, type(value))
    assert type(spec.output_path) is str
    assert all(type(lv) is float for lv in spec.eps_levels)


def _float_fields(cls):
    hints = get_type_hints(cls)
    return [f.name for f in fields(cls) if hints[f.name] in (float, float | None)]


FLOAT_FIELDS = [
    (cls, name)
    for cls in (CvProtocolParams, DvProtocolParams)
    for name in _float_fields(cls)
]


def test_float_field_list_covers_the_config_classes():
    assert len(FLOAT_FIELDS) == 9 + 11  # CV and DV float fields
    assert _float_fields(CgaConfig) == []  # its tuning is fixed, not configured


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
)
def test_config_objects_reject_non_finite_floats(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def test_field_types_reads_optional_annotations():
    assert field_types(DvProtocolParams)["qber_override"] == (float, True)
    assert field_types(DvProtocolParams)["block_size"] == (int, False)
    assert field_types(SweepSpec)["output_path"] == (str, True)
    assert field_types(SweepSpec)["eps_levels"] == (tuple[float, ...], False)


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (CvProtocolParams, "paper_sign_xi", "no"),
        (CvProtocolParams, "discretization", 7.5),
        (DvProtocolParams, "block_size", 30_000_000.5),
        (SweepSpec, "include_oracle", "no"),
        (SweepSpec, "include_baselines", "false"),
        (GridSpec, "points_per_axis", 20.0),
        (SweepSpec, "restarts", 2.0),
        (SweepSpec, "oracle_points", 20.0),
    ],
)
def test_config_objects_reject_a_value_of_the_wrong_kind(cls, name, value):
    # each was once accepted: a string read as true, a float count rated or
    # handed to numpy
    params = {"params": DvProtocolParams()} if cls is SweepSpec else {}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**params, **{name: value})


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (SweepSpec, {"eps_levels": ("1e-17",)}, "eps_levels[0] must be a real number, got '1e-17'"),
        (SweepSpec, {"eps_levels": [1e-17]}, "eps_levels must be a tuple of real numbers"),
        (SweepSpec, {"cga": "x"}, "cga must be a CgaConfig, got 'x'"),
        (DvProtocolParams, {"length_km": 10**400}, "length_km must be finite, got 1000"),
    ],
    ids=["level-of-text", "level-list", "cga-of-text", "int-beyond-float"],
)
def test_config_objects_built_in_code_fail_like_ini_ones(cls, values, message):
    # the INI reader cannot make these; built in code, each once raised a
    # TypeError from a level bound, or was accepted and failed when run
    params = {"params": DvProtocolParams()} if cls is SweepSpec else {}
    with pytest.raises(ValueError) as err:
        cls(**params, **values)
    assert str(err.value).startswith(message)


def test_config_objects_take_numpy_numbers():
    dv = DvProtocolParams(block_size=np.int64(10**6), length_km=np.float64(50.0))
    assert dv == DvProtocolParams(block_size=10**6, length_km=50.0)
    cv = CvProtocolParams(discretization=np.int64(5), excess_noise=np.float64(0.02))
    assert cv == CvProtocolParams(discretization=5, excess_noise=0.02)
    spec = small_dv_spec(restarts=np.int64(2), oracle_points=np.int64(20))
    assert spec == small_dv_spec(restarts=2, oracle_points=20)
    assert GridSpec(np.int64(20)).axis(1e-9).size == 20


def test_config_rejects_bad_pe_ratio_by_name():
    text = "[budget]\nfamily = cv\n\n[protocol]\npe_ratio = 1.5\n"
    with pytest.raises(ConfigError, match="pe_ratio"):
        loads_config(text)


def test_config_lists_every_problem():
    text = (
        "[budget]\nfamily = cv\n\n"
        "[protocol]\nnonsense = 1\npe_ratio = oops\n\n"
        "[mystery]\nx = 2\n"
    )
    with pytest.raises(ConfigError) as exc:
        loads_config(text)
    message = str(exc.value)
    assert "nonsense" in message
    assert "pe_ratio" in message
    assert "mystery" in message
    # the [sweep] bounds join the others
    text = "[budget]\nfamily = dv\n\n[cga]\npopulation = 1\n\n[sweep]\nrestarts = 0\n"
    with pytest.raises(ConfigError) as exc:
        loads_config(text)
    message = str(exc.value)
    assert "[cga] population must hold at least four chromosomes" in message
    assert "[sweep] restarts must be at least 1" in message


def test_config_lists_every_bad_cga_bound():
    text = "[budget]\nfamily = dv\n\n[cga]\npopulation = 1\niterations = 0\n"
    with pytest.raises(ConfigError) as exc:
        loads_config(text)
    message = str(exc.value)
    assert "population must hold at least four chromosomes" in message
    assert "iterations must be positive" in message


def test_readme_config_example_loads():
    # the README's one INI example is a config the reader takes, and its
    # [cga] block shows the defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    spec = loads_config(example)
    assert spec.family is Family.DV
    assert replace(spec.cga, rng_seed=None) == CgaConfig()


def test_config_requires_family():
    with pytest.raises(ConfigError, match="family"):
        loads_config("[cga]\npopulation = 10\n")
    with pytest.raises(ConfigError, match="family"):
        loads_config("[budget]\nfamily = xdv\n")


def test_config_eps_levels_validation():
    base = "[budget]\nfamily = dv\n\n[sweep]\neps_levels = {}\n"
    spec = loads_config(base.format("1e-18, 1e-17 1e-16"))
    assert spec.eps_levels == (1e-18, 1e-17, 1e-16)
    with pytest.raises(ConfigError):
        loads_config(base.format("1e-17, 1e-18"))
    with pytest.raises(ConfigError):
        loads_config(base.format("0.5, 2.0"))


def test_config_paper_sign_is_cv_only():
    text = "[budget]\nfamily = dv\n\n[protocol]\npaper_sign_xi = true\n"
    with pytest.raises(ConfigError, match="paper_sign_xi"):
        loads_config(text)


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(restarts=10**22), "restarts"),
        # 13 default DV levels x 4,000 restarts x population 200 x 2 genes
        (dict(eps_levels=(), restarts=4_000, cga=CgaConfig(population=200)), "restarts"),
        # 2 levels x 70,000 restarts x 1,000 generations of history
        (dict(restarts=70_000, cga=CgaConfig(population=4, iterations=1_000)), "restarts"),
        (dict(oracle_points=10**5), "oracle_points"),
        (dict(oracle_points=2049), "oracle_points"),
    ],
)
def test_a_sweep_past_the_array_limit_is_refused(overrides, field):
    # refused when built: no (level, restart) list, gene stack or grid is made
    with pytest.raises(ValueError) as err:
        small_dv_spec(**overrides)
    assert str(err.value).startswith(f"{field} too large:") and ";" not in str(err.value)


def test_a_sweep_at_the_array_limit_is_allowed():
    assert small_dv_spec(oracle_points=2048).oracle_points == 2048  # 2048**2 x 4 floats
    # 2 levels x 2**17 restarts x 64 genes (and 64 generations) of 8 bytes
    cga = CgaConfig(population=32, iterations=64)
    assert small_dv_spec(restarts=2**17, cga=cga).restarts == 2**17
    with pytest.raises(ValueError, match="restarts too large"):
        small_dv_spec(restarts=2**17 + 1, cga=cga)


def test_sweep_spec_family_is_the_type_of_its_params():
    assert SweepSpec(params=CvProtocolParams()).family is Family.CV
    assert SweepSpec(params=DvProtocolParams()).family is Family.DV
    # parameters of no protocol are refused by name, with or without levels,
    # before a family is read from them
    for params in ("x", None, CgaConfig()):
        for levels in ((), (1e-17,)):
            with pytest.raises(ValueError) as err:
                SweepSpec(params=params, eps_levels=levels)
            message = f"params must be a CvProtocolParams or DvProtocolParams, got {params!r}"
            assert str(err.value) == message


def test_the_family_is_no_protocol_key():
    # a parameters class carries its family as a class attribute, not a field
    with pytest.raises(ConfigError, match=r"unknown key 'family' in section \[protocol\]"):
        loads_config("[budget]\nfamily = cv\n\n[protocol]\nfamily = cv\n")
    for cls in (CvProtocolParams, DvProtocolParams):
        assert "family" not in field_types(cls)
        assert "family" not in asdict(cls())


def test_run_sweep_records_and_ordering():
    result = run_sweep(small_dv_spec())
    assert [r.eps_total for r in result.records] == [1e-18, 1e-17]
    for record in result.records:
        assert record.error is None
        assert record.opt.best_budget is not None
        assert record.rate_sym is not None
        assert record.rate_asym is not None
        assert record.rate_oracle is None  # oracle disabled
        assert len(record.opt.fitness_history) == SMALL_CGA.iterations
        # the optimizer must not lose to either fixed baseline
        assert record.opt.best_fitness >= record.rate_sym - 1e-9
        assert record.opt.best_fitness >= record.rate_asym - 1e-9


def test_run_sweep_without_baselines():
    result = run_sweep(small_dv_spec(include_baselines=False))
    assert all(r.rate_sym is None and r.rate_asym is None for r in result.records)


def test_run_sweep_with_oracle():
    result = run_sweep(
        small_dv_spec(eps_levels=(1e-17,), include_oracle=True, oracle_points=40)
    )
    (record,) = result.records
    assert record.rate_oracle is not None
    assert record.rate_oracle > 0.0


def test_run_sweep_records_level_failures():
    # at 4e-21 the CV symmetric split (total / 5 per component) is below the
    # component floor, so the baseline evaluation fails for that level only;
    # neither the optimizer nor the oracle finds a feasible split there
    spec = SweepSpec(
        params=CvProtocolParams(),
        cga=SMALL_CGA,
        eps_levels=(4e-21, 1e-9),
        include_oracle=True,
        oracle_points=20,
    )
    result = run_sweep(spec)
    first, second = result.records
    assert first.error is not None
    assert first.opt.best_fitness == WORST_FITNESS and first.opt.best_budget is None
    assert first.rate_oracle == WORST_FITNESS
    assert second.error is None
    assert math.isfinite(second.opt.best_fitness) and math.isfinite(second.rate_oracle)
    # the level with nothing feasible reports neither rate, in either format
    cells = dict(zip(CSV_COLUMNS, emit_results(result, fmt="csv").splitlines()[1].split(",")))
    assert cells["rate_opt_bps"] == cells["rate_oracle_bps"] == ""
    (rec, _) = json.loads(emit_results(result, fmt="json"))["records"]
    for rates in (rec["rates_raw"], rec["rates_clamped"]):
        assert rates["opt"] is None and rates["oracle"] is None


def test_run_sweep_keeps_optimum_when_baselines_fail():
    # at DV 1e-20 the asymmetric baseline puts eps_pe below the component
    # floor; the optimizer and the oracle still have feasible splits there
    spec = small_dv_spec(eps_levels=(1e-20,), include_oracle=True, oracle_points=20)
    result = run_sweep(spec)
    (record,) = result.records
    assert "at least 1e-21" in record.error
    assert record.rate_sym is None and record.rate_asym is None
    assert record.opt.best_budget is not None
    assert math.isfinite(record.opt.best_fitness)
    assert math.isfinite(record.rate_oracle)
    assert len(record.opt.fitness_history) == SMALL_CGA.iterations
    row = emit_results(result, fmt="csv").strip().split("\n")[1].split(",")
    assert row[0] == "1e-20"
    assert all(row[1:5]) and row[5:7] == ["", ""] and row[7]
    doc = json.loads(emit_results(result, fmt="json"))
    assert doc["records"][0]["error"] == record.error
    assert doc["records"][0]["rates_raw"]["opt"] == record.opt.best_fitness


def test_run_sweep_keeps_optimum_when_a_baseline_split_is_infeasible():
    # at DV 2e-20 every asymmetric component clears the floor, but the split
    # leaves eps_sec below it: the baselines are lost, the optimum is kept
    spec = small_dv_spec(eps_levels=(2e-20,))
    (record,) = run_sweep(spec).records
    assert record.error == "total = 2e-20 too small for the asymmetric baseline split"
    assert record.rate_sym is None and record.rate_asym is None
    assert record.opt.best_budget is not None and math.isfinite(record.opt.best_fitness)


def test_optimize_level_is_the_sweep_level():
    spec = small_dv_spec(restarts=2, include_baselines=False)
    records = run_sweep(spec).records
    # the first level alone draws from the same generators as in the sweep
    first_alone = optimize_levels(replace(spec, eps_levels=spec.eps_levels[:1]))
    for best, record in [*zip(optimize_levels(spec), records), (*first_alone, records[0])]:
        assert record.opt == best


def test_sweep_runs_equal_their_runs_alone(monkeypatch):
    # every (level, restart) run advances in one lockstep; restart k of a
    # level must end as run k of that level's total repeated alone
    spec = small_dv_spec(eps_levels=(3e-21, 1e-18, 1e-12), restarts=2, include_baselines=False)
    calls = []

    def counting(budget):
        calls.append(np.size(budget.eps_pe))
        return dv_rate(budget)

    route_rates(monkeypatch, counting)
    result = run_sweep(spec)
    records = result.records
    assert len(calls) == SMALL_CGA.iterations
    for total, record in zip(spec.eps_levels, records):
        first, second = run(SMALL_CGA, [total, total], Family.DV, dv_rate)
        assert first == run(SMALL_CGA, total, Family.DV, dv_rate)
        best = second if second.best_fitness > first.best_fitness else first
        assert record.opt == best
    # the level at the floor finds no feasible split; the others do
    assert records[0].opt.best_fitness == WORST_FITNESS
    assert all(math.isfinite(r.opt.best_fitness) for r in records[1:])
    assert emit_results(result, fmt="csv").splitlines()[1].split(",")[4] == ""
    assert json.loads(emit_results(result, fmt="json"))["records"][0]["rates_raw"]["opt"] is None


def test_a_row_does_not_change_when_a_level_is_listed_before_it():
    spec = small_dv_spec(eps_levels=(1e-17,), restarts=2)
    (alone,) = run_sweep(spec).records
    for before in (1e-18, 3e-21):
        assert run_sweep(replace(spec, eps_levels=(before, 1e-17))).records[1] == alone


def test_an_unseeded_sweep_draws_fresh_streams():
    spec = small_dv_spec(cga=CgaConfig(population=8, iterations=3), eps_levels=(1e-12,))
    (first,), (second,) = optimize_levels(spec), optimize_levels(spec)
    assert first.fitness_history != second.fitness_history


def baseline_rows(budget):
    """Which rows of a batch ``budget`` are a baseline split of 1e-17, the
    one level of the three tests below: a sweep rates them all in one call."""
    splits = baseline_budgets(1e-17, Family.DV)
    return np.isin(budget.eps_pe, [split.eps_pe for _, split in splits])


def test_a_baseline_rate_that_raises_stops_the_sweep(monkeypatch):
    # only a total too small for the baseline splits becomes a level's error;
    # a rate function that fails on the baseline splits must not be written down as one
    def raise_for_baselines(budget):
        if baseline_rows(budget).any():
            raise ValueError("baseline rate failed")
        return dv_rate(budget)

    route_rates(monkeypatch, raise_for_baselines)
    with pytest.raises(ValueError, match="baseline rate failed"):
        run_sweep(small_dv_spec(eps_levels=(1e-17,)))


def test_emit_json_writes_a_nan_rate_as_null(monkeypatch):
    # a NaN baseline rate must not reach the JSON text as the bare token NaN
    def nan_for_baselines(budget):
        return np.where(baseline_rows(budget), np.nan, dv_rate(budget))

    route_rates(monkeypatch, nan_for_baselines)
    result = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    assert math.isnan(result.records[0].rate_sym)

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    doc = json.loads(emit_results(result, fmt="json"), parse_constant=reject)
    (rec,) = doc["records"]
    assert rec["rates_raw"]["sym"] is None and rec["rates_clamped"]["sym"] is None
    assert rec["rates_clamped"]["opt"] == max(rec["rates_raw"]["opt"], 0.0)


def test_emit_csv_leaves_a_nan_rate_empty(monkeypatch):
    # the CSV shares the JSON's rule: a rate that is not finite has no cell
    def nan_for_baselines(budget):
        return np.where(baseline_rows(budget), np.nan, dv_rate(budget))

    route_rates(monkeypatch, nan_for_baselines)
    result = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    assert math.isnan(result.records[0].rate_sym) and math.isnan(result.records[0].rate_asym)
    header, row = emit_results(result, fmt="csv").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["rate_sym_bps"] == "" and cells["rate_asym_bps"] == ""
    assert cells["rate_opt_bps"] == repr(max(result.records[0].opt.best_fitness, 0.0))


def test_emit_csv_schema_and_clamping():
    # CV at 1e-12 is deep in negative-rate territory: raw rates are negative,
    # reported rates must clamp to zero
    spec = SweepSpec(
        params=CvProtocolParams(),
        cga=SMALL_CGA,
        eps_levels=(1e-12,),
    )
    result = run_sweep(spec)
    (record,) = result.records
    assert record.rate_sym < 0.0
    text = emit_results(result, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 1e-12
    assert fields[5] == "0.0"  # clamped symmetric rate
    assert fields[6] == "0.0"  # clamped asymmetric rate
    assert fields[7] == ""  # oracle disabled

    doc = json.loads(emit_results(result, fmt="json"))
    raw = doc["records"][0]["rates_raw"]
    assert raw["sym"] == record.rate_sym  # negative value preserved
    clamped = doc["records"][0]["rates_clamped"]
    assert clamped["sym"] == 0.0


def test_emit_csv_failed_level_row():
    spec = SweepSpec(
        params=CvProtocolParams(),
        cga=SMALL_CGA,
        eps_levels=(4e-21,),
    )
    text = emit_results(run_sweep(spec), fmt="csv")
    row = text.strip().split("\n")[1]
    assert row == "4e-21,,,,,,,"


def test_emit_json_carries_history_and_errors():
    result = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    doc = json.loads(emit_results(result, fmt="json"))
    assert doc["family"] == "dv"
    (rec,) = doc["records"]
    assert rec["error"] is None
    assert len(rec["fitness_history"]) == SMALL_CGA.iterations
    assert rec["budget_opt"]["eps_pe"] > 0.0


def test_emit_rejects_unknown_format():
    result = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    with pytest.raises(ValueError):
        emit_results(result, fmt="yaml")


def test_sweep_is_byte_deterministic():
    spec = small_dv_spec()
    first = emit_results(run_sweep(spec), fmt="csv")
    second = emit_results(run_sweep(spec), fmt="csv")
    assert first == second
    assert first.encode() == second.encode()


def test_sweep_restarts_never_hurt():
    single = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    double = run_sweep(small_dv_spec(eps_levels=(1e-17,), restarts=2))
    assert double.records[0].opt.best_fitness >= single.records[0].opt.best_fitness


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/definitely/not/here.ini")
