import json

import pytest

from qkdopt.budget import Family
from qkdopt.cga import CgaConfig
from qkdopt.cv_rate import CvProtocolParams
from qkdopt.dv_rate import DvProtocolParams
from qkdopt.harness import (
    CSV_COLUMNS,
    ConfigError,
    SweepSpec,
    default_eps_levels,
    dump_config,
    emit_results,
    load_config,
    loads_config,
    optimize_level,
    run_sweep,
)

SMALL_CGA = CgaConfig(population=24, iterations=20, rng_seed=7)


def small_dv_spec(**overrides):
    defaults = dict(
        family=Family.DV,
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
    assert spec.eps_levels == default_eps_levels(Family.CV)
    assert spec.include_baselines is True
    assert spec.include_oracle is False
    assert spec.restarts == 1
    assert spec.paper_sign_xi is False


def test_default_levels_are_decade_grids():
    cv = default_eps_levels(Family.CV)
    assert cv[0] == 1e-12 and cv[-1] == 1e-5 and len(cv) == 8
    dv = default_eps_levels(Family.DV)
    assert dv[0] == 1e-17 and dv[-1] == 1e-5 and len(dv) == 13


def test_config_round_trip_both_families():
    cv_spec = SweepSpec(
        family=Family.CV,
        params=CvProtocolParams(length_km=7.5, excess_noise=0.02),
        cga=CgaConfig(population=50, iterations=25, rng_seed=3),
        eps_levels=(1e-12, 1e-11),
        include_oracle=True,
        oracle_points=64,
        restarts=2,
        paper_sign_xi=True,
        output_path="out.csv",
    )
    assert loads_config(dump_config(cv_spec)) == cv_spec
    dv_spec = small_dv_spec(params=DvProtocolParams(qber_override=0.05))
    assert loads_config(dump_config(dv_spec)) == dv_spec


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


def test_sweep_spec_family_params_mismatch():
    with pytest.raises(ConfigError):
        SweepSpec(family=Family.CV, params=DvProtocolParams())


def test_run_sweep_records_and_ordering():
    result = run_sweep(small_dv_spec())
    assert [r.eps_total for r in result.records] == [1e-18, 1e-17]
    for record in result.records:
        assert record.error is None
        assert record.budget_opt is not None
        assert record.rate_sym is not None
        assert record.rate_asym is not None
        assert record.rate_oracle is None  # oracle disabled
        assert len(record.fitness_history) == SMALL_CGA.iterations
        # the optimizer must not lose to either fixed baseline
        assert record.rate_opt >= record.rate_sym - 1e-9
        assert record.rate_opt >= record.rate_asym - 1e-9


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
    # component floor, so the baseline evaluation fails for that level only
    spec = SweepSpec(
        family=Family.CV,
        params=CvProtocolParams(),
        cga=SMALL_CGA,
        eps_levels=(4e-21, 1e-9),
    )
    result = run_sweep(spec)
    first, second = result.records
    assert first.error is not None
    assert first.rate_opt is None
    assert second.error is None
    assert second.rate_opt is not None


def test_run_sweep_keeps_optimum_when_baselines_fail():
    # at DV 1e-20 the asymmetric baseline puts eps_pe below the component
    # floor; the optimizer and the oracle still have feasible splits there
    spec = small_dv_spec(eps_levels=(1e-20,), include_oracle=True, oracle_points=20)
    result = run_sweep(spec)
    (record,) = result.records
    assert "at least 1e-21" in record.error
    assert record.rate_sym is None and record.rate_asym is None
    assert record.budget_opt is not None
    assert record.rate_opt is not None
    assert record.rate_oracle is not None
    assert len(record.fitness_history) == SMALL_CGA.iterations
    row = emit_results(result, fmt="csv").strip().split("\n")[1].split(",")
    assert row[0] == "1e-20"
    assert all(row[1:5]) and row[5:7] == ["", ""] and row[7]
    doc = json.loads(emit_results(result, fmt="json"))
    assert doc["records"][0]["error"] == record.error
    assert doc["records"][0]["rates_raw"]["opt"] == record.rate_opt


def test_optimize_level_is_the_sweep_level():
    spec = small_dv_spec(restarts=2, include_baselines=False)
    records = run_sweep(spec).records
    for idx, total in enumerate(spec.eps_levels):
        best = optimize_level(spec, total, idx)
        assert best.best_budget == records[idx].budget_opt
        assert best.best_fitness == records[idx].rate_opt
        assert best.fitness_history == records[idx].fitness_history


def test_emit_csv_schema_and_clamping():
    # CV at 1e-12 is deep in negative-rate territory: raw rates are negative,
    # reported rates must clamp to zero
    spec = SweepSpec(
        family=Family.CV,
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
        family=Family.CV,
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


def test_emit_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    text = emit_results(result, fmt="csv", path=str(out))
    assert out.read_text() == text


def test_sweep_is_byte_deterministic():
    spec = small_dv_spec()
    first = emit_results(run_sweep(spec), fmt="csv")
    second = emit_results(run_sweep(spec), fmt="csv")
    assert first == second
    assert first.encode() == second.encode()


def test_sweep_restarts_never_hurt():
    single = run_sweep(small_dv_spec(eps_levels=(1e-17,)))
    double = run_sweep(small_dv_spec(eps_levels=(1e-17,), restarts=2))
    assert double.records[0].rate_opt >= single.records[0].rate_opt


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/definitely/not/here.ini")
