import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from qkdopt import cli, harness
from qkdopt.budget import Family, baseline_budget
from qkdopt.cli import main
from qkdopt.harness import SweepResult, loads_config, optimize_levels
from qkdopt.oracle import PROTOCOLS

SMALL_CGA_INI = "[cga]\npopulation = 24\niterations = 15\nrng_seed = 11\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_text_breakdown(capsys):
    code, out, err = run_cli(capsys, "rate", "--family", "dv", "--eps", "1e-17")
    assert code == 0
    assert err == ""
    assert "rate_bits_per_sec" in out
    assert "qber_est" in out


def test_rate_json_and_explicit_split(capsys):
    code, out, _ = run_cli(
        capsys,
        "rate",
        "--family",
        "cv",
        "--eps",
        "1e-9",
        "--eps-pe",
        "2e-10",
        "--eps-cor",
        "1e-12",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_pe"] == 2e-10
    assert doc["rate_bits_per_sec"] > 0.0


def test_rate_csv_two_lines(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--family", "dv", "--eps", "1e-17", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("family,eps_total,")


@pytest.mark.parametrize("family, eps", [("dv", "1e-20"), ("cv", "7e-21")])
def test_rate_builds_only_the_named_baseline_split(capsys, family, eps):
    # at these totals the symmetric split exists and the asymmetric one does not
    code, out, err = run_cli(capsys, "rate", "--family", family, "--eps", eps, "--format", "json")
    assert (code, err) == (0, "")
    doc, sym = json.loads(out), baseline_budget(float(eps), Family(family), "symmetric")
    names = ("eps_pe", "eps_cor", "eps_sec")
    assert [doc[name] for name in names] == [getattr(sym, name) for name in names]
    code, out, err = run_cli(capsys, "rate", "--family", family, "--eps", eps, "--split", "asym")
    assert (code, out) == (1, "")
    assert err == f"error: total = {float(eps)} too small for the asymmetric baseline split\n"


def test_rate_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys,
        "rate",
        "--family",
        "dv",
        "--eps",
        "1e-17",
        "--split",
        "sym",
        "--eps-pe",
        "1e-18",
        "--eps-cor",
        "1e-18",
    )
    assert code == 1
    assert "--split" in err

    code, _, err = run_cli(
        capsys, "rate", "--family", "dv", "--eps", "1e-17", "--eps-pe", "1e-18"
    )
    assert code == 1
    assert "together" in err


def test_subtractive_xi_flag_changes_cv_rate(capsys):
    args = [
        "rate",
        "--family",
        "cv",
        "--eps",
        "1e-9",
        "--eps-pe",
        "2e-10",
        "--eps-cor",
        "1e-12",
        "--format",
        "json",
    ]
    _, out_plus, _ = run_cli(capsys, *args)
    _, out_minus, _ = run_cli(capsys, *args, "--paper-sign-xi")
    plus = json.loads(out_plus)["rate_bits_per_sec"]
    minus = json.loads(out_minus)["rate_bits_per_sec"]
    # the subtractive convention assumes away noise, so it reports more key
    assert minus > plus


@pytest.mark.parametrize("command", ["rate", "optimize", "sweep", "oracle"])
def test_paper_sign_xi_is_a_cv_parameter(capsys, tmp_path, command):
    extra = ["--points", "12"] if command == "oracle" else []

    def run(family, *flag):
        cfg = tmp_path / f"{family}.ini"
        cfg.write_text(f"[budget]\nfamily = {family}\n\n" + SMALL_CGA_INI, encoding="utf-8")
        argv = [command, "--config", str(cfg), "--family", family, "--eps", "1e-9"]
        return run_cli(capsys, *argv, *extra, *flag)

    # DV has no such convention: refused by name, not ignored
    code, out, err = run("dv", "--paper-sign-xi")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--paper-sign-xi" in err
    plain, signed = run("cv"), run("cv", "--paper-sign-xi")
    assert plain[0] == signed[0] == 0
    assert plain[1] != signed[1]


def test_optimize_reports_budget(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "optimize",
        "--config",
        str(cfg),
        "--eps",
        "1e-17",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["rate_bps"] > 0.0
    assert doc["eps_pe"] > 0.0
    assert doc["evaluations"] == 24 * 15


def test_optimize_restarts_flag_keeps_the_best_run(capsys, tmp_path):
    text = "[budget]\nfamily = dv\n\n" + SMALL_CGA_INI
    cfg = tmp_path / "dv.ini"
    cfg.write_text(text, encoding="utf-8")

    def optimize(*flag):
        argv = ["optimize", "--config", str(cfg), "--eps", "1e-17", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv, *flag)
        assert code == 0
        return json.loads(out)

    (best,) = optimize_levels(replace(loads_config(text), restarts=2, eps_levels=(1e-17,)))
    doc = optimize("--restarts", "2")
    assert doc["rate_bps_raw"] == best.best_fitness
    assert (doc["eps_pe"], doc["eps_cor"]) == (best.best_budget.eps_pe, best.best_budget.eps_cor)
    # at this seed and level the second run wins
    assert doc["rate_bps_raw"] > optimize()["rate_bps_raw"]


def test_every_sweep_level_is_optimize_at_that_level_alone(capsys, tmp_path):
    # a run is keyed by its level's value, not by the level's place in the list
    cfg = tmp_path / "dv.ini"
    text = "[budget]\nfamily = dv\n\n" + SMALL_CGA_INI + "\n[sweep]\nrestarts = 2\n"
    cfg.write_text(text, encoding="utf-8")
    levels = ("1e-18", "1e-17", "1e-16")
    argv = ("--config", str(cfg), "--seed", "3", "--format", "json")
    code, out, _ = run_cli(capsys, "sweep", "--eps", ",".join(levels), *argv)
    assert code == 0
    for level, record in zip(levels, json.loads(out)["records"]):
        code, out, _ = run_cli(capsys, "optimize", "--eps", level, *argv)
        assert code == 0
        doc = json.loads(out)
        assert record["budget_opt"] == {k: doc[k] for k in ("eps_pe", "eps_cor", "eps_sec")}
        assert record["rates_raw"]["opt"] == doc["rate_bps_raw"]


def test_optimize_needs_single_eps(capsys):
    code, _, err = run_cli(
        capsys, "optimize", "--family", "dv", "--eps", "1e-18,1e-17"
    )
    assert code == 1
    assert "one" in err


def test_eps_flag_reads_levels_like_the_config(capsys, tmp_path, monkeypatch):
    specs = []

    def record(spec):
        specs.append(spec)
        return SweepResult(spec=spec, records=[])

    monkeypatch.setattr(cli, "run_sweep", record)
    cfg = tmp_path / "levels.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n[sweep]\neps_levels = 1e-9, 1e-8\n", encoding="utf-8")
    assert run_cli(capsys, "sweep", "--family", "dv", "--eps", "1e-9, 1e-8")[0] == 0
    assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
    assert specs[0].eps_levels == specs[1].eps_levels == (1e-9, 1e-8)
    code, out, err = run_cli(capsys, "sweep", "--family", "dv", "--eps", "1e-9,x")
    assert code == 1 and out == ""
    assert err.startswith("error: bad --eps value: ")


def test_empty_eps_flag_is_rejected(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "cv", "--eps", "", "--seed", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad --eps value: ")


def test_empty_config_level_list_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "cv.ini"
    cfg.write_text("[budget]\nfamily = cv\n\n[sweep]\neps_levels =\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--seed", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "bad value for sweep.eps_levels: " in err


def test_sweep_writes_deterministic_csv(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n"
        + SMALL_CGA_INI
        + "\n[sweep]\neps_levels = 1e-18 1e-17\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text(encoding="utf-8").split("\n")[0]
    assert header.split(",")[0] == "eps_total"


@pytest.mark.parametrize(
    "command, extra",
    [("rate", ()), ("optimize", ()), ("sweep", ()), ("oracle", ("--points", "8"))],
)
def test_config_output_path_applies_to_every_command(capsys, tmp_path, command, extra):
    # rate, optimize and oracle once wrote to stdout whatever [sweep] output_path said
    from_config, from_flag = tmp_path / "config.out", tmp_path / "flag.out"
    cfg = tmp_path / "dv.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n" + SMALL_CGA_INI + f"\n[sweep]\noutput_path = {from_config}\n",
        encoding="utf-8",
    )
    argv = (command, "--config", str(cfg), "--eps", "1e-17", *extra)
    assert run_cli(capsys, *argv) == (0, "", "")
    assert run_cli(capsys, *argv, "--out", str(from_flag)) == (0, "", "")
    assert from_config.read_text(encoding="utf-8") == from_flag.read_text(encoding="utf-8") != ""


def test_sweep_family_conflict_with_config(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--family", "cv")
    assert code == 1
    assert "conflict" in err


def test_oracle_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--family",
        "dv",
        "--eps",
        "1e-17",
        "--points",
        "12",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps_pe,eps_cor,eps_sec,feasible,rate_bits_per_sec"
    assert len(lines) == 1 + 12 * 12


def test_oracle_json_best(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--family",
        "dv",
        "--eps",
        "1e-17",
        "--points",
        "20",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible_count"] > 0
    assert doc["best_rate_bps"] > 0.0
    assert len(doc["cells"]) == 20 * 20


@pytest.mark.parametrize("extra", [["sweep"], ["oracle", "--points", "300"]])
def test_a_format_the_command_lacks_exits_one_before_any_work(capsys, monkeypatch, extra):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "grid_search", lambda *args: calls.append(args))
    code, out, err = run_cli(
        capsys, *extra, "--family", "dv", "--eps", "1e-17", "--format", "text"
    )
    assert code == 1 and out == ""
    assert "--format" in err and err.count("\n") == 1
    assert calls == []  # refused while parsing, before a rate is computed


@pytest.mark.parametrize(
    "argv, config, causes",
    [
        (["rate", "--family", "dv"], None, ["--eps with a single value is required"]),
        (
            ["rate", "--family", "dv", "--eps", "1e-17", "--eps-pe", "5e-18", "--eps-cor", "5e-18"],
            None,
            ["the requested components leave no room for the secrecy share"],
        ),
        (["sweep"], "[budget\nfamily = dv\n", ["config parse error"]),
        (
            ["sweep"],
            "[budget]\nfamily = dv\nlevel = 3\n",
            ["unknown key 'level' in section [budget]"],
        ),
        (
            ["sweep"],
            "[budget]\nfamily = QV\nlevel = 3\n",
            ["bad value for budget.family: must be 'cv' or 'dv', got 'qv'", "unknown key 'level'"],
        ),
        (
            ["sweep"],
            "[protocol]\nlength_km = 1\n",
            ["missing required key 'family' in section [budget]"],
        ),
        (
            ["sweep"],
            "[budget]\nfamily = dv\n\n[sweep]\ninclude_oracle = maybe\n",
            ["bad value for sweep.include_oracle: expected a boolean, got 'maybe'"],
        ),
        (
            ["sweep"],
            "[budget]\nfamily = dv\n\n[sweep]\noracle_points = 1\nrestarts = 0\n",
            ["[sweep] oracle_points must be at least 2", "restarts must be at least 1"],
        ),
    ],
    ids=[
        "no-eps", "no-secrecy-share", "ini-syntax", "budget-key", "budget-family", "no-family",
        "boolean", "sweep-bounds",
    ],
)
def test_bad_input_exits_one_naming_the_cause(capsys, tmp_path, argv, config, causes):
    if config is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert all(cause in err for cause in causes), err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "rate", "--no-such-flag")[0] == 1
    assert run_cli(capsys, "rate", "--eps", "1e-9")[0] == 1  # family missing
    assert run_cli(capsys, "sweep", "--family", "dv", "--eps", "2.0")[0] == 1


@pytest.mark.parametrize(
    "command, family, level",
    [
        ("optimize", "cv", "1e-30"),
        ("sweep", "dv", "1e-22"),
        ("rate", "dv", "1e-25"),
        ("oracle", "cv", "1e-22"),
    ],
)
def test_level_below_the_floor_is_named_in_one_line(capsys, command, family, level):
    code, out, err = run_cli(capsys, command, "--family", family, "--eps", level)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert level in err and "1e-21" in err


def test_config_level_below_the_floor_is_named(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n[sweep]\neps_levels = 1e-30, 1e-17\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert err.count("\n") == 1 and "1e-30" in err and "1e-21" in err


def test_levels_from_the_floor_up_are_allowed(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "optimize", "--config", str(cfg), "--eps", "2e-21", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["feasible"] is False


def test_the_oracle_at_the_floor_finds_no_feasible_cell(capsys, tmp_path):
    # a level the optimizer accepts (feasible: false) must not stop the oracle
    code, out, _ = run_cli(
        capsys, "oracle", "--family", "dv", "--eps", "1e-21", "--points", "20",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible_count"] == 0 and doc["best_budget"] is None
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--eps", "1e-21", "--oracle", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["rates_raw"]["oracle"] is None


def test_negative_seed_exits_one(capsys, tmp_path):
    for command in ("optimize", "sweep"):
        code, _, err = run_cli(
            capsys, command, "--family", "dv", "--eps", "1e-17", "--seed", "-3"
        )
        assert code == 1
        assert "rng_seed" in err
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n[cga]\nrng_seed = -3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert "rng_seed" in err


def test_seed_belongs_to_the_optimizer_commands(capsys, tmp_path):
    # rate and oracle run no optimizer: a --seed there is refused, not ignored
    for command in ("rate", "oracle"):
        code, out, err = run_cli(
            capsys, command, "--family", "dv", "--eps", "1e-17", "--seed", "1"
        )
        assert code == 1 and out == ""
        assert "--seed" in err and err.count("\n") == 1
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI, encoding="utf-8")
    for command in ("optimize", "sweep"):
        code, out, err = run_cli(
            capsys, command, "--config", str(cfg), "--eps", "1e-17", "--seed", "1"
        )
        assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "family, section, cause",
    [
        # a model that cannot run at its parameters
        ("dv", "[protocol]\nblock_size = 100", "detected block degenerate"),
        ("cv", "[protocol]\nsignal_variance = 1", "require modulation"),
        # a number no range check would otherwise catch
        ("dv", "[protocol]\nclock_hz = inf", "[protocol] clock_hz must be finite"),
        ("cv", "[protocol]\nsignal_variance = inf", "signal_variance must be finite"),
        # 2**discretization must stay a finite float
        ("cv", "[protocol]\ndiscretization = 1024", "discretization must lie in [1, 1023]"),
        ("cv", f"[protocol]\ndiscretization = {10**22}", "discretization must lie in [1, 1023]"),
        # past 1e4 the Holevo bound loses its float precision
        ("cv", "[protocol]\nsignal_variance = 1e20", "signal_variance must lie in [1, 1e4]"),
        # a block too small to hold one estimation signal
        ("cv", "[protocol]\nblock_size = 2", "block split degenerate: m = 0"),
        # arrays past the byte limit, refused before any is made
        ("dv", f"[sweep]\nrestarts = {10**22}", "restarts too large"),
        ("dv", f"[sweep]\noracle_points = {10**5}", "oracle_points too large"),
        ("dv", f"[cga]\npopulation = {10**12}", "population too large"),
        ("dv", f"[cga]\niterations = {10**12}", "iterations too large"),
    ],
)
def test_config_that_cannot_run_exits_one(capsys, tmp_path, family, section, cause):
    # once, not as an error column in every level's record
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[budget]\nfamily = {family}\n\n{section}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(cfg), "--seed", "11", "--eps", "1e-10,1e-9"
    )
    assert code == 1
    assert out == ""
    assert cause in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [["rate"], ["optimize", "--seed", "1"], ["oracle", "--points", "20"]],
    ids=["rate", "optimize", "oracle"],
)
def test_a_rate_past_the_float_range_exits_one(capsys, tmp_path, command):
    # not a rate of -inf, an infeasible optimum or infeasible cells, with exit 0
    cfg = tmp_path / "huge.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n[protocol]\nrecon_efficiency = 1e308\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--config", str(cfg), "--eps", "1e-17")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "overflows the float range" in err, err


def test_removed_cga_tuning_keys_are_unknown(capsys, tmp_path):
    # the CGA's tuning is fixed: an old config that sets it is refused, not
    # silently run with other values
    keys = ("mutation_rate", "parent_rate", "survival_rate", "mutation_sigma")
    cfg = tmp_path / "old.ini"
    text = "[budget]\nfamily = dv\n\n[cga]\n" + "".join(f"{k} = 0.5\n" for k in keys)
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--eps", "1e-17")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert all(f"unknown key '{key}' in section [cga]" in err for key in keys), err


@pytest.mark.parametrize("flag", ["--eps-pe", "--eps-cor"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_rate_names_a_non_finite_component(capsys, flag, value):
    # inf once read as leaving no secrecy share, nan as a value below the floor
    other = "--eps-cor" if flag == "--eps-pe" else "--eps-pe"
    code, out, err = run_cli(
        capsys, "rate", "--family", "dv", "--eps", "1e-17", flag, value, other, "1e-18"
    )
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be a finite number, got {value}\n"


@pytest.mark.parametrize("route", ["--out", "[sweep] output_path"])
def test_empty_output_path_exits_one_before_any_rate(capsys, tmp_path, monkeypatch, route):
    # it once ran the whole command, then failed to open '' with exit 2
    calls = []
    for name in ("key_rate", "optimize_levels", "run_sweep", "grid_search"):
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args))
    if route == "--out":
        argv = ("rate", "--family", "dv", "--eps", "1e-17", "--out", "")
    else:
        cfg = tmp_path / "dv.ini"
        cfg.write_text("[budget]\nfamily = dv\n\n[sweep]\noutput_path =\n", encoding="utf-8")
        argv = ("sweep", "--config", str(cfg), "--eps", "1e-17")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "output_path must not be empty" in err and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("route", ["--out", "[sweep] output_path"])
@pytest.mark.parametrize("path", ["missing/x.csv", "."])
def test_unwritable_output_path_exits_two_before_any_rate(
    capsys, tmp_path, monkeypatch, route, path
):
    # the path is refused before the sweep's work, not after it
    calls = []
    monkeypatch.setattr(harness, "key_rate", lambda *args: calls.append(args))
    out = tmp_path / path
    cfg = tmp_path / "dv.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n" + SMALL_CGA_INI
        + ("" if route == "--out" else f"\n[sweep]\noutput_path = {out}\n"),
        encoding="utf-8",
    )
    argv = ["sweep", "--config", str(cfg), "--eps", "1e-17"]
    if route == "--out":
        argv += ["--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("i/o error: ") and str(out) in err and err.count("\n") == 1
    assert calls == []


def test_a_failed_command_leaves_an_existing_output_file(capsys, tmp_path):
    out = tmp_path / "kept.txt"
    out.write_text("earlier output\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "rate", "--family", "dv", "--eps", "1e-17,1e-16", "--out", str(out)
    )
    assert code == 1 and "expected one --eps value" in err
    assert out.read_text(encoding="utf-8") == "earlier output\n"


def test_files_are_read_and_written_as_utf8_whatever_the_locale(tmp_path):
    # -X warn_default_encoding makes every open that relies on the locale's
    # encoding warn, and -W error makes that warning fail the command
    golden = Path(__file__).resolve().parent / "golden"
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(golden / "sweep_dv.ini"), "--out", str(out)]
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    done = subprocess.run(
        [sys.executable, *flags, "-m", "qkdopt.cli", *argv],
        capture_output=True, encoding="utf-8", env=env,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == (golden / "sweep_dv.csv").read_bytes()


def test_a_config_that_is_not_utf8_exits_one_naming_it(capsys, tmp_path):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes("[budget]\nfamily = dv\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot read config {cfg}: ")


def test_io_errors_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "rate",
        "--family",
        "dv",
        "--eps",
        "1e-17",
        "--out",
        "/no/such/dir/x.txt",
    )
    assert code == 2
    assert "i/o" in err


#: Values the fuzz below draws for INI keys and flags: unreadable, non-finite, past
#: the float or array range, and a few small numbers that some keys can hold.
_FUZZ_VALUES = ("nan", "inf", "1e400", str(10**22), "", "x", "-1", "0", "1", "2", "0.5",
                "1e-9", "1e-17", "true")

#: A value each [sweep] key can hold, small enough to run fast.
_SWEEP_HOLDS = {"eps_levels": "1e-17 1e-9", "include_baselines": "false",
                "include_oracle": "true", "oracle_points": "3", "restarts": "2",
                "output_path": "out.txt"}


def _fuzz_keys(rng, holds, n_keys):
    """``n_keys`` of the keys of ``holds``, each set to a fuzz value half the time
    and otherwise to the value it holds, a number scaled by a random factor in its
    own type, so that the models meet extreme values too."""
    def held(value):
        if not isinstance(value, (int, float)):
            return value
        return type(value)(value * rng.choice((0, 1e-6, 0.5, 2, 1e6)))
    return {k: rng.choice(_FUZZ_VALUES) if rng.random() < 0.5 else held(holds[k])
            for k in rng.sample(sorted(holds), n_keys)}


def test_fuzzed_commands_and_configs_exit_zero_or_one(capsys, tmp_path, monkeypatch):
    # every input either runs or is refused in one line naming its cause; none
    # reaches the internal-error net.  The sizes stay small: the CGA is fixed at
    # 4 x 2, and the oracle grid at 8 points unless the fuzz sets it
    monkeypatch.chdir(tmp_path)  # an output_path the fuzz sets lands here
    rng = random.Random(0)
    exits = []
    for case in range(500):
        family = rng.choice(list(PROTOCOLS))
        # qber_override's default, None, has no INI form
        holds = {k: 0.02 if v is None else v for k, v in asdict(PROTOCOLS[family].params()).items()}
        protocol = _fuzz_keys(rng, holds, rng.randint(0, 3))
        sweep = {"oracle_points": "8"} | _fuzz_keys(rng, _SWEEP_HOLDS, rng.randint(0, 2))
        cfg = tmp_path / "fuzz.ini"
        cfg.write_text(
            f"[budget]\nfamily = {family.value}\n\n[cga]\npopulation = 4\niterations = 2\n"
            + "".join(f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                      for name, keys in (("protocol", protocol), ("sweep", sweep))),
            encoding="utf-8",
        )
        command = rng.choice(["rate", "optimize", "sweep", "oracle"])
        argv = [command, "--config", str(cfg)]
        if rng.random() < 0.8:  # half of them levels that can run
            levels = ("1e-9", "1e-17", "1e-12,1e-9") if rng.random() < 0.5 else _FUZZ_VALUES
            argv += ["--eps", rng.choice(levels)]
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(("text", "csv", "json"))]
        code, out, err = run_cli(capsys, *argv)
        where = f"case {case}: {argv} with\n{cfg.read_text(encoding='utf-8')}"
        assert code in (0, 1), where + err
        assert err.count("\n") <= 1 and (code == 0) == (err == ""), where + err
        assert "internal error" not in out + err, where + err
        exits.append(code)
    assert 0 < exits.count(0) < len(exits)  # the fuzz reaches both outcomes
