import json
from dataclasses import replace

import pytest

from qkdopt import cli
from qkdopt.cli import main
from qkdopt.harness import SweepResult, loads_config, optimize_levels

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
        cfg.write_text(f"[budget]\nfamily = {family}\n\n" + SMALL_CGA_INI)
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
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI)
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
    cfg.write_text(text)

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
    cfg.write_text("[budget]\nfamily = dv\n\n[sweep]\neps_levels = 1e-9, 1e-8\n")
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
    cfg.write_text("[budget]\nfamily = cv\n\n[sweep]\neps_levels =\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--seed", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "bad value for sweep.eps_levels: " in err


def test_sweep_writes_deterministic_csv(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text(
        "[budget]\nfamily = dv\n\n"
        + SMALL_CGA_INI
        + "\n[sweep]\neps_levels = 1e-18 1e-17\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().split("\n")[0]
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
        "[budget]\nfamily = dv\n\n" + SMALL_CGA_INI + f"\n[sweep]\noutput_path = {from_config}\n"
    )
    argv = (command, "--config", str(cfg), "--eps", "1e-17", *extra)
    assert run_cli(capsys, *argv) == (0, "", "")
    assert run_cli(capsys, *argv, "--out", str(from_flag)) == (0, "", "")
    assert from_config.read_text() == from_flag.read_text() != ""


def test_sweep_family_conflict_with_config(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n")
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
            "[budget]\nfamily = dv\n\n[sweep]\ninclude_oracle = maybe\n",
            ["bad value for sweep.include_oracle: expected a boolean, got 'maybe'"],
        ),
        (
            ["sweep"],
            "[budget]\nfamily = dv\n\n[sweep]\noracle_points = 1\nrestarts = 0\n",
            ["[sweep] oracle_points must be at least 2", "restarts must be at least 1"],
        ),
    ],
    ids=["no-eps", "no-secrecy-share", "ini-syntax", "budget-key", "boolean", "sweep-bounds"],
)
def test_bad_input_exits_one_naming_the_cause(capsys, tmp_path, argv, config, causes):
    if config is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config)
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
    cfg.write_text("[budget]\nfamily = dv\n\n[sweep]\neps_levels = 1e-30, 1e-17\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert err.count("\n") == 1 and "1e-30" in err and "1e-21" in err


def test_levels_from_the_floor_up_are_allowed(capsys, tmp_path):
    cfg = tmp_path / "dv.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI)
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
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI)
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
    cfg.write_text("[budget]\nfamily = dv\n\n[cga]\nrng_seed = -3\n")
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
    cfg.write_text("[budget]\nfamily = dv\n\n" + SMALL_CGA_INI)
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
    ],
)
def test_config_that_cannot_run_exits_one(capsys, tmp_path, family, section, cause):
    # once, not as an error column in every level's record
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[budget]\nfamily = {family}\n\n{section}\n")
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(cfg), "--seed", "11", "--eps", "1e-10,1e-9"
    )
    assert code == 1
    assert out == ""
    assert cause in err and err.count("\n") == 1


def test_removed_cga_tuning_keys_are_unknown(capsys, tmp_path):
    # the CGA's tuning is fixed: an old config that sets it is refused, not
    # silently run with other values
    keys = ("mutation_rate", "parent_rate", "survival_rate", "mutation_sigma")
    cfg = tmp_path / "old.ini"
    cfg.write_text("[budget]\nfamily = dv\n\n[cga]\n" + "".join(f"{k} = 0.5\n" for k in keys))
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
        cfg.write_text("[budget]\nfamily = dv\n\n[sweep]\noutput_path =\n")
        argv = ("sweep", "--config", str(cfg), "--eps", "1e-17")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "output_path must not be empty" in err and err.count("\n") == 1
    assert calls == []


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
