import importlib.util
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bondtca import artifacts, cli
from bondtca.cli import main
from bondtca.errors import NumericalError
from conftest import tape_csv, trade_row


def run(args):
    return main([str(a) for a in args])


def read_err(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def generate(workdir, **kw):
    args = ["generate", "--seed", 3, "--events", 4000, "--bonds", 2]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run(args) == 0


class TestPipeline:
    def test_full_chain_smoke(self, workdir):
        generate(workdir, rpt_fraction=0.05, cancel_rate=0.01)
        assert run(["ingest", "--tape", "tape.csv"]) == 0
        assert run(["classify", "--clean", "clean.csv"]) == 0
        assert run(["spread", "--signed", "signed.csv"]) == 0
        assert (
            run(
                [
                    "features", "--signed", "signed.csv", "--weekly", "weekly.csv",
                    "--reference", "reference.csv", "--context", "context.csv",
                ]
            )
            == 0
        )
        assert run(["fit", "--features", "features.csv", "--model", "lasso", "--k-folds", 3]) == 0
        assert run(["impact", "--signed", "signed.csv", "--min-events", 500]) == 0
        assert run(["report", "--signed", "signed.csv"]) == 0
        for name in (
            "tape.csv", "manifest.json", "clean.csv", "filter_report.json",
            "signed.csv", "spreads.csv", "weekly.csv", "features.csv",
            "fit.json", "cv.json", "kernels.json", "signature.csv", "report.json",
        ):
            assert Path(name).exists(), name

    def test_filter_report_keys(self, workdir):
        generate(workdir)
        run(["ingest", "--tape", "tape.csv"])
        data = artifacts.read_json("filter_report.json")
        steps = data["steps"]
        assert [s["step"] for s in steps] == [1, 2, 3, 4, 5, 6, 7]
        for s in steps:
            assert {"step", "removed", "removed_pct", "remaining"} <= set(s)

    def test_reversed_ranges_exit_2(self, workdir, capsys):
        generate(workdir)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        run(["spread", "--signed", "signed.csv"])
        run(
            [
                "features", "--signed", "signed.csv", "--weekly", "weekly.csv",
                "--reference", "reference.csv", "--context", "context.csv",
            ]
        )
        code = run(
            [
                "fit", "--features", "features.csv", "--model", "lslasso",
                "--train-range", "2015-W10:2015-W20", "--test-range", "2015-W01:2015-W05",
            ]
        )
        assert code == 2
        assert read_err(capsys)["error"] == "ConfigError"

    def test_missing_file_exit_2(self, workdir, capsys):
        assert run(["ingest", "--tape", "nope.csv"]) == 2
        assert read_err(capsys)["error"] == "ConfigError"

    def test_top_k_selects_most_traded(self, workdir):
        args = ["generate", "--seed", 4, "--events", 2500, "--bonds", 3]
        assert run(args) == 0
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        assert (
            run(["impact", "--signed", "signed.csv", "--top-k", 2, "--min-events", 100]) == 0
        )
        kernels = artifacts.read_json("kernels.json")
        assert len(kernels["bonds"]) == 2

    def test_determinism_byte_identical(self, workdir):
        generate(workdir, rpt_fraction=0.02)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        run(["spread", "--signed", "signed.csv"])
        first = {p: Path(p).read_bytes() for p in ("clean.csv", "signed.csv", "spreads.csv", "weekly.csv")}
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        run(["spread", "--signed", "signed.csv"])
        for p, content in first.items():
            assert Path(p).read_bytes() == content

    def test_config_file_and_flag_precedence(self, workdir):
        cfg = {"generate": {"events": 1000, "bonds": 1, "seed": 9}}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run(["generate", "--config", "cfg.json", "--events", 1200]) == 0
        manifest = artifacts.read_json("manifest.json")
        assert manifest["config"]["n_events"] == 1200  # flag wins
        assert manifest["config"]["seed"] == 9  # file beats default
        assert json.loads(Path("manifest.json").read_text())["meta"]["seed"] == 9

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("generate", "ingest", "classify", "spread", "features", "fit", "impact", "report"):
            assert sub in out

    def test_unknown_flag_fails_fast(self, workdir, capsys):
        assert main(["generate", "--bogus-flag", "1"]) == 2
        assert read_err(capsys)["error"] == "ConfigError"

    def test_impact_with_spread_mids(self, workdir):
        generate(workdir)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        run(["spread", "--signed", "signed.csv"])
        assert (
            run(
                [
                    "impact", "--signed", "signed.csv", "--spreads", "spreads.csv",
                    "--min-events", 500,
                ]
            )
            == 0
        )
        kernels = artifacts.read_json("kernels.json")
        assert all(b["mid_source"] == "spread_mids" for b in kernels["bonds"].values())

    def test_numerical_failure_exit_4(self, workdir, capsys):
        # all-buy order flow makes the response correlation matrix singular
        generate(workdir, p_buy=1.0)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        code = run(["impact", "--signed", "signed.csv", "--min-events", 100])
        assert code == 4
        assert read_err(capsys)["error"] == "NumericalError"

    def test_cap_volumes_flag(self, workdir):
        generate(workdir)
        assert (
            run(["ingest", "--tape", "tape.csv", "--cap-volumes", "--reference", "reference.csv"])
            == 0
        )
        trades = artifacts.read_clean_trades("clean.csv")
        grades = {r.cusip: r.grade for r in artifacts.read_bond_references("reference.csv").values()}
        caps = {"HY":  1_000_000.0, "IG": 5_000_000.0}
        assert all(t.volume <= caps[grades[t.cusip]] for t in trades)
        flagged = Path("clean.csv").read_bytes()
        cfg = {"ingest": {"cap_volumes": True, "reference": "reference.csv"}}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run(["ingest", "--tape", "tape.csv", "--config", "cfg.json"]) == 0
        assert Path("clean.csv").read_bytes() == flagged


# (subcommand and flags, config file or None): each is refused before any input is read
BAD_SETTINGS = [
    (["spread", "--signed", "signed.csv"], {"spread": {"mid_convention": "bogus"}}),
    (["impact", "--signed", "signed.csv"], {"impact": {"model": "bogus"}}),
    (["impact", "--signed", "signed.csv"], {"impact": {"n_lags": "ten"}}),
    (["spread", "--signed", "signed.csv"], {"spread": {"delta_t": "abc"}}),
    (["spread", "--signed", "signed.csv"], {"spread": {"delta_tt": 5}}),
    (["spread", "--signed", "signed.csv"], {"sprd": {"delta_t": 5}}),
    (["spread", "--signed", "signed.csv"], {"delta_tt": 5}),
    (["ingest", "--tape", "tape.csv"], {"ingest": {"cap_volumes": "yes"}}),
    (["fit", "--features", "features.csv", "--model", "en", "--alpha", "abc"], None),
    (["impact", "--signed", "signed.csv", "--n-lags", 0], None),
    (["impact", "--signed", "signed.csv", "--n-lags", -3], None),
    (["impact", "--signed", "signed.csv", "--top-k", -1], None),
    (["impact", "--signed", "signed.csv", "--l-max", -2], None),
    (["spread", "--signed", "signed.csv", "--delta-t", "nan"], None),
    (["impact", "--signed", "signed.csv", "--alpha", "nan"], None),
    (["impact", "--signed", "signed.csv", "--alpha", -1], None),
    (["generate", "--events", 300, "--kernel-g0", "nan"], None),
    (["generate", "--events", 300, "--noise-sd-bp", "inf"], None),
    (["generate", "--events", 300], {"generate": {"kernel_sell_beta": "-inf"}}),
    (["fit", "--features", "features.csv", "--lambda-grid=-1:10:5"], None),
    (["fit", "--features", "features.csv", "--lambda-grid", "nan:1:3"], None),
    (["fit", "--features", "features.csv", "--lambda-grid", "1:0.1:3"], None),
    (["fit", "--features", "features.csv", "--lambda-grid", "0.1:1:0"], None),
    (["fit", "--features", "features.csv", "--model", "en", "--alpha", "0.5,1.5"], None),
    (["fit", "--features", "features.csv", "--model", "en", "--alpha", "nan"], None),
    (["fit", "--features", "features.csv", "--k-folds", 0], None),
    (["fit", "--features", "features.csv", "--k-folds", 1], None),
    (["fit", "--features", "features.csv", "--k-folds", -2], None),
    (["generate", "--events", 300, "--seed", -1], None),
    (["fit", "--features", "features.csv"], {"fit": {"seed": -1}}),
    (["fit", "--features", "features.csv", "--train-range", "2015-W99:2016-W01"], None),
    (["generate", "--events", 300, "--kernel-beta", -1], None),
    (["fit", "--features", "features.csv"], {"fit": {"model": "ridge"}}),
    (["fit", "--features", "features.csv", "--lambda-grid", "0.1:1:1001"], None),
    (["fit", "--features", "features.csv", "--lambda-grid", "0.1:1:100000000000"], None),
    (["impact", "--signed", "signed.csv", "--l-max", cli.MAX_L_MAX + 1], None),
]


@pytest.mark.parametrize("argv, file_cfg", BAD_SETTINGS)
def test_bad_setting_exit_2(workdir, capsys, argv, file_cfg):
    # the inputs exist but are empty, so a run that got past the settings
    # would end in a DataError (exit 3) instead
    for name in ("tape.csv", "signed.csv", "features.csv"):
        Path(name).write_text("")
    if file_cfg is not None:
        Path("cfg.json").write_text(json.dumps(file_cfg))
        argv = [*argv, "--config", "cfg.json"]
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ConfigError"


SIGNED_ROW = "A,0,2015-01-05 10:00:00,100.0,250000.0,dealer_dealer,0,0"
CLEAN_ROW = "A,0,2015-01-05 10:00:00,100.0,250000.0,dealer_dealer"
SPREAD_ROW = "A,1,2015-01-05 10:01:00,0.5,100.0,50.0"


def feature_line(**fields):
    base = {"cusip": "A", "iso_week": "2015-W02", "ind_ig": "1.0", "sector_s1": "1.0", **fields}
    return ",".join(base.get(name, "0.0") for name in artifacts.FEATURES.header)


FEATURE_ROW = feature_line()
GOOD_LINES = {
    "signed.csv": (artifacts.SIGNED, SIGNED_ROW),
    "clean.csv": (artifacts.CLEAN, CLEAN_ROW),
    "spreads.csv": (artifacts.SPREADS, SPREAD_ROW),
    "features.csv": (artifacts.FEATURES, FEATURE_ROW),
}
# (artifact, a bad third line after one good row, the stage that reads it, the
# column named in the error or None)
MALFORMED_ARTIFACTS = {
    "short_signed_row": (
        "signed.csv", "A,1,2015-01-05 10:01:00,100.0", ["report", "--signed", "signed.csv"], None,
    ),
    "non_numeric_price": (
        "signed.csv", SIGNED_ROW.replace("100.0", "abc"), ["report", "--signed", "signed.csv"],
        "price",
    ),
    "bad_timestamp": (
        "signed.csv", SIGNED_ROW.replace("2015-01-05", "2015-13-45"),
        ["spread", "--signed", "signed.csv"], "timestamp",
    ),
    "short_clean_row": (
        "clean.csv", CLEAN_ROW.rsplit(",", 1)[0], ["classify", "--clean", "clean.csv"], None,
    ),
    "short_features_row": (
        "features.csv", "A,2015-W02,1.0", ["fit", "--features", "features.csv"], None,
    ),
    "nan_price": (
        "signed.csv", SIGNED_ROW.replace("100.0", "nan"), ["report", "--signed", "signed.csv"],
        "price",
    ),
    "inf_feature": (
        "features.csv", feature_line(volatility="inf"), ["fit", "--features", "features.csv"],
        "volatility",
    ),
    "overflowing_mid": (
        "spreads.csv", SPREAD_ROW.replace("100.0", "1e999"),
        ["impact", "--signed", "signed.csv", "--spreads", "spreads.csv", "--min-events", 0], "mid",
    ),
    "non_positive_mid": (
        "spreads.csv", SPREAD_ROW.replace("100.0", "-100.0"),
        ["impact", "--signed", "signed.csv", "--spreads", "spreads.csv", "--min-events", 0], "mid",
    ),
    "unknown_leg": (
        "clean.csv", CLEAN_ROW.replace("dealer_dealer", "bogus_leg"),
        ["classify", "--clean", "clean.csv"], "leg",
    ),
    "epsilon_out_of_range": (
        "signed.csv", SIGNED_ROW.replace("dealer_dealer,0,0", "dealer_dealer,7,0"),
        ["spread", "--signed", "signed.csv"], "epsilon",
    ),
    "is_rpt_out_of_range": (
        "signed.csv", SIGNED_ROW.replace("dealer_dealer,0,0", "dealer_dealer,0,3"),
        ["report", "--signed", "signed.csv"], "is_rpt",
    ),
    "utc_offset_timestamp": (
        "signed.csv", SIGNED_ROW.replace("10:00:00", "10:01:00+01:00"),
        ["spread", "--signed", "signed.csv"], "timestamp",
    ),
    "no_sector_indicator": (
        "features.csv", feature_line(sector_s1="0.0"), ["fit", "--features", "features.csv"], None,
    ),
    "zero_price": (
        "signed.csv", SIGNED_ROW.replace("100.0", "0.0"), ["report", "--signed", "signed.csv"],
        "price",
    ),
    "non_positive_volume": (
        "signed.csv", SIGNED_ROW.replace("250000.0", "-250000.0"),
        ["report", "--signed", "signed.csv"], "volume",
    ),
    "week_that_does_not_exist": (
        "features.csv", feature_line(iso_week="2015-W99"), ["fit", "--features", "features.csv"],
        "iso_week",
    ),
    # a timestamp is exactly YYYY-MM-DD HH:MM:SS on every Python
    "t_separated_timestamp": (
        "signed.csv", SIGNED_ROW.replace("2015-01-05 10:00:00", "2015-01-05T10:00"),
        ["spread", "--signed", "signed.csv"], "timestamp",
    ),
    "x_separated_timestamp": (
        "signed.csv", SIGNED_ROW.replace("2015-01-05 10:00:00", "2015-01-05X10:00:00"),
        ["report", "--signed", "signed.csv"], "timestamp",
    ),
    "fractional_timestamp": (
        "signed.csv", SIGNED_ROW.replace("10:00:00", "10:00:00.5"),
        ["report", "--signed", "signed.csv"], "timestamp",
    ),
    "year_zero_timestamp": (
        "signed.csv", SIGNED_ROW.replace("2015-01-05", "0000-01-01"),
        ["report", "--signed", "signed.csv"], "timestamp",
    ),
    "week_date_timestamp": (
        "clean.csv", CLEAN_ROW.replace("2015-01-05", "2015-W02-1"),
        ["classify", "--clean", "clean.csv"], "timestamp",
    ),
    "basic_date_timestamp": (
        "clean.csv", CLEAN_ROW.replace("2015-01-05", "20150105"),
        ["classify", "--clean", "clean.csv"], "timestamp",
    ),
    "k_beyond_int64": (
        "clean.csv", CLEAN_ROW.replace("A,0,", "A,9223372036854775808,"),
        ["classify", "--clean", "clean.csv"], "k",
    ),
}


@pytest.mark.parametrize(
    "name, bad_line, argv, column", MALFORMED_ARTIFACTS.values(), ids=MALFORMED_ARTIFACTS
)
def test_malformed_artifact_row_exit_3(workdir, capsys, name, bad_line, argv, column):
    # impact reads a good signed.csv before the spreads under test
    for path in {"signed.csv", name}:
        artifact, good_line = GOOD_LINES[path]
        lines = [",".join(artifact.header), good_line] + ([bad_line] if path == name else [])
        Path(path).write_text("\n".join(lines) + "\n")
    assert run(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ParseError"
    assert name in error["message"] and "row 3" in error["message"]
    if column is not None:
        assert f"column {column!r}" in error["message"]


# (a file whose third line holds a byte that is not UTF-8, its bytes, the
# stage that reads it, the exit code)
UNDECODABLE = {
    "tape": (
        "tape.csv", tape_csv([trade_row("A")]) + b"\xff" + trade_row("B").encode() + b"\n",
        ["ingest", "--tape", "tape.csv"], 3,
    ),
    "signed": (
        "signed.csv", f"{','.join(artifacts.SIGNED.header)}\n{SIGNED_ROW}\n\xff{SIGNED_ROW}\n",
        ["report", "--signed", "signed.csv"], 3,
    ),
    "config": (
        "cfg.json", '{"report":\n {"out_report":\n "\xff.json"}}',
        ["report", "--signed", "signed.csv", "--config", "cfg.json"], 2,
    ),
    "calendar": (
        "holidays.txt", "2015-01-01\n2015-01-02\n\xff2015-01-05\n",
        ["generate", "--events", 300, "--calendar", "holidays.txt"], 2,
    ),
}


@pytest.mark.parametrize("line", ["2015-W02-1", "20150106"])
def test_holiday_not_in_the_fixed_form_exit_2(workdir, capsys, line):
    Path("holidays.txt").write_text(f"2015-01-01\n{line}\n")
    assert run(["generate", "--events", 300, "--calendar", "holidays.txt"]) == 2
    error = read_err(capsys)
    assert error["error"] == "ConfigError"
    assert f"{line!r} at holidays.txt:2" in error["message"]


def test_calendar_with_a_byte_order_mark_reads_the_same_holidays(workdir):
    generate(workdir)
    clean = {}
    for bom in ("", "\ufeff"):
        Path("holidays.txt").write_text(f"{bom}2015-01-06\n2015-01-07\n", encoding="utf-8")
        assert run(["ingest", "--tape", "tape.csv", "--calendar", "holidays.txt"]) == 0
        clean[bom] = Path("clean.csv").read_bytes()
    assert clean[""] == clean["\ufeff"]
    assert run(["ingest", "--tape", "tape.csv"]) == 0
    assert Path("clean.csv").read_bytes() != clean[""]  # the holidays took trades out


def test_spread_logs_one_line_for_all_degenerate_mids(workdir, capsys, caplog):
    # per bond: sell at 1, buy at 10, sell at 1, buy at 10; under the paper
    # convention the first and last pairs reconstruct a mid below zero
    rows = [
        f"{cusip},{k},2015-01-05 10:0{k}:00,{price},250000.0,{leg},{eps},0"
        for cusip in ("A", "B")
        for k, (price, leg, eps) in enumerate(
            [("1.0", "customer_sell", -1), ("10.0", "customer_buy", 1)] * 2
        )
    ]
    Path("signed.csv").write_text("\n".join([",".join(artifacts.SIGNED.header), *rows, ""]))
    with caplog.at_level(logging.WARNING, logger="bondtca.microstructure"):
        assert run(["spread", "--signed", "signed.csv"]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "4 degenerate mids in 2 bonds; observations dropped"
    ]
    out = capsys.readouterr().out
    assert out == "2 spread observations -> 2 bond-weeks (50.0% of trades used)\n"


@pytest.mark.parametrize("name, data, argv, code", UNDECODABLE.values(), ids=UNDECODABLE)
def test_undecodable_input_ends_in_a_documented_exit(workdir, capsys, name, data, argv, code):
    Path(name).write_bytes(data if isinstance(data, bytes) else data.encode("latin-1"))
    assert run(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == ("ParseError" if code == 3 else "ConfigError")
    assert name in error["message"] and "UTF-8" in error["message"]
    if code == 3:
        assert "row 3" in error["message"]


@pytest.mark.parametrize(
    "column, text",
    [
        ("exec_date", "20150105"),
        ("exec_date", "2015-W02-1"),
        ("exec_date", "2015-1-5"),
        ("exec_time", "1:2:3"),
        ("exec_time", "+10:00:00"),
        ("exec_time", " 10:00:00"),
        ("exec_time", "10:0_0:00"),
        ("exec_time", "١٠:٠٠:٠٠"),
    ],
)
def test_tape_date_and_time_are_fixed_width(workdir, capsys, column, text):
    field = {"exec_date": "date", "exec_time": "time"}[column]
    Path("tape.csv").write_bytes(tape_csv([trade_row("A"), trade_row("B", **{field: text})]))
    assert run(["ingest", "--tape", "tape.csv"]) == 3
    error = read_err(capsys)
    assert error["error"] == "ParseError"
    assert "row 3" in error["message"] and f"column {column!r}" in error["message"]


def test_cusip_beginning_with_hash_is_a_row(workdir, capsys):
    # only the lines before an artifact's header are comment lines
    rows = [
        trade_row(f"R{i}", cusip=("PLAIN", "#HASH")[i % 2], time=f"10:0{i}:00", volume=50_000.0 + i)
        for i in range(6)
    ]
    Path("tape.csv").write_bytes(tape_csv(rows))
    assert run(["ingest", "--tape", "tape.csv"]) == 0
    assert run(["classify", "--clean", "clean.csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ingested 6 reports -> 6 clean trades", "classified 6 trades, 0 RPT legs",
    ]


@pytest.mark.parametrize(
    "flag, path", [("--out-tape", "no_such_dir/tape.csv"), ("--out-manifest", ".")]
)
def test_unwritable_output_exit_2(workdir, capsys, flag, path):
    assert run(["generate", "--events", 300, flag, path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ConfigError"
    assert path in error["message"]
    # the paths are checked before anything is written: no tape.csv is left behind
    assert list(workdir.iterdir()) == []


def test_out_of_memory_exit_5(workdir, capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "cmd_fit", exhaust)
    assert run(["fit", "--features", "features.csv"]) == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ResourceError"
    assert error["message"] == "out of memory: Unable to allocate 745. GiB for an array"


def test_failed_linear_algebra_exit_4(workdir, capsys, monkeypatch):
    def diverge(args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "cmd_impact", diverge)
    assert run(["impact", "--signed", "signed.csv"]) == 4
    error = read_err(capsys)
    assert error["error"] == "NumericalError"
    assert error["message"] == "linear algebra failed: SVD did not converge"


@pytest.mark.parametrize(
    "flags", [["--alpha", 30], ["--alpha", 30, "--model", "tim2"], ["--alpha", "1e308"]]
)
def test_alpha_out_of_the_float_range_exit_4(workdir, capsys, flags):
    # V^(2 alpha) overflows: once nan in every d_model, or a LinAlgError traceback
    assert run(["generate", "--seed", 5, "--events", 3000, "--bonds", 3,
                "--rpt-fraction", 0.3]) == 0
    assert run(["ingest", "--tape", "tape.csv"]) == 0
    assert run(["classify", "--clean", "clean.csv"]) == 0
    capsys.readouterr()
    assert run(["impact", "--signed", "signed.csv", *flags]) == 4
    error = read_err(capsys)
    assert error["error"] == "NumericalError"
    assert f"alpha={float(flags[1])!r}" in error["message"]
    assert not Path("signature.csv").exists() and not Path("kernels.json").exists()


def test_no_csv_writer_writes_a_non_finite_number(workdir):
    with pytest.raises(NumericalError, match="signature.csv: non-finite number nan"):
        artifacts.write_signature("signature.csv", [1, 2], [0.5, 1.0], [0.25, np.nan])
    assert not Path("signature.csv").exists()
    Path("signed.csv").write_text(f"# meta\n{','.join(artifacts.SIGNED.header)}\n{SIGNED_ROW}\n")
    table = artifacts.read_signed_trades("signed.csv")
    table.price[0] = np.inf  # a table whose price went non-finite
    with pytest.raises(NumericalError, match="copy.csv: non-finite price or volume"):
        artifacts.write_signed_trades("copy.csv", table)
    assert not Path("copy.csv").exists()


NO_SCIPY_CHAIN = (
    ["generate", "--seed", "7", "--events", "2500", "--bonds", "6", "--rpt-fraction", "0.1"],
    ["ingest", "--tape", "tape.csv", "--cap-volumes", "--reference", "reference.csv"],
    ["classify", "--clean", "clean.csv"],
    ["spread", "--signed", "signed.csv"],
    ["features", "--signed", "signed.csv", "--weekly", "weekly.csv",
     "--reference", "reference.csv", "--context", "context.csv"],
    ["fit", "--features", "features.csv", "--model", "lslasso", "--k-folds", "3"],  # OLS refits
    ["impact", "--signed", "signed.csv", "--min-events", "100", "--model", "both"],
    ["report", "--signed", "signed.csv", "--out-one-sided", "one_sided.csv"],
)


def test_cli_import_loads_no_scipy(tmp_path):
    # each stage in a fresh interpreter, as a user runs it; scipy is only
    # the tests' oracle
    import bondtca

    src = str(Path(bondtca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\nfrom bondtca.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    for argv in NO_SCIPY_CHAIN:
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "0 []", argv


def test_package_source_imports_no_scipy():
    import bondtca

    for path in Path(bondtca.__file__).parent.glob("*.py"):
        for line in path.read_text().splitlines():
            words = line.split()
            assert not (words[:1] in (["import"], ["from"]) and words[1].startswith("scipy")), (
                f"{path.name}: {line.strip()}"
            )


def test_benchmark_tracer_layer_names_are_bound():
    # perfbench/traced_stage.py wraps these by name; install() is not called
    # here because it patches the modules for the whole process
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
    spec = importlib.util.spec_from_file_location("traced_stage", path)
    traced_stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_stage)
    from bondtca import cli, classify, impact

    assert [name for name in traced_stage.CLI_SPANS if not hasattr(cli, name)] == []
    assert hasattr(classify, "group_by_cusip")
    assert hasattr(artifacts, "read_signed_trades")
    assert hasattr(impact.SignSeries, "from_signed_trades")


def test_config_hash_covers_effective_settings(workdir):
    assert run(["generate", "--seed", 3, "--events", 1500]) == 0
    run(["ingest", "--tape", "tape.csv"])
    run(["classify", "--clean", "clean.csv"])
    Path("moved.csv").write_bytes(Path("signed.csv").read_bytes())
    # a flat key for another subcommand is skipped; the section beats a flat key
    Path("d60.json").write_text(json.dumps({"seed": 4, "delta_t": 600, "spread": {"delta_t": 60}}))
    Path("d600.json").write_text(json.dumps({"delta_t": 600}))
    variants = {
        "file_60": ["--signed", "signed.csv", "--config", "d60.json"],
        "flag_60": ["--signed", "signed.csv", "--delta-t", 60],
        "moved_60": ["--signed", "moved.csv", "--delta-t", 60, "--out-observations", "o.csv"],
        "file_600": ["--signed", "signed.csv", "--config", "d600.json"],
        "default": ["--signed", "signed.csv"],
        "flag_300": ["--signed", "signed.csv", "--delta-t", 300, "--mid-convention", "paper"],
    }
    weekly = {}
    for name, argv in variants.items():
        assert run(["spread", *argv, "--out-weekly", f"{name}.csv"]) == 0
        weekly[name] = Path(f"{name}.csv").read_text().split("\n", 1)
    hashes = {name: json.loads(lines[0][2:])["config_hash"] for name, lines in weekly.items()}
    assert hashes["file_60"] == hashes["flag_60"] == hashes["moved_60"]
    assert weekly["file_60"][1] == weekly["flag_60"][1] == weekly["moved_60"][1]
    assert hashes["default"] == hashes["flag_300"]
    assert weekly["default"][1] == weekly["flag_300"][1]
    assert len({hashes["file_60"], hashes["file_600"], hashes["default"]}) == 3
    assert weekly["file_60"][1] != weekly["file_600"][1]


class TestArtifactRoundTrips:
    def test_signed_roundtrip(self, workdir):
        generate(workdir)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        signed = artifacts.read_signed_trades("signed.csv")
        artifacts.write_signed_trades("copy.csv", signed)
        assert artifacts.read_signed_trades("copy.csv") == signed

    def test_feature_roundtrip(self, workdir):
        generate(workdir)
        run(["ingest", "--tape", "tape.csv"])
        run(["classify", "--clean", "clean.csv"])
        run(["spread", "--signed", "signed.csv"])
        run(
            [
                "features", "--signed", "signed.csv", "--weekly", "weekly.csv",
                "--reference", "reference.csv", "--context", "context.csv",
            ]
        )
        rows = artifacts.read_feature_rows("features.csv")
        artifacts.write_feature_rows("copy.csv", rows)
        assert artifacts.read_feature_rows("copy.csv") == rows
