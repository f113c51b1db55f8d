import codecs
import collections
import dataclasses
import datetime as dt
import logging
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bondtca import artifacts, ingest
from bondtca.artifacts import TAPE
from bondtca.calendars import BusinessCalendar
from bondtca.cli import main
from bondtca.errors import DataError, ParseError
from bondtca.ingest import (
    Tape,
    TradeTable,
    cap_volumes,
    filter_trades,
    ingest_reports,
    settle_lifecycle,
)
from bondtca.synthgen import SynthConfig, generate_trace_fixture

import row_ingest
from conftest import make_report, make_trade, reports_of, tape_csv, trade_row


def reconcile_lifecycle(reports):
    """settle_lifecycle on the reports' columns, in the row oracle's terms:
    the settled reports, each correction as a trade in its trade's place."""
    rows, stats = settle_lifecycle(Tape.from_reports(reports))
    settled = [dataclasses.replace(reports[row], kind="trade", references=None) for row in rows]
    return settled, stats


def filter_pipeline(trades, calendar):
    """filter_trades on the columns of settled trades, without step 1."""
    tape = Tape.from_reports(trades)
    return filter_trades(tape, np.arange(len(tape)), calendar)


class TestParse:
    def test_single_trade_row(self, parse_tape):
        reports = reports_of(parse_tape(tape_csv([trade_row("A")])))
        assert len(reports) == 1
        r = reports[0]
        assert r.kind == "trade"
        assert r.price == 100.0
        assert (r.exec_date, r.exec_time) == (dt.date(2015, 1, 5), dt.time(10, 0, 0))
        assert r.leg == "customer_buy"

    def test_malformed_price_names_row_and_column(self, parse_tape):
        bad = trade_row("A").replace("100.0", "abc")
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([bad]))
        assert exc.value.row == 2
        assert exc.value.column == "price"

    @pytest.mark.parametrize(
        "field, text, kind",
        [
            ("price", "inf", "trade"),
            ("price", "nan", "trade"),
            ("price", "nan", "cancel"),
            ("volume", "-inf", "cancel"),
            ("volume", "nan", "trade"),
            ("volume", "-5000.0", "trade"),
            ("volume", "0.0", "trade"),
            ("volume", "-50000.0", "correction"),
            ("price", "0.0", "correction"),
        ],
    )
    def test_bad_price_or_volume_names_row_and_column(self, field, text, kind, parse_tape):
        bad = trade_row("B", kind=kind, references="" if kind == "trade" else "A")
        bad = bad.replace("100.0" if field == "price" else "50000.0", text)
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("A"), bad]))
        assert exc.value.row == 3
        assert exc.value.column == field

    def test_unknown_report_kind(self, parse_tape):
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("A", kind="bogus", references="A")]))
        assert exc.value.column == "report_kind"

    def test_ten_rows_with_two_cancels(self, parse_tape):
        rows = [trade_row(f"T{i}", time=f"10:{i:02d}:00") for i in range(8)]
        rows += [
            trade_row("C1", kind="cancel", references="T1"),
            trade_row("C2", kind="cancel", references="T5"),
        ]
        reports = reports_of(parse_tape(tape_csv(rows)))
        assert len(reports) == 10
        assert sum(1 for r in reports if r.kind == "cancel") == 2

    def test_missing_reference_on_cancel(self, parse_tape):
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("C", kind="cancel")]))
        assert exc.value.column == "references_record"

    def test_dealer_trade_has_no_side(self, parse_tape):
        reports = reports_of(parse_tape(tape_csv([trade_row("A", contra="dealer")])))
        assert reports[0].leg == "dealer_dealer"
        assert reports[0].customer_side is None

    def test_comment_lines_skipped(self, parse_tape):
        # only the lines before the header are metadata: a record id may begin with '#'
        data = b"# meta line\n" + tape_csv([trade_row("A"), trade_row("#B")])
        assert [r.record_id for r in reports_of(parse_tape(data))] == ["A", "#B"]

    def test_header_columns_in_any_order_and_extra_columns_ignored(self, parse_tape):
        rows = [trade_row("A"), trade_row("B", kind="cancel", references="A", contra="dealer")]
        expected = reports_of(parse_tape(tape_csv(rows)))
        order = [5, 0, 12, 3, 1, 7, 2, 10, 4, 9, 6, 11, 8]  # a shuffle of the 13 columns
        shuffled = [",".join(row.split(",")[i] for i in order) for row in rows]
        shuffled = parse_tape(tape_csv(shuffled, [TAPE.header[i] for i in order]))
        assert reports_of(shuffled) == expected
        extra = [row + ",ignored" for row in rows]
        assert reports_of(parse_tape(tape_csv(extra, TAPE.header + ["venue"]))) == expected

    def test_missing_column_names_it(self, parse_tape):
        header = [name for name in TAPE.header if name != "sub_product"]
        rows = [trade_row("A").rsplit(",", 1)[0]]
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv(rows, header))
        assert exc.value.row == 1
        assert exc.value.column == "sub_product"

    def test_choice_fields_are_the_module_constants(self, parse_tape):
        rows = [trade_row("A"), trade_row("B", kind="correction", references="A", contra="dealer")]
        kinds, contras = (ingest.TRADE, ingest.CORRECTION), (ingest.CUSTOMER, ingest.DEALER)
        for report, kind, contra in zip(reports_of(parse_tape(tape_csv(rows))), kinds, contras):
            assert report.kind is kind
            assert report.capacity is ingest.PRINCIPAL
            assert report.contra_party is contra
            assert report.sub_product is ingest.CORPORATE_BOND

    @pytest.mark.parametrize("text", ["10:00", "10:00:00+01:00", "10:00:00.5", "25:00:00"])
    def test_exec_time_must_be_hh_mm_ss(self, parse_tape, text):
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("A", time=text)]))
        assert exc.value.exit_code == 3
        assert exc.value.row == 2
        assert exc.value.column == "exec_time"

    @pytest.mark.parametrize(
        "row, column",
        [
            (trade_row("A", side=""), "customer_side"),
            (trade_row("A", contra="dealer").replace("r,,", "r,customer_sell,"), "customer_side"),
            (trade_row("A", references="Z"), "references_record"),
            (trade_row("A", capacity="broker"), "capacity"),
            (trade_row("A", sub_product="muni"), "sub_product"),
            (trade_row("A", date="2015-02-30"), "exec_date"),
        ],
    )
    def test_bad_field_names_row_and_column(self, parse_tape, row, column):
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("B"), row]))
        assert exc.value.row == 3
        assert exc.value.column == column


class TestReconcile:
    @pytest.mark.parametrize(
        "second",
        [
            trade_row("A", time="10:01:00"),
            trade_row("A", kind="cancel", references="A"),
            trade_row("C", kind="cancel", references="GHOST"),  # a dangling record's id
        ],
    )
    def test_repeated_record_id_names_row_and_column(self, second, parse_tape):
        first = [trade_row("A"), trade_row("C", kind="cancel", references="GHOST")]
        with pytest.raises(ParseError, match="repeated record_id") as exc:
            parse_tape(tape_csv(first + [second]))
        assert exc.value.row == 4
        assert exc.value.column == "record_id"

    def test_cancel_removes_trade(self):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="C", kind="cancel", references="A"),
        ]
        settled, stats = reconcile_lifecycle(reports)
        assert settled == []
        assert stats.cancels_applied == 1

    def test_latest_correction_wins(self):
        reports = [
            make_report(record_id="A", price=100.0),
            make_report(record_id="X1", kind="correction", references="A", price=101.0),
            make_report(record_id="X2", kind="correction", references="A", price=102.0),
        ]
        settled, stats = reconcile_lifecycle(reports)
        assert len(settled) == 1
        assert settled[0].price == 102.0
        assert settled[0].kind == "trade"
        assert stats.corrections_applied == 2

    def test_cancel_applies_to_corrected_trade(self):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="X", kind="correction", references="A", price=101.0),
            make_report(record_id="C", kind="cancel", references="A"),
        ]
        settled, _ = reconcile_lifecycle(reports)
        assert settled == []

    def test_cancel_via_correction_id(self):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="X", kind="correction", references="A", price=101.0),
            make_report(record_id="C", kind="cancel", references="X"),
        ]
        settled, _ = reconcile_lifecycle(reports)
        assert settled == []

    def test_dangling_reference_skipped(self):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="C", kind="cancel", references="GHOST"),
        ]
        settled, stats = reconcile_lifecycle(reports)
        assert len(settled) == 1
        assert stats.dangling_references == 1

    def test_reversal_is_cancel_equivalent(self):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="R", kind="reversal", references="A"),
        ]
        settled, stats = reconcile_lifecycle(reports)
        assert settled == []
        assert stats.reversals_applied == 1

    def test_no_cancelled_record_survives(self):
        reports = [make_report(record_id=f"T{i}", timestamp=dt.datetime(2015, 1, 5, 10, i)) for i in range(6)]
        cancels = [make_report(record_id=f"C{i}", kind="cancel", references=f"T{i}") for i in (1, 3)]
        settled, _ = reconcile_lifecycle(reports + cancels)
        surviving = {r.record_id for r in settled}
        assert surviving == {"T0", "T2", "T4", "T5"}


class TestFilter:
    def test_saturday_removed_at_step_3(self, calendar):
        saturday = make_report(timestamp=dt.datetime(2015, 1, 10, 10, 0, 0))
        clean, report = filter_pipeline([saturday], calendar)
        assert clean == []
        step3 = next(s for s in report.steps if s.step == 3)
        assert step3.removed == 1

    def test_price_boundary(self, calendar):
        low = make_report(record_id="L", price=9.99)
        edge = make_report(record_id="E", price=10.0)
        clean, report = filter_pipeline([low, edge], calendar)
        assert [t.price for t in clean] == [10.0]
        step6 = next(s for s in report.steps if s.step == 6)
        assert step6.removed == 1

    def test_agent_dealer_removed_at_step_2(self, calendar):
        keep = make_report(record_id="K", capacity="agent")  # agent but customer-facing
        drop = make_report(record_id="D", capacity="agent", contra_party="dealer")
        clean, report = filter_pipeline([keep, drop], calendar)
        assert len(clean) == 1
        assert next(s for s in report.steps if s.step == 2).removed == 1

    def test_session_hours_inclusive(self, calendar):
        early = make_report(record_id="E", timestamp=dt.datetime(2015, 1, 5, 7, 59, 59))
        open_ = make_report(record_id="O", timestamp=dt.datetime(2015, 1, 5, 8, 0, 0))
        close = make_report(record_id="C", timestamp=dt.datetime(2015, 1, 5, 17, 15, 0))
        late = make_report(record_id="L", timestamp=dt.datetime(2015, 1, 5, 17, 15, 1))
        clean, _ = filter_pipeline([early, open_, close, late], calendar)
        assert len(clean) == 2

    def test_irregular_condition_codes(self, calendar):
        drop = make_report(record_id="W", sale_conditions=frozenset({"W"}))
        keep = make_report(record_id="K", sale_conditions=frozenset({"T"}))
        clean, _ = filter_pipeline([drop, keep], calendar)
        assert len(clean) == 1

    def test_sub_product_filter(self, calendar):
        drop = make_report(record_id="M", sub_product="other")
        clean, report = filter_pipeline([drop], calendar)
        assert clean == []
        assert next(s for s in report.steps if s.step == 7).removed == 1

    def test_holiday_calendar_from_file(self, tmp_path):
        holiday_file = tmp_path / "cal.txt"
        holiday_file.write_text("# new year\n2015-01-05\n")
        cal = BusinessCalendar.from_file(holiday_file)
        clean, _ = filter_pipeline([make_report()], cal)
        assert clean == []

    def test_k_is_chronological_per_bond(self, calendar):
        r1 = make_report(record_id="B", timestamp=dt.datetime(2015, 1, 5, 11, 0))
        r2 = make_report(record_id="A", timestamp=dt.datetime(2015, 1, 5, 10, 0))
        r3 = make_report(record_id="C", cusip="OTHER", timestamp=dt.datetime(2015, 1, 5, 10, 30))
        clean, _ = filter_pipeline([r1, r2, r3], calendar)
        by_cusip = {(t.cusip, t.k): t.timestamp for t in clean}
        assert by_cusip[("TESTCUSIP", 0)] < by_cusip[("TESTCUSIP", 1)]
        assert ("OTHER", 0) in by_cusip

    def test_idempotent(self, calendar):
        reports = [
            make_report(record_id="A", timestamp=dt.datetime(2015, 1, 5, 10, 0)),
            make_report(record_id="B", price=5.0),
            make_report(record_id="C", timestamp=dt.datetime(2015, 1, 10, 10, 0)),
        ]
        clean1, _ = filter_pipeline(reports, calendar)
        # re-wrap clean trades as reports to re-run the pipeline
        again = [
            make_report(record_id=str(i), timestamp=t.timestamp, price=t.price, volume=t.volume)
            for i, t in enumerate(clean1)
        ]
        clean2, report2 = filter_pipeline(again, calendar)
        assert [(t.timestamp, t.price) for t in clean2] == [
            (t.timestamp, t.price) for t in clean1
        ]
        assert all(s.removed == 0 for s in report2.steps)

    def test_accounting_adds_up(self, calendar):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="B", price=5.0),
            make_report(record_id="C", timestamp=dt.datetime(2015, 1, 10, 10, 0)),
            make_report(record_id="X", kind="cancel", references="A"),
        ]
        clean, report = ingest_reports(Tape.from_reports(reports), calendar)
        total_removed = sum(s.removed for s in report.steps)
        assert total_removed + len(clean) == len(reports)
        # remaining chains: each step's remaining equals previous minus removed
        prev = report.steps[0].remaining
        for s in report.steps[1:]:
            assert s.remaining == prev - s.removed
            prev = s.remaining


class TestPlantedFixture:
    def test_filter_counts_match_manifest(self, calendar, parse_tape):
        cfg = SynthConfig(
            seed=5,
            n_events=100,
            cancel_rate=0.1,
            correction_rate=0.05,
            filter_violations={"2": 3, "3": 4, "4": 2, "5": 5, "6": 1, "7": 2},
        )
        tape, manifest = generate_trace_fixture(cfg, calendar)
        reports = parse_tape(tape)
        clean, report = ingest_reports(reports, calendar)
        by_step = {s.step: s for s in report.steps}
        for step, count in manifest.filter_violations.items():
            assert by_step[int(step)].removed == count
        lc = report.lifecycle
        assert lc.cancels_applied == manifest.lifecycle_counts.get("cancels", 0)
        assert lc.corrections_applied == manifest.lifecycle_counts.get("corrections", 0)
        # step-1 accounting: every lifecycle record plus every cancelled trade
        expected_step1 = (
            lc.cancels_applied * 2 + lc.reversals_applied * 2 + lc.corrections_applied
        )
        assert by_step[1].removed == expected_step1

    def test_zero_noise_reconcile_is_noop(self, calendar, parse_tape):
        cfg = SynthConfig(seed=6, n_events=50)
        tape, _ = generate_trace_fixture(cfg, calendar)
        reports = reports_of(parse_tape(tape))
        settled, stats = reconcile_lifecycle(reports)
        assert len(settled) == len(reports)
        assert stats.cancels_applied == stats.corrections_applied == 0


class TestCapVolumes:
    def test_hy_capped(self):
        t = make_trade(volume=2_500_000.0)
        out = cap_volumes(TradeTable.from_rows([t]), {"TESTCUSIP": "HY"})
        assert out[0].volume == 1_000_000.0

    def test_ig_below_cap_unchanged(self):
        t = make_trade(volume=400_000.0)
        out = cap_volumes(TradeTable.from_rows([t]), {"TESTCUSIP": "IG"})
        assert out[0].volume == 400_000.0

    def test_ig_at_cap_not_capped(self):
        t = make_trade(volume=5_000_000.0)
        out = cap_volumes(TradeTable.from_rows([t]), {"TESTCUSIP": "IG"})
        assert out[0].volume == 5_000_000.0

    def test_unknown_grade_errors(self):
        with pytest.raises(DataError, match="TESTCUSIP"):
            cap_volumes(TradeTable.from_rows([make_trade()]), {})

    @given(
        volumes=st.lists(st.floats(1.0, 2e7), min_size=1, max_size=30),
        grade=st.sampled_from(["IG", "HY"]),
    )
    def test_never_increases_and_only_volume_changes(self, volumes, grade):
        trades = TradeTable.from_rows(make_trade(k=i, volume=v) for i, v in enumerate(volumes))
        before = [dataclasses.replace(t) for t in trades]
        assert cap_volumes(trades, {"TESTCUSIP": grade}) is trades
        for old, new in zip(before, trades):
            assert new.volume <= old.volume
            assert dataclasses.replace(new, volume=old.volume) == old


class TestColumnPath:
    """The column reader and the column lifecycle and filter, against the row
    path they replace."""

    def test_bom_before_the_header_is_dropped(self, tmp_path, parse_tape):
        rows = [trade_row("A"), trade_row("B", kind="cancel", references="A")]
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"# meta\n" + tape_csv(rows))
        assert artifacts._read_tape(path) is not None  # the column reader takes it
        assert reports_of(parse_tape(path.read_bytes())) == reports_of(parse_tape(tape_csv(rows)))
        shuffled = TAPE.header[::-1]
        rows = [",".join(row.split(",")[::-1]) for row in rows]
        assert reports_of(parse_tape(codecs.BOM_UTF8 + tape_csv(rows, shuffled)))  # the row reader

    @pytest.mark.parametrize("cusip", ["AB\0C", "\0", "A\0"])
    def test_nul_in_a_cusip_names_it(self, parse_tape, cusip):
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv([trade_row("A"), trade_row("B", cusip=cusip)]))
        assert exc.value.exit_code == 3
        assert (exc.value.row, exc.value.column) == (3, "cusip")

    def test_repeated_record_id_comes_after_the_row_checks(self, parse_tape):
        rows = [trade_row("A"), trade_row("A", time="10:01:00"), trade_row("B", price="abc")]
        with pytest.raises(ParseError) as exc:
            parse_tape(tape_csv(rows))
        assert (exc.value.row, exc.value.column) == (4, "price")

    def test_one_warning_per_kind(self, caplog):
        reports = [
            make_report(record_id="A"),
            make_report(record_id="C", kind="cancel", references="A"),
            make_report(record_id="X", kind="correction", references="A"),
            make_report(record_id="Y", kind="correction", references="C"),
            make_report(record_id="G1", kind="cancel", references="GHOST"),
            make_report(record_id="G2", kind="reversal", references="LATER"),
            make_report(record_id="G3", kind="correction", references="G1"),
            make_report(record_id="LATER"),
        ]
        with caplog.at_level(logging.WARNING, logger="bondtca.ingest"):
            rows, stats = settle_lifecycle(Tape.from_reports(reports))
        assert [r.getMessage() for r in caplog.records] == [
            "3 lifecycle records reference no earlier record; skipped",
            "2 corrections target a cancelled chain; skipped",
        ]
        assert stats.dangling_references == 5
        assert rows.tolist() == [7]

    def test_correction_keeps_its_trades_place(self, calendar):
        reports = [
            make_report(record_id="A", timestamp=dt.datetime(2015, 1, 5, 10, 0)),
            make_report(record_id="B", timestamp=dt.datetime(2015, 1, 5, 10, 0), price=50.0),
            make_report(
                record_id="X", kind="correction", references="A", price=70.0,
                timestamp=dt.datetime(2015, 1, 5, 10, 0),
            ),
        ]
        clean, _ = ingest_reports(Tape.from_reports(reports), calendar)
        assert [t.price for t in clean] == [70.0, 50.0]  # a tie keeps the trades' file order


DAYS = ["2015-01-05", "2015-01-06", "2015-01-09", "2015-01-10", "2015-01-11"]  # Fri, Sat, Sun
TIMES = ["07:59:59", "08:00:00", "10:00:00", "10:00:00", "12:30:00", "17:15:00", "17:15:01"]
HOLIDAYS = BusinessCalendar(frozenset({dt.date(2015, 1, 6)}))


@st.composite
def lifecycle_tapes(draw):
    """Tape rows of up to 3 bonds: trades at tied times, on weekends, out of
    session and with irregular codes, and cancels, corrections and reversals
    of earlier, later, unknown and lifecycle records."""
    n = draw(st.integers(1, 24))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["trade"] * 3 + ["cancel", "correction", "reversal"]))
        target = draw(st.integers(0, n))  # n: no record has the id
        references = "" if kind == "trade" else f"R{target}" if target < n else "GHOST"
        rows.append(trade_row(
            f"R{i}", kind=kind, references=references,
            cusip=draw(st.sampled_from(["A", "B", "C#"])),
            date=draw(st.sampled_from(DAYS)), time=draw(st.sampled_from(TIMES)),
            price=draw(st.sampled_from([5.0, 9.99, 10.0, 100.0, 101.25])),
            volume=draw(st.sampled_from([1.0, 5e4, 2.5e6])),
            capacity=draw(st.sampled_from(["principal", "agent"])),
            contra=draw(st.sampled_from(["customer", "dealer"])),
            side=draw(st.sampled_from(["customer_buy", "customer_sell"])),
            condition=draw(st.sampled_from(["", "T", "W", "Z;T", "T S", "U"])),
            sub_product=draw(st.sampled_from(["corporate_bond", "corporate_bond", "other"])),
        ))
    return rows


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=lifecycle_tapes())
def test_column_ingest_matches_the_row_path(tmp_path, rows):
    path = tmp_path / "tape.csv"
    path.write_bytes(tape_csv(rows))
    tape = artifacts._read_tape(path)
    assert tape is not None  # the column reader took it
    reports = row_ingest.parse_rows(path)
    assert reports_of(tape) == [dataclasses.replace(r, row=0) for r in reports]
    want = row_ingest.ingest_rows(reports, HOLIDAYS)
    assert ingest_reports(tape, HOLIDAYS) == want
    assert ingest_reports(Tape.from_reports(reports), HOLIDAYS) == want  # the fallback's columns


def ingest_files(tmp_path, name, tape):
    """clean.csv and filter_report.json of the ingest stage on tape bytes."""
    (tmp_path / name).write_bytes(tape)
    outputs = [tmp_path / f"{name}.clean.csv", tmp_path / f"{name}.filter.json"]
    argv = ["ingest", "--tape", str(tmp_path / name), "--out-clean", str(outputs[0])]
    assert main([*argv, "--out-filter-report", str(outputs[1])]) == 0
    return [path.read_bytes() for path in outputs]


def test_interleaving_bonds_changes_no_byte(tmp_path, capsys):
    # wide-tape's generate settings: 180 bonds of 500 events
    config = SynthConfig(
        seed=6, n_events=500, n_bonds=180, rpt_fraction=0.02, cancel_rate=0.005,
        correction_rate=0.002,
    )
    tape, _ = generate_trace_fixture(config)
    header, *lines = tape.splitlines(keepends=True)
    bonds = collections.defaultdict(collections.deque)
    for line in lines:
        bonds[line.split(b",")[1]].append(line)
    order = [cusip for cusip, bond in bonds.items() for _ in bond]
    random.Random(6).shuffle(order)
    interleaved = header + b"".join(bonds[cusip].popleft() for cusip in order)
    assert interleaved != tape
    assert ingest_files(tmp_path, "interleaved.csv", interleaved) == ingest_files(
        tmp_path, "tape.csv", tape
    )


def test_crlf_tape_takes_the_row_path_to_the_same_result(tmp_path, capsys):
    config = SynthConfig(
        seed=5, n_events=300, n_bonds=3, rpt_fraction=0.2, cancel_rate=0.05,
        correction_rate=0.05, reversal_rate=0.02,
        filter_violations={"2": 1, "3": 1, "4": 1, "5": 1, "6": 1, "7": 1},
    )
    tape, _ = generate_trace_fixture(config)
    crlf = tape.replace(b"\n", b"\r\n")
    (tmp_path / "crlf.csv").write_bytes(crlf)
    assert artifacts._read_tape(tmp_path / "crlf.csv") is None
    assert ingest_files(tmp_path, "crlf.csv", crlf) == ingest_files(tmp_path, "lf.csv", tape)
