"""Output checks of one benchmark run, compared with the generator's manifest.

A check that fails, or raises while reading a damaged artifact, is
recorded and counted; it never stops the benchmark.
"""

from __future__ import annotations

import csv
import json
import traceback
from pathlib import Path

RPT_RECALL_MIN = 0.99  # acceptance criterion 8


class Checks:
    """Counts of checks attempted and the names and reasons of those failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, test) -> None:
        """Run ``test()``; a false result or an exception is one failure."""
        self.attempted += 1
        try:
            ok = test()
            reason = "check returned false"
        except Exception:  # a damaged artifact is a failed check, not a crash
            ok = False
            reason = traceback.format_exc(limit=1).strip().splitlines()[-1]
        if not ok:
            self.failures.append(f"{name}: {reason}")


def _data(path: Path):
    return json.loads(path.read_text())["data"]


def _signed_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if rows[0][-1] != "is_rpt":
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    return rows[1:]


def _rpt_recall(manifest: dict, signed: list[list[str]]) -> float | None:
    planted = [p for p in manifest["planted_rpts"] if not p["ambiguous"]]
    if not planted:
        return None
    flagged = {(r[0], r[2]) for r in signed if r[7] == "1"}
    hits = sum(
        1
        for p in planted
        if (p["cusip"], p["base_timestamp"]) in flagged
        and (p["cusip"], p["partner_timestamp"]) in flagged
    )
    return hits / len(planted)


def check_outputs(checks: Checks, gen_dir: Path, pass_dir: Path) -> None:
    """Compare one pipeline pass with the manifest of the tape it read."""

    def manifest() -> dict:
        return _data(gen_dir / "manifest.json")

    def lifecycle() -> dict:
        return _data(pass_dir / "filter_report.json")["lifecycle"]

    def signed() -> list[list[str]]:
        return _signed_rows(pass_dir / "signed.csv")

    for key, kind in (("cancels_applied", "cancels"), ("corrections_applied", "corrections")):
        checks.check(
            key,
            lambda key=key, kind=kind: lifecycle()[key]
            == manifest()["lifecycle_counts"].get(kind, 0),
        )
    checks.check("dangling_references", lambda: lifecycle()["dangling_references"] == 0)

    def recall_ok() -> bool:
        recall = _rpt_recall(manifest(), signed())
        return recall is None or recall >= RPT_RECALL_MIN

    checks.check("rpt_recall", recall_ok)
    checks.check(
        "report_n_trades", lambda: _data(pass_dir / "report.json")["n_trades"] == len(signed())
    )


def check_identical(checks: Checks, label: str, dirs: list[Path], exclude=()) -> None:
    """Every file in any of ``dirs`` exists in all of them with equal bytes."""
    names = sorted({p.name for d in dirs for p in d.iterdir() if p.is_file()} - set(exclude))
    for name in names:
        checks.check(
            f"{label} {name} byte-identical",
            lambda name=name: len({(d / name).read_bytes() for d in dirs}) == 1,
        )
