"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

The tiny-scale runs copy the benchmark next to a copy of ``src`` in a
temporary checkout, shrink each workload's tape and run the benchmark
command from the checkout's root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import Checks  # noqa: E402
from traced_stage import Tracer  # noqa: E402

# smallest tapes on which every stage has enough data: fit needs 10 bond-weeks
# (a synthetic week is about 2,250 events per bond), impact 1,000 signed events
TINY_GENERATE = {
    "ref-1m": ["--events", "1200", "--bonds", "12", "--rpt-fraction", "0.02"],
    "dealer-heavy": ["--events", "3000", "--bonds", "5", "--rpt-fraction", "0.5"],
    "wide-tape": ["--events", "500", "--bonds", "12", "--rpt-fraction", "0.02"],
}
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny_checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("tests", "__pycache__")
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        config_path = root / "perfbench" / "workloads.json"
        config = json.loads(config_path.read_text())
        for name, generate in TINY_GENERATE.items():
            config["workloads"][name]["generate"] = generate
        config_path.write_text(json.dumps(config))
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(TINY_GENERATE))
def test_tiny_run_prints_every_metric_with_unit(tmp_path, workload, trace):
    root = _tiny_checkout(tmp_path)
    done = _run(root, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in done.stdout.splitlines()), m["name"]
    assert "failed_frac" in done.stdout
    assert not (root / ".perfbench_work").exists()


def test_without_sources_exits_nonzero_without_result(tmp_path):
    root = _tiny_checkout(tmp_path, with_src=False)
    done = _run(root, "--workload", "ref-1m", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_corrupted_artifacts_are_counted_not_raised(tmp_path):
    workload = {"stages": {}}
    runner = run.Runner(tmp_path / "work", deadline=time.monotonic() + 170)
    gen_args = ["generate", "--seed", "4", "--cancel-rate", "0.005", "--correction-rate", "0.002",
                *TINY_GENERATE["ref-1m"]]
    runner.generate("gen0", gen_args)
    runner.pipeline("pass0", "gen0", workload)
    clean = Checks()
    run._check_artifacts(clean, runner.work, ["gen0"], ["pass0"])
    assert clean.failures == [] and clean.attempted > 0

    work = runner.work
    shutil.copytree(work / "pass0", work / "pass1")
    (work / "pass1" / "signed.csv").write_text("not,a,signed,file\n")
    (work / "pass1" / "filter_report.json").write_text("{")
    checks = Checks()
    run._check_artifacts(checks, work, ["gen0"], ["pass1", "pass0"])
    failed_names = " ".join(checks.failures)
    for name in ("cancels_applied", "rpt_recall", "report_n_trades",
                 "signed.csv byte-identical", "filter_report.json byte-identical"):
        assert name in failed_names

    # a damaged tape makes the stages fail; they are counted as well
    shutil.copytree(work / "gen0", work / "gen1")
    (work / "gen1" / "tape.csv").write_text("garbage\n")
    runner.pipeline("pass2", "gen1", workload)
    result = run.summarize(runner.procs, checks, {})
    assert not result["correct"]
    assert result["failed"] == len(checks.failures) + len(run.STAGES)
    assert result["attempted"] == len(runner.procs) + checks.attempted


def test_union_length_counts_overlap_once():
    assert run._union_length([]) == 0.0
    assert run._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_tracer_records_spans_from_every_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "layer.inner")
    outer = tracer.wrap(lambda: inner() or inner(), "layer.outer")
    same = tracer.wrap(lambda: outer(), "layer.outer")
    threads = [threading.Thread(target=same) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    names = sorted(s[0] for s in tracer.spans)
    # the nested call into the same layer is covered by its caller's span
    assert names == ["layer.inner"] * 4 + ["layer.outer"] * 2
    assert len({s[1] for s in tracer.spans}) == 2
    assert all(s[4] == "layer.outer" for s in tracer.spans if s[0] == "layer.inner")
