"""End-to-end benchmark of the bondtca pipeline.

    python3 perfbench/run.py --workload dealer-heavy [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each stage runs as its own process
calling ``bondtca.cli.main`` from ``src/``, one after another, the way a
user runs them: ``generate`` writes the tape, then ingest, classify,
spread, features, fit, impact and report. Workloads, with their flags and
the reason each was chosen, are in ``workloads.json``.

``--trace 0`` alternates a set-up (``generate``) and a pass of the seven
analysis stages over the first set-up's tape, as many times as fit in
``--seconds`` (counted from the first set-up, at least once), then runs
further set-ups while they fit, at least three in all. It reports
``setup_s`` as the median set-up and the other end-to-end metrics from
each stage's median over the passes.

``--trace 1`` runs ``generate`` once untraced and once traced (spans around
each layer's public functions, see ``traced_stage.py``), then alternates
untraced and traced pipeline passes (untraced, traced, traced, untraced,
...) while a pair fits in ``--seconds``, at least one pair. It reports the
per-layer metrics as medians over the traced passes, ``trace.overhead_s``
as the difference of the traced and untraced medians, and
``cli.import_s`` from fresh interpreters.

Both modes check the outputs against the generator's manifest and that
repeated runs over one seed write byte-identical artifacts: the set-ups
always, the pipeline passes whenever there are two or more. A failed stage
or check is counted in ``failed``, never raised. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checks, check_identical, check_outputs
from traced_stage import COUNT_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

STAGES = (
    ("ingest", ("--tape", "tape.csv")),
    ("classify", ("--clean", "clean.csv")),
    ("spread", ("--signed", "signed.csv")),
    (
        "features",
        ("--signed", "signed.csv", "--weekly", "weekly.csv",
         "--reference", "reference.csv", "--context", "context.csv"),
    ),
    ("fit", ("--features", "features.csv")),
    ("impact", ("--signed", "signed.csv")),
    ("report", ("--signed", "signed.csv")),
)
TAPE_INPUTS = ("tape.csv", "reference.csv", "context.csv")
MIN_SETUPS = 3  # setup_s is the median of at least this many generate runs
IMPORT_RUNS = 5  # cli.import_s is the median of this many fresh interpreters
IMPORT_RESERVE_S = 15.0  # time kept for the IMPORT_RUNS interpreters
IMPACT_WORK_SPANS = ("impact.series", "impact.tim1", "impact.tim2")  # per-bond pool work

STAGE_MAIN = "import sys\nfrom bondtca.cli import main\nsys.exit(main(sys.argv[1:]))"
IMPORT_TIMER = (
    "import time\nstart = time.perf_counter()\nimport bondtca.cli\n"
    "print(time.perf_counter() - start)"
)


@dataclass
class Proc:
    """One finished process and its resource use from ``os.wait4``."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


class Runner:
    """Starts one process at a time in the work directory and measures it."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.procs: list[Proc] = []
        (work / "logs").mkdir(parents=True)
        (work / "spans").mkdir()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, label: str, argv: list[str], cwd: Path, traced: bool = False) -> Proc:
        """Run one bondtca CLI call; a run past the deadline is killed."""
        if traced:
            spans = self.work / "spans" / f"{label}.json"
            cmd = [sys.executable, str(HERE / "traced_stage.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", STAGE_MAIN, *argv]
        log_path = self.work / "logs" / f"{label}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            child = subprocess.Popen(
                cmd, cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(self.remaining(), 0.0), child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        proc = Proc(
            name=argv[0],
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            returncode=child.returncode,
        )
        self.procs.append(proc)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"{label}: exit {proc.returncode}: " + " | ".join(tail), file=sys.stderr)
        return proc

    def generate(self, label: str, argv: list[str], traced: bool = False) -> Proc:
        gen_dir = self.work / label
        gen_dir.mkdir()
        return self.run(label, argv, gen_dir, traced)

    def pipeline(self, label: str, gen: str, workload: dict, traced: bool = False) -> list[Proc]:
        """Run the seven analysis stages over the tape in ``gen``."""
        pass_dir = self.work / label
        pass_dir.mkdir()
        for name in TAPE_INPUTS:
            if (self.work / gen / name).exists():
                shutil.copyfile(self.work / gen / name, pass_dir / name)
        flags = workload["stages"]
        return [
            self.run(f"{label}-{stage}", [stage, *base, *flags.get(stage, ())], pass_dir, traced)
            for stage, base in STAGES
        ]

    def import_seconds(self, runs: int) -> list[float]:
        """Seconds each of ``runs`` fresh interpreters takes to import bondtca.cli."""
        out = []
        for _ in range(runs):
            try:
                done = subprocess.run(
                    [sys.executable, "-c", IMPORT_TIMER],
                    env=self.env, capture_output=True, text=True,
                    timeout=max(self.remaining(), 1.0),
                )
            except subprocess.TimeoutExpired:
                break
            if done.returncode != 0:
                print(done.stderr.strip(), file=sys.stderr)
                break
            out.append(float(done.stdout))
        return out


def _tape_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1 if path.exists() else 0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals, so overlapping spans count once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _load_spans(path: Path) -> dict:
    if not path.exists():
        return {"spans": [], "counts": {}}
    return json.loads(path.read_text())


def _check_artifacts(checks: Checks, work: Path, gens: list[str], passes: list[str]) -> None:
    check_identical(checks, "generate", [work / g for g in gens])
    check_outputs(checks, work / gens[0], work / passes[0])
    if len(passes) > 1:
        check_identical(checks, "pipeline", [work / p for p in passes], exclude=TAPE_INPUTS)


def _stage_medians(passes: list[list[Proc]], field: str) -> list[float]:
    """Each stage's median of ``field`` over the passes, in stage order."""
    return [statistics.median(getattr(p, field) for p in runs) for runs in zip(*passes)]


def run_untraced(
    runner: Runner, workload: dict, gen_args: list[str], seconds: float, checks: Checks
) -> dict:
    start = time.perf_counter()

    def fits(duration: float) -> bool:
        """Whether a step of ``duration`` ends within ``seconds`` and before the deadline."""
        return (time.perf_counter() - start + duration <= seconds
                and duration < runner.remaining())

    # set-ups and pipeline passes alternate, so that both sample the whole
    # run and a slow spell of the host does not fall on one kind alone
    gens: list[Proc] = []
    passes: list[list[Proc]] = []
    cycle = 0.0  # wall time of the latest set-up and pass
    while not passes or fits(cycle):
        cycle_start = time.perf_counter()
        gens.append(runner.generate(f"gen{len(gens)}", gen_args))
        passes.append(runner.pipeline(f"pass{len(passes)}", "gen0", workload))
        cycle = time.perf_counter() - cycle_start
    while len(gens) < MIN_SETUPS or fits(gens[-1].wall_s):
        if gens[-1].wall_s >= runner.remaining():
            break  # another set-up would be killed at the deadline
        gens.append(runner.generate(f"gen{len(gens)}", gen_args))
    _check_artifacts(checks, runner.work, [f"gen{i}" for i in range(len(gens))],
                     [f"pass{i}" for i in range(len(passes))])

    # each stage's median over the passes, so one slow pass of one stage is outvoted
    pipeline_s = sum(_stage_medians(passes, "wall_s"))
    return {
        "setup_s": (statistics.median(g.wall_s for g in gens), "s"),
        "pipeline_s": (pipeline_s, "s"),
        "tape_rows_per_s": (_tape_rows(runner.work / "gen0" / "tape.csv") / pipeline_s, "rows/s"),
        "pipeline_cpu_s": (sum(_stage_medians(passes, "cpu_s")), "s"),
        "peak_rss_mb": (max(_stage_medians(passes, "rss_mb")), "MB"),
    }


def _kernel_bonds(kernels_path: Path) -> dict:
    return json.loads(kernels_path.read_text())["data"]["bonds"]


def _impact_metrics(checks: Checks, kernels_path: Path) -> dict:
    checks.check("kernels.json lists bonds", lambda: len(_kernel_bonds(kernels_path)) > 0)
    try:
        bonds = _kernel_bonds(kernels_path)
    except (OSError, ValueError, KeyError, TypeError):
        bonds = {}  # counted by the check above
    conds = [
        entry[model]["condition_number"]
        for entry in bonds.values()
        for model in ("tim1", "tim2")
        if model in entry
    ]
    return {
        "impact.bonds": (len(bonds), "count"),
        "impact.max_condition": (max(conds, default=0.0), "ratio"),
    }


def _span_metrics(checks: Checks, work: Path, traced: list[tuple[Proc, str]]) -> dict:
    """Per-layer metrics of one traced generate and one traced pipeline pass."""
    metrics: dict = {}
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    counts["microstructure.pairs"] = 0
    impact_work: list[tuple[float, float]] = []
    for p, label in traced:
        record = _load_spans(work / "spans" / f"{label}.json")
        intervals = [(start, end) for _, _, start, end, _ in record["spans"]]
        covered = _union_length(intervals)
        metrics[f"cli.{p.name}.self_s"] = (p.wall_s - covered, "s")
        checks.check(f"{label} spans within stage wall time", lambda: covered <= p.wall_s)
        for name, _, start, end, _ in record["spans"]:
            busy[name] += end - start
            if name in IMPACT_WORK_SPANS:
                impact_work.append((start, end))
        for name, n in record["counts"].items():
            counts[name] = counts.get(name, 0) + n

    metrics["synthgen.generate_s"] = (busy.pop("synthgen.generate"), "s")
    for name, seconds in busy.items():
        metrics[f"{name}_s"] = (seconds, "s")
    pairs = counts.pop("microstructure.pairs")
    for name, n in counts.items():
        metrics[name] = (n, "count")
    reports_in = counts["ingest.reports_in"]
    kept = counts["ingest.trades_out"] / reports_in if reports_in else 0.0
    metrics["ingest.kept_ratio"] = (kept, "ratio")
    pair_yield = counts["microstructure.spread_obs"] / pairs if pairs else 0.0
    metrics["microstructure.pair_yield"] = (pair_yield, "ratio")
    impact_busy = sum(end - start for start, end in impact_work)
    impact_wall = _union_length(impact_work)
    metrics["impact.busy_s"] = (impact_busy, "s")
    metrics["impact.parallelism"] = (impact_busy / impact_wall if impact_wall else 0.0, "ratio")
    return metrics


def run_traced(
    runner: Runner, workload: dict, gen_args: list[str], seconds: float, checks: Checks
) -> dict:
    work = runner.work
    start = time.perf_counter()
    plain_gen = runner.generate("gen0", gen_args)
    traced_gen = runner.generate("gen1", gen_args, traced=True)
    # untraced and traced passes alternate in the order U T T U ..., so that
    # a slow spell or a steady drift of the host weighs on both kinds alike
    plain: list[list[Proc]] = []
    traced: list[list[Proc]] = []
    pair = 0.0  # wall time of the latest untraced and traced pass
    while not traced or (time.perf_counter() - start + pair <= seconds
                         and pair + IMPORT_RESERVE_S < runner.remaining()):
        pair_start = time.perf_counter()
        i = len(traced)
        for is_traced in (False, True) if i % 2 == 0 else (True, False):
            label = f"traced{i}" if is_traced else f"plain{i}"
            (traced if is_traced else plain).append(
                runner.pipeline(label, "gen0", workload, traced=is_traced)
            )
        pair = time.perf_counter() - pair_start
    imports = runner.import_seconds(IMPORT_RUNS)
    passes = [f"{kind}{i}" for i in range(len(traced)) for kind in ("plain", "traced")]
    _check_artifacts(checks, work, ["gen0", "gen1"], passes)

    metrics: dict = {"cli.import_s": (statistics.median(imports) if imports else 0.0, "s")}
    for field, unit in (("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB")):
        metrics[f"cli.generate.{field}"] = (getattr(plain_gen, field), unit)
        for (stage, _), value in zip(STAGES, _stage_medians(plain, field)):
            metrics[f"cli.{stage}.{field}"] = (value, unit)

    per_pass = [
        _span_metrics(
            checks, work,
            [(traced_gen, "gen1"),
             *zip(procs, (f"traced{i}-{stage}" for stage, _ in STAGES))],
        )
        for i, procs in enumerate(traced)
    ]
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)

    tape = work / "gen0" / "tape.csv"
    metrics["synthgen.tape_rows"] = (_tape_rows(tape), "count")
    metrics["synthgen.tape_mb"] = (tape.stat().st_size / 2**20 if tape.exists() else 0.0, "MB")
    metrics.update(_impact_metrics(checks, work / "plain0" / "kernels.json"))
    metrics["trace.overhead_s"] = (
        statistics.median(sum(p.wall_s for p in procs) for procs in traced)
        - statistics.median(sum(p.wall_s for p in procs) for procs in plain),
        "s",
    )
    return dict(sorted(metrics.items()))


def summarize(procs: list[Proc], checks: Checks, metrics: dict) -> dict:
    """The result line; failed / attempted is the run's failed_frac."""
    failed = sum(1 for p in procs if p.returncode != 0) + len(checks.failures)
    return {
        "correct": failed == 0,
        "attempted": len(procs) + checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, help="tape seed; default: the workload's own")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bondtca" / "cli.py").is_file():
        print(f"no bondtca sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = config["workloads"][args.workload]
    seed = workload["seed"] if args.seed is None else args.seed
    gen_args = ["generate", "--seed", str(seed), *config["common_generate"], *workload["generate"]]
    deadline = time.monotonic() + workload.get("deadline_s", config["deadline_s"])

    work = WORK_ROOT / f"{args.workload}-{seed}-{os.getpid()}"
    runner = Runner(work, deadline)
    checks = Checks()
    try:
        # compile bytecode and fill the file cache once: users do not pay that per run
        if not runner.import_seconds(1):
            print(f"bondtca.cli does not import from {SRC}", file=sys.stderr)
            return 3
        if args.trace:
            metrics = run_traced(runner, workload, gen_args, args.seconds, checks)
        else:
            metrics = run_untraced(runner, workload, gen_args, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            WORK_ROOT.rmdir()

    result = summarize(runner.procs, checks, metrics)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}, "
          f"{len(runner.procs)} stage processes, {checks.attempted} output checks")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
