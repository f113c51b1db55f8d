"""Hypothesis fuzz over a small valid chain.

One field or one row of one CSV artifact is mutated: a value becomes `nan`,
`inf`, `1e999`, empty, `0` or `-1`, a row gains a column or loses its end,
or a stray comment line is inserted. Every stage that reads the artifact
then runs on it. Each run must exit 0, 2, 3 or 4 and never end in a
traceback; a failing run prints one JSON error line; every JSON artifact a
run writes loads with a strict parser, and every CSV artifact reads back.
"""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bondtca import artifacts
from bondtca.cli import main

# stage -> (its settings, the artifact each input flag reads), in chain order;
# a stage writes its outputs under their default names
STAGES = {
    "generate": (
        ["--seed", "7", "--events", "2500", "--bonds", "2", "--rpt-fraction", "0.1",
         "--cancel-rate", "0.01", "--correction-rate", "0.01"],
        {},
    ),
    "ingest": (["--cap-volumes"], {"--tape": "tape.csv", "--reference": "reference.csv"}),
    "classify": ([], {"--clean": "clean.csv"}),
    "spread": (["--mid-convention", "corrected"], {"--signed": "signed.csv"}),
    "features": (
        [],
        {"--signed": "signed.csv", "--weekly": "weekly.csv", "--reference": "reference.csv",
         "--context": "context.csv"},
    ),
    "fit": (["--model", "lasso", "--k-folds", "3"], {"--features": "features.csv"}),
    "impact": (
        ["--model", "both", "--min-events", "100"],
        {"--signed": "signed.csv", "--spreads": "spreads.csv"},
    ),
    "report": (["--out-one-sided", "one_sided.csv"], {"--signed": "signed.csv"}),
}
READERS = {}  # artifact -> the stages that read it
for _stage, (_, _reads) in STAGES.items():
    for _name in _reads.values():
        READERS.setdefault(_name, []).append(_stage)
WRITES = {  # a CSV artifact a stage writes -> its declaration
    "clean.csv": artifacts.CLEAN,
    "signed.csv": artifacts.SIGNED,
    "spreads.csv": artifacts.SPREADS,
    "weekly.csv": artifacts.WEEKLY,
    "features.csv": artifacts.FEATURES,
    "signature.csv": artifacts.SIGNATURE,
    "one_sided.csv": artifacts.ONE_SIDED,
}
BAD_VALUES = ("nan", "inf", "-inf", "1e999", "", "0", "-1")


def run_stage(stage: str, inputs: Path, out: Path) -> tuple[int, str]:
    """Run one stage in ``out`` on the artifacts in ``inputs``: its exit code and stderr."""
    options, reads = STAGES[stage]
    argv = [stage, *options]
    for flag, name in reads.items():
        argv += [flag, str(inputs / name)]
    out.mkdir(exist_ok=True)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    """The artifacts of one valid run of all eight stages on 2 bonds."""
    work = tmp_path_factory.mktemp("chain")
    for stage in STAGES:
        assert run_stage(stage, work, work) == (0, ""), stage
    return work


@st.composite
def mutated(draw, lines: list[str]) -> list[str]:
    """``lines`` with one data row changed, or a comment line put among the rows."""
    lines = list(lines)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = draw(st.integers(header + 1, len(lines) - 1))
    how = draw(st.sampled_from(("value", "extra_column", "truncated", "comment")))
    if how == "value":
        fields = lines[at].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_VALUES))
        lines[at] = ",".join(fields)
    elif how == "extra_column":
        lines[at] += ",0"
    elif how == "truncated":
        lines[at] = lines[at][: draw(st.integers(1, len(lines[at]) - 1))]
    else:
        lines.insert(at, "# a stray comment")
    return lines


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_artifact_ends_in_a_documented_exit(chain, tmp_path, data):
    name = data.draw(st.sampled_from(sorted(READERS)), label="artifact")
    lines = data.draw(mutated((chain / name).read_text().splitlines()), label="lines")
    work = tmp_path / "run"
    shutil.rmtree(work, ignore_errors=True)  # the last example's
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for stage in READERS[name]:
        for needed in STAGES[stage][1].values():
            shutil.copyfile(chain / needed, inputs / needed)
    (inputs / name).write_text("\n".join(lines) + "\n")
    for stage in READERS[name]:
        code, err = run_stage(stage, inputs, work / stage)
        assert code in (0, 2, 3, 4), (stage, code)
        errors = [line for line in err.splitlines() if line.startswith("{")]
        assert len(errors) == (code != 0), (stage, err)
        if errors:
            assert set(strict_json(errors[0])) == {"error", "message"}
        for path in (work / stage).glob("*.json"):
            strict_json(path.read_text())
        for path in (work / stage).glob("*.csv"):  # finite, so the next stage can read it
            list(artifacts._read(path, WRITES[path.name]))
