"""Golden digests: the sha256 of every artifact and of every stage's stdout.

One small chain runs in-process through ``cli.main`` with every flag that
changes artifact bytes: ``ingest --cap-volumes``, both ``spread
--mid-convention`` values, ``fit`` with lslasso and en, ``impact`` with
tim1, tim2 and both (and ``--spreads``), and ``report --out-one-sided``.
A change that alters any byte fails here, naming the files that moved; a
change that alters bytes on purpose updates the digests it names.

OpenBLAS picks its kernels by CPU, so ``fit*.json``, ``cv*.json`` and
``kernels*.json`` (and the ``signature*.csv`` drawn from those kernels) may
differ in their last digits on another CPU: there the digests of those
files are retaken, not the code changed.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from bondtca.cli import main

IMPACT = ["--signed", "signed.csv", "--min-events", "100"]
SPREAD_MIDS = ["--spreads", "spreads.csv"]
# (label, argv), in chain order; a stage run twice writes its first outputs
# under names of their own
CHAIN = (
    ("generate", ["generate", "--seed", "7", "--events", "2500", "--bonds", "6",
                  "--rpt-fraction", "0.1", "--cancel-rate", "0.01", "--correction-rate", "0.01"]),
    ("ingest", ["ingest", "--tape", "tape.csv", "--cap-volumes", "--reference", "reference.csv"]),
    ("classify", ["classify", "--clean", "clean.csv"]),
    ("spread paper", ["spread", "--signed", "signed.csv", "--mid-convention", "paper",
                      "--out-observations", "spreads_paper.csv",
                      "--out-weekly", "weekly_paper.csv"]),
    ("spread corrected", ["spread", "--signed", "signed.csv", "--mid-convention", "corrected"]),
    ("features", ["features", "--signed", "signed.csv", "--weekly", "weekly.csv",
                  "--reference", "reference.csv", "--context", "context.csv"]),
    ("fit lslasso", ["fit", "--features", "features.csv", "--model", "lslasso", "--k-folds", "3",
                     "--out-fit", "fit_lslasso.json", "--out-cv", "cv_lslasso.json"]),
    ("fit en", ["fit", "--features", "features.csv", "--model", "en", "--k-folds", "3"]),
    ("impact tim1", ["impact", *IMPACT, "--model", "tim1", "--out-kernel", "kernels_tim1.json",
                     "--out-signature", "signature_tim1.csv"]),
    ("impact tim2", ["impact", *IMPACT, *SPREAD_MIDS, "--model", "tim2",
                     "--out-kernel", "kernels_tim2.json",
                     "--out-signature", "signature_tim2.csv"]),
    ("impact both", ["impact", *IMPACT, *SPREAD_MIDS, "--model", "both"]),
    ("report", ["report", "--signed", "signed.csv", "--out-one-sided", "one_sided.csv"]),
)

STDOUT_SHA256 = {
    "generate": "d88acd34b6445dfca2076f4e6caa464b27ac312b583869532528afd2147b0b48",
    "ingest": "aabe354c803a6241ff2b88fc0496dffec6e2da5bcb56254b30173dd5f041d263",
    "classify": "52266fcba036c3c8dba2340fa945226fd3d53c5f61f9f3719b4a0ff1aefc5c68",
    "spread paper": "c219555f82ebda1d8cc0ec147100726db8c695342395aaf8af924c91fcfb9457",
    "spread corrected": "c219555f82ebda1d8cc0ec147100726db8c695342395aaf8af924c91fcfb9457",
    "features": "0713124772539fbe1a97a7d8257a78cd48f33c5c5722335ded1da7627a94a3b5",
    "fit lslasso": "33518c66d7b2b1aaa5c56126e21f1ee0bd04d990815c13e5a533a8cfb1e990ef",
    "fit en": "18844055577c8ed115441861fcaafe9043c5d90e768c4ee608eeddd3ca7dd574",
    "impact tim1": "5f9eace730c111b385f763be5583e18b1a782f589775d87136e1490f39a9b00c",
    "impact tim2": "698a75bb60f84cb256e09548bf3f9ba9c1b8be2a76c54286b4443d104806e7eb",
    "impact both": "a403c602f4a9d89d9b6714055daee59a198af9b8d5f6ebaa4e40b43b70effe09",
    "report": "4f4f1515093208aadb5084bbb39bfbb36d2195286626dde670a78f0c6acbe60e",
}

ARTIFACT_SHA256 = {
    "clean.csv": "07c687c2946f10f9af8efd54d45910c70b778da5deca4b748eaac3c8e5f7b7d8",
    "context.csv": "03616fdaa6e1449a325d4f5f20900bbfdc93ee78d9148d16a3816ae19e650a41",
    "cv.json": "07a7658ac161497f039f367cfb8578a4a098cba896fc36a9eabedf340ace1e69",
    "cv_lslasso.json": "dc06fcf485d9eb8ec34069931eec572d1246196024500cbea23698c6929c9c5e",
    "features.csv": "b6ed51d1097e0532306d02d51a7ce6abc898ee28844cdc42cc4aeee72da1b29f",
    "filter_report.json": "e21fb800659ebff6abb31317061477f8a4fe17940bca76a70a3300121345e0ad",
    "fit.json": "cab7fd9408a0b2891aaba9373fdf9f7d0f66051211196d15dda8b2203661047d",
    "fit_lslasso.json": "778e9449f126043cdf12b921b3440d0b664898b695e0944855e0d11fe7dbaf1a",
    "kernels.json": "a2cd00d706027611f2bf8796f626b72e7bd299d2161a2ec2a7ddcf9b70bd4076",
    "kernels_tim1.json": "aa02d592db40cfa87d9679a4bb0fbc804088c871d33abbfc905ad4219a22d70e",
    "kernels_tim2.json": "02e7786a9fe49ce60f97afcc6fdc3d5558a34870286767243796e61c7abfd41c",
    "manifest.json": "edbf57256ef9311a554cc237d8fcc15eec5642912333cac52da61d0f69ea22b4",
    "one_sided.csv": "5abf335114e263dea4ccb28c3f685ac56f007a1fabf993cb773f6d1fcc0a4de8",
    "reference.csv": "21f43c38053271adc73b326d7d647b1d1dd91c739297367baf4248d061d02fab",
    "report.json": "840e749e3fafccad1a068337f10536b5e44eb2aab4f8e2d48c78f4e4b5e22059",
    "signature.csv": "f74d1fd7ab833ddec4e15e867e2ffe1dca636520f7913d637dba8cfe6412a857",
    "signature_tim1.csv": "82c681972c2f61794b3e8bcf8349caaf7a79f44fe8ef48d7e1105dbda89dd602",
    "signature_tim2.csv": "6a40ce86a5192fc9b6dd41e6f4e23925a530e558fe43e1a2fcbf55b2aaa1863d",
    "signed.csv": "7d47318744be8ca111e7ebd4cc6bcc0f7dd814bd0ba6c368a786670e24440aa4",
    "spreads.csv": "78daa16ec6163ea42fb1977ed0b51502f6f8cf83e4f9b9c19de4713234f0831b",
    "spreads_paper.csv": "34966797d9cf9be81f392cf602262f7cfb9138dc21dabdfedc451ff7b6e14470",
    "tape.csv": "01beb9af3f8fae5187b8c3905aeb8636be693cf3aed7f9122bdac836684332af",
    "weekly.csv": "8e8b7c21208bc662b209be20047035b6ec16944a0aa71b211afa06cbfd833789",
    "weekly_paper.csv": "620417614d52cfb618f7263b269cf66f8a7319b54ee771674a06536822c71b13",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> tuple[dict[str, str], dict[str, str]]:
    """Digests of each stage's stdout and of each file the chain leaves."""
    work = tmp_path_factory.mktemp("golden")
    stdout = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for label, argv in CHAIN:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, label
            stdout[label] = sha256(out.getvalue().encode())
    finally:
        os.chdir(cwd)
    files = {p.name: sha256(p.read_bytes()) for p in sorted(Path(work).iterdir())}
    return stdout, files


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def test_stage_stdout_digests(chain):
    stdout, _ = chain
    assert moved(STDOUT_SHA256, stdout) == [], stdout


def test_artifact_digests(chain):
    _, files = chain
    assert moved(ARTIFACT_SHA256, files) == [], files
