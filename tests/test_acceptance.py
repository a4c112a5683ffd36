"""Acceptance gate: the seven numbered experiments plus the determinism rerun.

Each criterion test runs its experiment through the CLI `accept` subcommand
(the documented single-invocation path), asserts the gate, and prints one
PASS/FAIL line.  Criterion 8 reruns everything with --threads 1 and
--threads 8 and compares the report files byte for byte; the --threads 1
reports double as the reports asserted by criteria 1-7 and pinned by hash,
so the whole suite performs exactly two full acceptance passes.
"""

import hashlib
import json
import time

import pytest

from spherelab.cli import run

BUDGETS = {1: 60, 2: 120, 3: 60, 4: 120, 5: 30, 6: 120, 7: 1}

# sha256 of each report file; a change that alters a report updates its hash here and says why
REPORT_SHA256 = {
    1: "521157414711941f916342be2d6fd79a1e84d7b4a0bae63338e6034094109afa",
    2: "b0818d928dce250ff05a95c0d1af6c54924ab85a55c2cd2c87ebd28f333eaff7",
    3: "26e7941b6eafd827bf9e572062656e6fb6b414f34a9b7be8efb94dd9f26b6f8f",
    4: "229d8d1d4acc1b33fc569c89d2ccf125fa67f11ff2f5880327d367253cc87e06",
    5: "adf29b354afa2c6d7322b3693eff588a5f7a6f8f9eec769a39702e8c9949e860",
    6: "c54fa8e768868a5b6a264f3f50221b97f6039e42ec687a025d3b0815109a68ff",
    7: "9e90a5eaf9de93f76988cd762dad505a9f1a49a9a4e11842b520e1a91009c2bc",
}


@pytest.fixture(scope="session")
def accept_reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    reports = {}
    for number in range(1, 8):
        out = base / f"exp{number}-t1.json"
        start = time.perf_counter()
        code = run(
            ["accept", "--experiment", str(number), "--threads", "1", "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        reports[number] = {
            "exit_code": code,
            "bytes": out.read_bytes(),
            "payload": json.loads(out.read_text()),
            "elapsed": elapsed,
        }
    return reports


@pytest.mark.parametrize("number", range(1, 8))
def test_criterion(number, accept_reports):
    rep = accept_reports[number]
    payload = rep["payload"]
    status = "PASS" if payload["passed"] else "FAIL"
    print(f"{status}  criterion {number}: {payload['name']} "
          f"({rep['elapsed']:.1f}s, budget {BUDGETS[number]}s)")
    assert rep["exit_code"] == 0, payload
    assert payload["passed"], payload
    assert rep["elapsed"] < BUDGETS[number]


def test_report_bytes_are_pinned(accept_reports):
    got = {n: hashlib.sha256(rep["bytes"]).hexdigest() for n, rep in accept_reports.items()}
    assert got == REPORT_SHA256


def test_criterion_8_determinism(accept_reports, tmp_path):
    mismatches = []
    for number in range(1, 8):
        out = tmp_path / f"exp{number}-t8.json"
        code = run(
            ["accept", "--experiment", str(number), "--threads", "8", "--out", str(out)]
        )
        assert code == 0
        if out.read_bytes() != accept_reports[number]["bytes"]:
            mismatches.append(number)
    status = "PASS" if not mismatches else "FAIL"
    print(f"{status}  criterion 8: byte-identical reports for --threads 1 vs 8")
    assert not mismatches, f"non-deterministic experiments: {mismatches}"
