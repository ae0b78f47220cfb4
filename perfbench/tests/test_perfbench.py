"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests

Runs every command kind at toy size through both the end-to-end and the
traced path, and shows that the answer checker is not vacuous: a corrupted
answer and a SKIPPED row both count as a failed command, while a relabelled
table branch does not.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.toy_commands()
VERIFY, TABLE, TOTAL, COUNT = TOY


@pytest.fixture(scope="module")
def pinned():
    with open(run.PINNED) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs():
    """stdout and exit code of each toy command, each in a fresh interpreter."""
    deadline = time.monotonic() + 120
    result = {}
    for cmd in TOY:
        stdout, stderr, code, _, _ = run.run_child(["-c", run.ENTRY, *cmd.argv], deadline)
        result[cmd.key] = (stdout, code)
    return result


def test_toy_answers_match_pinned(pinned, outputs):
    for cmd in TOY:
        stdout, code = outputs[cmd.key]
        assert answers.observed(cmd, stdout, code) == pinned[cmd.key], cmd.argv


def test_known_divergences_are_pinned(pinned):
    # README "Known divergences": verify at p = 5 has rows where the oracle and
    # the closed forms disagree by design; they are pinned, with exit code 1.
    want = pinned[workloads.commands("verify-canon", 0)[0].key]
    assert want["exit"] == 1
    assert any(oracle != formula for oracle, formula in want["rows"].values())


def test_corrupted_answer_fails(pinned, outputs):
    stdout, code = outputs[VERIFY.key]
    doc = json.loads(stdout)
    doc["results"][0]["oracle"] = str(int(doc["results"][0]["oracle"]) + 1)
    got = answers.observed(VERIFY, json.dumps(doc), code)
    assert got != pinned[VERIFY.key]


def test_skipped_row_fails(pinned, outputs):
    stdout, code = outputs[VERIFY.key]
    doc = json.loads(stdout)
    row = doc["results"][0]
    doc["results"][0] = {"p": row["p"], "R": row["R"], "status": "SKIPPED", "reason": "guard"}
    got = answers.observed(VERIFY, json.dumps(doc), code)
    assert got != pinned[VERIFY.key]


def test_missing_row_and_wrong_exit_fail(pinned, outputs):
    stdout, code = outputs[TOTAL.key]
    doc = json.loads(stdout)
    doc["breakdown"].pop()
    assert answers.observed(TOTAL, json.dumps(doc), code) != pinned[TOTAL.key]
    assert answers.observed(TOTAL, stdout, 1) != pinned[TOTAL.key]
    assert answers.observed(TOTAL, "Traceback", code) is None


def test_table_relabelled_branches_pass_and_every_changed_branch_fails(pinned, outputs):
    stdout, code = outputs[TABLE.key]
    doc = json.loads(stdout)
    relabelled = []
    for row in reversed(doc["rows"]):  # the same fits on a twice finer modulus
        m, c = int(row["modulus"]), int(row["class"])
        for cls in (c + m, c):
            relabelled.append(dict(row, modulus=str(2 * m), **{"class": str(cls)},
                                   samples=[]))
    want = pinned[TABLE.key]
    assert answers.observed(TABLE, json.dumps({"R": doc["R"], "rows": relabelled}), code) == want
    for i in range(len(doc["rows"])):  # a check prime reaches every branch
        broken = copy.deepcopy(doc)
        coefficients = broken["rows"][i]["coefficients"]
        coefficients[0] = str(Fraction(coefficients[0]) + 1)
        assert answers.observed(TABLE, json.dumps(broken), code) != want, doc["rows"][i]


def test_check_primes_reach_every_unit_class():
    modulus = workloads.TABLE_MODULUS
    for m in (d for d in range(1, modulus + 1) if modulus % d == 0):
        units = {c for c in range(m) if math.gcd(c, m) == 1}
        assert {q % m for q in workloads.TABLE_CHECK_PRIMES} == units, m


def test_in_process_bad_command_line_is_a_failed_command(pinned):
    run.load_topotype()
    bad = dataclasses.replace(COUNT, argv=COUNT.argv + ("--no-such-flag",))
    stdout, stderr, code, _ = run.run_in_process(bad)
    assert code == 2 and "--no-such-flag" in stderr
    assert not run._check(bad, stdout, stderr, code, pinned)[1]


def test_end_to_end_counts_failed_commands(pinned):
    corrupt = copy.deepcopy(pinned)
    corrupt[COUNT.key]["T"] = "0"
    guarded = dataclasses.replace(VERIFY, argv=VERIFY.argv + ("--guard-multisets", "1"))
    deadline = time.monotonic() + 120
    metrics, samples, attempted, failed, _ = run.end_to_end([COUNT, guarded], corrupt, 0, deadline)
    assert (attempted, failed) == (2, 2)
    assert metrics["items_per_s"] == 0
    metrics, samples, attempted, failed, _ = run.end_to_end(TOY, pinned, 0, deadline)
    assert (attempted, failed) == (4, 0)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def _benchmark():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_traced_run_reports_every_per_layer_metric(pinned, tmp_path):
    deadline = time.monotonic() + 120
    metrics, _, attempted, failed, _ = run.traced(TOY, pinned, deadline, tmp_path / "spans.json")
    assert (attempted, failed) == (8, 0)
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    assert metrics["oracle.count_orbits.calls"] == 2  # R = 3 and R = 4
    assert metrics["oracle.orbits"] == metrics["oracle.classify_partition.calls"]
    # counting calls part_wz through its own binding, so it must be wrapped there too
    assert metrics["residues.part_wz.calls"] > 0
    assert 0 < metrics["tables.samples"] < metrics["counting.count_types_rank2.calls"]
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["absent"] == [] and spans["spans"]
    assert sys.modules["topotype.exact"].is_prime.__module__ == "topotype.exact"
    assert not hasattr(sys.modules["topotype.exact"].is_prime, "__wrapped__")
