"""The benchmark's own tests, at a tiny data size.

Run from the repository root: ``python -m pytest statbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from statbench import bench, oracle, run
from statbench.workloads import BLOCK, build

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, seed: int = 3):
    return build(name, seed, 0.3, scale=0.05)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(workload, trace, capsys):
    report = run.measure(_tiny(workload, 7), bool(trace), "test")
    printed = capsys.readouterr().out
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, printed
    assert report["failed"] == 0 and report["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in report["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        # A tiny database can fit in memory the test process already holds,
        # so only max_rss_mb may read 0 here.
        values = {name: metric["value"] for name, metric in report["metrics"].items()}
        assert all(value > 0 for name, value in values.items() if name != "max_rss_mb")
    for name in ("error_rate", "repeat_text_share", *run.UNGATED):
        assert name in printed


def test_benchmark_json_names_the_workloads_and_metrics_the_command_has():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    names = {metric["name"] for metric in SPEC["end_to_end"]}
    assert names.isdisjoint(run.UNGATED) and "setup_s" in names


def test_host_fingerprint_names_the_host():
    found = run.host_fingerprint({"REPRO_CHECK": "1"})
    assert {"cpus", "python", "platform", "commit"} <= set(found)
    assert found["repro_env_found"] == {"REPRO_CHECK": "1"}


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "statbench", tmp_path / "statbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "statbench/run.py", "--workload", "point-lookup"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _tamper(monkeypatch, change):
    """Let ``change`` alter replica 0's records, as a faulty program would."""
    real = bench.run_pass
    passes = []

    def run_pass(db, workload, traced):
        passes.append(real(db, workload, traced))
        if len(passes) == 1:
            change(passes[0].records)
        return passes[-1]

    monkeypatch.setattr(bench, "run_pass", run_pass)


def _first_read(records):
    return next(r for r in records if r.stmt.kind == "read" and r.ok)


def _corrupt_first_read(records):
    record = _first_read(records)
    record.rows_digest = record.checksum = "corrupt"


def test_a_corrupted_result_counts_as_a_failure(monkeypatch, tmp_path):
    _tamper(monkeypatch, _corrupt_first_read)
    result = bench.run(_tiny("point-lookup"), str(tmp_path), traced=False)
    assert result.failed == 1
    assert any(p.startswith("oracle: ") for p in result.problems)
    assert any(p.startswith("gate replica ") for p in result.problems)


def test_a_corrupted_result_makes_the_report_wrong(monkeypatch, capsys):
    _tamper(monkeypatch, _corrupt_first_read)
    report = run.measure(_tiny("join-report", 2), False, "test")
    assert report["correct"] is False and report["failed"] == 1
    assert "FAIL oracle" in capsys.readouterr().out


def test_an_impossible_serving_read_counts_as_a_failure(monkeypatch, tmp_path):
    def change(records):
        record = _first_read(records)
        aid, owner, __ = record.first_row
        record.first_row = (aid, owner, -1)

    _tamper(monkeypatch, change)
    result = bench.run(_tiny("serving-mixed"), str(tmp_path), traced=False)
    assert result.failed == 1
    assert any("no snapshot allows" in p for p in result.problems)


def test_a_refused_write_counts_as_a_failure_and_keeps_its_latency(
    monkeypatch, tmp_path
):
    def change(records):
        record = next(r for r in records if r.stmt.kind == "write")
        record.error, record.busy, record.latency = "DatabaseBusyError()", True, 9.0

    _tamper(monkeypatch, change)
    result = bench.run(_tiny("serving-mixed"), str(tmp_path), traced=False)
    assert result.failed == 1
    assert any("refused" in p for p in result.problems)
    # Once every replica waited 9 s for it, the refusal is the slowest write.
    for replica in result.passes[1:]:
        next(r for r in replica.records if r.stmt.kind == "write").latency = 9.0
    best = bench.best_records(result)
    assert max(r.latency for r in best if r.stmt.kind == "write") == 9.0


def test_gate_catches_a_counter_difference(tmp_path):
    result = bench.run(_tiny("join-report"), str(tmp_path), traced=True)
    assert result.problems == []
    first, second = result.passes[0], result.passes[-1]
    assert [r.counters for r in first.records] == [r.counters for r in second.records]
    fetches, rsi, hits = second.records[0].counters
    second.records[0].counters = (fetches + 1, rsi, hits)
    assert [index for index, __ in oracle.gate(first, second)] == [0]


def test_same_seed_same_statements_and_fixed_mix():
    first, again = _tiny("point-lookup", 5), _tiny("point-lookup", 5)
    other = _tiny("point-lookup", 6)
    assert first.statements() == again.statements()
    assert first.tables == again.tables
    assert first.statements() != other.statements()
    blocks = len(first.statements()) // BLOCK * BLOCK
    mix = Counter(s.template for s in first.statements()[:blocks])
    assert mix == Counter(s.template for s in other.statements()[:blocks])


@pytest.mark.parametrize(
    "samples, pct",
    [(1000, 99), (999, 95), (200, 95), (100, 90), (40, 75), (20, 50), (19, 100)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(samples, pct):
    assert bench.timing([0.001] * samples).tail_pct == pct
