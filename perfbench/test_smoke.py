"""Self-test of the benchmark: every workload in smoke mode, and the ledger.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, seconds: float = 3.0):
    return subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_smoke(workload, trace):
    run = _run(ROOT, workload, trace)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (result["failed"] == 0)
    assert result["attempted"] >= 1
    # ingest and serve-scale fail their checks through program defects
    # (see workloads.py); ingest's failures are checked against its counts
    # below.
    if workload not in ("ingest", "serve-scale"):
        assert result["failed"] == 0
    table = harness.metric_tables(ROOT)["per_layer" if trace else "end_to_end"]
    if trace:
        table += workloads.WORKLOADS[workload].extra_layers
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    for name, unit in table:
        assert any(
            line.startswith(f"{name} ") and line.endswith(unit) for line in lines
        )
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["obs.spans_dropped"] == 0
        if workload == "ingest":
            admitted = (
                metrics["watch.outliers_unscored"] + metrics["watch.outliers_missed"]
            )
            assert (result["failed"] > 0) == (admitted > 0)
        assert metrics["ledger.op_s"] > 0
        # The named layers plus the workload's remainder are its op time.
        parts = workloads.WORKLOADS[workload].ledger_parts
        if parts:
            assert sum(metrics[p] for p in parts) == pytest.approx(
                metrics["ledger.op_s"]
            )
        if workload.startswith("serve"):
            assert metrics["http.short_flush_share"] == 0
            assert metrics["http.rows_per_flush"] == 2


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout


def _span(name, span_id, parent, start, end):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "start": start, "end": end}


def test_attribute_partitions_root_time():
    spans = [
        _span("bench.op", "r", None, 0.0, 10.0),
        _span("plan", "p", "r", 0.0, 1.0),
        _span("scan", "s", "r", 1.0, 9.0),
        # Two parallel workers, overlapping each other inside "scan".
        _span("chunk", "c1", "s", 1.5, 6.0),
        _span("chunk", "c2", "s", 2.0, 8.5),
        _span("merge", "m", "r", 9.0, 9.5),
    ]
    totals, n_roots = harness.attribute(spans, "bench.op")
    assert n_roots == 1
    assert sum(totals.values()) == pytest.approx(10.0)
    assert totals["chunk"] == pytest.approx(7.0)  # union of 1.5..8.5
    assert totals["scan"] == pytest.approx(1.0)
    assert totals["plan"] == pytest.approx(1.0)
    assert totals["merge"] == pytest.approx(0.5)
    assert totals["bench.op"] == pytest.approx(0.5)
