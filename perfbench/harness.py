"""Session loop, statistics, span ledger and metric tables of the benchmark.

A *workload* (see :mod:`workloads`) prepares its seeded inputs once, then
runs one or more *sessions*: a program-side set-up followed by a timed
phase of operations.  This module drives the sessions, turns what they
record into the end-to-end or per-layer metrics, and attributes traced
span time to layers.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Percentiles tried, highest first, for the unbounded tail line.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


@dataclass
class Phase:
    """What one timed phase of operations recorded."""

    latencies: List[float] = field(default_factory=list)
    rows: int = 0
    busy: float = 0.0
    failed: int = 0
    #: Operations still in flight when the phase's window closed.
    unfinished: int = 0
    spans_dropped: int = 0
    spans: List[dict] = field(default_factory=list)
    #: Per-layer metric name -> sum over the phase; reported per op.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.unfinished

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.busy if self.busy > 0 else 0.0

    def record(self, seconds: float, rows: int, ok: bool) -> None:
        """One finished operation."""
        self.latencies.append(seconds)
        self.busy += seconds
        self.rows += rows
        if not ok:
            self.failed += 1

    def add(self, counters: Dict[str, float]) -> None:
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def per_op(self) -> Dict[str, float]:
        n = max(len(self.latencies), 1)
        return {key: value / n for key, value in self.counters.items()}


def merge_phases(phases: Sequence[Phase]) -> Phase:
    merged = Phase()
    for phase in phases:
        merged.latencies.extend(phase.latencies)
        merged.rows += phase.rows
        merged.busy += phase.busy
        merged.failed += phase.failed
        merged.unfinished += phase.unfinished
        merged.spans_dropped += phase.spans_dropped
        merged.spans.extend(phase.spans)
        merged.add(phase.counters)
    return merged


# -- the session loop -------------------------------------------------------


def _sessions(
    workload, seconds: float, traced: bool, min_sessions: int
) -> Tuple[List[float], List[Phase]]:
    """Run sessions (set-up + timed phase) until ``min_sessions`` ran and
    another one of the same length would overrun ``seconds``.

    A timed phase gets ``seconds / min_sessions``; a workload whose phase
    is a fixed amount of work (an ``ingest`` pass) ignores it.
    """
    from repro.obs import get_tracer, set_tracing

    setups: List[float] = []
    phases: List[Phase] = []
    budget = seconds / min_sessions
    started = time.perf_counter()
    longest = 0.0
    while len(phases) < min_sessions or (
        time.perf_counter() - started + longest <= seconds
    ):
        session_started = time.perf_counter()
        setups.append(workload.setup())
        get_tracer().clear()
        set_tracing(traced)
        try:
            phases.append(workload.run_phase(budget))
        finally:
            set_tracing(False)
            workload.teardown()
        phases[-1].spans_dropped = get_tracer().n_dropped
        longest = max(longest, time.perf_counter() - session_started)
    return setups, phases


def run_untraced(workload, seconds: float) -> dict:
    """End-to-end metrics; runs in the runner process."""
    setups, sessions = _sessions(workload, seconds, False, workload.min_sessions)
    phase = merge_phases(sessions)
    latencies_ms = [1e3 * s for s in phase.latencies]
    # The p90 of the pooled operations sits where a few seconds of a
    # slowed-down shared host decide it; the median of the sessions' p90s
    # moves only when most sessions slow down.
    p90s = [percentile(s.latencies, 90) * 1e3 for s in sessions if s.latencies]
    values = {
        "setup_s": statistics.median(setups),
        "rows_per_s": phase.rows_per_s,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": statistics.median(p90s),
        "peak_rss_mb": workload.peak_rss_bytes() / 2**20,
    }
    lines = [
        f"workload {workload.name}: {len(setups)} session(s), "
        f"{phase.attempted} ops, {phase.rows} rows in {phase.busy:.3f} s of ops",
        tail_line(latencies_ms),
        f"setup_s per session: {', '.join(f'{s:.4f}' for s in setups)}",
        f"op_p90_ms per session: {', '.join(f'{p:.3f}' for p in p90s)}; "
        f"pooled p90 {percentile(latencies_ms, 90):.3f} ms",
    ]
    return _raw("end_to_end", values, phase, lines + workload.notes, workload)


def run_traced(workload, seconds: float) -> dict:
    """Per-layer metrics; runs in the runner process."""
    base = merge_phases(_sessions(workload, seconds / 2, False, 1)[1])
    traced = merge_phases(_sessions(workload, seconds / 2, True, 1)[1])
    values = workload.layer_metrics(traced)
    values["obs.spans_dropped"] = traced.spans_dropped
    values["obs.trace_overhead"] = (
        1.0 - traced.rows_per_s / base.rows_per_s if base.rows_per_s else 0.0
    )
    lines = [
        f"workload {workload.name}: untraced {base.rows_per_s:.1f} rows/s over "
        f"{len(base.latencies)} ops, traced {traced.rows_per_s:.1f} rows/s "
        f"over {len(traced.latencies)} ops",
    ]
    refs = workload.references()
    for name, ratio in workload.ratios:
        ref = refs[name]
        values[name] = ref
        values[ratio] = base.rows_per_s / ref
        lines.append(
            f"{ratio} = workload {base.rows_per_s:.1f} rows/s / "
            f"{name} {ref:.1f} = {values[ratio]:.4f}"
        )
    lines.extend(ledger_lines(values, workload.ledger_parts))
    merged = merge_phases([base, traced])
    return _raw("per_layer", values, merged, lines + workload.notes, workload)


def _raw(table: str, values, phase: Phase, lines, workload) -> dict:
    return {
        "table": table,
        "values": values,
        "lines": lines,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "verify": workload.verify_payload(),
    }


def metric_tables(root: Path) -> Dict[str, List[Tuple[str, str]]]:
    """``(name, unit)`` of every metric, per table, from BENCHMARK.json.

    Per-layer times and counts are per operation of the traced phase; a
    layer that does no work in a workload reads 0 there.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        table: [(m["name"], m["unit"]) for m in spec[table]]
        for table in ("end_to_end", "per_layer")
    }


def finish(raw: dict, failed_checks: int, table: List[Tuple[str, str]]) -> dict:
    """The printed result: every metric of the table, by name with unit."""
    undeclared = set(raw["values"]) - {name for name, _ in table}
    if undeclared:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    failed = raw["failed"] + failed_checks
    lines = list(raw["lines"])
    lines.append(f"ops attempted {raw['attempted']}, failed {failed}")
    metrics = {}
    for name, unit in table:
        value = float(raw["values"].get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} {value:.6g} {unit}")
    return {
        "lines": lines,
        "correct": failed == 0,
        "attempted": max(raw["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    }


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_line(latencies_ms: Sequence[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies_ms)
    for q in _TAIL_LADDER:
        beyond = int(np.floor(n * (1.0 - q / 100.0)))
        if beyond >= 10:
            return (
                f"op_tail_ms p{q:g} {percentile(latencies_ms, q):.3f} ms "
                f"({beyond} of {n} samples beyond it; no bound)"
            )
    return f"op_tail_ms: {n} samples, too few for a tail beyond p90"


# -- the span ledger --------------------------------------------------------


def attribute(spans: Sequence[dict], root: str) -> Tuple[Dict[str, float], int]:
    """Split the wall time of every ``root`` span among span names.

    A span keeps the part of its interval that no child covers.  Children
    that overlap each other (process-pool ``scan.chunk`` spans) share the
    wall time of their overlap in proportion to their durations, so the
    parts of one root add up to exactly its duration.
    """
    children: Dict[object, List[dict]] = defaultdict(list)
    for record in spans:
        children[record.get("parent_id")].append(record)
    totals: Dict[str, float] = defaultdict(float)

    def walk(record: dict, weight: float) -> None:
        lo, hi = record["start"], record["end"]
        kids = sorted(
            (k for k in children.get(record["span_id"], ()) if k["end"] > lo),
            key=lambda k: k["start"],
        )
        covered = 0.0
        cluster: List[dict] = []
        cluster_lo = cluster_hi = 0.0

        def close_cluster() -> float:
            length = cluster_hi - cluster_lo
            if len(cluster) == 1:
                walk(cluster[0], weight)
            else:
                total = sum(k["end"] - k["start"] for k in cluster)
                for k in cluster:
                    walk(k, weight * length / total if total > 0 else 0.0)
            return length

        for kid in kids:
            k_lo, k_hi = max(kid["start"], lo), min(kid["end"], hi)
            if cluster and k_lo < cluster_hi:
                cluster.append(kid)
                cluster_hi = max(cluster_hi, k_hi)
                continue
            if cluster:
                covered += close_cluster()
            cluster, cluster_lo, cluster_hi = [kid], k_lo, k_hi
        if cluster:
            covered += close_cluster()
        totals[record["name"]] += weight * ((hi - lo) - covered)

    roots = [r for r in spans if r["name"] == root]
    for record in roots:
        walk(record, 1.0)
    return dict(totals), len(roots)


def ledger_lines(values: Dict[str, float], parts: Sequence[str]) -> List[str]:
    """Print each ledger part as a share of the mean op time."""
    if not parts:
        return []
    op = values.get("ledger.op_s", 0.0)
    lines = [f"ledger (share of {1e3 * op:.3f} ms per op):"]
    total = 0.0
    for name in parts:
        value = values.get(name, 0.0)
        total += value
        share = value / op if op else 0.0
        lines.append(f"  {name:28s} {1e3 * value:10.4f} ms  {100 * share:6.2f} %")
    lines.append(
        f"  {'sum':28s} {1e3 * total:10.4f} ms  "
        f"{100 * (total / op if op else 0.0):6.2f} %"
    )
    return lines


# -- host facts -------------------------------------------------------------


def vm_hwm_bytes(pid: int) -> int:
    """Peak resident set size of one live process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


def host_line() -> str:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except Exception:  # older numpy: no dict mode
        pass
    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
