"""The benchmark workloads: mine, fill, ingest and serve.

``BENCHMARK.json`` runs ``mine`` and ``serve``.  The others run by name
but are not in it.  The program fails the output checks of ``ingest`` and
``serve-scale`` (``serve`` with scaled what-ifs; see :class:`Ingest` and
:attr:`Serve.scale`), and a benchmark workload must be one on which no
operation fails.  ``fill`` passes its checks, but its figures swing with
the host by more than the largest regression bound (see :class:`Fill`).

Each workload drives the program through its public API with the
settings its CLI uses, and checks every operation's output.  Inputs are
made from the run's seed in :meth:`Workload.prepare` and are not part of
any timed or set-up figure.

- ``mine``: repeated process-pool fits of one on-disk row store
  (``ratio-rules fit --executor process --workers 2``).
- ``fill``: one large holey table through a fresh
  :class:`~repro.serve.BatchFiller` per operation (``serve-batch``).
- ``ingest``: a :class:`~repro.watch.WatchDaemon` with CLI-default
  routing and refresh policies catching up on a pre-written CSV.
- ``serve``: an :class:`~repro.serve.http.HttpApiServer` over a model
  store, driven by a separate closed-loop client process while that
  process publishes a new model version once per second.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    Phase,
    attribute,
    child_pids,
    percentile,
    vm_hwm_bytes,
)
from repro.core.covariance import StreamingCovariance
from repro.core.engine import shutdown_pools
from repro.core.model import RatioRuleModel
from repro.core.outliers import reconstruction_residuals
from repro.core.parallel import fit_sharded
from repro.core.reconstruction import apply_fill_operator, compute_fill_operator
from repro.datasets.quest import QuestBasketGenerator
from repro.io.csv_format import load_csv_matrix
from repro.io.rowstore import RowStore
from repro.io.schema import TableSchema
from repro.obs import get_tracer, span
from repro.pipeline import CSVTailSource, RefreshPolicy
from repro.pipeline.drift import DriftDetector
from repro.serve import BatchFiller
from repro.serve.http import HttpApiServer
from repro.serve.registry import ModelRegistry
from repro.store import ModelStore
from repro.watch import (
    CallableSink,
    NotificationManager,
    RoutingPolicy,
    RowQuarantine,
    WatchDaemon,
)

BENCH_DIR = Path(__file__).resolve().parent

#: Seeds the *shape* of every workload (loadings, drift, hole patterns,
#: model variants), so that the work an operation does is the same for
#: every ``--seed``; the run's seed draws the values.
SHAPE_SEED = 20261017


def _drain(phase: Phase) -> None:
    """Move finished spans out of the 8192-span ring buffer."""
    phase.spans.extend(get_tracer().drain())


def _factor_rows(
    rng: np.random.Generator, loadings: np.ndarray, scales, n: int, noise: float
) -> np.ndarray:
    """``n`` rows of a latent-factor table: factors @ loadings + noise."""
    factors = rng.normal(0.0, 1.0, (n, loadings.shape[0])) * scales
    rows = factors @ loadings + 20.0
    return rows + rng.normal(0.0, noise, rows.shape)


def _write_rowstore(path: Path, blocks, schema: TableSchema) -> None:
    with RowStore.create(path, schema) as store:
        for block in blocks:
            store.append(block)


def _write_csv(path: Path, matrix: np.ndarray, names) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        np.savetxt(handle, matrix, fmt="%.17g", delimiter=",")


class Workload:
    """Shared shape: prepare once, then sessions of set-up + timed phase."""

    name = ""
    #: Sessions per run; each one's set-up time is one ``setup_s`` sample.
    min_sessions = 3
    #: Per-layer metrics that partition the op time, for the ledger print.
    ledger_parts: Tuple[str, ...] = ()
    #: ``span name -> per-layer metric`` for :meth:`_ledger`.
    span_layers: Dict[str, str] = {}
    #: ``(math-only reference rate, workload rate / reference)`` pairs.
    ratios: Tuple[Tuple[str, str], ...] = ()
    #: ``(name, unit)`` of per-layer metrics that ``BENCHMARK.json`` does not
    #: declare, because no workload it runs has them.
    extra_layers: Tuple[Tuple[str, str], ...] = ()

    def __init__(self, work: Path, seed: int, *, smoke: bool = False) -> None:
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.notes: List[str] = []
        self._child_peak = 0

    def prepare(self) -> None:
        """Make the seeded inputs (not timed)."""

    def setup(self) -> float:
        """Program-side set-up of one session; returns its seconds."""
        raise NotImplementedError

    def run_phase(self, budget: float) -> Phase:
        raise NotImplementedError

    def teardown(self) -> None:
        """End one session."""

    def close(self) -> None:
        """Stop everything the workload started."""

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        """Ledger times plus every counter, per operation."""
        return {**self._ledger(phase), **phase.per_op()}

    def references(self) -> Dict[str, float]:
        """Math-only reference rates (traced runs only)."""
        return {}

    def verify_payload(self):
        """What the runner hands back for :meth:`verify` (JSON-able)."""
        return None

    def verify(self, payload) -> int:
        """Output checks made after the runner exited, so they stay out
        of the program's peak RSS; returns the ops that failed."""
        return 0

    def peak_rss_bytes(self) -> int:
        return vm_hwm_bytes(os.getpid()) + self._child_peak

    def _ledger(self, phase: Phase, root: str = "bench.op") -> Dict[str, float]:
        """Per-op seconds of each layer; the root's own time is 'other'."""
        totals, n_roots = attribute(phase.spans, root)
        values: Dict[str, float] = {}
        unknown = set()
        for name, seconds in totals.items():
            layer = self.span_layers.get(name)
            if layer is None:
                unknown.add(name)
                layer = self.span_layers[root]
            values[layer] = values.get(layer, 0.0) + seconds / max(n_roots, 1)
        if unknown:
            self.notes.append(
                f"spans without a layer, counted as other: {sorted(unknown)}"
            )
        values["ledger.op_s"] = sum(totals.values()) / max(n_roots, 1)
        return values


# -- mine -------------------------------------------------------------------


class Mine(Workload):
    """Fit a Quest-like row store on a 2-worker process pool, repeatedly.

    The scan, accumulate and merge layers do almost all the work here and
    none in the other workloads (paper Fig. 8 shape: N x 100).
    """

    name = "mine"
    ratios = (("covariance.rows_per_s", "engine.vs_accumulate"),)
    ledger_parts = (
        "engine.plan_s",
        "engine.dispatch_s",
        "engine.scan_s",
        "engine.merge_s",
        "linalg.solve_s",
        "mine.other_s",
    )
    span_layers = {
        "bench.op": "mine.other_s",
        "engine.scan": "engine.dispatch_s",
        "engine.plan": "engine.plan_s",
        "scan.chunk": "engine.scan_s",
        "engine.merge": "engine.merge_s",
    }

    def prepare(self) -> None:
        self.n_rows = 20_000 if self.smoke else 400_000
        self.path = self.work / "quest.rrs"
        generator = QuestBasketGenerator(100, seed=SHAPE_SEED)
        generator.write_rowstore(self.path, self.n_rows, seed=self.seed)
        self.fitted: List[Tuple[str, int]] = []

    def _fit(self) -> RatioRuleModel:
        return fit_sharded([str(self.path)], executor="process", max_workers=2)

    def setup(self) -> float:
        shutdown_pools()
        started = time.perf_counter()
        self._fit()  # spawns the pool and warms it
        return time.perf_counter() - started

    def run_phase(self, budget: float) -> Phase:
        phase = Phase()
        end = time.perf_counter() + budget
        while time.perf_counter() < end:
            with span("bench.op"):
                started = time.perf_counter()
                model = self._fit()
                seconds = time.perf_counter() - started
            metrics = model.metrics_
            self.fitted.append((model.fingerprint(), metrics.n_chunks))
            phase.record(seconds, metrics.n_rows, True)
            phase.add(
                {
                    "engine.chunks": metrics.n_chunks,
                    "engine.shm_handoffs": metrics.n_shm_handoffs,
                    "engine.pickled_handoffs": metrics.n_pickled_handoffs,
                    "engine.retries": metrics.n_retries,
                    "linalg.solve_s": metrics.solve_seconds,
                }
            )
            _drain(phase)
        return phase

    def verify_payload(self):
        return self.fitted

    def verify(self, payload) -> int:
        """Each fit must be bit-identical to a serial scan of the same chunk
        plan, which must agree to round-off with one sequential
        ``RatioRuleModel.fit`` (chunked Chan merges and one running sum
        differ in the last bits)."""
        single = RatioRuleModel().fit(str(self.path))
        references: Dict[int, str] = {}
        failed = 0
        for fingerprint, n_chunks in payload:
            if n_chunks not in references:
                serial = fit_sharded(
                    [str(self.path)], executor="serial", target_chunks=n_chunks
                )
                close = (
                    single.k == serial.k
                    and np.allclose(single.means_, serial.means_, rtol=1e-9, atol=0)
                    and np.allclose(
                        np.abs(single.rules_matrix),
                        np.abs(serial.rules_matrix),
                        rtol=1e-7,
                        atol=1e-9,
                    )
                )
                references[n_chunks] = serial.fingerprint() if close else ""
            failed += fingerprint != references[n_chunks]
        return failed

    def teardown(self) -> None:
        children = child_pids(os.getpid())
        peak = sum(vm_hwm_bytes(pid) for pid in children)
        self._child_peak = max(self._child_peak, peak)
        self.close()

    def close(self) -> None:
        """Shut the pool down and wait for its workers to exit.

        The multiprocessing resource tracker (started by the shared-memory
        handoff) is not a worker: it exits on its own with this process.
        """
        workers = [pid for pid in child_pids(os.getpid()) if not _is_tracker(pid)]
        shutdown_pools()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and any(_alive(p) for p in workers):
            time.sleep(0.01)

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        values = super().layer_metrics(phase)
        values["mine.other_s"] = values.get("mine.other_s", 0.0) - values[
            "linalg.solve_s"
        ]
        return values

    def references(self) -> Dict[str, float]:
        """Bare ``StreamingCovariance.update`` over the same rows in memory."""
        with RowStore.open(self.path) as store:
            rows = np.array(store.memmap_matrix()[: min(self.n_rows, 65_536)])
        return {
            "covariance.rows_per_s": _rate(lambda: _accumulate(rows), rows.shape[0])
        }


def _is_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except OSError:
        return False


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _accumulate(rows: np.ndarray) -> None:
    accumulator = StreamingCovariance(rows.shape[1])
    for start in range(0, rows.shape[0], 4096):
        accumulator.update(rows[start : start + 4096])


def _rate(work, n_rows: int, seconds: float = 0.5) -> float:
    """Rows per second of ``work()`` repeated for about ``seconds``."""
    work()  # warm
    total = 0.0
    repeats = 0
    while total < seconds or repeats < 3:
        started = time.perf_counter()
        work()
        total += time.perf_counter() - started
        repeats += 1
    return n_rows * repeats / total


# -- fill -------------------------------------------------------------------


class Fill(Workload):
    """One large holey table through a cold ``BatchFiller`` per operation.

    The only workload where pattern grouping, operator build and the
    apply kernel dominate.

    Not in ``BENCHMARK.json``: its one-thread operations follow the speed
    of the CPU they run on, which on a shared 2-vCPU host swings by 30-40%
    for minutes at a time, so the op_p50_ms spread of ten runs read from
    0.07 to 0.38, and the largest bound a metric may have is 0.25.
    (``mine`` spreads its work over both CPUs, and ``serve`` waits on the
    delayed-ACK timer, so both stay steady on the same host.)
    """

    name = "fill"
    extra_layers = (
        ("fill.other_s", "s/op"),
        ("reconstruction.apply_rows_per_s", "1/s"),
        ("serve.vs_apply", "x"),
    )
    ratios = (("reconstruction.apply_rows_per_s", "serve.vs_apply"),)
    ledger_parts = (
        "serve.group_s",
        "serve.operator_build_s",
        "serve.apply_s",
        "fill.other_s",
    )
    span_layers = {
        "bench.op": "fill.other_s",
        "serve.fill_batch": "serve.group_s",
        "serve.group_apply": "serve.apply_s",
        "serve.operator_build": "serve.operator_build_s",
        "serve.publish": "fill.other_s",
    }
    N_COLS = 32
    N_PATTERNS = 256
    HOLES = 6

    def prepare(self) -> None:
        shape = np.random.default_rng(SHAPE_SEED)
        rng = np.random.default_rng(self.seed)
        n_train = 5_000 if self.smoke else 200_000
        n_table = 2_048 if self.smoke else 25_600
        loadings = shape.normal(0.0, 1.0, (4, self.N_COLS))
        scales = np.array([8.0, 5.0, 3.0, 2.0])
        schema = TableSchema.generic(self.N_COLS)
        self.train_path = self.work / "fill-train.rrs"
        _write_rowstore(
            self.train_path,
            (
                _factor_rows(rng, loadings, scales, min(20_000, n_train - s), 0.5)
                for s in range(0, n_train, 20_000)
            ),
            schema,
        )
        # 256 distinct patterns of HOLES holes each, every one on the same
        # number of rows, in a seeded row order.
        patterns = set()
        while len(patterns) < self.N_PATTERNS:
            holes = shape.choice(self.N_COLS, self.HOLES, replace=False)
            patterns.add(tuple(sorted(holes)))
        masks = np.zeros((self.N_PATTERNS, self.N_COLS), dtype=bool)
        for i, holes in enumerate(sorted(patterns)):
            masks[i, list(holes)] = True
        table = _factor_rows(rng, loadings, scales, n_table, 0.5)
        table[masks[rng.permutation(np.arange(n_table) % self.N_PATTERNS)]] = np.nan
        self.requests_path = self.work / "fill-requests.csv"
        _write_csv(self.requests_path, table, schema.names)
        self.sample = np.sort(rng.choice(n_table, min(2_000, n_table), replace=False))
        self.model_path = self.work / "fill-model.npz"
        self.expected: Optional[np.ndarray] = None
        self.model_fp = ""

    def setup(self) -> float:
        """Fit and save the model, then load it and the request table, as
        ``ratio-rules fit --save`` followed by ``serve-batch`` does."""
        started = time.perf_counter()
        model = RatioRuleModel().fit(str(self.train_path))
        model.save(self.model_path)
        self.model = RatioRuleModel.load(self.model_path)
        self.table, _ = load_csv_matrix(self.requests_path)
        seconds = time.perf_counter() - started
        if self.model.fingerprint() != self.model_fp:
            reference = BatchFiller(self.model).fill_reference(self.table[self.sample])
            self.expected = reference.filled
            self.model_fp = self.model.fingerprint()
        return seconds

    def run_phase(self, budget: float) -> Phase:
        phase = Phase()
        BatchFiller(self.model).fill_batch(self.table)  # warm-up, untimed
        get_tracer().drain()
        end = time.perf_counter() + budget
        while time.perf_counter() < end:
            with span("bench.op"):
                started = time.perf_counter()
                filler = BatchFiller(self.model)
                result = filler.fill_batch(self.table)
                seconds = time.perf_counter() - started
            filled = result.filled
            ok = bool(
                np.array_equal(filled[self.sample], self.expected)
                and not np.isnan(filled).any()
            )
            phase.record(seconds, filled.shape[0], ok)
            phase.add(
                {
                    "serve.groups": result.n_groups,
                    "cache.hits": filler.metrics.cache_hits,
                    "cache.misses": filler.metrics.cache_misses,
                }
            )
            _drain(phase)
        return phase

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        values = super().layer_metrics(phase)
        values["cache.hit_rate"] = _hit_rate(values)
        return values

    def references(self) -> Dict[str, float]:
        """Bare ``apply_fill_operator`` on the table's rows, pre-grouped."""
        model = self.model
        means, rules = model.means_, model.rules_matrix
        masks, inverse = np.unique(np.isnan(self.table), axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        groups = []
        for group, mask in enumerate(masks):
            holes = np.nonzero(mask)[0]
            rows = np.nonzero(inverse == group)[0]
            op = compute_fill_operator(tuple(holes), rules, self.N_COLS)
            known = op.known_indices
            groups.append((op.operator, self.table[np.ix_(rows, known)] - means[known]))

        def apply_all() -> None:
            for operator, centered in groups:
                apply_fill_operator(operator, centered)

        return {
            "reconstruction.apply_rows_per_s": _rate(apply_all, self.table.shape[0])
        }


# -- ingest -----------------------------------------------------------------


class TimedSource:
    """Timing proxy around a :class:`~repro.pipeline.CSVTailSource`; also
    remembers where each polled batch starts in the file."""

    def __init__(self, inner: CSVTailSource) -> None:
        self._inner = inner
        self.rows_polled = 0
        self.last_start = 0
        self.last_batch: Optional[np.ndarray] = None

    def poll(self, max_rows: int):
        with span("bench.source.poll"):
            batch = self._inner.poll(max_rows)
        self.last_start = self.rows_polled
        self.last_batch = batch
        if batch is not None:
            self.rows_polled += len(batch)
        return batch

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TimedDriftDetector(DriftDetector):
    """The default detector with a span around the reservoir update."""

    def observe(self, rows: np.ndarray) -> None:
        with span("bench.drift.observe"):
            super().observe(rows)


class TimedModelStore(ModelStore):
    """A model store with spans around publish and load."""

    def publish(self, model, **kwargs):
        with span("bench.store.publish"):
            return super().publish(model, **kwargs)

    def load(self, *args, **kwargs):
        with span("bench.store.load"):
            return super().load(*args, **kwargs)


class Ingest(Workload):
    """A watch daemon catching up on a pre-written CSV with drift.

    Parse, drift, clean/route, quarantine, fold and publish carry the
    load; accumulate is about 1%.  Each session is one complete pass over
    the file, so routing and refresh counts must repeat exactly.

    Not in ``BENCHMARK.json``: the daemon admits some of the injected
    outliers on every pass (the whole first batch after each refresh passes
    unscored while the calibration warms up, and drift inflates the
    calibration so that others score under ``clean_sigmas``), so every pass
    has failed steps.  The check stays; the workload rejoins the benchmark
    once the daemon passes it.
    """

    name = "ingest"
    min_sessions = 2
    extra_layers = (
        ("source.poll_s", "s/op"),
        ("source.rows", "1/op"),
        ("pipeline.fold_s", "s/op"),
        ("drift.observe_s", "s/op"),
        ("pipeline.drift_s", "s/op"),
        ("pipeline.refresh_s", "s/op"),
        ("pipeline.drift_evals", "1/op"),
        ("pipeline.refreshes", "1/op"),
        ("watch.score_s", "s/op"),
        ("watch.clean_s", "s/op"),
        ("watch.quarantine_s", "s/op"),
        ("watch.other_s", "s/op"),
        ("watch.rows_passed", "1/op"),
        ("watch.rows_cleaned", "1/op"),
        ("watch.rows_quarantined", "1/op"),
        ("watch.outliers_unscored", "1/op"),
        ("watch.outliers_missed", "1/op"),
        ("watch.events", "1/op"),
        ("watch.sink_failures", "1/op"),
    )
    ledger_parts = (
        "source.poll_s",
        "watch.score_s",
        "watch.clean_s",
        "watch.quarantine_s",
        "pipeline.fold_s",
        "drift.observe_s",
        "pipeline.drift_s",
        "pipeline.refresh_s",
        "store.publish_s",
        "watch.other_s",
    )
    span_layers = {
        "bench.op": "watch.other_s",
        "bench.source.poll": "source.poll_s",
        "watch.score": "watch.score_s",
        "watch.clean": "watch.clean_s",
        "watch.quarantine": "watch.quarantine_s",
        "pipeline.fold": "pipeline.fold_s",
        "bench.drift.observe": "drift.observe_s",
        "pipeline.drift": "pipeline.drift_s",
        "drift.guessing_error": "pipeline.drift_s",
        "drift.rule_angle": "pipeline.drift_s",
        "pipeline.policy": "pipeline.drift_s",
        "pipeline.refresh": "pipeline.refresh_s",
        "serve.publish": "pipeline.refresh_s",
        "bench.store.publish": "store.publish_s",
        "bench.store.load": "store.load_s",
    }
    N_COLS = 16
    OUTLIER_SHARE = 0.005
    DRIFT_PERIOD = 5_000

    def prepare(self) -> None:
        shape = np.random.default_rng(SHAPE_SEED)
        rng = np.random.default_rng(self.seed)
        n_train = 5_000 if self.smoke else 50_000
        n_feed = 8_000 if self.smoke else 100_000
        base = shape.normal(0.0, 1.0, (3, self.N_COLS))
        drift = shape.normal(0.0, 1.5, (3, self.N_COLS))
        scales = np.array([6.0, 3.0, 1.5])
        names = [f"c{i:02d}" for i in range(self.N_COLS)]
        train = _factor_rows(rng, base, scales, n_train, 0.3)
        self.train_path = self.work / "ingest-train.csv"
        _write_csv(self.train_path, train, names)
        # Gradual loading drift: the loadings swing out to base + drift and
        # back every DRIFT_PERIOD rows, so a pass holds many drift cycles
        # and its refresh and cleaning counts vary little between seeds.
        phase = 2.0 * np.pi * np.arange(n_feed) / self.DRIFT_PERIOD
        share = (0.5 * (1.0 - np.cos(phase)))[:, None, None]
        factors = rng.normal(0.0, 1.0, (n_feed, 3)) * scales
        feed = np.einsum("nk,nkm->nm", factors, base[None] + share * drift[None])
        feed += 20.0 + rng.normal(0.0, 0.3, feed.shape)
        # Outliers: one cell moved by 10 standard deviations of its column.
        n_outliers = round(self.OUTLIER_SHARE * n_feed)
        outliers = np.sort(rng.choice(n_feed, n_outliers, replace=False))
        columns = rng.integers(0, self.N_COLS, outliers.size)
        signs = rng.choice([-1.0, 1.0], outliers.size)
        feed[outliers, columns] += signs * 10.0 * train.std(axis=0)[columns]
        self.is_outlier = np.zeros(n_feed, dtype=bool)
        self.is_outlier[outliers] = True
        self.feed_path = self.work / "ingest-feed.csv"
        _write_csv(self.feed_path, feed, names)
        self._feed = feed
        self.passes: List[Tuple[str, int]] = []
        self.pass_index = 0
        self.first_signature: Optional[tuple] = None
        self.notes.append(
            f"ingest: {n_feed} rows x {self.N_COLS} cols, "
            f"{outliers.size} injected outliers"
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_feed"]  # only the checks in this process need it
        return state

    def setup(self) -> float:
        self.pass_index += 1
        pass_dir = self.work / f"ingest-pass-{self.pass_index}"
        self.pass_dir = pass_dir
        self.events: List = []
        started = time.perf_counter()
        self.store = TimedModelStore(pass_dir / "store")
        seed_model = RatioRuleModel().fit(str(self.train_path))
        registry = ModelRegistry(store=self.store, namespace="ingest")
        registry.publish(seed_model)
        self.source = TimedSource(CSVTailSource(self.feed_path, follow=False))
        self.quarantine = RowQuarantine(pass_dir / "quarantine.jsonl")
        self.daemon = WatchDaemon(
            self.source,  # type: ignore[arg-type]
            quarantine=self.quarantine,
            policy=RoutingPolicy(),
            registry=registry,
            refresh_policy=RefreshPolicy(min_rows=256),
            detector=TimedDriftDetector(),
        )
        self.daemon.notifier = NotificationManager(
            [CallableSink(self.events.append)], metrics=self.daemon.metrics
        )
        return time.perf_counter() - started

    def run_phase(self, budget: float) -> Phase:
        """One complete pass over the file (``budget`` is not used).

        An op fails when its routing counts do not account for every
        polled row, or when an injected outlier of its batch was admitted
        instead of cleaned or quarantined: passed unscored in a calibration
        warm-up batch (``watch.outliers_unscored``) or passed by a scored
        batch (``watch.outliers_missed``).  A pass fails when its counts
        differ from the first pass of the run, or (see :meth:`verify`) when
        its quarantine does not hold the quarantined rows bit for bit.
        """
        phase = Phase()
        daemon, source = self.daemon, self.source
        watch = daemon.metrics
        outliers = {"unscored": 0, "missed": 0}
        alive = True
        while alive:
            scored_model = daemon.registry.current().model
            before = self._routed(watch)
            n_events = len(self.events)
            with span("bench.op"):
                started = time.perf_counter()
                alive = daemon.step()
                seconds = time.perf_counter() - started
            batch = source.last_batch
            n_rows = 0 if batch is None else len(batch)
            ok = int((self._routed(watch) - before).sum()) == n_rows
            if n_rows:
                start = source.last_start
                injected = np.nonzero(self.is_outlier[start : start + n_rows])[0]
                if watch.rows_unscored > before[3]:
                    # A calibration warm-up batch passes every row unscored.
                    outliers["unscored"] += injected.size
                    ok = ok and injected.size == 0
                elif injected.size:
                    missed = self._admitted(
                        scored_model, batch, injected, self.events[n_events:]
                    )
                    outliers["missed"] += missed
                    ok = ok and missed == 0
            phase.record(seconds, n_rows, ok)
            _drain(phase)
        pipe, store = daemon.pipeline_metrics, self.store.metrics
        self.passes.append((str(self.pass_dir), watch.rows_quarantined))
        signature = (
            watch.rows_passed,
            watch.rows_cleaned,
            watch.rows_quarantined,
            watch.rows_unscored,
            pipe.n_drift_evaluations,
            pipe.n_refreshes,
            tuple(sorted(pipe.refresh_reasons.items())),
            outliers["unscored"],
            outliers["missed"],
        )
        if self.first_signature is None:
            self.first_signature = signature
            self.notes.append(
                "ingest pass counts (passed, cleaned, quarantined, unscored, "
                "drift evals, refreshes, reasons, outliers unscored, outliers "
                f"missed): {signature}"
            )
        elif signature != self.first_signature:
            phase.failed += 1
            self.notes.append(f"ingest: pass counts differ: {signature}")
        phase.add(
            {
                "source.rows": source.rows_polled,
                "pipeline.drift_evals": pipe.n_drift_evaluations,
                "pipeline.refreshes": pipe.n_refreshes,
                "watch.rows_passed": watch.rows_passed,
                "watch.rows_cleaned": watch.rows_cleaned,
                "watch.rows_quarantined": watch.rows_quarantined,
                "watch.outliers_unscored": outliers["unscored"],
                "watch.outliers_missed": outliers["missed"],
                "watch.events": watch.n_events,
                "watch.sink_failures": watch.n_sink_failures,
                "store.publishes": store.n_publishes,
                "store.loads": store.n_loads,
                "store.sync_swaps": store.n_sync_swaps,
            }
        )
        return phase

    @staticmethod
    def _routed(watch) -> np.ndarray:
        """Per-verdict row counts: passed, cleaned, quarantined, unscored."""
        return np.array(
            [
                watch.rows_passed,
                watch.rows_cleaned,
                watch.rows_quarantined,
                watch.rows_unscored,
            ]
        )

    @staticmethod
    def _admitted(model, batch, injected, events) -> int:
        """Injected outliers of a scored batch that were neither cleaned nor
        quarantined: their residual is missing from the routing events."""
        flagged = {
            event.payload["residual"]
            for event in events
            if event.kind in ("row-cleaned", "row-quarantined")
        }
        residuals = reconstruction_residuals(model, np.asarray(batch, dtype=np.float64))
        return sum(float(residuals[i]) not in flagged for i in injected)

    def verify_payload(self):
        return self.passes

    def verify(self, payload) -> int:
        """Each pass's quarantine holds exactly its quarantined rows, bit
        for bit, as feed rows in stream order."""
        index = {row.tobytes(): i for i, row in enumerate(self._feed)}
        failed = 0
        for pass_dir, expected in payload:
            records = RowQuarantine(Path(pass_dir) / "quarantine.jsonl").read_all()
            rows = [
                index.get(RowQuarantine.decode_values(r).tobytes()) for r in records
            ]
            exact = (
                len(rows) == expected
                and None not in rows
                and rows == sorted(set(rows))
            )
            failed += not exact
        return failed

    def teardown(self) -> None:
        self.daemon.notifier.close()
        self.source.close()


# -- serve ------------------------------------------------------------------


class Serve(Workload):
    """An HTTP server over a model store, a separate client process, and a
    new model version published once per second.

    The handler, coalescer and store adoption do the work; the fill kernel
    is under 1%.  ``max_batch_rows`` equals the connection count so every
    flush fires on count, never on the deadline timer.
    """

    name = "serve"
    #: Whether what-ifs scale an attribute (``serve-scale``) or only set
    #: attributes.  The server takes a scaled attribute's baseline from the
    #: model current when the request arrives but fills the row with, and
    #: names, the model current at the flush, so a what-if that straddles
    #: a hot swap mixes two versions and fails its check: a program defect.
    scale = False
    #: Set-up is a few milliseconds of store writes and connects; more
    #: sessions give its median more samples.
    min_sessions = 6
    span_layers = {
        "serve.fill_batch": "serve.group_s",
        "serve.group_apply": "serve.apply_s",
        "serve.operator_build": "serve.operator_build_s",
    }
    N_COLS = 16
    N_CONNECTIONS = 2
    N_MODELS = 4
    N_PATTERNS = 64

    def prepare(self) -> None:
        shape = np.random.default_rng(SHAPE_SEED)
        rng = np.random.default_rng(self.seed)
        n_train = 2_000 if self.smoke else 20_000
        base = shape.normal(0.0, 1.0, (3, self.N_COLS))
        scales = np.array([6.0, 3.0, 1.5])
        self.model_paths = []
        self.train_path = self.work / "serve-train.csv"
        for i in range(self.N_MODELS):
            loadings = base + 0.2 * i * shape.normal(0.0, 1.0, base.shape)
            rows = _factor_rows(rng, loadings, scales, n_train, 0.3)
            if i == 0:
                # The seed model: set-up fits it again from this CSV.
                names = TableSchema.generic(self.N_COLS).names
                _write_csv(self.train_path, rows, names)
                model = RatioRuleModel().fit(str(self.train_path))
            else:
                model = RatioRuleModel().fit(rows)
            path = self.work / f"serve-model-{i}.npz"
            model.save(path)
            self.model_paths.append(str(path))
        # 64 hole patterns: the operator cache warms within a model
        # version and goes cold each time the server adopts a new one.
        masks = shape.random((self.N_PATTERNS, self.N_COLS)) < 0.2
        masks[~masks.any(axis=1), 0] = True
        requests = _factor_rows(rng, base, scales, 4096, 0.3)
        requests[masks[rng.integers(0, self.N_PATTERNS, len(requests))]] = np.nan
        self.requests_path = self.work / "serve-requests.npy"
        np.save(self.requests_path, requests)
        self.session = 0
        self.client: Optional[subprocess.Popen] = None
        self.server: Optional[HttpApiServer] = None

    def setup(self) -> float:
        """Fit the seed model from its training CSV, mount the store,
        publish the model, start the server and connect the client, as
        ``ratio-rules fit`` followed by ``serve-http --store`` does.  The
        client process is started and has done its imports before the
        timer starts: it is the load generator, not the program, so only
        its connect time counts."""
        self.session += 1
        session_dir = self.work / f"serve-session-{self.session}"
        self.result_path = session_dir / "client.json"
        self.client = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "serve_client.py"),
                str(self.requests_path),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._expect("loaded")
        started = time.perf_counter()
        seed_model = RatioRuleModel().fit(str(self.train_path))
        self.store = TimedModelStore(session_dir / "store")
        seed_version = self.store.publish(seed_model).version
        self.server = HttpApiServer(store=self.store, max_batch_rows=self.N_CONNECTIONS)
        port = self.server.start()
        server_s = time.perf_counter() - started
        config = {
            "port": port,
            "store": str(session_dir / "store"),
            "seed_version": seed_version,
            "models": self.model_paths,
            "connections": self.N_CONNECTIONS,
            "scale": self.scale,
            "seed": self.seed * 1000 + self.session,
            "out": str(self.result_path),
        }
        self.client.stdin.write(json.dumps(config) + "\n")
        self.client.stdin.flush()
        return server_s + float(self._expect("ready")[0])

    def _expect(self, word: str) -> List[str]:
        """Read the client's next status line; returns the words after ``word``."""
        line = self.client.stdout.readline()
        fields = line.split()
        if fields[:1] != [word]:
            raise RuntimeError(f"serve client: expected {word!r}, got {line!r}")
        return fields[1:]

    def run_phase(self, budget: float) -> Phase:
        assert self.client is not None and self.server is not None
        phase = Phase()
        stop = threading.Event()

        def drain_spans() -> None:
            while not stop.wait(0.25):
                _drain(phase)

        drainer = threading.Thread(target=drain_spans, daemon=True)
        drainer.start()
        self.client.stdin.write(json.dumps({"seconds": budget}) + "\n")
        self.client.stdin.flush()
        line = self.client.stdout.readline()
        # The window closed: snapshot server-side figures before the
        # stop below drains any request still waiting for a partner.
        http = self.server.metrics.to_dict()
        fills = self.server.filler.metrics.to_dict()
        store = self.store.metrics.to_dict()
        stop.set()
        drainer.join()
        _drain(phase)
        self.server.stop()
        self._wait_client()
        if line.strip() != "done":
            raise RuntimeError(f"serve client failed: {line!r}")
        with open(self.result_path) as handle:
            client = json.load(handle)
        for seconds, ok in zip(client["latencies"], client["ok"]):
            phase.record(seconds, 1, ok)
        phase.busy = client["window_s"]
        phase.unfinished = client["unfinished"]
        # Medians are stored times the request count, so that the per-op
        # counters of several sessions give a request-weighted mean median.
        n = len(client["latencies"])
        wait_p50 = percentile(http["coalesce_waits"], 50)
        fill_p50 = percentile(fills["batch_latencies"], 50)
        phase.add(
            {
                "ledger.op_s": percentile(client["latencies"], 50) * n,
                "http.queue_wait_p50_ms": 1e3 * wait_p50 * n,
                "http.flush_fill_p50_ms": 1e3 * fill_p50 * n,
                "http.shed": http["n_shed_queue_full"],
                "http.expired": http["n_expired"],
                "http.errors": http["n_errors"],
                "cache.hits": fills["cache_hits"],
                "cache.misses": fills["cache_misses"],
                "serve.groups": fills["n_groups"],
                "store.publishes": client["publishes"],
                "store.publish_s": client["publish_s"],
                "store.loads": store["n_loads"],
                "store.load_s": store["load_seconds"],
                "store.sync_swaps": store["n_sync_swaps"],
                "flushes": http["n_flushes"],
                "flushed_rows": http["n_rows_coalesced"],
                "short_flushes": sum(
                    size < self.N_CONNECTIONS for size in http["flush_sizes"]
                ),
            }
        )
        self.notes.append(
            f"serve session {self.session}: {len(client['latencies'])} requests "
            f"in {client['window_s']:.2f} s, {client['failures']} failed checks, "
            f"{client['publishes']} versions published, "
            f"{store['n_sync_swaps']} adopted by the server"
        )
        return phase

    def _wait_client(self) -> None:
        if self.client is None:
            return
        try:
            self.client.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.client.kill()
            self.client.communicate()
        self.client = None

    def teardown(self) -> None:
        self.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.client is not None:
            self.client.kill()
            self._wait_client()

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        values = phase.per_op()
        flushes = values.pop("flushes")
        flushed_rows = values.pop("flushed_rows")
        short_flushes = values.pop("short_flushes")
        n = max(len(phase.latencies), 1)
        totals, _ = attribute(phase.spans, "serve.fill_batch")
        for name, seconds in totals.items():
            values[self.span_layers[name]] = seconds / n
        values["cache.hit_rate"] = _hit_rate(values)
        values["http.rows_per_flush"] = flushed_rows / flushes if flushes else 0.0
        values["http.short_flush_share"] = short_flushes / flushes if flushes else 0.0
        client_p50 = 1e3 * values["ledger.op_s"]
        wait_p50 = values["http.queue_wait_p50_ms"]
        fill_p50 = values["http.flush_fill_p50_ms"]
        values["http.unattributed_ms"] = client_p50 - wait_p50
        self.notes.append(
            f"serve ledger (median request {client_p50:.3f} ms): queue wait "
            f"{wait_p50 - fill_p50:.3f} ms + flush fill {fill_p50:.3f} ms + "
            f"unattributed (socket, parse, encode) {client_p50 - wait_p50:.3f} ms"
        )
        return values


class ServeScale(Serve):
    """``serve`` with scaled what-ifs; not in ``BENCHMARK.json``, because
    the program fails its check (see :attr:`Serve.scale`)."""

    name = "serve-scale"
    scale = True


def _hit_rate(values: Dict[str, float]) -> float:
    lookups = values.get("cache.hits", 0.0) + values.get("cache.misses", 0.0)
    return values.get("cache.hits", 0.0) / lookups if lookups else 0.0


WORKLOADS = {cls.name: cls for cls in (Mine, Fill, Ingest, Serve, ServeScale)}
