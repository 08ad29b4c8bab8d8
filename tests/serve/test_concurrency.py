"""Concurrency stress test: readers fill while a writer hot-swaps.

The registry's guarantee under test: swapping is atomic, every response
is attributable to exactly one published version, and a response's
payload always matches the model of the version it claims -- no torn
reads (version ``n`` with version ``n+1``'s arrays), no dropped
in-flight requests.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.core.reconstruction import fill_matrix
from repro.obs.metrics import ServeMetrics
from repro.serve import BatchFiller, ModelRegistry

from tests.serve.conftest import make_rank2_matrix, punch_holes

pytestmark = pytest.mark.serve

N_READERS = 6
N_VERSIONS = 8
FILLS_PER_READER = 40


def test_hot_swap_under_concurrent_fills():
    models = [
        RatioRuleModel(cutoff=2).fit(make_rank2_matrix(100 + i))
        for i in range(N_VERSIONS)
    ]
    batch = punch_holes(
        make_rank2_matrix(55, n_rows=12), np.random.default_rng(55)
    )
    # Ground truth per version, computed serially up front: if a fill
    # claims version v, its bits must match exactly this.
    expected = {
        version: fill_matrix(batch, model.rules_matrix, model.means_)
        for version, model in enumerate(models, start=1)
    }
    fingerprints = {
        version: model.fingerprint()
        for version, model in enumerate(models, start=1)
    }

    metrics = ServeMetrics()
    registry = ModelRegistry(models[0], metrics=metrics)
    filler = BatchFiller(registry, metrics=metrics)
    start = threading.Barrier(N_READERS + 1)
    observed = [[] for _ in range(N_READERS)]
    errors = []

    def reader(slot):
        try:
            start.wait()
            for _ in range(FILLS_PER_READER):
                result = filler.fill_batch(batch)
                observed[slot].append(result)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        start.wait()
        for model in models[1:]:
            registry.publish(model)

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(N_READERS)
    ]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    seen_versions = set()
    for slot in range(N_READERS):
        # No dropped requests: every fill produced a result.
        assert len(observed[slot]) == FILLS_PER_READER
        previous = 0
        for result in observed[slot]:
            # Attributable to exactly one published version ...
            assert result.version in expected
            # ... whose payload matches that version bit-for-bit (a torn
            # read mixing two versions' arrays could not pass this).
            np.testing.assert_array_equal(
                result.filled, expected[result.version]
            )
            assert result.fingerprint == fingerprints[result.version]
            # Versions never go backwards within one reader.
            assert result.version >= previous
            previous = result.version
            seen_versions.add(result.version)

    # The final version is always observed (the writer finishes before
    # the readers' last iterations in practice; guaranteed for reader
    # fills that start after the join of the writer -- at minimum the
    # set is non-empty and within the published range).
    assert seen_versions <= set(range(1, N_VERSIONS + 1))
    assert filler.metrics.n_publishes == N_VERSIONS
    assert filler.metrics.n_batches == N_READERS * FILLS_PER_READER


def test_swap_between_batches_changes_served_version():
    registry = ModelRegistry(
        RatioRuleModel(cutoff=2).fit(make_rank2_matrix(1))
    )
    filler = BatchFiller(registry)
    batch = punch_holes(
        make_rank2_matrix(2, n_rows=5), np.random.default_rng(2)
    )
    before = filler.fill_batch(batch)
    registry.publish(RatioRuleModel(cutoff=2).fit(make_rank2_matrix(3)))
    after = filler.fill_batch(batch)
    assert (before.version, after.version) == (1, 2)
    assert not np.array_equal(before.filled, after.filled)


def test_retired_versions_leave_no_operators_under_concurrent_fills():
    """Eviction bookkeeping is shared by every thread that fills: once
    the readers quiesce, no operator of a version older than the newest
    served may stay resident, however fills and swaps interleaved."""
    models = [
        RatioRuleModel(cutoff=2).fit(make_rank2_matrix(200 + i))
        for i in range(N_VERSIONS)
    ]
    batch = punch_holes(
        make_rank2_matrix(56, n_rows=12), np.random.default_rng(56)
    )
    registry = ModelRegistry(models[0])
    filler = BatchFiller(registry)
    start = threading.Barrier(N_READERS + 1)
    errors = []

    def reader():
        try:
            start.wait(timeout=10.0)
            for _ in range(FILLS_PER_READER):
                filler.fill_batch(batch)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        start.wait(timeout=10.0)
        for model in models[1:]:
            registry.publish(model)

    threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    newest = filler.fill_batch(batch).version
    assert newest == N_VERSIONS
    resident = {key[0] for key in filler.cache._entries}
    assert resident == {newest}
