"""Unit tests for the vectorized, cached batch filler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.core.reconstruction import (
    CASE_ALL_HOLES,
    CASE_NO_HOLES,
    fill_matrix,
)
from repro.obs.metrics import ServeMetrics
from repro.serve import BatchFiller, ModelRegistry, OperatorCache
from repro.serve.batch import group_hole_patterns

from tests.serve.conftest import make_rank2_matrix, punch_holes

pytestmark = pytest.mark.serve


@pytest.fixture
def holey_batch(served_model):
    generator = np.random.default_rng(99)
    return punch_holes(make_rank2_matrix(13, n_rows=60), generator)


class TestExactness:
    def test_batch_matches_fill_matrix_bitwise(self, served_model, holey_batch):
        filler = BatchFiller(served_model)
        result = filler.fill_batch(holey_batch)
        expected = fill_matrix(
            holey_batch, served_model.rules_matrix, served_model.means_
        )
        np.testing.assert_array_equal(result.filled, expected)

    def test_batch_matches_row_by_row_reference_bitwise(
        self, served_model, holey_batch
    ):
        filler = BatchFiller(served_model)
        batched = filler.fill_batch(holey_batch)
        reference = filler.fill_reference(holey_batch)
        np.testing.assert_array_equal(batched.filled, reference.filled)
        assert batched.cases == reference.cases
        assert batched.n_groups == reference.n_groups
        assert batched.n_holes_filled == reference.n_holes_filled

    def test_warm_cache_is_bitwise_identical_to_cold(
        self, served_model, holey_batch
    ):
        filler = BatchFiller(served_model)
        cold = filler.fill_batch(holey_batch)
        assert filler.cache.misses > 0
        warm = filler.fill_batch(holey_batch)
        assert filler.cache.hits >= filler.cache.misses
        np.testing.assert_array_equal(warm.filled, cold.filled)

    def test_fill_row_matches_row_inside_batch(self, served_model, holey_batch):
        filler = BatchFiller(served_model)
        batched = filler.fill_batch(holey_batch)
        for i in (0, 17, 59):
            single = filler.fill_row(holey_batch[i])
            np.testing.assert_array_equal(single.filled[0], batched.filled[i])

    def test_min_norm_policy_matches_reference(self, served_model):
        generator = np.random.default_rng(5)
        batch = punch_holes(
            make_rank2_matrix(17, n_rows=40), generator, rate=0.7
        )
        filler = BatchFiller(served_model, underdetermined="min-norm")
        batched = filler.fill_batch(batch)
        reference = filler.fill_reference(batch)
        np.testing.assert_array_equal(batched.filled, reference.filled)


class TestFastPaths:
    def test_zero_hole_rows_never_touch_the_cache(self, served_model):
        complete = make_rank2_matrix(19, n_rows=10)
        filler = BatchFiller(served_model)
        result = filler.fill_batch(complete)
        np.testing.assert_array_equal(result.filled, complete)
        assert result.cases == (CASE_NO_HOLES,) * 10
        assert result.n_groups == 0
        assert result.n_holes_filled == 0
        assert len(filler.cache) == 0
        assert filler.cache.misses == 0
        assert filler.metrics.n_rows_no_holes == 10

    def test_all_holes_rows_get_the_means(self, served_model):
        batch = np.full((3, 5), np.nan)
        filler = BatchFiller(served_model)
        result = filler.fill_batch(batch)
        for row in result.filled:
            np.testing.assert_array_equal(row, served_model.means_)
        assert result.cases == (CASE_ALL_HOLES,) * 3
        assert len(filler.cache) == 0  # degenerate pattern is not cached

    def test_empty_batch(self, served_model):
        filler = BatchFiller(served_model)
        result = filler.fill_batch(np.empty((0, 5)))
        assert result.n_rows == 0
        assert result.cases == ()
        assert result.n_groups == 0


class TestAttribution:
    def test_result_carries_version_and_fingerprint(
        self, served_model, retrained_model, holey_batch
    ):
        registry = ModelRegistry(served_model)
        filler = BatchFiller(registry)
        first = filler.fill_batch(holey_batch)
        registry.publish(retrained_model)
        second = filler.fill_batch(holey_batch)
        assert (first.version, second.version) == (1, 2)
        assert first.fingerprint == served_model.fingerprint()
        assert second.fingerprint == retrained_model.fingerprint()
        # Different learned state must actually produce different fills.
        assert not np.array_equal(first.filled, second.filled)

    def test_cache_keys_are_version_scoped(
        self, served_model, retrained_model, holey_batch
    ):
        registry = ModelRegistry(served_model)
        filler = BatchFiller(registry)
        filler.fill_batch(holey_batch)
        entries_v1 = len(filler.cache)
        registry.publish(retrained_model)
        filler.fill_batch(holey_batch)
        # Serving v2 for the first time evicts every retired v1
        # operator; v2 caches the same patterns under its own keys.
        assert not any(key[0] == 1 for key in filler.cache._entries)
        assert filler.cache.evict_version(1) == 0
        assert len(filler.cache) == entries_v1
        assert all(key[0] == 2 for key in filler.cache._entries)

    def test_straggler_batch_on_a_retired_version_is_evicted(
        self, served_model, retrained_model, holey_batch, monkeypatch
    ):
        registry = ModelRegistry(served_model)
        filler = BatchFiller(registry)
        stale = registry.current()
        registry.publish(retrained_model)
        filler.fill_batch(holey_batch)
        entries_v2 = len(filler.cache)
        # A batch that took its v1 snapshot just before the swap still
        # serves v1, but leaves none of its operators behind.
        monkeypatch.setattr(registry, "current", lambda: stale)
        assert filler.fill_batch(holey_batch).version == 1
        assert len(filler.cache) == entries_v2
        assert filler.cache.evict_version(1) == 0


class TestSharingAndValidation:
    def test_fillers_can_share_one_cache(self, served_model, holey_batch):
        cache = OperatorCache(64)
        first = BatchFiller(served_model, cache=cache)
        second = BatchFiller(served_model, cache=cache)
        first.fill_batch(holey_batch)
        misses_after_first = cache.misses
        second.fill_batch(holey_batch)
        # Same model object -> same fingerprint is irrelevant; keys are
        # version-scoped, and both private registries assign version 1.
        assert cache.misses == misses_after_first

    def test_width_mismatch_rejected(self, served_model):
        filler = BatchFiller(served_model)
        with pytest.raises(ValueError, match="columns"):
            filler.fill_batch(np.zeros((2, 4)))

    def test_one_dimensional_input_rejected(self, served_model):
        filler = BatchFiller(served_model)
        with pytest.raises(ValueError, match="2-d"):
            filler.fill_batch(np.zeros(5))
        with pytest.raises(ValueError, match="1-d"):
            filler.fill_row(np.zeros((2, 5)))

    def test_infinities_rejected(self, served_model):
        filler = BatchFiller(served_model)
        batch = np.zeros((2, 5))
        batch[0, 0] = np.inf
        with pytest.raises(ValueError, match="infinit"):
            filler.fill_batch(batch)

    def test_bad_underdetermined_policy_rejected(self, served_model):
        with pytest.raises(ValueError, match="underdetermined"):
            BatchFiller(served_model, underdetermined="zero")


class TestPatternGrouping:
    """The packed-byte grouping against ``np.unique(mask, axis=0)``,
    across widths on both sides of every byte boundary."""

    WIDTHS = (1, 7, 8, 9, 64, 65, 100)

    @staticmethod
    def _masks(n_cols: int, seed: int) -> np.ndarray:
        generator = np.random.default_rng(seed)
        n_patterns = 12
        patterns = generator.random((n_patterns, n_cols)) < 0.3
        patterns[0] = False  # no holes
        patterns[1] = True   # all holes
        if n_cols > 1:
            # Patterns differing only in the last column and in the
            # first: the bits nearest the padding and the sign byte.
            patterns[2] = patterns[3]
            patterns[2, -1] = not patterns[3, -1]
            patterns[4] = patterns[5]
            patterns[4, 0] = not patterns[5, 0]
        return patterns[generator.integers(0, n_patterns, 300)]

    @pytest.mark.parametrize("n_cols", WIDTHS)
    def test_groups_and_inverse_match_unique_axis0(self, n_cols):
        mask = self._masks(n_cols, seed=n_cols)
        expected, expected_inverse, expected_counts = np.unique(
            mask, axis=0, return_inverse=True, return_counts=True
        )
        first, inverse, counts = group_hole_patterns(mask)
        np.testing.assert_array_equal(mask[first], expected)
        np.testing.assert_array_equal(inverse, expected_inverse.ravel())
        np.testing.assert_array_equal(counts, expected_counts)
        # ``first`` is each group's first row, in row order.
        for group, row in enumerate(first):
            assert row == np.flatnonzero(inverse == group)[0]

    @pytest.mark.parametrize("n_cols", WIDTHS)
    def test_fill_batch_bit_identical_to_reference(self, n_cols):
        generator = np.random.default_rng(100 + n_cols)
        factors = generator.normal(0.0, 1.0, (400, 3))
        loadings = generator.normal(0.0, 1.0, (3, n_cols))
        train = factors @ loadings + generator.normal(0.0, 0.1, (400, n_cols))
        model = RatioRuleModel().fit(train + 10.0)
        batch = train[:300] + 10.0
        batch[self._masks(n_cols, seed=n_cols)] = np.nan
        filler = BatchFiller(model)
        fast = filler.fill_batch(batch)
        reference = filler.fill_reference(batch)
        np.testing.assert_array_equal(fast.filled, reference.filled)
        assert fast.cases == reference.cases
        assert fast.n_groups == reference.n_groups
        assert not np.isnan(fast.filled).any()


class TestScaledCells:
    def test_scaled_cells_use_the_pinned_means(self, served_model):
        filler = BatchFiller(served_model)
        batch = np.full((2, 5), np.nan)
        batch[0, 0] = 6.0
        scale = np.full((2, 5), np.nan)
        scale[0, 2] = 1.5
        scale[1, 3] = 0.5
        result = filler.fill_batch(batch, scale=scale)
        expected = batch.copy()
        expected[0, 2] = served_model.means_[2] * 1.5
        expected[1, 3] = served_model.means_[3] * 0.5
        np.testing.assert_array_equal(
            result.filled, filler.fill_reference(expected).filled
        )
        assert result.filled[0, 2] == served_model.means_[2] * 1.5

    def test_scale_shape_mismatch_rejected(self, served_model):
        filler = BatchFiller(served_model)
        with pytest.raises(ValueError, match="scale has shape"):
            filler.fill_batch(np.zeros((2, 5)), scale=np.ones((1, 5)))

    def test_overflowing_scale_rejected(self, served_model):
        filler = BatchFiller(served_model)
        with pytest.raises(ValueError, match="infinite"):
            filler.fill_batch(
                np.zeros((1, 5)), scale=np.array([[1e308] + [np.nan] * 4])
            )


class TestMetrics:
    def test_batch_counters(self, served_model):
        batch = make_rank2_matrix(23, n_rows=8)
        batch[0] = np.nan           # all holes
        batch[1, 2] = np.nan        # pattern {2}
        batch[2, 2] = np.nan        # pattern {2} again
        batch[3, 0] = np.nan        # pattern {0}
        metrics = ServeMetrics()
        filler = BatchFiller(served_model, metrics=metrics)
        filler.fill_batch(batch)
        assert metrics.n_batches == 1
        assert metrics.n_rows == 8
        assert metrics.n_rows_all_holes == 1
        assert metrics.n_rows_no_holes == 4
        assert metrics.n_rows_filled == 3
        assert metrics.n_holes_filled == 5 + 3
        assert sorted(metrics.group_sizes) == [1, 2]
        assert metrics.n_groups == 2
        assert metrics.n_publishes == 1  # the wrapped model's publish
        assert metrics.cache_misses == 2
        assert 0.0 <= metrics.cache_hit_rate <= 1.0
        assert metrics.rows_per_second > 0.0
