"""Contract of `repro.utils.perf.WorkspaceCache`: one grow-only buffer per tag.

A tag names a use site, the shapes that pass through it vary with the batch
size, so the cache keeps one flat buffer per tag sized to the largest
request and hands out views of its head.  These tests pin that directly —
and, through one training + inference step per batch size, that the nn hot
paths leave one buffer per tag behind however many batch sizes they saw.
"""

import numpy as np

from repro.core.models import tiny_cnn_architecture
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.utils.perf import (PerfCounters, WorkspaceCache, axis_order, counters, track,
                              workspace_like, workspaces)


def fill_marker(buffer, value):
    buffer.fill(value)
    return buffer


class TestBasicReuse:
    def test_same_key_returns_same_buffer(self):
        cache = WorkspaceCache()
        first = cache.get("tag", (4, 4), np.float32)
        second = cache.get("tag", (4, 4), np.float32)
        assert first.__array_interface__["data"] == second.__array_interface__["data"]
        assert first.shape == second.shape == (4, 4)
        assert first.flags.c_contiguous and first.flags.writeable
        assert len(cache) == 1

    def test_distinct_tags_never_alias(self):
        cache = WorkspaceCache()
        buffers = [fill_marker(cache.get(tag, (4,), np.float32), value)
                   for value, tag in enumerate("abc")]
        assert len(cache) == 3
        for value, buffer in enumerate(buffers):
            np.testing.assert_array_equal(buffer, np.full(4, value, dtype=np.float32))
        assert not any(np.shares_memory(buffers[i], buffers[j])
                       for i in range(3) for j in range(i))

    def test_hit_and_miss_counters(self):
        cache = WorkspaceCache()
        with track() as delta:
            cache.get("t", (8,), np.float64)
            cache.get("t", (8,), np.float64)
        assert delta["workspace_misses"] == 1
        assert delta["workspace_hits"] == 1
        assert delta["workspace_bytes_allocated"] == 64


class TestOneBufferPerTag:
    def test_growing_shapes_keep_one_buffer_sized_to_the_largest(self):
        cache = WorkspaceCache()
        with track() as delta:
            for rows in (1, 3, 7, 16):
                array = cache.get("t", (rows, 5), np.float32)
                assert array.shape == (rows, 5) and array.dtype == np.float32
        assert len(cache) == 1
        assert cache.cached_bytes == 16 * 5 * 4
        assert delta["workspace_misses"] == 4  # every request outgrew the last

    def test_shrinking_request_reuses_the_buffer(self):
        cache = WorkspaceCache()
        big = cache.get("t", (16, 5), np.float32)
        with track() as delta:
            small = cache.get("t", (2, 5), np.float32)
            as_bool = cache.get("t", (3, 3), np.bool_)   # another dtype, same tag
            as_f64 = cache.get("t", (40,), np.float64)   # exactly the capacity
        assert delta == {"workspace_hits": 3}
        assert all(np.shares_memory(big, view) for view in (small, as_bool, as_f64))
        assert as_bool.dtype == np.bool_ and as_f64.dtype == np.float64
        assert cache.cached_bytes == 16 * 5 * 4

    def test_empty_request(self):
        cache = WorkspaceCache()
        assert cache.get("t", (0, 4), np.float32).shape == (0, 4)

    def test_workspace_like_follows_the_memory_order(self):
        nchw = np.zeros((2, 3, 4, 5), np.float32)
        channels_last = np.zeros((2, 4, 5, 3), np.float32).transpose(0, 3, 1, 2)
        assert axis_order(nchw) == (0, 1, 2, 3)
        assert axis_order(channels_last) == (0, 2, 3, 1)
        try:
            for like in (nchw, channels_last, channels_last[:, :, 1:3]):
                scratch = workspace_like("test.like", like, np.bool_)
                assert scratch.shape == like.shape and scratch.dtype == np.bool_
                assert axis_order(scratch) == axis_order(like)
                assert scratch.transpose(axis_order(like)).flags.c_contiguous
        finally:
            workspaces.clear()


class TestClear:
    def test_clear_under_interleaved_gets(self):
        cache = WorkspaceCache()
        first = fill_marker(cache.get("t", (4,), np.float32), 1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.cached_bytes == 0
        # A get after clear() is a fresh miss; the old buffer is detached
        # from the cache (caller-held references stay valid).
        with track() as delta:
            second = fill_marker(cache.get("t", (4,), np.float32), 2.0)
        assert delta["workspace_misses"] == 1
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, np.full(4, 1.0, dtype=np.float32))
        # Interleave more gets and clears.
        cache.get("u", (8,), np.float64)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("u", (8,), np.float64).shape == (8,)


class TestBatchSizeSweep:
    """Fails at the parent, where every batch size pinned its own buffers."""

    @staticmethod
    def _step(model, optimizer, rng, batch):
        images = rng.standard_normal((batch, 3, 8, 8))
        labels = rng.integers(0, 10, size=batch)
        optimizer.zero_grad()
        F.cross_entropy(model(Tensor(images)), labels).backward()
        optimizer.step()
        with no_grad():
            F.cross_entropy(model(Tensor(images)), labels)

    def test_sweep_leaves_one_buffer_per_tag(self, rng):
        architecture = tiny_cnn_architecture(image_size=8, num_blocks=2,
                                             base_filters=4, dense_units=16)
        model = architecture.build(seed=0)
        optimizer = Adam(model.parameters(), lr=1e-3)
        workspaces.clear()
        try:
            self._step(model, optimizer, rng, 200)
            tags, footprint = len(workspaces), workspaces.cached_bytes
            assert tags > 0
            workspaces.clear()
            for batch in range(1, 201):
                self._step(model, optimizer, rng, batch)
            assert len(workspaces) == tags
            assert workspaces.cached_bytes == footprint
        finally:
            workspaces.clear()


class TestPerfCounters:
    def test_snapshot_reset_roundtrip(self):
        local = PerfCounters()
        local.add("x")
        local.add("x", 4)
        assert local.get("x") == 5
        assert local.snapshot() == {"x": 5}
        local.reset()
        assert local.get("x") == 0

    def test_track_reports_only_deltas(self):
        counters.add("tracked_thing", 3)
        with track() as delta:
            counters.add("tracked_thing", 2)
        assert delta["tracked_thing"] == 2
