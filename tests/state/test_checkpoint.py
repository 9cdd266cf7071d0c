"""Checkpoint-record tests: capture/restore exactness and store round-trips.

A :class:`ShardCheckpoint` must reinstall *everything* a recovering shard
needs to resume the exact update trajectory — weights, optimizer moment
buffers, module RNG streams, per-sync counters — and a record read back
from either store must restore into fresh objects that re-capture as the
same ``(arrays, meta)`` payload.
"""

import json

import numpy as np
import pytest

from repro.cluster.shard import ServerShard
from repro.core.server import CentralServer
from repro.state import (
    ClientCheckpoint,
    FileCheckpointStore,
    MemoryCheckpointStore,
    ShardCheckpoint,
)
from repro.state.checkpoint import queue_counter_state, restore_queue_counters


def make_shard(spec, shard_id=0, seed=0):
    return ServerShard(shard_id, CentralServer(spec, seed=seed),
                       f"server_{shard_id}")


def take_steps(shard, steps=3, seed=7):
    """Apply synthetic gradient steps so optimizer moments are non-trivial."""
    rng = np.random.default_rng(seed)
    optimizer = shard.server.optimizer
    for _ in range(steps):
        for parameter in optimizer.parameters:
            parameter.grad = rng.normal(size=parameter.data.shape)
        optimizer.step()


def weights_of(shard):
    return {name: value.copy()
            for name, value in shard.server.state_dict().items()}


def assert_same_weights(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def assert_same_arrays(a, b):
    assert list(a) == list(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def make_store(backend, tmp_path):
    return (MemoryCheckpointStore() if backend == "memory"
            else FileCheckpointStore(tmp_path))


def reopen(store, backend, tmp_path):
    return store if backend == "memory" else FileCheckpointStore(tmp_path)


def assert_same_optimizer_state(a, b):
    assert a["lr"] == b["lr"]
    assert a["step_count"] == b["step_count"]
    assert a["slots"].keys() == b["slots"].keys()
    for name in a["slots"]:
        for left, right in zip(a["slots"][name], b["slots"][name]):
            if left is None or right is None:
                assert left is None and right is None
            else:
                np.testing.assert_array_equal(left, right)


class TestShardCheckpoint:
    def test_restore_resumes_exact_trajectory(self, tiny_split_spec):
        """The acid test: checkpoint, diverge, restore, re-run — the
        restored shard must land on byte-identical weights and moments."""
        shard = make_shard(tiny_split_spec)
        take_steps(shard, steps=3, seed=7)
        checkpoint = ShardCheckpoint.capture(shard, sim_time=1.0)

        take_steps(shard, steps=4, seed=11)  # the "reference" continuation
        reference_weights = weights_of(shard)
        reference_optimizer = shard.server.optimizer.state_dict()

        take_steps(shard, steps=2, seed=99)  # diverge further ...
        checkpoint.restore(shard)            # ... then rewind
        take_steps(shard, steps=4, seed=11)  # replay the continuation

        assert_same_weights(weights_of(shard), reference_weights)
        assert_same_optimizer_state(shard.server.optimizer.state_dict(),
                                    reference_optimizer)

    def test_capture_is_a_snapshot_not_a_view(self, tiny_split_spec):
        shard = make_shard(tiny_split_spec)
        take_steps(shard, steps=2)
        checkpoint = ShardCheckpoint.capture(shard, sim_time=0.5)
        frozen = {key: value.copy() for key, value in checkpoint.arrays.items()}
        take_steps(shard, steps=3)  # keep training after the capture
        # Weights and optimizer moments alike stay as captured.
        assert any(key.startswith("optim::slot::") for key in frozen)
        assert_same_arrays(checkpoint.arrays, frozen)
        live = ShardCheckpoint.capture(shard, sim_time=0.5).arrays
        assert not all(np.array_equal(live[key], frozen[key]) for key in frozen)
        # ... and writing into a record never reaches the live shard.
        before = weights_of(shard)
        for key, value in live.items():
            if key.startswith("weights::"):
                value += 1.0
        assert_same_weights(weights_of(shard), before)

    def test_weights_snapshot_is_not_a_view(self, tiny_split_spec):
        """The sync broadcast ships ``weights_snapshot``: training the
        source afterwards must not reach into what was shipped."""
        shard = make_shard(tiny_split_spec)
        snapshot = shard.weights_snapshot()
        frozen = {name: value.copy() for name, value in snapshot.items()}
        take_steps(shard, steps=2)
        assert_same_weights(snapshot, frozen)
        assert not all(np.array_equal(value, frozen[name])
                       for name, value in weights_of(shard).items())
        # A receiver writing into what it was shipped leaves the source alone.
        before = weights_of(shard)
        shipped = shard.weights_snapshot()
        for value in shipped.values():
            value += 1.0
        assert_same_weights(weights_of(shard), before)

    def test_default_restore_keeps_monotone_counters(self, tiny_split_spec):
        shard = make_shard(tiny_split_spec)
        shard.samples_since_sync = 5
        shard.steps_since_sync = 2
        checkpoint = ShardCheckpoint.capture(shard, sim_time=0.0)
        shard.samples_since_sync = 9
        shard.server.samples_processed = 40
        shard.crashes = 3
        checkpoint.restore(shard)  # failover path: training state only
        assert shard.samples_since_sync == 5
        assert shard.steps_since_sync == 2
        assert shard.samples_processed == 40  # work that happened, happened
        assert shard.crashes == 3

    def test_include_counters_restores_ledger_and_health(self, tiny_split_spec):
        shard = make_shard(tiny_split_spec)
        shard.server.samples_processed = 24
        shard.server.batches_processed = 3
        shard.syncs_applied = 2
        shard.crashes = 1
        shard.recoveries = 1
        shard.downtime_s = 0.25
        shard.note_recovery_point(0.8, "checkpoint")
        checkpoint = ShardCheckpoint.capture(shard, sim_time=1.0)

        other = make_shard(tiny_split_spec, seed=1)
        checkpoint.restore(other, include_counters=True)
        assert other.samples_processed == 24
        assert other.batches_processed == 3
        assert other.syncs_applied == 2
        assert other.crashes == 1
        assert other.recoveries == 1
        assert other.downtime_s == 0.25
        assert other.recovery_point_time_s == 0.8
        assert other.recovery_point_kind == "checkpoint"
        assert_same_weights(weights_of(other), weights_of(shard))

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_store_round_trip_is_lossless(self, tiny_split_spec, tmp_path, backend):
        shard = make_shard(tiny_split_spec)
        take_steps(shard, steps=3)
        shard.samples_since_sync = 7
        shard.server.samples_processed = 30
        shard.queue._processed_per_system[2] = 5
        shard.note_recovery_point(0.4, "sync")
        checkpoint = ShardCheckpoint.capture(shard, sim_time=1.25,
                                             round_index=4, generation=2)
        store = make_store(backend, tmp_path)
        store.save_shard(checkpoint)
        loaded = reopen(store, backend, tmp_path).latest_shard(shard.shard_id)
        assert loaded is not None
        assert loaded.shard_id == shard.shard_id
        assert loaded.sim_time == 1.25
        assert loaded.round_index == 4
        assert loaded.generation == 2
        assert loaded.samples_processed == 30
        assert loaded.meta["samples_since_sync"] == 7
        assert loaded.meta["rpo"]["recovery_point_kind"] == "sync"
        assert_same_arrays(loaded.arrays, checkpoint.arrays)
        # A restore from the persisted copy lands on the same state ...
        other = make_shard(tiny_split_spec, seed=3)
        loaded.restore(other, include_counters=True)
        assert_same_weights(weights_of(other), weights_of(shard))
        assert_same_optimizer_state(other.server.optimizer.state_dict(),
                                    shard.server.optimizer.state_dict())
        # ... which re-captures as exactly the payload that was saved.
        again = ShardCheckpoint.capture(other, sim_time=1.25, round_index=4,
                                        generation=2)
        assert again.meta == checkpoint.meta
        assert_same_arrays(again.arrays, checkpoint.arrays)

    def test_latest_shard_of_empty_store_is_none(self, tmp_path):
        assert FileCheckpointStore(tmp_path).latest_shard(0) is None
        assert MemoryCheckpointStore().latest_shard(0) is None


class TestQueueLedger:
    def test_ledger_round_trip(self, tiny_split_spec):
        shard = make_shard(tiny_split_spec)
        queue = shard.queue
        queue._dropped = 4
        queue._waiting_times = [0.1, 0.2]
        queue._processed_per_system[3] = 8
        state = queue_counter_state(queue)

        other = make_shard(tiny_split_spec, seed=1)
        restore_queue_counters(other.queue, state)
        assert other.queue.dropped == 4
        assert other.queue._waiting_times == [0.1, 0.2]
        assert other.queue.processed_per_system() == {3: 8}

    def test_ledger_int_keys_survive_json(self, tiny_split_spec, tmp_path):
        """The file store serializes meta as JSON, which stringifies int
        dict keys; a restore from it must rebuild them as ints."""
        shard = make_shard(tiny_split_spec)
        shard.queue._processed_per_system[5] = 12
        checkpoint = ShardCheckpoint.capture(shard, sim_time=0.0)
        store = FileCheckpointStore(tmp_path)
        store.save_shard(checkpoint)
        loaded = FileCheckpointStore(tmp_path).latest_shard(0)
        assert loaded.meta["ledger"]["processed_per_system"] == {"5": 12}
        other = make_shard(tiny_split_spec, seed=1)
        loaded.restore(other, include_counters=True)
        assert other.queue.processed_per_system() == {5: 12}


class TestClientCheckpoint:
    def make_end_system(self, spec, seed=0):
        from repro.core.end_system import EndSystem
        from repro.data.datasets import SyntheticCIFAR10
        from repro.data.loader import DataLoader
        dataset = SyntheticCIFAR10(num_samples=16, image_size=8, seed=3)
        loader = DataLoader(dataset, batch_size=8, seed=1)
        return EndSystem(system_id=0, loader=loader, split_spec=spec, seed=seed)

    def test_round_trip_through_run_payload_shape(self, tiny_split_spec):
        """A client record as a run record's file-store copy holds it: meta
        through JSON, arrays as written."""
        end_system = self.make_end_system(tiny_split_spec)
        end_system.samples_seen = 24
        end_system.updates_applied = 3
        end_system.drops_notified = 1
        checkpoint = ClientCheckpoint.capture(end_system)
        loaded = ClientCheckpoint(dict(checkpoint.arrays),
                                  json.loads(json.dumps(checkpoint.meta)))

        other = self.make_end_system(tiny_split_spec, seed=9)
        loaded.restore(other)
        assert other.samples_seen == 24
        assert other.updates_applied == 3
        assert other.drops_notified == 1
        assert_same_weights(other.state_dict(), end_system.state_dict())

    def test_weightless_segment_round_trips(self, tiny_split_spec):
        """With the cut at 0 a client segment has no weights at all."""
        from repro.core.split import SplitSpec
        spec = SplitSpec(tiny_split_spec.architecture, client_blocks=0)
        end_system = self.make_end_system(spec)
        end_system.samples_seen = 8
        checkpoint = ClientCheckpoint.capture(end_system)
        assert not any(key.startswith("weights::") for key in checkpoint.arrays)
        other = self.make_end_system(spec, seed=9)
        ClientCheckpoint(checkpoint.arrays,
                         json.loads(json.dumps(checkpoint.meta))).restore(other)
        assert ClientCheckpoint.capture(other).meta == checkpoint.meta

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_store_round_trip_re_captures_the_payload(self, tiny_split_spec,
                                                      tmp_path, backend):
        end_system = self.make_end_system(tiny_split_spec)
        end_system._next_batch_id = 6
        end_system.samples_seen = 40
        rng = np.random.default_rng(2)
        for parameter in end_system.optimizer.parameters:
            parameter.grad = rng.normal(size=parameter.data.shape)
        end_system.optimizer.step()
        checkpoint = ClientCheckpoint.capture(end_system)
        assert any(key.startswith("optim::slot::") for key in checkpoint.arrays)
        store = make_store(backend, tmp_path)
        store.save("client", "client-0", 0.0, checkpoint.arrays, checkpoint.meta)
        arrays, meta = reopen(store, backend, tmp_path)._read_latest("client",
                                                                     "client-0")
        other = self.make_end_system(tiny_split_spec, seed=9)
        ClientCheckpoint(arrays, meta).restore(other)
        again = ClientCheckpoint.capture(other)
        assert again.meta == checkpoint.meta
        assert_same_arrays(again.arrays, checkpoint.arrays)
