"""Coordinator restart: resume from the store alone, replay-exact.

The drill in every test: run a trainer with checkpointing enabled for the
first K epochs, throw it away (the "coordinator crash"), rebuild a fresh
trainer from nothing but the checkpoint store plus the immutable inputs
(architecture + datasets), finish the run, and compare against a twin
that ran uninterrupted — weights pinned at 1e-9, the simulated clock and
history records exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import SyntheticCIFAR10, train_test_split
from repro.data.partition import IIDPartitioner
from repro.simnet.topology import multi_hub_star_topology, star_topology
from repro.state import FileCheckpointStore, MemoryCheckpointStore


def make_trainer(spec, parts, normalize, topology=None, **overrides):
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, topology=topology,
                                 train_transform=normalize)


def assert_same_deployment(reference, resumed, atol=1e-9):
    ref_state = reference.state_dict()
    res_state = resumed.state_dict()
    assert ref_state.keys() == res_state.keys()
    for key in ref_state:
        for name in ref_state[key]:
            np.testing.assert_allclose(
                res_state[key][name], ref_state[key][name],
                rtol=0, atol=atol, err_msg=f"{key}/{name}",
            )
    assert resumed.engine.clock == pytest.approx(reference.engine.clock, abs=atol)


def run_interrupted(spec, parts, normalize, store_dir, *, crash_after, epochs,
                    **overrides):
    """Train ``crash_after`` epochs, discard the trainer, resume and finish."""
    trainer = make_trainer(spec, parts, normalize,
                           checkpoint_dir=str(store_dir), **overrides)
    trainer.train(epochs=crash_after)
    del trainer  # the coordinator process dies here
    store = FileCheckpointStore(store_dir)
    resumed = SpatioTemporalTrainer.resume_from_store(
        store, spec, parts, train_transform=normalize)
    assert resumed._start_epoch == crash_after
    history = resumed.train(epochs=epochs)
    return resumed, history


COMMON = dict(epochs=3, num_servers=2, server_sync_every=2,
              checkpoint_every_s=0.005)


class TestReplayExactRestart:
    def test_synchronous(self, tiny_split_spec, tiny_parts4, normalize, tmp_path):
        overrides = dict(COMMON, mode="synchronous")
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        ref_history = reference.train()
        resumed, history = run_interrupted(
            tiny_split_spec, tiny_parts4, normalize, tmp_path,
            crash_after=2, **overrides)
        assert_same_deployment(reference, resumed)
        assert history.records[-1].epoch == 2
        assert history.records[-1].train_loss == pytest.approx(
            ref_history.records[-1].train_loss, abs=1e-9)

    def test_asynchronous(self, tiny_split_spec, tiny_parts4, normalize, tmp_path):
        overrides = dict(COMMON, mode="asynchronous",
                         server_sync_mode="staleness")
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        ref_history = reference.train()
        resumed, history = run_interrupted(
            tiny_split_spec, tiny_parts4, normalize, tmp_path,
            crash_after=2, **overrides)
        assert_same_deployment(reference, resumed)
        assert history.records[-1].train_loss == pytest.approx(
            ref_history.records[-1].train_loss, abs=1e-9)

    def test_with_scripted_failures(self, tiny_split_spec, tiny_parts4,
                                    normalize, tmp_path):
        """Shard crash/recovery before the coordinator restart: assignment
        replay, failure-model progress and RPO bookkeeping all round-trip."""
        overrides = dict(COMMON, mode="synchronous",
                         failure_schedule=[(0.01, 0, 0.02)],
                         failover_policy="rebalance")
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        reference.train()
        resumed, history = run_interrupted(
            tiny_split_spec, tiny_parts4, normalize, tmp_path,
            crash_after=2, **overrides)
        assert_same_deployment(reference, resumed)
        assert history.queue_stats["shard_crashes"] == \
            reference.engine.stats.shard_crashes
        assert history.queue_stats["shard_recoveries"] == \
            reference.engine.stats.shard_recoveries

    def test_with_stochastic_churn(self, tiny_split_spec, tiny_parts4,
                                   normalize, tmp_path):
        """Churn draws ride per-shard RNG streams; restoring their packed
        state must reproduce the reference run's exact crash pattern."""
        overrides = dict(COMMON, mode="synchronous",
                         failure_mtbf_s=0.02, failure_mttr_s=0.01,
                         failover_policy="rebalance")
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        reference.train()
        assert reference.engine.stats.shard_crashes > 0  # churn actually fires
        resumed, history = run_interrupted(
            tiny_split_spec, tiny_parts4, normalize, tmp_path,
            crash_after=2, **overrides)
        assert_same_deployment(reference, resumed)
        assert history.queue_stats["shard_crashes"] == \
            reference.engine.stats.shard_crashes

    def test_with_moves_in_effect_at_the_record(self, tiny_split_spec, tiny_parts4,
                                                normalize, tmp_path):
        """A failover move and a scripted ``move`` are both in effect when
        the record is taken (shard 0 finishes epoch 2 early, crashes, and is
        still down at the boundary): the restore replays the assignment
        outside any simulation, and the recovery + failback happen in the
        resumed epoch exactly as in the twin."""
        def make_topology():
            return multi_hub_star_topology(
                4, 3, assignment=[0, 1, 2, 0],
                latencies_s=[0.001, 0.01, 0.01, 0.001])

        overrides = dict(COMMON, num_servers=3, mode="synchronous",
                         server_sync_mode="staleness",
                         failure_schedule=[(0.12, 0, 0.08)],
                         failover_policy="rebalance", failover_delay_s=0.001,
                         chaos_schedule=[("move", 0.02, 1, 2)])
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                                 topology=make_topology(), **overrides)
        reference.train()
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               topology=make_topology(),
                               checkpoint_dir=str(tmp_path), **overrides)
        trainer.train(epochs=2)
        del trainer
        store = FileCheckpointStore(tmp_path)
        meta = store.latest_run().meta  # JSON: int keys read back as strings
        assert meta["assignment"] == {"0": 1, "1": 2, "2": 2, "3": 2}  # 0, 3 failed over; 1 moved
        assert meta["node_health"]["server_0"] is False
        resumed = SpatioTemporalTrainer.resume_from_store(
            store, tiny_split_spec, tiny_parts4, topology=make_topology(),
            train_transform=normalize)
        resumed.train()
        assert_same_deployment(reference, resumed)
        assert resumed.cluster.assignment == reference.cluster.assignment \
            == {0: 0, 1: 2, 2: 2, 3: 0}  # failed back; the scripted move stays
        assert resumed.engine.stats.as_dict() == reference.engine.stats.as_dict()
        assert resumed.transport.log.summary() == reference.transport.log.summary()

    def test_resume_restores_traffic_and_engine_stats(
            self, tiny_split_spec, tiny_parts4, normalize, tmp_path):
        overrides = dict(COMMON, mode="synchronous")
        reference = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        ref_history = reference.train()
        resumed, history = run_interrupted(
            tiny_split_spec, tiny_parts4, normalize, tmp_path,
            crash_after=2, **overrides)
        ref_traffic = dict(ref_history.traffic)
        res_traffic = dict(history.traffic)
        for key in ("uplink_messages", "downlink_messages", "uplink_megabytes",
                    "downlink_megabytes", "sync_messages", "mean_transit_time_s"):
            assert res_traffic[key] == ref_traffic[key], key
        assert history.queue_stats["engine_events"] == \
            ref_history.queue_stats["engine_events"]
        assert history.queue_stats["processed_per_system"] == \
            ref_history.queue_stats["processed_per_system"]

    def test_mean_nack_delay_is_exact(self, tiny_split_spec, normalize, tmp_path):
        """The record keeps the nack-delay sum itself: rebuilt as mean x
        count, this run's sum came back one ulp low after the resume."""
        train, _ = train_test_split(SyntheticCIFAR10(320, image_size=8, seed=7), 0.25,
                                    seed=3)
        parts = IIDPartitioner(8, seed=5).partition(train)
        config = TrainingConfig(
            epochs=3, batch_size=4, mode="asynchronous", max_queue_size=2,
            queue_backpressure="drop", server_batching=False, server_step_time_s=0.004,
            checkpoint_every_s=0.05, seed=0)

        def topology():
            return star_topology(8, latencies_s=np.linspace(0.001, 0.037, 8),
                                 jitter_std_s=0.0013, seed=5)

        reference = SpatioTemporalTrainer(tiny_split_spec, parts, config,
                                          topology=topology(), train_transform=normalize)
        reference.train()
        SpatioTemporalTrainer(tiny_split_spec, parts,
                              replace(config, checkpoint_dir=str(tmp_path)),
                              topology=topology(), train_transform=normalize).train(epochs=1)
        resumed = SpatioTemporalTrainer.resume_from_store(
            FileCheckpointStore(tmp_path), tiny_split_spec, parts, topology=topology(),
            train_transform=normalize)
        resumed.train()
        ref_stats, res_stats = reference.engine.stats, resumed.engine.stats
        assert res_stats.nacks_sent == ref_stats.nacks_sent > 0
        assert res_stats.nack_delay_total_s == ref_stats.nack_delay_total_s
        assert res_stats.mean_nack_delay_s == ref_stats.mean_nack_delay_s


class TestResumeGuards:
    def test_empty_store_rejected(self, tiny_split_spec, tiny_parts4,
                                  normalize, tmp_path):
        with pytest.raises(ValueError, match="no intact run checkpoint"):
            SpatioTemporalTrainer.resume_from_store(
                FileCheckpointStore(tmp_path), tiny_split_spec, tiny_parts4,
                train_transform=normalize)

    def test_shard_count_mismatch_rejected(self, tiny_split_spec, tiny_parts4,
                                           normalize, tmp_path):
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               checkpoint_dir=str(tmp_path),
                               **dict(COMMON, mode="synchronous"))
        trainer.train(epochs=1)
        run = FileCheckpointStore(tmp_path).latest_run()
        other = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                             epochs=3, num_servers=1)
        with pytest.raises(ValueError, match="shards"):
            other.restore_run_checkpoint(run)

    def test_client_count_mismatch_rejected(self, tiny_split_spec, tiny_parts4,
                                            tiny_parts, normalize, tmp_path):
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               checkpoint_dir=str(tmp_path),
                               **dict(COMMON, mode="synchronous"))
        trainer.train(epochs=1)
        run = FileCheckpointStore(tmp_path).latest_run()
        other = make_trainer(tiny_split_spec, tiny_parts, normalize,
                             epochs=3, num_servers=2, server_sync_every=2)
        with pytest.raises(ValueError, match="clients"):
            other.restore_run_checkpoint(run)


class TestStoreAutoBuild:
    def test_memory_store_when_no_dir(self, tiny_split_spec, tiny_parts4,
                                      normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               epochs=1, num_servers=2, server_sync_every=2,
                               checkpoint_every_s=0.005)
        assert isinstance(trainer.checkpoint_store, MemoryCheckpointStore)
        trainer.train()
        assert trainer.checkpoint_store.checkpoints_written > 0

    def test_no_store_when_feature_off(self, tiny_split_spec, tiny_parts4,
                                       normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               epochs=1, num_servers=2, server_sync_every=2)
        assert trainer.checkpoint_store is None
        history = trainer.train()
        assert "checkpoints_written" not in history.queue_stats

    def test_overhead_accounting_surfaces(self, tiny_split_spec, tiny_parts4,
                                          normalize, tmp_path):
        trainer = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                               epochs=1, num_servers=2, server_sync_every=2,
                               checkpoint_every_s=0.005,
                               checkpoint_dir=str(tmp_path))
        history = trainer.train()
        stats = history.queue_stats
        assert stats["checkpoints_written"] > 0
        assert stats["checkpoint_bytes"] > 0
        assert stats["checkpoint_write_wall_s"] > 0.0
