"""A dropped trainer is freed by reference counting, obs plane on or off.

The obs registry's collectors are closures the trainer (and its engine)
hands to a registry they hold; a closure over ``self`` would tie them into
a cycle that lives until the cycle collector runs.  With the collector
disabled, weak references to a trainer and its engine must die at ``del``.
"""

import gc
import weakref

import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.state import FileCheckpointStore


@pytest.fixture
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def storm_config(directory, obs_enabled):
    """The benchmark's every-plane shape at test size: quorum sync, a crash
    that recovers, message chaos under reliable delivery, checkpoints and
    (optionally) the obs plane with flushes, tracing and export."""
    return TrainingConfig.fast_debug(
        epochs=2, mode="synchronous", num_servers=2, server_sync_every=2,
        server_sync_mode="average", sync_quorum=0.5, sync_timeout_s=0.03,
        reliable_delivery=True, retry_timeout_s=0.02, retry_max=3,
        chaos_corrupt_probability=0.03, chaos_duplicate_probability=0.05,
        chaos_reorder_probability=0.05, failure_schedule=[(0.01, 1, 0.01)],
        failover_policy="rebalance", checkpoint_every_s=0.005,
        checkpoint_dir=str(directory / "checkpoints"), obs_enabled=obs_enabled,
        obs_flush_every_s=0.01, obs_trace_sample_rate=1.0,
        obs_dir=str(directory / "obs") if obs_enabled else None)


@pytest.mark.parametrize("obs_enabled", [True, False], ids=["obs_on", "obs_off"])
def test_a_dropped_trainer_is_freed_at_del(tiny_split_spec, tiny_parts4, normalize,
                                           tmp_path, obs_enabled, no_cycle_collector):
    trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4,
                                    storm_config(tmp_path, obs_enabled),
                                    train_transform=normalize)
    trainer.train()
    assert trainer.engine.stats.shard_crashes == 1
    assert trainer.checkpoint_store.checkpoints_written > 0
    references = weakref.ref(trainer), weakref.ref(trainer.engine)
    del trainer
    assert [reference() for reference in references] == [None, None]


@pytest.mark.parametrize("obs_enabled", [True, False], ids=["obs_on", "obs_off"])
def test_a_resumed_trainer_is_freed_at_del(tiny_split_spec, tiny_parts4, normalize,
                                           tmp_path, obs_enabled, no_cycle_collector):
    SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, storm_config(tmp_path, obs_enabled),
                          train_transform=normalize).train()
    resumed = SpatioTemporalTrainer.resume_from_store(
        FileCheckpointStore(tmp_path / "checkpoints"), tiny_split_spec, tiny_parts4,
        train_transform=normalize)
    assert resumed.obs.enabled is obs_enabled
    references = weakref.ref(resumed), weakref.ref(resumed.engine)
    del resumed
    assert [reference() for reference in references] == [None, None]
