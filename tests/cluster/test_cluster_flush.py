"""flush_queue + arena interaction under multi-shard budget stops.

A time-budgeted asynchronous run that stops mid-epoch must leave *every*
shard clean: queues flushed, activation-arena rows released (no staged
payload pins memory), and no end-system holding a pending activation —
on every shard, not just the first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.messages import ActivationMessage
from repro.core.models import tiny_cnn_architecture
from repro.core.server import CentralServer
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.obs.invariants import assert_drop_balance
from repro.simnet.topology import multi_hub_star_topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import engine_kernel_golden as kernel_golden  # noqa: E402


def make_message(spec, system_id, batch_id, rows=4):
    shape = spec.architecture.block_output_shape(spec.client_blocks)
    rng = np.random.default_rng(97 + batch_id)
    return ActivationMessage(
        end_system_id=system_id,
        batch_id=batch_id,
        activations=rng.random((rows, *shape)),
        labels=rng.integers(0, 10, rows),
        arrival_time=float(batch_id),
    )


def _record_halted_states(trainer):
    """The ledger states a budget stop finds, recorded as `_halt` runs."""
    halted = []
    flush_all = trainer.cluster.flush_all

    def recording_flush_all():
        halted.extend(trainer.engine.outstanding.values())
        return flush_all()

    trainer.cluster.flush_all = recording_flush_all
    return halted


@pytest.fixture
def shard_servers():
    architecture = tiny_cnn_architecture(image_size=8, num_blocks=2,
                                         base_filters=4, dense_units=16)
    spec = SplitSpec(architecture, client_blocks=1)
    return spec, [CentralServer(spec, use_arena=True, seed=0) for _ in range(2)]


class TestFlushReleasesArenaRows:
    def test_flush_releases_staged_rows_on_every_shard(self, shard_servers):
        spec, servers = shard_servers
        for shard_index, server in enumerate(servers):
            for batch in range(3):
                assert server.receive(make_message(spec, shard_index, batch))
            assert server.arena.staged_messages == 3
            assert len(server.queue) == 3
        for server in servers:
            flushed = server.flush_queue()
            assert len(flushed) == 3
            assert server.arena.staged_messages == 0
            assert not server.has_pending()
            # Flush is the no-statistics shutdown path.
            assert server.queue.mean_waiting_time == 0.0
            assert server.queue.processed_per_system() == {}

    def test_flush_then_restage_reuses_buckets(self, shard_servers):
        """Released rows rewind the bucket; fresh staging allocates nothing."""
        spec, servers = shard_servers
        server = servers[0]
        for batch in range(4):
            server.receive(make_message(spec, 0, batch))
        bytes_before = server.arena.allocated_bytes
        server.flush_queue()
        for batch in range(4, 8):
            server.receive(make_message(spec, 0, batch))
        assert server.arena.allocated_bytes == bytes_before
        assert server.arena.staged_messages == 4


class TestBudgetStopAcrossShards:
    @pytest.mark.parametrize("server_batching", [True, False],
                             ids=["batched", "per-message"])
    def test_budget_stop_leaves_every_shard_clean(self, tiny_split_spec, tiny_parts4,
                                                  normalize, server_batching):
        # Slow shards + fast links: both queues hold work when the budget
        # cuts the run, so the flush path runs on every shard.
        topology = multi_hub_star_topology(
            len(tiny_parts4), 2, assignment=[0, 1, 0, 1],
            latencies_s=[0.001] * len(tiny_parts4),
        )
        config = TrainingConfig.fast_debug(
            num_servers=2, server_sync_every=10, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.02, max_in_flight=2,
            server_batching=server_batching,
            max_queue_size=2, queue_backpressure="drop",
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                        topology=topology, train_transform=normalize)
        trainer.train_time_budget(0.05)
        for shard in trainer.cluster.shards:
            assert not shard.has_pending(), f"shard {shard.shard_id} queue not flushed"
            if shard.server.arena is not None:
                assert shard.server.arena.staged_messages == 0, (
                    f"shard {shard.shard_id} pins staged arena rows"
                )
        assert all(es.pending_batches == 0 for es in trainer.end_systems)
        assert trainer.engine.stats.cancelled_at_stop > 0

    def test_budget_stop_resolves_in_flight_nacks(self, tiny_split_spec, tiny_parts4,
                                                  normalize):
        # A tight queue plus slow downlinks keeps NACKs in flight when
        # the budget fires; they must resolve (client notified) so no
        # pending activation leaks past the stop.
        topology = multi_hub_star_topology(
            len(tiny_parts4), 2, assignment=[0, 1, 0, 1],
            latencies_s=[0.001] * len(tiny_parts4),
            downlink_latencies_s=[0.04] * len(tiny_parts4),
        )
        config = TrainingConfig.fast_debug(
            num_servers=2, server_sync_every=10, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.03, max_in_flight=2,
            server_batching=False, max_queue_size=1, queue_backpressure="drop",
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                        topology=topology, train_transform=normalize)
        trainer.train_time_budget(0.06)
        assert trainer.engine.stats.nacks_sent > 0
        assert not trainer.engine.outstanding
        assert all(es.pending_batches == 0 for es in trainer.end_systems)

    @pytest.mark.parametrize("delivery", ["unreliable", "reliable"])
    def test_budget_stop_resolves_landings_from_the_other_shard(
            self, delivery, tiny_split_spec, tiny_parts4, normalize):
        # The kernel-golden workload on two shards: the shard whose
        # dispatch halts the run has no landing of its own in flight, but
        # the *other* shard's gradients are still on the downlink.  At the
        # parent commit `_halt` never saw them and a client kept the
        # pending activation for ever.
        trainer = kernel_golden.make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            dict(kernel_golden.BASE, **kernel_golden.MODES["async"],
                 **kernel_golden.DELIVERY[delivery], server_step_time_s=0.01))
        halted = _record_halted_states(trainer)
        trainer.train_time_budget(kernel_golden.BUDGET_S)
        assert_drop_balance(trainer)
        assert all(es.pending_batches == 0 for es in trainer.end_systems)
        assert not trainer.engine.outstanding
        assert halted.count("downlink") > 0
        cancelled = [state for state in halted if state != "awaiting_nack"]
        assert trainer.engine.stats.cancelled_at_stop == len(cancelled)
