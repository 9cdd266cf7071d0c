"""Tests for the SpatioTemporalTrainer (synchronous and asynchronous modes)."""

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import ArrayDataset
from repro.simnet.topology import star_topology


def make_trainer(spec, parts, normalize, topology=None, **config_overrides):
    config = TrainingConfig.fast_debug(**config_overrides)
    return SpatioTemporalTrainer(spec, parts, config, topology=topology,
                                 train_transform=normalize)


class TestConstruction:
    def test_requires_at_least_one_dataset(self, tiny_split_spec):
        with pytest.raises(ValueError):
            SpatioTemporalTrainer(tiny_split_spec, [], TrainingConfig.fast_debug())

    def test_topology_size_must_match(self, tiny_split_spec, tiny_parts, normalize):
        topology = star_topology(5)
        with pytest.raises(ValueError, match="end-systems"):
            make_trainer(tiny_split_spec, tiny_parts, normalize, topology=topology)

    def test_default_topology_built(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        assert len(trainer.topology.end_systems) == len(tiny_parts)
        assert len(trainer.end_systems) == len(tiny_parts)

    def test_end_systems_have_different_initial_weights(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        first = trainer.end_systems[0].model["L1_conv"].weight.data
        second = trainer.end_systems[1].model["L1_conv"].weight.data
        assert not np.allclose(first, second)


class TestSynchronousTraining:
    def test_single_epoch_runs_and_reports(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        history = trainer.train(test_dataset=test)
        assert len(history) == 1
        record = history.records[0]
        assert record.train_loss > 0
        assert 0.0 <= record.train_accuracy <= 1.0
        assert record.test_accuracy is not None
        assert record.simulated_time_s > 0
        assert history.traffic["uplink_messages"] > 0
        assert history.traffic["downlink_messages"] == history.traffic["uplink_messages"]

    @pytest.mark.parametrize("num_servers", [1, 2])
    def test_every_sample_processed_each_epoch(self, tiny_split_spec, tiny_parts, normalize,
                                               num_servers):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, num_servers=num_servers)
        trainer.train()
        total = sum(len(part) for part in tiny_parts)
        assert trainer.cluster.samples_processed == total

    def test_training_reduces_loss(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, epochs=4, batch_size=16)
        history = trainer.train()
        losses = history.loss_curve()
        assert losses[-1] < losses[0]

    def test_client_and_server_parameters_change(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        client_before = trainer.end_systems[0].model["L1_conv"].weight.data.copy()
        server_before = trainer.server.model["output"].weight.data.copy()
        trainer.train()
        assert not np.allclose(trainer.end_systems[0].model["L1_conv"].weight.data, client_before)
        assert not np.allclose(trainer.server.model["output"].weight.data, server_before)

    def test_simulated_time_scales_with_latency(self, tiny_split_spec, tiny_parts, normalize):
        fast = make_trainer(tiny_split_spec, tiny_parts, normalize,
                            seed=0)
        slow_topology = star_topology(len(tiny_parts), latencies_s=[0.2] * len(tiny_parts))
        slow = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=slow_topology, seed=0)
        fast_history = fast.train()
        slow_history = slow.train()
        assert slow_history.total_simulated_time > fast_history.total_simulated_time

    def test_cut_zero_matches_centralized_structure(self, tiny_architecture, tiny_parts, normalize):
        spec = SplitSpec(tiny_architecture, client_blocks=0)
        trainer = make_trainer(spec, tiny_parts, normalize)
        history = trainer.train()
        assert history.final_train_accuracy >= 0.0
        assert all(not es.has_trainable_parameters for es in trainer.end_systems)

    def test_per_system_update_counts(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        trainer.train()
        counts = trainer.per_system_update_counts()
        assert set(counts) == {0, 1}
        assert all(count > 0 for count in counts.values())

    def test_dropped_uplink_messages_are_tolerated(self, tiny_split_spec, tiny_parts, normalize):
        lossy = star_topology(len(tiny_parts), drop_probability=0.3, seed=0)
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=lossy)
        history = trainer.train()
        assert history.traffic["dropped_messages"] > 0
        # No pending activations should leak after the epoch.
        assert all(es.pending_batches == 0 for es in trainer.end_systems)

    def test_final_epoch_evaluation_is_reused(self, tiny_split_spec, tiny_parts,
                                              tiny_splits, normalize):
        """Regression: train() used to re-evaluate the test set after the
        final epoch even though that epoch had just evaluated it."""
        _, test = tiny_splits
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, epochs=2)
        calls = []
        original_evaluate = trainer.evaluate

        def counting_evaluate(*args, **kwargs):
            calls.append(1)
            return original_evaluate(*args, **kwargs)

        trainer.evaluate = counting_evaluate
        history = trainer.train(test_dataset=test)
        assert len(calls) == 2  # one per epoch, none extra at the end
        # per_system_accuracy is carried from the final epoch's evaluation.
        assert history.per_system_accuracy
        assert np.mean(list(history.per_system_accuracy.values())) == pytest.approx(
            history.records[-1].test_accuracy
        )

    def test_queue_stats_reports_processed_per_system(self, tiny_split_spec, tiny_parts,
                                                      normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        history = trainer.train()
        per_system = history.queue_stats["processed_per_system"]
        assert set(per_system) == {0, 1}
        assert sum(per_system.values()) == trainer.server.samples_processed

    def test_evaluate_reports_per_system(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        trainer.train()
        evaluation = trainer.evaluate(test)
        assert set(evaluation["per_system_accuracy"]) == {0, 1}
        assert evaluation["accuracy"] == pytest.approx(
            np.mean(list(evaluation["per_system_accuracy"].values()))
        )

    def test_state_dict_roundtrip(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        trainer.train()
        state = trainer.state_dict()
        clone = make_trainer(tiny_split_spec, tiny_parts, normalize)
        clone.load_state_dict(state)
        original = trainer.evaluate(test)["accuracy"]
        restored = clone.evaluate(test)["accuracy"]
        assert restored == pytest.approx(original)

    def test_evaluation_normalizes_with_the_train_transform(self, tiny_split_spec, tiny_parts,
                                                            tiny_splits, normalize):
        _, test = tiny_splits
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        trainer.train()
        got = trainer.evaluate(test)
        images, labels = test.arrays()
        trainer.train_transform = None
        assert got == trainer.evaluate(ArrayDataset(normalize(images), labels))


class TestAsynchronousTraining:
    def test_async_epoch_processes_every_sample(self, tiny_split_spec, tiny_parts, normalize):
        topology = star_topology(len(tiny_parts), latencies_s=[0.001, 0.1])
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=topology,
                               mode="asynchronous", max_in_flight=2,
                               server_step_time_s=0.001)
        history = trainer.train()
        total = sum(len(part) for part in tiny_parts)
        assert trainer.server.samples_processed == total
        assert history.records[0].simulated_time_s > 0

    def test_async_no_pending_batches_leak(self, tiny_split_spec, tiny_parts, normalize):
        topology = star_topology(len(tiny_parts), latencies_s=[0.001, 0.05])
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=topology,
                               mode="asynchronous", max_in_flight=3)
        trainer.train()
        assert all(es.pending_batches == 0 for es in trainer.end_systems)

    def test_time_budget_requires_async_mode(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize)
        with pytest.raises(ValueError, match="asynchronous"):
            trainer.train_time_budget(1.0)

    def test_time_budget_validation(self, tiny_split_spec, tiny_parts, normalize):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, mode="asynchronous")
        with pytest.raises(ValueError):
            trainer.train_time_budget(0.0)

    def test_time_budget_respects_clock(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        topology = star_topology(len(tiny_parts), latencies_s=[0.002, 0.05])
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=topology,
                               mode="asynchronous", max_in_flight=1,
                               server_step_time_s=0.01)
        history = trainer.train_time_budget(0.5, test_dataset=test)
        assert trainer.simulated_time <= 0.5 + 0.25  # small overshoot from in-flight work
        assert history.records[0].test_accuracy is not None
        assert "processed_per_system" in history.queue_stats

    def test_time_budget_favours_low_latency_clients(self, tiny_split_spec, tiny_parts, normalize):
        """Within a fixed window the nearby end-system completes more updates
        — the arrival bias the paper's queue discussion warns about."""
        topology = star_topology(len(tiny_parts), latencies_s=[0.002, 0.2])
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, topology=topology,
                               mode="asynchronous", max_in_flight=1,
                               server_step_time_s=0.001)
        trainer.train_time_budget(1.0)
        counts = trainer.per_system_update_counts()
        assert counts[0] > counts[1]


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(client_lr=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(mode="sideways")
        with pytest.raises(ValueError):
            TrainingConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            TrainingConfig(server_step_time_s=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(max_queue_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(queue_backpressure="explode")

    def test_queue_knobs_accepted_and_serialized(self):
        config = TrainingConfig(max_queue_size=8, queue_backpressure="block")
        payload = config.to_dict()
        assert payload["max_queue_size"] == 8
        assert payload["queue_backpressure"] == "block"

    def test_to_dict_and_kwargs(self):
        config = TrainingConfig(client_lr=0.01, server_lr=0.02)
        assert config.client_optimizer_kwargs == {"lr": 0.01}
        assert config.server_optimizer_kwargs == {"lr": 0.02}
        assert config.to_dict()["epochs"] == config.epochs

    def test_fast_debug_factory(self):
        config = TrainingConfig.fast_debug(epochs=2)
        assert config.epochs == 2
        assert config.batch_size == 8

    def test_reliability_knobs_rejected(self):
        with pytest.raises(ValueError, match="retry_timeout_s"):
            TrainingConfig(retry_timeout_s=0.0)
        with pytest.raises(ValueError, match="retry_backoff"):
            TrainingConfig(retry_backoff=0.5)
        with pytest.raises(ValueError, match="retry_max"):
            TrainingConfig(retry_max=-1)
        with pytest.raises(ValueError, match="retry_jitter"):
            TrainingConfig(retry_jitter=1.0)
        with pytest.raises(ValueError, match="retry_timeout_cap_s"):
            TrainingConfig(retry_timeout_s=0.05, retry_timeout_cap_s=0.01)
        with pytest.raises(ValueError, match="sync_quorum"):
            TrainingConfig(sync_quorum=0.0)
        with pytest.raises(ValueError, match="sync_quorum"):
            TrainingConfig(sync_quorum=1.5)
        with pytest.raises(ValueError, match="sync_timeout_s"):
            TrainingConfig(sync_timeout_s=0.0)

    def test_chaos_knobs_rejected(self):
        with pytest.raises(ValueError, match="chaos_corrupt_probability"):
            TrainingConfig(chaos_corrupt_probability=1.5)
        with pytest.raises(ValueError, match="chaos_duplicate_probability"):
            TrainingConfig(chaos_duplicate_probability=-0.1)
        with pytest.raises(ValueError, match="chaos_reorder_probability"):
            TrainingConfig(chaos_reorder_probability=2.0)
        with pytest.raises(ValueError, match="chaos_reorder_delay_s"):
            TrainingConfig(chaos_reorder_delay_s=-1.0)
        with pytest.raises(ValueError, match="chaos_duplicate_delay_s"):
            TrainingConfig(chaos_duplicate_delay_s=-0.5)
        with pytest.raises(ValueError, match="chaos_flap_mtbf_s"):
            TrainingConfig(chaos_flap_mtbf_s=0.0)
        with pytest.raises(ValueError, match="chaos_flap_mttr_s"):
            TrainingConfig(chaos_flap_mttr_s=0.0)
        with pytest.raises(ValueError, match="chaos_leave_mtbf_s"):
            TrainingConfig(chaos_leave_mtbf_s=-2.0)
        with pytest.raises(ValueError, match="chaos_leave_mttr_s"):
            TrainingConfig(chaos_leave_mttr_s=0.0)
        # Scripted and stochastic chaos are mutually exclusive.
        with pytest.raises(ValueError, match="mutually exclusive"):
            TrainingConfig(chaos_schedule=[("flap", 0.0, 0.1, 0)],
                           chaos_flap_mtbf_s=1.0)
        # Malformed schedule entries fail fast at config time.
        with pytest.raises(ValueError, match="chaos_schedule"):
            TrainingConfig(chaos_schedule=[("meteor", 0.0, 0.1, 0)])
        with pytest.raises(ValueError, match="non-negative"):
            TrainingConfig(chaos_schedule=[("flap", -1.0, 0.1, 0)])

    def test_reliability_and_chaos_knobs_accepted_and_serialized(self):
        config = TrainingConfig(
            reliable_delivery=True,
            retry_timeout_s=0.02,
            retry_backoff=1.5,
            retry_max=4,
            retry_jitter=0.2,
            retry_timeout_cap_s=0.5,
            sync_quorum=0.75,
            sync_timeout_s=0.1,
            chaos_corrupt_probability=0.01,
            chaos_duplicate_probability=0.02,
            chaos_reorder_probability=0.03,
            num_servers=2,  # the partition names shards 0 and 1
            chaos_schedule=[("flap", 0.1, 0.05, 0), ("partition", 0.2, 0.1, 0, 1)],
        )
        assert config.reliable_delivery
        assert config.chaos_enabled
        assert config.message_chaos_enabled
        payload = config.to_dict()
        assert payload["retry_max"] == 4
        assert payload["sync_quorum"] == 0.75
        assert payload["chaos_schedule"] == [
            ("flap", 0.1, 0.05, 0),
            ("partition", 0.2, 0.1, 0, 1),
        ]
        # The knobs default to an inert fault-free plane.
        quiet = TrainingConfig()
        assert not quiet.reliable_delivery
        assert not quiet.chaos_enabled
        assert not quiet.message_chaos_enabled
