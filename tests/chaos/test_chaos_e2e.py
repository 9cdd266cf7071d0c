"""End-to-end chaos-plane contracts on real trainers.

Three properties turn fault injection from a demo into a tool:

* **inertness** — with every chaos/reliability knob at its default the
  trainer builds no chaos machinery at all (the PR is a no-op for
  existing configs);
* **determinism** — two runs of the same seeded config face the exact
  same faults and produce identical traffic ledgers and weights;
* **replay-exactness** — a coordinator restart mid-run restores the
  fault plan, the per-message chaos streams and the retry RNG, so the
  resumed run replays the same chaos the uninterrupted twin saw.
"""

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.state import FileCheckpointStore

CHAOS = dict(
    mode="synchronous",
    num_servers=2,
    server_sync_every=2,
    reliable_delivery=True,
    retry_timeout_s=0.02,
    retry_max=2,
    chaos_flap_mtbf_s=0.04,
    chaos_flap_mttr_s=0.01,
    chaos_corrupt_probability=0.05,
    chaos_duplicate_probability=0.1,
    chaos_reorder_probability=0.1,
)


def make_trainer(spec, parts, normalize, **overrides):
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, train_transform=normalize)


def assert_same_weights(reference, other, atol=0.0):
    ref_state = reference.state_dict()
    oth_state = other.state_dict()
    assert ref_state.keys() == oth_state.keys()
    for key in ref_state:
        for name in ref_state[key]:
            np.testing.assert_allclose(
                oth_state[key][name], ref_state[key][name],
                rtol=0, atol=atol, err_msg=f"{key}/{name}",
            )


class TestInertDefaults:
    @pytest.mark.parametrize("reliability", [
        {},
        # Reliable delivery with nothing to repair: the ack timeout sits
        # above the worst round trip, so no retransmission ever fires.
        dict(reliable_delivery=True, retry_timeout_s=0.5, retry_max=3),
    ], ids=["default", "reliable-fault-free"])
    def test_no_chaos_machinery_without_knobs(self, tiny_split_spec, tiny_parts,
                                              normalize, reliability):
        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize, **reliability)
        assert trainer.fault_plan is None
        assert trainer.message_chaos is None
        assert trainer.engine._dedup_enabled == bool(reliability)
        trainer.train()
        stats = trainer.engine.stats
        assert stats.retries == 0
        assert stats.gave_up == 0
        assert stats.deduped == 0
        assert stats.chaos_events == 0
        log = trainer.transport.log
        assert log.retried_messages == 0
        assert log.corrupted_messages == 0
        assert log.duplicated_messages == 0
        assert log.reordered_messages == 0
        # No chaos stats column appears; the reliability block only when it is on.
        history_keys = trainer.train().queue_stats
        assert ("retries" in history_keys) == bool(reliability)
        assert "chaos_events" not in history_keys


class TestSeededChaosDeterminism:
    def test_same_seed_same_faults_same_weights(self, tiny_split_spec, tiny_parts,
                                                normalize):
        def run():
            trainer = make_trainer(tiny_split_spec, tiny_parts, normalize,
                                   epochs=2, **CHAOS)
            history = trainer.train()
            return trainer, history

        first, first_history = run()
        second, second_history = run()
        # The chaos actually fired — this config is not a vacuous check.
        assert first.engine.stats.chaos_events > 0
        assert first.transport.log.corrupted_messages > 0
        # Byte-identical traffic ledger, chaos counters and stats columns.
        assert first.transport.log.summary() == second.transport.log.summary()
        assert first_history.queue_stats == second_history.queue_stats
        assert first.engine.stats.chaos_events == second.engine.stats.chaos_events
        assert_same_weights(first, second)

    def test_different_seed_different_fault_stream(self, tiny_split_spec,
                                                   tiny_parts, normalize):
        first = make_trainer(tiny_split_spec, tiny_parts, normalize,
                             epochs=2, **CHAOS)
        second = make_trainer(tiny_split_spec, tiny_parts, normalize,
                              epochs=2, seed=first.config.seed + 1, **CHAOS)
        first.train()
        second.train()
        assert first.transport.log.summary() != second.transport.log.summary()


class TestReplayExactRestartUnderChaos:
    def test_restart_mid_chaos_matches_uninterrupted_twin(
            self, tiny_split_spec, tiny_parts, normalize, tmp_path):
        overrides = dict(CHAOS, epochs=3, checkpoint_every_s=0.005)
        reference = make_trainer(tiny_split_spec, tiny_parts, normalize,
                                 **overrides)
        ref_history = reference.train()
        assert reference.engine.stats.chaos_events > 0

        trainer = make_trainer(tiny_split_spec, tiny_parts, normalize,
                               checkpoint_dir=str(tmp_path), **overrides)
        trainer.train(epochs=2)
        del trainer  # the coordinator dies mid-chaos
        store = FileCheckpointStore(tmp_path)
        resumed = SpatioTemporalTrainer.resume_from_store(
            store, tiny_split_spec, tiny_parts, train_transform=normalize)
        history = resumed.train(epochs=3)

        assert_same_weights(reference, resumed, atol=1e-9)
        assert resumed.engine.clock == pytest.approx(reference.engine.clock,
                                                     abs=1e-9)
        # The fault stream resumed where it left off: cumulative chaos,
        # retry and dedup counters match the uninterrupted run exactly.
        for name in ("chaos_events", "retries", "deduped", "gave_up"):
            assert getattr(resumed.engine.stats, name) == \
                getattr(reference.engine.stats, name), name
        for key in ("corrupted_messages", "duplicated_messages",
                    "reordered_messages", "retried_messages"):
            assert history.traffic[key] == ref_history.traffic[key], key
        assert history.records[-1].train_loss == pytest.approx(
            ref_history.records[-1].train_loss, abs=1e-9)
