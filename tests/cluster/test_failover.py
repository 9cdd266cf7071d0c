"""Shard failover: crash injection, client reassignment, recovery.

The invariants pinned here are the ones ISSUE 5 names:

* with failures configured but never firing (a scripted crash beyond the
  training horizon), the cluster engine reproduces the no-failure run —
  histories, parameters and the simulated clock to 1e-9;
* a scripted mid-epoch shard crash lets training complete in both sync
  modes (``"average"`` and ``"staleness"``) and both training modes,
  every one of the dead shard's clients is reassigned to a survivor, and
  no client-side ``_pending`` activation leaks;
* the ``"average"`` rendezvous skips unhealthy shards instead of hanging
  the barrier, and a dead shard neither contributes to nor receives the
  installed average;
* a recovering shard reinstalls the coordinator's last sync snapshot,
  fails its original clients back (policy permitting), and resumes
  training.
"""

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, ServerShard
from repro.chaos import ScheduledFaults, StochasticFaults
from repro.cluster.failover import (
    RebalanceFailover,
    StandbyFailover,
    available_failover_policies,
    get_failover_policy,
)
from repro.core.config import TrainingConfig
from repro.core.server import CentralServer
from repro.core.trainer import SpatioTemporalTrainer


def make_trainer(spec, parts, normalize, **overrides):
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, train_transform=normalize)


def curves(history):
    return [(record.train_loss, record.train_accuracy) for record in history.records]


def assert_no_leaks(trainer):
    assert all(es.pending_batches == 0 for es in trainer.end_systems)
    assert not trainer.cluster.has_pending()


def assert_failover_accounting(trainer):
    """Crash-shed messages must balance against client notifications."""
    stats = trainer.engine.stats
    queue_dropped = sum(shard.queue.dropped for shard in trainer.cluster.shards)
    log = trainer.transport.log
    notified = sum(es.drops_notified for es in trainer.end_systems)
    assert notified == (
        queue_dropped + log.dropped_messages - log.nack_dropped - log.sync_dropped
        + stats.failover_dropped
    )


def churn(seed=3):
    return StochasticFaults(num_clients=1, crash_mtbf_s=10.0, crash_mttr_s=1.0,
                            crash_seed=seed)


class TestCrashLanes:
    """Shard crash/recovery on the fault plan: one lane per shard id."""

    def test_scheduled_timeline_orders_and_pairs(self):
        plan = ScheduledFaults(crashes=[(0.5, 1, 0.2), (0.1, 0)])
        first = plan.peek(1)
        assert (first.time, first.kind, first.phase, first.target) == \
            (0.5, "crash", "begin", 1)
        plan.advance(1)
        second = plan.peek(1)
        assert second.time == pytest.approx(0.7)
        assert (second.kind, second.phase) == ("crash", "end")
        plan.advance(1)
        assert plan.peek(1) is None
        with pytest.raises(LookupError):
            plan.advance(1)
        # Shard 0 crashes once and never recovers.
        assert plan.peek(0).phase == "begin"
        plan.advance(0)
        assert plan.peek(0) is None
        # Shards without scripted failures have empty timelines, and crashes
        # never show up on the client/network lane.
        assert plan.peek(7) is None
        assert plan.peek() is None

    def test_crash_lanes_are_independent_of_the_chaos_lane(self):
        plan = ScheduledFaults([("flap", 0.1, 0.2, 0)], crashes=[(0.1, 0, 0.2)])
        assert plan.peek().kind == "flap"
        plan.advance()
        assert plan.peek(0).time == 0.1  # the crash lane did not move
        plan.advance(0)
        assert (plan.peek().phase, plan.peek(0).phase) == ("end", "end")

    def test_scheduled_validation(self):
        with pytest.raises(ValueError, match="time_s"):
            ScheduledFaults(crashes=[(0.5,)])
        with pytest.raises(ValueError, match="duration"):
            ScheduledFaults(crashes=[(0.5, 0, -1.0)])
        with pytest.raises(ValueError, match="non-negative"):
            ScheduledFaults(crashes=[(-0.5, 0)])
        # A crash is not a chaos_schedule kind: one way in, failure_schedule.
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ScheduledFaults([("crash", 0.5, 0.1, 0)])

    def test_scheduled_rejects_overlapping_outages(self):
        # A crash scripted inside another outage would silently end the
        # longer outage at the shorter entry's recovery.
        with pytest.raises(ValueError, match="overlapping"):
            ScheduledFaults(crashes=[(1.0, 0, 10.0), (2.0, 0, 1.0)])
        # An open-ended crash must be the shard's last entry.
        with pytest.raises(ValueError, match="overlapping"):
            ScheduledFaults(crashes=[(1.0, 0), (2.0, 0, 1.0)])
        # Sequential outages (and other shards' overlaps-in-time) are fine,
        # including back-to-back ones — in either entry order.
        ScheduledFaults(crashes=[(1.0, 0, 1.0), (3.0, 0, 1.0), (1.5, 1, 5.0)])
        ScheduledFaults(crashes=[(1.0, 0, 1.0), (2.0, 0, 5.0)])
        back_to_back = ScheduledFaults(crashes=[(2.0, 0, 5.0), (1.0, 0, 1.0)])
        phases = []
        while back_to_back.peek(0) is not None:
            phases.append((back_to_back.peek(0).time, back_to_back.peek(0).phase))
            back_to_back.advance(0)
        assert phases == [(1.0, "begin"), (2.0, "end"), (2.0, "begin"), (7.0, "end")]

    def test_stochastic_alternates_and_is_deterministic(self):
        plan_a, plan_b = churn(), churn()
        phases = []
        times = []
        for _ in range(6):
            event = plan_a.peek(0)
            # Peeking repeatedly must not consume randomness.
            assert plan_a.peek(0) is event
            assert plan_b.peek(0) == event
            phases.append(event.phase)
            times.append(event.time)
            plan_a.advance(0)
            plan_b.advance(0)
        assert phases == ["begin", "end"] * 3
        assert times == sorted(times)
        assert churn(seed=4).peek(0).time != times[0]

    def test_stochastic_streams_differ_per_shard(self):
        plan = churn()
        assert plan.peek(0).time != plan.peek(1).time
        # No client churn configured: the client/network lane stays empty,
        # and without a crash family the shard lanes do.
        assert plan.peek() is None
        assert StochasticFaults(num_clients=2, flap_mtbf_s=1.0).peek(0) is None

    def test_stochastic_draws_are_the_pre_merge_streams(self):
        """Seed derivation pin: shard ``k`` draws from
        ``default_rng(crash_seed + 7919 * (k + 1))``, MTBF first."""
        plan = churn(seed=104_729)
        for shard in (0, 1, 5):
            rng = np.random.default_rng(104_729 + 7919 * (shard + 1))
            crash = rng.exponential(10.0)
            assert plan.peek(shard).time == crash
            plan.advance(shard)
            assert plan.peek(shard).time == crash + rng.exponential(1.0)

    @pytest.mark.parametrize("make", [
        lambda: ScheduledFaults([("flap", 0.2, 0.1, 0)],
                                crashes=[(0.5, 1, 0.2), (0.1, 0), (0.9, 1)]),
        lambda: StochasticFaults(num_clients=2, seed=5, flap_mtbf_s=0.5,
                                 crash_mtbf_s=10.0, crash_seed=3),
    ], ids=["scheduled", "stochastic"])
    def test_state_dict_round_trip_mid_timeline(self, make):
        plan = make()
        for lane in (1, 1, None, 0):
            plan.peek(lane)
            plan.advance(lane)
        snapshot = plan.state_dict()
        assert snapshot["failure_state"]["name"] == plan.name
        assert snapshot["chaos_state"]["name"] == plan.name
        twin = make()
        twin.load_state_dict(snapshot)
        for lane in (0, 1, None):
            for _ in range(3):
                assert twin.peek(lane) == plan.peek(lane)
                if plan.peek(lane) is None:
                    break
                plan.advance(lane)
                twin.advance(lane)
        # A half that is None leaves that half of the plan where it is.
        fresh = make()
        fresh.load_state_dict({"failure_state": snapshot["failure_state"],
                               "chaos_state": None})
        assert fresh.peek() == make().peek()


class TestFailoverPolicies:
    def test_registry(self):
        assert available_failover_policies() == ["rebalance", "standby"]
        assert isinstance(get_failover_policy("rebalance"), RebalanceFailover)
        assert isinstance(get_failover_policy("standby"), StandbyFailover)
        with pytest.raises(KeyError, match="unknown failover policy"):
            get_failover_policy("chaos")

    def test_rebalance_spreads_over_survivors(self):
        policy = RebalanceFailover(assigner="load_aware")
        moves = policy.reassign([3, 5, 9, 11], survivors=[0, 2],
                                loads=[40, 10, 10, 40])
        assert set(moves) == {3, 5, 9, 11}
        assert set(moves.values()) <= {0, 2}
        # LPT on the loads balances the survivors' added work.
        load_per_survivor = {0: 0, 2: 0}
        for client, load in zip([3, 5, 9, 11], [40, 10, 10, 40]):
            load_per_survivor[moves[client]] += load
        assert load_per_survivor[0] == load_per_survivor[2]

    def test_rebalance_with_no_survivors_strands(self):
        assert RebalanceFailover().reassign([1, 2], survivors=[]) == {}

    def test_standby_never_moves(self):
        assert StandbyFailover().reassign([1, 2], survivors=[0]) == {}
        assert StandbyFailover.failback is False


class TestConfigValidation:
    def test_schedule_and_mtbf_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            TrainingConfig(failure_schedule=[(0.1, 0)], failure_mtbf_s=5.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="failover_policy"):
            TrainingConfig(failure_mtbf_s=5.0, failover_policy="chaos")

    def test_unknown_failover_assigner_rejected(self):
        with pytest.raises(ValueError, match="failover_assigner"):
            TrainingConfig(failure_mtbf_s=5.0, failover_assigner="nope")

    def test_schedule_shard_ids_must_exist(self):
        # An out-of-range shard id would silently never fire.
        with pytest.raises(ValueError, match="num_servers"):
            TrainingConfig(num_servers=2, failure_schedule=[(0.01, 2)])
        TrainingConfig(num_servers=2, failure_schedule=[(0.01, 1)])

    def test_policy_only_checked_when_failures_enabled(self):
        # An unused bogus policy name must not break failure-free configs.
        config = TrainingConfig(failover_policy="rebalance")
        assert not config.failures_enabled


class TestInertWhenNotFiring:
    """A failure timeline beyond the horizon must not perturb the run."""

    def test_synchronous_average_identical(self, tiny_split_spec, tiny_parts4,
                                           normalize):
        baseline = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                                num_servers=2, server_sync_every=1,
                                server_sync_mode="average")
        injected = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                                num_servers=2, server_sync_every=1,
                                server_sync_mode="average",
                                failure_schedule=[(1e6, 1, 1.0)])
        base_history = baseline.train(epochs=2)
        injected_history = injected.train(epochs=2)
        assert injected.engine.stats.shard_crashes == 0
        assert injected.engine.stats.clients_reassigned == 0
        for (base_loss, base_acc), (loss, acc) in zip(curves(base_history),
                                                      curves(injected_history)):
            assert loss == pytest.approx(base_loss, rel=1e-9)
            assert acc == pytest.approx(base_acc, rel=1e-9)
        assert injected.simulated_time == pytest.approx(baseline.simulated_time,
                                                        rel=1e-9)
        base_state = baseline.state_dict()
        injected_state = injected.state_dict()
        for segment, params in base_state.items():
            for name, value in params.items():
                np.testing.assert_allclose(
                    injected_state[segment][name], value, rtol=1e-9, atol=1e-12,
                    err_msg=f"{segment}/{name} diverged",
                )

    def test_asynchronous_identical(self, tiny_split_spec, tiny_parts4, normalize):
        overrides = dict(num_servers=2, server_sync_every=1,
                         server_sync_mode="staleness", mode="asynchronous",
                         server_step_time_s=0.002)
        baseline = make_trainer(tiny_split_spec, tiny_parts4, normalize, **overrides)
        injected = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                                failure_schedule=[(1e6, 0)], **overrides)
        base_history = baseline.train(epochs=2)
        injected_history = injected.train(epochs=2)
        assert injected.engine.stats.shard_crashes == 0
        for (base_loss, base_acc), (loss, acc) in zip(curves(base_history),
                                                      curves(injected_history)):
            assert loss == pytest.approx(base_loss, rel=1e-9)
            assert acc == pytest.approx(base_acc, rel=1e-9)
        assert injected.simulated_time == pytest.approx(baseline.simulated_time,
                                                        rel=1e-9)


class TestCheckpointObserverInert:
    """Periodic checkpoint captures are pure observers: with no crash to
    recover from, a checkpointing run matches the feature-off run to 1e-9
    (reading RNG stream positions must not advance them)."""

    @pytest.mark.parametrize("overrides", [
        dict(mode="synchronous", server_sync_mode="average"),
        dict(mode="asynchronous", server_sync_mode="staleness",
             server_step_time_s=0.002),
    ], ids=["synchronous", "asynchronous"])
    def test_checkpointing_on_matches_off(self, tiny_split_spec, tiny_parts4,
                                          normalize, overrides):
        common = dict(num_servers=2, server_sync_every=1, **overrides)
        baseline = make_trainer(tiny_split_spec, tiny_parts4, normalize, **common)
        observed = make_trainer(tiny_split_spec, tiny_parts4, normalize,
                                checkpoint_every_s=0.002, **common)
        base_history = baseline.train(epochs=2)
        observed_history = observed.train(epochs=2)
        assert observed.engine.stats.checkpoints_written > 0
        for (base_loss, base_acc), (loss, acc) in zip(curves(base_history),
                                                      curves(observed_history)):
            assert loss == pytest.approx(base_loss, rel=1e-9)
            assert acc == pytest.approx(base_acc, rel=1e-9)
        assert observed.simulated_time == pytest.approx(baseline.simulated_time,
                                                        rel=1e-9)
        base_state = baseline.state_dict()
        observed_state = observed.state_dict()
        for segment, params in base_state.items():
            for name, value in params.items():
                np.testing.assert_allclose(
                    observed_state[segment][name], value, rtol=1e-9, atol=1e-12,
                    err_msg=f"{segment}/{name} diverged",
                )


class TestScriptedCrashSynchronous:
    """Mid-epoch crash, synchronous training, both sync modes."""

    @pytest.mark.parametrize("sync_mode", ["average", "staleness"])
    def test_crash_reassigns_and_completes(self, tiny_split_spec, tiny_parts4,
                                           normalize, sync_mode):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode=sync_mode,
            failure_schedule=[(0.012, 1)], failover_policy="rebalance",
        )
        orphans = trainer.cluster.original_clients(1)
        assert orphans, "shard 1 must own clients for the crash to matter"
        history = trainer.train(epochs=2)
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1
        assert not trainer.cluster.shards[1].healthy
        # Every one of the dead shard's clients now lives on the survivor.
        assert all(trainer.cluster.assignment[sid] == 0 for sid in orphans)
        assert stats.clients_reassigned == len(orphans)
        # Training genuinely completed on the survivor: both epochs have
        # records and the survivor processed work for the moved clients.
        assert len(history.records) == 2
        processed = trainer.cluster.processed_per_system()
        assert all(processed.get(sid, 0) > 0 for sid in orphans)
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)
        assert history.queue_stats["shard_crashes"] == 1
        assert history.queue_stats["clients_reassigned"] == len(orphans)
        assert history.queue_stats["total_downtime_s"] > 0

    def test_average_rendezvous_skips_dead_shard(self, tiny_split_spec, tiny_parts4,
                                                 normalize):
        """The barrier must fire without the crashed shard (no hang)."""
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            failure_schedule=[(0.012, 1)], failover_policy="rebalance",
        )
        history = trainer.train(epochs=2)
        # The run terminated (no rendezvous deadlock) and every sync
        # after the crash involved only the survivor: snapshots are only
        # ever shipped between two healthy shards, so inter-server
        # traffic stops at the crash.
        assert len(history.records) == 2
        for shard_stats in history.queue_stats["per_shard"]:
            if shard_stats["shard_id"] == 1:
                assert shard_stats["healthy"] is False
                assert shard_stats["crashes"] == 1

    def test_crash_and_recovery_inside_one_flight_time(self, tiny_split_spec,
                                                       tiny_parts4, normalize):
        """A shard that crashes AND recovers while uplinks are in flight.

        The in-flight messages were sent under the pre-crash generation;
        admitting them after the recovery would strand them in a queue
        whose round chain died with the crash.  They must be shed (and
        notified) like any other crash casualty, and the recovered chain
        must resume cleanly.
        """
        from repro.simnet.topology import multi_hub_star_topology

        topology = multi_hub_star_topology(
            4, 2, latencies_s=[0.002, 0.002, 0.05, 0.05],
            assignment=[0, 0, 1, 1],
        )
        config = TrainingConfig.fast_debug(
            num_servers=2, server_sync_every=1, server_sync_mode="staleness",
            failure_schedule=[(0.01, 1, 0.01)], failover_policy="standby",
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                        topology=topology,
                                        train_transform=normalize)
        history = trainer.train(epochs=1)
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1
        assert stats.shard_recoveries == 1
        # The round-1 uplinks of clients 2/3 (50 ms links) straddled the
        # outage and were shed on arrival despite the shard being up again.
        assert stats.failover_dropped >= 2
        assert len(history.records) == 1
        processed = trainer.cluster.processed_per_system()
        assert processed.get(2, 0) > 0 and processed.get(3, 0) > 0
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)

    def test_no_duplicate_chain_after_crash_while_released(self, tiny_split_spec,
                                                           tiny_parts4, normalize,
                                                           monkeypatch):
        """Crash + recovery while an 'average' sync is still in flight.

        The shard was already released into the pending ``apply_average``
        when it crashed; the recovery restarts its chain, so the sync's
        release must NOT start a second one (release tickets are
        generation-checked).  A duplicate chain shows up as an extra
        round-start event scheduled when the sync lands.
        """
        import repro.core.engine as engine_mod
        from repro.simnet.events import Simulator
        from repro.simnet.topology import multi_hub_star_topology

        scheduled = []

        class RecordingSimulator(Simulator):
            def schedule(self, time, callback, priority=0, label="", payload=None):
                scheduled.append(label)
                return super().schedule(time, callback, priority, label, payload)

        monkeypatch.setattr(engine_mod, "Simulator", RecordingSimulator)
        topology = multi_hub_star_topology(
            len(tiny_parts4), 2, latencies_s=[0.001] * len(tiny_parts4),
            inter_server_latency_s=0.05,
        )
        config = TrainingConfig.fast_debug(
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            # Crash at t=0.02 and recover at t=0.03 — inside the first
            # sync's 50 ms inter-server flight (it lands ~t=0.053).
            failure_schedule=[(0.02, 1, 0.01)], failover_policy="standby",
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                        topology=topology,
                                        train_transform=normalize)
        trainer.train(epochs=1)
        assert trainer.engine.stats.shard_recoveries == 1
        # Deterministic timeline (constant latencies, scripted crash):
        # each shard starts rounds 0..3 plus one empty exhaustion round =
        # 10 round-start events.  The duplicate-chain bug scheduled an
        # 11th when apply_average re-released the recovered shard.
        assert scheduled.count("round-start") == 10
        assert_no_leaks(trainer)

    def test_standby_parks_clients_until_recovery(self, tiny_split_spec,
                                                  tiny_parts4, normalize):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            failure_schedule=[(0.012, 1, 0.08)], failover_policy="standby",
        )
        orphans = trainer.cluster.original_clients(1)
        history = trainer.train(epochs=2)
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1
        assert stats.shard_recoveries == 1
        # Standby never moves anybody ...
        assert stats.clients_reassigned == 0
        assert all(trainer.cluster.assignment[sid] == 1 for sid in orphans)
        # ... and the parked clients resume on their home shard after the
        # outage: it processed work and the run completed both epochs.
        assert trainer.cluster.shards[1].healthy
        assert trainer.cluster.shards[1].downtime_s == pytest.approx(0.08)
        assert len(history.records) == 2
        processed = trainer.cluster.processed_per_system()
        assert all(processed.get(sid, 0) > 0 for sid in orphans)
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)


class TestScriptedCrashAsynchronous:
    """Mid-run crash + recovery, asynchronous training (staleness sync)."""

    def test_crash_failover_and_failback(self, tiny_split_spec, tiny_parts4,
                                         normalize):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.001,
            failure_schedule=[(0.01, 1, 0.05)], failover_policy="rebalance",
        )
        orphans = trainer.cluster.original_clients(1)
        history = trainer.train(epochs=2)
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1
        assert stats.shard_recoveries == 1
        # Failover moved the orphans out, failback brought them home.
        assert stats.clients_reassigned == 2 * len(orphans)
        assert all(trainer.cluster.assignment[sid] == 1 for sid in orphans)
        assert trainer.cluster.shards[1].healthy
        assert trainer.cluster.shards[1].downtime_s == pytest.approx(0.05)
        assert len(history.records) == 2
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)

    def test_recovery_resets_dispatch_gate(self, tiny_split_spec, tiny_splits,
                                            normalize):
        """A recovered shard must dispatch work arriving before its stale
        ``next_free``.

        The pre-crash step's slow downlink pushed ``next_free`` far out,
        and the dispatch event parked there died with the crash's
        generation bump — so without resetting the gate at recovery, a
        batch arriving in the window [recovery, old next_free) sits in
        the queue forever once no later arrival comes to rescue it.
        """
        from repro.data.datasets import ArrayDataset
        from repro.simnet.topology import star_topology

        train, _ = tiny_splits
        images, labels = train.arrays()
        # Uneven shards: client 0 holds one batch, client 1 holds two —
        # after client 0 exhausts, only client 1's stalled batch remains.
        parts = [ArrayDataset(images[:15], labels[:15]),
                 ArrayDataset(images[15:45], labels[15:45])]
        topology = star_topology(2, latencies_s=[0.001, 0.001],
                                 downlink_latencies_s=[0.3, 0.3])
        config = TrainingConfig.fast_debug(
            batch_size=15, shuffle=False,
            mode="asynchronous", server_batching=False,
            server_step_time_s=0.01,
            failure_schedule=[(0.05, 0, 0.05)], failover_policy="standby",
        )
        trainer = SpatioTemporalTrainer(tiny_split_spec, parts, config,
                                        topology=topology,
                                        train_transform=normalize)
        trainer.train(epochs=1)
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1 and stats.shard_recoveries == 1
        # Client 1's post-recovery batch was dispatched, not stranded
        # behind the dead step's next_free gate.
        assert_no_leaks(trainer)
        processed = trainer.cluster.processed_per_system()
        # Client 1's first batch was shed at the crash; its second — sent
        # after recovery, arriving before the stale gate — must train.
        assert processed.get(1, 0) == 15
        assert_failover_accounting(trainer)

    def test_crash_sheds_queued_work_leak_free(self, tiny_split_spec, tiny_parts4,
                                               normalize):
        # Per-message processing with a slow step keeps messages queued,
        # so the crash genuinely sheds in-queue work through the
        # failover accounting.
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=4, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.02, max_in_flight=2,
            server_batching=False,
            failure_schedule=[(0.015, 1)], failover_policy="rebalance",
        )
        trainer.train(epochs=1)
        assert trainer.engine.stats.shard_crashes == 1
        assert trainer.engine.stats.failover_dropped > 0
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)


class TestRecoveryRestore:
    """Recovery reinstalls the last sync snapshot before catching up."""

    def make_cluster(self, spec, num_shards=2):
        shards = [
            ServerShard(index, CentralServer(spec, seed=0), f"server_{index}")
            for index in range(num_shards)
        ]
        assignment = {index: index % num_shards for index in range(num_shards * 2)}
        return ClusterCoordinator(shards, assignment)

    def test_sync_average_records_recovery_point(self, tiny_split_spec):
        cluster = self.make_cluster(tiny_split_spec)
        base = cluster.shards[0].server.state_dict()
        cluster.shards[1].server.load_state_dict(
            {name: value + 2.0 for name, value in base.items()}
        )
        cluster.shards[0].samples_since_sync = 1
        cluster.shards[1].samples_since_sync = 1
        averaged = cluster.sync_average()
        assert cluster.last_sync_snapshot is averaged
        for name, value in base.items():
            np.testing.assert_allclose(averaged[name], value + 1.0,
                                       rtol=1e-12, atol=1e-15)

    def test_sync_average_skips_unhealthy_shard(self, tiny_split_spec):
        cluster = self.make_cluster(tiny_split_spec, num_shards=3)
        base = cluster.shards[0].server.state_dict()
        for index in (1, 2):
            cluster.shards[index].server.load_state_dict(
                {name: value + index for name, value in base.items()}
            )
        for shard in cluster.shards:
            shard.samples_since_sync = 1
        dead = cluster.shards[2]
        dead.mark_down(now=1.0)
        before = dead.server.state_dict()
        before_syncs = dead.syncs_applied
        averaged = cluster.sync_average()
        # The average covers only the two healthy shards ...
        for name, value in base.items():
            np.testing.assert_allclose(averaged[name], value + 0.5,
                                       rtol=1e-12, atol=1e-15)
        # ... and the dead shard neither contributed nor received it.
        after = dead.server.state_dict()
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value)
        assert dead.syncs_applied == before_syncs

    def test_merge_staleness_ignores_dead_shard(self, tiny_split_spec):
        cluster = self.make_cluster(tiny_split_spec)
        dead = cluster.shards[1]
        dead.mark_down(now=0.5)
        before = dead.server.state_dict()
        snapshot = {name: value + 5.0 for name, value in before.items()}
        assert cluster.merge_staleness(dead, snapshot, staleness_s=0.0) == 0.0
        after = dead.server.state_dict()
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value)

    def test_recovered_shard_reinstalls_snapshot(self, tiny_split_spec, tiny_parts4,
                                                 normalize):
        # Average mode with sync_every=1: a snapshot exists before the
        # crash, so the recovery installs it (visible as a reset of the
        # per-sync counters plus an extra syncs_applied tick).
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            failure_schedule=[(0.03, 1, 0.02)], failover_policy="standby",
        )
        trainer.train(epochs=2)
        assert trainer.engine.stats.shard_recoveries == 1
        assert trainer.cluster.last_sync_snapshot is not None

    def test_reassign_moves_client_ids(self, tiny_split_spec):
        cluster = self.make_cluster(tiny_split_spec)
        assert cluster.reassign(1, 0) is True
        assert cluster.assignment[1] == 0
        assert cluster.shards[0].client_ids == [0, 1, 2]
        assert cluster.shards[1].client_ids == [3]
        # Idempotent and reversible.
        assert cluster.reassign(1, 0) is False
        assert cluster.reassign(1, 1) is True
        assert cluster.original_assignment[1] == 1
        with pytest.raises(ValueError, match="reassign"):
            cluster.reassign(1, 5)


class TestRecoveryRestorePreference:
    """The recovery source ladder: newest intact checkpoint, else the last
    sync snapshot, else the initial weights — with RPO accounted per hop."""

    def test_crash_before_first_sync_reinstalls_initial_weights(
            self, tiny_split_spec, tiny_parts4, normalize):
        """Satellite pin: recovery with no sync snapshot (and no store)
        must deterministically reinstall the shard's initial weights."""
        from repro.simnet.events import Simulator

        def build():
            return make_trainer(
                tiny_split_spec, tiny_parts4, normalize,
                num_servers=2, server_sync_every=1000,
                server_sync_mode="average",
                failure_schedule=[(1e6, 0, 1.0)],  # inert: crash injected below
                failover_policy="standby",
            )

        trainer = build()
        initial = {name: value.copy()
                   for name, value in trainer.cluster.initial_snapshot.items()}
        trainer.train(epochs=1)
        assert trainer.cluster.last_sync_snapshot is None
        shard = trainer.cluster.shards[0]
        trained = shard.server.state_dict()
        assert any(not np.array_equal(trained[name], initial[name])
                   for name in initial)  # the epoch actually moved the weights
        samples_at_crash = shard.samples_processed

        sim = Simulator()
        engine = trainer.engine
        engine._crash_shard(sim, engine._runtimes[0])
        engine._recover_shard(sim, engine._runtimes[0])

        recovered = shard.server.state_dict()
        for name, value in initial.items():
            np.testing.assert_array_equal(recovered[name], value,
                                          err_msg=f"{name} not reset")
        # A restart destroys the optimizer's moments and per-sync counters.
        optimizer = shard.server.optimizer
        assert optimizer.step_count == 0
        assert all(buffer is None
                   for buffers in optimizer.state_dict()["slots"].values()
                   for buffer in buffers)
        assert shard.samples_since_sync == 0
        assert shard.steps_since_sync == 0
        assert shard.recoveries_from_initial == 1
        assert shard.rpo_lost_samples == samples_at_crash  # everything lost
        # Deterministic: an identically-seeded twin starts from the exact
        # same initial snapshot the recovery reinstalls.
        twin = build()
        for name, value in twin.cluster.initial_snapshot.items():
            np.testing.assert_array_equal(initial[name], value)

    def test_crash_before_first_sync_end_to_end(self, tiny_split_spec,
                                                tiny_parts4, normalize):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1000, server_sync_mode="average",
            failure_schedule=[(0.01, 0, 0.02)], failover_policy="standby",
        )
        history = trainer.train(epochs=2)
        assert trainer.engine.stats.shard_recoveries == 1
        shard = trainer.cluster.shards[0]
        assert shard.recoveries_from_initial == 1
        assert shard.rpo_lost_samples > 0
        assert len(history.records) == 2
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)

    def test_recovery_prefers_newest_checkpoint(self, tiny_split_spec,
                                                tiny_parts4, normalize):
        # No sync ever fires, so the durable checkpoint is the freshest
        # restore point — without it this crash would fall all the way
        # back to the initial weights.
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1000, server_sync_mode="average",
            checkpoint_every_s=0.002,
            failure_schedule=[(0.03, 1, 0.02)], failover_policy="standby",
        )
        history = trainer.train(epochs=2)
        shard = trainer.cluster.shards[1]
        assert trainer.engine.stats.shard_recoveries == 1
        assert shard.recoveries_from_checkpoint == 1
        assert shard.recoveries_from_sync == 0
        assert shard.recoveries_from_initial == 0
        assert shard.checkpoints_taken > 0
        # RPO against a 2 ms cadence is far tighter than the crash time.
        assert 0.0 <= shard.rpo_lost_s < 0.03
        stats = shard.stats()
        for key in ("rpo_lost_s", "rpo_lost_samples",
                    "recoveries_from_checkpoint", "recoveries_from_sync",
                    "recoveries_from_initial", "checkpoints_taken"):
            assert key in stats
        queue_stats = history.queue_stats
        assert queue_stats["recoveries_from_checkpoint"] == 1
        assert queue_stats["rpo_lost_s"] == pytest.approx(shard.rpo_lost_s)
        assert queue_stats["mean_rpo_s_per_recovery"] == \
            pytest.approx(shard.rpo_lost_s)
        assert queue_stats["checkpoints_written"] > 0
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)

    def test_sync_snapshot_used_when_no_store(self, tiny_split_spec,
                                              tiny_parts4, normalize):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            failure_schedule=[(0.03, 1, 0.02)], failover_policy="standby",
        )
        history = trainer.train(epochs=2)
        shard = trainer.cluster.shards[1]
        assert trainer.engine.stats.shard_recoveries == 1
        assert shard.recoveries_from_sync == 1
        assert shard.recoveries_from_checkpoint == 0
        assert history.queue_stats["recoveries_from_sync"] == 1

    def test_sync_snapshot_wins_when_fresher_than_checkpoint(
            self, tiny_split_spec, tiny_parts4, normalize):
        # Per-round averaging keeps syncing among the survivors while the
        # shard is down, so by recovery time the sync snapshot postdates
        # the dead shard's newest checkpoint — freshest state wins.
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="average",
            checkpoint_every_s=0.002,
            failure_schedule=[(0.03, 1, 0.02)], failover_policy="standby",
        )
        trainer.train(epochs=2)
        shard = trainer.cluster.shards[1]
        assert trainer.engine.stats.shard_recoveries == 1
        assert shard.checkpoints_taken > 0
        assert shard.recoveries_from_sync == 1
        assert shard.recoveries_from_checkpoint == 0


class TestStochasticChurnEndToEnd:
    def test_training_survives_churn(self, tiny_split_spec, tiny_parts4, normalize):
        trainer = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.002,
            failure_mtbf_s=0.02, failure_mttr_s=0.01,
            failover_policy="rebalance", failover_delay_s=0.001,
        )
        history = trainer.train(epochs=2)
        stats = trainer.engine.stats
        assert stats.shard_crashes > 0
        assert stats.shard_recoveries > 0
        assert len(history.records) == 2
        assert_no_leaks(trainer)
        assert_failover_accounting(trainer)
        # Churn is reproducible: an identically-seeded twin sees the
        # exact same crash/recovery counts.
        twin = make_trainer(
            tiny_split_spec, tiny_parts4, normalize,
            num_servers=2, server_sync_every=1, server_sync_mode="staleness",
            mode="asynchronous", server_step_time_s=0.002,
            failure_mtbf_s=0.02, failure_mttr_s=0.01,
            failover_policy="rebalance", failover_delay_s=0.001,
        )
        twin.train(epochs=2)
        assert twin.engine.stats.shard_crashes == stats.shard_crashes
        assert twin.engine.stats.shard_recoveries == stats.shard_recoveries
