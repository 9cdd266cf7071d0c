"""One message path: the kernel + drivers reproduce the four spelled-out forks.

The parent-commit golden (``fixtures/engine_kernel_parent.json``, see
``fixtures/README.md``) was recorded by the last commit whose engine had a
reliable and an unreliable copy of every uplink/downlink call site in each
of its two mode runners; the single kernel must reproduce every counter,
ledger, clock, client state and weight of every cell exactly.  The last
test pins what the round-chain driver's ``live`` fixed on the way.
"""

import json

import pytest

import engine_kernel_golden as golden
from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.partition import IIDPartitioner
from repro.obs.invariants import assert_drop_balance
from repro.simnet.events import Simulator


@pytest.fixture(scope="module")
def parent_golden():
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def tiny_parts4(tiny_splits):
    train, _ = tiny_splits
    return IIDPartitioner(4, seed=5).partition(train)


@pytest.mark.parametrize("name", sorted(golden.CELLS))
def test_cell_reproduces_parent(name, parent_golden, tiny_split_spec, tiny_parts4,
                                normalize):
    produced = golden.run_cell(tiny_split_spec, tiny_parts4, normalize, name)
    expected = parent_golden[name]
    assert produced.keys() == expected.keys()
    for key in expected:
        assert produced[key] == expected[key], f"{name}: {key}"


def test_golden_is_not_vacuous(parent_golden):
    """Every merged fork actually ran in the cells named after it."""
    assert parent_golden.keys() == golden.CELLS.keys()
    for name, run in parent_golden.items():
        engine, traffic = run["engine"], run["traffic"]
        assert all(client["pending_batches"] == 0 for client in run["clients"]), name
        reliable = "-reliable-" in name or name == "async-budget"
        assert (engine["retries"] > 0) == reliable, name
        assert (engine["gave_up"] > 0) == reliable, name
        if reliable:
            assert engine["deduped"] > 0, name  # spurious-timeout duplicates
        elif "-unreliable-" in name:
            assert traffic["dropped_messages"] > 0, name
        if "-drop-" in name or name == "async-budget":
            assert engine["queue_drops"] > 0 and engine["nacks_lost"] > 0, name
        if "-block-" in name:
            assert engine["blocked_sends"] > 0, name
        if name.endswith("-duplicate"):
            assert engine["deduped"] > 0, name
        if name.endswith("-crash"):
            assert engine["shard_recoveries"] == 2, name
            assert engine["clients_reassigned"] > 0, name
            assert engine["failover_dropped"] > 0, name
    assert parent_golden["sync-straggler"]["engine"]["sync_timeouts"] > 0
    assert parent_golden["async-budget"]["engine"]["cancelled_at_stop"] > 0
    for mode in ("sync", "async"):  # batched and per-message drains differ
        batched = parent_golden[f"{mode}-unreliable-drop-batched"]
        permsg = parent_golden[f"{mode}-unreliable-drop-permsg"]
        assert batched["weights_sha256"] != permsg["weights_sha256"]


@pytest.fixture
def event_budget(monkeypatch):
    """Bound every simulation, so a run that feeds itself for ever fails
    the test instead of hanging the suite."""
    run = Simulator.run

    def bounded(sim, until=None, max_events=None):
        now = run(sim, until=until, max_events=5000)
        assert sim.stopped or not sim.pending_events, "the run never ends"
        return now

    monkeypatch.setattr(Simulator, "run", bounded)


@pytest.mark.parametrize("periodic", [
    dict(checkpoint_every_s=0.005, checkpoint_mode="interval"),
    dict(obs_enabled=True, obs_flush_every_s=0.005),
], ids=["interval-checkpoints", "obs-flushes"])
@pytest.mark.parametrize("policy", ["rebalance", "standby"])
def test_never_recovering_shard_does_not_keep_the_epoch_alive(
        periodic, policy, tiny_split_spec, tiny_parts4, normalize, event_budget):
    """An open-ended crash leaves a shard that is never ``finished``; the
    periodic chains must not wait for it (at the parent commit this epoch
    never ends)."""
    config = TrainingConfig.fast_debug(
        epochs=2, num_servers=2, server_sync_every=2, failover_policy=policy,
        failure_schedule=[(0.01, 1)], **periodic)
    trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                    train_transform=normalize)
    trainer.train()
    assert trainer.engine.stats.shard_crashes == 1
    assert trainer.engine.stats.shard_recoveries == 0
    assert_drop_balance(trainer)  # balanced, and pending_batches == 0
    if "checkpoint_every_s" in periodic:
        assert trainer.engine.stats.checkpoints_written > 0
    else:
        assert trainer.obs.flushes > 1


PERIODIC = {
    "interval-checkpoints": dict(checkpoint_every_s=0.01),
    "obs-flushes": dict(obs_enabled=True, obs_flush_every_s=0.01),
    "both": dict(checkpoint_every_s=0.01, obs_enabled=True, obs_flush_every_s=0.01),
}

#: Outages that leave clients with data on a shard nothing can bring back:
#: parked by ``standby`` on a shard that stays down, or moved nowhere by
#: ``rebalance`` because no shard survived.
UNREACHABLE = {
    "standby-one-shard": dict(failover_policy="standby", failure_schedule=[(0.02, 1)]),
    "rebalance-total-outage": dict(failover_policy="rebalance",
                                   failure_schedule=[(0.02, 0), (0.02, 1)]),
}


def _async_trainer(spec, parts, normalize, **overrides):
    return golden.make_trainer(
        spec, parts, normalize,
        dict(golden.BASE, **golden.MODES["async"], **overrides))


@pytest.mark.parametrize("periodic", sorted(PERIODIC))
@pytest.mark.parametrize("outage", sorted(UNREACHABLE))
def test_stranded_clients_do_not_keep_the_dispatch_loop_alive(
        outage, periodic, tiny_split_spec, tiny_parts4, normalize, event_budget):
    """The asynchronous twin: stranded clients never exhaust their data, and
    at the parent commit the periodic chains re-armed themselves for ever."""
    trainer = _async_trainer(tiny_split_spec, tiny_parts4, normalize,
                             **UNREACHABLE[outage], **PERIODIC[periodic])
    trainer.train()
    stats = trainer.engine.stats
    assert stats.shard_crashes == len(UNREACHABLE[outage]["failure_schedule"])
    assert stats.shard_recoveries == 0
    assert_drop_balance(trainer)  # balanced, nothing pending, ledger empty
    # The stranded clients kept their data: the run ended without them.
    assert any(es.samples_seen < 2 * es.num_local_samples
               for es in trainer.end_systems)


@pytest.mark.parametrize("periodic", sorted(PERIODIC))
def test_a_recovery_on_the_crash_lane_keeps_the_run_alive(
        periodic, tiny_split_spec, tiny_parts4, normalize, event_budget):
    """While its crash lane still holds the recovery the dead shard counts
    as reachable: the run waits, and its parked clients finish their data."""
    trainer = _async_trainer(tiny_split_spec, tiny_parts4, normalize,
                             failover_policy="standby",
                             failure_schedule=[(0.02, 1, 0.05)],
                             **PERIODIC[periodic])
    trainer.train()
    assert trainer.engine.stats.shard_recoveries == 1
    assert_drop_balance(trainer)
    assert all(es.samples_seen == 2 * es.num_local_samples
               for es in trainer.end_systems)
