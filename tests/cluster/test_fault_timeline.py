"""One fault timeline: shard crashes and chaos faults on a single plan.

The parent-commit golden (``fixtures/fault_timeline_parent.json``, see
``fixtures/README.md``) was recorded by the last commit that scheduled
shard crashes through ``repro.cluster.failover.FailureModel``; the merged
plan must reproduce every counter, clock and weight of it exactly, resume
that commit's run records, keep its tie order between a crash and a chaos
event at one instant, and reject fault targets outside the deployment
before any training happens.
"""

import json
import shutil

import pytest

import fault_timeline_golden as golden
from repro.chaos import ScheduledFaults, StochasticFaults, build_fault_plan
from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer


@pytest.fixture(scope="module")
def parent_golden():
    return json.loads(golden.GOLDEN.read_text())


class TestParentCommitGolden:
    @pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
    def test_scenario_reproduces_parent(self, name, parent_golden, tiny_split_spec,
                                        tiny_parts4, normalize):
        produced = golden.run_scenario(tiny_split_spec, tiny_parts4, normalize, name)
        expected = parent_golden[name]
        assert produced.keys() == expected.keys()
        for key in expected:
            assert produced[key] == expected[key], f"{name}: {key}"

    def test_golden_is_not_vacuous(self, parent_golden):
        for name, run in parent_golden.items():
            assert run["engine"]["shard_crashes"] >= 3, name
            assert run["engine"]["shard_recoveries"] >= 3, name
            assert (run["engine"]["chaos_events"] > 0) == name.endswith("chaos"), name

    @pytest.mark.parametrize("name, plan, pending", [
        ("scripted", "scheduled", "timelines"),
        ("stochastic-chaos", "stochastic", "next"),
    ])
    def test_parent_run_record_resumes(self, name, plan, pending, parent_golden,
                                       tiny_split_spec, tiny_parts4, normalize,
                                       tmp_path):
        """A run record the parent wrote (``failure_state`` in its own
        payload shape, ``chaos_state`` beside it) restores with no upgrade
        step and finishes exactly as the parent finished it."""
        store_dir = shutil.copytree(golden.RUN_RECORDS / name, tmp_path / name)
        meta = golden.FileCheckpointStore(store_dir).latest_run().meta
        assert meta["failure_state"]["name"] == plan
        assert all(meta["failure_state"][pending].values())  # transitions pending
        assert (meta["chaos_state"] is not None) == name.endswith("chaos")
        produced = golden.finish_from(store_dir, tiny_split_spec, tiny_parts4,
                                      normalize)
        assert produced == parent_golden[f"resumed:{name}"]


class TestTieOrder:
    def test_crash_and_chaos_at_one_instant_keep_lane_scheduling_order(
            self, tiny_split_spec, tiny_parts4, normalize):
        """Lanes tie-break by when their pending event was scheduled: at
        epoch start the crash lanes go first, afterwards whichever lane
        fired (and so re-scheduled) earlier."""
        config = TrainingConfig.fast_debug(
            epochs=2, num_servers=2, server_sync_every=2,
            failure_schedule=[(0.01, 0, 0.01), (0.03, 1, 0.01)],
            chaos_schedule=[("flap", 0.01, 0.01, 0), ("flap", 0.02, 0.02, 1)],
            obs_enabled=True, obs_trace_sample_rate=0.0)
        trainer = SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                        train_transform=normalize)
        trainer.train()
        fired = [(round(event.ts_us / 1e6, 6), event.name,
                  (event.args or {}).get("phase"))
                 for event in trainer.obs.tracer.events
                 if event.name in ("shard-crash", "shard-recovery", "chaos-flap")]
        assert fired == [
            (0.01, "shard-crash", None), (0.01, "chaos-flap", "begin"),
            (0.02, "shard-recovery", None), (0.02, "chaos-flap", "end"),
            (0.02, "chaos-flap", "begin"),
            (0.03, "shard-crash", None),
            (0.04, "chaos-flap", "end"), (0.04, "shard-recovery", None),
        ]
        assert trainer.engine.stats.chaos_events == 4  # crashes are not chaos events


class TestBuildFaultPlan:
    def test_one_plan_for_every_combination(self):
        scripted = dict(failure_schedule=[(0.1, 0, 0.1)])
        churn = dict(failure_mtbf_s=1.0, failure_mttr_s=0.1)
        flaps = dict(chaos_flap_mtbf_s=1.0)
        schedule = dict(chaos_schedule=[("flap", 0.1, 0.1, 0)])
        for overrides, crash_lane, chaos_lane in (
            (scripted, True, False), (churn, True, False),
            (dict(scripted, **schedule), True, True),
            (dict(scripted, **flaps), True, True),
            (dict(churn, **schedule), True, True),
            (dict(churn, **flaps), True, True),
        ):
            plan = build_fault_plan(TrainingConfig(num_servers=2, **overrides), 4)
            assert (plan.peek(0) is not None) == crash_lane, overrides
            assert (plan.peek() is not None) == chaos_lane, overrides
            state = plan.state_dict()
            assert (state["failure_state"] is not None) == crash_lane
            assert (state["chaos_state"] is not None) == chaos_lane
        assert isinstance(build_fault_plan(TrainingConfig(**scripted), 4),
                          ScheduledFaults)
        assert isinstance(build_fault_plan(TrainingConfig(**churn, **flaps), 4),
                          StochasticFaults)

    def test_stochastic_crash_streams_keep_their_seed_derivation(self):
        plan = build_fault_plan(
            TrainingConfig(seed=11, failure_mtbf_s=2.0, chaos_flap_mtbf_s=1.0), 4)
        twin = StochasticFaults(num_clients=4, crash_mtbf_s=2.0,
                                crash_seed=11 + 104_729)
        assert plan.peek(1).time == twin.peek(1).time

    def test_mixed_plan_round_trips_both_halves(self):
        config = TrainingConfig(num_servers=2, failure_mtbf_s=1.0,
                                chaos_schedule=[("flap", 0.1, 0.1, 0)])
        plan = build_fault_plan(config, 4)
        plan.advance(0)
        plan.advance()
        twin = build_fault_plan(config, 4)
        twin.load_state_dict(plan.state_dict())
        assert twin.peek(0) == plan.peek(0)
        assert twin.peek() == plan.peek()
        assert plan.state_dict()["failure_state"]["name"] == "stochastic"
        assert plan.state_dict()["chaos_state"]["name"] == "scheduled"


class TestTargetsAreRangeChecked:
    """Bugfix: out-of-range targets used to die mid-``train()`` with an
    ``IndexError``/``KeyError`` — or, for ``-1``, hit the last shard."""

    @pytest.mark.parametrize("entry", [
        ("straggler", 0.0, 0.1, 7, 5.0),
        ("straggler", 0.0, 0.1, -1, 5.0),
        ("partition", 0.0, 0.1, 0, 2),
        ("move", 0.0, 0, 2),
    ])
    def test_shard_ids_rejected_by_the_config(self, entry):
        with pytest.raises(ValueError, match="num_servers=2"):
            TrainingConfig(num_servers=2, chaos_schedule=[entry])

    @pytest.mark.parametrize("entry", [
        ("flap", 0.0, 0.1, 99), ("leave", 0.0, 0.1, 4), ("move", 0.0, -1, 1),
    ])
    def test_client_ids_rejected_before_training(self, entry, tiny_split_spec,
                                                 tiny_parts4, normalize):
        config = TrainingConfig.fast_debug(num_servers=2, chaos_schedule=[entry])
        with pytest.raises(ValueError, match="num_clients=4"):
            build_fault_plan(config, 4)
        with pytest.raises(ValueError, match="num_clients=4"):
            SpatioTemporalTrainer(tiny_split_spec, tiny_parts4, config,
                                  train_transform=normalize)

    def test_in_range_targets_accepted(self):
        config = TrainingConfig(num_servers=2, chaos_schedule=[
            ("straggler", 0.0, 0.1, 1, 5.0), ("partition", 0.0, 0.1, 1, 0),
            ("move", 0.0, 3, 1), ("flap", 0.0, 0.1, 3)])
        assert build_fault_plan(config, 4) is not None


class TestMalformedTimelinesFailAtTheConfig:
    """Bugfix: these passed ``TrainingConfig`` and died at trainer build."""

    @pytest.mark.parametrize("overrides, message", [
        (dict(failure_schedule=[(0.5,)]), "failure_schedule"),
        (dict(failure_schedule=[(1.0, 0, 10.0), (2.0, 0, 1.0)]), "overlapping"),
        (dict(failure_schedule=[(1.0, 0, -1.0)]), "duration"),
        (dict(chaos_schedule=[("flap", 0.1, 0.2)]), "entries are"),
        (dict(chaos_schedule=[()]), "unknown chaos kind"),
        (dict(chaos_schedule=[("flap", 0.0, 0.2, 0), ("flap", 0.1, 0.2, 0)]),
         "overlapping"),
    ])
    def test_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TrainingConfig(**overrides)
