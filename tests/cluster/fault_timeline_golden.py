"""Scenarios and capture behind ``fixtures/fault_timeline_parent.json``.

The fixture pins the simulated physics of shard crash/recovery (alone and
next to a scripted ``chaos_schedule``) as produced by the last commit that
still had ``repro.cluster.failover.FailureModel``.  This module is both the
recorder and the test's helper, so the fixture and its check can never
describe different runs: run as a script with *that* commit's ``src`` on
``PYTHONPATH`` it writes the fixture (see ``fixtures/README.md``);
``test_fault_timeline.py`` imports the same scenarios and ``snapshot`` and
compares what the current code produces, exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.state import FileCheckpointStore

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "fault_timeline_parent.json"
RUN_RECORDS = FIXTURES / "parent_run_records"

BASE = dict(epochs=3, num_servers=2, server_sync_every=2,
            server_step_time_s=0.002, failover_policy="rebalance",
            failover_delay_s=0.002)

MODES = {
    "synchronous": dict(mode="synchronous", server_sync_mode="average",
                        sync_quorum=0.5, sync_timeout_s=0.05),
    "asynchronous": dict(mode="asynchronous", server_sync_mode="staleness"),
}

#: Crashes spanning all three epochs: a recovery, a second outage of the same
#: shard, and an open-ended last crash.
FAILURES = {
    "scripted": dict(failure_schedule=[(0.012, 1, 0.02), (0.05, 0, 0.04),
                                       (0.1, 1, 0.03), (0.14, 0)]),
    "stochastic": dict(failure_mtbf_s=0.02, failure_mttr_s=0.01),
}

#: Every chaos kind; the flap at 0.05 begins at the instant shard 0 crashes
#: and the leave at 0.13 begins at the instant shard 1 recovers.
CHAOS = {
    "chaos": dict(chaos_schedule=[
        ("straggler", 0.0, 0.05, 1, 3.0), ("flap", 0.01, 0.02, 0),
        ("partition", 0.03, 0.03, 0, 1), ("flap", 0.05, 0.01, 2),
        ("leave", 0.13, 0.02, 3), ("move", 0.09, 2, 1),
    ]),
    "plain": {},
}

SCENARIOS: Dict[str, Dict[str, Any]] = {
    f"{failure}-{mode}-{chaos}": dict(BASE, **MODES[mode], **FAILURES[failure],
                                      **CHAOS[chaos])
    for failure in FAILURES for mode in MODES for chaos in CHAOS
}

#: Runs also recorded as a two-epoch checkpoint directory, for the
#: resume-from-a-parent-record test.  Trimmed to what the recording commit
#: can resume: it cannot restore a record whose assignment differs from the
#: initial one (``restore_run_checkpoint`` replays the moves with ``sim=None``
#: and the log line reads ``sim.now``), so orphans park (``standby``) and no
#: ``move`` is scripted; and under interval checkpoints a shard that never
#: recovers keeps the checkpoint chain (and so the epoch) alive for ever, so
#: every crash here ends.  At the epoch-2 boundary the scripted record has four
#: transitions pending; the stochastic one has both per-shard streams
#: mid-flight and the ``leave`` pair still to come.
_RESUMABLE = dict(BASE, **MODES["synchronous"], failover_policy="standby",
                  checkpoint_every_s=0.005)
RESUMED: Dict[str, Dict[str, Any]] = {
    "scripted": dict(_RESUMABLE, failure_schedule=[
        (0.012, 1, 0.02), (0.05, 0, 0.04), (0.17, 1, 0.03), (0.21, 0, 0.01)]),
    "stochastic-chaos": dict(_RESUMABLE, **FAILURES["stochastic"], chaos_schedule=[
        entry for entry in CHAOS["chaos"]["chaos_schedule"] if entry[0] != "move"]),
}
RESUME_AFTER = 2


def make_trainer(spec, parts, normalize, overrides, store=None):
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, train_transform=normalize,
                                 checkpoint_store=store)


def weights_digest(state: Dict[str, Dict[str, np.ndarray]]) -> str:
    digest = hashlib.sha256()
    for owner in sorted(state):
        for name in sorted(state[owner]):
            digest.update(f"{owner}/{name}".encode())
            digest.update(np.ascontiguousarray(state[owner][name]).tobytes())
    return digest.hexdigest()


def snapshot(trainer, history) -> Dict[str, Any]:
    """Everything the fault timeline can move, as plain JSON."""
    queue_stats = {key: value for key, value in history.queue_stats.items()
                   if not key.endswith("_wall_s")}
    payload = {
        "engine": trainer.engine.stats.as_dict(),
        "traffic": trainer.transport.log.summary(),
        "shards": [shard.stats() for shard in trainer.cluster.shards],
        "queue_stats": queue_stats,
        "clock": trainer.engine.clock,
        "weights_sha256": weights_digest(trainer.state_dict()),
    }
    return json.loads(json.dumps(payload))  # JSON-normalise keys and tuples


def run_scenario(spec, parts, normalize, name: str) -> Dict[str, Any]:
    trainer = make_trainer(spec, parts, normalize, SCENARIOS[name])
    return snapshot(trainer, trainer.train())


def finish_from(store_dir: Path, spec, parts, normalize) -> Dict[str, Any]:
    """Resume from ``store_dir``'s run record and train to the last epoch."""
    resumed = SpatioTemporalTrainer.resume_from_store(
        FileCheckpointStore(store_dir, keep=1), spec, parts,
        train_transform=normalize)
    assert resumed._start_epoch == RESUME_AFTER
    return snapshot(resumed, resumed.train())


def _tiny_workload():
    """The ``tests/conftest.py`` + ``tests/cluster/conftest.py`` workload."""
    from repro.core.models import tiny_cnn_architecture
    from repro.core.split import SplitSpec
    from repro.data.datasets import SyntheticCIFAR10, train_test_split
    from repro.data.partition import IIDPartitioner
    from repro.data.transforms import Normalize

    architecture = tiny_cnn_architecture(image_size=8, num_blocks=2,
                                         base_filters=4, dense_units=16)
    train, _ = train_test_split(
        SyntheticCIFAR10(num_samples=160, image_size=8, seed=7),
        test_fraction=0.25, seed=3)
    return (SplitSpec(architecture, client_blocks=1),
            IIDPartitioner(4, seed=5).partition(train),
            Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5]))


def main() -> None:
    import shutil

    from repro.nn.dtype import default_dtype

    with default_dtype(np.float64):
        spec, parts, normalize = _tiny_workload()
        golden = {name: run_scenario(spec, parts, normalize, name)
                  for name in SCENARIOS}
        for name in RESUMED:
            store_dir = RUN_RECORDS / name
            shutil.rmtree(store_dir, ignore_errors=True)
            trainer = make_trainer(spec, parts, normalize, RESUMED[name],
                                   store=FileCheckpointStore(store_dir, keep=1))
            trainer.train(epochs=RESUME_AFTER)
            del trainer
            # Finish on a copy: the committed directory stays the two-epoch one.
            scratch = store_dir.with_name(store_dir.name + ".scratch")
            shutil.copytree(store_dir, scratch)
            golden[f"resumed:{name}"] = finish_from(scratch, spec, parts, normalize)
            shutil.rmtree(scratch)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
