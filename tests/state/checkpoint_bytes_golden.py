"""Scenarios and digests behind ``fixtures/checkpoint_bytes_parent.json``.

The fixture pins the checkpoint *write format* byte for byte: the sha256 of
every payload file and of ``manifest.json`` a :class:`FileCheckpointStore`
holds after two epochs of a run, and again after a fresh trainer resumed
from that directory and finished the run, plus a digest of every record an
in-memory store took over the same two epochs (arrays in key order with
dtype and shape, ``repr`` of ``meta`` so key types count).  It was recorded
by the commit before the record classes became their payload, so a
refactor of capture/restore that moves one key, one key type or one byte
fails here.

This module is both the recorder and the test's helper: run as a script
with the recording commit's ``src`` on ``PYTHONPATH`` it writes the fixture
(see ``fixtures/README.md``); ``test_checkpoint_bytes.py`` imports the same
scenarios and digests and compares what the current code writes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.state import FileCheckpointStore, MemoryCheckpointStore

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "checkpoint_bytes_parent.json"

BASE = dict(epochs=3, num_servers=2, server_sync_every=2,
            server_step_time_s=0.002, checkpoint_every_s=0.005)

#: Every plane that puts state into a record: the sync snapshot, a
#: crash/recovery (RPO + health), scripted chaos and per-message chaos with
#: reliable delivery (retry stream, chaos stream positions), obs instruments
#: and interval checkpoints; then the asynchronous path with a stateful
#: scheduling policy (its feedback rides the ledger with int keys), a bounded
#: queue that drops, stochastic crash lanes and round checkpoints.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "sync-chaos-obs": dict(
        BASE, mode="synchronous", server_sync_mode="average",
        sync_quorum=0.5, sync_timeout_s=0.05,
        failure_schedule=[(0.012, 1, 0.02)], failover_policy="rebalance",
        failover_delay_s=0.002, reliable_delivery=True,
        chaos_schedule=[("flap", 0.01, 0.02, 0), ("straggler", 0.0, 0.05, 1, 3.0),
                        ("move", 0.02, 2, 1)],
        chaos_duplicate_probability=0.05, chaos_reorder_probability=0.05,
        chaos_corrupt_probability=0.02,
        obs_enabled=True, obs_trace_sample_rate=0.0, obs_flush_every_s=0.02,
        checkpoint_mode="interval"),
    "async-fair-round": dict(
        BASE, mode="asynchronous", server_sync_mode="staleness",
        queue_policy="weighted_fair", max_queue_size=2,
        failure_mtbf_s=0.02, failure_mttr_s=0.01, failover_policy="rebalance",
        checkpoint_mode="round"),
}
RESUME_AFTER = 2


def make_trainer(spec, parts, normalize, overrides, store):
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, train_transform=normalize,
                                 checkpoint_store=store)


def directory_digests(directory: Path) -> Dict[str, str]:
    """sha256 of every payload file and the manifest, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())
            if path.suffix == ".npz" or path.name == FileCheckpointStore.MANIFEST_NAME}


def payload_digest(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> str:
    """Digest of one ``(arrays, meta)`` record: key order, dtype, shape and
    bytes of every array, then ``repr(meta)`` (so int and str keys differ)."""
    digest = hashlib.sha256()
    for key, value in arrays.items():
        value = np.asarray(value)
        digest.update(f"{key}|{value.dtype.str}|{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    digest.update(repr(meta).encode())
    return digest.hexdigest()


def memory_digests(store: MemoryCheckpointStore) -> Dict[str, str]:
    """Digest of every record the memory store holds, by version."""
    return {f"{record['version']}:{record['kind']}:{record['scope']}":
            payload_digest(record["arrays"], record["meta"])
            for record in sorted(store._all_records(), key=lambda r: r["version"])}


def record_scenario(spec, parts, normalize, name: str, work: Path) -> Dict[str, Any]:
    """Train two epochs into a file store and a memory store, digest both,
    then resume a fresh trainer from the file store, finish, digest again."""
    overrides = SCENARIOS[name]
    store_dir = work / name
    shutil.rmtree(store_dir, ignore_errors=True)
    trainer = make_trainer(spec, parts, normalize, overrides,
                           FileCheckpointStore(store_dir))
    trainer.train(epochs=RESUME_AFTER)
    del trainer
    after_two = directory_digests(store_dir)

    resumed = SpatioTemporalTrainer.resume_from_store(
        FileCheckpointStore(store_dir), spec, parts, train_transform=normalize)
    assert resumed._start_epoch == RESUME_AFTER
    resumed.train()
    after_resume = directory_digests(store_dir)

    memory = MemoryCheckpointStore()
    trainer = make_trainer(spec, parts, normalize, overrides, memory)
    trainer.train(epochs=RESUME_AFTER)
    return {"files_after_two_epochs": after_two,
            "files_after_resume": after_resume,
            "memory_records": memory_digests(memory)}


def _tiny_workload():
    """The ``tests/conftest.py`` + ``tests/state/conftest.py`` workload."""
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
    import tempfile

    from repro.nn.dtype import default_dtype

    with default_dtype(np.float64), tempfile.TemporaryDirectory() as work:
        spec, parts, normalize = _tiny_workload()
        golden = {name: record_scenario(spec, parts, normalize, name, Path(work))
                  for name in SCENARIOS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} scenarios)", file=sys.stderr)


if __name__ == "__main__":
    main()
