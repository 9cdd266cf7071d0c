"""``python -m repro.server.worker <job_dir>`` — run one job to completion.

The worker is a throwaway process: it reads the job directory the
:class:`~repro.server.jobs.JobManager` prepared, trains, and writes its
progress and outcome back into that directory.  It holds **no** state
the directory doesn't — which is exactly why the manager may kill it
with SIGKILL at any moment and a *different* worker process can pick
the job back up:

* Start vs resume is decided by the checkpoint store alone: if
  ``checkpoints/`` holds an intact :class:`RunCheckpoint`, the trainer
  is rebuilt from it (replay-exact, per ``tests/state``); otherwise the
  job starts fresh.
* Metrics stream live: every obs flush appends one row to
  ``metrics.jsonl`` (byte-identical to the end-of-run export).  On
  resume the file is first *repaired* — a partially-written trailing
  line and any rows from past the restored sim-clock (work that will be
  replayed) are dropped, keeping the surviving raw bytes untouched — and
  then appended to, so the finished file is byte-identical to the one an
  uninterrupted run would have written.
* Progress is published through ``status.json`` from the trainer's
  ``on_epoch_end`` hook, after each epoch's run checkpoint is durable —
  so ``epochs_completed`` never claims an epoch the store can't replay.

On success the worker writes ``result.json`` (history summary + per-
epoch records), ``final_state.npz`` (the deployment's weights, for
equivalence checks against an uninterrupted twin) and ``trace.json``,
then marks the job ``completed``.  Any exception marks it ``failed``
with the traceback in both ``status.json`` and ``worker.log``.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List

from ..api.jobspec import JobSpec
from ..api.runtime import build_trainer, build_workload, resume_trainer
from ..core.history import EpochRecord, TrainingHistory
from ..core.trainer import SpatioTemporalTrainer
from ..nn.serialization import save_state_dict
from ..state.store import FileCheckpointStore
from .jobs import read_json, write_json_atomic

__all__ = ["main", "repair_metrics", "repair_epoch_ledger",
           "flatten_state_dict"]


def _truncate_jsonl(path: Path, keep: Callable[[Dict[str, Any]], bool]) -> None:
    """Cut a JSONL file at its first row that is not durable or not kept.

    A row survives while it is a complete line (a torn trailing write —
    a flush caught mid-write by the kill — is not), parses as a JSON
    object and satisfies ``keep``; everything from the first row that
    fails is dropped.  Surviving lines are preserved byte-for-byte and
    the file is replaced atomically; a missing file is left missing.
    """
    if not path.exists():
        return
    kept = bytearray()
    with open(path, "rb") as handle:
        for line in handle.read().splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                break
            if not isinstance(row, dict) or not keep(row):
                break
            kept.extend(line)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bytes(kept))
    os.replace(tmp, path)


def repair_metrics(path: Path, restored_clock: float) -> None:
    """Trim ``metrics.jsonl`` back to the restored checkpoint's horizon.

    Keeps every complete row with ``t <= restored_clock`` — those flushes
    happened before the checkpoint and will *not* fire again.  Drops
    rows from after it (the resumed run replays that span and re-emits
    identical rows) and a torn trailing line.  Surviving lines are
    preserved byte-for-byte, which is what makes the finished file
    byte-identical to an uninterrupted run's export.
    """
    _truncate_jsonl(path, lambda row: float(row.get("t", 0.0)) <= restored_clock)


def flatten_state_dict(state: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """``{component: {param: array}}`` → ``{"component::param": array}``
    (the flat shape :func:`repro.nn.serialization.save_state_dict` persists)."""
    flat: Dict[str, Any] = {}
    for component, params in state.items():
        for name, value in params.items():
            flat[f"{component}::{name}"] = value
    return flat


def repair_epoch_ledger(path: Path, start_epoch: int) -> None:
    """Trim ``epochs.jsonl`` to records the resumed run won't re-emit.

    Epochs >= ``start_epoch`` are replayed (and re-appended) by the
    resumed run; a torn trailing line is dropped like in
    :func:`repair_metrics`.
    """
    _truncate_jsonl(path, lambda record: int(record.get("epoch", -1)) < start_epoch)


def _publish(status_path: Path, **updates: Any) -> None:
    status = read_json(status_path)
    status.update(updates)
    write_json_atomic(status_path, status)


def _result_payload(history: TrainingHistory,
                    ledger_path: Path) -> Dict[str, Any]:
    """Final result: the run-level summary plus the *full* epoch ledger.

    ``history`` belongs to the last worker attempt, so its records cover
    only the epochs that attempt trained; the ledger the workers
    appended to across attempts covers the whole job.  Aggregate engine
    state (traffic, queue, reliability) rides the checkpoint, so the
    summary's run-level numbers already span every attempt — only the
    epoch count needs the ledger.
    """
    epochs: List[Dict[str, Any]] = []
    if ledger_path.exists():
        for line in ledger_path.read_text(encoding="utf-8").splitlines():
            epochs.append(json.loads(line))
    summary = history.summary()
    summary["epochs"] = len(epochs)
    return {"summary": summary, "epochs": epochs}


def run_job_dir(job_dir: Path) -> None:
    """Train the job described by ``job_dir`` (fresh or resumed)."""
    spec = JobSpec.from_json_dict(read_json(job_dir / "spec.json"))
    status_path = job_dir / "status.json"
    metrics_path = job_dir / "metrics.jsonl"
    ledger_path = job_dir / "epochs.jsonl"
    store = FileCheckpointStore(job_dir / "checkpoints")
    pieces = build_workload(spec.workload)

    if store.latest_run() is not None:
        trainer: SpatioTemporalTrainer = resume_trainer(spec, store,
                                                        pieces=pieces)
        repair_metrics(metrics_path, trainer.engine.clock)
        repair_epoch_ledger(ledger_path, trainer._start_epoch)
        trainer.obs.stream_to(metrics_path, append=True)
    else:
        trainer = build_trainer(spec, checkpoint_store=store, pieces=pieces)
        trainer.obs.stream_to(metrics_path, append=False)

    def on_epoch_end(record: EpochRecord) -> None:
        # Fires after the epoch's run checkpoint is durable, so neither
        # the count nor the ledger gets ahead of what a resume replays.
        with open(ledger_path, "a", encoding="utf-8") as ledger:
            ledger.write(json.dumps(record.as_dict()) + "\n")
        _publish(status_path, epochs_completed=record.epoch + 1)

    try:
        history = trainer.train(
            test_dataset=pieces.test if spec.evaluate else None,
            on_epoch_end=on_epoch_end,
        )
    finally:
        trainer.obs.close_stream()

    if trainer.obs.enabled:
        trainer.obs.write_trace(job_dir / "trace.json")
    save_state_dict(flatten_state_dict(trainer.state_dict()),
                    job_dir / "final_state.npz")
    write_json_atomic(job_dir / "result.json",
                      _result_payload(history, ledger_path))
    _publish(status_path, state="completed", pid=None, error=None)


def main(argv: Any = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.server.worker <job_dir>",
              file=sys.stderr)
        return 2
    job_dir = Path(argv[0])
    try:
        run_job_dir(job_dir)
    except Exception as exc:  # noqa: BLE001 - the job dir is the error channel
        traceback.print_exc()
        try:
            _publish(job_dir / "status.json", state="failed", pid=None,
                     error=f"{type(exc).__name__}: {exc}")
        except OSError:
            pass  # status write failing must not mask the real error
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
