"""JobManager mechanics: layout, state machine, reconciliation, repair.

These tests never train: the worker spawn is replaced by a stub that
starts a trivial sleeper process, so every manager code path (status
reconciliation, SIGKILL on pause/cancel, Popen bookkeeping) runs for
real against directories and processes, just without the expensive part.
The full submit → train → crash → resume path lives in
``test_lifecycle.py``.
"""

import json
import subprocess
import sys

import pytest

from repro.api import JobSpec
from repro.server.jobs import (InvalidTransition, JobManager, UnknownJob,
                               read_json, write_json_atomic)
from repro.server.worker import (flatten_state_dict, repair_epoch_ledger,
                                 repair_metrics)


@pytest.fixture
def manager(tmp_path, monkeypatch):
    """A JobManager whose workers are sleeper processes, not trainers."""
    instance = JobManager(tmp_path)
    spawned = []

    def fake_spawn(job_id):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        instance._procs[job_id] = proc
        spawned.append(job_id)
        status = read_json(instance._status_path(job_id))
        status.update(state="running", pid=proc.pid, error=None,
                      attempts=int(status.get("attempts", 0)) + 1)
        write_json_atomic(instance._status_path(job_id), status)

    monkeypatch.setattr(instance, "_spawn_worker", fake_spawn)
    instance.spawned = spawned
    yield instance
    instance.shutdown()


def force_state(manager, job_id, state, **extra):
    status = read_json(manager._status_path(job_id))
    status.update(state=state, **extra)
    write_json_atomic(manager._status_path(job_id), status)


class TestSubmit:
    def test_invalid_payload_leaves_no_trace(self, manager):
        with pytest.raises(ValueError, match="unknown JobSpec keys"):
            manager.submit({"nonsense": True})
        assert manager.job_ids() == []

    def test_layout_and_effective_spec(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="demo").to_json_dict())
        job_dir = manager.job_dir(job_id)
        assert (job_dir / "spec.json").exists()
        assert (job_dir / "status.json").exists()

        effective = JobSpec.from_json_dict(manager.spec(job_id))
        assert effective.config.checkpoint_dir == str(job_dir / "checkpoints")
        assert effective.config.obs_enabled is True
        assert effective.config.obs_dir is None
        assert effective.config.checkpoint_every_s is not None
        assert effective.config.obs_flush_every_s is not None

        status = manager.status(job_id)
        assert status["state"] == "running"
        assert status["attempts"] == 1
        assert status["epochs_total"] == effective.config.epochs

    def test_submitted_cadences_are_kept(self, manager):
        spec = JobSpec.fast_debug(name="tuned", checkpoint_every_s=0.7,
                                  obs_flush_every_s=0.9)
        job_id = manager.submit(spec.to_json_dict())
        effective = JobSpec.from_json_dict(manager.spec(job_id))
        assert effective.config.checkpoint_every_s == 0.7
        assert effective.config.obs_flush_every_s == 0.9

    def test_job_ids_sequence_and_slug(self, manager):
        first = manager.submit(JobSpec.fast_debug(name="My Job!!").to_json_dict())
        second = manager.submit(JobSpec.fast_debug(name="other").to_json_dict())
        assert first == "job-0001-my-job"
        assert second.startswith("job-0002-")

    def test_unknown_job(self, manager):
        with pytest.raises(UnknownJob):
            manager.status("job-9999-ghost")


class TestLifecycle:
    def test_pause_kills_worker_and_resume_restarts(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="p").to_json_dict())
        status = manager.pause(job_id)
        assert status["state"] == "paused"
        assert status["pid"] is None
        assert job_id not in manager._procs  # worker really gone

        status = manager.resume(job_id)
        assert status["state"] == "running"
        assert status["attempts"] == 2

    def test_pause_requires_running(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="p").to_json_dict())
        force_state(manager, job_id, "completed", pid=None)
        manager._procs.pop(job_id).kill()
        with pytest.raises(InvalidTransition, match="pause"):
            manager.pause(job_id)

    def test_resume_requires_resumable_state(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="r").to_json_dict())
        with pytest.raises(InvalidTransition, match="resume"):
            manager.resume(job_id)  # still running

    def test_cancel_is_terminal(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="c").to_json_dict())
        assert manager.cancel(job_id)["state"] == "cancelled"
        with pytest.raises(InvalidTransition):
            manager.cancel(job_id)
        with pytest.raises(InvalidTransition):
            manager.resume(job_id)

    def test_result_before_completion_rejected(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="r").to_json_dict())
        with pytest.raises(InvalidTransition, match="no result"):
            manager.result(job_id)


class TestReconciliation:
    def test_dead_worker_becomes_interrupted(self, manager):
        job_id = manager.submit(JobSpec.fast_debug(name="dead").to_json_dict())
        manager._procs[job_id].kill()
        manager._procs[job_id].wait()
        assert manager.status(job_id)["state"] == "interrupted"
        # and the reconciled state is durable
        assert read_json(manager._status_path(job_id))["state"] == "interrupted"

    def test_reconciles_after_server_restart(self, manager, tmp_path):
        """A fresh manager on the same root (no Popen handles) must reach
        the same verdict from the pid alone."""
        job_id = manager.submit(JobSpec.fast_debug(name="dead").to_json_dict())
        proc = manager._procs[job_id]
        proc.kill()
        proc.wait()  # reap: the pid is properly gone, not a zombie

        restarted = JobManager(tmp_path)
        assert restarted.status(job_id)["state"] == "interrupted"

    def test_restarted_manager_continues_id_sequence(self, manager, tmp_path):
        manager.submit(JobSpec.fast_debug(name="a").to_json_dict())
        restarted = JobManager(tmp_path)
        restarted._spawn_worker = lambda job_id: force_state(
            restarted, job_id, "running")
        second = restarted.submit(JobSpec.fast_debug(name="b").to_json_dict())
        assert second.startswith("job-0002-")


class TestRepairMetrics:
    def rows(self, *ts):
        return "".join(
            json.dumps({"t": t, "metrics": [{"name": "x", "value": t}]}) + "\n"
            for t in ts)

    def test_keeps_rows_up_to_clock_byte_exact(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        keep = self.rows(0.05, 0.10)
        path.write_text(keep + self.rows(0.15, 0.20))
        repair_metrics(path, restored_clock=0.12)
        assert path.read_bytes() == keep.encode()

    def test_drops_torn_trailing_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        keep = self.rows(0.05)
        path.write_text(keep + '{"t": 0.1, "metr')  # killed mid-write
        repair_metrics(path, restored_clock=1.0)
        assert path.read_bytes() == keep.encode()

    def test_drops_unparseable_line_and_everything_after(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        keep = self.rows(0.05)
        path.write_text(keep + "garbage\n" + self.rows(0.10))
        repair_metrics(path, restored_clock=1.0)
        assert path.read_bytes() == keep.encode()

    def test_missing_file_is_a_noop(self, tmp_path):
        repair_metrics(tmp_path / "metrics.jsonl", restored_clock=1.0)
        assert not (tmp_path / "metrics.jsonl").exists()


class TestRepairEpochLedger:
    def test_drops_replayed_epochs_and_torn_line_keeps_bytes(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        # Odd spacing and key order: surviving lines must not be re-encoded.
        keep = '{"epoch": 0,  "loss": 2.5}\n{"loss":2.25,"epoch":1}\n'
        path.write_text(keep + '{"epoch": 2, "loss": 2.0}\n{"epoch": 3, "lo')
        repair_epoch_ledger(path, start_epoch=2)
        assert path.read_bytes() == keep.encode()

    def test_torn_line_before_start_epoch_is_dropped(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        keep = '{"epoch": 0}\n'
        path.write_text(keep + '{"epoch": 1')  # killed mid-append
        repair_epoch_ledger(path, start_epoch=5)
        assert path.read_bytes() == keep.encode()

    def test_start_epoch_zero_empties_the_ledger(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        path.write_text('{"epoch": 0}\n{"epoch": 1}\n')
        repair_epoch_ledger(path, start_epoch=0)
        assert path.read_bytes() == b""

    def test_missing_file_is_a_noop(self, tmp_path):
        repair_epoch_ledger(tmp_path / "epochs.jsonl", start_epoch=1)
        assert not (tmp_path / "epochs.jsonl").exists()


class TestFlattenStateDict:
    def test_flattens_component_params(self):
        import numpy as np
        flat = flatten_state_dict(
            {"server": {"w": np.ones(2)}, "client_0": {"b": np.zeros(1)}})
        assert sorted(flat) == ["client_0::b", "server::w"]
