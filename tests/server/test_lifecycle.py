"""Full control-plane lifecycle over real HTTP and real worker processes.

The centerpiece is the acceptance drill: a job submitted over the API is
SIGKILLed mid-run, resumed through ``POST /v1/jobs/<id>/resume``, and
must finish with weights matching an uninterrupted in-process twin at
1e-9 — and with every simulation-side metric row identical to the twin's.

``perf.*`` series are excluded from the crash comparison on purpose:
they are process-scoped wall-clock op counters (baselined when the
trainer is wired, "counts only this run"), so a resumed run's second
process legitimately reports its own, smaller counts.  Everything the
simulation owns — clocks, losses, queue waits, retries, traffic —
must replay exactly.

The twin runs in-process under the library's float32 default (the same
dtype policy the worker subprocess uses), temporarily overriding the
suite-wide float64 fixture.
"""

import json
import os
import signal
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (ApiError, JobSpec, RunClient, build_trainer,
                       build_workload)
from repro.backend import use_backend
from repro.nn.dtype import default_dtype
from repro.utils import perf
from repro.server.http import create_server
from repro.server.worker import flatten_state_dict
from repro.state.store import load_state_dict


@pytest.fixture
def server(tmp_path):
    instance = create_server(tmp_path)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown_workers()
    instance.shutdown()


@pytest.fixture
def client(server):
    return RunClient(server.url)


def wait_for_epochs(client, job_id, epochs, timeout_s=120.0):
    """Poll until the worker has durably completed ``epochs`` epochs."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = client.status(job_id)
        if record.get("epochs_completed", 0) >= epochs:
            return record
        if record["state"] in ("completed", "failed", "cancelled"):
            raise AssertionError(
                f"job reached {record['state']!r} before {epochs} epochs: "
                f"{record}")
        time.sleep(0.02)
    raise AssertionError(f"job never reached {epochs} epochs")


def run_twin(client, job_id, twin_dir):
    """Re-run the job's *effective* spec uninterrupted, in-process."""
    spec = JobSpec.from_json_dict(client.status(job_id)["spec"])
    spec = replace(spec, config=replace(spec.config,
                                        checkpoint_dir=str(twin_dir)))
    # Match the worker subprocess's fresh-process state regardless of
    # what earlier tests left behind: float32 default dtype, the default
    # backend, no pre-existing perf counter keys (the obs export lists
    # every known key, even at 0), and a cold workspace cache.
    perf.counters.reset()
    perf.workspaces.clear()
    with default_dtype(np.float32), use_backend("blocked"):
        pieces = build_workload(spec.workload)
        twin = build_trainer(spec, pieces=pieces)
        twin.train(test_dataset=pieces.test if spec.evaluate else None)
    return twin


def assert_weights_match(server, job_id, twin, atol=1e-9):
    served = load_state_dict(
        server.manager.job_dir(job_id) / "final_state.npz")
    twin_state = flatten_state_dict(twin.state_dict())
    assert set(served) == set(twin_state)
    for key in served:
        np.testing.assert_allclose(served[key], twin_state[key],
                                   rtol=0, atol=atol, err_msg=key)


def sim_side(line):
    """One metrics JSONL line, keyed by series, without ``perf.*``."""
    row = json.loads(line)
    return row["t"], {
        (m["name"], tuple(tuple(pair) for pair in m.get("labels", []))): m
        for m in row["metrics"] if not m["name"].startswith("perf.")
    }


class TestUninterrupted:
    def test_submit_completes_byte_identical_to_twin(self, server, client,
                                                     tmp_path_factory):
        job_id = client.submit(JobSpec.fast_debug(name="clean", epochs=3))
        record = client.wait(job_id, timeout_s=180)
        assert record["state"] == "completed"
        assert record["epochs_completed"] == 3
        assert record["attempts"] == 1

        # Served raw bytes ARE the job's on-disk metrics.jsonl.
        raw = client.metrics_raw(job_id)
        disk = server.manager.metrics_path(job_id).read_bytes()
        assert raw == disk

        # And byte-identical to what an uninterrupted in-process twin
        # exports — the live stream adds nothing and loses nothing.
        twin = run_twin(client, job_id,
                        tmp_path_factory.mktemp("twin-ckpt"))
        assert raw == twin.obs.metrics_jsonl().encode()
        assert_weights_match(server, job_id, twin)

        # The parsed-rows endpoint serves the same rows, with paging.
        rows = client.metrics(job_id)
        assert rows == [json.loads(line) for line in raw.splitlines()]
        assert client.metrics(job_id, since=len(rows) - 1) == rows[-1:]

        # Snapshot / report / result views over the same data.
        snapshot = client.snapshot(job_id)
        assert snapshot  # flat {series: value} of the newest row
        assert any(name.startswith("engine.") for name in snapshot)
        report = client.report(job_id)
        assert report
        summary = client.result(job_id)["summary"]
        assert summary["epochs"] == 3


class TestKillNine:
    def test_worker_kill9_resume_replay_exact(self, server, client,
                                              tmp_path_factory):
        job_id = client.submit(JobSpec.fast_debug(name="kill", epochs=6))
        record = wait_for_epochs(client, job_id, 2)
        assert record["state"] == "running"

        os.kill(record["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while client.status(job_id)["state"] != "interrupted":
            assert time.monotonic() < deadline, "never reconciled"
            time.sleep(0.02)

        assert client.resume(job_id)["state"] == "running"
        record = client.wait(job_id, timeout_s=180)
        assert record["state"] == "completed"
        assert record["attempts"] == 2
        assert record["epochs_completed"] == 6

        twin = run_twin(client, job_id,
                        tmp_path_factory.mktemp("twin-ckpt"))
        assert_weights_match(server, job_id, twin)

        # The epoch ledger spans both attempts without duplicates.
        result = client.result(job_id)
        assert [entry["epoch"] for entry in result["epochs"]] == list(range(6))
        assert result["summary"]["epochs"] == 6

        # Metrics: the repaired + replayed stream must carry the same
        # rows as the twin — same count, same timestamps, and identical
        # values for every simulation-side series.
        served_lines = client.metrics_raw(job_id).decode().splitlines()
        twin_lines = twin.obs.metrics_jsonl().splitlines()
        assert len(served_lines) == len(twin_lines)
        for served_line, twin_line in zip(served_lines, twin_lines):
            served_t, served_rows = sim_side(served_line)
            twin_t, twin_rows = sim_side(twin_line)
            assert served_t == twin_t
            assert served_rows == twin_rows

    def test_pause_resume_via_api(self, server, client):
        job_id = client.submit(JobSpec.fast_debug(name="pause", epochs=6))
        wait_for_epochs(client, job_id, 1)
        assert client.pause(job_id)["state"] == "paused"
        assert client.resume(job_id)["state"] == "running"
        record = client.wait(job_id, timeout_s=180)
        assert record["state"] == "completed"
        assert record["epochs_completed"] == 6


class TestServerRestart:
    def test_job_survives_server_restart(self, tmp_path, tmp_path_factory):
        first = create_server(tmp_path)
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        client = RunClient(first.url)
        job_id = client.submit(JobSpec.fast_debug(name="restart", epochs=5))
        record = wait_for_epochs(client, job_id, 2)

        # The server host dies: worker SIGKILLed, HTTP gone.
        os.kill(record["pid"], signal.SIGKILL)
        first.shutdown_workers()
        first.shutdown()

        # A fresh server over the same root reconciles from disk alone.
        second = create_server(tmp_path)
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            client = RunClient(second.url)
            assert client.status(job_id)["state"] == "interrupted"
            client.resume(job_id)
            record = client.wait(job_id, timeout_s=180)
            assert record["state"] == "completed"
            assert record["epochs_completed"] == 5

            twin = run_twin(client, job_id,
                            tmp_path_factory.mktemp("twin-ckpt"))
            assert_weights_match(server=second, job_id=job_id, twin=twin)
        finally:
            second.shutdown_workers()
            second.shutdown()


class TestHttpContract:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["api_version"] == 1

    def test_invalid_spec_is_400_with_reason(self, client):
        payload = JobSpec.fast_debug().to_json_dict()
        payload["config"]["learning_rate"] = 0.1
        with pytest.raises(ApiError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "learning_rate" in excinfo.value.message

    @pytest.mark.parametrize("field, entries, reason", [
        ("failure_schedule", [[0.5]], "failure_schedule"),
        ("failure_schedule", [[1.0, 0, 10.0], [2.0, 0, 1.0]], "overlapping"),
        ("chaos_schedule", [["flap", 0.1, 0.2]], "entries are"),
        ("chaos_schedule", [["straggler", 0.0, 0.1, 7, 5.0]], "num_servers"),
    ])
    def test_malformed_fault_timeline_is_400_not_a_dead_worker(
            self, client, field, entries, reason):
        """These used to answer 201 and fail at trainer construction."""
        payload = JobSpec.fast_debug().to_json_dict()
        payload["config"][field] = entries
        with pytest.raises(ApiError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert reason in excinfo.value.message
        assert client.jobs() == []  # rejected before anything touched disk

    def test_negative_content_length_is_400_not_a_read_to_eof(self, server):
        """``Content-Length: -1`` used to read until the client hung up and
        then submit the job."""
        body = json.dumps(JobSpec.fast_debug(name="t", epochs=1).to_json_dict())
        request = ("POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
                   "Content-Type: application/json\r\nContent-Length: -1\r\n\r\n" + body)
        with socket.create_connection(server.server_address[:2], timeout=2.0) as sock:
            sock.sendall(request.encode())
            with sock.makefile("rb") as response:
                status_line = response.readline()  # times out after 2 s
        assert status_line.split()[1] == b"400"
        assert server.manager.job_ids() == []

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.status("job-9999-ghost")
        assert excinfo.value.status == 404

    def test_illegal_transition_is_409(self, client):
        job_id = client.submit(JobSpec.fast_debug(name="t", epochs=1))
        client.cancel(job_id)
        with pytest.raises(ApiError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        with pytest.raises(ApiError) as excinfo:
            client.resume(job_id)
        assert excinfo.value.status == 409
