"""The four benchmark workloads: closed loop, one caller, fixed work per pass.

A *pass* is a fixed amount of work from a fresh state — set-up (timed as
``setup_s``), then the run phase (timed as ``train_samples_per_s``) — and
every pass is verified before its times count.  ``--seed`` reaches only
``JobWorkload.seed`` / the dataset (inputs); ``TrainingConfig.seed``, link
jitter and every fault timeline are constants below, so each pass of a
workload processes the same events whatever the seed, and passes compare.

Why these four (each isolates layers the others leave cold):

* ``paper_sync`` — the Table I path (paper CNN, ``server_batching=False``):
  ``nn`` + ``backend`` dominate, the engine sees ~25 events.
* ``fanout_async`` — 200 end-systems, batch 1, a near-free model with the
  cut at 0: the engine, transport, queue and arena dominate.
* ``storm_cluster`` — every plane switched on at once (shards, quorum
  sync, chaos, reliable delivery, checkpoints, obs export).
* ``server_job`` — the control plane over real HTTP with worker
  subprocesses; everything inside the worker is the pseudo-layer ``wait``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import repro
from repro.api import runtime
from repro.api.client import RunClient
from repro.api.jobspec import JobSpec, JobWorkload
from repro.core.config import TrainingConfig
from repro.core.models import tiny_cnn_architecture
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import SyntheticCIFAR10, train_test_split
from repro.data.partition import get_partitioner
from repro.data.transforms import Normalize
from repro.obs.invariants import assert_drop_balance, drop_balance_from_metrics
from repro.server.http import create_server
from repro.simnet.topology import star_topology
from repro.state.store import FileCheckpointStore, load_state_dict
from repro.utils.perf import counters

__all__ = ["BUILDERS", "CheckFailed", "PassResult", "Phase", "Workload"]

#: ``TrainingConfig.seed`` of every workload (never the ``--seed`` argument).
CONFIG_SEED = 0
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class CheckFailed(AssertionError):
    """A pass or phase produced wrong output; it counts as failed, not timed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class PassResult(NamedTuple):
    setup_s: float  # one set-up (the timed block divided by its repeats)
    run_s: float
    digest: Tuple[Any, ...]  # simulated statistics; identical on every pass


class Phase(NamedTuple):
    """A secondary operation, timed in one fixed-size batch after every pass
    (so its samples are spread over the whole run like the passes are), or —
    ``per_pass=False`` — sampled after the passes with the time that is left."""

    metric: str
    call: Callable[[], Optional[float]]  # may return the seconds it timed itself
    calls_per_batch: int
    work: float = 0.0  # > 0: report work / time (a rate) instead of the time
    scale: float = 1.0  # seconds → the metric's unit
    before: Optional[Callable[[], None]] = None  # untimed, once per batch
    per_pass: bool = True
    reserve_s: float = 0.0  # per_pass=False: wall time one sample needs


def _same_weights(left: Dict[str, Dict[str, np.ndarray]],
                  right: Dict[str, Dict[str, np.ndarray]], what: str) -> None:
    check(left.keys() == right.keys(), f"{what}: component sets differ")
    for component, params in left.items():
        for name, value in params.items():
            check(bool(np.allclose(value, right[component][name], rtol=0.0, atol=1e-9)),
                  f"{what}: {component}.{name} differs beyond 1e-9")


class Workload:
    """Shared pass bookkeeping; subclasses fill in the work."""

    name = ""
    #: Set-ups timed together per pass, so one ``setup_s`` sample spans ≥ 0.25 s.
    setup_repeats = 1

    def __init__(self, seed: int, workdir: Path, tracer: Any) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.passes_run = 0
        self.train_samples = 0
        self.eval_samples = 0
        #: Only ``server_job`` fills these; the report reads them off any workload.
        self.poll_times: List[float] = []
        self.rows_polled = 0
        self.reconcile_s = 0.0

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def phases(self) -> List[Phase]:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Exact per-layer counts of the last pass (simulated statistics)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _fresh_pass_dir(self) -> Path:
        pass_dir = self.workdir / f"pass-{self.passes_run:03d}"
        self.passes_run += 1
        pass_dir.mkdir(parents=True)
        return pass_dir


# --------------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------------- #
class InProcess(Workload):
    """A trainer built and trained in this process, once per pass."""

    eval_calls_per_batch = 1
    resume_calls_per_batch = 4

    def __init__(self, seed: int, workdir: Path, tracer: Any) -> None:
        super().__init__(seed, workdir, tracer)
        self.trainer: Optional[SpatioTemporalTrainer] = None
        self.test: Any = None
        self.pass_dir: Optional[Path] = None
        self._gemm_calls = 0
        self._eval_outcome: Optional[Tuple[float, float]] = None
        self._resume_dir: Optional[Path] = None

    # -- hooks ---------------------------------------------------------- #
    def prepare_pass(self, pass_dir: Path) -> None:
        """Untimed per-pass preparation (e.g. render the spec's JSON text)."""

    def build(self) -> Tuple[SpatioTemporalTrainer, Any]:
        """Set-up under test: returns ``(trainer, test_dataset)``."""
        raise NotImplementedError

    def resume_source(self) -> Tuple[Path, SpatioTemporalTrainer]:
        """A directory holding an epoch-boundary run checkpoint, and the
        trainer whose state that checkpoint captured."""
        raise NotImplementedError

    def resume(self, directory: Path) -> SpatioTemporalTrainer:
        raise NotImplementedError

    # -- pass ----------------------------------------------------------- #
    def run_pass(self) -> PassResult:
        previous = self.pass_dir
        self.pass_dir = self._fresh_pass_dir()
        self.prepare_pass(self.pass_dir)
        with self.tracer.span("harness.setup"):
            start = time.perf_counter()
            for _ in range(self.setup_repeats):
                trainer, test = self.build()
            setup_s = (time.perf_counter() - start) / self.setup_repeats
        gemm_before = counters.get("gemm_calls")
        with self.tracer.span("harness.run"):
            start = time.perf_counter()
            history = trainer.train()
            run_s = time.perf_counter() - start
        self._gemm_calls = counters.get("gemm_calls") - gemm_before
        self.trainer, self.test = trainer, test
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)

        try:
            assert_drop_balance(trainer)
        except AssertionError as exc:
            raise CheckFailed(f"drop balance: {exc}") from exc
        check(all(es.pending_batches == 0 for es in trainer.end_systems),
              "pending_batches != 0 after the run")
        samples = sum(es.samples_seen for es in trainer.end_systems)
        check(self.train_samples in (0, samples),
              f"pass consumed {samples} samples, earlier passes {self.train_samples}")
        self.train_samples = samples
        self.eval_samples = len(test) * len(trainer.end_systems)
        digest = (
            trainer.engine.stats.events_processed,
            sum(shard.server.optimizer.step_count for shard in trainer.cluster.shards),
            trainer.transport.log.total_bytes,
            trainer.engine.clock,
            history.records[-1].train_loss,
        )
        return PassResult(setup_s, run_s, digest)

    # -- secondary phases ------------------------------------------------ #
    def phases(self) -> List[Phase]:
        return [
            Phase("eval_samples_per_s", self._evaluate, self.eval_calls_per_batch,
                  work=float(self.eval_samples)),
            Phase("resume_s", self._resume, self.resume_calls_per_batch,
                  before=self._before_resume),
        ]

    def _evaluate(self) -> None:
        assert self.trainer is not None
        result = self.trainer.evaluate(self.test)
        outcome = (result["accuracy"], result["loss"])
        check(bool(np.isfinite(result["loss"])), "evaluation loss is not finite")
        # Same seed, same events: every pass's trainer must score the same.
        check(self._eval_outcome in (None, outcome),
              f"evaluate() gave {outcome}, earlier {self._eval_outcome}")
        self._eval_outcome = outcome

    def _before_resume(self) -> None:
        """Find this pass's checkpoint directory and verify one restore from it."""
        directory, reference = self.resume_source()
        if directory != self._resume_dir:
            resumed = self.resume(directory)
            _same_weights(resumed.state_dict(), reference.state_dict(), "resumed trainer")
            check(resumed.simulated_time == reference.simulated_time,
                  "resumed trainer's simulated clock differs")
            self._resume_dir = directory

    def _resume(self) -> None:
        assert self._resume_dir is not None
        self.resume(self._resume_dir)

    # -- counts ---------------------------------------------------------- #
    def counts(self) -> Dict[str, float]:
        trainer = self.trainer
        assert trainer is not None and self.pass_dir is not None
        stats = trainer.engine.stats
        log = trainer.transport.log
        store = trainer.checkpoint_store
        metrics_file = self.pass_dir / "obs" / "metrics.jsonl"
        return {
            "core.engine_events": stats.events_processed,
            "simnet.bytes_sent": log.total_bytes,
            "cluster.syncs": stats.weight_syncs,
            "cluster.failovers": stats.shard_crashes,
            "backend.gemm_calls": self._gemm_calls,
            "state.checkpoint_writes": store.checkpoints_written if store else 0,
            "state.checkpoint_bytes": store.bytes_written if store else 0,
            "obs.flushes": trainer.obs.flushes if trainer.obs.enabled else 0,
            "obs.metrics_bytes": metrics_file.stat().st_size if metrics_file.exists() else 0,
            "chaos.events": stats.chaos_events,
            "chaos.retries": log.retried_messages,
            "chaos.deduped": stats.deduped,
        }


class SpecWorkload(InProcess):
    """An in-process workload a JobSpec can express, built through the facade."""

    def __init__(self, seed: int, workdir: Path, tracer: Any) -> None:
        super().__init__(seed, workdir, tracer)
        self.text = ""
        self.spec: Optional[JobSpec] = None
        self.pieces: Any = None

    def make_spec(self, pass_dir: Path) -> JobSpec:
        raise NotImplementedError

    def prepare_pass(self, pass_dir: Path) -> None:
        self.text = json.dumps(self.make_spec(pass_dir).to_json_dict())

    def build(self) -> Tuple[SpatioTemporalTrainer, Any]:
        self.spec = JobSpec.from_json_dict(json.loads(self.text))
        self.pieces = runtime.build_workload(self.spec.workload)
        return runtime.build_trainer(self.spec, pieces=self.pieces), self.pieces.test

    def resume(self, directory: Path) -> SpatioTemporalTrainer:
        assert self.spec is not None
        return runtime.resume_trainer(self.spec, FileCheckpointStore(directory),
                                      pieces=self.pieces)


class _CheckpointTwin:
    """For workloads whose own config writes no checkpoints.

    The resume phase needs an epoch-boundary run checkpoint on disk, and
    turning checkpoints on in the timed config would change the plain path
    under test.  So the first resume batch trains — untimed, once per run —
    one epoch of a twin whose only difference is ``checkpoint_every_s`` (too
    long to ever fire mid-epoch) and ``checkpoint_dir``; every batch resumes
    from what the twin wrote.
    """

    workdir: Path
    twin: Optional[SpatioTemporalTrainer] = None

    def train_twin(self, directory: Path) -> SpatioTemporalTrainer:
        raise NotImplementedError

    def resume_source(self) -> Tuple[Path, SpatioTemporalTrainer]:
        directory = self.workdir / "twin-checkpoints"
        if self.twin is None:
            self.twin = self.train_twin(directory)
        return directory, self.twin

    @staticmethod
    def twin_config(config: TrainingConfig, directory: Path) -> TrainingConfig:
        return replace(config, epochs=1, checkpoint_every_s=1e6,
                       checkpoint_dir=str(directory))


class PaperSync(_CheckpointTwin, SpecWorkload):
    name = "paper_sync"
    setup_repeats = 2
    eval_calls_per_batch = 2
    resume_calls_per_batch = 4

    def make_spec(self, pass_dir: Path) -> JobSpec:
        return JobSpec(
            name=self.name,
            workload=JobWorkload(scale="paper", num_samples=600, num_end_systems=4,
                                 client_blocks=1, seed=self.seed),
            config=TrainingConfig(epochs=1, batch_size=32, mode="synchronous",
                                  server_batching=False, seed=CONFIG_SEED),
            evaluate=False,
        )

    def train_twin(self, directory: Path) -> SpatioTemporalTrainer:
        assert self.spec is not None
        twin_spec = replace(self.spec, config=self.twin_config(self.spec.config, directory))
        twin = runtime.build_trainer(twin_spec, pieces=self.pieces)
        twin.train()
        return twin


class StormCluster(SpecWorkload):
    name = "storm_cluster"
    setup_repeats = 2
    eval_calls_per_batch = 2
    resume_calls_per_batch = 6

    #: Scripted client faults and shard crashes (simulated seconds): every
    #: fault class the chaos plane has, landing inside the two epochs.
    CHAOS = [("flap", 0.05, 0.04, 0), ("flap", 0.15, 0.04, 5), ("leave", 0.2, 0.05, 9),
             ("straggler", 0.1, 0.1, 2, 5.0), ("flap", 0.3, 0.04, 12)]
    CRASHES = [(0.12, 1, 0.06), (0.33, 3, 0.05)]

    def make_spec(self, pass_dir: Path) -> JobSpec:
        return JobSpec(
            name=self.name,
            workload=JobWorkload(scale="laptop", num_samples=1280, num_end_systems=16,
                                 seed=self.seed),
            config=TrainingConfig(
                epochs=2, batch_size=8, mode="synchronous", num_servers=4,
                server_sync_every=2, server_sync_mode="average", server_step_time_s=0.004,
                reliable_delivery=True, retry_timeout_s=0.02, retry_max=3,
                sync_quorum=0.5, sync_timeout_s=0.03,
                chaos_schedule=self.CHAOS, chaos_corrupt_probability=0.03,
                chaos_duplicate_probability=0.05, chaos_reorder_probability=0.05,
                failure_schedule=self.CRASHES, failover_policy="rebalance",
                checkpoint_every_s=0.1, checkpoint_dir=str(pass_dir / "checkpoints"),
                obs_enabled=True, obs_flush_every_s=0.05, obs_trace_sample_rate=1.0,
                obs_dir=str(pass_dir / "obs"), seed=CONFIG_SEED),
            evaluate=False,
        )

    def resume_source(self) -> Tuple[Path, SpatioTemporalTrainer]:
        assert self.pass_dir is not None and self.trainer is not None
        return self.pass_dir / "checkpoints", self.trainer

    def run_pass(self) -> PassResult:
        result = super().run_pass()
        assert self.trainer is not None
        stats = self.trainer.engine.stats
        log = self.trainer.transport.log
        # The storm must exercise every plane, not sail past it.
        check(stats.chaos_events > 0 and stats.shard_crashes == len(self.CRASHES),
              "scripted faults did not all fire")
        check(log.corrupted_messages > 0 and log.retried_messages > 0 and stats.deduped > 0,
              "message chaos / reliable delivery never engaged")
        check(stats.weight_syncs > 0, "no shard synchronisation happened")
        check(self.trainer.checkpoint_store.checkpoints_written > 0, "no checkpoint written")
        assert self.pass_dir is not None
        check((self.pass_dir / "obs" / "trace.json").exists(), "obs export missing")
        return result


class FanoutAsync(_CheckpointTwin, InProcess):
    """No JobSpec can express this (custom topology, 8×8 images, cut at 0)."""

    name = "fanout_async"
    setup_repeats = 1
    eval_calls_per_batch = 1
    resume_calls_per_batch = 2
    END_SYSTEMS = 200

    def __init__(self, seed: int, workdir: Path, tracer: Any) -> None:
        super().__init__(seed, workdir, tracer)
        self.config = TrainingConfig(epochs=3, batch_size=1, mode="asynchronous",
                                     seed=CONFIG_SEED)
        self.parts: Any = None
        self.split_spec: Optional[SplitSpec] = None

    def _topology(self) -> Any:
        # Heterogeneous star; jitter seed is a workload constant.
        latencies = list(np.linspace(0.002, 0.05, self.END_SYSTEMS))
        return star_topology(self.END_SYSTEMS, latencies_s=latencies,
                             jitter_std_s=0.001, seed=7)

    normalize = Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5])

    def _trainer(self, config: TrainingConfig) -> SpatioTemporalTrainer:
        assert self.split_spec is not None
        return SpatioTemporalTrainer(self.split_spec, self.parts, config,
                                     topology=self._topology(),
                                     train_transform=self.normalize)

    def build(self) -> Tuple[SpatioTemporalTrainer, Any]:
        with self.tracer.span("api.build_workload"):
            dataset = SyntheticCIFAR10(num_samples=3200, image_size=8, seed=self.seed,
                                       pixel_noise=0.15, deformation_noise=0.3)
            train, test = train_test_split(dataset, test_fraction=0.0625, seed=self.seed)
            self.parts = get_partitioner("iid", self.END_SYSTEMS,
                                         seed=self.seed).partition(train)
            architecture = tiny_cnn_architecture(image_size=8, num_blocks=1,
                                                 base_filters=2, dense_units=8)
            self.split_spec = SplitSpec(architecture, client_blocks=0)
        with self.tracer.span("api.build_trainer"):
            trainer = self._trainer(self.config)
        return trainer, test

    def train_twin(self, directory: Path) -> SpatioTemporalTrainer:
        twin = self._trainer(self.twin_config(self.config, directory))
        twin.train()
        return twin

    def resume(self, directory: Path) -> SpatioTemporalTrainer:
        assert self.split_spec is not None
        return SpatioTemporalTrainer.resume_from_store(
            FileCheckpointStore(directory), self.split_spec, self.parts,
            topology=self._topology(), train_transform=self.normalize)


# --------------------------------------------------------------------------- #
# server_job — the control plane over real HTTP
# --------------------------------------------------------------------------- #
class ServerJob(Workload):
    name = "server_job"
    EPOCHS = 6
    POLL_S = 0.01  # the client's 0.2 s default would quantise turnaround
    POLLS_PER_BATCH = 30

    def __init__(self, seed: int, workdir: Path, tracer: Any) -> None:
        super().__init__(seed, workdir, tracer)
        self.spec = JobSpec(
            name=self.name,
            workload=JobWorkload(scale="laptop", num_samples=800, num_end_systems=4,
                                 seed=seed),
            config=TrainingConfig(epochs=self.EPOCHS, batch_size=16, seed=CONFIG_SEED,
                                  checkpoint_every_s=0.05, obs_flush_every_s=0.01),
        )
        self.payload = self.spec.to_json_dict()
        test_samples = int(round(self.spec.workload.num_samples
                                 * self.spec.workload.test_fraction))
        self.train_samples = self.EPOCHS * (self.spec.workload.num_samples - test_samples)
        self.eval_samples = test_samples * self.spec.workload.num_end_systems
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_DIR, *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.server: Any = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[RunClient] = None
        self.job = ""
        self.worker_rss_kb = 0
        self._restored: Optional[SpatioTemporalTrainer] = None
        self._restore: Optional[Callable[[], SpatioTemporalTrainer]] = None
        self._test: Any = None
        self._reported_accuracy = 0.0

    # -- server lifecycle -------------------------------------------------- #
    def _start_server(self, root: Path) -> None:
        self.server = create_server(root)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = RunClient(self.server.url)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.shutdown_workers()
        self.server.shutdown()
        self.server.server_close()
        assert self.thread is not None
        self.thread.join(timeout=30)
        self.server = self.thread = self.client = None

    def close(self) -> None:
        self._stop_server()
        self._reap_workers()  # leave no zombie behind
        super().close()

    def _reap_workers(self) -> None:
        """Collect finished workers' resource usage.

        The JobManager only reaps a worker it is asked about while the job
        still reads ``running``; a worker that finished on its own stays a
        zombie, and ``RUSAGE_CHILDREN`` never sees it.  Reaping here makes
        ``peak_rss_mb`` the largest *worker*, deterministically (``Popen``
        tolerates a child that was waited for behind its back).
        """
        while True:
            try:
                pid, _, usage = os.wait4(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            self.worker_rss_kb = max(self.worker_rss_kb, usage.ru_maxrss)

    def peak_rss_mb(self) -> float:
        return self.worker_rss_kb / 1024.0

    # -- pass ---------------------------------------------------------------- #
    def run_pass(self) -> PassResult:
        self._stop_server()
        previous = self.workdir / f"pass-{self.passes_run - 1:03d}"
        root = self._fresh_pass_dir()
        shutil.rmtree(previous, ignore_errors=True)

        with self.tracer.span("harness.setup"):
            start = time.perf_counter()
            with self.tracer.span("server.worker_import"):
                subprocess.run([sys.executable, "-c", "import repro.server.worker"],
                               env=self.env, check=True)
            self._start_server(root)
            assert self.client is not None
            health = self.client.health()
            setup_s = time.perf_counter() - start
        check(bool(health.get("ok")), "healthz did not answer ok")

        client = self.client
        with self.tracer.span("harness.run"):
            start = time.perf_counter()
            job = client.submit(self.payload)
            record = client.wait(job, timeout_s=120, poll_s=self.POLL_S)
            result = client.result(job)
            run_s = time.perf_counter() - start
        self.job = job
        self._reap_workers()
        self._verify_finished(job, record, result, attempts=1)
        summary = result["summary"]
        digest = (
            summary["queue"]["engine_events"],
            result["epochs"][-1]["batches"],
            summary["traffic"]["uplink_megabytes"] + summary["traffic"]["downlink_megabytes"],
            summary["total_simulated_time_s"],
            result["epochs"][-1]["train_loss"],
        )
        self._reported_accuracy = result["epochs"][-1]["test_accuracy"]
        return PassResult(setup_s, run_s, digest)

    def _verify_finished(self, job: str, record: Dict[str, Any], result: Dict[str, Any],
                         attempts: int) -> None:
        assert self.client is not None
        check(record["state"] == "completed", f"job ended {record['state']!r}: "
              f"{record.get('error')}")
        check(record["attempts"] == attempts, f"job took {record['attempts']} attempts")
        check(record["epochs_completed"] == self.EPOCHS, "status lost an epoch")
        check([epoch["epoch"] for epoch in result["epochs"]] == list(range(self.EPOCHS)),
              "epoch ledger incomplete")
        disk = self.server.manager.metrics_path(job).read_bytes()
        check(self.client.metrics_raw(job) == disk, "raw metrics bytes != metrics.jsonl on disk")
        check(len(disk) >= 500_000, f"metrics.jsonl is only {len(disk)} bytes")
        balance = drop_balance_from_metrics(self.client.snapshot(job))
        check(balance.holds, f"drop balance violated: {balance.describe()}")

    # -- secondary phases ------------------------------------------------------ #
    def phases(self) -> List[Phase]:
        return [
            Phase("resume_s", self._resume, 20, before=self._before_resume),
            Phase("eval_samples_per_s", self._evaluate, 8, work=float(self.eval_samples)),
            Phase("metrics_poll_ms", self._poll, self.POLLS_PER_BATCH, scale=1e3,
                  before=self._before_polls),
            Phase("kill_to_done_s", self._kill_and_resume, 1, per_pass=False, reserve_s=3.5),
        ]

    def _job_dir(self, job: str) -> Path:
        return Path(self.server.manager.job_dir(job))

    def _before_resume(self) -> None:
        """What a resumed worker does first, in this process: effective spec →
        workload → trainer restored from the job's checkpoint directory."""
        job_dir = self._job_dir(self.job)
        effective = JobSpec.from_json_dict(self.server.manager.spec(self.job))
        pieces = runtime.build_workload(effective.workload)
        self._test = pieces.test
        self._restore = lambda: runtime.resume_trainer(
            effective, FileCheckpointStore(job_dir / "checkpoints"), pieces=pieces)
        self._restored = self._restore()
        final = load_state_dict(job_dir / "final_state.npz")
        for component, params in self._restored.state_dict().items():
            for name, value in params.items():
                check(bool(np.allclose(value, final[f"{component}::{name}"],
                                       rtol=0.0, atol=1e-9)),
                      f"restored {component}.{name} != the job's final_state.npz")

    def _resume(self) -> None:
        assert self._restore is not None
        self._restore()

    def _evaluate(self) -> None:
        assert self._restored is not None
        accuracy = self._restored.evaluate(self._test)["accuracy"]
        check(abs(accuracy - self._reported_accuracy) <= 1e-9,
              f"in-process accuracy {accuracy} != the job's result {self._reported_accuracy}")

    def _before_polls(self) -> None:
        assert self.client is not None
        self.rows_polled = len(self.client.metrics(self.job))
        check(self.rows_polled > 5, "finished job has no metric rows to poll")

    def _poll(self) -> None:
        assert self.client is not None
        start = time.perf_counter()
        rows = self.client.metrics(self.job, since=self.rows_polled - 5)
        self.poll_times.append(time.perf_counter() - start)
        check(len(rows) == 5, f"tail poll returned {len(rows)} rows")

    def _kill_and_resume(self) -> float:
        """Returns kill → done in seconds; the lead-in to epoch 2 is not timed."""
        client = self.client
        assert client is not None
        job, pid = self._victim()
        start = time.perf_counter()
        os.kill(pid, signal.SIGKILL)
        self.tracer.mark("kill")
        client.wait(job, states=("interrupted",), timeout_s=30, poll_s=self.POLL_S)
        self.reconcile_s = time.perf_counter() - start
        client.resume(job)
        record = client.wait(job, timeout_s=120, poll_s=self.POLL_S)
        took = time.perf_counter() - start

        self._reap_workers()
        self._verify_finished(job, record, client.result(job), attempts=2)
        final = load_state_dict(self._job_dir(job) / "final_state.npz")
        twin = load_state_dict(self._job_dir(self.job) / "final_state.npz")
        check(final.keys() == twin.keys(), "resumed job's state has other keys")
        for key, value in final.items():
            check(bool(np.allclose(value, twin[key], rtol=0.0, atol=1e-9)),
                  f"resumed job's {key} != the uninterrupted job's at 1e-9")
        return took

    def _victim(self) -> Tuple[str, int]:
        """Submit a job and let it durably finish two epochs (untimed lead-in)."""
        client = self.client
        assert client is not None
        job = client.submit(self.payload)
        deadline = time.monotonic() + 120
        with self.tracer.span("wait.victim_lead_in"):
            while True:
                record = client.status(job)
                if record.get("epochs_completed", 0) >= 2:
                    return job, int(record["pid"])
                check(record["state"] in ("pending", "running")
                      and time.monotonic() < deadline,
                      f"victim job stalled in state {record['state']!r}")
                time.sleep(self.POLL_S)

    # -- counts ------------------------------------------------------------------ #
    def counts(self) -> Dict[str, float]:
        job_dir = self._job_dir(self.job)
        manifest = json.loads((job_dir / "checkpoints" / "manifest.json").read_text())
        files = [job_dir / "checkpoints" / record["file"] for record in manifest["records"]]
        metrics = job_dir / "metrics.jsonl"
        with open(metrics, "rb") as handle:
            rows = sum(1 for _ in handle)
        return {
            "state.checkpoint_writes": len(files),
            "state.checkpoint_bytes": sum(path.stat().st_size for path in files),
            "obs.flushes": rows,
            "obs.metrics_bytes": metrics.stat().st_size,
        }


BUILDERS: Dict[str, Callable[[int, Path, Any], Workload]] = {
    PaperSync.name: PaperSync,
    FanoutAsync.name: FanoutAsync,
    StormCluster.name: StormCluster,
    ServerJob.name: ServerJob,
}
