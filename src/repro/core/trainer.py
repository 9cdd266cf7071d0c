"""Spatio-temporal split-learning trainer.

This is the orchestration layer that ties everything together: the *M*
end-systems holding the first ``L_i`` blocks and their private data
(:class:`~repro.core.end_system.EndSystem`), the centralized server
holding the remaining layers and the scheduling queue
(:class:`~repro.core.server.CentralServer`), and the simulated
geo-distributed network (:class:`~repro.simnet.transport.Transport`).

Both training modes run on the discrete-event engine in
:mod:`repro.core.engine` (uplink-arrival, server-step and
gradient-landing events over :class:`~repro.simnet.events.Simulator`):

* **synchronous** (the default; what Table I measures) — every round each
  end-system ships one batch and the server step is a *barrier event*
  scheduled at the round's last accepted arrival; gradients flow back
  before the next round-start event fires.  The simulated clock advances
  with the link latencies, so the run reports how long an epoch would
  take over a real WAN.
* **asynchronous** — every end-system keeps a bounded number of batches
  in flight and a dispatch event fires whenever the server is free and
  arrivals are pending.  Far-away end-systems complete fewer updates per
  unit time, which is the arrival bias the paper's queue-scheduling
  discussion warns about; the scheduling ablation quantifies it.

Bounded queues and backpressure
-------------------------------
``TrainingConfig.max_queue_size`` bounds the server's parameter-
scheduling queue; ``TrainingConfig.queue_backpressure`` decides what
happens at the bound.  Under ``"drop"`` an overflowing arrival is shed
and the originating end-system is notified so its pending activation
never leaks; under ``"block"`` an end-system defers its next send until
the queue has room (messages in flight count towards capacity), so the
queue never overflows.  The ``queue_congestion`` experiment sweeps both
policies against queue capacity under a 100+ client star.

Asymmetric links
----------------
Uplink (activations) and downlink (gradients) traffic travel over
*separate* :class:`~repro.simnet.link.Link` objects with independent
latency samples, drop draws and counters (see
:meth:`~repro.simnet.topology.GeoTopology.downlink`), and the transport
log reports per-direction drop counts.

Sharded multi-server deployments
--------------------------------
``TrainingConfig.num_servers > 1`` splits the end-systems across that
many :class:`~repro.cluster.shard.ServerShard` replicas (assignment via
``TrainingConfig.shard_assigner``), each with its own queue, arena and
optimizer, connected by a multi-hub star topology whose inter-server
links carry periodic weight-synchronization traffic
(``TrainingConfig.server_sync_every`` / ``server_sync_mode``; see
:mod:`repro.cluster`).  ``num_servers=1`` reduces exactly to the paper's
single central server — pinned to 1e-9 by the cluster equivalence tests.

Fault timeline and failover
---------------------------
``TrainingConfig.failure_schedule`` (scripted crashes) or
``failure_mtbf_s``/``failure_mttr_s`` (stochastic churn) and the
``chaos_*`` timeline knobs all feed one :class:`~repro.chaos.FaultPlan`
whose events the engine injects into the simulation; ``failover_policy``
decides whether a dead shard's clients are rebalanced across the
survivors (reusing the pluggable assigners) or parked until recovery.
Work shed by a crash rides the same leak-free ``notify_drop`` accounting
as every other loss, and the run's history reports crashes, recoveries,
reassignments and total downtime (see :mod:`repro.cluster.failover`).

Batched queue draining
----------------------
With ``TrainingConfig.server_batching`` (the default) each server step
drains every arrived activation message into one concatenated
forward/backward and a single optimizer step
(:meth:`~repro.core.server.CentralServer.process_batch`), and the
boundary gradient is scattered back per end-system.  With
``server_batching=False`` (the paper's per-message updates, which the
staleness-sensitive ablations model) the server takes the same step on
one message at a time, one optimizer step per message.
"""

from __future__ import annotations

import time
from dataclasses import fields as dataclass_fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import use_backend
from ..chaos import FaultPlan, MessageChaos, build_fault_plan
from ..cluster.assigner import get_assigner
from ..cluster.coordinator import ClusterCoordinator
from ..cluster.failover import get_failover_policy
from ..cluster.shard import ServerShard
from ..data.datasets import Dataset
from ..data.loader import DataLoader
from ..data.transforms import Normalize
from ..nn.metrics import MetricTracker
from ..nn.serialization import pack_rng_state, restore_rng_state
from ..obs.plane import Observability
from ..obs.registry import Sample, samples_from_mapping
from ..simnet.topology import GeoTopology, multi_hub_star_topology, star_topology
from ..simnet.transport import Transport
from ..state import (
    CheckpointStore,
    ClientCheckpoint,
    FileCheckpointStore,
    MemoryCheckpointStore,
    RunCheckpoint,
    ShardCheckpoint,
)
from ..state.checkpoint import group_payload_keys
from ..utils.logging import get_logger
from ..utils.perf import counters as perf_counters
from ..utils.rng import SeedSequence
from .config import TrainingConfig
from .end_system import EndSystem
from .engine import TrainingEngine
from .history import EpochRecord, TrainingHistory
from .scheduling import get_policy
from .server import CentralServer
from .split import SplitSpec

__all__ = ["SpatioTemporalTrainer"]

logger = get_logger("core.trainer")

#: TrafficLog counter fields a run checkpoint persists verbatim.
_TRAFFIC_COUNTERS = (
    "uplink_messages", "downlink_messages", "uplink_bytes", "downlink_bytes",
    "nack_messages", "nack_bytes", "sync_messages", "sync_bytes",
    "dropped_messages", "uplink_dropped", "downlink_dropped", "nack_dropped",
    "sync_dropped",
    "retried_messages", "uplink_retried", "downlink_retried",
    "corrupted_messages", "uplink_corrupted", "downlink_corrupted",
    "sync_corrupted", "duplicated_messages", "reordered_messages",
)


class SpatioTemporalTrainer:
    """End-to-end trainer for the paper's framework.

    Parameters
    ----------
    split_spec:
        Architecture and cut point shared by the deployment.
    client_datasets:
        One dataset per end-system (its private local shard).
    config:
        Training hyper-parameters.
    topology:
        Simulated network; defaults to a homogeneous star with 5 ms links.
    train_transform:
        Optional :class:`~repro.data.transforms.Normalize`.  Each
        end-system's loader normalizes its local array with it once, and
        :meth:`evaluate` normalizes the held-out images with it too.
    checkpoint_store:
        Optional durable store for periodic shard checkpoints and
        epoch-boundary run checkpoints (see :mod:`repro.state`).  When
        omitted but ``config.checkpoint_every_s`` is set, a store is
        built automatically: file-backed if ``config.checkpoint_dir``
        names a directory, in-memory otherwise.
    """

    def __init__(
        self,
        split_spec: SplitSpec,
        client_datasets: Sequence[Dataset],
        config: Optional[TrainingConfig] = None,
        topology: Optional[GeoTopology] = None,
        train_transform: Optional[Normalize] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
    ) -> None:
        if not client_datasets:
            raise ValueError("need at least one end-system dataset")
        self.split_spec = split_spec
        self.config = config if config is not None else TrainingConfig()
        self.num_end_systems = len(client_datasets)
        num_servers = self.config.num_servers
        if topology is None:
            if num_servers == 1:
                topology = star_topology(self.num_end_systems)
            else:
                # The assigner sees the clients' local sample counts (the
                # load proxy); a default star is latency-homogeneous.
                assignment = get_assigner(self.config.shard_assigner).assign(
                    self.num_end_systems,
                    num_servers,
                    loads=[len(dataset) for dataset in client_datasets],
                )
                topology = multi_hub_star_topology(
                    self.num_end_systems, num_servers, assignment=assignment
                )
        self.topology = topology
        if len(self.topology.end_systems) != self.num_end_systems:
            raise ValueError(
                f"topology has {len(self.topology.end_systems)} end-systems but "
                f"{self.num_end_systems} datasets were provided"
            )
        hubs = self.topology.servers
        if len(hubs) != num_servers:
            raise ValueError(
                f"topology has {len(hubs)} server hubs but config.num_servers="
                f"{num_servers}"
            )
        #: Per-message chaos (corruption/duplication/reordering) rides
        #: inside the transport; ``None`` when no message chaos is on.
        self.message_chaos: Optional[MessageChaos] = None
        if self.config.message_chaos_enabled:
            self.message_chaos = MessageChaos(
                corrupt_probability=self.config.chaos_corrupt_probability,
                duplicate_probability=self.config.chaos_duplicate_probability,
                reorder_probability=self.config.chaos_reorder_probability,
                reorder_delay_s=self.config.chaos_reorder_delay_s,
                duplicate_delay_s=self.config.chaos_duplicate_delay_s,
                # Distinct prime offset so the chaos streams never collide
                # with the link seeds or the failure/retry streams.
                seed=self.config.seed + 524_287,
            )
        self.transport = Transport(self.topology, chaos=self.message_chaos)
        self.train_transform = train_transform

        seeds = SeedSequence(self.config.seed)
        self.end_systems: List[EndSystem] = []
        for system_id, dataset in enumerate(client_datasets):
            loader = DataLoader(
                dataset,
                batch_size=self.config.batch_size,
                shuffle=self.config.shuffle,
                drop_last=self.config.drop_last,
                transform=train_transform,
                seed=self.config.seed + system_id,
            )
            self.end_systems.append(
                EndSystem(
                    system_id=system_id,
                    loader=loader,
                    split_spec=split_spec,
                    optimizer_name=self.config.client_optimizer,
                    optimizer_kwargs=self.config.client_optimizer_kwargs,
                    seed=int(seeds.generator(f"client-{system_id}").integers(0, 2 ** 31)),
                )
            )

        # Every shard replica initializes from the same "server" seed
        # stream, so all server segments start with identical weights (they
        # are replicas of one logical server) and shard 0 is bit-identical
        # to the pre-cluster single server.
        server_seed = int(seeds.generator("server").integers(0, 2 ** 31))
        shards: List[ServerShard] = []
        for shard_index, hub in enumerate(hubs):
            server = CentralServer(
                split_spec=split_spec,
                optimizer_name=self.config.server_optimizer,
                optimizer_kwargs=self.config.server_optimizer_kwargs,
                loss_name=self.config.loss,
                queue_policy=get_policy(self.config.queue_policy),
                max_queue_size=self.config.max_queue_size,
                # Per-message processing never gathers, so staging would be a
                # pure copy tax; the arena rides with batched draining.
                use_arena=self.config.server_arena and self.config.server_batching,
                seed=server_seed,
            )
            shards.append(ServerShard(shard_index, server, hub))
        self._node_name_to_system = {
            end_system.node_name: end_system for end_system in self.end_systems
        }
        # Map end-system ids to topology node names positionally so custom
        # topologies with descriptive names (e.g. cities) still work.
        self._system_to_node = {
            end_system.system_id: node
            for end_system, node in zip(self.end_systems, self.topology.end_systems)
        }
        # The topology is the assignment's ground truth: each end-system
        # belongs to the shard whose hub its node hangs off.
        hub_to_shard = {hub: index for index, hub in enumerate(hubs)}
        assignment = {
            end_system.system_id: hub_to_shard[
                self.topology.hub_of(self._system_to_node[end_system.system_id])
            ]
            for end_system in self.end_systems
        }
        self.cluster = ClusterCoordinator(
            shards=shards,
            assignment=assignment,
            sync_every=self.config.server_sync_every,
            sync_mode=self.config.server_sync_mode,
        )
        #: Shard 0's server — the *only* server with ``num_servers=1``
        #: (back-compat alias used throughout the single-server tests).
        self.server = self.cluster.shards[0].server
        #: The run's one fault timeline (shard crashes, flaps, churn,
        #: partitions, stragglers, moves) consumed by the engine; ``None``
        #: without failure or timeline-chaos knobs.
        self.fault_plan: Optional[FaultPlan] = build_fault_plan(
            self.config, self.num_end_systems
        )
        if checkpoint_store is None and self.config.checkpoint_every_s is not None:
            if self.config.checkpoint_dir is not None:
                checkpoint_store = FileCheckpointStore(self.config.checkpoint_dir)
            else:
                checkpoint_store = MemoryCheckpointStore()
        self.checkpoint_store = checkpoint_store
        #: Per-run observability plane (the inert ``NULL_OBS`` unless
        #: ``config.obs_enabled``): metrics registry + trace sampler +
        #: JSONL sink, flushed by the engine's ``PRIORITY_OBS`` events.
        self.obs = Observability.from_config(self.config)
        self._register_obs_collectors()
        self.engine = TrainingEngine(
            end_systems=self.end_systems,
            transport=self.transport,
            system_to_node=self._system_to_node,
            config=self.config,
            cluster=self.cluster,
            fault_plan=self.fault_plan,
            failover=(
                get_failover_policy(
                    self.config.failover_policy,
                    assigner=self.config.failover_assigner,
                )
                if self.config.failures_enabled
                else None
            ),
            checkpoint_store=self.checkpoint_store,
            obs=self.obs,
        )
        self._clock = 0.0
        #: First epoch index :meth:`train` will run — advanced past the
        #: completed epochs by :meth:`restore_run_checkpoint`.
        self._start_epoch = 0

    def _register_obs_collectors(self) -> None:
        """Adapt the legacy telemetry views into registry collectors.

        The dicts stay the source of truth (histories keep reading them
        directly); the registry re-exports them as canonical samples so
        one JSONL stream carries everything ``repro.obs report`` needs —
        including the nine drop-balance series that
        :func:`repro.obs.invariants.drop_balance_from_metrics` rebuilds
        the leak-freedom invariant from.  The engine registers its own
        ``engine.*`` collector when constructed.

        Each collector captures the collaborators it reads (bound once, in
        ``__init__``), never ``self``: the trainer holds the registry, so a
        closure over the trainer would make a cycle that only the cycle
        collector frees.  ``transport`` is captured rather than its
        ``log``, which :meth:`~repro.simnet.transport.Transport.reset_log`
        rebinds.
        """
        if not self.obs.enabled:
            return
        registry = self.obs.registry
        transport, cluster, end_systems = self.transport, self.cluster, self.end_systems

        def collect_traffic() -> List[Sample]:
            return samples_from_mapping("traffic", transport.log.summary())

        def collect_cluster() -> List[Sample]:
            return samples_from_mapping(
                "cluster", {"queue_dropped": cluster.queue_dropped})

        def collect_clients() -> List[Sample]:
            rows = samples_from_mapping("clients", {
                "drops_notified": sum(
                    es.drops_notified for es in end_systems),
            })
            rows.extend(samples_from_mapping("clients", {
                "pending_batches": sum(
                    es.pending_batches for es in end_systems),
            }, kind="gauge"))
            return rows

        def collect_shards() -> List[Sample]:
            rows: List[Sample] = []
            for shard in cluster.shards:
                rows.extend(samples_from_mapping(
                    "shard", shard.stats(),
                    labels={"shard": shard.shard_id}))
            return rows

        # The perf counters are process-global; baseline them at wiring
        # time so the exported ``perf.*`` series counts only this run
        # (and same-seed runs in one process export identical metrics).
        perf_baseline = perf_counters.snapshot()

        def collect_perf() -> List[Sample]:
            snapshot = perf_counters.snapshot()
            deltas = {
                key: value - perf_baseline.get(key, 0)
                for key, value in snapshot.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            return samples_from_mapping("perf", deltas)

        registry.register_collector(collect_traffic)
        registry.register_collector(collect_cluster)
        registry.register_collector(collect_clients)
        registry.register_collector(collect_shards)
        registry.register_collector(collect_perf)

    def _finalize_obs(self) -> None:
        """End-of-run metrics flush plus the optional on-disk export."""
        if not self.obs.enabled:
            return
        self.obs.flush(self.engine.clock)
        if self.config.obs_dir is not None:
            metrics_path, trace_path = self.obs.write(self.config.obs_dir)
            logger.info("observability export: %s, %s",
                        metrics_path, trace_path)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def simulated_time(self) -> float:
        """Current simulated wall-clock time in seconds."""
        return self.engine.clock

    def _epoch_iterators(self, epoch: int) -> Dict[int, Iterator[Tuple[np.ndarray, np.ndarray]]]:
        return {
            end_system.system_id: end_system.batches(epoch)
            for end_system in self.end_systems
        }

    def _queue_stats(self) -> Dict[str, object]:
        """Run-level queue/engine statistics attached to every history.

        With one shard the headline numbers equal the single queue's; a
        multi-shard run rolls every shard's queue up (summed drops,
        count-weighted mean wait, Jain's index over the merged per-system
        sample counts) and attaches the per-shard breakdown plus the
        inter-server synchronization counters.
        """
        stats = {
            "mean_waiting_time_s": self.cluster.mean_waiting_time(),
            "fairness_index": self.cluster.fairness_index(),
            "dropped": self.cluster.queue_dropped,
            "processed_per_system": self.cluster.processed_per_system(),
            "blocked_sends": self.engine.stats.blocked_sends,
            "engine_events": self.engine.stats.events_processed,
            "mean_nack_delay_s": self.engine.stats.mean_nack_delay_s,
            "num_servers": self.cluster.num_shards,
        }
        if self.cluster.num_shards > 1:
            stats["per_shard"] = self.cluster.shard_stats()
            stats["weight_syncs"] = self.engine.stats.weight_syncs
            stats["sync_messages"] = self.engine.stats.sync_messages
        if self.config.failures_enabled:
            engine_stats = self.engine.stats
            stats["shard_crashes"] = engine_stats.shard_crashes
            stats["shard_recoveries"] = engine_stats.shard_recoveries
            stats["clients_reassigned"] = engine_stats.clients_reassigned
            stats["failover_dropped"] = engine_stats.failover_dropped
            # Completed outages plus the tail of any outage still open
            # when the run ended.
            stats["total_downtime_s"] = sum(
                shard.downtime_s
                + (
                    max(0.0, self.engine.clock - shard.down_since)
                    if shard.down_since is not None
                    else 0.0
                )
                for shard in self.cluster.shards
            )
            # Recovery-point metric: how much simulated time / how many
            # processed samples each crash rolled back to its restore point.
            shards = self.cluster.shards
            stats["rpo_lost_s"] = sum(shard.rpo_lost_s for shard in shards)
            stats["rpo_lost_samples"] = sum(shard.rpo_lost_samples for shard in shards)
            recoveries = engine_stats.shard_recoveries
            stats["mean_rpo_s_per_recovery"] = (
                stats["rpo_lost_s"] / recoveries if recoveries else 0.0
            )
            stats["recoveries_from_checkpoint"] = sum(
                shard.recoveries_from_checkpoint for shard in shards
            )
            stats["recoveries_from_sync"] = sum(
                shard.recoveries_from_sync for shard in shards
            )
            stats["recoveries_from_initial"] = sum(
                shard.recoveries_from_initial for shard in shards
            )
        if self.config.reliable_delivery:
            engine_stats = self.engine.stats
            stats["retries"] = engine_stats.retries
            stats["gave_up"] = engine_stats.gave_up
            stats["deduped"] = engine_stats.deduped
            stats["quorum_syncs"] = engine_stats.quorum_syncs
            stats["sync_timeouts"] = engine_stats.sync_timeouts
        if self.config.chaos_enabled:
            log = self.transport.log
            stats["chaos_events"] = self.engine.stats.chaos_events
            # Chaos duplication dedups at the receiver even without the
            # reliability layer, so the counter surfaces in both blocks.
            stats["deduped"] = self.engine.stats.deduped
            stats["corrupted_messages"] = log.corrupted_messages
            stats["duplicated_messages"] = log.duplicated_messages
            stats["reordered_messages"] = log.reordered_messages
        if self.checkpoint_store is not None:
            stats["checkpoints_written"] = self.engine.stats.checkpoints_written
            stats["checkpoint_bytes"] = self.checkpoint_store.bytes_written
            stats["checkpoint_write_wall_s"] = self.checkpoint_store.write_wall_s
        if self.obs.enabled:
            # Only when the plane is on — an obs-off history must be
            # byte-identical to a pre-obs run.
            stats["observability"] = {
                "metric_rows": len(self.obs.rows),
                "flushes": self.obs.flushes,
                "flush_wall_s": self.obs.flush_wall_s,
                "trace_events": len(self.obs.tracer.events),
                "trace_emitted": self.obs.tracer.emitted,
                "trace_dropped": self.obs.tracer.dropped,
            }
        return stats

    def train(self, test_dataset: Optional[Dataset] = None,
              epochs: Optional[int] = None,
              evaluate_every: int = 1,
              on_epoch_end: Optional[Callable[[EpochRecord], None]] = None,
              ) -> TrainingHistory:
        """Run training and return the full history.

        Parameters
        ----------
        test_dataset:
            Optional held-out dataset evaluated every ``evaluate_every``
            epochs (and always after the final epoch).
        epochs:
            Override for ``config.epochs``.
        on_epoch_end:
            Optional observer called with each epoch's
            :class:`~repro.core.history.EpochRecord` after the epoch's
            run checkpoint (if any) has been written — the run-server
            worker uses it to publish live progress.  It must not mutate
            training state.
        """
        with use_backend(self.config.compute_backend):
            return self._train(test_dataset, epochs, evaluate_every, on_epoch_end)

    def _train(self, test_dataset: Optional[Dataset],
               epochs: Optional[int],
               evaluate_every: int,
               on_epoch_end: Optional[Callable[[EpochRecord], None]] = None,
               ) -> TrainingHistory:
        epochs = epochs if epochs is not None else self.config.epochs
        history = TrainingHistory(config=self.config.to_dict())
        last_evaluation: Optional[Dict[str, object]] = None
        for epoch in range(self._start_epoch, epochs):
            start = time.perf_counter()
            epoch_start_clock = self.engine.clock
            iterators = self._epoch_iterators(epoch)
            if self.config.mode == "synchronous":
                tracker = self.engine.run_synchronous_epoch(iterators)
            else:
                tracker = self.engine.run_asynchronous(iterators)
            should_evaluate = test_dataset is not None and (
                (epoch + 1) % max(evaluate_every, 1) == 0 or epoch == epochs - 1
            )
            record, evaluation = self._close_epoch(
                epoch, tracker, epoch_start_clock, start,
                test_dataset if should_evaluate else None,
            )
            if evaluation is not None:
                last_evaluation = evaluation
            history.append(record)
            self._write_run_checkpoint(epoch + 1)
            if on_epoch_end is not None:
                on_epoch_end(record)
            logger.info(
                "epoch %d: train_acc=%.4f train_loss=%.4f test_acc=%s",
                epoch, record.train_accuracy, record.train_loss,
                f"{record.test_accuracy:.4f}" if record.test_accuracy is not None else "n/a",
            )

        return self._close_run(history, test_dataset, last_evaluation)

    def _close_epoch(self, epoch: int, tracker: MetricTracker, start_clock: float,
                     start: float, test_dataset: Optional[Dataset],
                     ) -> Tuple[EpochRecord, Optional[Dict[str, object]]]:
        """An epoch's record, evaluated on ``test_dataset`` when one is given.

        ``start_clock`` / ``start`` are the simulated and ``perf_counter``
        times the epoch began at.
        """
        self._clock = self.engine.clock
        averages = tracker.averages()
        record = EpochRecord(
            epoch=epoch,
            train_loss=averages.get("loss", float("nan")),
            train_accuracy=averages.get("accuracy", 0.0),
            simulated_time_s=self.engine.clock - start_clock,
            wall_time_s=time.perf_counter() - start,
            batches=self.cluster.batches_processed,
            samples=self.cluster.samples_processed,
        )
        evaluation = None
        if test_dataset is not None:
            evaluation = self.evaluate(test_dataset)
            record.test_loss = evaluation["loss"]
            record.test_accuracy = evaluation["accuracy"]
        return record, evaluation

    def _close_run(self, history: TrainingHistory, test_dataset: Optional[Dataset],
                   evaluation: Optional[Dict[str, object]]) -> TrainingHistory:
        """End of a run: obs flush/export, traffic, queue stats, per-system accuracy."""
        self._finalize_obs()
        history.traffic = self.transport.log.summary()
        history.queue_stats = self._queue_stats()
        if test_dataset is not None:
            # A run's last epoch always evaluates, so reuse its result
            # instead of re-running the full test set a second time.
            if evaluation is None:
                evaluation = self.evaluate(test_dataset)
            history.per_system_accuracy = evaluation["per_system_accuracy"]
        return history

    def evaluate(self, dataset: Dataset, batch_size: Optional[int] = None) -> Dict[str, object]:
        """Evaluate the deployed split model on a held-out dataset.

        Every end-system evaluates the full test set through *its own*
        client segment followed by its shard's server segment (the one
        shared server when ``num_servers=1``); the headline accuracy is
        the mean over end-systems (they would each serve their own
        patients in the paper's scenario), and the per-system values are
        reported for fairness analysis.
        """
        with use_backend(self.config.compute_backend):
            return self._evaluate(dataset, batch_size)

    def _evaluate(self, dataset: Dataset, batch_size: Optional[int]) -> Dict[str, object]:
        images, labels = dataset.arrays()
        if self.train_transform is not None:
            images = self.train_transform(images)
        batch_size = batch_size or max(self.config.batch_size, 64)
        per_system_accuracy: Dict[int, float] = {}
        per_system_loss: Dict[int, float] = {}
        for end_system in self.end_systems:
            shard_server = self.cluster.shard_of(end_system.system_id).server
            correct_weighted = 0.0
            loss_weighted = 0.0
            total = 0
            for start in range(0, images.shape[0], batch_size):
                stop = start + batch_size
                batch_images = images[start:stop]
                batch_labels = labels[start:stop]
                smashed = end_system.forward_inference(batch_images)
                metrics = shard_server.evaluate(smashed, batch_labels)
                correct_weighted += metrics["accuracy"] * batch_images.shape[0]
                loss_weighted += metrics["loss"] * batch_images.shape[0]
                total += batch_images.shape[0]
            per_system_accuracy[end_system.system_id] = correct_weighted / total
            per_system_loss[end_system.system_id] = loss_weighted / total
        return {
            "accuracy": float(np.mean(list(per_system_accuracy.values()))),
            "loss": float(np.mean(list(per_system_loss.values()))),
            "per_system_accuracy": per_system_accuracy,
            "per_system_loss": per_system_loss,
        }

    def train_time_budget(self, simulated_seconds: float,
                          test_dataset: Optional[Dataset] = None) -> TrainingHistory:
        """Asynchronous training until the simulated clock reaches a budget.

        End-systems cycle through their local data indefinitely; the run
        stops once ``simulated_seconds`` of simulated wall-clock time have
        elapsed.  This is the regime where the paper's arrival-bias warning
        bites: within a fixed time window a nearby end-system completes far
        more updates than a remote one, and the scheduling policy decides
        how the server divides its attention.
        """
        if simulated_seconds <= 0:
            raise ValueError("simulated_seconds must be positive")
        if self.config.mode != "asynchronous":
            raise ValueError("train_time_budget requires mode='asynchronous'")

        def cycling_batches(end_system: EndSystem):
            epoch = 0
            while True:
                for batch in end_system.batches(epoch):
                    yield batch
                epoch += 1

        iterators = {
            end_system.system_id: cycling_batches(end_system)
            for end_system in self.end_systems
        }
        history = TrainingHistory(config=self.config.to_dict())
        start_clock = self.engine.clock
        start = time.perf_counter()
        with use_backend(self.config.compute_backend):
            tracker = self.engine.run_asynchronous(
                iterators, stop_time=start_clock + simulated_seconds
            )
        record, evaluation = self._close_epoch(0, tracker, start_clock, start, test_dataset)
        history.append(record)
        return self._close_run(history, test_dataset, evaluation)

    # ------------------------------------------------------------------ #
    # Durable run checkpoints (coordinator restart)
    # ------------------------------------------------------------------ #
    def _write_run_checkpoint(self, completed_epochs: int) -> None:
        if self.checkpoint_store is None or not self.engine._checkpoint_enabled():
            return
        self.checkpoint_store.save_run(self._capture_run_checkpoint(completed_epochs))

    def _capture_run_checkpoint(self, completed_epochs: int) -> RunCheckpoint:
        """Snapshot the entire deployment at an epoch boundary.

        Epoch boundaries are quiescent — no in-flight messages, drained
        queues, no pending NACKs — so the capture needs no transit
        state, only weights, optimizer slots, counters and every live
        RNG stream position.  Shard and client records nest under
        ``shard<i>::`` / ``client<i>::``; :meth:`restore_run_checkpoint`
        reads the payload back.
        """
        engine = self.engine
        cluster = self.cluster
        log = self.transport.log
        shards = [ShardCheckpoint.capture(runtime.shard, sim_time=engine.clock,
                                          round_index=runtime.round_index,
                                          generation=runtime.generation)
                  for runtime in engine._runtimes]
        clients = [ClientCheckpoint.capture(es) for es in self.end_systems]
        arrays: Dict[str, np.ndarray] = {}
        for kind, records in (("shard", shards), ("client", clients)):
            for index, record in enumerate(records):
                arrays.update((f"{kind}{index}::{key}", value)
                              for key, value in record.arrays.items())
        snapshot = cluster.last_sync_snapshot
        for name, value in (snapshot or {}).items():
            arrays[f"sync_snapshot::{name}"] = value
        arrays["transit_times"] = np.asarray(log.transit_times, dtype=np.float64)
        links: Dict[str, Dict[str, int]] = {}
        for key, link in self.topology.links():
            arrays[f"link_rng::{key}"] = pack_rng_state(link._rng)
            links[key] = {"messages_sent": link.messages_sent,
                          "messages_dropped": link.messages_dropped,
                          "bytes_sent": link.bytes_sent}
        if engine._retry_rng is not None:
            arrays["stream::retry"] = pack_rng_state(engine._retry_rng)
        plan_state = ({"failure_state": None, "chaos_state": None}
                      if self.fault_plan is None else self.fault_plan.state_dict())
        return RunCheckpoint(arrays, {
            "epoch": int(completed_epochs),
            "engine_clock": float(engine.clock),
            "config": self.config.to_dict(),
            # ``as_dict`` shows only the mean; the exact sum rides alongside.
            "engine_stats": {**engine.stats.as_dict(),
                             "nack_delay_total_s": engine.stats.nack_delay_total_s},
            "shards": [shard.meta for shard in shards],
            "clients": [client.meta for client in clients],
            "assignment": {str(k): int(v) for k, v in cluster.assignment.items()},
            "original_assignment": {
                str(k): int(v) for k, v in cluster.original_assignment.items()
            },
            "has_sync_snapshot": snapshot is not None,
            "sync_snapshot_names": [] if snapshot is None else list(snapshot),
            "last_sync_time_s": cluster.last_sync_time_s,
            "syncs_completed": cluster.syncs_completed,
            "node_health": {
                name: self.topology.is_up(name)
                for name in list(self.topology.end_systems) + list(self.topology.servers)
            },
            "traffic": {name: getattr(log, name) for name in _TRAFFIC_COUNTERS},
            "links": links,
            # The fault plan's two halves: shard crash lanes, client/network lane.
            "failure_state": plan_state["failure_state"],
            "chaos_state": plan_state["chaos_state"],
            "message_chaos_state": (
                None if self.message_chaos is None
                else self.message_chaos.state_dict()
            ),
            # Registry-owned histogram state, so a resumed run's metric rows
            # continue the crashed run's series.
            "obs_instruments": (
                self.obs.instruments_state() if self.obs.enabled else None
            ),
        })

    def _restore_engine_stats(self, state: Dict[str, object]) -> None:
        stats = self.engine.stats
        for field_info in dataclass_fields(stats):
            if field_info.name in state:
                setattr(stats, field_info.name, state[field_info.name])
        # Older records carry only the mean: rebuild the sum from it, so the
        # resumed run keeps averaging over the full nack population.
        if "nack_delay_total_s" not in state:
            stats.nack_delay_total_s = (
                float(state.get("mean_nack_delay_s", 0.0)) * stats.nacks_sent
            )

    def restore_run_checkpoint(self, run: RunCheckpoint) -> None:
        """Rebuild this trainer's runtime state from a run checkpoint.

        The trainer must have been constructed with the *same* config and
        topology shape the checkpoint was captured under (that is what
        :meth:`resume_from_store` guarantees); this method then restores
        shard and client snapshots, the client→shard assignment (replaying
        failover moves through the topology), node health, link RNG
        streams and counters, traffic/engine statistics, coordinator sync
        state, and the fault plan's timeline so the resumed run is
        replay-exact from the next epoch onward.  Dict keys in ``meta``
        are ints (memory store) or their JSON strings (file store).
        """
        engine = self.engine
        meta = run.meta
        shard_metas, client_metas = meta["shards"], meta["clients"]
        if len(shard_metas) != self.cluster.num_shards:
            raise ValueError(
                f"checkpoint has {len(shard_metas)} shards but this deployment "
                f"has {self.cluster.num_shards}"
            )
        if len(client_metas) != len(self.end_systems):
            raise ValueError(
                f"checkpoint has {len(client_metas)} clients but this deployment "
                f"has {len(self.end_systems)}"
            )
        original = {int(k): int(v) for k, v in meta["original_assignment"].items()}
        if original != self.cluster.original_assignment:
            raise ValueError(
                "checkpoint was captured under a different initial client "
                "assignment; rebuild the trainer with the same config/topology"
            )
        # One pass over the array keys: ``"<component>::<name>"``.
        groups = group_payload_keys(run.arrays)
        engine_clock = run.engine_clock
        for index, runtime in enumerate(engine._runtimes):
            shard = ShardCheckpoint(groups.get(f"shard{index}", {}), shard_metas[index])
            shard.restore(runtime.shard, include_counters=True)
            runtime.round_index = shard.round_index
            runtime.generation = shard.generation
            runtime.last_checkpoint_s = engine_clock
        for index, end_system in enumerate(self.end_systems):
            ClientCheckpoint(groups.get(f"client{index}", {}),
                             client_metas[index]).restore(end_system)
        # Replay the moves in effect at the record (failover, scripted
        # churn) so topology routing and coordinator bookkeeping match it.
        assignment = {int(k): int(v) for k, v in meta["assignment"].items()}
        for system_id, shard_id in sorted(assignment.items()):
            engine._reassign(system_id, shard_id)
        self._restore_engine_stats(meta["engine_stats"])
        engine.clock = engine_clock
        self._clock = engine.clock
        log = self.transport.log
        for name in _TRAFFIC_COUNTERS:
            setattr(log, name, int(meta["traffic"][name]))
        log.transit_times = np.asarray(
            groups.get("transit_times", {}).get("", ()), dtype=np.float64
        ).tolist()
        for name, up in meta["node_health"].items():
            self.topology.set_node_up(name, bool(up))
        links = dict(self.topology.links())
        link_rngs = groups.get("link_rng", {})
        for key, counters in meta["links"].items():
            link = links.get(key)
            if link is None:
                raise ValueError(f"checkpoint references unknown link {key!r}")
            link.messages_sent = int(counters["messages_sent"])
            link.messages_dropped = int(counters["messages_dropped"])
            link.bytes_sent = int(counters["bytes_sent"])
            restore_rng_state(link._rng, link_rngs[key])
        snapshot = groups.get("sync_snapshot", {})
        self.cluster.last_sync_snapshot = (
            {name: np.array(snapshot[name], copy=True)
             for name in meta["sync_snapshot_names"]}
            if meta["has_sync_snapshot"] else None
        )
        last_sync_time_s = meta["last_sync_time_s"]
        self.cluster.last_sync_time_s = (
            None if last_sync_time_s is None else float(last_sync_time_s)
        )
        self.cluster.syncs_completed = int(meta["syncs_completed"])
        # ``.get``: records written before the chaos plane or the obs
        # checkpoint existed restore with those mechanisms starting fresh.
        if self.fault_plan is not None:
            self.fault_plan.load_state_dict({
                "failure_state": meta["failure_state"],
                "chaos_state": meta.get("chaos_state"),
            })
        message_chaos_state = meta.get("message_chaos_state")
        if message_chaos_state is not None and self.message_chaos is not None:
            self.message_chaos.load_state_dict(message_chaos_state)
        packed_retry = groups.get("stream", {}).get("retry")
        if packed_retry is not None and engine._retry_rng is not None:
            restore_rng_state(engine._retry_rng, packed_retry)
        obs_instruments = meta.get("obs_instruments")
        if obs_instruments:
            self.obs.restore_instruments(obs_instruments)
        self._start_epoch = run.epoch

    @classmethod
    def resume_from_store(
        cls,
        store: CheckpointStore,
        split_spec: SplitSpec,
        client_datasets: Sequence[Dataset],
        *,
        topology: Optional[GeoTopology] = None,
        train_transform: Optional[Normalize] = None,
    ) -> "SpatioTemporalTrainer":
        """Rebuild a trainer from the newest intact run checkpoint.

        This is the coordinator-restart path: everything mutable comes
        from the store (the config rides inside the checkpoint), while
        the immutable inputs — architecture and datasets — are passed in
        by the caller.  Calling :meth:`train` on the result resumes at
        the first incomplete epoch and is replay-exact against an
        uninterrupted run.
        """
        run = store.latest_run()
        if run is None:
            raise ValueError("checkpoint store holds no intact run checkpoint")
        config = TrainingConfig.from_dict(run.meta["config"])
        trainer = cls(
            split_spec,
            client_datasets,
            config=config,
            topology=topology,
            train_transform=train_transform,
            checkpoint_store=store,
        )
        trainer.restore_run_checkpoint(run)
        return trainer

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def per_system_update_counts(self) -> Dict[int, int]:
        """Number of gradient updates each end-system has applied so far."""
        return {
            end_system.system_id: end_system.updates_applied
            for end_system in self.end_systems
        }

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Checkpoint of every server shard and every end-system segment.

        Single-server deployments keep the legacy ``"server"`` key;
        sharded deployments store one ``"server_shard_{k}"`` entry per
        replica.
        """
        if self.cluster.num_shards == 1:
            state = {"server": self.server.state_dict()}
        else:
            state = {
                f"server_shard_{shard.shard_id}": shard.server.state_dict()
                for shard in self.cluster.shards
            }
        for end_system in self.end_systems:
            state[f"end_system_{end_system.system_id}"] = end_system.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore a checkpoint produced by :meth:`state_dict`."""
        if self.cluster.num_shards == 1:
            self.server.load_state_dict(state["server"])
        else:
            for shard in self.cluster.shards:
                shard.server.load_state_dict(state[f"server_shard_{shard.shard_id}"])
        for end_system in self.end_systems:
            end_system.load_state_dict(state[f"end_system_{end_system.system_id}"])
