"""Configuration dataclasses for split-learning training runs."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["CONFIG_SCHEMA_VERSION", "TrainingConfig"]

#: Version of the ``TrainingConfig`` JSON schema.  Bump it whenever a
#: serialized config written by this version could be misread by an
#: older reader (renamed keys, changed semantics); adding a new knob
#: with a default does not require a bump — :meth:`TrainingConfig.from_dict`
#: fills missing keys with defaults so old payloads keep loading.
CONFIG_SCHEMA_VERSION = 1


@dataclass
class TrainingConfig:
    """Hyper-parameters of a spatio-temporal split-learning run.

    Parameters
    ----------
    epochs:
        Number of passes over every end-system's local data (synchronous
        mode).
    batch_size:
        Mini-batch size used by every end-system.
    client_optimizer / client_lr:
        Optimizer and learning rate for each end-system's local segment.
    server_optimizer / server_lr:
        Optimizer and learning rate for the server segment.
    loss:
        Server-side loss name: ``cross_entropy`` or ``nll`` (see
        :func:`repro.nn.losses.get_loss`), the losses that take the
        class-index labels every message carries.
    queue_policy:
        Name of the server queue's scheduling policy (see
        :func:`repro.core.scheduling.get_policy`).
    max_queue_size:
        Capacity of the server's parameter-scheduling queue.  ``None``
        (the default) models an unbounded queue; a positive integer
        bounds it, which is the regime where the paper's late/sparse
        arrivals actually cost something.  What happens at the bound is
        decided by ``queue_backpressure``.
    queue_backpressure:
        Policy applied when the bounded queue has no room:

        * ``"drop"`` — the arriving activation message is discarded and
          the originating end-system is notified so it can forget the
          pending activation (no client-side leak) and move on to its
          next batch.
        * ``"block"`` — admission control: an end-system defers its next
          send until the queue has room (counting messages already in
          flight towards capacity), so nothing is ever dropped at the
          queue.
    mode:
        ``"synchronous"`` (the default; what Table I uses) or
        ``"asynchronous"`` (event-driven, used by the staleness ablation).
    num_servers:
        Number of server shards.  ``1`` (the default) is the paper's
        single central server; larger values split the clients across
        that many :class:`~repro.cluster.shard.ServerShard` replicas —
        each with its own queue, arena and optimizer — kept consistent
        by periodic weight synchronization (see ``server_sync_mode``).
    shard_assigner:
        Client-to-shard assignment strategy (see
        :func:`repro.cluster.assigner.get_assigner`): ``"static_hash"``,
        ``"load_aware"`` or ``"latency_aware"``.  Ignored when a custom
        multi-hub topology already fixes the assignment.
    server_sync_every:
        Inter-server synchronization cadence: every this-many *rounds*
        (synchronous mode) or per-shard *server steps* (asynchronous
        mode).  Irrelevant with one server.
    server_sync_mode:
        ``"average"`` — a barrier event where every shard installs the
        sample-weighted average of all server segments (FedAvg-style;
        synchronous mode only), or ``"staleness"`` — asynchronous
        gossip whose merge coefficient decays with each snapshot's
        transit staleness (either training mode).
    server_batching:
        When ``True`` (the default) the server drains every pending
        activation message in one concatenated forward/backward pass
        (:meth:`repro.core.server.CentralServer.process_batch`) instead
        of running one pass per message, and performs a single optimizer
        step on the union batch.  Set to ``False`` for the paper's
        per-message updates: the same step on one message at a time,
        one optimizer step per message.
    server_arena:
        When ``True`` (the default) the server stages admitted
        activation payloads into a preallocated shape-bucketed arena at
        enqueue time (:class:`repro.utils.arena.ActivationArena`), so
        batched drains train on a contiguous zero-copy view instead of
        re-concatenating every pending message.
    compute_backend:
        Name of the GEMM backend the trainer makes active **for the
        duration of each run** (``train`` / ``evaluate`` /
        ``train_time_budget``, each a :func:`repro.backend.use_backend`
        scope, so the previous backend is back when the call returns or
        raises): ``"numpy"`` (one direct product per GEMM) or
        ``"blocked"`` (row-tiles large GEMMs).  ``None`` (the default)
        runs on whatever backend is active when the call starts.
    failure_schedule:
        Scripted shard crashes: a list of ``(time_s, shard_id)`` or
        ``(time_s, shard_id, downtime_s)`` entries (simulated seconds;
        without a downtime the shard stays down), expanded into the
        run's fault plan (:class:`repro.chaos.ScheduledFaults`).  Mutually
        exclusive with ``failure_mtbf_s``.  ``None`` (the default) injects
        no failures and runs the exact pre-failover event chains.
    failure_mtbf_s:
        Stochastic churn: mean time between failures of each shard
        (exponential draws from a per-shard stream seeded off ``seed``).
        ``None`` disables stochastic failures.
    failure_mttr_s:
        Mean time to recovery under stochastic churn (exponential).
    failover_policy:
        What happens to a crashed shard's clients (see
        :func:`repro.cluster.failover.get_failover_policy`):
        ``"rebalance"`` reassigns them across the healthy survivors and
        fails them back on recovery; ``"standby"`` parks them until
        their home shard returns.
    failover_assigner:
        :class:`~repro.cluster.assigner.ShardAssigner` the rebalancing
        failover reuses to spread orphaned clients over the survivors;
        ``None`` defaults to ``"load_aware"``.
    failover_delay_s:
        Simulated detection-plus-switchover delay between a crash and
        the reassignment of its clients.
    checkpoint_every_s:
        Durable-checkpoint cadence in simulated seconds.  ``None`` (the
        default) disables checkpointing entirely — the engine schedules
        no checkpoint events and the run is byte-for-byte identical to a
        checkpoint-free build.  With a positive value (and a checkpoint
        store installed) every shard's full state — weights, optimizer
        moments, RNG streams, counters and the drop-accounting ledger —
        is captured on that cadence, crash recovery prefers the newest
        intact checkpoint over the last sync snapshot, and the trainer
        writes a run-level checkpoint at every epoch boundary from which
        a coordinator restart resumes replay-exact.
    checkpoint_mode:
        When the per-shard cadence fires: ``"interval"`` (the default)
        schedules dedicated simulator events every ``checkpoint_every_s``
        seconds; ``"round"`` captures opportunistically at round barriers
        (synchronous mode) or step dispatches (asynchronous mode) once at
        least ``checkpoint_every_s`` simulated seconds have passed since
        the shard's previous capture — no extra events, checkpoints ride
        existing ones.
    checkpoint_dir:
        Directory for a :class:`~repro.state.FileCheckpointStore` the
        trainer builds when no store is passed explicitly.  ``None``
        (the default) with ``checkpoint_every_s`` set falls back to an
        in-memory store (durable against simulated crashes, not process
        death).
    reliable_delivery:
        When ``True`` the transport becomes reliable: every activation
        and gradient send is covered by an ack/timeout retry chain with
        capped exponential backoff and seeded jitter, lost copies are
        retransmitted (absorbed into ``retried`` traffic counters rather
        than surfacing as drops), duplicate deliveries are idempotently
        deduplicated at the receiving shard, and a sender that exhausts
        ``retry_max`` retries gives up exactly once (``gave_up`` joins
        the drop-accounting balance).  ``False`` (the default) keeps the
        PR 7 fire-and-forget semantics bit-for-bit.
    retry_timeout_s / retry_backoff / retry_max / retry_jitter /
    retry_timeout_cap_s:
        Reliable-delivery retransmission knobs: attempt ``k`` times out
        after ``min(retry_timeout_cap_s, retry_timeout_s *
        retry_backoff**k)`` seconds plus a seeded uniform jitter of up to
        ``retry_jitter`` of that timeout; after ``retry_max`` retries the
        sender gives up.  Only consulted when ``reliable_delivery`` is
        on.
    sync_quorum / sync_timeout_s:
        Quorum-degraded ``"average"`` sync: when ``sync_timeout_s`` is
        set, a rendezvous that has waited that long fires with only the
        shards that showed up — provided they are at least
        ``sync_quorum`` (a fraction) of the healthy unfinished shards
        and at least two — instead of stalling on stragglers; below
        quorum the waiters are released without a sync and regroup at
        the next rendezvous.  ``sync_timeout_s=None`` (the default) is
        the exact PR 7 all-or-nothing barrier.
    chaos_schedule:
        Scripted client/network faults on the same fault plan
        (:class:`repro.chaos.ScheduledFaults`).  Entries are tuples:
        ``("flap", t, duration, client_id)`` /
        ``("leave", t, duration, client_id)`` (client link outage /
        churn), ``("partition", t, duration, hub_a, hub_b)`` (hub↔hub
        partition), ``("straggler", t, duration, shard_id, factor)``
        (multiplicative service-time inflation) and
        ``("move", t, client_id, shard_id)`` (client mobility).
        Mutually exclusive with the stochastic chaos knobs.
    chaos_flap_mtbf_s / chaos_flap_mttr_s / chaos_leave_mtbf_s /
    chaos_leave_mttr_s:
        Stochastic client churn (:class:`repro.chaos.StochasticFaults`):
        per-client exponential mean time between flaps/leaves and mean
        outage durations.  ``None`` MTBF disables that fault class.
    chaos_corrupt_probability / chaos_duplicate_probability /
    chaos_reorder_probability:
        Per-message chaos at the transport (seeded, deterministic):
        probability that a delivered message is corrupted (counted and
        lost), duplicated (uplink activations only; the extra copy is
        deduplicated at the shard) or reordered (its arrival delayed by
        a seeded draw up to ``chaos_reorder_delay_s``).
    chaos_reorder_delay_s / chaos_duplicate_delay_s:
        Maximum extra arrival delay for reordered messages and for the
        duplicate copy of a duplicated message.
    obs_enabled:
        Turns on the :mod:`repro.obs` observability plane: the metrics
        registry collects every subsystem's counters, the tracer records
        sampled message/control-plane spans, and the engine flushes
        periodic JSONL snapshots.  Off (the default) the run uses the
        inert ``NULL_OBS`` bundle and is byte-identical to a pre-obs run.
    obs_trace_sample_rate:
        Fraction of message transfers traced, decided per sequence
        number by a seeded order-independent hash (so the same ``seed``
        always yields the identical trace).  Control-plane events
        (crashes, failover, syncs, checkpoints) are always traced.
    obs_trace_capacity:
        Ring-buffer bound on retained trace events; older events are
        evicted (and counted) once the buffer is full.
    obs_flush_every_s:
        Sim-time cadence of the engine's ``PRIORITY_OBS`` metric-flush
        events.  ``None`` flushes only once, at the end of the run.
    obs_dir:
        When set (and obs is enabled), the trainer writes
        ``metrics.jsonl`` and ``trace.json`` here after ``train()``.
    max_in_flight:
        Asynchronous mode only: how many batches an end-system may have
        outstanding (sent but not yet acknowledged with a gradient).
    server_step_time_s:
        Simulated compute time the server spends per batch; makes queue
        contention meaningful in asynchronous mode.
    seed:
        Master seed; every stochastic component derives its own stream
        from it.
    shuffle / drop_last:
        DataLoader behaviour on each end-system.
    """

    epochs: int = 10
    batch_size: int = 32
    client_optimizer: str = "adam"
    client_lr: float = 1e-3
    server_optimizer: str = "adam"
    server_lr: float = 1e-3
    loss: str = "cross_entropy"
    queue_policy: str = "fifo"
    max_queue_size: Optional[int] = None
    queue_backpressure: str = "drop"
    mode: str = "synchronous"
    num_servers: int = 1
    shard_assigner: str = "static_hash"
    server_sync_every: int = 1
    server_sync_mode: str = "average"
    server_batching: bool = True
    server_arena: bool = True
    compute_backend: Optional[str] = None
    failure_schedule: Optional[List[Sequence[float]]] = None
    failure_mtbf_s: Optional[float] = None
    failure_mttr_s: float = 1.0
    failover_policy: str = "rebalance"
    failover_assigner: Optional[str] = None
    failover_delay_s: float = 0.0
    checkpoint_every_s: Optional[float] = None
    checkpoint_mode: str = "interval"
    checkpoint_dir: Optional[str] = None
    reliable_delivery: bool = False
    retry_timeout_s: float = 0.05
    retry_backoff: float = 2.0
    retry_max: int = 3
    retry_jitter: float = 0.1
    retry_timeout_cap_s: float = 1.0
    sync_quorum: float = 1.0
    sync_timeout_s: Optional[float] = None
    chaos_schedule: Optional[List[Sequence[object]]] = None
    chaos_flap_mtbf_s: Optional[float] = None
    chaos_flap_mttr_s: float = 0.05
    chaos_leave_mtbf_s: Optional[float] = None
    chaos_leave_mttr_s: float = 0.5
    chaos_corrupt_probability: float = 0.0
    chaos_duplicate_probability: float = 0.0
    chaos_reorder_probability: float = 0.0
    chaos_reorder_delay_s: float = 0.005
    chaos_duplicate_delay_s: float = 0.002
    obs_enabled: bool = False
    obs_trace_sample_rate: float = 1.0
    obs_trace_capacity: int = 65536
    obs_flush_every_s: Optional[float] = None
    obs_dir: Optional[str] = None
    max_in_flight: int = 1
    server_step_time_s: float = 0.0
    seed: int = 0
    shuffle: bool = True
    drop_last: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.client_lr <= 0 or self.server_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.loss not in {"cross_entropy", "nll"}:
            # Every message carries class-index labels; a loss that needs
            # logit-shaped targets (mse, l1) could not take one step.
            raise ValueError(
                f"loss must be 'cross_entropy' or 'nll' (class-index labels), "
                f"got {self.loss!r}"
            )
        if self.mode not in {"synchronous", "asynchronous"}:
            raise ValueError(
                f"mode must be 'synchronous' or 'asynchronous', got {self.mode!r}"
            )
        if self.max_in_flight <= 0:
            raise ValueError("max_in_flight must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.server_step_time_s < 0:
            raise ValueError("server_step_time_s must be non-negative")
        if self.max_queue_size is not None and self.max_queue_size <= 0:
            raise ValueError("max_queue_size must be positive (or None for unbounded)")
        if self.queue_backpressure not in {"drop", "block"}:
            raise ValueError(
                f"queue_backpressure must be 'drop' or 'block', got {self.queue_backpressure!r}"
            )
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.server_sync_every <= 0:
            raise ValueError("server_sync_every must be positive")
        if self.server_sync_mode not in {"average", "staleness"}:
            raise ValueError(
                f"server_sync_mode must be 'average' or 'staleness', "
                f"got {self.server_sync_mode!r}"
            )
        if (
            self.num_servers > 1
            and self.mode == "asynchronous"
            and self.server_sync_mode == "average"
        ):
            raise ValueError(
                "server_sync_mode='average' is a round barrier and requires "
                "mode='synchronous'; asynchronous clusters use the "
                "'staleness' gossip mode"
            )
        if self.num_servers > 1:
            from ..cluster.assigner import available_assigners

            if self.shard_assigner not in available_assigners():
                known = ", ".join(available_assigners())
                raise ValueError(
                    f"shard_assigner must be one of {known}, "
                    f"got {self.shard_assigner!r}"
                )
        if self.compute_backend is not None:
            from ..backend import available_backends

            if self.compute_backend not in available_backends():
                known = ", ".join(available_backends())
                raise ValueError(
                    f"compute_backend must be one of {known} (or None), "
                    f"got {self.compute_backend!r}"
                )
        if self.failure_schedule is not None and self.failure_mtbf_s is not None:
            raise ValueError(
                "failure_schedule and failure_mtbf_s are mutually exclusive: "
                "use a scripted timeline or stochastic churn, not both"
            )
        if self.failure_mtbf_s is not None and self.failure_mtbf_s <= 0:
            raise ValueError("failure_mtbf_s must be positive (or None)")
        if self.failure_mttr_s <= 0:
            raise ValueError("failure_mttr_s must be positive")
        if self.failover_delay_s < 0:
            raise ValueError("failover_delay_s must be non-negative")
        if self.checkpoint_every_s is not None and self.checkpoint_every_s <= 0:
            raise ValueError("checkpoint_every_s must be positive (or None)")
        if self.checkpoint_mode not in {"interval", "round"}:
            raise ValueError(
                f"checkpoint_mode must be 'interval' or 'round', "
                f"got {self.checkpoint_mode!r}"
            )
        if self.retry_timeout_s <= 0:
            raise ValueError("retry_timeout_s must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.retry_max < 0:
            raise ValueError("retry_max must be non-negative")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.retry_timeout_cap_s < self.retry_timeout_s:
            raise ValueError("retry_timeout_cap_s must be >= retry_timeout_s")
        if not 0.0 < self.sync_quorum <= 1.0:
            raise ValueError("sync_quorum must be in (0, 1]")
        if self.sync_timeout_s is not None and self.sync_timeout_s <= 0:
            raise ValueError("sync_timeout_s must be positive (or None)")
        for knob in (
            "chaos_corrupt_probability",
            "chaos_duplicate_probability",
            "chaos_reorder_probability",
        ):
            probability = float(getattr(self, knob))
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1]")
        if self.chaos_reorder_delay_s < 0:
            raise ValueError("chaos_reorder_delay_s must be non-negative")
        if self.chaos_duplicate_delay_s < 0:
            raise ValueError("chaos_duplicate_delay_s must be non-negative")
        stochastic_chaos = (
            self.chaos_flap_mtbf_s is not None or self.chaos_leave_mtbf_s is not None
        )
        if self.chaos_schedule is not None and stochastic_chaos:
            raise ValueError(
                "chaos_schedule and the stochastic chaos MTBF knobs are "
                "mutually exclusive: use a scripted timeline or stochastic "
                "churn, not both"
            )
        if self.chaos_flap_mtbf_s is not None and self.chaos_flap_mtbf_s <= 0:
            raise ValueError("chaos_flap_mtbf_s must be positive (or None)")
        if self.chaos_flap_mttr_s <= 0:
            raise ValueError("chaos_flap_mttr_s must be positive")
        if self.chaos_leave_mtbf_s is not None and self.chaos_leave_mtbf_s <= 0:
            raise ValueError("chaos_leave_mtbf_s must be positive (or None)")
        if self.chaos_leave_mttr_s <= 0:
            raise ValueError("chaos_leave_mttr_s must be positive")
        if not 0.0 <= self.obs_trace_sample_rate <= 1.0:
            raise ValueError("obs_trace_sample_rate must be in [0, 1]")
        if self.obs_trace_capacity <= 0:
            raise ValueError("obs_trace_capacity must be positive")
        if self.obs_flush_every_s is not None and self.obs_flush_every_s <= 0:
            raise ValueError("obs_flush_every_s must be positive (or None)")
        if self.obs_dir is not None and not self.obs_enabled:
            raise ValueError("obs_dir requires obs_enabled=True")
        if self.chaos_schedule or self.failure_schedule:
            # Building the scripted plan is its validation: malformed or
            # overlapping entries and shard ids outside the deployment
            # (which would never fire, or index the wrong shard) fail here,
            # not deep inside trainer construction.  Client ids are checked
            # against the dataset count by ``build_fault_plan``.
            from ..chaos.plan import ScheduledFaults

            ScheduledFaults(self.chaos_schedule or (), self.failure_schedule or (),
                            num_servers=self.num_servers)
        if self.failures_enabled:
            from ..cluster.assigner import available_assigners
            from ..cluster.failover import available_failover_policies

            if self.failover_policy not in available_failover_policies():
                known = ", ".join(available_failover_policies())
                raise ValueError(
                    f"failover_policy must be one of {known}, "
                    f"got {self.failover_policy!r}"
                )
            if (
                self.failover_assigner is not None
                and self.failover_assigner not in available_assigners()
            ):
                known = ", ".join(available_assigners())
                raise ValueError(
                    f"failover_assigner must be one of {known} (or None), "
                    f"got {self.failover_assigner!r}"
                )

    @property
    def failures_enabled(self) -> bool:
        """True when either failure-injection mechanism is configured."""
        return bool(self.failure_schedule) or self.failure_mtbf_s is not None

    @property
    def chaos_enabled(self) -> bool:
        """True when any chaos-plane fault injection is configured."""
        return (
            bool(self.chaos_schedule)
            or self.chaos_flap_mtbf_s is not None
            or self.chaos_leave_mtbf_s is not None
            or self.message_chaos_enabled
        )

    @property
    def message_chaos_enabled(self) -> bool:
        """True when per-message corruption/duplication/reordering is on."""
        return (
            self.chaos_corrupt_probability > 0
            or self.chaos_duplicate_probability > 0
            or self.chaos_reorder_probability > 0
        )

    @property
    def client_optimizer_kwargs(self) -> Dict[str, float]:
        """Keyword arguments used to build every end-system optimizer."""
        return {"lr": self.client_lr}

    @property
    def server_optimizer_kwargs(self) -> Dict[str, float]:
        """Keyword arguments used to build the server optimizer."""
        return {"lr": self.server_lr}

    def to_dict(self) -> Dict[str, Any]:
        """Versioned flat dictionary form.

        This is the serialization half of the public JobSpec schema
        (:mod:`repro.api`): the payload carries ``schema_version`` so a
        reader can reject configs written under an incompatible schema,
        and :meth:`from_dict` round-trips it (through JSON) back into a
        validated config.  Also used for logging, experiment records and
        run checkpoints.
        """
        payload: Dict[str, Any] = {"schema_version": CONFIG_SCHEMA_VERSION}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrainingConfig":
        """Rebuild a config from :meth:`to_dict` output (or its JSON form).

        Validation is strict where it protects the reader and lenient
        where it preserves forward motion:

        * ``schema_version`` newer than this build (or < 1) is rejected —
          the payload may carry semantics this reader would silently
          misapply; a missing version is treated as version 1.
        * Unknown keys are rejected with the offending names — a typo'd
          knob must not silently train with defaults.
        * Missing keys fall back to field defaults, so configs written
          before a knob existed keep loading.

        Every value then flows through ``__init__``, reusing the full
        validator suite in ``__post_init__``.
        """
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"TrainingConfig payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        data = dict(payload)
        version = int(data.pop("schema_version", 1))
        if not 1 <= version <= CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported TrainingConfig schema_version {version} "
                f"(this build reads versions 1..{CONFIG_SCHEMA_VERSION})"
            )
        known = {field_info.name for field_info in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown TrainingConfig keys: {', '.join(unknown)} "
                "(schema is strict; remove or rename them)"
            )
        return cls(**data)

    @classmethod
    def fast_debug(cls, **overrides) -> "TrainingConfig":
        """A tiny configuration suitable for unit tests (1 epoch, small batches)."""
        defaults = dict(epochs=1, batch_size=8)
        defaults.update(overrides)
        return cls(**defaults)
