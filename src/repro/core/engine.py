"""Event-driven training engine: one message kernel, two mode drivers.

The paper's framework is a single loop — end-system forward → smashed
activations queue at the shared server → server step → gradient back —
run *spatially* over many clients and *temporally* across the cut.  This
module spells that loop out once, as a **message kernel** on
:class:`TrainingEngine`, and runs it under one of two small **drivers**
that differ only in *when* a shard steps.  Every occurrence is an event
on a :class:`~repro.simnet.events.Simulator`.

The kernel, in loop order:

* ``_next_batch`` → ``_uplink`` — the client segment runs once and the
  smashed activations are shipped; the outcome is always ``(message,
  arrivals, lost_at)``: every wire copy's arrival time, or none and the
  time at which the client learns of the loss.
* ``_schedule_arrivals`` → ``_admit`` — each copy is an **uplink
  arrival** event: the shard enqueues it, sheds it (full queue → NACK;
  dead or restarted hub → immediate notification) or absorbs a duplicate.
* ``_drain`` — a **server step**, the only ``server_batching`` branch.
* ``_reply`` → ``_downlink`` — each gradient ships back, ``(arrivals,
  lost_at)`` again, and the driver is told ``delivered`` or ``lost``.
* ``_abandon`` — the client learns a transfer is lost: the one place a
  lost transfer joins the drop ledger.
* ``_deliver`` / ``_forget`` — the only two ways a batch ends: its
  gradient is applied, or the client stops waiting for it.
* ``_schedule_for`` — a shard's chain events sit behind a **generation
  guard**: a crash or recovery bumps the generation and everything
  scheduled under the old one dies when it fires.

Inter-server weight transfers, the fault timeline, checkpoints and the
observability hooks are kernel code too (sections below) — direct calls
at the one place each thing happens, no subscriber layer.

``_ship`` alone knows whether delivery is reliable, and unreliable is
**not** "reliable with zero retries": a lost unreliable transfer is one
attempt in the transport's drop ledger that the client learns of at
once (no event, no RNG draw); a lost reliable one is ``retry_max + 1``
attempts absorbed into the retry counters, a jitter draw each, and a
give-up deadline in the future (``EngineStats.gave_up`` is its ledger
term; asynchronously it is an event a budget stop pre-empts) — and a
merely *late* copy leaves several arrivals in flight.  Event counts, RNG
streams and ledger terms all differ, hence ``lost_at`` in the outcome.

An end-system that ships a batch owns it until the gradient comes back
or it learns the batch is lost, and the engine keeps that ownership in
**one ledger**, ``TrainingEngine.outstanding``: ``(system id, batch id)
→ state``.  ``_uplink`` creates the entry once the activations are shipped
(``uplink``); ``_admit`` moves it to ``queued``, or — a full queue — to
``awaiting_nack`` while the NACK travels; ``_reply`` moves it to
``downlink`` once the gradient ships; a lost transfer waits in
``awaiting_giveup`` until the driver abandons it.  Every one of those
writes goes through ``_enter``, and the trace is the ledger's history:
with tracing on, ``_enter`` emits the event the ``_TRANSITION_EVENTS``
table gives the state it writes (``uplink``/``downlink``/``nack`` spans, a
``queue-admit`` instant), and ``_forget`` the table's event for a traced
exit (``nack-lost``, ``failover-drop``).  Only two kernel
helpers remove an entry, and they are the only engine code that touches
a client's pending activation: ``_deliver`` (``apply_gradient``) and
``_forget`` (``notify_drop``, or an uncounted ``discard_pending`` when a
budget stop cancels the batch).  "A sibling copy already settled this
batch" is "its key is gone"; a budget stop is one loop over the ledger,
so nothing in flight — a gradient landing from another shard included —
can outlive it; and the leak check (:mod:`repro.obs.invariants`) reads
the ledger, so it means something even for clients that store no
activation (``client_blocks=0``).  ``EndSystem._pending`` remains the
tensor store; its keys are a subset of the ledger's.

A **driver** owns one run's simulator, tracker and mode state, and
implements :class:`_Driver` — ``live``, ``accepts_faults``,
``on_shard_down``, ``on_shard_up``, ``on_client_moved`` — through which
the fault machinery restarts chains and re-issues sends without knowing
the mode; between runs the engine holds the idle base driver.
:class:`_RoundChain` (synchronous, see
:meth:`TrainingEngine.run_synchronous_epoch`) chains *round start →
arrivals → barrier → drain → reply* per shard and holds the sync
rendezvous (``arrived``, ``finished``, the quorum timer);
:class:`_DispatchLoop` (asynchronous, see
:meth:`TrainingEngine.run_asynchronous`) steps a shard whenever it is
free and holds only ``stranded`` — sends deferred by an outage, which
are not batches.  Both answer ``live`` through one ``_reachable(runtime)``
— the shard is healthy, or its crash lane still holds its recovery, or
its failover has yet to fire — so clients with data left on a shard that
nothing can bring back never keep a run alive.  Per-shard state —
blocked senders, clients with data left, round clock, generation —
lives on :class:`_ShardRuntime`.

The engine is **shard-generalized**: a single-shard cluster runs the
exact event chains the pre-cluster engine ran (pinned to 1e-9 by
``tests/core/test_engine_equivalence.py`` and
``tests/cluster/test_cluster_equivalence.py``), and the kernel
reproduces the event order, RNG draws and counters of the four
spelled-out runners it replaced (``tests/core/test_engine_kernel.py``).

Lossy-network semantics
-----------------------
Every way a batch can be lost funnels through
:meth:`EndSystem.notify_drop`, so client-side pending activations never
leak:

* the uplink drops the message in transit (the client immediately moves
  on to its next batch);
* a bounded queue (``TrainingConfig.max_queue_size``) overflows under the
  ``"drop"`` backpressure policy.  The server NACKs the client **over the
  downlink**: the client learns of the loss one downlink delay after the
  overflow (not instantaneously), which is when it forgets the pending
  activation and ships its next batch.  A NACK lost in transit degrades
  to an immediate notification (the timeout abstraction also used for
  lost gradients), so accounting never leaks;
* the downlink drops the gradient (the client forgets the batch when the
  server's reply fails to appear).

Under the ``"block"`` backpressure policy nothing is ever shed at the
queue: an end-system defers its next send until its shard's queue has
room, counting messages already in flight towards the capacity, so
admission never overflows.  Blocked senders wait in per-shard FIFO order
and are released as the shard pops messages.

Fault timeline and failover
---------------------------
With a :class:`~repro.chaos.plan.FaultPlan` installed, every timed
fault — shard **crash/recovery**, client link flap or leave, hub↔hub
partition, straggler, scripted client move — is a simulator event from
one schedule → fire → re-schedule chain (one pending event per plan
lane, all at :data:`PRIORITY_FAILURE`) ending in one apply step.  A
crash sheds the shard's queued (and arena-staged) work through the same
``notify_drop`` path — counted in ``EngineStats.failover_dropped`` so
the cross-layer drop accounting still balances — takes the hub's links
down in the topology, and kills the shard's event chains via the
generation guard.  One ``failover_delay_s`` later the configured
:class:`~repro.cluster.failover.FailoverPolicy` reassigns the dead
shard's clients to the healthy survivors (their uplinks are rerouted in
the topology and they rejoin the survivors' round chains / dispatch
loops).  A recovery restores the freshest durable state available — the
newest intact checkpoint from the :class:`~repro.state.CheckpointStore`
when checkpointing is on, else the coordinator's last sync snapshot,
else the cluster's initial weights — accounts the lost work into the
shard's RPO counters, fails the original clients back (policy
permitting), and restarts the shard's chain; ``"average"`` rendezvous
and ``"staleness"`` gossip always skip unhealthy shards, so a dead hub
can neither hang a barrier nor absorb a merge.

Durable checkpoints
-------------------
With a :class:`~repro.state.CheckpointStore` installed and a
``checkpoint_every_s`` cadence configured, per-shard checkpoint captures
become simulator events as well: ``"interval"`` mode schedules a
dedicated periodic event per shard, ``"round"`` mode captures
opportunistically at round barriers / step dispatches once the cadence
has elapsed.  Captures are pure observers of the training state, and
with the feature off the engine schedules no checkpoint events at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable, Deque, Dict, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..chaos.message_chaos import DUPLICATE_ARRIVAL_KEY
from ..chaos.plan import FaultEvent, FaultPlan
from ..cluster.coordinator import ClusterCoordinator
from ..cluster.failover import FailoverPolicy
from ..cluster.shard import ServerShard
from ..nn.metrics import MetricTracker
from ..obs.plane import NULL_OBS, QUEUE_WAIT_BOUNDS_S, RETRY_BOUNDS, Observability
from ..obs.registry import samples_from_mapping
from ..simnet.events import Event, Simulator
from ..simnet.link import Message
from ..simnet.transport import Transport
from ..state import CheckpointStore, ShardCheckpoint
from ..utils.logging import get_logger
from .config import TrainingConfig
from .end_system import EndSystem
from .messages import ActivationMessage, GradientMessage

__all__ = [
    "TrainingEngine",
    "EngineStats",
    "PRIORITY_ARRIVAL",
    "PRIORITY_LANDING",
    "PRIORITY_CHECKPOINT",
    "PRIORITY_FAILURE",
    "PRIORITY_OBS",
    "PRIORITY_DISPATCH",
]

logger = get_logger("core.engine")

#: One training batch as the data loaders yield it, and the per-client
#: batch streams a run consumes.
_Batch = Tuple[np.ndarray, np.ndarray]
_Iterators = Dict[int, Iterator[_Batch]]
_Callback = Callable[[Simulator], None]
#: A transport leg: ``send(node, payload, now=..., reliable=...)`` is one
#: physical send attempt.
_Send = Callable[..., Optional[Message]]
_OnArrival = Callable[
    [Simulator, ActivationMessage, EndSystem, "_ShardRuntime", int], None]

#: Where a forwarded batch is, from the client's forward pass until it
#: applies the gradient or forgets the batch (``TrainingEngine.outstanding``):
#: on the uplink wire, in a shard queue, on the downlink wire (its gradient
#: shipped), shed by a full queue with the NACK still travelling, or lost
#: with the client yet to learn (a retry chain's give-up deadline).
_UPLINK, _QUEUED, _DOWNLINK, _AWAITING_NACK, _AWAITING_GIVEUP = (
    "uplink", "queued", "downlink", "awaiting_nack", "awaiting_giveup")
#: The two exits that leave a trace event: a NACK the downlink lost, and an
#: uplink copy shed by a dead or restarted hub.
_NACK_LOST, _FAILOVER_DROP = "nack-lost", "failover-drop"

#: The trace is the ledger's history.  With tracing on, ``_enter`` emits the
#: event of the state it writes, and ``_forget`` the event of a traced
#: exit: ``(event name, span?, sampled?)``.  A span runs from the
#: transition to the copy's arrival; an instant marks the transition.  A
#: sampled event appears only for the batches the tracer samples
#: (``_trace_key``), so a sampled batch is traced end to end; the others
#: mark losses and appear for every batch.  ``awaiting_giveup`` has no
#: event (a retry shows up only as the uplink span's ``attempts`` arg).
_TRANSITION_EVENTS: Dict[str, Tuple[str, bool, bool]] = {
    _UPLINK: ("uplink", True, True),
    _QUEUED: ("queue-admit", False, True),
    _AWAITING_NACK: ("nack", True, False),
    _DOWNLINK: ("downlink", True, True),
    _NACK_LOST: ("nack-lost", False, False),
    _FAILOVER_DROP: ("failover-drop", False, False),
}

#: Event priorities: at equal simulated times, arrivals are admitted and
#: gradients land *before* the server dispatches, so a step always sees
#: every message that has arrived by its start time.  Failure transitions
#: sit between landings and dispatches: a crash at time ``t`` still lets
#: ``t``-stamped gradients land, but kills the step that would have
#: started at ``t``.  Checkpoints sit between landings and failures: a
#: capture at ``t`` sees every ``t``-stamped landing, and a crash at the
#: same instant finds the checkpoint already durable.  Observability
#: flushes sit between failures and dispatches: a metrics snapshot at
#: ``t`` reflects post-crash state and the queue depth the next dispatch
#: will actually see.
PRIORITY_ARRIVAL = 0
PRIORITY_LANDING = 1
PRIORITY_CHECKPOINT = 2
PRIORITY_FAILURE = 3
PRIORITY_OBS = 4
PRIORITY_DISPATCH = 5


@dataclass
class EngineStats:
    """Counters the engine accumulates across runs (epochs)."""

    queue_drops: int = 0        #: messages shed by a full queue ("drop" policy)
    blocked_sends: int = 0      #: sends deferred by backpressure ("block" policy)
    cancelled_at_stop: int = 0  #: batches abandoned when a time budget cut the run
    events_processed: int = 0   #: simulator events executed
    server_steps: int = 0       #: training steps dispatched (across all shards)
    rounds: int = 0             #: synchronous rounds driven to completion
    nacks_sent: int = 0         #: queue-drop NACKs shipped over the downlink
    nacks_lost: int = 0         #: NACKs the downlink dropped (immediate fallback)
    nack_delay_total_s: float = 0.0  #: summed client-side notification delays
    weight_syncs: int = 0       #: sync events: one per "average" barrier or
                                #: per "staleness" broadcast (NOT per-destination
                                #: merge — per-shard merge counts live in
                                #: ``ServerShard.syncs_applied``)
    sync_messages: int = 0      #: weight snapshots shipped between shards
    sync_messages_lost: int = 0  #: snapshots the inter-server links dropped
    shard_crashes: int = 0      #: shard crash events applied (failure injection)
    shard_recoveries: int = 0   #: shard recovery events applied
    clients_reassigned: int = 0  #: client moves: failover to survivors + failback
    failover_dropped: int = 0   #: messages shed because their shard crashed
                                #: (queued/arena contents at crash time plus
                                #: uplinks that arrived at a dead hub) — every
                                #: one notifies its client via ``notify_drop``
    checkpoints_written: int = 0  #: per-shard checkpoints captured to the store
    retries: int = 0            #: reliable-delivery retransmissions shipped
    gave_up: int = 0            #: transfers abandoned after every retry was
                                #: physically lost (each notifies its client)
    deduped: int = 0            #: duplicate copies absorbed by the idempotent
                                #: receiver (retransmissions + chaos duplicates)
    quorum_syncs: int = 0       #: degraded "average" barriers fired on a
                                #: quorum after the sync timeout expired
    sync_timeouts: int = 0      #: sync timeouts that released the parked
                                #: shards without any sync (quorum not met)
    chaos_events: int = 0       #: chaos-plane fault events applied

    @property
    def mean_nack_delay_s(self) -> float:
        """Mean delay before a client learned of a queue drop (0 if none)."""
        if self.nacks_sent == 0:
            return 0.0
        return self.nack_delay_total_s / self.nacks_sent

    def as_dict(self) -> Dict[str, float]:
        """Every counter in declaration order, the NACK delay as its mean."""
        stats: Dict[str, float] = {}
        for field in fields(self):
            if field.name == "nack_delay_total_s":
                stats["mean_nack_delay_s"] = self.mean_nack_delay_s
            else:
                stats[field.name] = getattr(self, field.name)
        return stats


class _ShardRuntime:
    """Per-shard engine state (transit counts, backpressure, dispatch)."""

    __slots__ = ("shard", "in_transit", "blocked", "accepted",
                 "next_free", "dispatch_scheduled", "clock", "active",
                 "generation", "round_index", "chain_idle", "last_checkpoint_s",
                 "service_factor", "failovers_due")

    def __init__(self, shard: ServerShard) -> None:
        self.shard = shard
        #: Uplink messages admitted (or in transit) but not yet resolved
        #: at this shard; counted towards queue capacity so the "block"
        #: policy can never overflow the queue on arrival.
        self.in_transit = 0
        #: Senders deferred by the "block" backpressure policy, in FIFO
        #: order; they go first once the shard has popped messages.
        self.blocked: Deque[EndSystem] = deque()
        self.accepted: List[ActivationMessage] = []  # sync mode, current round
        self.next_free = 0.0
        self.dispatch_scheduled = False
        #: This shard's round clock (synchronous mode): shards progress
        #: through their rounds independently, so a shard of nearby
        #: clients is not throttled by a far-away band it does not own.
        self.clock = 0.0
        #: System ids (of this shard's clients) still holding data this
        #: run.
        self.active: set = set()
        #: Bumped on every crash *and* recovery: scheduled round/dispatch
        #: events capture the generation they were created under and
        #: no-op when it has moved on, so a dead shard's event chain dies
        #: cleanly and cannot double-fire after a recovery restart.
        self.generation = 0
        #: Last round index this shard started (synchronous mode); a
        #: restarted chain resumes at ``round_index + 1``.
        self.round_index = -1
        #: True while the shard has no live round chain (crashed, out of
        #: data, or down at epoch start) — the restart logic's idempotence
        #: latch.
        self.chain_idle = False
        #: Simulated time of this shard's last checkpoint capture
        #: (``checkpoint_mode="round"`` cadence; spans epochs like the
        #: round clock does).
        self.last_checkpoint_s = 0.0
        #: Chaos-plane straggler multiplier on the shard's service time
        #: (``1.0`` = nominal speed; ``x * 1.0`` is exact in IEEE-754, so
        #: an un-straggled shard's timing is bit-identical to a build
        #: without the chaos plane).
        self.service_factor = 1.0
        #: Failover events scheduled by a crash of this shard that have
        #: not fired yet: until they do, its clients may still be moved.
        self.failovers_due = 0


class _Driver:
    """What the fault, checkpoint and flush machinery asks of a mode.

    This base class is the **idle** driver every engine holds between
    runs (it references no engine, so an idle engine stays acyclic and is
    freed by reference count); a mode derives from :class:`_ModeDriver`.
    """

    def live(self) -> bool:
        """Whether real work can still happen; periodic chains stop if not."""
        return False

    def accepts_faults(self) -> bool:
        """Whether a fault firing now belongs to this run (else it stays pending)."""
        return self.live()

    def on_shard_down(self, runtime: _ShardRuntime,
                      flushed: List[ActivationMessage],
                      parked: List[EndSystem]) -> None:
        """``runtime`` crashed: ``flushed`` was shed, ``parked`` were blocked."""

    def on_shard_up(self, runtime: _ShardRuntime) -> None:
        """``runtime`` recovered (state restored, clients failed back)."""

    def on_client_moved(self, end_system: EndSystem, runtime: _ShardRuntime,
                        was_parked: bool) -> None:
        """``end_system`` now belongs to ``runtime`` (failover or churn)."""


_IDLE = _Driver()


class _ModeDriver(_Driver):
    """One run of one mode: its simulator, tracker, batch streams and state."""

    def __init__(self, engine: TrainingEngine, iterators: _Iterators) -> None:
        self.engine = engine
        self.sim = Simulator()
        self.tracker = MetricTracker()
        self.iterators = iterators

    def prime(self) -> None:
        """Reset the shards' mode state and schedule the run's first events."""
        raise NotImplementedError

    def _reachable(self, runtime: _ShardRuntime) -> bool:
        """Whether ``runtime``'s clients can still be served this run.

        A shard that is down, with nothing left on its crash lane and its
        failover already fired, never comes back: clients still assigned
        to it keep their data, and must not keep the periodic chains (and
        so the run) alive for ever.
        """
        plan = self.engine.fault_plan
        return (runtime.shard.healthy or runtime.failovers_due > 0
                or (plan is not None
                    and plan.peek(runtime.shard.shard_id) is not None))


class TrainingEngine:
    """Discrete-event orchestrator shared by both training modes.

    Parameters
    ----------
    end_systems:
        The deployment's clients, in system-id order.
    transport:
        Network transport over the (possibly multi-hub) topology.
    system_to_node:
        Map from end-system ids to topology node names.
    config:
        Training configuration; the engine consults ``mode``-independent
        fields (``server_batching``, ``server_step_time_s``,
        ``max_in_flight``, ``max_queue_size``, ``queue_backpressure``).
        The weight-sync cadence and mode live on the ``cluster``.
    cluster:
        The shard cluster (owns the sync cadence/mode the trainer seeds
        from the config).
    fault_plan:
        Optional :class:`~repro.chaos.plan.FaultPlan` whose timed faults
        (shard crash/recovery, link flaps, partitions, stragglers, client
        churn and moves) are injected as simulator events.  ``None`` (the
        default) disables fault injection entirely — the engine then runs
        the exact event chains it ran before faults existed.
    failover:
        The :class:`~repro.cluster.failover.FailoverPolicy` applied when
        a shard crashes (reassign its clients to survivors, or park them
        until recovery); ``None`` leaves a dead shard's clients in place.
    checkpoint_store:
        Optional :class:`~repro.state.CheckpointStore` the engine writes
        per-shard checkpoints to on the ``config.checkpoint_every_s``
        cadence, and reads from at crash recovery (the newest intact
        checkpoint is preferred over the last sync snapshot).  ``None``
        — or a ``None`` cadence — disables checkpointing entirely: no
        events are scheduled and no state is touched, so the run is
        byte-for-byte identical to a checkpoint-free build.
    """

    def __init__(
        self,
        end_systems: List[EndSystem],
        transport: Transport,
        system_to_node: Dict[int, str],
        config: TrainingConfig,
        cluster: ClusterCoordinator,
        fault_plan: Optional[FaultPlan] = None,
        failover: Optional[FailoverPolicy] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.end_systems = list(end_systems)
        self.cluster = cluster
        self.transport = transport
        self.system_to_node = dict(system_to_node)
        self.config = config
        self.clock = 0.0
        self.stats = EngineStats()
        self._by_id = {end_system.system_id: end_system for end_system in self.end_systems}
        self._runtimes: List[_ShardRuntime] = [
            _ShardRuntime(shard) for shard in cluster.shards
        ]
        self._runtime_of: Dict[int, _ShardRuntime] = {
            system_id: self._runtimes[shard_index]
            for system_id, shard_index in cluster.assignment.items()
        }
        #: The outstanding-work ledger: every batch a client has forwarded
        #: and neither applied a gradient for nor forgotten, ``(system id,
        #: batch id) -> state``.  ``_enter`` is its only writer, and only
        #: ``_deliver`` and ``_forget`` remove an entry.
        self._outstanding: Dict[Tuple[int, int], str] = {}
        self.fault_plan = fault_plan
        self.failover = failover
        self.checkpoint_store = checkpoint_store
        #: Observability plane (repro.obs).  The default NULL_OBS bundle
        #: answers every hook with a no-op, so an obs-off run executes
        #: the identical simulation codepath (pinned byte-identical by
        #: tests/obs/test_obs_equivalence.py).  Instruments are resolved
        #: once here; the hot paths only ``observe``/``inc`` on them.
        self.obs = obs if obs is not None else NULL_OBS
        stats = self.stats  # not self: the registry must not hold the engine
        self.obs.registry.register_collector(
            lambda: samples_from_mapping("engine", stats.as_dict()))
        self._obs_queue_wait = self.obs.registry.histogram(
            "engine.queue_wait_seconds", QUEUE_WAIT_BOUNDS_S)
        self._obs_retries = self.obs.registry.histogram(
            "engine.retries_per_transfer", RETRY_BOUNDS)
        reliable = config.reliable_delivery
        #: Retry-timeout jitter stream (reliable delivery only): seeded
        #: from the run seed so identical configs retry identically;
        #: ``None`` with the feature off so no RNG state even exists.
        self._retry_rng: Optional[np.random.Generator] = (
            np.random.default_rng(config.seed + 15485863) if reliable else None
        )
        #: Whether arriving uplink copies must be deduplicated: reliable
        #: delivery retransmits, and chaos duplication clones — either
        #: one can land several copies of a single logical message.
        self._dedup_enabled = reliable or config.chaos_duplicate_probability > 0.0
        #: The running mode's driver — the crash/recovery machinery
        #: restarts round chains, re-triggers sends and unblocks
        #: rendezvous through it without knowing the mode.
        self._driver: _Driver = _IDLE

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> Mapping[Tuple[int, int], str]:
        """Read-only view of the ledger: ``(system id, batch id) -> state``.

        Empty after every run — a budget stop included — or a batch leaked.
        """
        return MappingProxyType(self._outstanding)

    def _enter(self, key: Tuple[int, int], state: str, at: float,
               until: float = 0.0, runtime: Optional[_ShardRuntime] = None,
               size: int = 0, attempts: int = 1) -> None:
        """Batch ``key`` enters ``state`` at ``at``: the ledger's one writer.

        With tracing on, the state's event (``_TRANSITION_EVENTS``) is
        emitted too; see :meth:`_trace` for ``until``, ``runtime``,
        ``size`` and ``attempts``.
        """
        self._outstanding[key] = state
        if self.obs.tracer.enabled:
            self._trace(key, state, at, until, runtime, size, attempts)

    def _deliver(self, end_system: EndSystem,
                 gradient_message: GradientMessage) -> None:
        """The gradient reached its client: the batch is done."""
        del self._outstanding[end_system.system_id, gradient_message.batch_id]
        end_system.apply_gradient(gradient_message)

    def _forget(self, end_system: EndSystem, batch_id: int,
                notify: bool = True, exit_event: Optional[str] = None,
                at: float = 0.0,
                runtime: Optional[_ShardRuntime] = None) -> None:
        """The client stops waiting for ``batch_id``.

        It is told of the loss (``notify_drop``, a term of the drop
        ledger) — or, when a budget stop merely cancels the batch,
        discards the activation uncounted.  A traced exit (``nack-lost``,
        ``failover-drop``) is emitted at ``at`` the way :meth:`_enter`
        emits a state's event.
        """
        key = (end_system.system_id, batch_id)
        del self._outstanding[key]
        if exit_event is not None and self.obs.tracer.enabled:
            self._trace(key, exit_event, at, runtime=runtime)
        if notify:
            end_system.notify_drop(batch_id)
        else:
            end_system.discard_pending(batch_id)

    def _trace(self, key: Tuple[int, int], event: str, at: float,
               until: float = 0.0, runtime: Optional[_ShardRuntime] = None,
               size: int = 0, attempts: int = 1) -> None:
        """Emit ``event``'s row of ``_TRANSITION_EVENTS`` for batch ``key``.

        A span ends at ``until``.  The event sits on ``runtime``'s shard,
        the client's current one by default.  Its args are the batch, a
        wire leg's ``size`` (``bytes``) when given, ``attempts`` when the
        transfer was retried, and the queue's depth for ``queue-admit``.
        """
        row = _TRANSITION_EVENTS.get(event)
        if row is None:
            return
        name, span, sampled = row
        system_id, batch_id = key
        tracer = self.obs.tracer
        if sampled and not tracer.sampled(self._trace_key(system_id, batch_id)):
            return
        if runtime is None:
            runtime = self._runtime_of[system_id]
        pid = runtime.shard.shard_id
        args: Dict[str, object] = {"batch": batch_id}
        if size:
            args["bytes"] = size
        if attempts > 1:
            args["attempts"] = attempts
        if event == _QUEUED:
            args["depth"] = len(runtime.shard.queue)
        if span:
            tracer.span(name, "message", at, until, pid=pid, tid=system_id,
                        args=args)
        else:
            tracer.instant(name, "message", at, pid=pid, tid=system_id,
                           args=args)

    @staticmethod
    def _trace_key(system_id: int, batch_id: int) -> int:
        """Run-local sampling key for a message's lifecycle.

        ``message.sequence`` is a *process-wide* counter, so keying the
        sampler on it would make same-seed runs in one process trace
        different subsets.  Mixing the client id into its batch id is
        run-local, collision-free across clients and shared by every
        leg of the batch's journey (uplink, admit, wait, downlink), so
        a sampled batch is traced end to end.
        """
        return system_id * 1_000_003 + batch_id

    def _queue_has_room(self, runtime: _ShardRuntime) -> bool:
        capacity = self.config.max_queue_size
        if capacity is None:
            return True
        return len(runtime.shard.queue) + runtime.in_transit < capacity

    def _next_batch(self, end_system: EndSystem, runtime: _ShardRuntime,
                    iterators: _Iterators) -> Optional[_Batch]:
        """The client's next batch, unless it must wait or has none left.

        Under the ``"block"`` policy the send is deferred (the client
        joins ``runtime.blocked``) until the shard's queue has room; a
        client whose data ran out leaves ``runtime.active``.
        """
        if (self.config.queue_backpressure == "block"
                and not self._queue_has_room(runtime)):
            runtime.blocked.append(end_system)
            self.stats.blocked_sends += 1
            return None
        try:
            return next(iterators[end_system.system_id])
        except StopIteration:
            runtime.active.discard(end_system.system_id)
            return None

    # ------------------------------------------------------------------ #
    # Message kernel: uplink -> arrival -> drain -> reply
    # ------------------------------------------------------------------ #
    def _ship(self, send: _Send, node: str, payload: object, size: int,
              at_time: float) -> Tuple[List[Message], Optional[float], int]:
        """Carry one transfer over the wire, retrying when delivery is reliable.

        ``send`` is the leg's transport method: one call is one physical
        send attempt and returns the wire message (or ``None`` when the
        network lost it); ``size`` is the message's wire size, charged to
        every attempt.  Without reliable delivery that single attempt
        is the whole transfer.  With it the full retry chain is resolved
        eagerly: attempt ``k`` is acknowledged when its copy arrives
        within ``min(cap, timeout * backoff**k)`` (plus seeded jitter) of
        being sent; a missing ack triggers a retransmission at the
        deadline — even when the earlier copy is merely *late* (a
        spurious timeout: both copies stay in flight and the receiver
        deduplicates).  The chain ends at the first in-deadline arrival
        or after ``retry_max`` retransmissions.

        Returns ``(deliveries, lost_at, attempts)``: the wire messages
        that physically made it, sorted by arrival (possibly several);
        only when there are none, the time at which the sender learns the
        transfer is lost (``at_time`` itself for an unreliable send, the
        chain's final deadline for a reliable one); and the number of send
        attempts.  A reliable transfer counts as lost only when every
        attempt was physically lost — a copy that arrives after its
        deadline still completes it.
        """
        config = self.config
        if not config.reliable_delivery:
            wire = send(node, payload, now=at_time, size=size)
            return ([], at_time, 1) if wire is None else ([wire], None, 1)
        attempt_time = at_time
        deliveries = []
        give_up_time = at_time
        for attempt in range(config.retry_max + 1):
            wire = send(node, payload, now=attempt_time, reliable=True, size=size)
            if attempt > 0:
                self.stats.retries += 1
            timeout = min(
                config.retry_timeout_cap_s,
                config.retry_timeout_s * config.retry_backoff ** attempt,
            )
            if config.retry_jitter > 0.0:
                timeout *= 1.0 + float(
                    self._retry_rng.uniform(0.0, config.retry_jitter)
                )
            deadline = attempt_time + timeout
            if wire is not None:
                deliveries.append(wire)
                if wire.arrival_time <= deadline:
                    break  # acked in time: the chain ends here
                # Spurious timeout: the copy is still in flight but the
                # ack deadline passed — retransmit anyway.
            give_up_time = deadline
            attempt_time = deadline
        deliveries.sort(key=lambda wire: wire.arrival_time)
        if self.obs.enabled:
            self._obs_retries.observe(attempt)
        # ``attempt`` leaks the last loop index: attempts = index + 1.
        return deliveries, (None if deliveries else give_up_time), attempt + 1

    def _uplink(
        self, end_system: EndSystem, batch: _Batch, at_time: float,
        round_index: int = 0,
    ) -> Tuple[ActivationMessage, List[float], Optional[float]]:
        """Forward one batch and ship its smashed activations to the shard.

        The client segment runs exactly once — a retransmission reships
        the *same* activations (a retry is a network event, not a
        recompute).  Returns ``(message, arrivals, lost_at)``.  When the
        transfer got through, ``arrivals`` holds every wire copy's
        arrival time, sorted (retransmissions and chaos duplication can
        land several; the receiver deduplicates), the message is stamped
        with the earliest and ``lost_at`` is ``None``.  When it was lost,
        ``arrivals`` is empty and ``lost_at`` is when the client learns
        (see :meth:`_ship`); the batch stays pending at the client until
        the driver calls :meth:`_abandon`, at ``lost_at`` at the latest.
        """
        images, labels = batch
        message = end_system.forward_batch(
            images, labels, round_index=round_index, created_at=at_time
        )
        key = (end_system.system_id, message.batch_id)
        deliveries, lost_at, attempts = self._ship(
            self.transport.send_to_server,
            self.system_to_node[end_system.system_id],
            message.payload, message.size_bytes, at_time,
        )
        if lost_at is not None:
            self._enter(key, _AWAITING_GIVEUP, at_time)
            return message, [], lost_at
        arrivals = [wire.arrival_time for wire in deliveries]
        if self._dedup_enabled:
            # Chaos duplication clones a wire message: both copies land
            # (the clone never before its original).
            arrivals.extend(
                float(wire.metadata[DUPLICATE_ARRIVAL_KEY]) for wire in deliveries
                if DUPLICATE_ARRIVAL_KEY in wire.metadata
            )
            arrivals.sort()
        message.arrival_time = arrivals[0]
        self._enter(key, _UPLINK, at_time, arrivals[0], size=message.size_bytes,
                    attempts=attempts)
        return message, arrivals, None

    def _downlink(
        self, end_system: EndSystem, gradient_message: GradientMessage,
        at_time: float,
    ) -> Tuple[List[float], Optional[float]]:
        """Ship a gradient back to its client: ``(arrivals, lost_at)``.

        Same outcome shape as :meth:`_uplink`.  The earliest copy is the
        one that completes back-propagation; later ones are spurious-
        timeout duplicates.
        """
        deliveries, lost_at, _ = self._ship(
            self.transport.send_to_end_system,
            self.system_to_node[end_system.system_id],
            gradient_message.gradient, gradient_message.size_bytes, at_time,
        )
        return [wire.arrival_time for wire in deliveries], lost_at

    def _schedule_arrivals(
        self, sim: Simulator, message: ActivationMessage, arrivals: List[float],
        end_system: EndSystem, runtime: _ShardRuntime, on_arrival: _OnArrival,
    ) -> None:
        """Schedule one arrival event per wire copy of a delivered uplink.

        Every copy counts towards the shard's capacity while in transit
        (:meth:`_admit` releases it), and carries the generation it was
        sent under: connections do not survive a crash, so a copy landing
        at a restarted hub is shed.
        """
        runtime.in_transit += len(arrivals)
        generation = runtime.generation
        for arrival in arrivals:
            sim.schedule(
                arrival,
                lambda s: on_arrival(s, message, end_system, runtime, generation),
                priority=PRIORITY_ARRIVAL,
                label="uplink-arrival",
            )

    def _send_nack(self, sim: Simulator, message: ActivationMessage,
                   end_system: EndSystem, on_notified=None) -> None:
        """NACK a queue-dropped batch to its client over the downlink.

        The client forgets the pending activation when the NACK *lands*,
        one downlink delay after the overflow; ``on_notified`` (async
        mode's retry hook) fires at the same moment.  A NACK lost on the
        downlink degrades to an immediate notification — the same
        timeout abstraction lost gradients use — so nothing ever leaks.
        """
        def land_nack(landing_sim: Simulator,
                      exit_event: Optional[str] = None) -> None:
            self._forget(end_system, message.batch_id, exit_event=exit_event,
                         at=landing_sim.now)
            if on_notified is not None:
                on_notified(landing_sim)

        self.stats.nacks_sent += 1
        sent_at = sim.now
        nack = self.transport.send_to_end_system(
            self.system_to_node[end_system.system_id],
            {"nack_batch_id": message.batch_id},
            now=sent_at,
            kind="nack",
        )
        if nack is None:
            self.stats.nacks_lost += 1
            # The timeout abstraction: the NACK "lands" at once.
            land_nack(sim, _NACK_LOST)
            return
        self._enter((end_system.system_id, message.batch_id), _AWAITING_NACK,
                    sent_at, nack.arrival_time)
        self.stats.nack_delay_total_s += nack.arrival_time - sent_at
        sim.schedule(nack.arrival_time, land_nack, priority=PRIORITY_LANDING,
                     label="queue-nack")

    def _admit(self, sim: Simulator, message: ActivationMessage,
               end_system: EndSystem, runtime: _ShardRuntime,
               sent_generation: int, on_notified=None) -> bool:
        """Resolve an arrival: enqueue it, or shed it and NACK the client."""
        runtime.in_transit -= 1
        key = (end_system.system_id, message.batch_id)
        if self._dedup_enabled and runtime.shard.has_seen(message.sequence):
            # Duplicate copy (retransmission or chaos clone) of a
            # sequence the shard already ruled on: absorb it silently.
            # The charge/credit pair is net zero in the drop ledger and
            # the original copy owns the batch's fate — no NACK, no
            # client notification, whatever that fate was.
            runtime.shard.queue.charge_drop()
            self.stats.deduped += 1
            self.obs.tracer.instant(
                "dedup", "message", sim.now, pid=runtime.shard.shard_id,
                tid=end_system.system_id, args={"batch": message.batch_id})
            return False
        if not runtime.shard.healthy or runtime.generation != sent_generation:
            # The hub died while the message was in flight — or crashed
            # *and recovered* before it landed, which severs the message's
            # round/dispatch chain just the same (connections do not
            # survive a crash).  Shed it through the same leak-free
            # notification path a queue drop uses; there is no server
            # context left to NACK from, so the client learns immediately
            # (the timeout abstraction again).
            if key not in self._outstanding:
                # A sibling copy of this transfer already resolved the
                # batch's fate at this dead/severed shard: later copies
                # must neither notify again nor mint another send token.
                return False
            self.stats.failover_dropped += 1
            self._forget(end_system, message.batch_id, exit_event=_FAILOVER_DROP,
                         at=sim.now, runtime=runtime)
            if on_notified is not None:
                on_notified(sim)
            return False
        if self._dedup_enabled:
            admitted = runtime.shard.admit(message)
        else:
            admitted = runtime.shard.receive(message)
        if admitted:
            self._enter(key, _QUEUED, sim.now, runtime=runtime)
            return True
        self.stats.queue_drops += 1
        self.obs.tracer.instant(
            "queue-drop", "message", sim.now, pid=runtime.shard.shard_id,
            tid=end_system.system_id, args={"batch": message.batch_id})
        self._send_nack(sim, message, end_system, on_notified=on_notified)
        return False

    def _drain(
        self, runtime: _ShardRuntime, now: float, whole_queue: bool,
    ) -> Tuple[List[Tuple[ActivationMessage, GradientMessage]], List[float]]:
        """One server step at ``now``: ``(results, ready_times)``.

        With ``server_batching`` every queued message is folded into one
        concatenated step whose results are all ready at ``now``.
        Otherwise the shard takes one step per message in policy order —
        through the ``whole_queue`` (a round barrier) or a single one (a
        dispatch) — and each result counts as ready when its message
        arrived.  Either way it is one dispatched ``server_step``.
        """
        shard = runtime.shard
        if self.config.server_batching:
            results = shard.process_pending_batch(now=now)
            ready_times = [now] * len(results)
        else:
            results = []
            while shard.has_pending():
                results.append(shard.process_next(now=now))
                if not whole_queue:
                    break
            ready_times = [message.arrival_time for message, _ in results]
        self.stats.server_steps += 1
        if self.obs.enabled:
            self._obs_drain(runtime, results, now)
        return results, ready_times

    def _reply(
        self, tracker: MetricTracker,
        results: List[Tuple[ActivationMessage, GradientMessage]],
        send_times: List[float],
    ) -> List[Tuple[EndSystem, GradientMessage, List[float], Optional[float]]]:
        """Account a step's results and ship each gradient back at its time.

        Returns ``(end_system, gradient_message, arrivals, lost_at)`` per
        result, the downlink's outcome: the driver decides when a
        delivered gradient completes back-propagation (:meth:`_deliver`),
        and must pass a lost one on to :meth:`_abandon` no later than
        ``lost_at``.  Every gradient ships before the driver sees any
        outcome; what the drivers do with one (apply a gradient, forget a
        batch, schedule an event) draws on no stream a later send draws on.
        """
        replies = []
        for (activation_message, gradient_message), send_time in zip(results, send_times):
            tracker.update(
                {"loss": gradient_message.loss, "accuracy": gradient_message.accuracy},
                count=activation_message.batch_size,
            )
            end_system = self._by_id[activation_message.end_system_id]
            arrivals, lost_at = self._downlink(end_system, gradient_message, send_time)
            key = (end_system.system_id, gradient_message.batch_id)
            if arrivals:
                self._enter(key, _DOWNLINK, send_time, arrivals[0])
            else:
                self._enter(key, _AWAITING_GIVEUP, send_time)
            replies.append((end_system, gradient_message, arrivals, lost_at))
        return replies

    def _abandon(self, end_system: EndSystem, batch_id: int) -> None:
        """The client learns that a transfer of its batch was lost.

        The one place a lost transfer joins the drop ledger.  An
        unreliable loss is already in the transport's drop count, so the
        notification alone balances it; a reliable transfer's losses were
        absorbed into the retry counters, so ``gave_up`` is its term.
        """
        if self.config.reliable_delivery:
            self.stats.gave_up += 1
        self._forget(end_system, batch_id)

    @staticmethod
    def _guarded(runtime: _ShardRuntime, fn: Callable[..., None],
                 *args: object) -> _Callback:
        """``fn(runtime, *args)``, unless the shard crashes or recovers first."""
        generation = runtime.generation

        def fire(sim: Simulator) -> None:
            if runtime.generation != generation or not runtime.shard.healthy:
                return
            fn(runtime, *args)

        return fire

    def _schedule_for(self, sim: Simulator, runtime: _ShardRuntime, at_time: float,
                      priority: int, label: str,
                      fn: Callable[..., None], *args: object) -> None:
        """Schedule ``fn(runtime, *args)`` behind the shard's generation guard.

        A crash (or recovery) between scheduling and firing orphans the
        event, so a dead shard's chain dies cleanly and a restarted chain
        never double-fires.  Everything that continues a shard's round
        chain or dispatch loop goes through here.
        """
        sim.schedule(at_time, self._guarded(runtime, fn, *args),
                     priority=priority, label=label)

    def _broadcast_weights(self, sim: Simulator, source: _ShardRuntime,
                           at_time: float, merge_on_landing: bool,
                           delivered: Optional[Dict[int, set]] = None,
                           snapshot_out: Optional[Dict[int, Dict]] = None,
                           among: Optional[set] = None) -> float:
        """Ship one shard's weight snapshot to every other shard.

        Returns the latest arrival time among the delivered snapshots
        (``at_time`` when everything was dropped).  With
        ``merge_on_landing`` each delivery schedules a staleness-weighted
        merge at its arrival; otherwise the caller owns what happens
        once the transfers have landed (the ``"average"`` barrier), and
        each successful delivery is recorded in ``delivered`` (a
        ``destination shard id -> source shard ids`` map) so a dropped
        snapshot genuinely never contributes to its destination.
        ``snapshot_out`` receives the shipped copy keyed by source shard
        id, so the barrier can average exactly what travelled the wire
        without snapshotting a second time.  ``among`` (shard ids)
        restricts the destinations — a quorum-degraded barrier exchanges
        weights among the present shards only.
        """
        snapshot = source.shard.weights_snapshot()
        if snapshot_out is not None:
            snapshot_out[source.shard.shard_id] = snapshot
        latest_arrival = at_time
        for destination in self._runtimes:
            if destination is source or not destination.shard.healthy:
                continue
            if among is not None and destination.shard.shard_id not in among:
                continue
            sync_message = self.transport.send_between_servers(
                source.shard.node_name, destination.shard.node_name,
                snapshot, now=at_time,
            )
            self.stats.sync_messages += 1
            if sync_message is None:
                self.stats.sync_messages_lost += 1
                continue
            if delivered is not None:
                delivered.setdefault(destination.shard.shard_id, set()).add(
                    source.shard.shard_id
                )
            latest_arrival = max(latest_arrival, sync_message.arrival_time)
            if merge_on_landing:
                sim.schedule(
                    sync_message.arrival_time,
                    lambda s, d=destination.shard, snap=snapshot, m=sync_message: (
                        self.cluster.merge_staleness(d, snap, m.transit_time)
                    ),
                    priority=PRIORITY_LANDING,
                    label="weight-merge",
                )
        return latest_arrival

    def _healthy_count(self) -> int:
        return sum(1 for runtime in self._runtimes if runtime.shard.healthy)

    # ------------------------------------------------------------------ #
    # Durable checkpoints (repro.state)
    # ------------------------------------------------------------------ #
    def _checkpoint_enabled(self) -> bool:
        return (
            self.checkpoint_store is not None
            and self.config.checkpoint_every_s is not None
        )

    def _capture_checkpoint(self, sim: Simulator, runtime: _ShardRuntime) -> None:
        """Snapshot one shard into the store and refresh its recovery point."""
        shard = runtime.shard
        checkpoint = ShardCheckpoint.capture(
            shard, sim_time=sim.now, round_index=runtime.round_index,
            generation=runtime.generation,
        )
        self.checkpoint_store.save_shard(checkpoint)
        runtime.last_checkpoint_s = sim.now
        shard.checkpoints_taken += 1
        shard.note_recovery_point(sim.now, "checkpoint")
        self.stats.checkpoints_written += 1
        logger.debug("checkpoint: shard %d captured at t=%.4fs (round %d, "
                     "%d samples)", shard.shard_id, sim.now,
                     runtime.round_index, shard.samples_processed)
        self.obs.tracer.instant("checkpoint", "control", sim.now, pid=shard.shard_id,
                                args={"samples": shard.samples_processed})

    def _schedule_periodic(self, sim: Simulator, at_time: float, every: float,
                           action: _Callback, priority: int, label: str) -> None:
        """Run ``action`` every ``every`` seconds from ``at_time`` on.

        Periodic events are pure observers (they never touch the round
        clocks or the dispatch state) and stop rescheduling once the
        run's real work is done, so they can never keep the simulator
        alive on their own.
        """
        def fire(fire_sim: Simulator) -> None:
            if not self._driver.live():
                return  # the run is done: let the chain die
            action(fire_sim)
            self._schedule_periodic(fire_sim, fire_sim.now + every, every,
                                    action, priority, label)

        sim.schedule(max(at_time, sim.now), fire, priority=priority, label=label)

    def _schedule_checkpoint_events(self, sim: Simulator) -> None:
        """Start each shard's periodic capture chain (``"interval"`` mode).

        Called once per epoch run, next to the failure-event scheduling:
        captures fire between landings and failure transitions
        (:data:`PRIORITY_CHECKPOINT`) and skip a crashed shard without
        breaking the cadence.
        """
        if not self._checkpoint_enabled() or self.config.checkpoint_mode != "interval":
            return
        every = self.config.checkpoint_every_s
        for runtime in self._runtimes:
            def capture(fire_sim: Simulator, rt: _ShardRuntime = runtime) -> None:
                if rt.shard.healthy:
                    self._capture_checkpoint(fire_sim, rt)

            # Each epoch's simulator starts at 0 but the run's clock is
            # absolute and spans epochs; anchor the cadence on the later of
            # the two so captures never time-travel backwards.
            base = max(sim.now, self.clock, runtime.last_checkpoint_s)
            self._schedule_periodic(sim, base + every, every, capture,
                                    PRIORITY_CHECKPOINT, "checkpoint")

    def _maybe_round_checkpoint(self, sim: Simulator, runtime: _ShardRuntime) -> None:
        """Opportunistic capture riding an existing event (``"round"`` mode)."""
        if not self._checkpoint_enabled() or self.config.checkpoint_mode != "round":
            return
        if sim.now - runtime.last_checkpoint_s >= self.config.checkpoint_every_s:
            self._capture_checkpoint(sim, runtime)

    # ------------------------------------------------------------------ #
    # Observability plane (repro.obs)
    # ------------------------------------------------------------------ #
    def _schedule_obs_events(self, sim: Simulator) -> None:
        """Start the periodic metrics-flush chain (``obs_flush_every_s``).

        Flushes fire at :data:`PRIORITY_OBS` (post-failure, pre-dispatch,
        so a snapshot reflects the state the next dispatch will see).
        With obs off (or no cadence) no event is ever scheduled.
        """
        every = self.obs.flush_every_s
        if not self.obs.enabled or every is None:
            return
        self._schedule_periodic(sim, max(sim.now, self.clock) + every, every,
                                lambda s: self.obs.flush(s.now),
                                PRIORITY_OBS, "obs-flush")

    def _obs_drain(self, runtime: _ShardRuntime,
                   results: List[Tuple[ActivationMessage, GradientMessage]],
                   start_time: float) -> None:
        """Record a drain's queue waits + spans (called only when obs is on)."""
        shard_id = runtime.shard.shard_id
        tracer = self.obs.tracer
        for activation_message, _ in results:
            wait = max(0.0, start_time - activation_message.arrival_time)
            self._obs_queue_wait.observe(wait)
            if tracer.enabled and tracer.sampled(self._trace_key(
                    activation_message.end_system_id,
                    activation_message.batch_id)):
                tracer.span(
                    "queue-wait", "message",
                    activation_message.arrival_time, start_time,
                    pid=shard_id, tid=activation_message.end_system_id,
                    args={"batch": activation_message.batch_id},
                )
        if tracer.enabled and results:
            step_time = self.config.server_step_time_s * runtime.service_factor
            tracer.span("server-step", "server", start_time,
                        start_time + step_time, pid=shard_id,
                        args={"batches": len(results)})

    @staticmethod
    def _reset_optimizer(shard: ServerShard) -> None:
        """Deterministically clear a recovered shard's optimizer moments.

        The snapshot paths that carry no optimizer state (sync snapshot,
        initial weights) model a process restart: the dead replica's
        moment buffers did not survive, so the restored optimizer starts
        from cleared slots — the same state a freshly built optimizer
        holds — instead of resurrecting pre-crash moments that no longer
        match the installed weights.
        """
        optimizer = shard.server.optimizer
        state = optimizer.state_dict()
        state["step_count"] = 0
        state["slots"] = {
            name: [None] * len(buffers)
            for name, buffers in state["slots"].items()
        }
        optimizer.load_state_dict(state)

    # ------------------------------------------------------------------ #
    # Fault timeline: schedule -> fire -> re-schedule, then apply
    # ------------------------------------------------------------------ #
    def _schedule_fault_events(self, sim: Simulator) -> None:
        """Schedule the next pending fault of every plan lane.

        Called once per epoch run: the plan is in absolute simulated time
        and spans epochs, so an event that did not fire last epoch (it
        lay beyond the training horizon) is re-scheduled here, clamped to
        the fresh simulator's clock.  The shards' crash lanes go first,
        in shard order, then the client/network lane — the order breaks
        ties between lanes at one instant.
        """
        if self.fault_plan is None:
            return
        for runtime in self._runtimes:
            self._schedule_next_fault(sim, runtime.shard.shard_id)
        self._schedule_next_fault(sim, None)

    def _schedule_next_fault(self, sim: Simulator, lane: Optional[int]) -> None:
        event = self.fault_plan.peek(lane)
        if event is None:
            return
        sim.schedule(
            max(event.time, sim.now),
            lambda s, ev=event: self._on_fault(s, ev),
            priority=PRIORITY_FAILURE,
            label=f"fault-{event.kind}",
        )

    def _on_fault(self, sim: Simulator, event: FaultEvent) -> None:
        if not self._driver.accepts_faults():
            # The epoch's real work is already done: leave the event
            # pending (not advanced) so the next epoch re-schedules it.
            return
        self.fault_plan.advance(event.lane)
        self._apply_fault(sim, event)
        self._schedule_next_fault(sim, event.lane)

    def _apply_fault(self, sim: Simulator, event: FaultEvent) -> None:
        """Apply one fault-plan event to the cluster / topology / runtime.

        * ``crash`` — ``begin`` crashes the (healthy) shard, ``end``
          recovers the (dead) one; see :meth:`_crash_shard` and
          :meth:`_recover_shard`.
        * ``flap``/``leave`` — the client's access link goes down at
          ``begin`` and comes back at ``end``; in-flight and future
          sends are lost on the wire and funnel through the ordinary
          loss (or retry) paths, so no special stranding is needed.
        * ``partition`` — the hub↔hub edge is administratively
          partitioned (both directions) until the matching ``end``.
        * ``straggler`` — the shard's service time is multiplied by
          ``value`` until the matching ``end`` restores ``1.0``.
        * ``move`` — client churn/mobility: the client is reassigned to
          the target shard through the same machinery failover uses
          (topology reroute + runtime migration + chain restart hooks).
        """
        if event.kind == "crash":
            runtime = self._runtimes[event.target]
            if event.phase == "begin":
                if runtime.shard.healthy:
                    self._crash_shard(sim, runtime)
            elif not runtime.shard.healthy:
                self._recover_shard(sim, runtime)
            return
        self.stats.chaos_events += 1
        self.obs.tracer.instant(
            f"chaos-{event.kind}", "chaos", sim.now,
            args={"phase": event.phase, "target": int(event.target)})
        topology = self.transport.topology
        if event.kind in ("flap", "leave"):
            node = self.system_to_node[int(event.target)]
            topology.set_node_up(node, event.phase == "end")
            logger.info("chaos: %s %s for %s at t=%.4fs", event.kind,
                        event.phase, node, sim.now)
        elif event.kind == "partition":
            node_a = self._runtimes[int(event.target)].shard.node_name
            node_b = self._runtimes[int(event.peer)].shard.node_name
            topology.set_edge_partitioned(node_a, node_b,
                                          event.phase == "begin")
            logger.info("chaos: partition %s between %s and %s at t=%.4fs",
                        event.phase, node_a, node_b, sim.now)
        elif event.kind == "straggler":
            runtime = self._runtimes[int(event.target)]
            runtime.service_factor = (
                float(event.value) if event.phase == "begin" else 1.0
            )
            logger.info("chaos: straggler %s on shard %d (factor %.1fx) "
                        "at t=%.4fs", event.phase, runtime.shard.shard_id,
                        runtime.service_factor, sim.now)
        elif event.kind == "move":
            self._apply_reassignment(
                sim, {int(event.target): int(event.value)}
            )

    # ------------------------------------------------------------------ #
    # Shard crash / failover / recovery
    # ------------------------------------------------------------------ #
    def _crash_shard(self, sim: Simulator, runtime: _ShardRuntime) -> None:
        """Apply a shard crash: shed its work leak-free, then fail over.

        The shard's queued/arena contents are flushed and every owning
        client is notified (``notify_drop``), in-flight uplinks will be
        shed on arrival (:meth:`_admit`), the hub's links go down in the
        topology, and — when a failover policy is installed — the shard's
        clients are reassigned to the healthy survivors one failover
        delay later.
        """
        shard = runtime.shard
        shard.mark_down(sim.now)
        self.stats.shard_crashes += 1
        runtime.generation += 1
        runtime.chain_idle = True
        runtime.dispatch_scheduled = False
        runtime.accepted = []
        self.transport.topology.set_node_up(shard.node_name, False)
        logger.info("shard %d (%s) crashed at t=%.4fs", shard.shard_id,
                    shard.node_name, sim.now)
        self.obs.tracer.instant("shard-crash", "control", sim.now,
                                pid=shard.shard_id)
        flushed = shard.flush_queue()
        if flushed:
            logger.debug("crash shed %d queued batch(es) from shard %d",
                         len(flushed), shard.shard_id)
        for message in flushed:
            self.stats.failover_dropped += 1
            self._forget(self._by_id[message.end_system_id], message.batch_id)
        # Blocked senders hold no pending work; pull them off the dead
        # shard's deques — failover or recovery re-triggers their sends.
        parked = list(runtime.blocked)
        runtime.blocked.clear()
        self._driver.on_shard_down(runtime, flushed, parked)
        if self.failover is not None:
            runtime.failovers_due += 1
            sim.schedule(
                sim.now + max(0.0, self.config.failover_delay_s),
                lambda s, rt=runtime: self._failover_clients(s, rt),
                priority=PRIORITY_FAILURE,
                label="failover",
            )

    def _failover_clients(self, sim: Simulator, dead_runtime: _ShardRuntime) -> None:
        """Reassign a dead shard's clients to the healthy survivors."""
        shard = dead_runtime.shard
        dead_runtime.failovers_due -= 1
        if shard.healthy:
            return  # recovered before the failover delay elapsed
        # The coordinator keeps each shard's client list sorted and in
        # sync with the assignment map.
        clients = list(shard.client_ids)
        survivors = [
            runtime.shard.shard_id for runtime in self._runtimes
            if runtime.shard.healthy
        ]
        if not clients or not survivors:
            return  # nothing to move, or a total outage: everyone waits
        latencies = [
            self.transport.topology.uplink(self.system_to_node[system_id]).latency.mean()
            for system_id in clients
        ]
        loads = [self._by_id[system_id].num_local_samples for system_id in clients]
        moves = self.failover.reassign(
            clients, survivors, latencies_s=latencies, loads=loads
        )
        self._apply_reassignment(
            sim,
            {
                system_id: shard_index
                for system_id, shard_index in moves.items()
                if shard_index != shard.shard_id
            },
        )

    def _reassign(self, system_id: int, shard_index: int) -> bool:
        """Move one client's assignment, route and runtime; ``False`` if it stays.

        Time-free bookkeeping only: a run-record restore replays the moves
        in effect at the record through here, outside any simulation.
        """
        if not self.cluster.reassign(system_id, shard_index):
            return False
        new_runtime = self._runtimes[shard_index]
        self._runtime_of[system_id] = new_runtime
        self.transport.topology.reroute_end_system(
            self.system_to_node[system_id], new_runtime.shard.node_name
        )
        return True

    def _apply_reassignment(self, sim: Simulator, moves: Dict[int, int]) -> None:
        """Move clients between shards mid-run and hand them to the driver."""
        moved = 0
        for system_id, shard_index in sorted(moves.items()):
            old_runtime = self._runtime_of[system_id]
            if not self._reassign(system_id, shard_index):
                continue
            new_runtime = self._runtimes[shard_index]
            end_system = self._by_id[system_id]
            self.stats.clients_reassigned += 1
            moved += 1
            if system_id in old_runtime.active:
                old_runtime.active.discard(system_id)
                new_runtime.active.add(system_id)
            was_parked = end_system in old_runtime.blocked
            if was_parked:
                old_runtime.blocked.remove(end_system)
            self._driver.on_client_moved(end_system, new_runtime, was_parked)
        if moved:
            logger.info("failover: reassigned %d client(s) at t=%.4fs", moved,
                        sim.now)
            self.obs.tracer.instant("failover", "control", sim.now,
                                    args={"clients": moved})

    def _recover_shard(self, sim: Simulator, runtime: _ShardRuntime) -> None:
        """Apply a shard recovery: restore state, fail clients back, restart.

        The restore source is the freshest durable state available, in
        preference order:

        1. the **newest intact checkpoint** from the store (when
           checkpointing is on and the checkpoint is at least as fresh
           as the last sync snapshot) — weights *and* optimizer moments
           *and* module RNG streams come back exactly;
        2. the coordinator's **last sync snapshot** — weights only, so
           the optimizer restarts with cleared moments (a crash destroys
           them) and the shard rejoins near the cluster consensus;
        3. the cluster's **initial weights** — the deterministic point
           of last resort when the shard crashed before any sync or
           checkpoint existed (a real restart reloads the seed model; it
           cannot resurrect the dead process's weights).

        Either way the recovery's lost work — the seconds and samples
        between the chosen restore point and the crash — is accounted
        into the shard's RPO counters.
        """
        shard = runtime.shard
        # RPO accounting reads the crash state before mark_up clears it.
        crash_time = shard.down_since if shard.down_since is not None else sim.now
        samples_at_crash = shard.samples_processed
        # install_weights (paths 2 and 3) resets samples_since_sync, so
        # derive "samples already durable at the last sync" first.
        samples_at_last_sync = shard.samples_processed - shard.samples_since_sync
        shard.mark_up(sim.now)
        self.stats.shard_recoveries += 1
        runtime.generation += 1
        runtime.clock = max(runtime.clock, sim.now)
        # The pre-crash dispatch chain died with its generation, so a
        # stale next_free (e.g. a slow downlink's landing time) would
        # gate maybe_dispatch with no event left to fire at it — post-
        # recovery arrivals would sit in the queue forever.  A freshly
        # recovered server is free now.
        runtime.next_free = min(runtime.next_free, sim.now)
        self.transport.topology.set_node_up(shard.node_name, True)
        logger.info("shard %d (%s) recovered at t=%.4fs", shard.shard_id,
                    shard.node_name, sim.now)
        checkpoint = None
        if self._checkpoint_enabled():
            checkpoint = self.checkpoint_store.latest_shard(shard.shard_id)
        snapshot = self.cluster.last_sync_snapshot
        sync_time = self.cluster.last_sync_time_s or 0.0
        restored_from = "initial"
        if checkpoint is not None and (snapshot is None
                                       or checkpoint.sim_time >= sync_time):
            checkpoint.restore(shard)
            shard.record_recovery(crash_time, samples_at_crash,
                                  checkpoint.sim_time,
                                  checkpoint.samples_processed, "checkpoint")
            restored_from = "checkpoint"
        elif snapshot is not None:
            shard.install_weights(snapshot)
            self._reset_optimizer(shard)
            shard.record_recovery(crash_time, samples_at_crash,
                                  sync_time, samples_at_last_sync, "sync")
            restored_from = "sync"
        else:
            # Nothing durable exists yet: deterministically reload the
            # cluster's initial weights (every shard was built from the
            # same server seed) with cleared optimizer state and per-sync
            # counters — exactly the state a freshly provisioned replica
            # would boot with.
            shard.server.load_state_dict(self.cluster.initial_snapshot)
            self._reset_optimizer(shard)
            shard.samples_since_sync = 0
            shard.steps_since_sync = 0
            shard.record_recovery(crash_time, samples_at_crash, 0.0, 0, "initial")
        logger.info("shard %d restored from %s (downtime %.4fs, "
                    "rpo_lost_s=%.4f)", shard.shard_id, restored_from,
                    sim.now - crash_time, shard.rpo_lost_s)
        self.obs.tracer.instant(
            "shard-recovery", "control", sim.now, pid=shard.shard_id,
            args={"source": restored_from, "downtime_s": sim.now - crash_time})
        if self.failover is not None and self.failover.failback:
            self._apply_reassignment(
                sim,
                {
                    system_id: shard.shard_id
                    for system_id in self.cluster.original_clients(shard.shard_id)
                    if self.cluster.assignment[system_id] != shard.shard_id
                },
            )
        self._driver.on_shard_up(runtime)

    # ------------------------------------------------------------------ #
    # The two modes
    # ------------------------------------------------------------------ #
    def _run(self, driver: _ModeDriver) -> MetricTracker:
        """Run one driver's simulation to completion with every plane attached."""
        for runtime in self._runtimes:
            runtime.in_transit = 0
            runtime.failovers_due = 0
            runtime.blocked.clear()
            runtime.active = {
                system_id for system_id in driver.iterators
                if self._runtime_of[system_id] is runtime
            }
        self._driver = driver
        sim = driver.sim
        try:
            driver.prime()
            self._schedule_fault_events(sim)
            self._schedule_checkpoint_events(sim)
            self._schedule_obs_events(sim)
            sim.run()
        finally:
            # Always drop the run's driver: an exception escaping the run
            # must not leave the engine pinning a dead run's state (or
            # reporting its liveness to later failure transitions).
            self._driver = _IDLE
        self.stats.events_processed += sim.processed_events
        return driver.tracker

    def run_synchronous_epoch(self, iterators: _Iterators) -> MetricTracker:
        """Drive one synchronous epoch as per-shard chains of round events.

        Each shard runs its own round chain: a *round-start* event where
        the shard's active end-systems each ship one batch, per-message
        *arrival* events that admit (or shed) messages at the shard's
        queue, and one *barrier* event at the shard's last arrival, where
        it drains its queue — as one concatenated step when
        ``server_batching`` is on, or one step per message in policy
        order otherwise — and the gradients flow back.  A shard's next
        round starts once *its own* gradients have landed; shards do not
        wait for each other's stragglers, which is the straggler
        isolation a latency-aware assignment buys.

        The chains meet only at synchronization points: every
        ``server_sync_every`` rounds, ``"average"`` mode parks each shard
        at a **rendezvous** until all still-running shards arrive, then
        exchanges weights over the inter-server links and releases
        everyone once the slowest transfer lands (a shard that already
        exhausted its data joins the average but never blocks the
        rendezvous); ``"staleness"`` mode broadcasts snapshots without
        stopping and peers merge them on landing.  With one shard no
        sync ever fires and the chain reduces exactly to the
        pre-cluster engine's round loop.
        """
        tracker = self._run(_RoundChain(self, iterators))
        self.clock = max([self.clock] + [rt.clock for rt in self._runtimes])
        return tracker

    def run_asynchronous(self, iterators: _Iterators,
                         stop_time: Optional[float] = None) -> MetricTracker:
        """Event-driven asynchronous training.

        Clients keep at most ``config.max_in_flight`` batches outstanding;
        each shard dispatches a step whenever it is free and at least one
        message has arrived, draining every arrived message into one
        concatenated step when ``server_batching`` is on or taking one
        step per message otherwise.  A step that started at ``t`` ends at
        ``t + server_step_time_s``; a shard may dispatch again once the
        step has ended *and* the step's gradients have landed.  With more
        than one shard, every ``server_sync_every`` steps a shard gossips
        its weights to its peers (staleness-weighted merge on landing).
        When ``stop_time`` is given, no step starts at or after that
        simulated time, and every batch still in flight is abandoned
        (clients discard the pending activations — nothing leaks).
        """
        return self._run(_DispatchLoop(self, iterators, stop_time))


class _RoundChain(_ModeDriver):
    """Synchronous mode: one chain of round events per shard.

    Per-shard progress (``clock``, ``round_index``, ``accepted``,
    ``chain_idle``) lives on the shard runtimes; the driver itself holds
    what the chains share — the rendezvous.
    """

    def __init__(self, engine: TrainingEngine, iterators: _Iterators) -> None:
        super().__init__(engine, iterators)
        #: ``"average"`` rendezvous: shards parked at a sync point, mapped
        #: to the round they just finished.
        self.arrived: Dict[int, int] = {}
        #: Shards done with their data for this epoch.
        self.finished: Set[int] = set()
        #: Pending quorum timeout of the current rendezvous, cancelled
        #: outright when it resolves so a retracted timer never stretches
        #: the simulated end time.
        self._sync_timer: Optional[Event] = None

    def prime(self) -> None:
        for runtime in self.engine._runtimes:
            runtime.accepted = []
            runtime.clock = self.engine.clock
            runtime.round_index = -1
            # A shard that is down when the epoch starts has no chain; a
            # recovery transition restarts it mid-epoch.
            runtime.chain_idle = not runtime.shard.healthy
            if runtime.shard.healthy:
                self._schedule_round(runtime.clock, runtime, 0)

    # -- driver protocol ------------------------------------------------ #
    def live(self) -> bool:
        return any(
            runtime.shard.shard_id not in self.finished
            and self._reachable(runtime)
            for runtime in self.engine._runtimes
        )

    def accepts_faults(self) -> bool:
        # Any unfinished shard keeps the epoch open to faults, a dead one
        # included: a fault due after the survivors finished is applied
        # now, not deferred to the next epoch (folding this into ``live``
        # moves the fault golden's ``scripted-synchronous-chaos`` cell).
        return len(self.finished) < len(self.engine._runtimes)

    def on_shard_down(self, runtime: _ShardRuntime,
                      flushed: List[ActivationMessage],
                      parked: List[EndSystem]) -> None:
        # The crashed shard cannot resume from a rendezvous it was
        # parked at — and the survivors must not wait for it.
        self.arrived.pop(runtime.shard.shard_id, None)
        if not self.arrived:
            # The rendezvous emptied out: retract its quorum timer so
            # a later, unrelated park starts a fresh one.
            self._resolve_rendezvous()
        self._maybe_fire_sync()

    def on_shard_up(self, runtime: _ShardRuntime) -> None:
        # Restart latch for failover/recovery: give the shard a live
        # round chain when it has gained clients (or come back up)
        # and its previous chain has died.
        if not runtime.chain_idle or not runtime.shard.healthy:
            return
        if not runtime.active:
            self._finish_shard(runtime)
            return
        self.finished.discard(runtime.shard.shard_id)
        self._resume(runtime, runtime.round_index + 1)

    def on_client_moved(self, end_system: EndSystem, runtime: _ShardRuntime,
                        was_parked: bool) -> None:
        self.on_shard_up(runtime)

    # -- the round chain ------------------------------------------------ #
    def _schedule_round(self, at_time: float, runtime: _ShardRuntime,
                        round_index: int) -> None:
        runtime.chain_idle = False
        self.engine._schedule_for(
            self.sim, runtime, max(at_time, self.sim.now), PRIORITY_ARRIVAL,
            "round-start", self._start_round, round_index,
        )

    def _resume(self, runtime: _ShardRuntime, round_index: int) -> None:
        """Continue a parked or restarted chain, not before the present."""
        runtime.clock = max(runtime.clock, self.sim.now)
        self._schedule_round(runtime.clock, runtime, round_index)

    def _on_arrival(self, sim: Simulator, message: ActivationMessage,
                    end_system: EndSystem, runtime: _ShardRuntime,
                    sent_generation: int) -> None:
        if self.engine._admit(sim, message, end_system, runtime, sent_generation):
            runtime.accepted.append(message)

    def _start_round(self, runtime: _ShardRuntime, round_index: int) -> None:
        engine, sim = self.engine, self.sim
        runtime.round_index = round_index
        engine.obs.tracer.instant(
            "round-start", "control", runtime.clock,
            pid=runtime.shard.shard_id, args={"round": round_index})
        if not runtime.active:
            self._finish_shard(runtime)
            return
        senders: List[EndSystem] = list(runtime.blocked)
        already_queued = {end_system.system_id for end_system in senders}
        runtime.blocked.clear()
        senders.extend(
            end_system for end_system in engine.end_systems
            if end_system.system_id in runtime.active
            and end_system.system_id not in already_queued
        )
        in_flight = 0
        last_arrival = runtime.clock
        latest_loss = runtime.clock
        for end_system in senders:
            if end_system.system_id not in runtime.active:
                continue
            batch = engine._next_batch(end_system, runtime, self.iterators)
            if batch is None:
                continue
            message, arrivals, lost_at = engine._uplink(
                end_system, batch, runtime.clock, round_index=round_index
            )
            if lost_at is not None:
                # The client forgets the batch and ships its next one
                # when the following round starts — at once when the
                # link dropped it, not before the give-up deadline when
                # every retry was lost.
                engine._abandon(end_system, message.batch_id)
                latest_loss = max(latest_loss, lost_at)
                continue
            in_flight += 1
            last_arrival = max(last_arrival, arrivals[-1])
            engine._schedule_arrivals(sim, message, arrivals, end_system,
                                      runtime, self._on_arrival)
        engine.stats.rounds += 1
        if in_flight:
            engine._schedule_for(
                sim, runtime, max(last_arrival, sim.now), PRIORITY_DISPATCH,
                "round-barrier", self._barrier, round_index,
            )
        elif runtime.active:
            # Every send this round was lost in transit; retry
            # immediately — the simulated clock does not advance
            # (reliable delivery is the exception: abandoned retry
            # chains occupied the sender until their give-up
            # deadlines, so the round clock moves there instead of
            # spinning at a frozen instant).
            runtime.clock = max(runtime.clock, latest_loss)
            self._schedule_round(max(sim.now, runtime.clock), runtime,
                                 round_index + 1)
        else:
            self._finish_shard(runtime)

    def _barrier(self, runtime: _ShardRuntime, round_index: int) -> None:
        # The shard's queue is drained at every barrier and capacity
        # is >= 1, so a round that put messages in flight always
        # lands at least one (the shard's first arrival cannot be
        # shed).  Queue-dropped messages never reached the server
        # segment, so they do not hold the barrier back.
        latest_arrival = max(
            (message.arrival_time for message in runtime.accepted),
            default=runtime.clock,
        )
        runtime.accepted = []
        if runtime.service_factor != 1.0:
            # Chaos straggler: the shard serves slower, so the drain
            # completes late by the extra service time and every
            # gradient of the round ships late with it.  The stall is
            # a real simulated-time delay, so the drain is re-parked
            # at the stalled instant — a rendezvous quorum timer must
            # get the chance to fire before the straggler shows up.
            latest_arrival += (
                self.engine.config.server_step_time_s
                * (runtime.service_factor - 1.0)
            )
            if latest_arrival > self.sim.now:
                # A crash during the stall flushes the queued messages
                # (with notifications); the guard keeps the orphaned
                # drain from double-processing them.
                self.engine._schedule_for(
                    self.sim, runtime, latest_arrival, PRIORITY_DISPATCH,
                    "straggler-drain", self._drain_round, round_index,
                    latest_arrival,
                )
                return
        self._drain_round(runtime, round_index, latest_arrival)

    def _drain_round(self, runtime: _ShardRuntime, round_index: int,
                     latest_arrival: float) -> None:
        engine = self.engine
        # The step cannot start before the shard's last accepted message
        # of the round has arrived.
        results, send_times = engine._drain(runtime, latest_arrival,
                                            whole_queue=True)
        settled = latest_arrival
        for end_system, gradient_message, arrivals, lost_at in engine._reply(
                self.tracker, results, send_times):
            if lost_at is not None:
                # A give-up deadline also holds the next round back (the
                # sender was busy retrying until then).
                engine._abandon(end_system, gradient_message.batch_id)
                settled = max(settled, lost_at)
                continue
            # The earliest copy completes back-propagation; any
            # spurious-timeout duplicates change nothing (the gradient
            # is applied inline exactly once).
            settled = max(settled, arrivals[0])
            engine._deliver(end_system, gradient_message)
        # Shard-local barrier: this shard's next round starts once its
        # own gradients have landed (and not before this barrier fired).
        runtime.clock = max(runtime.clock, settled, self.sim.now)
        self._round_done(runtime, round_index)

    def _round_done(self, runtime: _ShardRuntime, round_index: int) -> None:
        engine, sim = self.engine, self.sim
        # "round" checkpoint cadence: the barrier just drained the
        # queue, so the shard is quiescent — capture rides this event.
        engine._maybe_round_checkpoint(sim, runtime)
        # The coordinator owns the sync cadence and mode (the trainer
        # seeds them from TrainingConfig).  A sync needs at least two
        # healthy shards — with the rest of the cluster down there is
        # nobody to exchange weights with, so the chain continues
        # straight into its next round.
        if ((round_index + 1) % engine.cluster.sync_every == 0
                and engine._healthy_count() > 1):
            if engine.cluster.sync_mode == "average":
                # Park this shard at the rendezvous; the sync fires
                # once every still-running healthy shard has arrived
                # — or, with a sync timeout configured, when the
                # quorum timer the *first* parked shard started runs
                # out (degraded sync without the stragglers).
                self.arrived[runtime.shard.shard_id] = round_index
                if (engine.config.sync_timeout_s is not None
                        and len(self.arrived) == 1):
                    self._sync_timer = sim.schedule(
                        sim.now + engine.config.sync_timeout_s,
                        self._on_sync_timeout,
                        priority=PRIORITY_DISPATCH, label="sync-timeout",
                    )
                self._maybe_fire_sync()
                return
            # Staleness gossip: snapshots broadcast now, merges land
            # between rounds, and nobody blocks.
            engine.stats.weight_syncs += 1
            engine._broadcast_weights(sim, runtime, runtime.clock,
                                      merge_on_landing=True)
        self._schedule_round(runtime.clock, runtime, round_index + 1)

    def _finish_shard(self, runtime: _ShardRuntime) -> None:
        # Out of data for this epoch.  A rendezvous must not wait for
        # a shard that will never arrive.
        runtime.chain_idle = True
        if runtime.shard.shard_id not in self.finished:
            self.finished.add(runtime.shard.shard_id)
            self._maybe_fire_sync()

    # -- the "average" rendezvous ---------------------------------------- #
    def _resolve_rendezvous(self) -> None:
        if self._sync_timer is not None:
            self.sim.cancel(self._sync_timer)
            self._sync_timer = None

    def _on_sync_timeout(self, sim: Simulator) -> None:
        # The first shard has been parked at the rendezvous for a
        # full sync timeout and stragglers are still out there.
        # With a quorum of the healthy running shards present, fire
        # a *degraded* sync among the present shards only; otherwise
        # release everyone un-synced — either way nobody waits on
        # the stragglers any longer.
        engine = self.engine
        self._sync_timer = None
        if not self.arrived:
            return
        healthy_unfinished = sum(
            1 for runtime in engine._runtimes
            if runtime.shard.healthy
            and runtime.shard.shard_id not in self.finished
        )
        participants = [
            runtime for runtime in engine._runtimes
            if runtime.shard.healthy
            and (runtime.shard.shard_id in self.arrived
                 or runtime.shard.shard_id in self.finished)
        ]
        quorum_met = (
            len(self.arrived) >= engine.config.sync_quorum * healthy_unfinished
            and len(participants) >= 2
        )
        name = "quorum-sync" if quorum_met else "sync-timeout"
        engine.obs.tracer.instant(
            name, "control", sim.now,
            args={"present": len(self.arrived), "running": healthy_unfinished})
        if quorum_met:
            engine.stats.quorum_syncs += 1
            logger.info(
                "quorum sync: %d/%d running shard(s) present at t=%.4fs; "
                "syncing without the stragglers", len(self.arrived),
                healthy_unfinished, sim.now)
            self._fire_sync(participants, restrict=True)
            return
        engine.stats.sync_timeouts += 1
        logger.info(
            "sync timeout: quorum not met (%d/%d) at t=%.4fs; releasing "
            "parked shard(s) un-synced", len(self.arrived), healthy_unfinished,
            sim.now)
        for runtime in engine._runtimes:
            round_index = self.arrived.get(runtime.shard.shard_id)
            if round_index is not None and runtime.shard.healthy:
                self._resume(runtime, round_index + 1)
        self.arrived.clear()

    def _maybe_fire_sync(self) -> None:
        if not self.arrived:
            return
        if any(
            runtime.shard.shard_id not in self.arrived
            and runtime.shard.shard_id not in self.finished
            and runtime.shard.healthy
            for runtime in self.engine._runtimes
        ):
            # The rendezvous waits only for *healthy* running shards;
            # a crashed shard can never arrive and must not hang the
            # barrier (its rendezvous entry was dropped at crash time).
            return
        self._resolve_rendezvous()
        # Full-averaging barrier: every healthy shard (finished ones
        # too — their weights still count) broadcasts its snapshot,
        # and the parked shards resume once the slowest transfer has
        # landed.
        self._fire_sync(
            [runtime for runtime in self.engine._runtimes if runtime.shard.healthy],
            restrict=False,
        )

    def _fire_sync(self, healthy_runtimes: List[_ShardRuntime],
                   restrict: bool) -> None:
        engine, sim = self.engine, self.sim
        sync_start = max([sim.now] + [rt.clock for rt in healthy_runtimes])
        participant_ids = {
            runtime.shard.shard_id for runtime in healthy_runtimes
        }
        sync_done = sync_start
        delivered: Dict[int, set] = {}
        snapshots: Dict[int, Dict] = {}
        for runtime in healthy_runtimes:
            sync_done = max(
                sync_done,
                engine._broadcast_weights(sim, runtime, sync_start,
                                          merge_on_landing=False,
                                          delivered=delivered,
                                          snapshot_out=snapshots,
                                          among=participant_ids
                                          if restrict else None),
            )
        complete = all(
            len(delivered.get(runtime.shard.shard_id, ()))
            == len(healthy_runtimes) - 1
            for runtime in healthy_runtimes
        )
        # Releases sit behind the parked shard's generation guard: a shard
        # that crashes (or crashes AND recovers) while the sync is in
        # flight must not be released here — its chain either died or
        # was already restarted by the recovery, and a second release
        # would run a duplicate round chain.
        releases = [
            engine._guarded(runtime, self._resume,
                            self.arrived[runtime.shard.shard_id] + 1)
            for runtime in engine._runtimes
            if runtime.shard.shard_id in self.arrived
        ]
        self.arrived.clear()

        def apply_average(sim: Simulator) -> None:
            # Average the snapshots that travelled the wire (every
            # shard is parked, so nobody trained since broadcast).
            # Lossy inter-server links: a shard averages only the
            # snapshots that actually reached it, so replicas may
            # diverge under loss exactly like a real deployment's.
            # The coordinator skips shards that crashed since the
            # broadcast; their rendezvous release below is skipped
            # too (a recovery restarts the chain instead).  A
            # quorum-degraded barrier restricts the average (and the
            # install) to the shards that made the rendezvous —
            # stragglers neither contribute nor receive.
            engine.cluster.sync_average(
                None if complete else delivered, snapshots=snapshots,
                participants=sorted(participant_ids) if restrict else None,
            )
            engine.stats.weight_syncs += 1
            logger.debug("weight sync: %d participant(s)%s at t=%.4fs",
                         len(participant_ids),
                         " (quorum-restricted)" if restrict else "",
                         sim.now)
            engine.obs.tracer.span(
                "weight-sync", "control", sync_start, sim.now,
                args={"participants": len(participant_ids),
                      "restricted": restrict})
            # The installed average is durable cluster state: a crash
            # after this instant can be recovered from it, so it is
            # every participant's freshest recovery point (unless a
            # newer checkpoint supersedes it).
            engine.cluster.last_sync_time_s = sim.now
            for runtime in engine._runtimes:
                if runtime.shard.healthy and (
                    not restrict
                    or runtime.shard.shard_id in participant_ids
                ):
                    runtime.shard.note_recovery_point(sim.now, "sync")
            for release in releases:
                release(sim)

        sim.schedule(sync_done, apply_average, priority=PRIORITY_DISPATCH,
                     label="weight-sync")


def _absorbed(sim: Simulator) -> None:
    """Landing of a spurious-timeout duplicate gradient: it evaporates.

    The earliest copy already completed the batch; a later one must
    neither apply the gradient again nor mint an extra send token.
    """


class _DispatchLoop(_ModeDriver):
    """Asynchronous mode: clients pipeline sends, shards step when free.

    Per-shard dispatch state (``next_free``, ``dispatch_scheduled``) lives
    on the shard runtimes and every forwarded batch in the engine's
    ledger; the driver holds only the sends deferred by an outage.
    """

    def __init__(self, engine: TrainingEngine, iterators: _Iterators,
                 stop_time: Optional[float]) -> None:
        super().__init__(engine, iterators)
        self.stop_time = stop_time
        #: Deferred sends of clients whose shard is down: system id ->
        #: number of sends to re-issue once the client is failed over or
        #: its shard recovers.
        self.stranded: Dict[int, int] = {}

    def prime(self) -> None:
        for runtime in self.engine._runtimes:
            runtime.next_free = self.engine.clock
            runtime.dispatch_scheduled = False
        # Prime the pipeline: every client ships max_in_flight batches.
        for end_system in self.engine.end_systems:
            for _ in range(self.engine.config.max_in_flight):
                self.try_send(end_system, self.engine.clock)

    # -- driver protocol ------------------------------------------------ #
    def live(self) -> bool:
        # An uplink on the wire, queued work, or a client with data left
        # that its shard can still serve.
        return _UPLINK in self.engine._outstanding.values() or any(
            runtime.shard.has_pending()
            or (runtime.active and self._reachable(runtime))
            for runtime in self.engine._runtimes
        )

    def on_shard_down(self, runtime: _ShardRuntime,
                      flushed: List[ActivationMessage],
                      parked: List[EndSystem]) -> None:
        # Clients whose batches were shed at the crash (or who were
        # parked in the dead shard's backpressure queue) immediately
        # try again; the send strands until failover or recovery.
        for message in flushed:
            self.try_send(self.engine._by_id[message.end_system_id], self.sim.now)
        for end_system in parked:
            self.try_send(end_system, self.sim.now)

    def on_shard_up(self, runtime: _ShardRuntime) -> None:
        # Standby clients (never failed over) resume their sends.
        for system_id in list(runtime.shard.client_ids):
            for _ in range(self.stranded.pop(system_id, 0)):
                self.try_send(self.engine._by_id[system_id], self.sim.now)
        self._maybe_dispatch(runtime)

    def on_client_moved(self, end_system: EndSystem, runtime: _ShardRuntime,
                        was_parked: bool) -> None:
        pending_sends = self.stranded.pop(end_system.system_id, 0)
        if was_parked:
            pending_sends += 1
        for _ in range(pending_sends):
            self.try_send(end_system, self.sim.now)

    # -- client side: send, learn of a loss, land ------------------------ #
    def try_send(self, end_system: EndSystem, at_time: float) -> None:
        engine = self.engine
        system_id = end_system.system_id
        runtime = engine._runtime_of[system_id]
        if system_id not in runtime.active:
            return
        if self.stop_time is not None and at_time >= self.stop_time:
            # Past the budget: stop feeding new work into the pipeline.
            return
        if not runtime.shard.healthy:
            # The client's shard is down and nobody has failed it
            # over (yet): park the send — failover or recovery
            # re-issues it.
            self.stranded[system_id] = self.stranded.get(system_id, 0) + 1
            return
        batch = engine._next_batch(end_system, runtime, self.iterators)
        if batch is None:
            return
        message, arrivals, lost_at = engine._uplink(end_system, batch, at_time)
        if lost_at is not None:
            self._lost(end_system, message.batch_id, lost_at, "uplink")
            return
        engine._schedule_arrivals(self.sim, message, arrivals, end_system,
                                  runtime, self._on_arrival)

    def _lost(self, end_system: EndSystem, batch_id: int, lost_at: float,
              leg: str) -> None:
        """A transfer of the client's batch was lost; it moves on at ``lost_at``."""
        engine = self.engine
        if engine.config.reliable_delivery:
            # Every retry was physically lost: the client keeps the
            # batch pending until the give-up deadline, then abandons it
            # and computes its next one.
            def give_up(sim: Simulator) -> None:
                engine._abandon(end_system, batch_id)
                self.try_send(end_system, sim.now)

            self.sim.schedule(lost_at, give_up, priority=PRIORITY_LANDING,
                              label=f"{leg}-give-up")
            return
        engine._abandon(end_system, batch_id)
        if leg == "uplink":
            # Dropped in transit; the lost batch is forgotten and the
            # client immediately computes its next one.
            self.try_send(end_system, lost_at)
        else:
            # The reply fails to appear: the client moves on as soon as
            # the step has ended.
            self.sim.schedule(
                lost_at, lambda s: self.try_send(end_system, s.now),
                priority=PRIORITY_LANDING, label="gradient-lost",
            )

    def _land(self, end_system: EndSystem, gradient_message: GradientMessage) -> None:
        self.engine._deliver(end_system, gradient_message)
        # The client computes its next batch as soon as the gradient lands.
        self.try_send(end_system, self.sim.now)

    # -- server side: arrival, dispatch, halt ---------------------------- #
    def _on_arrival(self, sim: Simulator, message: ActivationMessage,
                    end_system: EndSystem, runtime: _ShardRuntime,
                    sent_generation: int) -> None:
        if self.engine._admit(
            sim, message, end_system, runtime, sent_generation,
            # Queue overflow ("drop" policy): the client is NACKed
            # over the downlink and moves on to its next batch when
            # the NACK lands.
            on_notified=lambda s: self.try_send(end_system, s.now),
        ):
            self._maybe_dispatch(runtime)

    def _maybe_dispatch(self, runtime: _ShardRuntime) -> None:
        if runtime.dispatch_scheduled or self.sim.now < runtime.next_free:
            return
        if not runtime.shard.healthy or not runtime.shard.has_pending():
            return
        self._schedule_dispatch(self.sim.now, runtime)

    def _schedule_dispatch(self, at_time: float, runtime: _ShardRuntime) -> None:
        runtime.dispatch_scheduled = True
        self.engine._schedule_for(self.sim, runtime, at_time, PRIORITY_DISPATCH,
                                  "server-step", self._dispatch)

    def _dispatch(self, runtime: _ShardRuntime) -> None:
        engine, sim = self.engine, self.sim
        runtime.dispatch_scheduled = False
        if not runtime.shard.has_pending():
            # Went idle; the next arrival re-triggers a dispatch.
            return
        start_time = sim.now
        if self.stop_time is not None and start_time >= self.stop_time:
            self._halt(self.stop_time)
            return
        # Batched draining folds every message that has arrived by
        # start_time into one step costing a single server_step_time_s.
        results, _ = engine._drain(runtime, start_time, whole_queue=False)
        # The pops above freed queue slots; blocked senders go first.
        while runtime.blocked and engine._queue_has_room(runtime):
            self.try_send(runtime.blocked.popleft(), start_time)
        finish_time = (
            start_time
            + engine.config.server_step_time_s * runtime.service_factor
        )
        engine.clock = max(engine.clock, finish_time)
        next_dispatch_at = finish_time
        # Every gradient ships when the step ends.
        for end_system, gradient_message, arrivals, lost_at in engine._reply(
                self.tracker, results, [finish_time] * len(results)):
            if lost_at is not None:
                engine.clock = max(engine.clock, lost_at)
                self._lost(end_system, gradient_message.batch_id, lost_at,
                           "downlink")
                continue
            # The earliest copy completes back-propagation, and the
            # shard's flow control waits only on it — a spurious
            # duplicate must not throttle the shard.
            next_dispatch_at = max(next_dispatch_at, arrivals[0])
            engine.clock = max(engine.clock, arrivals[0])
            sim.schedule(
                arrivals[0],
                lambda s, e=end_system, g=gradient_message: self._land(e, g),
                priority=PRIORITY_LANDING, label="gradient-landing",
            )
            for arrival in arrivals[1:]:
                sim.schedule(arrival, _absorbed, priority=PRIORITY_LANDING,
                             label="gradient-landing")
        if (
            engine.cluster.num_shards > 1
            and engine._healthy_count() > 1
            and runtime.shard.steps_since_sync >= engine.cluster.sync_every
        ):
            # Gossip this shard's weights; peers merge on landing
            # with a staleness-decayed coefficient.  The broadcast
            # happens when the step's results ship (finish_time) and
            # never blocks the pipeline.  With every peer down there
            # is nobody to gossip with — the cadence counter keeps
            # running and the next due step after a recovery gossips.
            runtime.shard.steps_since_sync = 0
            engine.stats.weight_syncs += 1
            engine._broadcast_weights(sim, runtime, finish_time,
                                      merge_on_landing=True)
        # "round" checkpoint cadence rides the dispatch event: the
        # step's state is final and the queue slots it drained are
        # accounted.
        engine._maybe_round_checkpoint(sim, runtime)
        # The shard may start its next step once it is free and this
        # step's gradients have all landed.
        runtime.next_free = next_dispatch_at
        self._schedule_dispatch(next_dispatch_at, runtime)

    def _halt(self, stop_time: float) -> None:
        # Budget exhausted: every outstanding batch is resolved here, by
        # its state — the stop is terminal, no event fires after it.
        engine = self.engine
        engine.clock = max(engine.clock, stop_time)
        # The queued messages' storage: flush_all also releases their
        # activation-arena rows on every shard, so a budgeted stop does
        # not pin staged memory.
        engine.cluster.flush_all()
        for (system_id, batch_id), state in list(engine._outstanding.items()):
            # A queue-dropped batch whose NACK is still travelling
            # resolves as if it had just landed (it was already counted
            # as a queue drop).  Everything else — on either wire, queued,
            # or waiting out a give-up deadline whose losses the retry
            # ledger absorbed — is a plain cancellation: no drop
            # notification is owed, and one would tilt the balance.
            end_system = engine._by_id[system_id]
            if state == _AWAITING_NACK:
                engine._forget(end_system, batch_id)
            else:
                engine._forget(end_system, batch_id, notify=False)
                engine.stats.cancelled_at_stop += 1
        # Blocked and stranded *sends* hold no batch: the next run resets
        # the shard runtimes and this driver dies with the run.
        self.sim.stop()
