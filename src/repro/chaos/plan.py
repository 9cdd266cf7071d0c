"""The fault timeline: scripted and stochastic plans of timed faults.

A fault plan is the one source of everything that happens *to* a
deployment at a simulated time: shard crashes and recoveries, client
link flaps and leaves, hub↔hub partitions, shard stragglers and scripted
client moves, all as :class:`FaultEvent` transitions.  The engine
consumes a plan through independent **lanes**, keeping one pending
simulator event per lane: each shard's crash/recovery timeline is the
lane named by its shard id, and every client/network fault shares the
lane ``None``.  :meth:`FaultPlan.peek` returns a lane's next pending
event (``None`` when exhausted) and :meth:`FaultPlan.advance` consumes
it once it has been applied.  An event that would fire after the current
epoch's work is done is not consumed, so a plan is in absolute simulated
time and spans epochs, and :meth:`FaultPlan.state_dict` captures the
live position for replay-exact run checkpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..core.config import TrainingConfig

__all__ = ["FaultEvent", "FaultPlan", "ScheduledFaults", "StochasticFaults",
           "build_fault_plan"]

#: Scripted ``chaos_schedule`` entry forms: the fields after ``(kind, t)``.
_FORMS = {
    "flap": ("duration", "client_id"),
    "leave": ("duration", "client_id"),
    "partition": ("duration", "shard_a", "shard_b"),
    "straggler": ("duration", "shard_id", "factor"),
    "move": ("client_id", "shard_id"),
}

#: Fault classes the engine knows how to apply.
_KINDS = (*_FORMS, "crash")

#: At equal timestamps an outage *end* sorts before a new *begin*, so a
#: back-to-back schedule (one outage ending exactly when the next begins)
#: validates and replays the same in either entry order; one-shot
#: applications sit between the two.
_PHASE_RANK = {"end": 0, "apply": 1, "begin": 2}


@dataclass(frozen=True)
class FaultEvent:
    """One fault-phase transition, in absolute simulated time.

    ``target`` is a client id for ``flap``/``leave``/``move`` and a shard
    id for ``straggler``/``crash`` (whose ``begin`` is the crash and
    ``end`` the recovery); ``peer`` names the second hub of a
    ``partition`` (both hubs given as shard ids); ``value`` carries the
    ``straggler`` service-time factor or the ``move`` destination shard.
    """

    time: float
    kind: str
    phase: str  # "begin", "end" or "apply" (one-shot)
    target: int
    peer: Optional[int] = None
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.phase not in _PHASE_RANK:
            raise ValueError(f"phase must be 'begin', 'end' or 'apply', got {self.phase!r}")

    @property
    def sort_key(self) -> Tuple[float, int, str, int]:
        return (self.time, _PHASE_RANK[self.phase], self.kind, self.target)

    @property
    def lane(self) -> Optional[int]:
        """The shard id for a crash/recovery, ``None`` for every other fault."""
        return self.target if self.kind == "crash" else None


class FaultPlan:
    """Base peek/advance timeline of :class:`FaultEvent` transitions.

    A run record keeps a plan's position as two payloads —
    ``failure_state`` (the crash lanes) and ``chaos_state`` (lane
    ``None``) — so subclasses capture and restore one such half at a time.
    """

    name = "base"

    def peek(self, lane: Optional[int] = None) -> Optional[FaultEvent]:
        raise NotImplementedError

    def advance(self, lane: Optional[int] = None) -> None:
        raise NotImplementedError

    def _half(self, crashes: bool) -> Optional[Dict[str, Any]]:
        """JSON-able position of the crash lanes (or of lane ``None``);
        ``None`` when the plan has no such faults."""
        raise NotImplementedError

    def _load_half(self, crashes: bool, half: Dict[str, Any]) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot of the plan's consumed-timeline position."""
        return {"failure_state": self._half(True), "chaos_state": self._half(False)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (a ``None`` half is skipped)."""
        for crashes, half in ((True, state["failure_state"]),
                              (False, state["chaos_state"])):
            if half is not None:
                self._load_half(crashes, half)


def _event_to_list(event: FaultEvent) -> List[object]:
    if event.kind == "crash":  # failure_state spells the phase, keys the shard
        return [event.time, "crash" if event.phase == "begin" else "recover"]
    return [event.time, event.kind, event.phase, event.target, event.peer, event.value]


def _crash_from_list(raw: Sequence[Any], shard: int) -> FaultEvent:
    return FaultEvent(float(raw[0]), "crash",
                      "begin" if raw[1] == "crash" else "end", shard)


def _event_from_list(raw: Sequence[Any]) -> FaultEvent:
    time_s, kind, phase, target, peer, value = raw
    return FaultEvent(
        time=float(time_s),
        kind=str(kind),
        phase=str(phase),
        target=int(target),
        peer=None if peer is None else int(peer),
        value=None if value is None else float(value),
    )


class ScheduledFaults(FaultPlan):
    """Scripted faults from ``TrainingConfig.chaos_schedule`` entries and
    ``TrainingConfig.failure_schedule`` crashes.

    Entry forms (times and durations in simulated seconds)::

        ("flap",      t, duration, client_id)
        ("leave",     t, duration, client_id)
        ("partition", t, duration, shard_a, shard_b)
        ("straggler", t, duration, shard_id, factor)
        ("move",      t, client_id, shard_id)

    and crashes are ``(t, shard_id)`` or ``(t, shard_id, downtime)``.  A
    ``duration``/``downtime`` of ``None`` (or a two-field crash) leaves the
    fault in place for the rest of the run.  Scripted timelines contain no
    randomness, so one whose first event lies beyond the training horizon
    is provably inert.  Overlapping outages of the same fault key are
    rejected outright — they would silently end the longer outage at the
    shorter entry's restore — and with ``num_servers``/``num_clients``
    given, so is every shard/client id outside the deployment (it would
    never fire, or index the wrong runtime).
    """

    name = "scheduled"

    def __init__(
        self,
        entries: Sequence[Sequence[Any]] = (),
        crashes: Sequence[Sequence[Any]] = (),
        num_servers: Optional[int] = None,
        num_clients: Optional[int] = None,
    ) -> None:
        self._limits = {"shard": ("num_servers", num_servers),
                        "client": ("num_clients", num_clients)}
        events: List[FaultEvent] = []
        for crash in crashes:
            if len(crash) not in (2, 3):
                raise ValueError(
                    "each failure_schedule entry must be (time_s, shard_id) or "
                    f"(time_s, shard_id, downtime_s), got {crash!r}"
                )
            events.extend(self._outage(
                crash[0], crash[2] if len(crash) == 3 else None, "crash",
                self._checked_id("shard_id", crash[1])))
        for entry in entries:
            events.extend(self._expand(entry))
        ordered = sorted(events, key=lambda e: e.sort_key)
        self._validate_alternation(ordered)
        self._lanes: Dict[Optional[int], Deque[FaultEvent]] = {}
        for event in ordered:
            self._lanes.setdefault(event.lane, deque()).append(event)

    def _checked_id(self, field: str, value: Any) -> int:
        index = int(value)
        scope, limit = self._limits[field.split("_")[0]]
        if limit is not None and not 0 <= index < limit:
            raise ValueError(
                f"scripted fault names {field} {index}, but the deployment "
                f"has {scope}={limit} (ids are 0-based)"
            )
        return index

    @staticmethod
    def _outage(t: Any, duration: Any, kind: str, target: int,
                peer: Optional[int] = None,
                value: Optional[float] = None) -> List[FaultEvent]:
        begin = FaultEvent(float(t), kind, "begin", target, peer, value)
        if duration is None:
            return [begin]
        duration_s = float(duration)
        if duration_s <= 0:
            raise ValueError(f"fault duration must be positive, got {duration!r}")
        return [begin,
                FaultEvent(begin.time + duration_s, kind, "end", target, peer, value)]

    def _expand(self, entry: Sequence[Any]) -> List[FaultEvent]:
        kind = str(entry[0]) if len(entry) else ""
        form = _FORMS.get(kind)
        if form is None:
            raise ValueError(f"unknown chaos kind {kind!r} in chaos_schedule entry "
                             f"{entry!r}; known kinds: {tuple(_FORMS)}")
        if len(entry) != 2 + len(form):
            raise ValueError(
                f"{kind!r} entries are (kind, t, {', '.join(form)}), got {entry!r}")
        fields = dict(zip(form, entry[2:]))
        ids = {name: self._checked_id(name, value)
               for name, value in fields.items()
               if name.startswith(("client", "shard"))}
        peer: Optional[int] = None
        value: Optional[float] = None
        if kind == "move":
            return [FaultEvent(float(entry[1]), "move", "apply", ids["client_id"],
                               value=float(ids["shard_id"]))]
        if kind == "partition":
            target, peer = sorted(ids.values())
            if target == peer:
                raise ValueError(f"partition needs two distinct hubs, got {entry!r}")
        elif kind == "straggler":
            target = ids["shard_id"]
            value = float(fields["factor"])
            if value < 1.0:
                raise ValueError(
                    f"straggler factor must be >= 1 (it inflates service time), "
                    f"got {fields['factor']!r}")
        else:
            target = ids["client_id"]
        return self._outage(entry[1], fields["duration"], kind, target, peer, value)

    @staticmethod
    def _validate_alternation(ordered: Sequence[FaultEvent]) -> None:
        expected: Dict[Tuple[str, int, Optional[int]], str] = {}
        for event in ordered:
            if event.phase == "apply":
                continue
            key = (event.kind, event.target, event.peer)
            if event.phase != expected.get(key, "begin"):
                raise ValueError(
                    f"overlapping scripted {event.kind!r} outages on target "
                    f"{event.target}: unexpected {event.phase!r} at t={event.time} "
                    "(each outage must end before the next one starts, and an "
                    "open-ended one must be its target's last)"
                )
            expected[key] = "end" if event.phase == "begin" else "begin"

    def peek(self, lane: Optional[int] = None) -> Optional[FaultEvent]:
        events = self._lanes.get(lane)
        return events[0] if events else None

    def advance(self, lane: Optional[int] = None) -> None:
        events = self._lanes.get(lane)
        if not events:
            raise LookupError(f"no pending fault event on lane {lane}")
        events.popleft()

    def _half(self, crashes: bool) -> Optional[Dict[str, Any]]:
        lanes = {lane: [_event_to_list(e) for e in events]
                 for lane, events in self._lanes.items()
                 if (lane is not None) == crashes}
        if not lanes:
            return None
        if crashes:
            return {"name": self.name,
                    "timelines": {str(shard): rows for shard, rows in lanes.items()}}
        return {"name": self.name, "events": lanes[None]}

    def _load_half(self, crashes: bool, half: Dict[str, Any]) -> None:
        if crashes:
            for shard, timeline in half["timelines"].items():
                self._lanes[int(shard)] = deque(
                    _crash_from_list(raw, int(shard)) for raw in timeline)
        else:
            self._lanes[None] = deque(_event_from_list(raw) for raw in half["events"])


class StochasticFaults(FaultPlan):
    """Exponential MTBF/MTTR churn, one seeded stream per ``(kind, target)``.

    Every configured pair — ``flap``/``leave`` per client, ``crash`` per
    shard — alternates healthy/faulted phases whose lengths are
    exponential draws (mean ``mtbf_s`` while healthy, ``mttr_s`` while
    faulted) from its own generator derived from the seed, so the churn
    timeline is reproducible and independent of how often the engine
    peeks at it.
    """

    name = "stochastic"

    #: Seed-stream spacing between clients and between shards (distinct
    #: primes, and ``crash_seed`` is its own base, so client draws never
    #: collide with shard-failure draws), and between client fault kinds.
    _CLIENT_STRIDE = 6151
    _SHARD_STRIDE = 7919
    _LEAVE_OFFSET = 1_000_003

    def __init__(
        self,
        num_clients: int,
        seed: int = 0,
        flap_mtbf_s: Optional[float] = None,
        flap_mttr_s: float = 0.05,
        leave_mtbf_s: Optional[float] = None,
        leave_mttr_s: float = 0.5,
        crash_mtbf_s: Optional[float] = None,
        crash_mttr_s: float = 1.0,
        crash_seed: int = 0,
    ) -> None:
        if num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {num_clients}")
        self.num_clients = int(num_clients)
        self.seed = int(seed)
        #: kind -> (mtbf_s, mttr_s, base seed, per-target seed stride)
        self._families: Dict[str, Tuple[float, float, int, int]] = {}
        for kind, mtbf, mttr, base, stride in (
            ("flap", flap_mtbf_s, flap_mttr_s, self.seed, self._CLIENT_STRIDE),
            ("leave", leave_mtbf_s, leave_mttr_s, self.seed + self._LEAVE_OFFSET,
             self._CLIENT_STRIDE),
            ("crash", crash_mtbf_s, crash_mttr_s, int(crash_seed), self._SHARD_STRIDE),
        ):
            if mtbf is not None and mtbf <= 0:
                raise ValueError(f"{kind} mtbf_s must be positive (or None), got {mtbf}")
            if mttr <= 0:
                raise ValueError(f"{kind} mttr_s must be positive, got {mttr}")
            if mtbf is not None:
                self._families[kind] = (float(mtbf), float(mttr), base, stride)
        if not self._families:
            raise ValueError(
                "at least one of flap_mtbf_s / leave_mtbf_s / crash_mtbf_s must be set")
        #: Live streams, keyed ``(kind, target)``, one table per run-record
        #: half: ``True`` holds the crash streams, ``False`` the client ones.
        self._rngs: Dict[bool, Dict[Tuple[str, int], np.random.Generator]] = {
            True: {}, False: {}}
        self._next: Dict[bool, Dict[Tuple[str, int], FaultEvent]] = {
            True: {}, False: {}}

    def _rng(self, kind: str, target: int) -> np.random.Generator:
        rngs = self._rngs[kind == "crash"]
        rng = rngs.get((kind, target))
        if rng is None:
            _, _, base, stride = self._families[kind]
            rng = np.random.default_rng(base + stride * (target + 1))
            rngs[(kind, target)] = rng
        return rng

    def _ensure(self, kind: str, target: int) -> FaultEvent:
        pending = self._next[kind == "crash"]
        event = pending.get((kind, target))
        if event is None:
            first = self._rng(kind, target).exponential(self._families[kind][0])
            event = FaultEvent(first, kind, "begin", target)
            pending[(kind, target)] = event
        return event

    def peek(self, lane: Optional[int] = None) -> Optional[FaultEvent]:
        if lane is not None:
            return self._ensure("crash", lane) if "crash" in self._families else None
        candidates = [self._ensure(kind, client)
                      for kind in self._families if kind != "crash"
                      for client in range(self.num_clients)]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.sort_key)

    def advance(self, lane: Optional[int] = None) -> None:
        current = self.peek(lane)
        if current is None:
            raise LookupError(f"no pending fault event on lane {lane}")
        mtbf_s, mttr_s, _, _ = self._families[current.kind]
        rng = self._rng(current.kind, current.target)
        if current.phase == "begin":
            delay, phase = rng.exponential(mttr_s), "end"
        else:
            delay, phase = rng.exponential(mtbf_s), "begin"
        self._next[lane is not None][(current.kind, current.target)] = FaultEvent(
            current.time + delay, current.kind, phase, current.target)

    def _half(self, crashes: bool) -> Optional[Dict[str, Any]]:
        """Run records key a crash stream ``"<shard>"`` and a client stream
        ``"<kind>:<client>"``."""
        if not any((kind == "crash") == crashes for kind in self._families):
            return None

        def label(key: Tuple[str, int]) -> str:
            return str(key[1]) if crashes else f"{key[0]}:{key[1]}"

        return {
            "name": self.name,
            "rngs": {label(key): rng.bit_generator.state
                     for key, rng in self._rngs[crashes].items()},
            "next": {label(key): _event_to_list(event)
                     for key, event in self._next[crashes].items()},
        }

    def _load_half(self, crashes: bool, half: Dict[str, Any]) -> None:
        def key_of(label: str) -> Tuple[str, int]:
            kind, _, target = label.rpartition(":")
            return (kind or "crash", int(target))

        self._rngs[crashes] = {}
        for label, rng_state in half["rngs"].items():
            # The seed is irrelevant here: the restored bit-generator
            # state on the next line is the checkpointed stream position.
            rng = np.random.default_rng(0)
            rng.bit_generator.state = rng_state
            self._rngs[crashes][key_of(label)] = rng
        self._next[crashes] = {
            key_of(label): (_crash_from_list(raw, int(label)) if crashes
                            else _event_from_list(raw))
            for label, raw in half["next"].items()
        }


class _MixedFaults(FaultPlan):
    """Shard crashes from one plan, client/network faults from another —
    the scripted-with-stochastic combinations ``TrainingConfig`` allows."""

    def __init__(self, crashes: FaultPlan, chaos: FaultPlan) -> None:
        #: The plan serving each run-record half (crash lanes: ``True``).
        self._parts = {True: crashes, False: chaos}

    def peek(self, lane: Optional[int] = None) -> Optional[FaultEvent]:
        return self._parts[lane is not None].peek(lane)

    def advance(self, lane: Optional[int] = None) -> None:
        self._parts[lane is not None].advance(lane)

    def _half(self, crashes: bool) -> Optional[Dict[str, Any]]:
        return self._parts[crashes]._half(crashes)

    def _load_half(self, crashes: bool, half: Dict[str, Any]) -> None:
        self._parts[crashes]._load_half(crashes, half)


def build_fault_plan(config: TrainingConfig, num_clients: int) -> Optional[FaultPlan]:
    """Construct the fault plan a :class:`TrainingConfig` describes.

    Returns ``None`` when no timed fault is configured (per-message chaos
    lives in :class:`~repro.chaos.MessageChaos`, not here).  The config
    makes each scripted schedule exclusive with its stochastic knobs;
    stochastic streams derive from the master seed, so a run's fault
    pattern is reproducible.
    """
    scripted: Optional[FaultPlan] = None
    if config.chaos_schedule or config.failure_schedule:
        scripted = ScheduledFaults(
            config.chaos_schedule or (), config.failure_schedule or (),
            num_servers=config.num_servers, num_clients=num_clients)
    if (config.failure_mtbf_s is None and config.chaos_flap_mtbf_s is None
            and config.chaos_leave_mtbf_s is None):
        return scripted
    stochastic = StochasticFaults(
        num_clients=num_clients,
        seed=config.seed + 393_241,
        flap_mtbf_s=config.chaos_flap_mtbf_s,
        flap_mttr_s=config.chaos_flap_mttr_s,
        leave_mtbf_s=config.chaos_leave_mtbf_s,
        leave_mttr_s=config.chaos_leave_mttr_s,
        crash_mtbf_s=config.failure_mtbf_s,
        crash_mttr_s=config.failure_mttr_s,
        crash_seed=config.seed + 104_729,
    )
    if scripted is None:
        return stochastic
    if config.failure_schedule:
        return _MixedFaults(crashes=scripted, chaos=stochastic)
    return _MixedFaults(crashes=stochastic, chaos=scripted)
