"""Span-based tracing of message lifecycles and control-plane events.

The engine emits spans and instants into a bounded ring buffer, which
exports as Chrome trace-event JSON — load ``trace.json`` in Perfetto /
``chrome://tracing`` and the run reads as a timeline: one row per client
(``tid``), one process per shard (``pid``).  The message events are the
history of the engine's outstanding-work ledger, one per transition
(``_TRANSITION_EVENTS`` in :mod:`repro.core.engine`):

=================  =======  ==========================================
event              kind     emitted when
=================  =======  ==========================================
``uplink``         span     a batch enters ``uplink`` (``attempts``
                            arg when the transfer was retried)
``queue-admit``    instant  a batch enters ``queued``
``nack``           span     a batch enters ``awaiting_nack``
``downlink``       span     a batch enters ``downlink``
``nack-lost``      instant  exit: the NACK was lost
``failover-drop``  instant  exit: a dead or restarted hub shed the copy
``queue-wait``     span     not a transition: a drained message's wait
``server-step``    span     not a transition: one per drain
``queue-drop``     instant  not a transition: a full queue shed a copy
``dedup``          instant  not a transition: a duplicate was absorbed
=================  =======  ==========================================

A retry has no event of its own, and neither has a lost transfer
(``awaiting_giveup``).  The control plane adds ``round-start``,
``weight-sync`` (a span), ``quorum-sync`` / ``sync-timeout``,
``checkpoint``, ``shard-crash``, ``shard-recovery``, ``failover`` and
``chaos-<kind>`` instants.

Sampling is *seeded and order-independent*: whether a message is traced
depends only on ``(seed, key)`` through a splitmix64 mix — the engine
keys on the run-local ``(client, batch)`` pair — never on RNG state or
call order, so the same seed always yields the identical trace (pinned
by ``tests/obs/test_tracing.py``) and tracing consumes nothing from the
simulation's random streams.

All timestamps are **sim-time seconds** scaled to microseconds at
export; the module never reads a wall clock (RL002-clean).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "validate_chrome_trace",
]

_MASK64 = (1 << 64) - 1

#: Trace-event phases we emit: complete spans and instant events.
_PHASES = ("X", "i")


def _mix64(seed: int, key: int) -> int:
    """splitmix64 finalizer over (seed, key) — stateless, order-free."""
    z = (key + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class TraceEvent:
    """One Chrome trace event (phase ``X`` span or ``i`` instant)."""

    __slots__ = ("name", "cat", "ph", "ts_us", "dur_us", "pid", "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts_us: float,
                 dur_us: Optional[float], pid: int, tid: int,
                 args: Optional[Dict[str, object]]) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.pid = pid
        self.tid = tid
        self.args = args

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            row["dur"] = self.dur_us if self.dur_us is not None else 0.0
        elif self.ph == "i":
            row["s"] = "t"  # instant scope: thread
        if self.args:
            row["args"] = self.args
        return row


class Tracer:
    """Sampled, bounded event sink with Chrome trace-event export.

    ``capacity`` bounds memory: the ring keeps the *newest* events and
    counts evictions in :attr:`dropped`, so a long run degrades to "the
    end of the story" rather than OOM.  Control-plane events share the
    buffer with message spans; both are cheap (one object append).
    """

    enabled: bool = True

    def __init__(self, sample_rate: float = 1.0, seed: int = 0,
                 capacity: int = 65536) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        #: sampling threshold precomputed so ``sampled`` is one compare.
        self._threshold = int(sample_rate * (_MASK64 + 1))

    # -- sampling ------------------------------------------------------------

    def sampled(self, key: int) -> bool:
        """Deterministic per-message decision from ``(seed, key)``.

        Rates 0 and 1 short-circuit before the mix: ``sampled`` runs per
        message on the engine's hot path, and full tracing (the common
        debugging mode) should not pay the hash per event.
        """
        threshold = self._threshold
        if threshold > _MASK64:
            return True
        if threshold == 0:
            return False
        return _mix64(self.seed, key) < threshold

    # -- emission ------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted from the ring by newer ones."""
        return self.emitted - len(self.events)

    def span(self, name: str, cat: str, start_s: float, end_s: float,
             pid: int = 0, tid: int = 0,
             args: Optional[Dict[str, object]] = None) -> None:
        self.events.append(TraceEvent(
            name, cat, "X", start_s * 1e6, max(0.0, (end_s - start_s)) * 1e6,
            pid, tid, args))
        self.emitted += 1

    def instant(self, name: str, cat: str, t_s: float,
                pid: int = 0, tid: int = 0,
                args: Optional[Dict[str, object]] = None) -> None:
        self.events.append(TraceEvent(name, cat, "i", t_s * 1e6, None,
                                      pid, tid, args))
        self.emitted += 1

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The exported payload (``trace.json``), Perfetto-loadable."""
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "sim-time",
                "sample_rate": self.sample_rate,
                "seed": self.seed,
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
            "traceEvents": [event.as_dict() for event in self.events],
        }


class NullTracer(Tracer):
    """Inert tracer: never samples, never records, exports empty."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sample_rate=0.0, seed=0, capacity=1)

    def sampled(self, key: int) -> bool:
        return False

    def span(self, name: str, cat: str, start_s: float, end_s: float,
             pid: int = 0, tid: int = 0,
             args: Optional[Dict[str, object]] = None) -> None:
        pass

    def instant(self, name: str, cat: str, t_s: float,
                pid: int = 0, tid: int = 0,
                args: Optional[Dict[str, object]] = None) -> None:
        pass


NULL_TRACER = NullTracer()


def validate_chrome_trace(payload: object) -> List[str]:
    """Schema-check an exported trace; returns problems (empty = valid).

    Checks the subset of the trace-event format we emit: a JSON object
    with a ``traceEvents`` list whose entries carry ``name``/``cat``
    strings, a known ``ph``, non-negative numeric ``ts`` (and ``dur``
    for spans), integer ``pid``/``tid``, and dict ``args`` when present.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"trace payload must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["trace payload is missing the traceEvents list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "cat"):
            if not isinstance(event.get(key), str):
                problems.append(f"{where}: missing string {key!r}")
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float)) or isinstance(dur, bool)
                    or dur < 0):
                problems.append(f"{where}: span needs non-negative dur")
        for key in ("pid", "tid"):
            value = event.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}: {key} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems
