"""Discrete-event simulation engine.

The spatio-temporal split-learning server receives smashed activations
from geographically distributed end-systems; the paper notes that
parameters from far-away end-systems "arrive late or sparsely", which is
why a scheduling queue is needed.  This engine provides the simulated
clock and event ordering those experiments need.

The design is a classic event-calendar simulator: events carry a
timestamp, a priority (for deterministic tie-breaking) and a callback;
:meth:`Simulator.run` pops events in time order and executes them, letting
callbacks schedule further events.

The calendar is a heap of ``(time, priority, sequence, event)`` tuples;
``sequence`` is unique, so the heap orders entries with C-level float/int
comparisons and never compares an :class:`Event`, callback or payload.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator"]


@dataclass(eq=False)
class Event:
    """A scheduled occurrence in simulated time.

    The handle :meth:`Simulator.schedule` returns and
    :meth:`Simulator.cancel` tombstones.  Events fire in ``(time,
    priority, sequence)`` order (ties: the order they were scheduled in);
    that ordering lives in the heap entries — events are not comparable.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[["Simulator"], None]
    label: str = ""
    payload: Any = None
    cancelled: bool = False


class Simulator:
    """Event-calendar discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(2.0, lambda s: fired.append(s.now))
    >>> sim.schedule(1.0, lambda s: fired.append(s.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._stop_requested = False

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event at {time:.6f}s, simulation time is already "
                f"{self._now:.6f}s"
            )
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, label, payload)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, priority, label, payload)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Stop once the next event's time exceeds this value (the clock
            is still advanced to ``until``).
        max_events:
            Stop after executing this many events (safety valve for
            self-perpetuating schedules).

        Returns
        -------
        The simulated time when the run stopped.
        """
        executed = 0
        while self._queue:
            if self._stop_requested:
                break
            if max_events is not None and executed >= max_events:
                break
            event = self._queue[0][3]
            if event.cancelled:
                # A cancelled event is discarded without running its
                # callback or advancing the clock — retracting a pending
                # timeout must not stretch the simulation's end time.
                heapq.heappop(self._queue)
                continue
            if until is not None and event.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = event.time
            event.callback(self)
            self._processed += 1
            executed += 1
        if until is not None and self._now < until and not self._stop_requested:
            self._now = until
        return self._now

    def cancel(self, event: Event) -> None:
        """Retract a scheduled event.

        The event stays in the calendar but is discarded when reached —
        its callback never runs and, unlike a fired no-op guard event,
        it does not advance the clock (a retracted timeout must not
        stretch the simulation's end time).  Cancelling an event that
        already ran is a no-op.
        """
        event.cancelled = True

    def stop(self) -> None:
        """Request that :meth:`run` return once the current event finishes.

        Used by callbacks that decide the simulation is over (e.g. a
        training run hitting its simulated-time budget) while later events
        are still on the calendar.  The stop is terminal for this
        simulation: the abandoned events stay queued for inspection
        (:attr:`pending_events`) until :meth:`reset` discards them along
        with the rest of the simulator state.
        """
        self._stop_requested = True

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been requested."""
        return self._stop_requested

    def reset(self) -> None:
        """Clear all pending events and reset the clock to zero."""
        # repro-lint: ignore[RL003] -- simulator event heap, not a drop-accounted queue
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self._stop_requested = False
