"""The server-side parameter-scheduling queue (Fig. 2 of the paper).

The paper observes that, with geo-distributed end-systems, "the
parameters from the end-system can arrive at the server lately or
sparsely.  Then, the learning performance can be biased due to the
differences of arrivals from end-systems.  Thus, parameter scheduling is
required ... a queue data structure needs to be defined."

This module defines that queue.  :class:`ParameterQueue` buffers
:class:`~repro.core.messages.ActivationMessage` objects as they arrive
and hands them to the server in an order chosen by a pluggable
:class:`SchedulingPolicy`:

* :class:`FIFOPolicy` — strict arrival order (the naive baseline; biased
  toward nearby end-systems because their messages arrive first).
* :class:`RoundRobinPolicy` — alternate between end-systems regardless of
  arrival order, equalizing the number of processed updates.
* :class:`StalenessPriorityPolicy` — process the *oldest created* message
  first, bounding the gradient staleness of far-away end-systems.
* :class:`WeightedFairPolicy` — pick the end-system with the fewest
  processed samples so far, equalizing data contribution.

A policy makes one decision, :meth:`SchedulingPolicy.drain_order`: a
batched drain takes the whole order, a per-message pop takes its head.
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict, deque
from typing import Dict, List, Optional

import numpy as np

from .messages import ActivationMessage

__all__ = [
    "SchedulingPolicy",
    "FIFOPolicy",
    "RoundRobinPolicy",
    "StalenessPriorityPolicy",
    "WeightedFairPolicy",
    "ParameterQueue",
    "get_policy",
    "jain_fairness_index",
]


def jain_fairness_index(counts) -> float:
    """Jain's fairness index of per-end-system contribution counts.

    1.0 means every end-system contributed equally; 1/M means a single
    end-system dominated.  Shared by the single queue's statistics and
    the multi-shard cluster rollup so the definition cannot diverge.
    """
    values = np.asarray(list(counts), dtype=np.float64)
    if values.size == 0 or values.sum() == 0:
        return 1.0
    return float(values.sum() ** 2 / (values.size * (values ** 2).sum()))


class SchedulingPolicy:
    """Chooses the order in which the server takes buffered messages."""

    def drain_order(self, pending: List[ActivationMessage]) -> List[int]:
        """Order (indices into ``pending``) in which to take every message.

        The one ordering decision of a policy: a drain takes the whole
        order, a single pop its first index.  Stateless policies whose
        choice is a fixed per-message sort key sort once — O(n log n).
        Stateful policies *simulate* their feedback loop over the drain
        without mutating their state (:meth:`notify_processed` still
        fires per taken message).
        """
        raise NotImplementedError

    def notify_processed(self, message: ActivationMessage) -> None:
        """Hook called after the selected message has been processed."""

    def reset(self) -> None:
        """Clear any internal state (called when the queue is reset)."""


class _KeySortedPolicy(SchedulingPolicy):
    """Base for stateless policies ordered by a fixed per-message key.

    Subclasses provide :meth:`_key`; the drain order sorts by it.
    """

    @staticmethod
    def _key(message: ActivationMessage):
        raise NotImplementedError

    def drain_order(self, pending: List[ActivationMessage]) -> List[int]:
        return sorted(range(len(pending)), key=lambda index: self._key(pending[index]))


class FIFOPolicy(_KeySortedPolicy):
    """First-come first-served by arrival time (ties broken by sequence number)."""

    @staticmethod
    def _key(message: ActivationMessage):
        return message.arrival_time, message.sequence


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through end-systems, skipping the ones with nothing pending."""

    def __init__(self) -> None:
        self._last_served: Optional[int] = None

    def drain_order(self, pending: List[ActivationMessage]) -> List[int]:
        """Walk the id cycle over the pending messages, state untouched.

        The cycle continues from the first id *after* the last-served
        system, even when that system has nothing pending — restarting
        at the lowest id would hand low-numbered systems an extra turn
        every time a gap appears in the arrivals.  Each system's
        messages go in sequence order; a local ``last_served`` cursor
        walks the cycle, retiring systems as their groups empty.
        :meth:`ParameterQueue.drain` calls :meth:`notify_processed` per
        message afterwards, which leaves ``_last_served`` on the last
        system served.
        """
        groups: Dict[int, deque] = {}
        for index in sorted(range(len(pending)),
                            key=lambda position: pending[position].sequence):
            groups.setdefault(pending[index].end_system_id, deque()).append(index)
        system_ids = sorted(groups)
        last_served = self._last_served
        order: List[int] = []
        while system_ids:
            if last_served is None:
                position = 0
            else:
                position = bisect.bisect_right(system_ids, last_served) % len(system_ids)
            target = system_ids[position]
            order.append(groups[target].popleft())
            last_served = target
            if not groups[target]:
                system_ids.pop(position)
        return order

    def notify_processed(self, message: ActivationMessage) -> None:
        self._last_served = message.end_system_id

    def reset(self) -> None:
        self._last_served = None


class StalenessPriorityPolicy(_KeySortedPolicy):
    """Process the message whose activations were *created* earliest.

    This bounds staleness: a far-away end-system whose messages were
    computed long ago (against old server weights) is served before fresher
    messages from nearby end-systems.
    """

    @staticmethod
    def _key(message: ActivationMessage):
        return message.created_at, message.sequence


class WeightedFairPolicy(SchedulingPolicy):
    """Serve the end-system with the fewest processed samples so far."""

    def __init__(self) -> None:
        self._processed_samples: Dict[int, int] = defaultdict(int)

    def drain_order(self, pending: List[ActivationMessage]) -> List[int]:
        """Simulate the fairness feedback loop with a heap, state untouched.

        Each step serves the message with the lowest ``(processed
        samples of its system, arrival_time, sequence)``; within one
        system that is always the lowest ``(arrival_time, sequence)``
        message, so only each system's *front* can win.  A heap over the
        fronts pops the winner in O(log M); the winner's simulated sample
        count is bumped and its system's next front re-enters the heap —
        n messages in O(n log M).
        """
        fronts: Dict[int, List[int]] = {}
        for index in sorted(
            range(len(pending)),
            key=lambda position: (pending[position].arrival_time,
                                  pending[position].sequence),
        ):
            fronts.setdefault(pending[index].end_system_id, []).append(index)
        processed = dict(self._processed_samples)
        heap = []
        cursors = {system_id: 0 for system_id in fronts}
        for system_id, indices in fronts.items():
            front = pending[indices[0]]
            heapq.heappush(heap, (processed.get(system_id, 0), front.arrival_time,
                                  front.sequence, indices[0]))
        order: List[int] = []
        while heap:
            _, _, _, index = heapq.heappop(heap)
            message = pending[index]
            order.append(index)
            system_id = message.end_system_id
            processed[system_id] = processed.get(system_id, 0) + message.batch_size
            cursors[system_id] += 1
            indices = fronts[system_id]
            if cursors[system_id] < len(indices):
                next_index = indices[cursors[system_id]]
                front = pending[next_index]
                heapq.heappush(heap, (processed[system_id], front.arrival_time,
                                      front.sequence, next_index))
        return order

    def notify_processed(self, message: ActivationMessage) -> None:
        self._processed_samples[message.end_system_id] += message.batch_size

    def reset(self) -> None:
        self._processed_samples.clear()


class ParameterQueue:
    """Arrival buffer between the network and the server's training step."""

    def __init__(self, policy: Optional[SchedulingPolicy] = None,
                 max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive (or None for unbounded)")
        self.policy = policy if policy is not None else FIFOPolicy()
        self.max_size = max_size
        self._pending: List[ActivationMessage] = []
        self._waiting_times: List[float] = []
        self._dropped = 0
        self._processed_per_system: Dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # Queue operations
    # ------------------------------------------------------------------ #
    def push(self, message: ActivationMessage) -> bool:
        """Enqueue a message; returns ``False`` if it was dropped (queue full)."""
        if self.max_size is not None and len(self._pending) >= self.max_size:
            self._dropped += 1
            return False
        self._pending.append(message)
        return True

    def charge_drop(self) -> None:
        """Charge one rejected arrival to this queue's drop counter.

        The admission path for a message refused *without* a push — a
        duplicate delivery deduplicated at the shard boundary.  Keeping
        the mutation here (an approved drop-accounting module) lets the
        ledger's ``queue`` term see every refused arrival while the
        paired ``deduped`` term cancels it — a duplicate is not new
        work, so it must not surface as a net drop.
        """
        self._dropped += 1

    def pop(self, now: float) -> ActivationMessage:
        """Dequeue the first message of the policy's order at time ``now``."""
        if not self._pending:
            raise IndexError("pop from an empty ParameterQueue")
        index = self.policy.drain_order(self._pending)[0]
        message = self._pending.pop(index)
        self._account(message, now)
        return message

    def _account(self, message: ActivationMessage, now: float) -> None:
        """Per-message bookkeeping shared by :meth:`pop` and :meth:`drain`."""
        self.policy.notify_processed(message)
        self._waiting_times.append(max(0.0, now - message.arrival_time))
        self._processed_per_system[message.end_system_id] += message.batch_size

    def drain(self, now: float) -> List[ActivationMessage]:
        """Take every pending message at time ``now``, in policy order.

        The policy hands back the full order
        (:meth:`SchedulingPolicy.drain_order`): the stateless ones (FIFO,
        staleness) as a single O(n log n) sort, the stateful ones
        (round-robin, weighted-fair) by *simulating* their own feedback
        loop without touching policy state — so the recorded statistics
        are those a pop loop would record.
        """
        if not self._pending:
            return []
        order = self.policy.drain_order(self._pending)
        messages = [self._pending[index] for index in order]
        self._pending.clear()
        for message in messages:
            self._account(message, now)
        return messages

    def flush(self) -> List[ActivationMessage]:
        """Remove and return every pending message *without* statistics.

        Unlike :meth:`drain` this records no waiting times, no
        per-system processed counts and no policy notifications — it is
        the shutdown path for messages that will never be trained on
        (e.g. arrivals still queued when a time-budgeted run stops), so
        they must not pollute the fairness and waiting statistics.
        """
        messages = list(self._pending)
        self._pending.clear()
        return messages

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def peek_arrivals(self) -> List[float]:
        """Arrival times of all pending messages (unsorted)."""
        return [message.arrival_time for message in self._pending]

    def reset(self) -> None:
        """Clear the queue, its statistics and the policy's state."""
        self._pending.clear()
        self._waiting_times.clear()
        self._dropped = 0
        self._processed_per_system.clear()
        self.policy.reset()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def dropped(self) -> int:
        """Messages rejected because the queue was full."""
        return self._dropped

    @property
    def mean_waiting_time(self) -> float:
        """Mean seconds a processed message spent waiting in the queue."""
        return float(np.mean(self._waiting_times)) if self._waiting_times else 0.0

    @property
    def waiting_times_recorded(self) -> int:
        """Messages whose queue wait has been recorded (drain/pop count).

        Multi-shard deployments weight each shard's mean by this count
        when rolling the per-shard queues up into one cluster-wide mean.
        """
        return len(self._waiting_times)

    def processed_per_system(self) -> Dict[int, int]:
        """Samples processed so far, keyed by end-system id."""
        return dict(self._processed_per_system)

    def fairness_index(self) -> float:
        """Jain's fairness index of the per-end-system processed sample counts.

        This is the headline metric of the scheduling ablation (the
        "bias" the paper warns about); see :func:`jain_fairness_index`.
        """
        return jain_fairness_index(self._processed_per_system.values())


_POLICIES = {
    "fifo": FIFOPolicy,
    "round_robin": RoundRobinPolicy,
    "staleness": StalenessPriorityPolicy,
    "weighted_fair": WeightedFairPolicy,
}


def get_policy(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by name.

    Known names: ``fifo``, ``round_robin``, ``staleness``, ``weighted_fair``.
    """
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r}; known policies: {known}") from None
