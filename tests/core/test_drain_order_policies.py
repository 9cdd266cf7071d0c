"""Drain orders must match a one-selection-per-pop loop exactly.

A policy's only ordering decision is ``drain_order``; round-robin and
weighted-fair *simulate* their own feedback loops to produce it in
O(n log n).  :func:`select_reference` is a frozen copy of the per-pop
``select`` scans the policies used to carry beside it, and the pop loop
over it is the oracle.  These tests replay randomized backlogs — uneven
per-system message counts, shuffled arrival order, varying batch sizes,
and pre-seeded policy state — through both and require identical pop
sequences and identical post-drain policy state.
"""

import bisect

import numpy as np
import pytest

from repro.core.messages import ActivationMessage
from repro.core.scheduling import (
    FIFOPolicy,
    ParameterQueue,
    RoundRobinPolicy,
    StalenessPriorityPolicy,
    WeightedFairPolicy,
    get_policy,
)


def make_messages(rng, num_messages, num_systems, max_batch=8):
    """A shuffled backlog with collision-free arrival times."""
    messages = []
    arrivals = rng.permutation(num_messages).astype(float)
    for index in range(num_messages):
        batch = int(rng.integers(1, max_batch + 1))
        message = ActivationMessage(
            end_system_id=int(rng.integers(0, num_systems)),
            batch_id=index,
            activations=np.zeros((batch, 2)),
            labels=np.zeros(batch, dtype=np.int64),
            created_at=float(rng.random()),
            arrival_time=float(arrivals[index]) + float(rng.random()) * 0.5,
        )
        messages.append(message)
    return messages


def select_reference(policy, pending):
    """Index of the message ``policy`` pops next: the frozen per-pop scan."""
    if isinstance(policy, FIFOPolicy):
        return min(range(len(pending)),
                   key=lambda index: (pending[index].arrival_time, pending[index].sequence))
    if isinstance(policy, StalenessPriorityPolicy):
        return min(range(len(pending)),
                   key=lambda index: (pending[index].created_at, pending[index].sequence))
    if isinstance(policy, RoundRobinPolicy):
        system_ids = sorted({message.end_system_id for message in pending})
        if policy._last_served is None:
            target = system_ids[0]
        else:
            position = bisect.bisect_right(system_ids, policy._last_served)
            target = system_ids[position % len(system_ids)]
        candidates = [
            index for index, message in enumerate(pending)
            if message.end_system_id == target
        ]
        return min(candidates, key=lambda index: pending[index].sequence)
    if isinstance(policy, WeightedFairPolicy):
        return min(
            range(len(pending)),
            key=lambda index: (
                policy._processed_samples[pending[index].end_system_id],
                pending[index].arrival_time,
                pending[index].sequence,
            ),
        )
    raise TypeError(f"no reference scan for {type(policy).__name__}")


def pop_loop_reference(policy, messages):
    """The one-selection-per-pop drain over :func:`select_reference`."""
    pending = list(messages)
    order = []
    while pending:
        index = select_reference(policy, pending)
        message = pending.pop(index)
        policy.notify_processed(message)
        order.append(message.sequence)
    return order


def seeded_policies(name, seed_messages):
    """Two identically-seeded policy instances (some state pre-populated)."""
    fast, reference = get_policy(name), get_policy(name)
    for message in seed_messages:
        fast.notify_processed(message)
        reference.notify_processed(message)
    return fast, reference


@pytest.mark.parametrize("name", ["round_robin", "weighted_fair", "fifo", "staleness"])
@pytest.mark.parametrize("trial", range(5))
def test_drain_order_matches_pop_loop(name, trial):
    rng = np.random.default_rng(100 * trial + hash(name) % 97)
    num_systems = int(rng.integers(2, 9))
    messages = make_messages(rng, num_messages=int(rng.integers(5, 40)),
                             num_systems=num_systems)
    # Pre-seed the stateful policies mid-cycle, as a real drain would be.
    seed = make_messages(rng, num_messages=3, num_systems=num_systems)
    fast, reference = seeded_policies(name, seed)

    order = fast.drain_order(list(messages))
    assert order is not None
    assert sorted(order) == list(range(len(messages)))
    fast_sequence = [messages[index].sequence for index in order]
    assert fast_sequence == pop_loop_reference(reference, messages)


@pytest.mark.parametrize("name", ["round_robin", "weighted_fair"])
def test_drain_order_does_not_mutate_policy_state(name):
    rng = np.random.default_rng(9)
    messages = make_messages(rng, num_messages=12, num_systems=3)
    policy = get_policy(name)
    before = (dict(policy.__dict__.get("_processed_samples", {})),
              policy.__dict__.get("_last_served"))
    policy.drain_order(messages)
    after = (dict(policy.__dict__.get("_processed_samples", {})),
             policy.__dict__.get("_last_served"))
    assert before == after


@pytest.mark.parametrize("name", ["round_robin", "weighted_fair"])
def test_queue_drain_equals_sequential_pops(name):
    """End-to-end: ParameterQueue.drain == repeated ParameterQueue.pop."""
    rng = np.random.default_rng(31)
    messages = make_messages(rng, num_messages=25, num_systems=4)

    drained_queue = ParameterQueue(policy=get_policy(name))
    popped_queue = ParameterQueue(policy=get_policy(name))
    for message in messages:
        drained_queue.push(message)
        popped_queue.push(message)
    now = max(message.arrival_time for message in messages)

    drained = drained_queue.drain(now)
    popped = []
    while popped_queue:
        popped.append(popped_queue.pop(now))

    assert [m.sequence for m in drained] == [m.sequence for m in popped]
    assert drained_queue.processed_per_system() == popped_queue.processed_per_system()
    assert drained_queue.mean_waiting_time == pytest.approx(popped_queue.mean_waiting_time)


def test_round_robin_continues_cycle_after_drain():
    """Post-drain, _last_served sits where the pop loop would leave it."""
    rng = np.random.default_rng(4)
    messages = make_messages(rng, num_messages=10, num_systems=3)
    fast = ParameterQueue(policy=RoundRobinPolicy())
    slow = ParameterQueue(policy=RoundRobinPolicy())
    for message in messages:
        fast.push(message)
        slow.push(message)
    now = max(message.arrival_time for message in messages)
    fast.drain(now)
    while slow:
        slow.pop(now)
    assert fast.policy._last_served == slow.policy._last_served

    # A follow-up backlog must continue the cycle identically.
    follow_up = make_messages(rng, num_messages=6, num_systems=3)
    for message in follow_up:
        fast.push(message)
        slow.push(message)
    now = max(message.arrival_time for message in follow_up)
    fast_order = [m.sequence for m in fast.drain(now)]
    slow_order = []
    while slow:
        slow_order.append(slow.pop(now).sequence)
    assert fast_order == slow_order
