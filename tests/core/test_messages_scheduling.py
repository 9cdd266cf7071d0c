"""Tests for the activation/gradient messages and the parameter-scheduling queue."""

import numpy as np
import pytest

from repro.core.messages import ActivationMessage, GradientMessage
from repro.core.scheduling import (
    FIFOPolicy,
    ParameterQueue,
    RoundRobinPolicy,
    StalenessPriorityPolicy,
    WeightedFairPolicy,
    get_policy,
)


def make_message(system_id=0, batch_id=0, batch_size=4, created=0.0, arrival=0.0):
    return ActivationMessage(
        end_system_id=system_id,
        batch_id=batch_id,
        activations=np.zeros((batch_size, 2, 2, 2)),
        labels=np.zeros(batch_size, dtype=np.int64),
        created_at=created,
        arrival_time=arrival,
    )


class TestMessages:
    def test_activation_message_size_and_batch(self):
        message = make_message(batch_size=3)
        assert message.batch_size == 3
        # The wire form is the {"activations", "labels"} dict: arrays + 64 B
        # of framing (the figure the link and the traffic log charge).
        assert message.size_bytes == 3 * 8 * 8 + 3 * 8 + 64

    def test_activation_message_label_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            ActivationMessage(0, 0, np.zeros((4, 2)), np.zeros(3))

    def test_queueing_delay_and_staleness(self):
        message = make_message(created=1.0, arrival=1.5)
        assert message.queueing_delay == pytest.approx(0.5)
        assert message.staleness(3.0) == pytest.approx(2.0)

    def test_sequence_numbers_increase(self):
        first = make_message()
        second = make_message()
        assert second.sequence > first.sequence

    def test_gradient_message_size(self):
        message = GradientMessage(0, 0, np.zeros((4, 8)), loss=1.0)
        assert message.size_bytes == 4 * 8 * 8


class TestPolicies:
    def test_fifo_orders_by_arrival(self):
        pending = [make_message(0, 0, arrival=3.0), make_message(1, 1, arrival=1.0)]
        assert FIFOPolicy().drain_order(pending)[0] == 1

    def test_fifo_ties_broken_by_sequence(self):
        first = make_message(0, 0, arrival=1.0)
        second = make_message(1, 1, arrival=1.0)
        assert FIFOPolicy().drain_order([second, first])[0] == 1

    def test_round_robin_alternates_between_systems(self):
        policy = RoundRobinPolicy()
        pending = [make_message(0, i) for i in range(3)] + [make_message(1, 10 + i) for i in range(3)]
        served = []
        for _ in range(4):
            index = policy.drain_order(pending)[0]
            message = pending.pop(index)
            policy.notify_processed(message)
            served.append(message.end_system_id)
        assert served == [0, 1, 0, 1]

    def test_round_robin_skips_empty_systems(self):
        policy = RoundRobinPolicy()
        policy.notify_processed(make_message(0, 0))
        pending = [make_message(0, 1)]
        assert pending[policy.drain_order(pending)[0]].end_system_id == 0

    def test_round_robin_continues_cycle_when_last_served_absent(self):
        """Regression: when the last-served system has nothing pending the
        cycle must continue from the next id after it, not restart at the
        lowest id (which hands low-numbered systems extra turns)."""
        policy = RoundRobinPolicy()
        policy.notify_processed(make_message(1, 0))
        pending = [make_message(0, 1), make_message(2, 2)]
        assert pending[policy.drain_order(pending)[0]].end_system_id == 2

    def test_round_robin_wraps_after_highest_id(self):
        policy = RoundRobinPolicy()
        policy.notify_processed(make_message(5, 0))
        pending = [make_message(0, 1), make_message(3, 2)]
        assert pending[policy.drain_order(pending)[0]].end_system_id == 0

    def test_staleness_policy_prefers_oldest_creation(self):
        fresh = make_message(0, 0, created=5.0, arrival=5.1)
        stale = make_message(1, 1, created=1.0, arrival=6.0)
        assert StalenessPriorityPolicy().drain_order([fresh, stale])[0] == 1

    def test_weighted_fair_prefers_least_served_system(self):
        policy = WeightedFairPolicy()
        policy.notify_processed(make_message(0, 0, batch_size=100))
        pending = [make_message(0, 1, arrival=0.0), make_message(1, 2, arrival=10.0)]
        assert pending[policy.drain_order(pending)[0]].end_system_id == 1

    def test_get_policy_factory(self):
        assert isinstance(get_policy("fifo"), FIFOPolicy)
        assert isinstance(get_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(get_policy("staleness"), StalenessPriorityPolicy)
        assert isinstance(get_policy("weighted_fair"), WeightedFairPolicy)
        with pytest.raises(KeyError, match="unknown policy"):
            get_policy("bogus")


class TestParameterQueue:
    def test_push_pop_fifo(self):
        queue = ParameterQueue()
        queue.push(make_message(0, 0, arrival=2.0))
        queue.push(make_message(1, 1, arrival=1.0))
        assert len(queue) == 2
        assert queue.pop(now=2.0).batch_id == 1
        assert queue.pop(now=2.0).batch_id == 0
        assert not queue

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            ParameterQueue().pop(now=0.0)

    def test_max_size_drops(self):
        queue = ParameterQueue(max_size=1)
        assert queue.push(make_message(0, 0))
        assert not queue.push(make_message(0, 1))
        assert queue.dropped == 1

    def test_drain_returns_policy_order(self):
        queue = ParameterQueue(policy=StalenessPriorityPolicy())
        queue.push(make_message(0, 0, created=5.0))
        queue.push(make_message(1, 1, created=1.0))
        queue.push(make_message(2, 2, created=3.0))
        drained = queue.drain(now=10.0)
        assert [message.batch_id for message in drained] == [1, 2, 0]

    def test_waiting_time_statistics(self):
        queue = ParameterQueue()
        queue.push(make_message(0, 0, arrival=1.0))
        queue.pop(now=4.0)
        assert queue.mean_waiting_time == pytest.approx(3.0)

    def test_fairness_index_balanced_vs_skewed(self):
        balanced = ParameterQueue()
        for system in (0, 1):
            balanced.push(make_message(system, system, batch_size=10))
        balanced.drain(now=0.0)
        assert balanced.fairness_index() == pytest.approx(1.0)

        skewed = ParameterQueue()
        skewed.push(make_message(0, 0, batch_size=100))
        skewed.push(make_message(1, 1, batch_size=1))
        skewed.drain(now=0.0)
        assert skewed.fairness_index() < 0.6

    def test_fairness_index_empty_queue_is_one(self):
        assert ParameterQueue().fairness_index() == 1.0

    def test_processed_per_system(self):
        queue = ParameterQueue()
        queue.push(make_message(0, 0, batch_size=4))
        queue.push(make_message(0, 1, batch_size=4))
        queue.push(make_message(1, 2, batch_size=4))
        queue.drain(now=0.0)
        assert queue.processed_per_system() == {0: 8, 1: 4}

    def test_reset_clears_everything(self):
        queue = ParameterQueue(policy=WeightedFairPolicy())
        queue.push(make_message(0, 0))
        queue.drain(now=0.0)
        queue.reset()
        assert len(queue) == 0
        assert queue.mean_waiting_time == 0.0
        assert queue.processed_per_system() == {}

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            ParameterQueue(max_size=0)

    def test_peek_arrivals(self):
        queue = ParameterQueue()
        queue.push(make_message(0, 0, arrival=1.5))
        assert queue.peek_arrivals() == [1.5]

    def test_flush_discards_without_statistics(self):
        queue = ParameterQueue(max_size=2)
        queue.push(make_message(0, 0, batch_size=4))
        queue.push(make_message(1, 1, batch_size=4))
        flushed = queue.flush()
        assert [message.batch_id for message in flushed] == [0, 1]
        assert len(queue) == 0
        # Unlike drain(), flush() records nothing.
        assert queue.mean_waiting_time == 0.0
        assert queue.processed_per_system() == {}
