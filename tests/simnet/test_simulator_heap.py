"""The simulator's calendar: ``(time, priority, sequence, event)`` heap entries.

Ordering is decided by the first three fields — ``sequence`` is unique — so
an :class:`Event`, its callback and its payload are never compared.
"""

import pytest

from repro.simnet.events import Event, Simulator


class Unorderable:
    """Raises on any comparison the heap could attempt."""

    def _refuse(self, other):
        raise AssertionError("the heap compared an event's contents")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = None


class TestHeapOrder:
    def test_equal_time_and_priority_fire_in_schedule_order(self):
        simulator = Simulator()
        fired = []
        for index in range(50):
            simulator.schedule(1.0, lambda sim, index=index: fired.append(index),
                               priority=index % 3)
        simulator.run()
        expected = sorted(range(50), key=lambda index: (index % 3, index))
        assert fired == expected
        assert simulator.processed_events == 50

    def test_a_thousand_ties_never_compare_callbacks_or_payloads(self):
        simulator = Simulator()
        fired = []
        payloads = [{"n": 1}, None, lambda: None, Unorderable()]
        for index in range(1000):
            simulator.schedule(
                2.5, lambda sim, index=index: fired.append(index),
                payload=payloads[index % len(payloads)], label=str(index))
        simulator.run()
        assert fired == list(range(1000))
        assert simulator.now == 2.5

    def test_events_are_handles_not_sort_keys(self):
        simulator = Simulator()
        first = simulator.schedule(1.0, lambda sim: None)
        second = simulator.schedule(1.0, lambda sim: None)
        assert isinstance(first, Event)
        assert (first.time, first.priority, first.cancelled) == (1.0, 0, False)
        assert second.sequence == first.sequence + 1
        with pytest.raises(TypeError):
            first < second  # noqa: B015 -- ordering lives in the heap entry, not the Event
        assert first != second and first == first


class TestCancelAndLifecycle:
    def test_cancelled_head_is_skipped_without_moving_the_clock(self):
        simulator = Simulator()
        fired = []
        head = simulator.schedule(1.0, lambda sim: fired.append("head"))
        simulator.schedule(2.0, lambda sim: fired.append("kept"))
        tail = simulator.schedule(9.0, lambda sim: fired.append("tail"))
        simulator.cancel(head)
        simulator.cancel(tail)
        assert simulator.pending_events == 3  # tombstones stay until reached
        assert simulator.run() == 2.0  # not stretched to the cancelled 9.0
        assert fired == ["kept"]
        assert simulator.processed_events == 1
        assert simulator.pending_events == 0

    def test_cancelled_head_does_not_count_towards_max_events_or_until(self):
        simulator = Simulator()
        fired = []
        simulator.cancel(simulator.schedule(0.5, lambda sim: fired.append("dead")))
        simulator.schedule(1.0, lambda sim: fired.append("a"))
        simulator.schedule(3.0, lambda sim: fired.append("b"))
        simulator.run(max_events=1)
        assert fired == ["a"] and simulator.processed_events == 1
        assert simulator.run(until=2.0) == 2.0
        assert simulator.pending_events == 1

    def test_cancelling_a_fired_event_is_a_no_op(self):
        simulator = Simulator()
        event = simulator.schedule(1.0, lambda sim: None)
        simulator.run()
        simulator.cancel(event)
        assert simulator.processed_events == 1

    def test_stop_keeps_the_abandoned_events_until_reset(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda sim: sim.stop())
        simulator.schedule(2.0, lambda sim: None)
        simulator.schedule(2.0, lambda sim: None)
        assert simulator.run() == 1.0
        assert simulator.stopped and simulator.pending_events == 2
        assert simulator.run() == 1.0  # the stop is terminal until reset()
        simulator.reset()
        assert (simulator.now, simulator.pending_events, simulator.processed_events,
                simulator.stopped) == (0.0, 0, 0, False)
        fired = []
        simulator.schedule(0.25, lambda sim: fired.append(sim.now))
        simulator.run()
        assert fired == [0.25]
