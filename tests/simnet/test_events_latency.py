"""Tests for the discrete-event simulator and the latency models."""

import numpy as np
import pytest

from repro.simnet.events import Simulator
from repro.simnet.latency import (
    ConstantLatency,
    DistanceLatency,
    GaussianLatency,
    UniformLatency,
    great_circle_km,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(3.0, lambda sim: fired.append(("c", sim.now)))
        simulator.schedule(1.0, lambda sim: fired.append(("a", sim.now)))
        simulator.schedule(2.0, lambda sim: fired.append(("b", sim.now)))
        simulator.run()
        assert [label for label, _ in fired] == ["a", "b", "c"]
        assert [when for _, when in fired] == [1.0, 2.0, 3.0]

    def test_ties_broken_by_priority_then_fifo(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda sim: fired.append("low"), priority=5)
        simulator.schedule(1.0, lambda sim: fired.append("high"), priority=0)
        simulator.schedule(1.0, lambda sim: fired.append("low2"), priority=5)
        simulator.run()
        assert fired == ["high", "low", "low2"]

    def test_callbacks_can_schedule_more_events(self):
        simulator = Simulator()
        fired = []

        def recurring(sim):
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule_after(1.0, recurring)

        simulator.schedule(1.0, recurring)
        simulator.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_stops_early(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda sim: fired.append(1))
        simulator.schedule(5.0, lambda sim: fired.append(5))
        simulator.run(until=2.0)
        assert fired == [1]
        assert simulator.now == 2.0
        assert simulator.pending_events == 1

    def test_max_events_guard(self):
        simulator = Simulator()

        def forever(sim):
            sim.schedule_after(1.0, forever)

        simulator.schedule(0.0, forever)
        simulator.run(max_events=10)
        assert simulator.processed_events == 10

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda sim: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule(0.5, lambda sim: None)
        with pytest.raises(ValueError):
            simulator.schedule_after(-1.0, lambda sim: None)

    def test_stop_requested_mid_run(self):
        simulator = Simulator()
        fired = []

        def stopper(sim):
            fired.append(sim.now)
            sim.stop()

        simulator.schedule(1.0, stopper)
        simulator.schedule(2.0, lambda sim: fired.append(sim.now))
        simulator.run()
        assert fired == [1.0]
        assert simulator.stopped
        assert simulator.pending_events == 1
        simulator.reset()
        assert not simulator.stopped

    def test_stop_does_not_advance_clock_to_until(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda sim: sim.stop())
        assert simulator.run(until=10.0) == 1.0
        assert simulator.now == 1.0

    def test_reset(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda sim: None)
        simulator.run()
        simulator.reset()
        assert simulator.now == 0.0
        assert simulator.pending_events == 0
        assert simulator.processed_events == 0

    def test_run_advances_clock_to_until_even_without_events(self):
        simulator = Simulator()
        simulator.run(until=4.0)
        assert simulator.now == 4.0


class TestLatencyModels:
    def test_constant(self, rng):
        model = ConstantLatency(0.01)
        assert model.sample(rng) == 0.01
        assert model.mean() == 0.01
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_bounds_and_mean(self):
        model = UniformLatency(0.01, 0.03)
        samples = [model.sample(np.random.default_rng(i)) for i in range(200)]
        assert all(0.01 <= sample <= 0.03 for sample in samples)
        assert model.mean() == pytest.approx(0.02)
        with pytest.raises(ValueError):
            UniformLatency(0.03, 0.01)

    def test_gaussian_floor(self):
        model = GaussianLatency(0.001, 0.1, floor_s=0.0005)
        samples = [model.sample(np.random.default_rng(i)) for i in range(100)]
        assert min(samples) >= 0.0005
        assert model.mean() == 0.001

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            GaussianLatency(-0.001, 0.01)

    def test_great_circle_known_distance(self):
        # Seoul to Tokyo is roughly 1,150 km.
        distance = great_circle_km((37.5665, 126.9780), (35.6762, 139.6503))
        assert 1000 < distance < 1300

    def test_great_circle_zero_for_same_point(self):
        assert great_circle_km((10.0, 20.0), (10.0, 20.0)) == pytest.approx(0.0)

    def test_distance_latency_scales_with_distance(self):
        seoul, new_york = (37.5665, 126.9780), (40.7128, -74.0060)
        seoul_tokyo = DistanceLatency((37.5665, 126.9780), (35.6762, 139.6503), jitter_std_s=0.0)
        seoul_ny = DistanceLatency(seoul, new_york, jitter_std_s=0.0)
        assert seoul_ny.mean() > seoul_tokyo.mean() * 3
        assert seoul_tokyo.mean() > 0.001  # at least the base latency

    def test_distance_latency_jitter_is_nonnegative(self):
        model = DistanceLatency((0.0, 0.0), (10.0, 10.0), jitter_std_s=0.005)
        samples = [model.sample(np.random.default_rng(i)) for i in range(50)]
        assert min(samples) >= model.base_s + model.propagation_s

    def test_distance_latency_validation(self):
        with pytest.raises(ValueError):
            DistanceLatency((0.0, 0.0), (1.0, 1.0), path_stretch=0.5)

    def test_reprs(self):
        assert "ms" in repr(ConstantLatency(0.005))
        assert "ms" in repr(UniformLatency(0.001, 0.002))
        assert "ms" in repr(GaussianLatency(0.01, 0.001))
        assert "km" in repr(DistanceLatency((0.0, 0.0), (1.0, 1.0)))
