"""The paper's qualitative claims, asserted on the laptop workload.

Near-optimal accuracy with the first block on the end-systems (Table I),
graceful decline as the data spreads over more end-systems, queue-scheduling
bias (Fig. 2 discussion), hidden data after the first block (Fig. 4), and the
compression / baselines ablations.  The goal is shape fidelity — who wins,
by roughly what factor — not the paper's absolute numbers.

Each test asserts one claim, so a failure names the claim it breaks.  Every
experiment runs once per module (a fixture) on the workload and seed its
thresholds were set at, at the library's float32 dtype policy (this suite
otherwise pins float64; see ``tests/conftest.py``).
"""

import numpy as np
import pytest

from repro.experiments import (
    get_experiment,
    on_preset,
    run_baselines_comparison,
    run_clients_sweep,
    run_compression,
    run_figure4,
    run_staleness,
    run_table1,
)
from repro.nn.dtype import default_dtype

#: Laptop preset, 4 end-systems, 6 epochs over 1 200 samples.
WORKLOAD = dict(num_samples=1200, epochs=6, num_end_systems=4, batch_size=32, seed=0)
#: The smaller budget of the per-configuration sweeps.
QUICK_WORKLOAD = dict(WORKLOAD, num_samples=400, epochs=2)
#: The clients sweep's end-system counts.
END_SYSTEM_COUNTS = (1, 2, 4, 8)


def spec_for(experiment, workload, **changes):
    """``experiment``'s base spec on the laptop preset with ``workload`` and ``changes``."""
    return on_preset(get_experiment(experiment).base_spec(), **workload, **changes)


def by(result, key, header):
    """``header``'s column keyed by the ``key`` column."""
    return dict(zip(result.column(key), result.column(header)))


def labelled(result, prefix):
    """The ``transform`` label that starts with ``prefix``."""
    return next(label for label in result.column("transform") if label.startswith(prefix))


def run_float32(runner, *args, **kwargs):
    with default_dtype(np.float32):
        return runner(*args, **kwargs)


@pytest.fixture(scope="module")
def table1():
    return run_float32(run_table1, spec_for("table1", WORKLOAD))


@pytest.fixture(scope="module")
def clients_sweep():
    return run_float32(run_clients_sweep, spec_for("clients_sweep", WORKLOAD),
                       num_end_systems=END_SYSTEM_COUNTS)


@pytest.fixture(scope="module")
def staleness():
    spec = spec_for("staleness", WORKLOAD, partition="dirichlet",
                    partition_kwargs={"alpha": 0.5})
    return run_float32(run_staleness, spec)


@pytest.fixture(scope="module")
def figure4():
    return run_float32(run_figure4, spec_for("figure4", WORKLOAD), num_probe_images=200)


@pytest.fixture(scope="module")
def compression():
    return run_float32(run_compression, spec_for("compression", QUICK_WORKLOAD))


@pytest.fixture(scope="module")
def baselines():
    return run_float32(run_baselines_comparison, spec_for("baselines", QUICK_WORKLOAD))


class TestTable1:
    """Paper: 71.09 % with nothing on the end-systems, 68.18 % with L1, down
    to 65.66 % with L1-L4 — a 5.43 % worst-case degradation."""

    def test_first_row_is_the_centralized_model(self, table1):
        assert table1.column("layers_at_end_systems")[0].startswith("Nothing")

    def test_centralized_is_the_best_configuration(self, table1):
        """The non-private centralized configuration is the best."""
        accuracies = table1.column("accuracy_pct")
        assert accuracies[0] == max(accuracies)

    def test_every_split_depth_is_above_chance(self, table1):
        """10 classes: chance is 10 %."""
        assert min(table1.column("accuracy_pct")) > 20.0

    def test_worst_case_degradation_is_moderate(self, table1):
        """Moderate, with slack for the small synthetic workload."""
        accuracies = table1.column("accuracy_pct")
        assert accuracies[0] - min(accuracies) < 35.0

    def test_deeper_cuts_do_not_beat_the_centralized_model(self, table1):
        accuracies = table1.column("accuracy_pct")
        assert all(accuracy <= accuracies[0] + 1.0 for accuracy in accuracies[1:])

    def test_privacy_preserving_cut_is_near_optimal(self, table1):
        """The headline: the L1 cut keeps most of the centralized accuracy.

        Cuts 0 and 1 are the first two rows of the full sweep (a run over
        ``client_block_range=[0, 1]`` produces the same two rows).
        """
        centralized, l1 = table1.column("accuracy_pct")[:2]
        assert l1 > 0.5 * centralized


class TestClientsSweep:
    """Each end-system's first block sees 1/M of the data while the shared
    server segment still sees everything: accuracy declines gracefully."""

    def test_sweep_covers_one_to_eight_end_systems(self, clients_sweep):
        assert clients_sweep.column("num_end_systems") == list(END_SYSTEM_COUNTS)

    @pytest.mark.parametrize("count", END_SYSTEM_COUNTS)
    def test_every_count_is_above_chance(self, clients_sweep, count):
        assert by(clients_sweep, "num_end_systems", "accuracy_pct")[count] > 20.0

    def test_one_end_system_is_at_least_as_good_as_eight(self, clients_sweep):
        """With a little noise slack."""
        accuracies = clients_sweep.column("accuracy_pct")
        assert accuracies[0] >= accuracies[-1] - 5.0

    def test_eight_keep_most_of_ones_accuracy(self, clients_sweep):
        accuracies = clients_sweep.column("accuracy_pct")
        assert accuracies[-1] > 0.5 * accuracies[0]


class TestStaleness:
    """Queue scheduling under heterogeneous latency (Fig. 2 discussion)."""

    def test_nearby_end_system_gets_more_updates_through(self, staleness):
        """Within a simulated time budget, under FIFO."""
        fast = by(staleness, "policy", "updates_fast_client")
        slow = by(staleness, "policy", "updates_slow_client")
        assert fast["fifo"] >= slow["fifo"]

    def test_fair_scheduling_keeps_jains_index(self, staleness):
        """Fairness-aware scheduling does not lower Jain's index below FIFO's."""
        fairness = by(staleness, "policy", "fairness_index")
        assert fairness["weighted_fair"] >= fairness["fifo"] - 0.05

    def test_every_policy_learns(self, staleness):
        assert min(staleness.column("accuracy_pct")) > 10.0


class TestFigure4:
    """Fig. 4: the post-pooling L1 activation reconstructs the raw image
    strictly worse than the input reconstructs itself."""

    def test_l1_reconstruction_error_exceeds_the_inputs(self, figure4):
        nmse = by(figure4, "layer", "reconstruction_nmse")
        assert nmse["L1_pool"] > nmse["input"]

    def test_l1_reconstruction_is_less_similar_than_the_inputs(self, figure4):
        ssim = by(figure4, "layer", "reconstruction_ssim")
        assert ssim["L1_pool"] < ssim["input"]

    def test_l1_pixels_correlate_no_more_than_the_inputs(self, figure4):
        correlation = by(figure4, "layer", "pixel_correlation")
        assert correlation["L1_pool"] <= correlation["input"]


class TestCompression:
    """Not in the paper: compressing or noising the cut-layer traffic."""

    def test_uint8_uplink_is_under_a_fifth_of_the_float64_wire(self, compression):
        """``run_compression`` pins float64, so the ``none`` row ships 8-byte values."""
        traffic = by(compression, "transform", "uplink_megabytes")
        assert traffic["uint8"] < 0.2 * traffic["none"]

    def test_quantization_stays_close_to_uncompressed_accuracy(self, compression):
        accuracy = by(compression, "transform", "accuracy_pct")
        assert accuracy["uint8"] > accuracy["none"] - 10.0

    def test_topk_cuts_traffic_below_the_baseline(self, compression):
        traffic = by(compression, "transform", "uplink_megabytes")
        assert traffic[labelled(compression, "topk")] < traffic["none"]

    def test_noise_does_not_improve_reconstruction(self, compression):
        leakage = by(compression, "transform", "reconstruction_nmse")
        assert leakage[labelled(compression, "gaussian_noise")] >= leakage["none"] - 0.05

    @pytest.mark.parametrize("transform", ["none", "uint8"])
    def test_transform_learns(self, compression, transform):
        assert by(compression, "transform", "accuracy_pct")[transform] > 15.0

    def test_noised_variant_stays_above_chance(self, compression):
        """The noised variant pays accuracy but still learns."""
        accuracy = by(compression, "transform", "accuracy_pct")
        assert accuracy[labelled(compression, "gaussian_noise")] > 7.0


class TestBaselines:
    """Centralized training is the non-private upper bound; split learning
    and FedAvg keep raw data home, and only FedAvg ships the full model."""

    @pytest.mark.parametrize("method, leaves", [
        ("centralized", "yes"), ("spatio_temporal", "no"), ("fedavg", "no"),
    ])
    def test_where_raw_data_goes(self, baselines, method, leaves):
        assert by(baselines, "method", "raw_data_leaves_client")[method] == leaves

    def test_fedavg_ships_more_parameters_than_split_learning(self, baselines):
        client_parameters = by(baselines, "method", "client_parameters")
        assert client_parameters["fedavg"] > client_parameters["spatio_temporal"]

    def test_centralized_keeps_no_parameters_on_the_clients(self, baselines):
        assert by(baselines, "method", "client_parameters")["centralized"] == 0

    @pytest.mark.parametrize("method", ["spatio_temporal", "sequential_split"])
    def test_split_learning_is_above_chance(self, baselines, method):
        assert by(baselines, "method", "accuracy_pct")[method] > 20.0

    def test_split_learning_stays_near_the_centralized_bound(self, baselines):
        accuracy = by(baselines, "method", "accuracy_pct")
        assert accuracy["spatio_temporal"] <= accuracy["centralized"] + 10.0
