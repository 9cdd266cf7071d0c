"""Benchmark — ablation: spatio-temporal split learning vs. the alternatives.

Puts the paper's framework next to centralized training (non-private
upper bound), classic sequential split learning and FedAvg on the same
partitioned workload.  Expected shape: centralized is the accuracy upper
bound; the split variants and FedAvg land within a moderate gap of it;
only the centralized baseline ships raw data off the clients; FedAvg
requires every client to host the full model while split learning only
requires the first block(s).
"""

import pytest

from conftest import bench_spec, run_once
from repro.experiments.baselines_comparison import run_baselines_comparison


@pytest.mark.benchmark(group="baselines")
def test_paradigm_comparison(benchmark, quick_bench_workload):
    result = run_once(benchmark, run_baselines_comparison,
                      bench_spec("baselines", quick_bench_workload))
    print()
    print(result.to_table())

    methods = result.column("method")
    accuracy = dict(zip(methods, result.column("accuracy_pct")))
    leaks = dict(zip(methods, result.column("raw_data_leaves_client")))
    client_parameters = dict(zip(methods, result.column("client_parameters")))

    # Privacy column: only the centralized baseline uploads raw data.
    assert leaks["centralized"] == "yes"
    assert leaks["spatio_temporal"] == "no"
    assert leaks["fedavg"] == "no"

    # Client footprint: FedAvg hosts the full model, split learning hosts a
    # strictly smaller head, centralized hosts nothing.
    assert client_parameters["fedavg"] > client_parameters["spatio_temporal"]
    assert client_parameters["centralized"] == 0

    # Accuracy shape: the centralized upper bound is not beaten by a wide
    # margin, and split learning stays in the race (above chance, within a
    # factor of the upper bound).
    upper = accuracy["centralized"]
    assert accuracy["spatio_temporal"] > 20.0
    assert accuracy["spatio_temporal"] <= upper + 10.0
    assert accuracy["sequential_split"] > 20.0
