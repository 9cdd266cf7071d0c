"""Benchmark — ablation: accuracy vs. number of end-systems M.

The paper's claim is that *multiple* end-systems can share one
centralized server while keeping near-optimal accuracy.  Expected shape:
accuracy declines gently (not catastrophically) as the same dataset is
spread across more end-systems, because each end-system's private first
block sees 1/M of the data while the shared server segment still sees
everything.
"""

import pytest

from conftest import bench_spec, run_once
from repro.experiments.clients_sweep import run_clients_sweep


@pytest.mark.benchmark(group="clients")
def test_accuracy_vs_number_of_end_systems(benchmark, bench_workload):
    result = run_once(benchmark, run_clients_sweep, bench_spec("clients_sweep", bench_workload),
                      num_end_systems=(1, 2, 4, 8))
    print()
    print(result.to_table())

    counts = result.column("num_end_systems")
    accuracies = result.column("accuracy_pct")
    assert counts == [1, 2, 4, 8]
    # Everything trains above chance.
    assert min(accuracies) > 20.0
    # Single-client split learning is at least as good as the 8-client split
    # (each client head sees 8x less data), allowing a little noise slack.
    assert accuracies[0] >= accuracies[-1] - 5.0
    # The decline is graceful: even at M=8 we keep most of the M=1 accuracy.
    assert accuracies[-1] > 0.5 * accuracies[0]
