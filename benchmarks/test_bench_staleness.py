"""Benchmark — queue-scheduling ablation (the paper's Fig. 2 discussion).

The paper: "the parameters from the end-system can arrive at the server
lately or sparsely ... the learning performance can be biased due to the
differences of arrivals from end-systems.  Thus, parameter scheduling is
required."

Expected shape: within a fixed simulated time budget the nearby
end-system completes far more updates than the remote one; fairness-aware
scheduling (weighted_fair / round_robin / staleness) never yields a lower
Jain fairness index than plain FIFO.
"""

import pytest

from conftest import bench_spec, run_once
from repro.experiments.staleness import run_staleness


@pytest.mark.benchmark(group="staleness")
def test_scheduling_policies_under_heterogeneous_latency(benchmark, bench_workload):
    spec = bench_spec("staleness", bench_workload, partition="dirichlet",
                      partition_kwargs={"alpha": 0.5})
    result = run_once(benchmark, run_staleness, spec)
    print()
    print(result.to_table("{:.3f}"))

    policies = result.column("policy")
    fairness = dict(zip(policies, result.column("fairness_index")))
    fast = dict(zip(policies, result.column("updates_fast_client")))
    slow = dict(zip(policies, result.column("updates_slow_client")))

    # Arrival bias exists: under FIFO the nearby end-system gets at least as
    # many updates through as the far one (usually far more).
    assert fast["fifo"] >= slow["fifo"]
    # Fairness-aware policies do not do worse than FIFO on Jain's index.
    assert fairness["weighted_fair"] >= fairness["fifo"] - 0.05
    # Everything still trains above chance accuracy.
    assert min(result.column("accuracy_pct")) > 10.0
