"""Benchmark — extension: compressing / perturbing the smashed activations.

Not part of the paper's evaluation; README.md lists it with the
experiments as the ``compression`` ablation.  Expected shape: 8-bit quantization cuts uplink
traffic ~8x with little accuracy cost; Gaussian noise at the cut improves
the leakage metric (higher reconstruction NMSE) at some accuracy cost;
nothing inflates traffic above the uncompressed baseline.
"""

import pytest

from conftest import bench_spec, run_once
from repro.experiments.compression import run_compression


@pytest.mark.benchmark(group="compression")
def test_cut_layer_transform_tradeoffs(benchmark, quick_bench_workload):
    result = run_once(benchmark, run_compression, bench_spec("compression", quick_bench_workload))
    print()
    print(result.to_table("{:.3f}"))

    labels = result.column("transform")
    accuracy = dict(zip(labels, result.column("accuracy_pct")))
    traffic = dict(zip(labels, result.column("uplink_megabytes")))
    leakage = dict(zip(labels, result.column("reconstruction_nmse")))
    noise_label = [label for label in labels if label.startswith("gaussian_noise")][0]
    topk_label = [label for label in labels if label.startswith("topk")][0]

    # Quantization slashes traffic and stays close to the uncompressed accuracy.
    assert traffic["uint8"] < 0.2 * traffic["none"]
    assert accuracy["uint8"] > accuracy["none"] - 10.0
    # Top-k also reduces traffic below the baseline.
    assert traffic[topk_label] < traffic["none"]
    # Noising the activations does not *reduce* the reconstruction error of an
    # attacker (i.e. privacy does not get worse), and typically improves it.
    assert leakage[noise_label] >= leakage["none"] - 0.05
    # The lossless-ish variants still learn well above chance; the noised
    # variant pays an accuracy price but must not collapse below chance.
    assert accuracy["none"] > 15.0 and accuracy["uint8"] > 15.0
    assert accuracy[noise_label] > 7.0
