"""Benchmark — Figure 4: privacy of the smashed activations.

Paper reference (qualitative): the raw image is fully visible, the
Conv2D(L1) activation is blurred but may be recognized, and the full L1
(Conv2D + MaxPooling2D) activation definitely hides the original image.

Expected shape: reconstruction quality (PSNR/SSIM, inverse of NMSE) is
highest for the input and lowest for the post-pooling activation.
"""

import pytest

from conftest import bench_spec, run_once
from repro.experiments.figure4 import run_figure4


@pytest.mark.benchmark(group="figure4")
def test_figure4_leakage_decreases_through_the_first_block(benchmark, bench_workload):
    result = run_once(benchmark, run_figure4, bench_spec("figure4", bench_workload),
                      num_probe_images=200)
    print()
    print(result.to_table("{:.3f}"))

    layers = result.column("layer")
    nmse = dict(zip(layers, result.column("reconstruction_nmse")))
    ssim = dict(zip(layers, result.column("reconstruction_ssim")))
    correlation = dict(zip(layers, result.column("pixel_correlation")))

    # Fig. 4(a) vs 4(c): the post-pooling activation reconstructs the raw
    # image strictly worse than the input reconstructs itself.
    assert nmse["L1_pool"] > nmse["input"]
    assert ssim["L1_pool"] < ssim["input"]
    # The rendered post-pool activation correlates with the original image
    # no better than the input rendering does.
    assert correlation["L1_pool"] <= correlation["input"]


@pytest.mark.benchmark(group="figure4")
def test_figure4_deeper_cuts_leak_no_more_than_first_block(benchmark, quick_bench_workload):
    """Extension of Fig. 4: pushing the cut deeper does not increase leakage."""
    result = run_once(benchmark, run_figure4,
                      bench_spec("figure4", quick_bench_workload, client_blocks=2),
                      num_probe_images=150, train_first=False)
    print()
    print(result.to_table("{:.3f}"))
    layers = result.column("layer")
    nmse = dict(zip(layers, result.column("reconstruction_nmse")))
    assert nmse["L2_pool"] >= nmse["input"] - 1e-6
