"""Tests for the cut-layer compression / perturbation transforms (extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.compression import (
    GaussianNoisePerturbation,
    NoCompression,
    TopKSparsifier,
    Uint8Quantizer,
    get_transform,
)


@pytest.fixture
def activations(rng):
    return rng.standard_normal((8, 4, 4, 4)) * 3.0


class TestNoCompression:
    def test_identity_and_byte_count(self, activations):
        result = NoCompression().apply(activations)
        np.testing.assert_allclose(result.activations, activations)
        assert result.wire_bytes == activations.nbytes


class TestUint8Quantizer:
    def test_reduces_wire_bytes_8x(self, activations):
        result = Uint8Quantizer().apply(activations)
        assert result.wire_bytes < activations.nbytes / 7

    def test_reconstruction_error_bounded_by_step(self, activations):
        result = Uint8Quantizer().apply(activations)
        step = (activations.max() - activations.min()) / 255
        assert np.abs(result.activations - activations).max() <= step / 2 + 1e-12

    def test_shape_preserved(self, activations):
        assert Uint8Quantizer().apply(activations).activations.shape == activations.shape

    def test_constant_tensor_handled(self):
        constant = np.full((2, 3), 1.5)
        result = Uint8Quantizer().apply(constant)
        np.testing.assert_allclose(result.activations, constant)

    def test_fewer_levels_more_error(self, activations):
        def mse(levels):
            result = Uint8Quantizer(levels=levels).apply(activations)
            return np.mean((result.activations - activations) ** 2)

        assert mse(4) > mse(256)

    def test_validation(self):
        with pytest.raises(ValueError):
            Uint8Quantizer(levels=1)
        with pytest.raises(ValueError):
            Uint8Quantizer(levels=512)


class TestTopKSparsifier:
    def test_keeps_requested_fraction(self, activations):
        result = TopKSparsifier(keep_fraction=0.25).apply(activations)
        nonzero_fraction = np.count_nonzero(result.activations) / activations.size
        assert nonzero_fraction == pytest.approx(0.25, abs=0.01)

    def test_kept_entries_are_largest_magnitude(self, activations):
        result = TopKSparsifier(keep_fraction=0.1).apply(activations)
        kept_mask = result.activations != 0
        if kept_mask.any() and (~kept_mask).any():
            smallest_kept = np.abs(activations[kept_mask]).min()
            largest_dropped = np.abs(activations[~kept_mask]).max()
            assert smallest_kept >= largest_dropped - 1e-12

    def test_wire_bytes_scale_with_fraction(self, activations):
        quarter = TopKSparsifier(keep_fraction=0.25).apply(activations)
        half = TopKSparsifier(keep_fraction=0.5).apply(activations)
        assert quarter.wire_bytes < half.wire_bytes < activations.nbytes

    def test_keep_everything_falls_back_to_dense(self, activations):
        result = TopKSparsifier(keep_fraction=1.0).apply(activations)
        np.testing.assert_allclose(result.activations, activations)
        assert result.wire_bytes == activations.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKSparsifier(keep_fraction=0.0)
        with pytest.raises(ValueError):
            TopKSparsifier(keep_fraction=1.5)


class TestGaussianNoisePerturbation:
    def test_norm_clipping(self, rng):
        activations = rng.standard_normal((4, 100)) * 50.0
        transform = GaussianNoisePerturbation(noise_multiplier=0.0, clip_norm=1.0, seed=0)
        result = transform.apply(activations)
        norms = np.linalg.norm(result.activations.reshape(4, -1), axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_small_activations_not_scaled_up(self, rng):
        activations = rng.standard_normal((4, 10)) * 0.01
        transform = GaussianNoisePerturbation(noise_multiplier=0.0, clip_norm=10.0, seed=0)
        result = transform.apply(activations)
        np.testing.assert_allclose(result.activations, activations, atol=1e-12)

    def test_noise_magnitude_scales_with_multiplier(self, rng):
        activations = np.zeros((8, 1000))
        quiet = GaussianNoisePerturbation(noise_multiplier=0.1, clip_norm=1.0, seed=0)
        loud = GaussianNoisePerturbation(noise_multiplier=1.0, clip_norm=1.0, seed=0)
        assert loud.apply(activations).activations.std() > quiet.apply(activations).activations.std()

    def test_traffic_unchanged(self, activations):
        result = GaussianNoisePerturbation(seed=0).apply(activations)
        assert result.wire_bytes == activations.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNoisePerturbation(noise_multiplier=-1.0, seed=0)
        with pytest.raises(ValueError):
            GaussianNoisePerturbation(clip_norm=0.0, seed=0)


class TestFactoryAndProperties:
    def test_get_transform_factory(self):
        assert isinstance(get_transform("none"), NoCompression)
        assert isinstance(get_transform("uint8"), Uint8Quantizer)
        assert isinstance(get_transform("topk", keep_fraction=0.5), TopKSparsifier)
        assert isinstance(get_transform("gaussian_noise", seed=0), GaussianNoisePerturbation)
        with pytest.raises(KeyError, match="unknown transform"):
            get_transform("bogus")

    @settings(max_examples=25, deadline=None)
    @given(data=arrays(np.float64, (3, 2, 4, 4),
                       elements=st.floats(-10, 10, allow_nan=False, width=64)))
    def test_all_transforms_preserve_shape_and_report_positive_bytes(self, data):
        for transform in (NoCompression(), Uint8Quantizer(),
                          TopKSparsifier(keep_fraction=0.3),
                          GaussianNoisePerturbation(seed=0)):
            result = transform.apply(data)
            assert result.activations.shape == data.shape
            assert result.wire_bytes > 0
            assert np.isfinite(result.activations).all()

    @settings(max_examples=25, deadline=None)
    @given(data=arrays(np.float64, (2, 16),
                       elements=st.floats(-5, 5, allow_nan=False, width=64)))
    def test_compression_never_inflates_traffic(self, data):
        baseline = NoCompression().apply(data).wire_bytes
        assert Uint8Quantizer().apply(data).wire_bytes <= baseline + 16
        assert TopKSparsifier(keep_fraction=0.5).apply(data).wire_bytes <= baseline


ALL_CODECS = (NoCompression(), Uint8Quantizer(), TopKSparsifier(keep_fraction=0.25),
              GaussianNoisePerturbation(seed=0))


class TestDtypePolicy:
    """Codecs keep the activations' dtype and size value bytes from its itemsize."""

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda codec: codec.name)
    def test_float32_stays_float32(self, codec, activations):
        result = codec.apply(activations.astype(np.float32))
        assert result.activations.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wire_bytes(self, dtype, activations):
        values = activations.astype(dtype)  # 512 entries
        itemsize = np.dtype(dtype).itemsize
        assert NoCompression().apply(values).wire_bytes == 512 * itemsize
        assert Uint8Quantizer().apply(values).wire_bytes == 512 + 16
        assert TopKSparsifier(keep_fraction=0.25).apply(values).wire_bytes == 128 * (itemsize + 4)
        assert GaussianNoisePerturbation(seed=0).apply(values).wire_bytes == 512 * itemsize
