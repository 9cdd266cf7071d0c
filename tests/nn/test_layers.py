"""Tests for the layer classes (Dense, Conv2D, MaxPool2D, ReLU, Flatten)."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Tensor


class TestDense:
    def test_forward_shape_and_value(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_rejects_wrong_feature_count(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError, match="4 input features"):
            layer(Tensor(rng.standard_normal((2, 5))))

    def test_rejects_non_2d_input(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError, match="2-D"):
            layer(Tensor(rng.standard_normal((2, 4, 1))))

    def test_no_bias_option(self, rng):
        layer = Dense(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dimensions_raise(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng=rng)

    def test_gradients_flow_to_parameters(self, rng):
        layer = Dense(4, 2, rng=rng)
        out = layer(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert layer.weight.grad.shape == (4, 2)

    def test_extra_repr(self, rng):
        assert "in_features=4" in repr(Dense(4, 2, rng=rng))


class TestConv2DLayer:
    def test_same_padding_preserves_spatial_size(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, padding="same", rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)

    def test_valid_padding_shrinks(self, rng):
        layer = Conv2D(3, 4, kernel_size=3, padding="valid", rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 3, 8, 8))))
        assert out.shape == (1, 4, 6, 6)

    def test_same_padding_requires_odd_kernel(self, rng):
        with pytest.raises(ValueError, match="odd kernel"):
            Conv2D(3, 4, kernel_size=2, padding="same", rng=rng)

    def test_same_padding_requires_unit_stride(self, rng):
        with pytest.raises(ValueError, match="stride"):
            Conv2D(3, 4, kernel_size=3, stride=2, padding="same", rng=rng)

    def test_unknown_padding_mode(self, rng):
        with pytest.raises(ValueError, match="padding"):
            Conv2D(3, 4, padding="weird", rng=rng)

    def test_channel_validation(self, rng):
        layer = Conv2D(3, 4, rng=rng)
        with pytest.raises(ValueError, match="channels"):
            layer(Tensor(rng.standard_normal((1, 2, 8, 8))))
        with pytest.raises(ValueError, match="4-D"):
            layer(Tensor(rng.standard_normal((3, 8, 8))))

    def test_parameter_count(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, rng=rng)
        assert layer.num_parameters() == 3 * 8 * 9 + 8


class TestPoolingLayers:
    def test_max_pool_layer(self, rng):
        out = MaxPool2D(2)(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 3, 4, 4)

    def test_pooling_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            MaxPool2D(2)(Tensor(rng.standard_normal((3, 8, 8))))


class TestReLUAndFlatten:
    def test_relu_layer(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.standard_normal((3, 2, 4, 4))))
        assert out.shape == (3, 32)
