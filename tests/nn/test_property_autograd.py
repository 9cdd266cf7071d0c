"""Property-based tests (hypothesis) for the autograd engine.

These check invariants that must hold for *any* input: reduction
gradients have their closed forms, softmax stays a probability
distribution, pooling and convolution preserve linearity in the expected
arguments, etc.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor

# Keep example arrays small.
small_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                         allow_infinity=False, width=64)


def small_arrays(max_dims=2, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=small_floats,
    )


class TestElementwiseGradients:
    @settings(max_examples=30, deadline=None)
    @given(data=small_arrays())
    def test_sum_of_squares_gradient(self, data):
        tensor = Tensor(data.copy(), requires_grad=True)
        (tensor * tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, 2 * data, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=small_arrays())
    def test_mean_gradient_is_uniform(self, data):
        tensor = Tensor(data.copy(), requires_grad=True)
        tensor.mean().backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(data, 1.0 / data.size), atol=1e-12)

class TestSoftmaxProperties:
    @settings(max_examples=40, deadline=None)
    @given(logits=arrays(np.float64, (3, 6), elements=small_floats))
    def test_softmax_is_probability_distribution(self, logits):
        probabilities = F.softmax(Tensor(logits)).data
        assert (probabilities >= 0).all()
        np.testing.assert_allclose(probabilities.sum(axis=-1), np.ones(3), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(logits=arrays(np.float64, (2, 5), elements=small_floats),
           shift=st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_softmax_shift_invariance(self, logits, shift):
        base = F.softmax(Tensor(logits)).data
        shifted = F.softmax(Tensor(logits + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(logits=arrays(np.float64, (4, 5), elements=small_floats),
           labels=arrays(np.int64, (4,), elements=st.integers(0, 4)))
    def test_cross_entropy_nonnegative_and_bounded_below_by_zero(self, logits, labels):
        loss = F.cross_entropy(Tensor(logits), labels)
        assert loss.item() >= -1e-9

    @settings(max_examples=30, deadline=None)
    @given(logits=arrays(np.float64, (3, 4), elements=small_floats),
           labels=arrays(np.int64, (3,), elements=st.integers(0, 3)))
    def test_cross_entropy_gradient_rows_sum_to_zero(self, logits, labels):
        """d(loss)/d(logits) rows sum to zero (softmax minus one-hot property)."""
        tensor = Tensor(logits, requires_grad=True)
        F.cross_entropy(tensor, labels, reduction="sum").backward()
        np.testing.assert_allclose(tensor.grad.sum(axis=-1), np.zeros(3), atol=1e-9)


class TestPoolingAndConvProperties:
    @settings(max_examples=20, deadline=None)
    @given(images=arrays(np.float64, (1, 2, 4, 4), elements=small_floats))
    def test_max_pool_outputs_are_maxima_of_windows(self, images):
        pooled = F.max_pool2d(Tensor(images), 2).data
        assert pooled.max() <= images.max() + 1e-12
        # Every pooled value must exist somewhere in the source image.
        for value in pooled.reshape(-1):
            assert np.isclose(images, value).any()

    @settings(max_examples=15, deadline=None)
    @given(images=arrays(np.float64, (1, 1, 4, 4), elements=small_floats),
           weight=arrays(np.float64, (2, 1, 3, 3), elements=small_floats),
           scale=st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_conv2d_is_linear_in_input(self, images, weight, scale):
        base = F.conv2d(Tensor(images), Tensor(weight), padding=1).data
        scaled = F.conv2d(Tensor(scale * images), Tensor(weight), padding=1).data
        np.testing.assert_allclose(scaled, scale * base, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(images=arrays(np.float64, (2, 1, 4, 4), elements=small_floats),
           weight=arrays(np.float64, (1, 1, 3, 3), elements=small_floats))
    def test_conv2d_batch_independence(self, images, weight):
        """Convolving a batch equals convolving each sample independently."""
        together = F.conv2d(Tensor(images), Tensor(weight), padding=1).data
        separate = np.concatenate([
            F.conv2d(Tensor(images[i:i + 1]), Tensor(weight), padding=1).data
            for i in range(images.shape[0])
        ])
        np.testing.assert_allclose(together, separate, atol=1e-10)
