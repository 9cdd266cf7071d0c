"""Tests for the functional ops: conv2d, max pooling, softmax, losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def naive_conv2d(x, w, b, stride, padding):
    """Reference convolution computed with explicit loops."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w_in + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for sample in range(n):
        for channel in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[sample, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[sample, channel, i, j] = (patch * w[channel]).sum()
            if b is not None:
                out[sample, channel] += b[channel]
    return out


class TestConvOutputSize:
    def test_stride_no_padding_output_size(self):
        assert F.conv_output_size(8, 3, 1, 0) == 6
        assert F.conv_output_size(8, 2, 2, 0) == 4
        assert F.conv_output_size(8, 3, 1, 1) == 8


class TestConv2D:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1))])
    def test_matches_naive_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            F.conv2d(x, w)

    def test_gradients_match_numeric(self, rng, gradcheck):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)

        def loss():
            return float(naive_conv2d(x, w, b, (1, 1), (1, 1)).sum())

        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        F.conv2d(tx, tw, tb, stride=1, padding=1).sum().backward()
        np.testing.assert_allclose(tx.grad, gradcheck(loss, x), atol=1e-5)
        np.testing.assert_allclose(tw.grad, gradcheck(loss, w), atol=1e-5)
        np.testing.assert_allclose(tb.grad, gradcheck(loss, b), atol=1e-5)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, (1, 1), (1, 1)), atol=1e-10)

    def test_no_graph_without_requires_grad(self, rng):
        out = F.conv2d(Tensor(rng.standard_normal((1, 1, 4, 4))),
                       Tensor(rng.standard_normal((1, 1, 3, 3))))
        assert not out.requires_grad


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, [1, 1, 3, 3], [1, 3, 1, 3]] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_max_pool_gradient_numeric(self, rng, gradcheck):
        x = rng.standard_normal((2, 2, 6, 6))

        def loss():
            return float(x.reshape(2, 2, 3, 2, 3, 2).max(axis=(3, 5)).sum())

        tx = Tensor(x, requires_grad=True)
        F.max_pool2d(tx, 2).sum().backward()
        np.testing.assert_allclose(tx.grad, gradcheck(loss, x), atol=1e-5)

    def test_pool_halves_spatial_size(self, rng):
        out = F.max_pool2d(Tensor(rng.standard_normal((3, 4, 8, 8))), 2)
        assert out.shape == (3, 4, 4, 4)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = Tensor(rng.standard_normal((5, 7)))
        probabilities = F.softmax(logits).data
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5), atol=1e-12)
        assert (probabilities >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 4))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([0, 5]), 3)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 1] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        logits_data = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        logits = Tensor(logits_data, requires_grad=True)
        F.cross_entropy(logits, labels, reduction="sum").backward()
        expected = F.softmax(Tensor(logits_data)).data - F.one_hot(labels, 5)
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)

    def test_nll_loss_reductions(self, rng):
        log_probs = F.log_softmax(Tensor(rng.standard_normal((4, 3))))
        labels = np.array([0, 1, 2, 1])
        none = F.nll_loss(log_probs, labels, reduction="none")
        assert none.shape == (4,)
        assert F.nll_loss(log_probs, labels, reduction="sum").item() == pytest.approx(
            none.data.sum()
        )
        assert F.nll_loss(log_probs, labels, reduction="mean").item() == pytest.approx(
            none.data.mean()
        )

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([0.0, 0.0]))
        loss = F.mse_loss(a, b)
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError, match="reduction"):
            F.mse_loss(Tensor([1.0]), Tensor([1.0]), reduction="bogus")

    def test_cross_entropy_loss_decreases_under_gradient_step(self, rng):
        """One manual gradient step on the logits must reduce the loss."""
        logits_data = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        logits = Tensor(logits_data, requires_grad=True)
        loss_before = F.cross_entropy(logits, labels)
        loss_before.backward()
        stepped = Tensor(logits_data - 0.5 * logits.grad)
        loss_after = F.cross_entropy(stepped, labels)
        assert loss_after.item() < loss_before.item()
