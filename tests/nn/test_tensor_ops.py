"""Unit tests for Tensor arithmetic and its gradients."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, ensure_tensor, unbroadcast


class TestConstruction:
    def test_wraps_lists_and_scalars(self):
        assert Tensor([1.0, 2.0]).shape == (2,)
        assert Tensor(3.0).shape == ()

    def test_default_dtype_is_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_requires_grad_defaults_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_ensure_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert ensure_tensor(tensor) is tensor
        assert isinstance(ensure_tensor([1.0, 2.0]), Tensor)

    def test_repr_mentions_shape_and_grad_flag(self):
        text = repr(Tensor(np.zeros((2, 2)), requires_grad=True))
        assert "2, 2" in text and "requires_grad" in text

    def test_size(self):
        assert Tensor(np.zeros((5, 3))).size == 15

    def test_item_on_scalar(self):
        assert Tensor(2.5).item() == pytest.approx(2.5)


class TestElementwiseArithmetic:
    def test_sub_gradients(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_mul_gradient_is_other_operand(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_gradients(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])

class TestBroadcasting:
    def test_unbroadcast_sums_added_leading_axes(self):
        grad = np.ones((4, 3))
        np.testing.assert_allclose(unbroadcast(grad, (3,)), [4.0, 4.0, 4.0])

    def test_unbroadcast_sums_size_one_axes(self):
        grad = np.ones((4, 3))
        np.testing.assert_allclose(unbroadcast(grad, (4, 1)), [[3.0]] * 4)

    def test_unbroadcast_noop_when_shapes_match(self):
        grad = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(unbroadcast(grad, (2, 3)), grad)

    def test_broadcast_sub_bias_gradient(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (x - bias).sum().backward()
        np.testing.assert_allclose(bias.grad, [-4.0, -4.0, -4.0])
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_broadcast_mul_gradient(self):
        x = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        scale = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * scale).sum().backward()
        np.testing.assert_allclose(scale.grad, [4.0, 4.0, 4.0])


class TestReductions:
    def test_sum_all(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum()
        assert out.item() == pytest.approx(15.0)
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scaled_by_count(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, [0.25] * 4)

    def test_mean_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.mean(axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 0.5))


class TestNonlinearities:
    @pytest.mark.parametrize("method, reference, derivative", [
        ("exp", np.exp, np.exp),
        ("log", np.log, lambda x: 1.0 / x),
    ])
    def test_elementwise_forward_and_backward(self, method, reference, derivative):
        data = np.array([0.5, 1.0, 2.0])
        tensor = Tensor(data, requires_grad=True)
        out = getattr(tensor, method)()
        np.testing.assert_allclose(out.data, reference(data), rtol=1e-10)
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, derivative(data), rtol=1e-8)

    def test_relu_masks_negative(self):
        a = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        out = a.relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.0, 1.0])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.arange(6.0)).reshape((3, 2)).shape == (3, 2)

    def test_flatten_batch(self):
        a = Tensor(np.zeros((4, 2, 3)))
        assert a.flatten_batch().shape == (4, 6)
