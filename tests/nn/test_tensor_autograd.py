"""Tests of the autograd machinery itself: graphs, no_grad, accumulation."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


class TestGraphConstruction:
    def test_output_requires_grad_if_any_parent_does(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert (a * b).requires_grad
        assert not (b * b).requires_grad

    def test_no_grad_context_disables_tracking(self):
        a = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_nests_and_restores(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestBackward:
    def test_backward_requires_scalar_without_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2.0).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 3.0
        out.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_backward_with_scalar_gradient_broadcasts(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).backward(1.0)
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_diamond_graph_accumulates_both_paths(self):
        # y = a*a - a*3  => dy/da = 2a - 3
        a = Tensor([2.0], requires_grad=True)
        y = a * a - a * 3.0
        y.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_reused_tensor_in_deep_chain(self):
        a = Tensor([1.5], requires_grad=True)
        b = a * a          # a^2
        c = b * a          # a^3
        d = c - b          # a^3 - a^2
        d.backward()
        expected = 3 * 1.5 ** 2 - 2 * 1.5
        np.testing.assert_allclose(a.grad, [expected])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        (a * 2.0).backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad_clears(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_gradient_not_stored_on_non_requiring_leaves(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([5.0])
        (a * b).backward()
        assert b.grad is None

    def test_long_chain_gradient(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(50):
            out = out - 1.0
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_split_learning_handoff_pattern(self):
        """The exact pattern the end-system/server pair uses.

        Client forward -> copy -> server forward on a fresh leaf ->
        backward on the server -> the leaf's grad is relayed back ->
        client backward with that gradient.
        """
        client_weight = Tensor([[2.0]], requires_grad=True)
        inputs = Tensor([[3.0]])
        client_out = inputs * client_weight                 # client-side graph

        smashed = Tensor(client_out.data.copy(), requires_grad=True)  # server leaf
        server_weight = Tensor([[4.0]], requires_grad=True)
        loss = (smashed * server_weight).sum()
        loss.backward()

        assert smashed.grad is not None
        client_out.backward(smashed.grad)                   # relay the gradient
        # dloss/d(client_weight) = input * server_weight = 3 * 4
        np.testing.assert_allclose(client_weight.grad, [[12.0]])
        np.testing.assert_allclose(server_weight.grad, [[6.0]])


class TestTopologicalOrder:
    def test_topological_order_visits_children_before_parents(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = b - 1.0
        order = c._topological_order()
        positions = {id(node): index for index, node in enumerate(order)}
        assert positions[id(c)] < positions[id(b)] < positions[id(a)]

    def test_large_graph_does_not_recurse(self):
        # Deep chains must not hit Python's recursion limit (iterative DFS).
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(5000):
            out = out * 1.0001
        out.backward()
        assert a.grad is not None
