"""Every op the substrate keeps, against central differences.

``Tensor`` keeps only the ops the losses, ``ReLU``, ``Flatten`` and the
softmax helpers compose (``-``, ``*``, ``/``, unary ``-``, ``sum``,
``mean``, ``exp``, ``log``, ``relu``, ``reshape``, ``flatten_batch``),
and ``functional`` keeps the fused ``linear`` / ``max_pool2d`` nodes and
the four JobSpec losses.  The hand-computed cases
in ``test_tensor_ops.py`` check single points; this grid checks each kept
op's backward closure against a numeric derivative, over every broadcast
pattern the binary ops accept and every reduction the losses offer.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.losses import get_loss
from repro.nn.tensor import Tensor


def away_from_kinks(rng, shape, low=0.2, high=1.5):
    """Values whose magnitude stays clear of zero, with random signs.

    ``relu`` has a kink at zero and ``log`` / ``/`` a pole; the central
    difference (step 1e-6) never crosses either here.
    """
    magnitude = rng.uniform(low, high, size=shape)
    return np.asarray(magnitude * rng.choice([-1.0, 1.0], size=shape))


def check_gradients(build, arrays, gradcheck, seed=0):
    """Compare autograd against central differences for every operand.

    ``build`` maps leaf tensors to an output tensor of any shape; the
    scalar objective is that output weighted by a fixed random array, so
    every output element contributes a distinct weight.
    """
    leaves = [Tensor(array, requires_grad=True) for array in arrays]
    out = build(*leaves)
    weights = np.random.default_rng(seed).standard_normal(out.shape)
    (out * Tensor(weights)).sum().backward()

    def objective():
        return float((build(*[Tensor(array) for array in arrays]).data * weights).sum())

    for leaf, array in zip(leaves, arrays):
        assert leaf.grad is not None and leaf.grad.shape == array.shape
        np.testing.assert_allclose(leaf.grad, gradcheck(objective, array),
                                   rtol=1e-6, atol=1e-8)


UNARY = {
    "neg": (lambda t: -t, None),
    "exp": (lambda t: t.exp(), None),
    "log": (lambda t: t.log(), "positive"),
    "relu": (lambda t: t.relu(), None),
    "sum-all": (lambda t: t.sum(), None),
    "sum-axis0": (lambda t: t.sum(axis=0), None),
    "sum-axis1-keepdims": (lambda t: t.sum(axis=1, keepdims=True), None),
    "sum-axes01": (lambda t: t.sum(axis=(0, 1)), None),
    "mean-all": (lambda t: t.mean(), None),
    "mean-axis-last": (lambda t: t.mean(axis=-1), None),
    "mean-axis0-keepdims": (lambda t: t.mean(axis=0, keepdims=True), None),
    "mean-axes12": (lambda t: t.mean(axis=(1, 2)), None),
    "reshape": (lambda t: t.reshape(4, 6), None),
    "flatten-batch": (lambda t: t.flatten_batch(), None),
}


@pytest.mark.parametrize("name", list(UNARY))
def test_unary_op_gradient(name, rng, gradcheck):
    build, domain = UNARY[name]
    data = away_from_kinks(rng, (2, 3, 4))
    if domain == "positive":
        data = np.abs(data)
    check_gradients(build, [data], gradcheck)


BINARY = {
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}

BROADCASTS = {
    "same": ((3, 4), (3, 4)),
    "row": ((3, 4), (4,)),
    "column": ((3, 4), (3, 1)),
    "outer": ((3, 1), (1, 4)),
    "scalar": ((3, 4), ()),
    "left-scalar": ((), (3, 4)),
}


@pytest.mark.parametrize("shapes", list(BROADCASTS))
@pytest.mark.parametrize("op", list(BINARY))
def test_binary_op_gradient_under_broadcasting(op, shapes, rng, gradcheck):
    left_shape, right_shape = BROADCASTS[shapes]
    arrays = [away_from_kinks(rng, left_shape), away_from_kinks(rng, right_shape)]
    check_gradients(BINARY[op], arrays, gradcheck)


@pytest.mark.parametrize("op", list(BINARY))
def test_binary_op_accepts_a_plain_right_operand(op, rng):
    left = away_from_kinks(rng, (3, 4))
    right = away_from_kinks(rng, (4,))
    got = BINARY[op](Tensor(left), right)
    expected = BINARY[op](left, right)
    np.testing.assert_array_equal(got.data, expected)


def loss_inputs(name, rng):
    """Predictions and targets for each loss the JobSpec can name."""
    if name in ("cross_entropy", "nll"):
        predictions = rng.standard_normal((5, 4))
        if name == "nll":
            predictions = F.log_softmax(Tensor(predictions)).data
        return predictions, rng.integers(0, 4, size=5)
    # Regression targets: the predictions offset by a bounded margin.
    predictions = rng.standard_normal((5, 3))
    return predictions, predictions - away_from_kinks(rng, (5, 3))


@pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
@pytest.mark.parametrize("name", ["cross_entropy", "nll", "mse"])
def test_loss_gradient_matches_numeric(name, reduction, rng, gradcheck):
    predictions, targets = loss_inputs(name, rng)
    loss = get_loss(name, reduction=reduction)
    check_gradients(lambda p: loss(p, targets), [predictions], gradcheck)


@pytest.mark.parametrize("name", ["cross_entropy", "nll", "mse"])
def test_loss_reductions_agree(name, rng):
    predictions, targets = loss_inputs(name, rng)
    per_sample = get_loss(name, reduction="none")(Tensor(predictions), targets).data
    total = get_loss(name, reduction="sum")(Tensor(predictions), targets).item()
    mean = get_loss(name, reduction="mean")(Tensor(predictions), targets).item()
    assert total == pytest.approx(per_sample.sum(), rel=1e-12)
    assert mean == pytest.approx(per_sample.mean(), rel=1e-12)


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
def test_linear_gradient_matches_numeric(with_bias, rng, gradcheck):
    arrays = [rng.standard_normal((4, 3)), rng.standard_normal((3, 5))]
    if with_bias:
        arrays.append(rng.standard_normal(5))
    check_gradients(lambda *operands: F.linear(*operands), arrays, gradcheck)


@pytest.mark.parametrize("kernel, stride", [
    (2, None), (3, 2), (2, 1), (3, 3), ((2, 3), (1, 2)),
], ids=["paper", "overlapping", "unit-stride", "kernel-3", "non-square"])
def test_max_pool_gradient_on_signed_inputs(kernel, stride, rng, gradcheck):
    # Continuous draws: no ties, so every window has one winner and the
    # objective is differentiable at the sample point.
    images = rng.standard_normal((2, 2, 7, 7))
    check_gradients(lambda t: F.max_pool2d(t, kernel, stride), [images], gradcheck)


class TestPoolingHasNoPadding:
    def test_functional_rejects_padding(self):
        with pytest.raises(TypeError):
            F.max_pool2d(Tensor(-np.ones((1, 1, 2, 2))), 2, stride=2, padding=1)

    def test_layer_rejects_padding(self):
        with pytest.raises(TypeError):
            MaxPool2D(2, stride=2, padding=1)
