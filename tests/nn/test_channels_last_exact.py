"""The channels-last conv → ReLU → max-pool ops are the old ops, bit for bit.

``reference_ops`` is the parent commit's arithmetic, frozen.  The current
ops are fed both C-contiguous and channels-last-in-memory inputs and
incoming gradients; the reference always gets the C-contiguous equivalents —
the layout the parent's chain produced at every layer boundary, which is
what fixes the order of the bias-gradient sum.  Everything is compared by
bytes, not tolerance: no GEMM changed its operands and no order-sensitive
reduction changed its order.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import reference_ops as ref
from repro.core.end_system import EndSystem
from repro.core.models import paper_cnn_architecture
from repro.core.server import CentralServer
from repro.core.split import SplitSpec
from repro.data.datasets import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.utils.perf import axis_order

DTYPES = [np.float32, np.float64]
LAYOUTS = ["nchw", "channels_last"]


def lay(array: np.ndarray, layout: str) -> np.ndarray:
    """Same values and NCHW shape, in the requested memory order."""
    if layout == "nchw":
        return np.ascontiguousarray(array)
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # signed zeros included


def assert_laid_out_like(array: np.ndarray, like: np.ndarray) -> None:
    """Same axis order in memory (size-1 axes of ``array`` have no position)."""
    real = [axis for axis in range(array.ndim) if array.shape[axis] > 1]
    assert ([axis for axis in axis_order(array) if axis in real]
            == [axis for axis in axis_order(like) if axis in real])


def signed(rng, shape, dtype):
    """Normal draws with exact zeros mixed in (ReLU-masked gradients have them)."""
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.2] = 0.0
    return values.astype(dtype)


# (input shape, out channels, kernel, stride, padding)
CONV_CASES = {
    "paper-L1": ((32, 3, 32, 32), 16, (3, 3), (1, 1), (1, 1)),    # M = 32768: tiled GEMM
    "paper-L2": ((32, 16, 16, 16), 32, (3, 3), (1, 1), (1, 1)),   # M = 8192: tiled GEMM
    "paper-L3": ((32, 32, 8, 8), 64, (3, 3), (1, 1), (1, 1)),
    "paper-L4": ((32, 64, 4, 4), 128, (3, 3), (1, 1), (1, 1)),
    "paper-L5": ((32, 128, 2, 2), 256, (3, 3), (1, 1), (1, 1)),
    "tiny-L1": ((10, 3, 8, 8), 4, (3, 3), (1, 1), (1, 1)),
    "tiny-L2": ((10, 4, 4, 4), 8, (3, 3), (1, 1), (1, 1)),
    "stride2-pad0": ((5, 3, 9, 11), 4, (3, 3), (2, 2), (0, 0)),
    "stride2-pad1": ((5, 3, 9, 11), 4, (3, 3), (2, 2), (1, 1)),
    "stride2-pad2": ((5, 3, 9, 11), 4, (3, 3), (2, 2), (2, 2)),
    "stride1-pad0": ((4, 5, 7, 7), 3, (3, 3), (1, 1), (0, 0)),
    "stride1-pad2": ((4, 5, 7, 7), 3, (3, 3), (1, 1), (2, 2)),
    "non-square": ((3, 2, 7, 10), 5, (3, 2), (1, 2), (2, 0)),
    "one-channel-1x1": ((2, 1, 5, 6), 1, (1, 1), (1, 1), (0, 0)),
    "batch-1": ((1, 3, 6, 6), 4, (3, 3), (1, 1), (1, 1)),
    # The input-gradient fold is channel-major for 2-4 input channels.
    "fanout-L1": ((74, 3, 8, 8), 2, (3, 3), (1, 1), (1, 1)),      # fanout_async's server
    "laptop-L2": ((32, 8, 8, 8), 16, (3, 3), (1, 1), (1, 1)),     # laptop server, cut 1
    "fold-c4": ((6, 4, 7, 9), 3, (3, 3), (1, 1), (1, 1)),         # last channel-major C
    "fold-c5": ((6, 5, 7, 9), 3, (3, 3), (1, 1), (1, 1)),         # first channels-last C
    "fold-c2-stride2": ((5, 2, 9, 11), 3, (3, 3), (2, 2), (1, 1)),
}
CHANNEL_MAJOR_FOLDS = ["fanout-L1", "fold-c4", "fold-c2-stride2", "tiny-L1", "stride2-pad1"]
CHANNELS_LAST_FOLDS = ["laptop-L2", "fold-c5", "one-channel-1x1", "paper-L3"]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", CONV_CASES)
def test_conv2d_matches_the_parent(name, dtype, rng):
    shape, c_out, kernel, stride, padding = CONV_CASES[name]
    x = signed(rng, shape, dtype)
    w = rng.standard_normal((c_out, shape[1], *kernel)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    expected_out, backward = ref.conv2d(x, w, b, stride, padding)
    grad = signed(rng, expected_out.shape, dtype)
    expected_grads = backward(grad)

    for x_layout, grad_layout in itertools.product(LAYOUTS, LAYOUTS):
        tensors = [Tensor(lay(x, x_layout), requires_grad=True, dtype=dtype),
                   Tensor(w, requires_grad=True, dtype=dtype),
                   Tensor(b, requires_grad=True, dtype=dtype)]
        out = F.conv2d(*tensors, stride=stride, padding=padding)
        assert_identical(out.data, expected_out)
        assert_laid_out_like(out.data, expected_out)
        # ``Tensor.backward`` would copy the seed gradient C-contiguous; the
        # closure is what ReLU/pool backward call with their own layout.
        out._backward(lay(grad, grad_layout))
        for tensor, expected in zip(tensors, expected_grads):
            assert_identical(tensor.grad, expected)

    with no_grad():
        for x_layout in LAYOUTS:
            for activation in (None, "relu"):
                inferred = F.conv2d(Tensor(lay(x, x_layout), dtype=dtype), Tensor(w, dtype=dtype),
                                    Tensor(b, dtype=dtype), stride=stride, padding=padding,
                                    activation=activation)
                expected, _ = ref.conv2d(x, w, b, stride, padding, activation=activation)
                assert_identical(inferred.data, expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("name", CHANNEL_MAJOR_FOLDS + CHANNELS_LAST_FOLDS)
def test_conv2d_zero_gradient_keeps_its_signed_zeros(name, zero, dtype, rng):
    """An all-zero upstream gradient (either sign) must fold to exactly the
    parent's zeros, byte for byte: a zero strip left unwritten, a stale
    scratch row or an offset added twice would show as a non-zero or a
    flipped sign."""
    shape, c_out, kernel, stride, padding = CONV_CASES[name]
    x = signed(rng, shape, dtype)
    w = rng.standard_normal((c_out, shape[1], *kernel)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    expected_out, backward = ref.conv2d(x, w, b, stride, padding)
    grad = np.full(expected_out.shape, zero, dtype=dtype)
    expected_grads = backward(grad)

    for grad_layout in LAYOUTS:
        # Scratch and fresh buffers hold stale non-zeros from the last step.
        F.conv2d(Tensor(x, requires_grad=True, dtype=dtype), Tensor(w, dtype=dtype),
                 stride=stride, padding=padding)._backward(signed(rng, grad.shape, dtype))
        tensors = [Tensor(x, requires_grad=True, dtype=dtype),
                   Tensor(w, requires_grad=True, dtype=dtype),
                   Tensor(b, requires_grad=True, dtype=dtype)]
        F.conv2d(*tensors, stride=stride, padding=padding)._backward(lay(grad, grad_layout))
        for tensor, expected in zip(tensors, expected_grads):
            assert_identical(tensor.grad, expected)


@pytest.mark.parametrize("name", CHANNEL_MAJOR_FOLDS + CHANNELS_LAST_FOLDS)
def test_conv2d_folds_few_channel_inputs_channel_major(name, rng):
    """The layout of the input gradient is a shape rule: 2-4 input channels
    fold channel-major, every other count keeps the channels-last fold."""
    shape, c_out, kernel, stride, padding = CONV_CASES[name]
    inputs = Tensor(signed(rng, shape, np.float64), requires_grad=True)
    weight = Tensor(rng.standard_normal((c_out, shape[1], *kernel)))
    out = F.conv2d(inputs, weight, stride=stride, padding=padding)
    out._backward(signed(rng, out.shape, np.float64))
    expected_order = (1, 0, 2, 3) if name in CHANNEL_MAJOR_FOLDS else (0, 2, 3, 1)
    real = [axis for axis in range(4) if shape[axis] > 1]
    assert ([axis for axis in axis_order(inputs.grad) if axis in real]
            == [axis for axis in expected_order if axis in real])


def test_conv2d_without_input_gradient_skips_only_that_gradient(rng):
    """What ``EndSystem.forward_batch`` now does with the raw images."""
    shape, c_out, kernel, stride, padding = CONV_CASES["tiny-L1"]
    x = signed(rng, shape, np.float64)
    w = rng.standard_normal((c_out, shape[1], *kernel))
    b = rng.standard_normal(c_out)
    expected_out, backward = ref.conv2d(x, w, b, stride, padding)
    grad = signed(rng, expected_out.shape, np.float64)
    _, expected_w, expected_b = backward(grad)
    images, weight, bias = Tensor(x), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    out = F.conv2d(images, weight, bias, stride=stride, padding=padding)
    out.backward(grad)
    assert images.grad is None
    assert_identical(weight.grad, expected_w)
    assert_identical(bias.grad, expected_b)


# (input shape, kernel, stride)
POOL_CASES = {
    "paper-L1": ((32, 16, 32, 32), (2, 2), (2, 2)),
    "paper-L5": ((32, 256, 2, 2), (2, 2), (2, 2)),
    "tiny-L1": ((10, 4, 8, 8), (2, 2), (2, 2)),
    "remainder": ((3, 4, 7, 9), (2, 2), (2, 2)),        # last row/column uncovered
    "overlapping": ((3, 4, 7, 9), (3, 3), (2, 2)),      # accumulating backward
    "gapped": ((3, 4, 8, 9), (2, 2), (3, 3)),           # stride > kernel
    "non-square": ((2, 3, 6, 9), (2, 3), (2, 3)),
    "batch-1": ((1, 2, 4, 4), (2, 2), (2, 2)),
}


#: Pooling inputs by sign.  The paper CNN pools post-ReLU activations; the
#: other kinds are what a pool placed before its ReLU would see.
POOL_INPUTS = {
    "post-relu": lambda rng, shape, dtype: np.maximum(signed(rng, shape, dtype), 0),
    "signed": signed,
    "all-negative": lambda rng, shape, dtype: (
        -1.0 - np.abs(rng.standard_normal(shape))).astype(dtype),
    "negative-ties": lambda rng, shape, dtype: (
        -rng.integers(1, 4, size=shape)).astype(dtype),
}


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("inputs_kind", POOL_INPUTS)
@pytest.mark.parametrize("name", POOL_CASES)
def test_max_pool2d_matches_the_parent(name, inputs_kind, dtype, rng):
    shape, kernel, stride = POOL_CASES[name]
    x = POOL_INPUTS[inputs_kind](rng, shape, dtype)
    expected_out, backward = ref.max_pool2d(x, kernel, stride)
    grad = signed(rng, expected_out.shape, dtype)
    expected_grad = backward(grad)

    for x_layout, grad_layout in itertools.product(LAYOUTS, LAYOUTS):
        inputs = Tensor(lay(x, x_layout), requires_grad=True, dtype=dtype)
        out = F.max_pool2d(inputs, kernel, stride)
        assert_identical(out.data, expected_out)
        assert_laid_out_like(out.data, inputs.data)
        out._backward(lay(grad, grad_layout))
        assert_identical(inputs.grad, expected_grad)
        assert_laid_out_like(inputs.grad, inputs.data)
        with no_grad():
            assert_identical(F.max_pool2d(Tensor(lay(x, x_layout), dtype=dtype),
                                          kernel, stride).data, expected_out)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_relu_matches_the_parent(dtype, rng):
    for shape in [(32, 16, 32, 32), (10, 4, 8, 8), (1, 3, 5, 7)]:
        x = signed(rng, shape, dtype)
        expected_out, backward = ref.relu(x)
        grad = signed(rng, shape, dtype)
        expected_grad = backward(grad)
        for x_layout, grad_layout in itertools.product(LAYOUTS, LAYOUTS):
            inputs = Tensor(lay(x, x_layout), requires_grad=True, dtype=dtype)
            out = inputs.relu()
            assert_identical(out.data, expected_out)
            assert_laid_out_like(out.data, inputs.data)
            out._backward(lay(grad, grad_layout))
            assert_identical(inputs.grad, expected_grad)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_block_chain_matches_the_parent(dtype, rng):
    """conv → ReLU → pool → conv → ReLU → pool through the autograd graph:
    a C-contiguous seed gradient at the end (the wire gradient a client
    receives), channels-last in between."""
    x = signed(rng, (6, 3, 16, 16), dtype)
    weights = [rng.standard_normal(shape).astype(dtype) * 0.2
               for shape in [(8, 3, 3, 3), (8,), (12, 8, 3, 3), (12,)]]

    conv1, back_conv1 = ref.conv2d(x, weights[0], weights[1], (1, 1), (1, 1))
    relu1, back_relu1 = ref.relu(conv1)
    pool1, back_pool1 = ref.max_pool2d(relu1, (2, 2), (2, 2))
    pool1 = np.ascontiguousarray(pool1)  # the parent pooled into a C-contiguous array
    conv2, back_conv2 = ref.conv2d(pool1, weights[2], weights[3], (1, 1), (1, 1))
    relu2, back_relu2 = ref.relu(conv2)
    expected_out, back_pool2 = ref.max_pool2d(relu2, (2, 2), (2, 2))
    seed = signed(rng, expected_out.shape, dtype)
    mid, *expected_tail = back_conv2(back_relu2(back_pool2(seed)))
    expected = list(back_conv1(back_relu1(back_pool1(mid)))) + expected_tail

    inputs = Tensor(x, requires_grad=True, dtype=dtype)
    params = [Tensor(value, requires_grad=True, dtype=dtype) for value in weights]
    hidden = F.max_pool2d(F.conv2d(inputs, params[0], params[1], padding=1).relu(), 2)
    out = F.max_pool2d(F.conv2d(hidden, params[2], params[3], padding=1).relu(), 2)
    assert axis_order(out.data) == (0, 2, 3, 1)
    assert_identical(out.data, expected_out)
    out.backward(seed)
    for tensor, value in zip([inputs, params[0], params[1], params[2], params[3]], expected):
        assert_identical(tensor.grad, value)


# --------------------------------------------------------------------------- #
# Whole model: one split step of the paper CNN
# --------------------------------------------------------------------------- #
def _parent_conv2d(inputs, weight, bias=None, stride=1, padding=0, activation=None):
    assert activation is None and bias is not None
    out_data, backward = ref.conv2d(inputs.data, weight.data, bias.data,
                                    F._pair(stride), F._pair(padding))
    out = Tensor(out_data, requires_grad=True, dtype=out_data.dtype)
    out._parents = (inputs, weight, bias)

    def _backward(grad):
        for tensor, value in zip(out._parents, backward(grad)):
            tensor._accumulate(value, owned=True)

    out._backward = _backward
    return out


def _parent_max_pool2d(inputs, kernel_size=2, stride=None):
    kernel = F._pair(kernel_size)
    out_data, backward = ref.max_pool2d(inputs.data, kernel,
                                        F._pair(stride) if stride is not None else kernel)
    out = Tensor(out_data, requires_grad=True, dtype=out_data.dtype)
    out._parents = (inputs,)
    out._backward = lambda grad: inputs._accumulate(backward(grad), owned=True)
    return out


def _parent_relu(self):
    out_data, backward = ref.relu(self.data)
    out = Tensor(out_data, requires_grad=True, dtype=out_data.dtype)
    out._parents = (self,)
    out._backward = lambda grad: self._accumulate(backward(grad), owned=True)
    return out


def _two_split_steps(dtype):
    """Two batches (32, then a remainder of 20) through client and server."""
    with default_dtype(dtype):
        rng = np.random.default_rng(5)
        images = rng.standard_normal((52, 3, 32, 32)).astype(dtype)
        labels = rng.integers(0, 10, size=52)
        spec = SplitSpec(paper_cnn_architecture(), client_blocks=1)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=32, shuffle=False)
        client = EndSystem(0, loader, spec, optimizer_name="adam", seed=1)
        server = CentralServer(spec, optimizer_name="adam", seed=2)
        losses = []
        for batch_images, batch_labels in client.batches(0):
            reply = server.process(client.forward_batch(batch_images, batch_labels))
            client.apply_gradient(reply)
            losses.append(reply.loss)
        return {**{f"client/{k}": v for k, v in client.state_dict().items()},
                **{f"server/{k}": v for k, v in server.state_dict().items()}}, losses


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_paper_cnn_split_steps_leave_byte_equal_weights(dtype, monkeypatch):
    weights, losses = _two_split_steps(dtype)
    with monkeypatch.context() as patched:
        patched.setattr(F, "conv2d", _parent_conv2d)
        patched.setattr(F, "max_pool2d", _parent_max_pool2d)
        patched.setattr(Tensor, "relu", _parent_relu)
        expected_weights, expected_losses = _two_split_steps(dtype)
    assert losses == expected_losses
    assert weights.keys() == expected_weights.keys() and len(weights) == 14
    for name in weights:
        assert weights[name].dtype == dtype
        assert_identical(weights[name], expected_weights[name])
