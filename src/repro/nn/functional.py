"""Functional neural-network operations with custom gradients.

These functions complement the primitive operations on :class:`~repro.nn.tensor.Tensor`
with the structured operations needed by the paper's CNN (Fig. 3):
2-D convolution (im2col + GEMM), max pooling, softmax, log-softmax and
the classification losses.

All functions accept and return :class:`Tensor` objects and register
their own backward closures, so they compose freely with the rest of the
autograd graph.

Hot-path design
---------------
The convolution and pooling paths are the throughput bottleneck of every
split-learning experiment, and what they cost beyond their GEMMs is data
movement, so they are written to move each array once:

* **channels-last in memory, NCHW in shape**: ``conv2d``'s GEMM output
  ``(N*oh*ow, C_out)`` *is* an NHWC array, returned as a transposed view,
  and ReLU, max-pool and every backward closure of the conv → ReLU → pool
  chain allocate their outputs, masks and scratch in the memory order of
  the array they follow — no pass walks two layouts and nothing is
  re-laid between layers.  Shapes, state dicts, ``Flatten``/``Dense``
  weight order and wire payloads (C-contiguous copies) are plain NCHW;
* **one-copy im2col for every stride** (``_gather_patches``): in a
  zero-bordered NHWC scratch copy of the input the ``kw`` pixels of a
  patch row are one contiguous run, so a single ``np.copyto`` from one
  strided window view writes the patch-major GEMM operand;
* **layout-stable backward**: the upstream gradient already is the GEMM
  operand, the col2im fold accumulates its ``kh*kw`` slabs into an NHWC
  image (channel-major for a 2-4 channel input, whose NHWC runs are too
  short) and hands the interior upstream as a view, and an input that
  requires no gradient (an end-system's raw images) costs neither the
  input-gradient GEMM nor the fold;
* **bit-identical arithmetic**: every GEMM sees the operands it always
  saw and the fold keeps its ``(i, j)`` order; the bias gradient, the one
  order-sensitive reduction, is summed from an NCHW re-lay (see
  ``conv2d``'s backward).  Weights and losses are byte-equal to the
  per-offset NCHW ops these replaced
  (``tests/nn/test_channels_last_exact.py``);
* transient buffers (padded input, inference-time column matrix,
  patch-gradient matrix, masks) come from the per-tag
  :mod:`repro.utils.perf` workspace cache.  Only buffers whose contents
  are never read by a backward closure after the op returns may live in
  a workspace — see the cache's safety contract;
* every GEMM goes through ``get_backend().gemm`` (:mod:`repro.backend`)
  (``conv2d``'s forward product fuses the bias — and in inference the
  activation — into the GEMM epilogue, :func:`linear` is a single fused
  affine node, the blocked backend tiles large products);
* :func:`cross_entropy` fuses the log-softmax into the loss: one pass
  computes the per-sample losses and the backward closure emits
  ``(softmax - one_hot) * scale`` directly;
* ``max_pool2d`` reduces with pairwise maxima over the strided planes
  (no window matrix or argmax; in training the winner mask is
  recomputed in backward).

Op-level counters (GEMM calls, conv/pool invocations, workspace traffic)
are recorded in :data:`repro.utils.perf.counters`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..backend import get_backend
from ..utils.perf import axis_order, counters, workspace, workspace_like
from .dtype import get_default_dtype
from .tensor import Tensor, ensure_tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "linear",
    "max_pool2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "one_hot",
]

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
def _gather_patches(x: np.ndarray, out: np.ndarray, sh: int, sw: int,
                    ph: int, pw: int) -> None:
    """Fill ``out`` (``(N, oh, ow, kh, kw*C)``) with convolution patches in one copy.

    ``x`` is laid out channels-last with a zero border (into transient
    scratch; an unpadded input that already is channels-last in memory is
    read in place), where the ``kw`` pixels of a patch row are one
    contiguous run of ``kw*C`` values.  One strided view exposes every
    patch row and one ``np.copyto`` writes the patch-major GEMM operand:
    ``out.reshape(N*oh*ow, kh*kw*C)`` is a zero-copy view.
    """
    nhwc = x.transpose(0, 2, 3, 1)
    if ph or pw or not nhwc.flags.c_contiguous:
        n, h, w, c = nhwc.shape
        padded = workspace("conv2d.pad", (n, h + 2 * ph, w + 2 * pw, c), x.dtype)
        # Zero only the border stripes: the interior is overwritten below.
        if ph:
            padded[:, :ph] = 0.0
            padded[:, ph + h:] = 0.0
        if pw:
            padded[:, ph:ph + h, :pw] = 0.0
            padded[:, ph:ph + h, pw + w:] = 0.0
        padded[:, ph:ph + h, pw:pw + w] = nhwc
        nhwc = padded
    # C-contiguous here; strides from the shape (those NumPy reports for
    # size-1 axes are arbitrary).  The constructor bounds-checks the view.
    _, rows, row_pixels, c = nhwc.shape
    pixel = c * x.itemsize
    row = row_pixels * pixel
    windows = np.ndarray(out.shape, x.dtype, buffer=nhwc,
                         strides=(rows * row, sh * row, sw * pixel, row, x.itemsize))
    np.copyto(out, windows)


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    activation: Optional[str] = None,
) -> Tensor:
    """2-D convolution over a mini-batch in NCHW layout.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    activation:
        Optional elementwise epilogue (currently ``"relu"``).  In
        inference mode it is fused into the backend's GEMM epilogue
        (applied per tile, no separate pass); in training mode it is
        appended as a regular autograd node so gradients stay exact.
    """
    inputs = ensure_tensor(inputs)
    weight = ensure_tensor(weight)
    stride = _pair(stride)
    padding = _pair(padding)

    x = inputs.data
    w = weight.data
    n, c_in, h, w_in = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in} channels, weight expects {c_in_w}"
        )

    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w_in, kw, sw, pw)

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)

    counters.add("conv2d_forward")
    backend = get_backend()
    # Single-copy rearrangement into the GEMM operand (N*oh*ow, kh*kw*C).
    patch_shape = (n, out_h, out_w, kh, kw * c_in)
    if requires:
        # The backward pass reads cols_matrix (weight gradient GEMM), so
        # it must own its storage — no workspace reuse here.
        patches = np.empty(patch_shape, dtype=x.dtype)
    else:
        patches = workspace("conv2d.cols", patch_shape, x.dtype)
    _gather_patches(x, patches, sh, sw, ph, pw)
    cols_matrix = patches.reshape(n * out_h * out_w, kh * kw * c_in)
    # Weight rearranged to match the (kh, kw, C) patch order; the copy is
    # kernel-sized (tiny) and shared by forward and backward.
    weight_matrix = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(c_out, -1)

    if activation is not None and activation != "relu":
        raise ValueError(f"conv2d supports activation='relu' or None, got {activation!r}")
    # The bias is fused into the GEMM epilogue (per-tile on the blocked
    # backend) instead of a second full pass over the output; in
    # inference mode the activation rides the same epilogue.
    out_matrix = backend.gemm(
        cols_matrix, weight_matrix.T,
        bias=bias.data if bias is not None else None,
        activation=activation if not requires else None,
    )  # (N*oh*ow, C_out)
    out_data = out_matrix.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    if not requires:
        return out
    out._parents = parents

    def _backward(grad: np.ndarray) -> None:
        counters.add("conv2d_backward")
        # A no-op when the gradient arrives in this op's own output
        # layout (channels-last memory), as ReLU/pool backward hand it.
        grad_matrix = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            n * out_h * out_w, c_out
        )
        if weight.requires_grad:
            grad_weight = np.ascontiguousarray(
                backend.gemm(grad_matrix.T, cols_matrix)
                .reshape(c_out, kh, kw, c_in)
                .transpose(0, 3, 1, 2)
            )
            weight._accumulate(grad_weight, owned=True)
        if bias is not None and bias.requires_grad:
            # The one order-sensitive reduction of the conv chain: on a
            # C-contiguous NCHW array NumPy sums pairwise over H*W and
            # sequentially over N, and the pinned float32/float64 weight
            # digests depend on exactly that order — so a channels-last
            # gradient is re-laid as NCHW scratch before it is summed.
            nchw = grad
            if not grad.flags.c_contiguous:
                nchw = workspace("conv2d.grad_nchw", grad.shape, grad.dtype)
                np.copyto(nchw, grad)
            bias._accumulate(nchw.sum(axis=(0, 2, 3)), owned=True)
        if inputs.requires_grad:
            # The patch-gradient matrix is transient scratch — it is fully
            # folded into grad_padded below before the closure returns —
            # so the GEMM writes into a workspace-cached buffer.
            grad_cols_matrix = backend.gemm(
                grad_matrix, weight_matrix,
                out=workspace("conv2d.grad_cols",
                              (n * out_h * out_w, kh * kw * c_in), grad.dtype),
            )  # (N*oh*ow, kh*kw*C)
            # Fold the patch gradients into a padded image, indexed as
            # (n, oh, ow, kh, kw, C) / NHWC whatever the memory order.
            # Each offset's ``+=`` walks runs of C values in the GEMM's
            # patch-major output and the NHWC image, so a few-channel
            # input (runs of 2-4 values) re-lays the GEMM output once,
            # channel-major, and folds into a CNHW image: the runs become
            # image rows.  Offsets, order and zero strips are unchanged,
            # so every element sees the same additions either way.
            # Fold-only speed-up of the channel-major layout, 74×C×8×8
            # input, 3x3 kernel, stride 1, float32 / float64, on a 2-vCPU
            # Xeon with NumPy 2.4: C 1 ×0.95 / ×0.86, 2 ×3.2 / ×2.7,
            # 3 ×2.4 / ×1.7, 4 ×1.8 / ×1.2, 6 ×1.2 / ×0.94, 8 ×0.93 /
            # ×0.83; the paper's 16-64 channel layers ×0.9 down to ×0.2.
            padded_hw = (h + 2 * ph, w_in + 2 * pw)
            if 2 <= c_in <= 4:
                channel_major = workspace("conv2d.grad_cols_t", grad_cols_matrix.shape[::-1],
                                          grad.dtype)
                np.copyto(channel_major, grad_cols_matrix.T)
                grad_cols = channel_major.reshape(kh, kw, c_in, n, out_h, out_w).transpose(
                    3, 4, 5, 0, 1, 2)
                padded_shape, to_nhwc = (c_in, n, *padded_hw), (1, 2, 3, 0)
            else:
                grad_cols = grad_cols_matrix.reshape(n, out_h, out_w, kh, kw, c_in)
                padded_shape, to_nhwc = (n, *padded_hw, c_in), (0, 1, 2, 3)
            if sh == 1 and sw == 1:
                # Stride-1 fast path: offset (0, 0) covers all but the
                # trailing kh-1 rows / kw-1 cols, so assign it into
                # uninitialized memory (zeroing only those strips) and
                # skip both the full zero fill and one accumulation pass.
                grad_padded = np.empty(padded_shape, dtype=grad.dtype).transpose(to_nhwc)
                if kh > 1:
                    grad_padded[:, out_h:, :, :] = 0.0
                if kw > 1:
                    grad_padded[:, :out_h, out_w:, :] = 0.0
                grad_padded[:, :out_h, :out_w, :] = grad_cols[:, :, :, 0, 0, :]
                offsets = [(i, j) for i in range(kh) for j in range(kw)][1:]
            else:
                grad_padded = np.zeros(padded_shape, dtype=grad.dtype).transpose(to_nhwc)
                offsets = [(i, j) for i in range(kh) for j in range(kw)]
            for i, j in offsets:
                i_end = i + sh * out_h
                j_end = j + sw * out_w
                grad_padded[:, i:i_end:sh, j:j_end:sw, :] += grad_cols[:, :, :, i, j, :]
            # Handed upstream as a view: NCHW shape over channels-last (or,
            # for a few-channel input, channel-major) memory.
            grad_input = grad_padded[:, ph:ph + h, pw:pw + w_in, :].transpose(0, 3, 1, 2)
            inputs._accumulate(grad_input, owned=True)

    out._backward = _backward
    if activation is not None:
        # Training mode: the epilogue becomes a regular graph node.
        return out.relu()
    return out


# --------------------------------------------------------------------------- #
# Dense / linear
# --------------------------------------------------------------------------- #
def linear(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``inputs @ weight + bias`` as one fused graph node.

    The bias add rides the GEMM epilogue (per-tile on the blocked
    backend) instead of being a separate broadcast-add node, so the
    forward pass is a single backend call and the backward pass is two
    GEMMs plus a column reduction.
    """
    inputs = ensure_tensor(inputs)
    weight = ensure_tensor(weight)
    if inputs.ndim != 2 or weight.ndim != 2:
        raise ValueError(
            f"linear expects 2-D operands, got {inputs.shape} @ {weight.shape}"
        )
    x = inputs.data
    w = weight.data
    parents = (inputs, weight) if bias is None else (inputs, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    backend = get_backend()
    counters.add("linear_forward")
    out_data = backend.gemm(x, w, bias=bias.data if bias is not None else None)

    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    if not requires:
        return out
    out._parents = parents

    def _backward(grad: np.ndarray) -> None:
        if inputs.requires_grad:
            inputs._accumulate(backend.gemm(grad, w.T), owned=True)
        if weight.requires_grad:
            weight._accumulate(backend.gemm(x.T, grad), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), owned=True)

    out._backward = _backward
    return out


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def _pairwise_max(images: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                  out_h: int, out_w: int) -> np.ndarray:
    """Window maximum as pairwise maxima over the kh*kw strided planes."""
    planes = [
        images[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
        for i in range(kh)
        for j in range(kw)
    ]
    if len(planes) == 1:
        return planes[0].copy()
    out = np.maximum(planes[0], planes[1])
    for plane in planes[2:]:
        np.maximum(out, plane, out=out)
    return out


def max_pool2d(inputs: Tensor, kernel_size: IntOrPair = 2,
               stride: Optional[IntOrPair] = None) -> Tensor:
    """Max pooling over spatial windows in NCHW layout (no padding).

    The paper's privacy argument (Fig. 4) hinges on this operation: the
    max-pooled first-block activations no longer reveal the raw image.
    Both paths reduce with pairwise maxima over the ``kh*kw`` strided
    planes, so no window matrix is ever materialised.
    """
    inputs = ensure_tensor(inputs)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)

    x = inputs.data
    _, _, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, 0)
    out_w = conv_output_size(w, kw, sw, 0)

    counters.add("pool_forward")
    out_data = _pairwise_max(x, kh, kw, sh, sw, out_h, out_w)
    requires = is_grad_enabled() and inputs.requires_grad
    if not requires:
        return Tensor(out_data, dtype=x.dtype)

    # Training: the backward pass recomputes the winners by comparing each
    # plane against the pooled output — no argmax, no gather.  Ties
    # resolve to the first (i, j) offset, exactly matching ``argmax`` order.
    counters.add("max_pool_fused")
    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    out._parents = (inputs,)

    def _backward(grad: np.ndarray) -> None:
        counters.add("pool_backward")
        # Everything below is elementwise, so it runs in the memory
        # order of the activations (channels-last after a conv).
        grad_image = np.zeros_like(x, dtype=grad.dtype)
        if axis_order(grad) != axis_order(out_data):
            # E.g. the C-contiguous wire gradient a client receives:
            # re-lay it once instead of striding through it kh*kw times.
            relaid = workspace_like("max_pool2d.grad", out_data, grad.dtype)
            np.copyto(relaid, grad)
            grad = relaid
        # Bool scratch is transient within this closure, so it comes
        # from the workspace cache (no per-step allocations).
        equal = workspace_like("max_pool2d.equal", out_data, np.bool_)
        winner = workspace_like("max_pool2d.winner", out_data, np.bool_)
        assigned = workspace_like("max_pool2d.assigned", out_data, np.bool_)
        assigned.fill(False)
        # With stride >= kernel every image cell belongs to at most
        # one window offset, so the masked gradient can be written
        # straight into the image instead of accumulated.
        disjoint = sh >= kh and sw >= kw
        for i in range(kh):
            i_end = i + sh * out_h
            for j in range(kw):
                j_end = j + sw * out_w
                np.equal(x[:, :, i:i_end:sh, j:j_end:sw], out_data, out=equal)
                np.greater(equal, assigned, out=winner)  # equal & ~assigned
                target = grad_image[:, :, i:i_end:sh, j:j_end:sw]
                if disjoint:
                    np.multiply(grad, winner, out=target)
                else:
                    target += grad * winner
                if (i, j) != (kh - 1, kw - 1):
                    np.logical_or(assigned, equal, out=assigned)
        inputs._accumulate(grad_image, owned=True)

    out._backward = _backward
    return out


# --------------------------------------------------------------------------- #
# Softmax / losses
# --------------------------------------------------------------------------- #
def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    logits = ensure_tensor(logits)
    shift = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shift, dtype=shift.dtype)
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = ensure_tensor(logits)
    shift = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shift, dtype=shift.dtype)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def _validate_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def one_hot(labels: np.ndarray, num_classes: int, dtype=None,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Convert integer labels of shape ``(N,)`` to a one-hot matrix ``(N, K)``.

    The encoding is a direct scatter — zero the destination, then write
    the label positions — rather than any row-gather of an identity
    matrix.  Passing ``out=`` scatters into that buffer (e.g. a
    workspace array) instead of allocating; otherwise the matrix is
    created in ``dtype`` (default: the global dtype policy) so that
    losses never up-cast float32 logits through a float64 mask.
    """
    labels = _validate_labels(labels, num_classes)
    if out is not None:
        if out.shape != (labels.shape[0], num_classes):
            raise ValueError(
                f"out has shape {out.shape}, expected {(labels.shape[0], num_classes)}"
            )
        encoded = out
        encoded.fill(0.0)
    else:
        encoded = np.zeros(
            (labels.shape[0], num_classes),
            dtype=dtype if dtype is not None else get_default_dtype(),
        )
    encoded[np.arange(labels.shape[0], dtype=np.intp), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``.

    In inference mode the one-hot mask scatters into a workspace buffer
    (nothing holds it after the op); in training mode the mask must stay
    alive for the multiply's backward closure, so it owns its storage.
    """
    log_probs = ensure_tensor(log_probs)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    num_classes = log_probs.shape[-1]
    if is_grad_enabled() and log_probs.requires_grad:
        encoded = one_hot(labels, num_classes, dtype=log_probs.dtype)
    else:
        encoded = one_hot(
            labels, num_classes,
            out=workspace("nll_loss.one_hot", (labels.shape[0], num_classes),
                          log_probs.dtype),
        )
    mask = Tensor(encoded, dtype=encoded.dtype)
    per_sample = -(log_probs * mask).sum(axis=-1)
    return _reduce(per_sample, reduction)


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy between raw ``logits`` and integer ``labels``.

    The log-softmax is **fused into the loss**: one NumPy pass computes
    the shifted exponentials and per-sample losses, and the backward
    closure emits the classic ``(softmax - one_hot) * scale`` gradient
    directly — no separate softmax materialisation, no intermediate
    graph nodes.  Non-2-D logits fall back to the composed
    ``nll_loss(log_softmax(...))`` reference path.
    """
    logits = ensure_tensor(logits)
    if logits.ndim != 2:
        return nll_loss(log_softmax(logits, axis=-1), labels, reduction=reduction)
    x = logits.data
    num_samples, num_classes = x.shape
    labels = _validate_labels(labels, num_classes)
    if labels.shape[0] != num_samples:
        raise ValueError(
            f"batch mismatch: {num_samples} logit rows vs {labels.shape[0]} labels"
        )
    counters.add("cross_entropy_fused")
    requires = is_grad_enabled() and logits.requires_grad
    rows = np.arange(num_samples, dtype=np.intp)

    shift = x.max(axis=1, keepdims=True)
    if requires:
        # The backward closure reads the probabilities, so they own
        # their storage; inference scatters into a workspace instead.
        probs = np.empty_like(x)
    else:
        probs = workspace("cross_entropy.probs", x.shape, x.dtype)
    np.subtract(x, shift, out=probs)
    np.exp(probs, out=probs)
    sum_exp = probs.sum(axis=1, keepdims=True)                  # (N, 1)
    per_sample = np.log(sum_exp[:, 0]) - (x[rows, labels] - shift[:, 0])
    if requires:
        probs /= sum_exp                                        # softmax(x)

    if reduction == "none":
        out_data = per_sample
    elif reduction == "mean":
        out_data = np.asarray(per_sample.mean())
    elif reduction == "sum":
        out_data = np.asarray(per_sample.sum())
    else:
        raise ValueError(
            f"unknown reduction {reduction!r}; expected 'mean', 'sum' or 'none'"
        )
    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    if not requires:
        return out
    out._parents = (logits,)

    def _backward(grad: np.ndarray) -> None:
        if reduction == "none":
            scale = np.asarray(grad).reshape(num_samples, 1)
        elif reduction == "mean":
            scale = np.asarray(grad) / num_samples
        else:
            scale = np.asarray(grad)
        grad_logits = probs * scale
        if reduction == "none":
            grad_logits[rows, labels] -= scale[:, 0]
        else:
            grad_logits[rows, labels] -= scale
        logits._accumulate(grad_logits, owned=True)

    out._backward = _backward
    return out


def mse_loss(predictions: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error between two tensors."""
    predictions = ensure_tensor(predictions)
    targets = ensure_tensor(targets)
    squared = (predictions - targets) * (predictions - targets)
    return _reduce(squared, reduction)


def _reduce(values: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return values.mean()
    if reduction == "sum":
        return values.sum()
    if reduction == "none":
        return values
    raise ValueError(f"unknown reduction {reduction!r}; expected 'mean', 'sum' or 'none'")
