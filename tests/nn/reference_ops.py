"""The pre-channels-last ``conv2d`` / ``relu`` / ``max_pool2d`` bodies, frozen.

Copied from ``repro.nn.functional`` / ``repro.nn.tensor`` at commit
``5415b81`` (the parent of the channels-last rewrite) with the autograd
plumbing stripped: each op takes plain arrays and returns ``(output,
backward)``, where ``backward(grad)`` returns the gradients the parent's
closure accumulated.  The arithmetic is verbatim — the per-offset patch
gather (direct for stride 1, pad-then-gather otherwise), the same backend
GEMM calls, the ``(i, j)``-ordered col2im fold, ``grad.sum(axis=(0, 2, 3))``
on whatever layout it is handed — only the workspace buffers became fresh
allocations.  ``test_channels_last_exact.py`` requires the current ops to
match these bit for bit; do not "fix" or modernise this file.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.backend import get_backend

Pair = Tuple[int, int]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _pad_images(images: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return images
    n, c, h, w = images.shape
    padded = np.empty((n, c, h + 2 * ph, w + 2 * pw), images.dtype)
    if ph:
        padded[:, :, :ph, :] = 0.0
        padded[:, :, ph + h:, :] = 0.0
    if pw:
        padded[:, :, ph:ph + h, :pw] = 0.0
        padded[:, :, ph:ph + h, pw + w:] = 0.0
    padded[:, :, ph:ph + h, pw:pw + w] = images
    return padded


def _gather_patches_direct(x: np.ndarray, out: np.ndarray, ph: int, pw: int) -> np.ndarray:
    _, _, h, w = x.shape
    _, oh, ow, kh, kw, _ = out.shape
    for i in range(kh):
        di = i - ph
        r0, r1 = max(0, -di), min(oh, h - di)
        for j in range(kw):
            dj = j - pw
            c0, c1 = max(0, -dj), min(ow, w - dj)
            view = out[:, :, :, i, j, :]
            if r0 > 0:
                view[:, :r0, :, :] = 0.0
            if r1 < oh:
                view[:, r1:, :, :] = 0.0
            if c0 > 0:
                view[:, r0:r1, :c0, :] = 0.0
            if c1 < ow:
                view[:, r0:r1, c1:, :] = 0.0
            view[:, r0:r1, c0:c1, :] = (
                x[:, :, r0 + di:r1 + di, c0 + dj:c1 + dj].transpose(0, 2, 3, 1)
            )
    return out


def _gather_patches(padded: np.ndarray, out: np.ndarray, sh: int, sw: int) -> np.ndarray:
    _, oh, ow, kh, kw, _ = out.shape
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            out[:, :, :, i, j, :] = padded[:, :, i:i_end:sh, j:j_end:sw].transpose(0, 2, 3, 1)
    return out


def conv2d(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride: Pair, padding: Pair,
    activation: Optional[str] = None,
) -> Tuple[np.ndarray, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]]:
    """``activation`` is the inference-mode GEMM epilogue (no backward use)."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    out_h = _out_size(h, kh, sh, ph)
    out_w = _out_size(w_in, kw, sw, pw)
    backend = get_backend()

    patches = np.empty((n, out_h, out_w, kh, kw, c_in), dtype=x.dtype)
    if sh == 1 and sw == 1:
        _gather_patches_direct(x, patches, ph, pw)
    else:
        _gather_patches(_pad_images(x, ph, pw), patches, sh, sw)
    cols_matrix = patches.reshape(n * out_h * out_w, kh * kw * c_in)
    weight_matrix = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(c_out, -1)
    out_matrix = backend.gemm(cols_matrix, weight_matrix.T, bias=bias, activation=activation)
    out_data = out_matrix.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray):
        grad_matrix = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            n * out_h * out_w, c_out
        )
        grad_weight = np.ascontiguousarray(
            backend.gemm(grad_matrix.T, cols_matrix)
            .reshape(c_out, kh, kw, c_in)
            .transpose(0, 3, 1, 2)
        )
        grad_bias = grad.sum(axis=(0, 2, 3)) if bias is not None else None
        grad_cols_matrix = backend.gemm(
            grad_matrix, weight_matrix,
            out=np.empty((n * out_h * out_w, kh * kw * c_in), grad.dtype),
        )
        grad_cols = grad_cols_matrix.reshape(n, out_h, out_w, kh, kw, c_in)
        padded_shape = (n, h + 2 * ph, w_in + 2 * pw, c_in)
        if sh == 1 and sw == 1:
            grad_padded = np.empty(padded_shape, dtype=grad.dtype)
            if kh > 1:
                grad_padded[:, out_h:, :, :] = 0.0
            if kw > 1:
                grad_padded[:, :out_h, out_w:, :] = 0.0
            grad_padded[:, :out_h, :out_w, :] = grad_cols[:, :, :, 0, 0, :]
            offsets = [(i, j) for i in range(kh) for j in range(kw)][1:]
        else:
            grad_padded = np.zeros(padded_shape, dtype=grad.dtype)
            offsets = [(i, j) for i in range(kh) for j in range(kw)]
        for i, j in offsets:
            i_end = i + sh * out_h
            j_end = j + sw * out_w
            grad_padded[:, i:i_end:sh, j:j_end:sw, :] += grad_cols[:, :, :, i, j, :]
        grad_input = np.ascontiguousarray(
            grad_padded[:, ph:ph + h, pw:pw + w_in, :].transpose(0, 3, 1, 2)
        )
        return grad_input, grad_weight, grad_bias

    return out_data, backward


def relu(x: np.ndarray) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    out_data = np.maximum(x, 0)

    def backward(grad: np.ndarray) -> np.ndarray:
        mask = np.empty(out_data.shape, np.bool_)
        np.greater(out_data, 0, out=mask)
        return grad * mask

    return out_data, backward


def _pairwise_max(images: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                  out_h: int, out_w: int) -> np.ndarray:
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


def max_pool2d(
    x: np.ndarray, kernel: Pair, stride: Pair,
) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The unpadded path (pairwise maxima; winners recomputed in backward)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = _out_size(h, kh, sh, 0)
    out_w = _out_size(w, kw, sw, 0)
    out_data = _pairwise_max(x, kh, kw, sh, sw, out_h, out_w)

    def backward(grad: np.ndarray) -> np.ndarray:
        grad_image = np.zeros((n, c, h, w), dtype=grad.dtype)
        equal = np.empty(out_data.shape, np.bool_)
        winner = np.empty(out_data.shape, np.bool_)
        assigned = np.zeros(out_data.shape, np.bool_)
        disjoint = sh >= kh and sw >= kw
        for i in range(kh):
            i_end = i + sh * out_h
            for j in range(kw):
                j_end = j + sw * out_w
                np.equal(x[:, :, i:i_end:sh, j:j_end:sw], out_data, out=equal)
                np.greater(equal, assigned, out=winner)
                target = grad_image[:, :, i:i_end:sh, j:j_end:sw]
                if disjoint:
                    np.multiply(grad, winner, out=target)
                else:
                    target += grad * winner
                if (i, j) != (kh - 1, kw - 1):
                    np.logical_or(assigned, equal, out=assigned)
        return grad_image

    return out_data, backward
