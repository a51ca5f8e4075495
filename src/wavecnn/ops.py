"""Forward and reverse-mode backward rules for every layer type.

All ops are pure functions over [batch, time, channels] arrays. Each forward
returns (output, cache); the matching backward consumes the cache and the
output gradient and returns exact adjoints. Gradients at fan-out points (the
residual shortcut) accumulate additively.

Convolution forward dispatches on dtype:

  float64  accumulates products one (tap, in_channel) pair at a time, in the
           same order as a naive triple loop, so results are bitwise equal to
           the brute-force reference. Used by gradient checks.
  float32  im2col + GEMM with float64 accumulation, rounded once at the end.
           Used for training speed.

Convolution backward accumulates in float64 for both dtypes and dispatches on
the input channel count. A per-tap product has inner dimension Cin, so with
deep inputs each of the rf taps is already a full GEMM and the backward loops
over taps. With thin inputs (the waveform stem has Cin 1) a per-tap product is
a memory-bound pass over the whole output gradient, repeated 2*rf times, so
the backward instead gathers each clip's receptive fields into im2col rows
[out_T, rf*Cin] and does one GEMM for grad_kernel and one for the im2col
gradient, which an rf-step strided col2im adds back onto grad_x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import check_finite

# Cap on the float64 im2col buffer; larger batches are processed in slices.
_GEMM_BUDGET_BYTES = 128 << 20

# Backward gathers whole-window im2col rows below this many input channels;
# from Cin 8 up the per-tap GEMMs measured as fast or faster.
_IM2COL_BACKWARD_MAX_CIN = 8


@dataclass
class ConvParams:
    """Same-padded 1D convolution parameters.

    kernel [rf, in_ch, out_ch]; bias present only when the layer is not
    followed by batch normalization (BN's shift subsumes it).
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1

    @property
    def rf(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[2]


@dataclass
class BatchNormState:
    """Per-channel scale/shift plus running statistics.

    Running stats start at (mean 0, var 1) so inference is valid before any
    training update. Train mode pools statistics over the batch and time
    axes, which keeps the parameter count independent of clip length.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5


def same_pad_1d(T: int, rf: int, stride: int) -> tuple:
    """Zero-pad sizes so a strided conv maps time T -> ceil(T/stride).

    The pad splits as evenly as possible with the extra sample at the end.
    """
    out_T = -(-T // stride)
    total = max((out_T - 1) * stride + rf - T, 0)
    left = total // 2
    return out_T, left, total - left


def conv1d_forward(x: np.ndarray, p: ConvParams):
    """x [B,T,Cin] -> y [B, ceil(T/stride), Cout] with 'same' zero padding."""
    B, T, Cin = x.shape
    if T < 1:
        raise ValueError("conv1d: empty time axis")
    if Cin != p.in_channels:
        raise ValueError(
            f"conv1d: input has {Cin} channels, kernel expects {p.in_channels}"
        )
    rf, stride = p.rf, p.stride
    out_T, left, right = same_pad_1d(T, rf, stride)
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))

    if x.dtype == np.float64:
        y = np.zeros((B, out_T, p.out_channels), dtype=np.float64)
        # One (r, c) product per pass: accumulation order matches the naive
        # triple-loop reference bitwise.
        for r in range(rf):
            xs = xp[:, r : r + stride * out_T : stride, :]
            for c in range(Cin):
                y += xs[:, :, c : c + 1] * p.kernel[r, c][None, None, :]
        if p.bias is not None:
            y += p.bias
    else:
        k2 = p.kernel.astype(np.float64).transpose(1, 0, 2).reshape(Cin * rf, -1)
        y64 = np.empty((B, out_T, p.out_channels), dtype=np.float64)
        rows_per_clip = out_T * Cin * rf * 8
        step = max(1, _GEMM_BUDGET_BYTES // max(rows_per_clip, 1))
        for b0 in range(0, B, step):
            win = sliding_window_view(xp[b0 : b0 + step], rf, axis=1)[:, ::stride]
            flat = win.reshape(-1, Cin * rf).astype(np.float64)
            y64[b0 : b0 + step] = (flat @ k2).reshape(-1, out_T, p.out_channels)
        if p.bias is not None:
            y64 += p.bias.astype(np.float64)
        y = y64.astype(x.dtype)

    cache = (xp, x.shape, p, out_T, left)
    return check_finite("conv1d", y), cache


def conv1d_backward(grad_out: np.ndarray, cache):
    """Adjoints of conv1d_forward: (grad_x, grad_kernel, grad_bias)."""
    xp, x_shape, p, out_T, left = cache
    B, T, Cin = x_shape
    rf, stride, Cout = p.rf, p.stride, p.out_channels
    if grad_out.shape != (B, out_T, Cout):
        raise ValueError(
            f"conv1d backward: grad shape {grad_out.shape} != {(B, out_T, Cout)}"
        )
    k64 = p.kernel.astype(np.float64, copy=False)
    grad_xp = np.zeros(xp.shape, dtype=np.float64)
    if Cin < _IM2COL_BACKWARD_MAX_CIN:
        # One clip at a time, through buffers reused for every clip: the
        # im2col memory is one clip's worth, allocated once per call.
        k2 = k64.transpose(1, 0, 2).reshape(Cin * rf, Cout)
        gk2 = np.zeros((Cin * rf, Cout), dtype=np.float64)
        cols = np.empty((out_T, Cin, rf), dtype=np.float64)
        gcols = np.empty((out_T, Cin, rf), dtype=np.float64)
        g = np.empty((out_T, Cout), dtype=np.float64)
        for b in range(B):
            cols[...] = sliding_window_view(xp[b], rf, axis=0)[::stride]
            g[...] = grad_out[b]
            gk2 += cols.reshape(out_T, Cin * rf).T @ g
            np.matmul(g, k2.T, out=gcols.reshape(out_T, Cin * rf))
            for r in range(rf):
                grad_xp[b, r : r + stride * out_T : stride, :] += gcols[:, :, r]
        grad_kernel = gk2.reshape(Cin, rf, Cout).transpose(1, 0, 2)
    else:
        g64 = grad_out.astype(np.float64, copy=False)
        grad_kernel = np.empty_like(k64)
        for r in range(rf):
            xs = xp[:, r : r + stride * out_T : stride, :].astype(np.float64, copy=False)
            grad_kernel[r] = np.tensordot(xs, g64, axes=([0, 1], [0, 1]))
            grad_xp[:, r : r + stride * out_T : stride, :] += g64 @ k64[r].T
    grad_x = grad_xp[:, left : left + T, :].astype(grad_out.dtype)
    grad_kernel = grad_kernel.astype(p.kernel.dtype)

    grad_bias = None
    if p.bias is not None:
        grad_bias = grad_out.sum(axis=(0, 1), dtype=np.float64).astype(p.bias.dtype)
    return grad_x, grad_kernel, grad_bias


def maxpool1d_forward(x: np.ndarray, window: int = 4):
    """Per-window maximum along time, ceil semantics for the final window."""
    B, T, C = x.shape
    out_T = -(-T // window)
    pad = out_T * window - T
    if pad:
        xp = np.concatenate(
            [x, np.full((B, pad, C), -np.inf, dtype=x.dtype)], axis=1
        )
    else:
        xp = x
    xr = xp.reshape(B, out_T, window, C)
    y = xr.max(axis=2)
    # The first maximal slot's index is the count of slots before it that
    # miss the max, which keeps the first-index rule on ties.
    before = xr[:, :, 0, :] != y
    idx = before.astype(np.intp)
    for w in range(1, window - 1):
        before &= xr[:, :, w, :] != y
        idx += before
    cache = (idx, T, window)
    return check_finite("maxpool1d", y), cache


def maxpool1d_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    """Route each window's gradient to its (first) argmax position."""
    idx, T, window = cache
    B, out_T, C = grad_out.shape
    g = np.zeros((B, out_T, window, C), dtype=grad_out.dtype)
    np.put_along_axis(g, idx[:, :, None, :], grad_out[:, :, None, :], axis=2)
    return g.reshape(B, out_T * window, C)[:, :T, :]


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    return check_finite("relu", y), x > 0


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


def batchnorm_forward(x: np.ndarray, s: BatchNormState, mode: str):
    """Normalize per channel; train mode pools stats over (batch, time).

    Train mode updates running stats in place:
    running <- (1 - momentum) * running + momentum * batch.
    """
    if x.shape[-1] != s.gamma.shape[0]:
        raise ValueError(
            f"batchnorm: {x.shape[-1]} channels vs state {s.gamma.shape[0]}"
        )
    reduce_axes = tuple(range(x.ndim - 1))
    if mode == "train":
        if x.shape[0] < 2:
            raise ValueError("batchnorm train mode requires batch size >= 2")
        mu = x.mean(axis=reduce_axes)
        var = x.var(axis=reduce_axes)
        s.running_mean[...] = (1 - s.momentum) * s.running_mean + s.momentum * mu
        s.running_var[...] = (1 - s.momentum) * s.running_var + s.momentum * var
    elif mode == "infer":
        mu = s.running_mean.astype(x.dtype, copy=False)
        var = s.running_var.astype(x.dtype, copy=False)
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    inv = 1.0 / np.sqrt(var + np.asarray(s.eps, dtype=x.dtype))
    xhat = (x - mu) * inv
    y = s.gamma * xhat + s.beta
    n = int(np.prod([x.shape[a] for a in reduce_axes]))
    cache = (xhat, inv, s.gamma, n, mode == "train", reduce_axes)
    return check_finite("batchnorm", y), cache


def batchnorm_backward(grad_out: np.ndarray, cache):
    """Adjoints (grad_x, grad_gamma, grad_beta) of batchnorm_forward."""
    xhat, inv, gamma, n, trained, axes = cache
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    if trained:
        # Batch statistics depend on x, so their adjoints fold back in.
        gx_hat = grad_out * gamma
        grad_x = (
            inv / n * (n * gx_hat - gx_hat.sum(axis=axes) - xhat * (gx_hat * xhat).sum(axis=axes))
        )
    else:
        grad_x = grad_out * gamma * inv
    return grad_x.astype(grad_out.dtype, copy=False), grad_gamma, grad_beta


def global_avg_pool(x: np.ndarray):
    """Mean over the time axis: [B,T,C] -> [B,1,C], any T >= 1."""
    if x.shape[1] < 1:
        raise ValueError("global_avg_pool: empty time axis")
    y = x.mean(axis=1, keepdims=True)
    return check_finite("global_avg_pool", y), x.shape[1]


def global_avg_pool_backward(grad_out: np.ndarray, T: int) -> np.ndarray:
    return np.repeat(grad_out / T, T, axis=1).astype(grad_out.dtype, copy=False)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None):
    """x [B,C] @ w [C,K] (+ b [K])."""
    y = x @ w
    if b is not None:
        y = y + b
    return check_finite("affine", y), (x, w, b is not None)


def affine_backward(grad_out: np.ndarray, cache):
    x, w, has_bias = cache
    grad_x = grad_out @ w.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax (max subtraction)."""
    shift = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shift)
    return check_finite("softmax", e / e.sum(axis=1, keepdims=True))


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, probs, grad_logits)."""
    B, K = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"label out of range [0,{K}): {labels}")
    shift = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shift)
    z = e.sum(axis=1, keepdims=True)
    probs = e / z
    logp = shift - np.log(z)
    loss = float(-logp[np.arange(B), labels].mean())
    grad_logits = probs.copy()
    grad_logits[np.arange(B), labels] -= 1.0
    grad_logits /= B
    return loss, check_finite("softmax_xent", probs), grad_logits.astype(logits.dtype, copy=False)


def dense_softmax_xent(x: np.ndarray, w: np.ndarray, b: np.ndarray, labels: np.ndarray):
    """Classification head: logits = x@w + b, softmax, mean cross-entropy."""
    logits, aff_cache = affine_forward(x, w, b)
    loss, probs, grad_logits = softmax_xent(logits, labels)
    return loss, probs, (aff_cache, grad_logits)


def dense_softmax_xent_backward(cache):
    aff_cache, grad_logits = cache
    return affine_backward(grad_logits, aff_cache)


def dropout(x: np.ndarray, rate: float, mode: str, rng=None):
    """Inverted dropout: train zeroes with probability rate and rescales
    survivors by 1/(1-rate); inference is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0,1)")
    if mode != "train" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout train mode needs a RandomSource")
    keep = rng.uniform(0.0, 1.0, x.shape, dtype=x.dtype) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    y = x * keep * scale
    return check_finite("dropout", y), (keep, scale)


def dropout_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return grad_out
    keep, scale = cache
    return grad_out * keep * scale


def _pad_channels(x: np.ndarray, out_ch: int) -> np.ndarray:
    in_ch = x.shape[-1]
    if out_ch == in_ch:
        return x
    if out_ch < in_ch:
        raise ValueError(f"shortcut cannot shrink channels {in_ch} -> {out_ch}")
    return np.pad(x, ((0, 0), (0, 0), (0, out_ch - in_ch)))


def residual_block_forward(
    x: np.ndarray,
    conv1: ConvParams,
    bn1: BatchNormState | None,
    conv2: ConvParams,
    bn2: BatchNormState | None,
    mode: str,
):
    """Two stride-1 convolutions plus a parameter-free shortcut.

    y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x)); the shortcut is
    the identity when channels match and a zero-padded identity when the
    block widens (no projection weights, keeping the weight-layer count).
    BN states may be None for the no-BN ablations.
    """
    if conv1.stride != 1 or conv2.stride != 1:
        raise ValueError("residual block convolutions must have stride 1")
    h, c1 = conv1d_forward(x, conv1)
    if bn1 is not None:
        h, cb1 = batchnorm_forward(h, bn1, mode)
    else:
        cb1 = None
    h, m1 = relu_forward(h)
    h, c2 = conv1d_forward(h, conv2)
    if bn2 is not None:
        h, cb2 = batchnorm_forward(h, bn2, mode)
    else:
        cb2 = None
    shortcut = _pad_channels(x, conv2.out_channels)
    pre = h + shortcut
    y, m2 = relu_forward(pre)
    cache = (c1, cb1, m1, c2, cb2, m2, x.shape[-1])
    return y, cache


def residual_block_backward(grad_out: np.ndarray, cache):
    """Adjoints of residual_block_forward.

    Returns (grad_x, g_kernel1, g_bias1, g_gamma1, g_beta1,
             g_kernel2, g_bias2, g_gamma2, g_beta2); BN entries are None
    when the block has no BN.
    """
    c1, cb1, m1, c2, cb2, m2, in_ch = cache
    g = relu_backward(grad_out, m2)
    g_branch = g
    g_short = g[:, :, :in_ch]  # fan-out: shortcut grad is additive below
    g_gamma2 = g_beta2 = g_gamma1 = g_beta1 = None
    if cb2 is not None:
        g_branch, g_gamma2, g_beta2 = batchnorm_backward(g_branch, cb2)
    g_branch, g_kernel2, g_bias2 = conv1d_backward(g_branch, c2)
    g_branch = relu_backward(g_branch, m1)
    if cb1 is not None:
        g_branch, g_gamma1, g_beta1 = batchnorm_backward(g_branch, cb1)
    g_branch, g_kernel1, g_bias1 = conv1d_backward(g_branch, c1)
    grad_x = g_branch + g_short
    return (
        grad_x,
        g_kernel1,
        g_bias1,
        g_gamma1,
        g_beta1,
        g_kernel2,
        g_bias2,
        g_gamma2,
        g_beta2,
    )


class OpTape:
    """Reverse-mode record: forward pushes one closure per op, backward walks
    them in exact reverse order accumulating parameter gradients additively."""

    def __init__(self):
        self._records = []

    def record(self, backward_fn) -> None:
        self._records.append(backward_fn)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, grad_out: np.ndarray, grads: dict) -> np.ndarray:
        g = grad_out
        for fn in reversed(self._records):
            g = fn(g, grads)
        return g


def accumulate_grad(grads: dict, name: str, value) -> None:
    if value is None:
        return
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = value
