"""Forward and reverse-mode backward rules for every layer type.

Ops are functions over [batch, time, channels] arrays that leave their
inputs unchanged, with two exceptions that take x over: train-mode
batchnorm_forward, whose backward builds grad_x in x's buffer, and
relu_forward, which writes its output into x. (The conv backward builds
grad_x in the padded copy of x that its forward made or that it rebuilt,
never in x.) Each forward returns (output, cache); the matching backward
consumes the cache and the output gradient and returns exact adjoints.
relu_backward builds its grad_x in grad_out's buffer, and its cache is the
mask as bits.

Each array dies at its last reader. The conv forwards drop their reference
to x once its padded copy exists, so a caller that hands over the only
reference (models.ModelGraph.forward and the conv unit do) frees x before
the output is made.

Precision follows the input dtype. Training runs in float32
(tensor.TRAIN_DTYPE) and numerical gradient checks in float64, since finite
differences are unreliable in 32-bit. A float64 op computes in float64, and
the float64 convolution forward accumulates products one (tap, in_channel)
pair at a time, in the same order as a naive triple loop, so results are
bitwise equal to the brute-force reference. A float32 op computes in
float32, and its convolution GEMMs accumulate in float32.
Per-channel reductions are the exception: batch-norm statistics and
gradient sums and the conv bias gradient are float64 on both paths, and
batch norm applies its statistics as one float64-derived scale/shift per
channel.

A maxpool after a conv's batch norm runs inside conv1d_bn_pool_forward.
Maxpool commutes with per-channel non-decreasing maps and float rounding
is monotone, so the op pools x, the conv output (the min where gamma < 0,
which is where the float64 scale gamma * inv < 0, as inv > 0), then
applies scale/shift and check at quarter size: bitwise BN, then maxpool,
and a ReLU after it commutes with the maxpool too. The check sees pooled
values: NaN and +inf still raise, but a -inf from scale * x + shift that
loses its window passes, where the ReLU would zero it. The gradient goes
to the first extreme slot of x, the BN output's first argmax unless
rounding ties distinct x. With gamma == 0 all slots tie, and grad_gamma
takes x at the raw argmax, not the first slot; both are valid
subgradients.

Finiteness: an op that can turn finite inputs into NaN or +-inf checks what
it makes: conv, batch norm, average pooling, affine, dropout, and the
residual shortcut add (in models.py, through ops.check_finite). ReLU,
maxpool and softmax cannot, and make no check. conv1d_bn_pool_forward
checks each clip's conv output as it is made, so a NaN never reaches its
batch norm.

The convolution forward runs clip by clip through one routine, _conv_clip,
which the thin backward's rebuild runs too, so a clip's output has the same
bits alone, in any batch and when rebuilt. Its path follows the input
channel count, against one threshold, _IM2COL_MAX_CIN:
- float64 is the naive loop at every width;
- a deep float32 conv sums rf GEMMs on strided views of the clip's padded
  input: the first tap writes the output, and each later one goes through
  one reused clip-sized buffer. A per-tap product has inner dimension Cin,
  so each tap is already a full GEMM, and no im2col is built;
- with thin inputs (the waveform stem has Cin 1) a per-tap product is a
  memory-bound pass over the output, so the clip's im2col rows
  [out_T, Cin*rf] go into one buffer that every clip reuses, and float32
  runs one GEMM on them: im2col memory does not grow with the batch.
Each buffer is made at the first clip, so zero clips (shape_trace) make none.

The backward follows the same threshold. The deep backward reuses one
(B, out_T, Cin) buffer for every tap: it holds the tap's input rows for the
grad_kernel GEMMs, then that tap's share of grad_x. The thin backward goes
clip by clip through the im2col buffer: one GEMM for grad_kernel and one
for the im2col gradient, into the same buffer, which an rf-step strided
col2im adds back onto grad_x. On both paths the backward builds grad_x in
the padded input the forward made and cached (or that it rebuilt, below),
once the grad_kernel GEMMs have read it, so it allocates no input-sized
array of its own.

A conv whose input is a batch norm's output after its ReLU keeps no padded
input (models.py: every conv but the stem, a residual block's first conv
fed by a shortcut sum and the -no-bn convs). Its cache holds, in place of
the padded input, the tuple (x, scale, shift): the batch norm's input (the
pooled values, for a pooled batch norm) and its float64 per-channel scale
and shift, all of which the batch norm caches anyway. conv1d_backward
rebuilds the padded input from them just before its grad_kernel GEMMs
(_bn_relu_padded): zero-padded as _padded_input pads, scaled and shifted
by _bn_affine, which made the batch norm's output, and put through
relu_forward, so the rebuilt bytes are the forward's. That costs one pass
of x * scale + shift and the ReLU per backward, and saves keeping the
padded copy, 4 bytes per element, from the forward until the conv's
backward (Chen et al. 2016, "Training Deep Nets with Sublinear Memory
Cost": recompute instead of store). It needs one ordering: the conv's
record runs before the record of the batch norm that later builds grad_x
in that same x. The conv's forward runs after the batch norm's, so its
record is later on the tape and runs first in the backward.

A conv with batch norm before a maxpool runs as one op in both modes,
conv1d_bn_pool_forward, one clip at a time: each clip's output (_conv_clip)
is checked, pooled and, in train mode, added to the float64 batch-norm sums
(_bn_sums, through which batchnorm_forward's statistics go too); only the
pooled values are normalized. The clips share one output buffer, except in
a train-mode deep conv: its batch norm backward builds grad_x, the deep
conv backward's input, in the whole output, so that is kept (rebuilding it
would cost a second pass of the forward GEMMs). So no conv builds its whole
output in infer mode, and a thin conv (at published width only the stem,
whose output is the largest activation of every network) never does. A
thin conv's batch norm cache holds the pooled values, the slot index and
the statistics, and its backward returns the compact _SlotGrad (per-channel
scale and shift, the pooled slot values and the slot index) in place of
grad_x. The thin conv's backward rebuilds each clip's output, turns it
into that clip's gradient and goes on. The rebuild costs one more per-clip
GEMM on the thin input (Chen et al. 2016 again). Nothing reads
the waveform's gradient, so in a ModelGraph's forward the stem conv's
backward builds none (input_grad=False) and the graph's tape.backward
returns None; a unit driven on its own builds its input's gradient.

OpTape holds the backward closures of one train-mode forward. It is walked
once; each record, and the cache its closure captured, is released as soon
as it has run, so an activation lives only until the backward that reads it.
len() of a tape counts the ops recorded, before and after the walk. A record
may build its grad_x in the gradient it is given (a ReLU's does), so a
caller that reads grad_out after the walk passes a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import check_finite

# Below this many input channels the float32 forward and the backward both
# gather whole-window im2col rows; from Cin 8 up each tap's product is
# already a full GEMM, and the per-tap paths measured as fast or faster.
_IM2COL_MAX_CIN = 8

_POOL = 4  # maxpool window and stride
_SUM_ROWS = 512  # rows per float64 block of the batch-norm statistics (_bn_sums)
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5
_DROPOUT_RATE = 0.3


@dataclass
class ConvParams:
    """Same-padded 1D convolution parameters.

    kernel [rf, in_ch, out_ch]; bias present only when the layer is not
    followed by batch normalization (BN's shift subsumes it).
    """

    kernel: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1


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


def _same_pad_1d(T: int, rf: int, stride: int) -> tuple:
    """Zero-pad sizes so a strided conv maps time T -> ceil(T/stride).

    The pad splits as evenly as possible with the extra sample at the end.
    """
    out_T = -(-T // stride)
    total = max((out_T - 1) * stride + rf - T, 0)
    left = total // 2
    return out_T, left, total - left


def _conv_clip(xp_b, k, stride: int, out: np.ndarray, buf=None):
    """One clip's conv output, without bias, into out [out_T, Cout], from
    the clip's padded input xp_b [T, Cin] and k, the kernel in out's dtype.
    Every forward and the backward's rebuild run this, so they agree bit
    for bit. buf is the clip buffer returned for the previous clip, None at
    the first, so zero clips make none:
    - float64: the naive loop, one (tap, in_channel) pair per pass;
    - thin (Cin < _IM2COL_MAX_CIN): buf takes the clip's im2col rows
      [out_T, Cin, rf], which the backward reads, and float32 is one GEMM
      on them;
    - deep float32: one GEMM per tap; the first writes out, and each later
      one goes through buf [out_T, Cout] and is added.
    """
    rf, Cin, Cout = k.shape
    thin = Cin < _IM2COL_MAX_CIN
    if buf is None and (thin or out.dtype != np.float64):
        buf = np.empty((len(out), Cin, rf) if thin else out.shape, dtype=out.dtype)
    if thin:
        buf[...] = sliding_window_view(xp_b, rf, axis=0)[::stride]
    span = stride * len(out)
    if out.dtype == np.float64:
        out[...] = 0
        for r in range(rf):
            for c in range(Cin):
                out += xp_b[r : r + span : stride, c : c + 1] * k[r, c]
    elif thin:
        np.matmul(buf.reshape(len(out), -1), k.transpose(1, 0, 2).reshape(-1, Cout), out=out)
    else:
        np.matmul(xp_b[0:span:stride], k[0], out=out)
        for r in range(1, rf):
            np.matmul(xp_b[r : r + span : stride], k[r], out=buf)
            out += buf
    return buf


def _time_padded(shape, left: int, right: int, dtype):
    """(xp, inner): a [B, left + T + right, C] buffer for an input of shape
    [B, T, C], its pads zeroed, and inner, its view of the T rows between
    them, for the caller to fill."""
    B, T, C = shape
    xp = np.empty((B, left + T + right, C), dtype=dtype)
    xp[:, :left] = 0
    xp[:, left + T :] = 0
    return xp, xp[:, left : left + T]


def _padded_input(x: np.ndarray, p: ConvParams):
    """Check x [B,T,Cin] against p; return (x zero-padded in time, out_T, left pad)."""
    _, T, Cin = x.shape
    if T < 1:
        raise ValueError("conv1d: empty time axis")
    rf, k_in, _ = p.kernel.shape
    if Cin != k_in:
        raise ValueError(f"conv1d: input has {Cin} channels, kernel expects {k_in}")
    out_T, left, right = _same_pad_1d(T, rf, p.stride)
    xp, inner = _time_padded(x.shape, left, right, x.dtype)
    inner[...] = x
    return xp, out_T, left


def _bn_relu_padded(x: np.ndarray, scale, shift, p: ConvParams) -> np.ndarray:
    """The padded input that _padded_input made of relu(x * scale + shift),
    rebuilt from a batch norm's input x and its float64 scale and shift by
    the forward's own arithmetic (_bn_affine, then relu_forward), so with
    the same bits."""
    _, left, right = _same_pad_1d(x.shape[1], p.kernel.shape[0], p.stride)
    xp, inner = _time_padded(x.shape, left, right, x.dtype)
    _bn_affine(x, scale, shift, out=inner)
    relu_forward(xp, "infer")
    return xp


def conv1d_forward(x: np.ndarray, p: ConvParams):
    """x [B,T,Cin] -> y [B, ceil(T/stride), Cout] with 'same' zero padding.
    x is released once padded, so a caller that hands over its only
    reference frees it before the output is made."""
    xp, out_T, left = _padded_input(x, p)
    x_shape = x.shape
    del x
    k = p.kernel.astype(xp.dtype, copy=False)
    y = np.empty((len(xp), out_T, k.shape[2]), dtype=xp.dtype)
    buf = None
    for b in range(len(xp)):
        buf = _conv_clip(xp[b], k, p.stride, y[b], buf)
    if p.bias is not None:
        y += p.bias
    return check_finite("conv1d", y), (xp, x_shape, p, out_T, left)


def conv1d_backward(grad_out, cache, input_grad: bool = True):
    """Adjoints of conv1d_forward: (grad_x, grad_kernel, grad_bias).

    grad_x is built in the padded input xp that the forward made and
    cached, or that this backward rebuilt where the cache holds a batch
    norm's (x, scale, shift) instead (_bn_relu_padded): each input row
    is zeroed once the grad_kernel GEMMs have read it, then every tap's
    share of grad_x is added in tap order. So the backward allocates no
    input-sized array of its own, and a cache serves one backward.
    grad_out must have the input's dtype. Without input_grad no grad_x is
    built, and None stands in its place.

    A thin conv without bias also takes a pooled batch norm's compact
    gradient (_SlotGrad) for grad_out. Each clip then rebuilds its output
    into one clip-sized buffer, as the forward made it (_conv_clip), turns
    it into that clip's gradient (_SlotGrad.apply) and goes on as with a
    full gradient, so no output-sized array is ever built.
    """
    xp, x_shape, p, out_T, left = cache
    B, T, Cin = x_shape
    (rf, _, Cout), stride = p.kernel.shape, p.stride
    if grad_out.shape != (B, out_T, Cout):
        raise ValueError(
            f"conv1d backward: grad shape {grad_out.shape} != {(B, out_T, Cout)}"
        )
    if isinstance(xp, tuple):  # (x, scale, shift) of the batch norm before the ReLU
        xp = _bn_relu_padded(*xp, p)
    if grad_out.dtype != xp.dtype:
        raise ValueError(f"conv1d backward: grad dtype {grad_out.dtype} != input dtype {xp.dtype}")
    thin = Cin < _IM2COL_MAX_CIN
    rebuild = isinstance(grad_out, _SlotGrad)
    if rebuild and (p.bias is not None or not thin):
        raise ValueError("conv1d backward: a compact gradient needs a thin conv without bias")
    dt = grad_out.dtype
    k = p.kernel.astype(dt, copy=False)
    if thin:
        k2 = k.transpose(1, 0, 2).reshape(Cin * rf, Cout)
        gk2 = np.zeros((Cin * rf, Cout), dtype=dt)
        cols = np.empty((out_T, Cin, rf), dtype=dt)
        cols2 = cols.reshape(out_T, -1)
        g = np.empty((out_T, Cout), dtype=dt) if rebuild else None
        for b in range(B):
            if rebuild:
                _conv_clip(xp[b], k, stride, g, cols)
                grad_out.apply(b, g)
            else:
                g = grad_out[b]
                cols[...] = sliding_window_view(xp[b], rf, axis=0)[::stride]
            gk2 += cols2.T @ g
            if not input_grad:
                continue
            # cols holds clip b's rows, so its padded input becomes grad_x,
            # and cols itself the im2col gradient that col2im adds there.
            np.matmul(g, k2.T, out=cols2)
            xp[b] = 0
            for r in range(rf):
                xp[b, r : r + stride * out_T : stride, :] += cols[:, :, r]
        grad_kernel = gk2.reshape(Cin, rf, Cout).transpose(1, 0, 2)
    else:
        # One (B, out_T, Cin) buffer serves every tap: it holds the tap's
        # input rows for the grad_kernel GEMMs, which all run before xp is
        # zeroed, then each tap's grad_x share.
        grad_kernel = np.empty(k.shape, dtype=dt)
        g2 = grad_out.reshape(-1, Cout)
        buf = np.empty((B, out_T, Cin), dtype=dt)
        buf2 = buf.reshape(-1, Cin)
        taps = [slice(r, r + stride * out_T, stride) for r in range(rf)]
        for r, rows in enumerate(taps):
            buf[...] = xp[:, rows]
            np.matmul(buf2.T, g2, out=grad_kernel[r])
        xp[...] = 0
        for r, rows in enumerate(taps if input_grad else ()):
            np.matmul(grad_out, k[r].T, out=buf)
            xp[:, rows] += buf
    grad_x = xp[:, left : left + T, :] if input_grad else None
    grad_kernel = grad_kernel.astype(p.kernel.dtype, copy=False)

    grad_bias = None
    if p.bias is not None:
        grad_bias = grad_out.sum(axis=(0, 1), dtype=np.float64).astype(p.bias.dtype)
    return grad_x, grad_kernel, grad_bias


def maxpool1d_forward(x: np.ndarray, mode: str, low=False):
    """Maximum over time windows of _POOL, ceil semantics for the last one;
    the min instead in the channels where the bool `low` is set. Train
    mode caches (idx, T), idx being each window's first extreme slot as
    uint8 (_POOL is 4); infer mode computes no slots and caches None."""
    B, T, C = x.shape
    out_T = -(-T // _POOL)
    pad = out_T * _POOL - T
    if pad:
        fill = np.where(low, np.inf, -np.inf).astype(x.dtype)
        x = np.concatenate([x, np.broadcast_to(fill, (B, pad, C))], axis=1)
    xr = x.reshape(B, out_T, _POOL, C)
    y = xr.max(axis=2)
    if np.any(low):
        # Two plain reductions: a channel gather would copy the low channels.
        np.copyto(y, xr.min(axis=2), where=low)
    if mode != "train":
        return y, None
    # The first extreme slot's index is the count of slots before it that
    # miss the extreme, which keeps the first-index rule on ties.
    before = xr[:, :, 0, :] != y
    idx = before.astype(np.uint8)
    for w in range(1, _POOL - 1):
        before &= xr[:, :, w, :] != y
        idx += before
    return y, (idx, T)


def _slot_scatter(idx: np.ndarray):
    """scatter(b, out, values) writes clip b's pooled values [out_T, C] into
    out [T, C] at each window's slot idx[b], idx [B, out_T, C] being what
    maxpool1d_forward caches; the last window may be ragged. The flat
    offsets of the window starts are built once, and each clip's offsets go
    into one reused buffer. np.put on flat offsets measured faster than
    np.put_along_axis on rows."""
    _, out_T, C = idx.shape
    base = np.arange(0, out_T * _POOL * C, _POOL * C)[:, None] + np.arange(C)
    flat = np.empty((out_T, C), dtype=np.int64)

    def scatter(b, out, values):
        np.multiply(idx[b], C, out=flat, dtype=np.int64)
        np.add(flat, base, out=flat)
        np.put(out, flat, values)
    return scatter


def maxpool1d_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    """Route each window's gradient to its (first) argmax position."""
    idx, T = cache
    B, _, C = grad_out.shape
    grad_x = np.zeros((B, T, C), dtype=grad_out.dtype)
    scatter = _slot_scatter(idx)
    for b in range(B):
        scatter(b, grad_x[b], grad_out[b])
    return grad_x


def relu_forward(x: np.ndarray, mode: str):
    """max(x, 0), written into x. Train mode returns (x, mask), the mask of
    x > 0 as bits, packed over the channel axis (np.packbits); infer mode
    makes no mask and returns (x, None)."""
    np.maximum(x, 0, out=x)
    return x, (np.packbits(x > 0, axis=-1) if mode == "train" else None)


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """grad_out * mask, built in grad_out's buffer, one clip's mask unpacked
    at a time."""
    C = grad_out.shape[-1]
    for g, bits in zip(grad_out, mask):
        g *= np.unpackbits(bits, axis=-1, count=C)
    return grad_out


class _SlotGrad:
    """A pooled batch norm's grad_x in compact form, without x.

    Clip b's gradient is x[b] * scale + shift, after which each window's
    extreme slot takes values[b] (batchnorm_backward). apply(b, out) turns
    clip b of x, held in out, into that gradient. shape, dtype, size and
    itemsize are x's, so the object stands in for the array it describes
    (conv1d_backward's checks read them).
    """

    def __init__(self, scale, shift, values, idx, shape):
        self.scale, self.shift, self.values, self.shape = scale, shift, values, shape
        self.dtype, self.itemsize = values.dtype, values.itemsize
        self.size = math.prod(shape)
        self._scatter = _slot_scatter(idx)

    def apply(self, b: int, out: np.ndarray) -> None:
        out *= self.scale
        out += self.shift
        self._scatter(b, out, self.values[b])


def _bn_check(shape, s: BatchNormState, mode: str) -> None:
    """Refuse a batch norm input of this shape [B, ..., C] under s and mode."""
    if shape[-1] != s.gamma.shape[0]:
        raise ValueError(f"batchnorm: {shape[-1]} channels vs state {s.gamma.shape[0]}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    if mode == "train" and shape[0] < 2:
        raise ValueError("batchnorm train mode requires batch size >= 2")


def _bn_moments(s: BatchNormState, mode: str, sums=None, n: int = 0):
    """Float64 (mu, 1 / sqrt(var + eps)): in train mode from the per-channel
    sum and sum of squares of n rows, updating the running statistics
    (running <- (1 - m) * running + m * batch, m = _BN_MOMENTUM)."""
    if mode == "train":
        mu = sums[0] / n
        var = np.maximum(sums[1] / n - mu * mu, 0.0)
        s.running_mean[...] = (1 - _BN_MOMENTUM) * s.running_mean + _BN_MOMENTUM * mu
        s.running_var[...] = (1 - _BN_MOMENTUM) * s.running_var + _BN_MOMENTUM * var
    else:
        mu = s.running_mean.astype(np.float64)
        var = s.running_var.astype(np.float64)
    return mu, 1.0 / np.sqrt(var + _BN_EPS)


def _bn_affine(xs: np.ndarray, scale, shift, out=None) -> np.ndarray:
    """xs * scale + shift in xs's dtype, two passes, into out if given, from
    the float64 per-channel scale and shift: the batch norm's output, and
    the conv backward's rebuild of it (_bn_relu_padded)."""
    y = np.multiply(xs, scale.astype(xs.dtype), out=out)
    y += shift.astype(xs.dtype)
    return y


def _bn_normalize(xs: np.ndarray, s: BatchNormState, mu, inv):
    """(xs * scale + shift, checked, and the float64 scale = gamma * inv
    and shift = beta - mu * scale), which batch norm caches."""
    scale = s.gamma * inv
    shift = s.beta - mu * scale
    return check_finite("batchnorm", _bn_affine(xs, scale, shift)), scale, shift


def _bn_sums(rows: np.ndarray, sums: np.ndarray, wide=None):
    """(sums [2, C] plus the float64 per-channel sum and sum of squares of
    rows [n, C], wide). The rows are added in order: in blocks, each
    block's first row taking the totals so far. numpy adds the rows of a
    2-D array over axis 0 in order, so carried over any split of the rows,
    these are the sums of all of them bit for bit (tests/test_platform.py).
    It sums a lone channel pairwise, so the blocks get a second, zero
    column. wide is the float64 block [2, rows, max(C, 2)] and its squares
    returned by the previous call, None at the first, which makes one of
    min(_SUM_ROWS, n) rows; a caller that adds clip after clip passes it
    on, so the loop makes one."""
    n, C = rows.shape
    if wide is None:
        wide = np.zeros((2, min(_SUM_ROWS, n), max(C, 2)))
    step = wide.shape[1]
    for r0 in range(0, n, step):
        block = wide[:, : min(step, n - r0)]
        block[0, :, :C] = rows[r0 : r0 + block.shape[1]]
        np.multiply(block[0], block[0], out=block[1])
        block[:, 0, :C] += sums
        sums = block.sum(axis=1)[:, :C]
    return sums, wide


def batchnorm_forward(x: np.ndarray, s: BatchNormState, mode: str):
    """Normalize per channel; train mode pools stats over (batch, time).

    The statistics (_bn_sums) and the per-channel scale/shift are float64.
    Infer mode returns no cache (None): it has no backward. Train mode
    takes x over: the backward builds grad_x in its buffer, so a caller
    that reads x after the backward passes a copy.
    """
    _bn_check(x.shape, s, mode)
    C = x.shape[-1]
    sums = _bn_sums(x.reshape(-1, C), np.zeros((2, C)))[0] if mode == "train" else None
    mu, inv = _bn_moments(s, mode, sums, math.prod(x.shape[:-1]))
    y, scale, shift = _bn_normalize(x, s, mu, inv)
    if mode == "infer":
        return y, None
    return y, (x, x.shape, x, None, mu, inv, scale, shift)


def conv1d_bn_pool_forward(x: np.ndarray, p: ConvParams, s: BatchNormState, mode: str):
    """A conv without bias, then its batch norm and maxpool: the results of
    conv1d_forward, batchnorm_forward and maxpool1d_forward, bit for bit.
    Returns (y, conv cache, batch norm cache); the latter is None in infer
    mode.

    Each clip's output is made (_conv_clip), checked and pooled, the min
    where gamma < 0 (the sign of the scale), and in train mode its rows
    go into the float64 sums (_bn_sums); then the pooled values are
    normalized. The clips' outputs go into one reused buffer, except for
    a deep conv (Cin >= _IM2COL_MAX_CIN) in train mode: its batch norm
    backward builds grad_x, the deep conv backward's input, in the whole
    output, so that is kept and cached. A thin conv's batch norm cache
    holds no output, and its backward returns the compact _SlotGrad.
    """
    if p.bias is not None:
        raise ValueError("conv1d_bn_pool_forward: needs a conv without bias")
    xp, out_T, left = _padded_input(x, p)
    x_shape = x.shape
    del x  # as in conv1d_forward
    (B, _, Cin), C, dt = x_shape, p.kernel.shape[2], xp.dtype
    _bn_check((B, C), s, mode)
    k = p.kernel.astype(dt, copy=False)
    keep = mode == "train" and Cin >= _IM2COL_MAX_CIN
    y = np.empty((B if keep else min(B, 1), out_T, C), dtype=dt)  # shape_trace runs B=0
    xs = np.empty((B, -(-out_T // _POOL), C), dtype=dt)
    idx = np.empty(xs.shape, dtype=np.uint8) if mode == "train" else None
    sums, buf, wide = np.zeros((2, C)), None, None
    for b in range(B):
        clip = y[b if keep else 0]
        buf = _conv_clip(xp[b], k, p.stride, clip, buf)
        check_finite("conv1d", clip)
        ys, slots = maxpool1d_forward(clip[None], mode, s.gamma < 0)
        xs[b] = ys[0]
        if idx is not None:
            idx[b] = slots[0][0]
            sums, wide = _bn_sums(clip, sums, wide)
    # Free the clip buffers and the sums' block before normalizing.
    y, clip, buf, wide = (y if keep else None), None, None, None
    mu, inv = _bn_moments(s, mode, sums, B * out_T)
    out, scale, shift = _bn_normalize(xs, s, mu, inv)
    conv_cache = (xp, x_shape, p, out_T, left)
    if idx is None:
        return out, conv_cache, None
    return out, conv_cache, (y, (B, out_T, C), xs, (idx, out_T), mu, inv, scale, shift)


def batchnorm_backward(grad_out: np.ndarray, cache):
    """Adjoints (grad_x, grad_gamma, grad_beta) of train-mode batchnorm_forward.

    grad_x = x * b + g * a + c with per-channel a, b, c built in float64
    from the sums of g and g * x, formed one clip at a time in that order
    (addition commutes, so it is g * a + x * b + c bit for bit) with no
    full-size temporary:
    - unpooled: in x's buffer;
    - pooled: g and the sums are pooled-size, and each window's extreme slot
      takes xs * b + g * a + c, formed in xs, the pooled x, which is x at
      that slot. The rest of a clip is x * b + (c + 0). The + 0 turns a -0
      shift into +0, so a value off the slots is (0 + x * b) + c bit for
      bit, as if g * a had been scattered into zeros. With x cached, each
      clip of x's buffer becomes its gradient; without, grad_x is the
      _SlotGrad that does so, and the thin conv before the batch norm
      applies it to each clip of the output it rebuilds.
    """
    x, shape, xs, slots, mu, inv, a, _ = cache  # a: the float64 scale, gamma * inv
    C = shape[-1]
    n = math.prod(shape) // C
    dt = grad_out.dtype
    g2 = grad_out.reshape(-1, C)
    sum_g = g2.sum(axis=0, dtype=np.float64)
    sum_gx = np.einsum("ij,ij->j", g2, xs.reshape(g2.shape), dtype=np.float64)
    grad_gamma = inv * (sum_gx - mu * sum_g)
    # Batch statistics depend on x, so their adjoints fold back in.
    b = -a * inv * grad_gamma / n
    c = (-a * sum_g / n - b * mu).astype(dt)
    a, b = a.astype(dt), b.astype(dt)
    for si, gi in zip(xs, grad_out):  # unpooled, xs is x
        si *= b
        si += gi * a
        si += c
    grad_x = xs
    if slots is not None:
        grad_x = _SlotGrad(b, c + 0, xs, slots[0], shape)
        if x is not None:
            for i, xi in enumerate(x):
                grad_x.apply(i, xi)
            grad_x = x
    return grad_x, grad_gamma.astype(dt), sum_g.astype(dt)


def global_avg_pool(x: np.ndarray):
    """Mean over the time axis: [B,T,C] -> [B,1,C], any T >= 1."""
    if x.shape[1] < 1:
        raise ValueError("global_avg_pool: empty time axis")
    y = x.mean(axis=1, keepdims=True)
    return check_finite("global_avg_pool", y), x.shape[1]


def global_avg_pool_backward(grad_out: np.ndarray, T: int) -> np.ndarray:
    return np.repeat(grad_out / T, T, axis=1).astype(grad_out.dtype, copy=False)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None):
    """x [B,C] @ w [C,K] (+ b [K]). A (1, C) @ (C, K) product takes BLAS's
    GEMV path, so a lone float32 row goes through two copies of it to get a
    batch row's bits; float64 keeps the product its references compute."""
    lone = len(x) == 1 and x.dtype != np.float64
    y = (np.repeat(x, 2, axis=0) @ w)[:1] if lone else x @ w
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
    return e / e.sum(axis=1, keepdims=True)


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
    return loss, probs, grad_logits.astype(logits.dtype, copy=False)


def dropout(x: np.ndarray, mode: str, rng=None):
    """Inverted dropout: train zeroes with probability _DROPOUT_RATE and
    rescales survivors by 1/(1-_DROPOUT_RATE); inference is the identity."""
    if mode != "train":
        return x, None
    if rng is None:
        raise ValueError("dropout train mode needs a RandomSource")
    keep = rng.uniform(0.0, 1.0, x.shape, dtype=x.dtype) >= _DROPOUT_RATE
    scale = np.asarray(1.0 / (1.0 - _DROPOUT_RATE), dtype=x.dtype)
    y = x * keep * scale
    return check_finite("dropout", y), (keep, scale)


def dropout_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    keep, scale = cache
    return grad_out * keep * scale


class OpTape:
    """Reverse-mode record: forward pushes one closure per op; backward walks
    them once, in exact reverse order, and each closure stores the gradients
    of its op's parameters in grads.

    Each record, with the cache its closure captured, is released as soon
    as it has run, so the walk holds only what the rest of backward still
    reads. len() counts the ops recorded, also after the walk. A tape is
    walked once: a second backward raises RuntimeError.
    """

    def __init__(self):
        self._records = []
        self._recorded = 0

    def record(self, backward_fn) -> None:
        self._records.append(backward_fn)
        self._recorded += 1

    def __len__(self) -> int:
        return self._recorded

    def backward(self, grad_out: np.ndarray, grads: dict):
        """Returns the first op's grad_x: None for a ModelGraph's tape."""
        records, self._records = self._records, None
        if records is None:
            raise RuntimeError("op tape already walked: backward runs once per forward")
        g = grad_out
        while records:
            g = records.pop()(g, grads)
        return g
