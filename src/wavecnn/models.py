"""The network family and its ablation variants, built as lists of units.

Each network takes a [batch, time, 1] waveform, opens with one wide-field
strided convolution, alternates small-field conv stages with maxpool-4
downsampling, and closes with global average pooling into a softmax head.
The '-res' column's stages are residual blocks instead of plain convs.
Variants, applied as unit constructor arguments:

  -srf / -lrf   first-layer receptive field 8 / 320 (base uses 80)
  -big          every conv widened by 50% (m3-big) or 100% (m5-big)
  -fc           two 1000-wide fully connected layers (BN + dropout 0.3)
                between global average pooling and the softmax head
  -no-bn        batch normalization removed, conv biases enabled
  m11-stride1   first convolution with stride 1 instead of 4

The units are the whole description of a network: each one builds its own
parameters, the one place that names them, and runs its forward pass.
param_names() returns what build registered, in order. Output shapes and
the weight-layer count are read from what runs: shape_trace forwards a
zero-clip batch, and the count is the graph's kernels and weight matrices.

All weights are Glorot-uniform initialized; conv fans are
(rf * in_ch, rf * out_ch). Layers followed by BN carry no bias.

In train mode every unit records its ops' backward closures on one op tape,
all through `_record`: the one place a backward step goes onto the tape.
Each parameter gradient has one writer, the record of the op that uses it;
the residual shortcut, the one fan-out, adds its gradient in place.

Every ReLU is one in-place `_relu` record (ops.py states the pool order),
which keeps its mask as bits; in infer mode it makes none. A conv unit
with batch norm before a maxpool unit runs the conv, the batch norm and the
pool as one op, recorded as the conv's and the batch norm's records; the
maxpool unit then applies the ReLU.

ModelGraph.forward and shape_trace hand each unit its input as the only
reference: the input sits in a one-item list that the call pops. A conv
unit hands it on to its op the same way (_ConvUnit._conv), and the op
frees it once its padded copy exists. The residual block keeps its input
for the shortcut.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import ops
from .tensor import RandomSource, TRAIN_DTYPE

FC_WIDTH = 1000

# Per column: the first conv's width, the stages as (width, count), and
# whether a maxpool follows the last stage. A maxpool-4 precedes every
# stage. A stage is `count` rf-3 convs, or `count` residual blocks in the
# '-res' column.
_COLUMNS = {
    "m3": (256, [(256, 1)], True),
    "m5": (128, [(128, 1), (256, 1), (512, 1)], True),
    "m11": (64, [(64, 2), (128, 2), (256, 3), (512, 2)], False),
    "m18": (64, [(64, 4), (128, 4), (256, 4), (512, 4)], False),
    "m34-res": (48, [(48, 3), (96, 4), (192, 6), (384, 3)], False),
}
_PLAIN = ("m3", "m5", "m11", "m18")

# Every architecture name: its column and the variant's unit arguments.
_ARCHITECTURES = {
    **{c: (c, {}) for c in _COLUMNS},
    "m3-big": ("m3", {"widen": 1.5}),
    "m5-big": ("m5", {"widen": 2.0}),
    **{f"{c}-{v}": (c, {"first_rf": rf})
       for c in ("m11", "m18") for v, rf in (("srf", 8), ("lrf", 320))},
    **{f"{c}-fc": (c, {"fc": True}) for c in _PLAIN},
    **{f"{c}-no-bn": (c, {"with_bn": False}) for c in _PLAIN},
    "m34-no-bn": ("m34-res", {"with_bn": False}),
    "m11-stride1": ("m11", {"first_stride": 1}),
}


def valid_architectures() -> list:
    return sorted(_ARCHITECTURES)


def _units(column, num_classes, channel_scale,
           widen=1.0, first_rf=80, first_stride=4, with_bn=True, fc=False) -> list:
    first, stages, pool_last = _COLUMNS[column]
    residual = column.endswith("-res")
    factor = channel_scale * widen

    def ch(n: int) -> int:
        return max(1, int(round(n * factor)))

    units = [_ConvUnit(1, first_rf, first_stride, ch(first), with_bn)]
    conv_idx = 2
    for pool_idx, (width, count) in enumerate(stages, start=1):
        units.append(_MaxPoolUnit(pool_idx))
        for _ in range(count):
            if residual:
                units.append(_ResBlockUnit(conv_idx, ch(width), with_bn))
            else:
                units.append(_ConvUnit(conv_idx, 3, 1, ch(width), with_bn))
            conv_idx += 2 if residual else 1
    if pool_last:
        units.append(_MaxPoolUnit(len(stages) + 1))
    for prev, unit in zip(units, units[1:]):
        if isinstance(prev, _ConvUnit) and isinstance(unit, _MaxPoolUnit):
            prev.pooled = with_bn
    units.append(_GlobalAvgPoolUnit())
    if fc:
        units += [_FCUnit(1), _FCUnit(2)]
    units.append(_DenseUnit(num_classes))
    return units


class ForwardResult(NamedTuple):
    probs: np.ndarray
    logits: np.ndarray
    tape: ops.OpTape | None


def _glorot(rng: RandomSource, shape, fan_in, fan_out, dtype):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape, dtype=dtype)


def _record(tape, backward, cache, *names):
    """Record `backward(g, cache)` on the tape, if there is one. With names,
    backward returns (grad_x, *param_grads), and each parameter gradient
    that is not None is stored in grads under its name."""
    if tape is None:
        return
    def back(g, grads):
        if not names:
            return backward(g, cache)
        grad_x, *param_grads = backward(g, cache)
        for name, grad in zip(names, param_grads):
            if grad is not None:
                grads[name] = grad
        return grad_x
    tape.record(back)


def _bn_state(graph, k) -> ops.BatchNormState:
    """The `{k}.bn.*` params and running statistics."""
    return ops.BatchNormState(
        gamma=graph.params[f"{k}.bn.gamma"],
        beta=graph.params[f"{k}.bn.beta"],
        running_mean=graph.state[f"{k}.bn.running_mean"],
        running_var=graph.state[f"{k}.bn.running_var"],
    )


def _bn(y, k, graph, mode, tape):
    """Batch norm over the `{k}.bn.*` params and state. y is a fresh conv or
    affine output that only the BN cache keeps, so the backward may build
    grad_x in its buffer."""
    y, cache = ops.batchnorm_forward(y, _bn_state(graph, k), mode)
    _record(tape, ops.batchnorm_backward, cache, f"{k}.bn.gamma", f"{k}.bn.beta")
    return y


def _relu(y, mode, tape):
    """ReLU in place: y is a fresh output (BN, conv + bias, shortcut sum).
    Its record keeps the mask as bits and builds grad_x in the gradient it
    is given, which no later record reads."""
    y, mask = ops.relu_forward(y, mode)
    _record(tape, ops.relu_backward, mask)
    return y


class _Unit:
    """A unit without parameters: build passes the channels through. A unit
    with parameters registers each one in build with `_param`, and
    param_names() returns them in that order."""

    _names = ()

    def build(self, in_ch, rng, graph):
        return in_ch

    def param_names(self):
        return list(self._names)

    def _param(self, graph, name, value):
        graph.params[name] = value
        self._names += (name,)

    def _bn_params(self, graph, width):
        k = self.label
        self._param(graph, f"{k}.bn.gamma", np.ones(width, dtype=graph.dtype))
        self._param(graph, f"{k}.bn.beta", np.zeros(width, dtype=graph.dtype))
        graph.state[f"{k}.bn.running_mean"] = np.zeros(width, dtype=graph.dtype)
        graph.state[f"{k}.bn.running_var"] = np.ones(width, dtype=graph.dtype)


class _ConvUnit(_Unit):
    def __init__(self, idx, rf, stride, out_ch, with_bn):
        self.rf, self.stride = rf, stride
        self.out_ch, self.with_bn = out_ch, with_bn
        self.label = f"conv{idx}"

    def build(self, in_ch, rng, graph):
        k = self.label
        self._param(graph, f"{k}.kernel", _glorot(
            rng, (self.rf, in_ch, self.out_ch),
            self.rf * in_ch, self.rf * self.out_ch, graph.dtype,
        ))
        if self.with_bn:
            self._bn_params(graph, self.out_ch)
        else:
            self._param(graph, f"{k}.bias", np.zeros(self.out_ch, dtype=graph.dtype))
        return self.out_ch

    def _params(self, graph) -> ops.ConvParams:
        k = self.label
        return ops.ConvParams(
            kernel=graph.params[f"{k}.kernel"],
            bias=None if self.with_bn else graph.params[f"{k}.bias"],
            stride=self.stride,
        )

    def _conv(self, x: list, graph, mode, tape, pooled: bool):
        """The conv on the input that x, a one-item list, hands over: the
        list is emptied, so with no other reference left the op frees the
        input once it is padded (a call with *args would keep one in its
        argument tuple). pooled runs conv1d_bn_pool_forward, else
        conv1d_forward. Returns the output and the batch norm cache (None
        unless pooled), and records the conv's backward, which builds no
        grad_x (None) for the waveform that ModelGraph.forward passes in:
        nothing reads it."""
        k = self.label
        back = ops.conv1d_backward
        if x[0] is getattr(graph, "_waveform", None):
            back = partial(ops.conv1d_backward, input_grad=False)
        p = self._params(graph)
        if pooled:
            y, cache, bn_cache = ops.conv1d_bn_pool_forward(x.pop(), p, _bn_state(graph, k), mode)
        else:
            (y, cache), bn_cache = ops.conv1d_forward(x.pop(), p), None
        # Without a bias the bias gradient is None, which is not stored.
        _record(tape, back, cache, f"{k}.kernel", f"{k}.bias")
        return y, bn_cache

    def conv_bn(self, x: list, graph, mode, tape, relu):
        """The convolution, its batch norm (or bias) and, if asked, the
        ReLU, in that order, also for a pooled unit. x is a one-item list
        that hands the input over (_conv)."""
        y, _ = self._conv(x, graph, mode, tape, pooled=False)
        if self.with_bn:
            y = _bn(y, self.label, graph, mode, tape)
        return _relu(y, mode, tape) if relu else y

    def forward(self, x, graph, mode, tape, rng):
        x = [x]  # the conv op takes this frame's reference over (_conv)
        if not self.pooled:
            return self.conv_bn(x, graph, mode, tape, relu=True)
        # The conv, its batch norm and the maxpool in one op. The maxpool
        # unit gets the pooled output, under the conv output's shape
        # (shape_trace reads it), and applies the ReLU.
        k = self.label
        B, T, _ = x[0].shape
        y, bn_cache = self._conv(x, graph, mode, tape, pooled=True)
        _record(tape, ops.batchnorm_backward, bn_cache, f"{k}.bn.gamma", f"{k}.bn.beta")
        shape = (B, -(-T // self.stride), self.out_ch)
        return SimpleNamespace(pooled=y, shape=shape, ndim=3)

    pooled = False  # a BN conv before a maxpool (_units): it runs the BN and the pool


class _ResBlockUnit(_Unit):
    """relu(conv_bn2(relu(conv_bn1(x))) + pad(x)): two stride-1 conv units
    (conv indices i, i+1), whose parameters are the block's, and a
    zero-padded identity shortcut that adds x in place onto the first in_ch
    channels of the branch output.

    The shortcut is a fan-out of x, so its gradient adds to the branch's.
    On the linear op tape that is two closures around the branch: the one
    recorded after the add stashes the shortcut's share of the gradient,
    and the one recorded before the branch, which runs last in backward,
    adds it in place into the branch's input gradient (a fresh view of the
    first conv's padded gradient).
    """

    def __init__(self, idx, out_ch, with_bn):
        self.out_ch = out_ch
        self.label = f"resblock[conv{idx}-conv{idx + 1}]"
        self._convs = (
            _ConvUnit(idx, 3, 1, out_ch, with_bn),
            _ConvUnit(idx + 1, 3, 1, out_ch, with_bn),
        )

    def build(self, in_ch, rng, graph):
        if self.out_ch < in_ch:
            raise ValueError(f"residual block cannot shrink channels {in_ch} -> {self.out_ch}")
        for c in self._convs:
            in_ch = c.build(in_ch, rng, graph)
        return self.out_ch

    def forward(self, x, graph, mode, tape, rng):
        c1, c2 = self._convs
        in_ch = x.shape[-1]
        stash = []
        _record(tape, lambda g, stash: np.add(g, stash.pop(), out=g), stash)
        h = c2.conv_bn([c1.forward(x, graph, mode, tape, rng)], graph, mode, tape, relu=False)
        h[:, :, :in_ch] += x
        ops.check_finite("shortcut_add", h)
        def fan_out(g, stash):
            stash.append(g[:, :, :in_ch])
            return g
        _record(tape, fan_out, stash)
        return _relu(h, mode, tape)

    def param_names(self):
        return self._convs[0].param_names() + self._convs[1].param_names()


class _MaxPoolUnit(_Unit):
    def __init__(self, idx):
        self.label = f"maxpool{idx}"

    def forward(self, x, graph, mode, tape, rng):
        if isinstance(x, SimpleNamespace):  # pooled by a BN conv (_ConvUnit.forward)
            return _relu(x.pooled, mode, tape)
        y, cache = ops.maxpool1d_forward(x, mode)
        _record(tape, ops.maxpool1d_backward, cache)
        return y


class _GlobalAvgPoolUnit(_Unit):
    label = "global_avg_pool"

    def forward(self, x, graph, mode, tape, rng):
        y, T = ops.global_avg_pool(x)
        _record(tape, lambda g, T: ops.global_avg_pool_backward(g[:, None, :], T), T)
        return y[:, 0, :]  # flatten [B,1,C] -> [B,C] for the head


class _FCUnit(_Unit):
    """Fully connected layer with BN, ReLU, and inverted dropout."""

    def __init__(self, idx):
        self.label = f"fc{idx}"

    def build(self, in_ch, rng, graph):
        k = self.label
        self._param(graph, f"{k}.w", _glorot(rng, (in_ch, FC_WIDTH), in_ch, FC_WIDTH, graph.dtype))
        self._bn_params(graph, FC_WIDTH)
        return FC_WIDTH

    def forward(self, x, graph, mode, tape, rng):
        k = self.label
        y, cache = ops.affine_forward(x, graph.params[f"{k}.w"])
        _record(tape, ops.affine_backward, cache, f"{k}.w")
        y = _relu(_bn(y, k, graph, mode, tape), mode, tape)
        y, cache = ops.dropout(y, mode, rng)
        _record(tape, ops.dropout_backward, cache)
        return y


class _DenseUnit(_Unit):
    label = "dense"

    def __init__(self, num_classes):
        self.num_classes = num_classes

    def build(self, in_ch, rng, graph):
        self._param(graph, "dense.w", _glorot(
            rng, (in_ch, self.num_classes), in_ch, self.num_classes, graph.dtype
        ))
        self._param(graph, "dense.b", np.zeros(self.num_classes, dtype=graph.dtype))
        return self.num_classes

    def forward(self, x, graph, mode, tape, rng):
        y, cache = ops.affine_forward(x, graph.params["dense.w"], graph.params["dense.b"])
        _record(tape, ops.affine_backward, cache, "dense.w", "dense.b")
        return y


class ModelGraph:
    """Executable layer sequence with a named, deterministically ordered
    parameter map and per-layer BN running statistics."""

    _waveform = None  # the input, while forward runs

    def __init__(self, units: list, rng: RandomSource | None = None, dtype=TRAIN_DTYPE):
        self.units = units
        self.dtype = np.dtype(dtype)
        self.params: dict = {}
        self.state: dict = {}
        rng = rng if rng is not None else RandomSource(0)
        in_ch = 1
        for u in self.units:
            in_ch = u.build(in_ch, rng, self)

    @property
    def num_classes(self) -> int:
        return self.units[-1].num_classes

    def forward(self, x: np.ndarray, mode: str = "infer", rng: RandomSource | None = None) -> ForwardResult:
        """Run the network; returns probabilities, logits, and (in train
        mode) the op tape, whose backward returns None: the units see the
        waveform (_waveform), and the stem builds no gradient for it."""
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}; expected 'train' or 'infer'")
        tape = ops.OpTape() if mode == "train" else None
        h = [self._input(x)]
        self._waveform = h[0]
        try:
            for u in self.units:  # each unit gets its input as the only reference
                h.append(u.forward(h.pop(), self, mode, tape, rng))
        finally:
            self._waveform = None
        logits, = h
        return ForwardResult(probs=ops.softmax_probs(logits), logits=logits, tape=tape)

    def _input(self, x: np.ndarray) -> np.ndarray:
        """x in the graph's dtype, once its shape is a [B,T,1] waveform no
        shorter than the first receptive field."""
        if x.ndim != 3 or x.shape[2] != 1:
            raise ValueError(f"expected input [B,T,1], got {x.shape}")
        first_rf = self.units[0].rf
        if x.shape[1] < first_rf:
            raise ValueError(f"input time length {x.shape[1]} < first receptive field {first_rf}")
        return x.astype(self.dtype, copy=False)

    def weight_layer_count(self) -> int:
        """Conv kernels plus FC and dense weight matrices."""
        return sum(n.endswith((".kernel", ".w")) for n in self.params)


def build(name: str, num_classes: int = 10, rng: RandomSource | None = None,
          dtype=TRAIN_DTYPE, channel_scale: float = 1.0) -> ModelGraph:
    """Construct a freshly initialized network by name.

    channel_scale shrinks every conv/res width uniformly (used for the
    reduced-width smoke and trainability harnesses); 1.0 is the published
    width.
    """
    if name not in _ARCHITECTURES:
        raise ValueError(f"unknown architecture {name!r}; valid: {valid_architectures()}")
    column, variant = _ARCHITECTURES[name]
    return ModelGraph(_units(column, num_classes, channel_scale, **variant), rng=rng, dtype=dtype)


def count_parameters(graph: ModelGraph) -> int:
    """Trainable parameter elements (kernels, biases, gamma, beta);
    running statistics excluded."""
    return int(sum(p.size for p in graph.params.values()))


def parameter_breakdown(graph: ModelGraph) -> list:
    """Per-unit (label, parameter count) in layer order."""
    return [
        (u.label, int(sum(graph.params[n].size for n in u.param_names())))
        for u in graph.units
    ]


def rounded_millions(count: int) -> str:
    return f"{round(count / 1e5) / 10:.1f}M"


def shape_trace(name_or_graph, input_T: int) -> list:
    """[(layer label, (T, C)), ...]: each unit's output shape, read from its
    infer-mode forward on a batch of zero clips; a 2-D head output counts
    as T=1. A name is built first, at published width."""
    graph = name_or_graph if isinstance(name_or_graph, ModelGraph) else build(name_or_graph)
    h = [graph._input(np.zeros((0, input_T, 1)))]
    rows = [("input", (input_T, 1))]
    for u in graph.units:
        h.append(u.forward(h.pop(), graph, "infer", None, None))
        rows.append((u.label, (1, h[0].shape[1]) if h[0].ndim == 2 else h[0].shape[1:]))
    return rows
