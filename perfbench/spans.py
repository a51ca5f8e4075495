"""Spans, counters and FLOP accounting for the traced benchmark run.

A span covers one call into a layer. Its self time is its duration minus the
time covered by spans opened inside it, so the self times of one iteration
add up to the iteration's wall time, and the self time of the root
`iteration` span is the part no layer claims (the unattributed remainder).

Spans are recorded from the benchmark's own files: around the calls it makes
into `training` and `audio`, around each model unit's forward, and around
each backward closure a unit records on the op tape (`LabelledTape`). For
the traced iterations only (`patched`), some package functions are wrapped:
`ops.check_finite` becomes a child span, `ops.conv1d_*` feed FLOP, byte and
time counters, and `audio.decode_wav`/`audio.to_mono_8k` become child spans
of a clip load.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from wavecnn import audio, ops
from wavecnn.models import shape_trace

UNIT_GROUPS = ("conv1", "conv_rest", "resblock", "maxpool", "head")


def unit_group(label: str) -> str:
    """The group a model unit's time is reported under."""
    if label == "conv1":
        return "conv1"
    for prefix, group in (("conv", "conv_rest"), ("resblock", "resblock"), ("maxpool", "maxpool")):
        if label.startswith(prefix):
            return group
    return "head"  # global_avg_pool, fc*, dense


class NullRecorder:
    """Stands in for a Recorder in untraced iterations."""

    def span(self, name):
        return nullcontext()


class Recorder:
    def __init__(self):
        self._open = []  # per open span: seconds covered by its children
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.totals = defaultdict(float)  # counters that are not spans
        self.group = "head"  # group of the model unit whose forward is running

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.totals.clear()

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            covered = self._open.pop()
            self.self_s[name] += dur - covered
            self.calls[name] += 1
            if self._open:
                self._open[-1] += dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


class LabelledTape(ops.OpTape):
    """Op tape that times each backward closure under the group of the unit
    that recorded it."""

    def __init__(self, rec: Recorder):
        super().__init__()
        self._rec = rec

    def record(self, backward_fn) -> None:
        super().record(self._rec.wrap(f"models.{self._rec.group}.bwd", backward_fn))


def instrument_units(graph, rec: Recorder) -> None:
    """Time every unit's forward under its group, for callers that go
    through ModelGraph.forward (training.evaluate) as well as for a step
    that drives graph.units itself. The wrappers are instance attributes;
    deleting them restores the class methods."""
    for u in graph.units:
        group = unit_group(u.label)

        def forward(x, graph, mode, tape, rng, _fwd=u.forward, _group=group):
            rec.group = _group
            with rec.span(f"models.{_group}.fwd"):
                return _fwd(x, graph, mode, tape, rng)

        u.forward = forward


@contextmanager
def patched(rec: Recorder, graph=None):
    """Wrap the package functions named in the module docstring, and the
    units of `graph` if one is given, until the block exits."""
    conv_fwd, conv_bwd = ops.conv1d_forward, ops.conv1d_backward

    def conv1d_forward(x, p):
        t0 = time.perf_counter()
        y, cache = conv_fwd(x, p)
        rec.totals["conv.fwd_s"] += time.perf_counter() - t0
        B, t_out, cout = y.shape
        rf, cin, _ = p.kernel.shape
        rec.totals["conv.fwd_flop"] += 2.0 * B * t_out * rf * cin * cout
        rec.totals["conv.bytes"] += (x.size + p.kernel.size + y.size) * x.itemsize
        return y, cache

    def conv1d_backward(grad_out, cache):
        t0 = time.perf_counter()
        gx, gk, gb = conv_bwd(grad_out, cache)
        rec.totals["conv.bwd_s"] += time.perf_counter() - t0
        B, t_out, cout = grad_out.shape
        rf, cin, _ = gk.shape
        rec.totals["conv.bwd_flop"] += 4.0 * B * t_out * rf * cin * cout
        # reads grad_out, x and kernel; writes grad_x and grad_kernel
        rec.totals["conv.bytes"] += (grad_out.size + 2 * gx.size + 2 * gk.size) * grad_out.itemsize
        return gx, gk, gb

    swaps = [
        (ops, "check_finite", rec.wrap("tensor.check_finite", ops.check_finite)),
        (ops, "conv1d_forward", conv1d_forward),
        (ops, "conv1d_backward", conv1d_backward),
        (audio, "decode_wav", rec.wrap("audio.decode_wav", audio.decode_wav)),
        (audio, "to_mono_8k", rec.wrap("audio.resample", audio.to_mono_8k)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    try:
        for mod, name, fn in swaps:
            setattr(mod, name, fn)
        if graph is not None:
            instrument_units(graph, rec)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        if graph is not None:
            for u in graph.units:
                del u.forward


# --- FLOP and GEMM-peak accounting ------------------------------------------


def conv_shapes(graph, T: int, B: int) -> list:
    """Every convolution of the graph as (kernel name, M, K, N) of its
    im2col GEMM: M = B*T_out rows, K = rf*C_in, N = C_out."""
    shapes = []
    for (_, (t_out, _)), u in zip(shape_trace(graph, T)[1:], graph.units):
        for name in u.param_names():
            if name.endswith(".kernel"):
                rf, cin, cout = graph.params[name].shape
                shapes.append((name, B * t_out, rf * cin, cout))
    return shapes


def gemm_gflops(M: int, K: int, N: int, dtype, reps: int = 3) -> float:
    """Best-of-`reps` GF/s of one dense (M,K)@(K,N) product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((M, K)).astype(dtype)
    b = rng.standard_normal((K, N)).astype(dtype)
    a @ b  # first touch and BLAS thread start-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * M * K * N / best / 1e9


def flop_table(shapes: list) -> tuple:
    """Per-shape forward FLOPs next to the GEMM rate measured at that shape,
    plus the FLOP-weighted f32/f64 GEMM rate over all shapes."""
    measured = {}
    table = []
    time32 = time64 = flop = 0.0
    for name, M, K, N in shapes:
        if (M, K, N) not in measured:
            measured[(M, K, N)] = (gemm_gflops(M, K, N, np.float32), gemm_gflops(M, K, N, np.float64))
        g32, g64 = measured[(M, K, N)]
        f = 2.0 * M * K * N
        flop += f
        time32 += f / g32
        time64 += f / g64
        table.append({"conv": name, "M": M, "K": K, "N": N, "fwd_gflop": f / 1e9,
                      "bwd_gflop": 2 * f / 1e9, "gemm_f32_gflops": g32, "gemm_f64_gflops": g64})
    return table, flop / time32, flop / time64
