"""Time and tracemalloc peak of every unit forward and tape record backward
in one warm train step.

The script builds one architecture at a given width (channel scale), draws
a batch of clips and runs one float32 train step as training.train runs it
(training.gradients, then Adam), untraced. It then runs the same step
--steps times (5 by default) on the same graph and batch, phase by
phase: ModelGraph.forward in train mode, the loss, the op tape's backward,
the L2 gradients and Adam. It prints one row per unit forward, per tape
record backward and per remaining stage of a step: the phase, the unit,
the op (a record's backward function), the median of the milliseconds it
took over those steps, the traced peak while it ran and the memory still
traced when it returned. The two memory columns are those of the first of
those steps, the only one traced. The last line names the row at which the
step peaked. The first step is not shown: a cold step pays first-touch
page faults and one-time setup, so its times read higher and vary more
than the steady state that training runs in, and one warm step's times
are still noise-bound on a busy host.

    PYTHONPATH=src python tests/step_memory.py --arch m18 --width 1 --batch 8 --steps 5

Memory is what tracemalloc sees above the built network, its Adam moments
and the input batch, which are allocated before tracing starts. numpy
reports its array buffers to tracemalloc, so the peaks are array bytes.
The first timed step runs under tracemalloc, which costs little here
(few, large allocations); compare the times only with each other.

Each unit forward is timed through an instance attribute that hands the
unit its input as ModelGraph.forward does, as the only reference; each
record through models._record, the one place a backward goes onto the
tape. Both are restored on return. pytest does not collect this file (its
name does not start with test_); tests/test_step_memory.py runs it small.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from typing import NamedTuple

# wavecnn before numpy, so WAVECNN_THREADS applies (tests/test_threads.py).
from wavecnn import models
from wavecnn.audio import CLIP_SAMPLES
from wavecnn.ops import softmax_xent
from wavecnn.tensor import RandomSource
from wavecnn.training import AdamState, TrainConfig, adam_step, add_l2_gradients, gradients

import numpy as np  # noqa: E402

MIB = 2 ** 20


class Row(NamedTuple):
    phase: str  # forward, loss, backward, l2 or adam
    unit: str
    op: str
    seconds: float
    peak: int  # traced bytes at most while it ran
    live: int  # traced bytes when it returned


def step_rows(arch: str, width: float = 1.0, batch: int = 8, length: int = CLIP_SAMPLES,
              steps: int = 1) -> list:
    """The rows of a warm train step of `arch` at channel scale `width`, on
    `batch` clips of `length` samples, in the order they ran: each row's
    seconds the median over `steps` warm steps, its memory that of the
    first, traced one."""
    graph = models.build(arch, rng=RandomSource(0), channel_scale=width)
    adam = AdamState(graph.params)
    x = RandomSource(1).normal((batch, length, 1)).astype(graph.dtype)
    labels = np.arange(batch) % graph.num_classes
    _, _, grads = gradients(graph, x, labels, RandomSource(2), TrainConfig.l2_coeff)
    adam_step(graph.params, grads, adam)
    del grads  # as training.train frees them before the next forward
    rows, unit = [], ["input"]  # unit[0]: the unit whose forward runs

    def measure(phase, label, op, t0):
        live, peak = tracemalloc.get_traced_memory()
        rows.append(Row(phase, label, op, time.perf_counter() - t0, peak, live))
        tracemalloc.reset_peak()

    def timed_forward(u):
        def forward(h, graph, mode, tape, rng, _forward=u.forward):
            h = [h]  # so this frame keeps no reference once the unit has it
            unit[0], t0 = u.label, time.perf_counter()
            y = _forward(h.pop(), graph, mode, tape, rng)
            measure("forward", u.label, "-", t0)
            return y
        return forward

    record = models._record

    def timed_record(tape, backward, cache, *names):
        label, op = unit[0], getattr(backward, "func", backward).__name__

        def timed(g, cache):
            t0 = time.perf_counter()
            out = backward(g, cache)
            measure("backward", label, op, t0)
            return out
        record(tape, timed, cache, *names)

    def step():
        res = graph.forward(x, mode="train", rng=RandomSource(2))
        t0 = time.perf_counter()
        _, _, grad_logits = softmax_xent(res.logits, labels)
        measure("loss", "-", "softmax_xent", t0)
        grads: dict = {}
        res.tape.backward(grad_logits, grads)
        t0 = time.perf_counter()
        add_l2_gradients(graph.params, grads, TrainConfig.l2_coeff)
        measure("l2", "-", "add_l2_gradients", t0)
        t0 = time.perf_counter()
        adam_step(graph.params, grads, adam)
        measure("adam", "-", "adam_step", t0)

    for u in graph.units:
        u.forward = timed_forward(u)
    models._record = timed_record
    tracemalloc.start()
    try:
        step()
        tracemalloc.stop()  # untraced, measure reads 0 bytes
        for _ in range(steps - 1):
            step()
    finally:
        tracemalloc.stop()
        models._record = record
        for u in graph.units:
            del u.forward
    n = len(rows) // steps  # every step runs the same rows
    return [r._replace(seconds=statistics.median(s.seconds for s in rows[i::n]))
            for i, r in enumerate(rows[:n])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--arch", default="m3", choices=models.valid_architectures())
    parser.add_argument("--width", type=float, default=1.0, help="channel scale in (0, 1]")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--length", type=int, default=CLIP_SAMPLES, help="samples per clip")
    parser.add_argument("--steps", type=int, default=5,
                        help="warm steps whose median time each row reports")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    rows = step_rows(args.arch, args.width, args.batch, args.length, args.steps)
    print(f"{'phase':<9} {'unit':<26} {'op':<22} {'ms':>8} {'peak MiB':>9} {'live MiB':>9}")
    for r in rows:
        print(f"{r.phase:<9} {r.unit:<26} {r.op:<22} {r.seconds * 1e3:8.1f} "
              f"{r.peak / MIB:9.1f} {r.live / MIB:9.1f}")
    top = max(rows, key=lambda r: r.peak)
    print(f"step peak {top.peak / MIB:.1f} MiB: {top.phase} {top.unit} {top.op}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
