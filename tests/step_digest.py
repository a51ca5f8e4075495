"""One sha256 over a train step of every architecture.

For each case (architecture, dtype, clip length) the script builds the
network at 1/16 width in that dtype, draws every batch-norm gamma in
[-2, 2] so that negative scales and their min-pooling run too, and runs one
B=3 train step up to the update: training.gradients, the forward, loss,
backward and L2 gradients that training.train runs. It then runs an
inference on the updated running statistics. The hash covers the logits,
every parameter gradient after L2, the running statistics, the infer
logits and the tape length of each case, in case order.

A change that must leave training bitwise equal prints the same hash as
its parent. Run it on both trees and compare:

    PYTHONPATH=src python tests/step_digest.py

or let --parent REV do it: it extracts REV with `git archive`, as
tests/bench_pairs.py does, runs the extract's copy of this script on the
extract's package and this copy on the work tree's, each in a fresh
process, prints both totals and exits 1 if they differ. Each tree hashes
with its own script because the step is the package's own.

Its first line is the thread count that numpy's BLAS reports, since the
-fc architectures' bits depend on it (README, "Determinism and threads").
With --cases it then prints one hash per case, named, so a mismatch shows
which (arch, dtype, length) case differs. The last line is the total.

pytest does not collect this file (its name does not start with test_);
tests/test_step_digest.py runs it on a few small cases.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# wavecnn before numpy (bench_pairs imports it too), so WAVECNN_THREADS
# applies, as in tests/test_threads.py.
from wavecnn.models import build
from wavecnn.tensor import RandomSource
from wavecnn.training import gradients

import numpy as np  # noqa: E402

import bench_pairs  # noqa: E402
from harness import python_env  # noqa: E402

# Listed by hand, not read from valid_architectures(), so an architecture
# added later changes the case list only where this tuple is edited.
ARCHITECTURES = (
    "m11", "m11-fc", "m11-lrf", "m11-no-bn", "m11-srf", "m11-stride1",
    "m18", "m18-fc", "m18-lrf", "m18-no-bn", "m18-srf",
    "m3", "m3-big", "m3-fc", "m3-no-bn",
    "m34-no-bn", "m34-res",
    "m5", "m5-big", "m5-fc", "m5-no-bn",
)
DTYPES = (np.float32, np.float64)
LENGTHS = (3200, 2000)

BATCH = 3
CHANNEL_SCALE = 1 / 16
L2_COEFF = 1e-4


def _step(arch: str, dtype, T: int):
    """Yield the bytes of one case's train step and inference."""
    graph = build(arch, rng=RandomSource(0), dtype=dtype, channel_scale=CHANNEL_SCALE)
    gammas = RandomSource(1)
    for name, p in graph.params.items():
        if name.endswith(".gamma"):
            p[...] = gammas.uniform(-2.0, 2.0, p.shape, dtype=dtype)
    x = RandomSource(2).normal((BATCH, T, 1), dtype=dtype)
    labels = np.arange(BATCH) % graph.num_classes

    res, _, grads = gradients(graph, x, labels, RandomSource(3), L2_COEFF)
    infer = graph.forward(x).logits

    yield f"{arch}/{np.dtype(dtype).name}/{T}/{len(res.tape)}".encode()
    for arr in (res.logits, *(grads[k] for k in sorted(grads)),
                *(graph.state[k] for k in sorted(graph.state)), infer):
        yield np.ascontiguousarray(arr).tobytes()


def case_digests(archs=ARCHITECTURES, dtypes=DTYPES, lengths=LENGTHS):
    """Yield (case name, sha256 hex digest of the case) for every
    (arch, dtype, length) case in order, then ("total", the sha256 over
    every case's bytes in that order)."""
    total = hashlib.sha256()
    for arch in archs:
        for dtype in dtypes:
            for T in lengths:
                h = hashlib.sha256()
                for chunk in _step(arch, dtype, T):
                    h.update(chunk)
                    total.update(chunk)
                yield f"{arch}/{np.dtype(dtype).name}/{T}", h.hexdigest()
    yield "total", total.hexdigest()


def blas_threads():
    """The thread count that the OpenBLAS numpy loaded reports, or None
    where numpy's wheel bundles no OpenBLAS (another BLAS, or a build
    against the system's)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(blas, name):
                return getattr(blas, name)()
    return None


def _total_in(root: Path, cases: dict) -> str:
    """The total digest of the tree at root, from its own copy of this
    script on its own package, in a fresh process."""
    code = ("import json, sys, step_digest; "
            "print(dict(step_digest.case_digests(**json.loads(sys.argv[1])))['total'])")
    arg = json.dumps(cases, default=lambda dtype: np.dtype(dtype).name)
    return subprocess.run([sys.executable, "-c", code, arg], cwd=root / "tests",
                          env=python_env(root / "src"), check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None, **cases) -> int:
    """Print `BLAS threads <n>`, then the total digest; with --cases, one
    line per case before it, `<digest> <arch>/<dtype>/<T>`, so a mismatch
    names its case. With --parent REV, print `<digest> <REV>` and `<digest>
    work tree` after the thread line and return 1 if they differ. cases
    narrows the case lists (case_digests' arguments)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", action="store_true",
                        help="print each case's digest before the total")
    parser.add_argument("--parent", metavar="REV",
                        help="compare the totals of REV and of the work tree")
    args = parser.parse_args(argv)
    print("BLAS threads", blas_threads())
    if args.parent:
        with tempfile.TemporaryDirectory() as tmp:
            bench_pairs._extract(args.parent, Path(tmp))
            parent = _total_in(Path(tmp), cases)
        work = _total_in(bench_pairs.ROOT, cases)
        print(parent, args.parent)
        print(work, "work tree")
        return int(parent != work)
    for name, hexdigest in case_digests(**cases):
        if name == "total":
            print(hexdigest)
        elif args.cases:
            print(hexdigest, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
