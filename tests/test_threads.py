"""Thread-count contract: one float32 train step gives the same bits at
WAVECNN_THREADS 1 and 2, and the variable overrides the BLAS thread
variables or, once numpy is loaded, warns that it cannot. The thread count
is fixed when numpy is first imported, so each case runs in its own
subprocess.

The contract covers the 17 architectures without fully connected layers;
the step here checks m3, m18 and m34-res, and tests/step_digest.py
--cases at both counts shows the other 14 (README, "Determinism and
threads"). The four -fc architectures, m3-fc, m5-fc, m11-fc and m18-fc,
are outside it: their steps give other bits at 1 and 2 threads."""

import subprocess
import sys

from harness import python_env

_STEP = """
import hashlib, os
from wavecnn.models import build  # before numpy, so WAVECNN_THREADS applies
from wavecnn.tensor import RandomSource
from wavecnn.training import gradients
import numpy as np

h = hashlib.sha256()
for name in ("m3", "m18", "m34-res"):
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 8)
    x = RandomSource(1).normal((4, 32000, 1))
    res, _, grads = gradients(graph, x, np.arange(4), RandomSource(2), 0.0)
    for arr in (res.logits, *(grads[k] for k in sorted(grads)),
                *(graph.state[k] for k in sorted(graph.state))):
        h.update(np.ascontiguousarray(arr).tobytes())
print(os.environ["OPENBLAS_NUM_THREADS"], h.hexdigest())
"""


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run(code: str, **env_vars) -> str:
    """stdout of `python -c code` with this checkout's wavecnn, the BLAS
    thread variables cleared, then env_vars set."""
    out = subprocess.run([sys.executable, "-c", code], env=python_env(drop=_BLAS_VARS, **env_vars),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _step_hash(threads: str) -> list:
    return _run(_STEP, WAVECNN_THREADS=threads).split()


def test_train_step_bitwise_equal_at_one_and_two_threads():
    """Logits, every gradient and the running stats of m3, m18 and m34-res
    (1/8 width, B=4) hash the same at both thread counts."""
    one, two = _step_hash("1"), _step_hash("2")
    assert (one[0], two[0]) == ("1", "2")
    assert one[1] == two[1]


_SHOW_VARS = f"import os; print(*(os.environ.get(v) for v in {_BLAS_VARS!r}))"


def test_wavecnn_threads_overrides_blas_variables():
    """WAVECNN_THREADS wins over a BLAS variable that is already set."""
    out = _run("import wavecnn; " + _SHOW_VARS, WAVECNN_THREADS="1",
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert out.split() == ["1", "1", "1"]


_NUMPY_FIRST = """
import warnings
import numpy
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import wavecnn
print(*(f"{w.category.__name__}: {w.message}" for w in caught), sep="\\n")
"""


def test_numpy_imported_first_warns():
    """Once numpy is loaded the thread count is fixed, so the variable
    cannot apply, and importing wavecnn says so."""
    out = _run(_NUMPY_FIRST, WAVECNN_THREADS="1")
    assert out.startswith("RuntimeWarning: WAVECNN_THREADS=1 is ignored"), out


def test_numpy_imported_first_with_matching_variables_is_silent():
    """Variables that already held the count when numpy loaded did apply
    it, so there is nothing to warn about."""
    out = _run(_NUMPY_FIRST, WAVECNN_THREADS="2",
               **{v: "2" for v in _BLAS_VARS})
    assert out.strip() == ""
