"""Thread-count contract: one float32 train step gives the same bits at
WAVECNN_THREADS 1 and 2. The thread count is fixed when numpy is first
imported, so each count runs in its own subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import wavecnn

_STEP = """
import hashlib, os
from wavecnn.models import build  # before numpy, so WAVECNN_THREADS applies
from wavecnn.ops import softmax_xent
from wavecnn.tensor import RandomSource
import numpy as np

h = hashlib.sha256()
for name in ("m3", "m18", "m34-res"):
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 8)
    x = RandomSource(1).normal((4, 32000, 1))
    res = graph.forward(x, mode="train", rng=RandomSource(2))
    _, _, dlogits = softmax_xent(res.logits, np.arange(4))
    grads = {}
    res.tape.backward(dlogits, grads)
    for arr in (res.logits, *(grads[k] for k in sorted(grads)),
                *(graph.state[k] for k in sorted(graph.state))):
        h.update(np.ascontiguousarray(arr).tobytes())
print(os.environ["OPENBLAS_NUM_THREADS"], h.hexdigest())
"""


def _step_hash(threads: str) -> list:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(wavecnn.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["WAVECNN_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", _STEP], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_train_step_bitwise_equal_at_one_and_two_threads():
    """Logits, every gradient and the running stats of m3, m18 and m34-res
    (1/8 width, B=4) hash the same at both thread counts."""
    one, two = _step_hash("1"), _step_hash("2")
    assert (one[0], two[0]) == ("1", "2")
    assert one[1] == two[1]
