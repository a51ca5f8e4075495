"""The finiteness check, atomic file writes, and the seeded random source.

Every module in the package shares two layout conventions:

    activations   [batch, time, channels]
    conv kernels  [receptive_field, in_channels, out_channels]

Keeping the time axis in the middle leaves it contiguously strided for the
convolution inner loops and avoids transposition bugs between layers.

The precision policy (which dtype each op computes and accumulates in) is
stated once, in the `ops` module docstring.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

TRAIN_DTYPE = np.float32

class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or Inf."""


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Assert arr is all-finite; NaN/Inf is a hard error."""
    if arr.size:
        lo, hi = np.min(arr), np.max(arr)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteError(f"{name}: non-finite values (min={lo}, max={hi})")
    return arr


@contextmanager
def atomic_write(path):
    """Binary file handle on `<path>.tmp`, moved over `path` once the block
    completes. If the block raises, the temporary file is removed and
    `path` keeps its previous contents, so a reader never sees half a file.
    Nothing is fsynced, so that holds across a killed process but not
    across a power loss or an operating-system crash.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class RandomSource:
    """Deterministic random stream.

    Backed by numpy's PCG64 generator; normal variates come from numpy's
    ziggurat `standard_normal`. Identical seeds (and derivation tags) yield
    identical value streams across runs.
    """

    def __init__(self, seed: int, _key=None):
        self.seed = int(seed)
        self._key = tuple(_key) if _key is not None else (self.seed,)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._key)))

    def derive(self, *tags: int) -> "RandomSource":
        """Independent child stream addressed by integer tags."""
        return RandomSource(self.seed, _key=self._key + tuple(int(t) for t in tags))

    def uniform(self, low: float, high: float, shape=None, dtype=TRAIN_DTYPE) -> np.ndarray:
        return np.asarray(self._gen.uniform(low, high, size=shape)).astype(dtype, copy=False)

    def normal(self, shape=None, dtype=TRAIN_DTYPE) -> np.ndarray:
        return np.asarray(self._gen.standard_normal(size=shape)).astype(dtype, copy=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def get_state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state
