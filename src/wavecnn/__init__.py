"""Training and analysis stack for very deep 1D CNNs on raw audio waveforms."""

import os as _os
import sys as _sys

# WAVECNN_THREADS caps BLAS worker threads (0 or unset = library default).
# Must happen before numpy is first imported anywhere in the process.
_threads = _os.environ.get("WAVECNN_THREADS")
if _threads and _threads != "0" and "numpy" not in _sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .tensor import RandomSource  # noqa: E402
from .models import ModelGraph, build, count_parameters, shape_trace  # noqa: E402
from .training import (  # noqa: E402
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .audio import DatasetIndex, decode_wav, fix_length, standardize, to_mono_8k  # noqa: E402
from .analysis import SpectrumMatrix, kernel_spectra  # noqa: E402

__all__ = [
    "Checkpoint",
    "DatasetIndex",
    "ModelGraph",
    "RandomSource",
    "SpectrumMatrix",
    "TrainConfig",
    "build",
    "count_parameters",
    "decode_wav",
    "evaluate",
    "fix_length",
    "kernel_spectra",
    "load_checkpoint",
    "save_checkpoint",
    "shape_trace",
    "standardize",
    "to_mono_8k",
    "train",
]
