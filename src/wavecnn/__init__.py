"""Training and analysis stack for very deep 1D CNNs on raw audio waveforms."""

import os as _os
import sys as _sys
import warnings as _warnings

# WAVECNN_THREADS sets the BLAS worker threads (0 or unset = library default)
# through the variables below, which BLAS reads when numpy is first imported.
_threads = _os.environ.get("WAVECNN_THREADS")
if _threads and _threads != "0":
    _vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    if "numpy" not in _sys.modules:
        for _var in _vars:
            _os.environ[_var] = _threads
    elif any(_os.environ.get(_var) != _threads for _var in _vars):
        _warnings.warn(f"WAVECNN_THREADS={_threads} is ignored: numpy was imported "
                       "before wavecnn, so its BLAS thread count is already fixed",
                       RuntimeWarning, stacklevel=2)

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
