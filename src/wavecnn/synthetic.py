"""Synthetic sine-vs-noise data and the desk-scale training harnesses.

Two harnesses build on the same tiny dataset and return what `train` returns:

  smoke_overfit           reduced-width 3-layer model driven to 100% train
                          accuracy, the end-to-end determinism check;
                          returns the run's TrainResult
  trainability_contrast   narrow 34-layer residual model with and without
                          batch normalization; returns the two epoch
                          histories (BN, no-BN), compared on last-epoch
                          training loss and best train accuracy. The
                          first/last gradient-norm ratio is a diagnostic
                          of the BN run
"""

from __future__ import annotations

import numpy as np

from .audio import CLIP_SAMPLES, TARGET_RATE, ClipEntry, standardize
from .tensor import RandomSource
from .training import TrainConfig, TrainResult, train

SMOKE_SEED = 7
SMOKE_EPOCHS = 50
# 1/16 of the published width keeps the smoke run in CPU-seconds territory.
SMOKE_CHANNEL_SCALE = 1.0 / 16.0
CONTRAST_CHANNEL_SCALE = 1.0 / 8.0


class SyntheticDataset:
    """In-memory stand-in for a file-backed DatasetIndex.

    Class 0 is a pure sine at a per-clip random frequency, class 1 is white
    noise; both are standardized, so the classes differ only in spectral
    shape. Separable by construction.
    """

    def __init__(self, n_clips: int = 32, seed: int = SMOKE_SEED, length: int = CLIP_SAMPLES,
                 num_classes: int = 2):
        rng = RandomSource(seed).derive(90)
        self.class_names = ["sine", "noise"] if num_classes == 2 else [
            f"class_{i}" for i in range(num_classes)
        ]
        self.entries = []
        self._clips = {}
        t = np.arange(length) / TARGET_RATE
        for i in range(n_clips):
            label = i % num_classes
            if num_classes == 2 and label == 0:
                freq = float(rng.uniform(100.0, 2000.0))
                phase = float(rng.uniform(0.0, 2 * np.pi))
                wave = np.sin(2 * np.pi * freq * t + phase)
            else:
                wave = rng.normal(length, dtype=np.float64)
            clip_id = f"synth_{i:03d}"
            # Fold 1: every clip is a train clip under the default test fold 10.
            self.entries.append(ClipEntry(clip_id, None, label, 1))
            self._clips[clip_id] = standardize(wave).astype(np.float32)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def load(self, entry: ClipEntry) -> np.ndarray:
        return self._clips[entry.clip_id]


def smoke_overfit(seed: int = SMOKE_SEED, epochs: int = SMOKE_EPOCHS, log_path=None) -> TrainResult:
    """Overfit 32 sine-vs-noise clips with a reduced-width 3-layer model."""
    data = SyntheticDataset(n_clips=32, seed=seed)
    config = TrainConfig(
        arch="m3",
        epochs=epochs,
        batch_size=8,
        seed=seed,
        num_classes=2,
        channel_scale=SMOKE_CHANNEL_SCALE,
        stop_at_train_acc=1.0,
        log_path=log_path,
    )
    return train(config, data)


def trainability_contrast(seed: int = SMOKE_SEED, epochs: int = 5) -> tuple:
    """Train narrow 34-layer variants with and without BN on the smoke set
    and return their histories, (m34-res, m34-no-bn).

    Both runs share the seed, data and width; m34-no-bn is m34-res with
    BN removed, identity shortcuts kept. What the two are compared on is
    the last-epoch training loss and the best per-epoch train accuracy.
    Each epoch also records ‖∇conv1.kernel‖ / ‖∇dense.w‖ per batch; that
    ratio is a diagnostic for the BN run (BN keeps gradient scale in
    check), not a contrast. It does not separate the no-BN run: the
    shortcuts keep that run's gradients healthy, and in a stack without
    shortcuts the forward shrinkage of activations and the backward
    shrinkage of output gradients cancel in a first/last quotient.
    """
    histories = []
    for arch in ("m34-res", "m34-no-bn"):
        data = SyntheticDataset(n_clips=32, seed=seed)
        config = TrainConfig(
            arch=arch,
            epochs=epochs,
            batch_size=8,
            seed=seed,
            num_classes=2,
            channel_scale=CONTRAST_CHANNEL_SCALE,
        )
        histories.append(train(config, data).history)
    return tuple(histories)
