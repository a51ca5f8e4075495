"""First-layer kernel spectrum analysis with CSV and PGM emission.

Each first-layer kernel is Fourier-transformed over its own length (no
windowing or zero padding), magnitude-normalized per row, and the rows are
sorted by peak-frequency bin so the matrix reads as a filter bank. Bin k
corresponds to k * 8000 / rf Hz at the 8 kHz pipeline rate, which makes the
frequency resolution of the small/large receptive-field variants directly
comparable (rf 80: 100 Hz per bin, rf 8: 1000 Hz, rf 320: 25 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import TARGET_RATE
from .training import load_checkpoint


@dataclass
class SpectrumMatrix:
    """Rows = kernels sorted by peak bin (ties by kernel index), columns =
    DFT magnitude bins 0..floor(rf/2), each row normalized to [0, 1]."""

    magnitudes: np.ndarray
    kernel_order: np.ndarray
    peak_bins: np.ndarray
    rf: int

    @property
    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.magnitudes.shape[1]) * TARGET_RATE / self.rf


def kernel_spectra_from_kernel(kernel: np.ndarray) -> SpectrumMatrix:
    """Spectrum matrix of a first-layer kernel tensor [rf, 1, n]."""
    if kernel.ndim != 3 or kernel.shape[1] != 1:
        raise ValueError(
            f"first conv layer must have in_channels=1, got kernel shape {kernel.shape}"
        )
    rf, _, n = kernel.shape
    spectra = np.abs(np.fft.rfft(kernel[:, 0, :].astype(np.float64), n=rf, axis=0)).T
    peaks = np.argmax(spectra, axis=1)
    maxima = spectra.max(axis=1, keepdims=True)
    normalized = np.divide(spectra, maxima, out=np.zeros_like(spectra), where=maxima > 0)
    order = np.argsort(peaks, kind="stable")
    return SpectrumMatrix(
        magnitudes=normalized[order],
        kernel_order=order,
        peak_bins=peaks[order],
        rf=rf,
    )


def kernel_spectra(checkpoint_path) -> SpectrumMatrix:
    """Load a checkpoint and analyze its first convolutional layer."""
    ckpt = load_checkpoint(checkpoint_path)
    kernel = ckpt.params.get("conv1.kernel")
    if kernel is None:
        raise ValueError(f"{checkpoint_path}: checkpoint has no conv1.kernel tensor")
    return kernel_spectra_from_kernel(kernel)


def write_spectrum_csv(sm: SpectrumMatrix, path) -> None:
    """Header row = bin frequencies in Hz, one row per kernel, LF endings."""
    lines = [",".join(f"{f:.9g}" for f in sm.bin_frequencies_hz)]
    for row in sm.magnitudes:
        lines.append(",".join(f"{v:.9g}" for v in row))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_spectrum_pgm(sm: SpectrumMatrix, path) -> None:
    """Binary PGM (P5, maxval 255), one pixel per matrix cell."""
    pixels = np.clip(np.rint(sm.magnitudes * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
