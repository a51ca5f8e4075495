"""WAV ingestion, 8 kHz resampling, standardization, and fold management.

The per-clip pipeline is decode -> mono mixdown -> windowed-sinc resample to
8 kHz -> standardize to zero mean / unit variance -> pad or truncate to
32000 samples (4 s). Every stage is a pure function, so the chain is
bit-reproducible for a given file.

Dataset discovery is metadata-driven: a CSV with columns
`slice_file_name,fold,classID` (extra columns ignored), audio under
`<root>/fold<N>/<name>` or flat under `<root>/<name>`. No download code.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np

from .tensor import atomic_write

logger = logging.getLogger(__name__)

TARGET_RATE = 8000
CLIP_SAMPLES = 32000
# Highest source rate accepted. The resampler's filter bank grows with the
# source rate, so an unbounded rate in a hostile header costs unbounded
# time and memory.
MAX_SOURCE_RATE = 384000
# Largest resampler filter bank, in coefficients (up phases x 2K+1 taps),
# 2 MiB of float64. A rate sharing few factors with the target needs up to
# 8000 phases; 11,024 Hz needs 500 x 269 and passes, while 22,254 Hz
# (4000 x 539) and 44,056 Hz (1000 x 1061) are refused.
MAX_FILTER_BANK = 1 << 18
STD_FLOOR = 1e-8


class WavError(ValueError):
    pass


class MalformedWavError(WavError):
    """Header or chunk structure is not valid RIFF/WAVE."""


class UnsupportedWavError(WavError):
    """Container is valid but the codec is not PCM 8/16/24-bit or float32,
    the sample rate is above MAX_SOURCE_RATE, or resampling it would need
    a filter bank above MAX_FILTER_BANK coefficients."""


class TruncatedWavError(WavError):
    """The file ends before the declared chunk or frame data."""


def decode_wav(data: bytes):
    """Parse a RIFF/WAVE blob into (samples [frames, channels], rate, channels).

    Integer PCM is scaled to [-1, 1] by the type's maximum magnitude
    (16-bit: /32768); 8-bit WAV PCM is unsigned and re-centered. Channels
    are kept separate for the caller.
    """
    if len(data) < 12:
        raise TruncatedWavError(f"only {len(data)} bytes, need at least 12 (offset 0)")
    if data[0:4] != b"RIFF":
        raise MalformedWavError(f"missing RIFF tag at offset 0: {data[0:4]!r}")
    if data[8:12] != b"WAVE":
        raise MalformedWavError(f"missing WAVE tag at offset 8: {data[8:12]!r}")

    fmt = None
    fmt_offset = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = struct.unpack_from("<I", data, pos + 4)[0]
        body_start = pos + 8
        if cid == b"fmt ":
            if size < 16:
                raise MalformedWavError(f"fmt chunk of {size} bytes at offset {pos}")
            if body_start + 16 > len(data):
                raise TruncatedWavError(f"fmt chunk runs past end of file (offset {pos})")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
            fmt_offset = pos
        elif cid == b"data":
            if body_start + size > len(data):
                raise TruncatedWavError(
                    f"data chunk at offset {pos} declares {size} bytes, "
                    f"file has {len(data) - body_start}"
                )
            raw = data[body_start : body_start + size]
        pos = body_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedWavError("no fmt chunk found")
    if raw is None:
        raise MalformedWavError("no data chunk found")

    audio_format, channels, rate, _, block_align, bits = fmt
    if channels < 1 or rate < 1:
        raise MalformedWavError(
            f"fmt chunk at offset {fmt_offset}: channels={channels} rate={rate}"
        )
    if rate > MAX_SOURCE_RATE:
        raise UnsupportedWavError(
            f"fmt chunk at offset {fmt_offset}: rate {rate} Hz above {MAX_SOURCE_RATE} Hz"
        )
    if audio_format == 1 and bits in (8, 16, 24):
        pass
    elif audio_format == 3 and bits == 32:
        pass
    else:
        raise UnsupportedWavError(
            f"fmt chunk at offset {fmt_offset}: format {audio_format}, {bits}-bit"
        )
    frame_bytes = channels * (bits // 8)
    if block_align not in (0, frame_bytes):
        raise MalformedWavError(
            f"fmt chunk at offset {fmt_offset}: block align {block_align} != {frame_bytes}"
        )
    if len(raw) % frame_bytes:
        raise TruncatedWavError(
            f"data chunk holds {len(raw)} bytes, not a multiple of frame size {frame_bytes}"
        )
    frames = len(raw) // frame_bytes

    if bits == 8:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 16:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        val -= (val & 0x800000) << 1  # sign extend
        samples = val.astype(np.float64) / 8388608.0
    else:
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)

    return samples.reshape(frames, channels), rate, channels


# Resampler design: the continuous kernel is a Kaiser-windowed sinc with
# cutoff at the target Nyquist. Evaluated on the rational up/down grid it
# decomposes into `up` polyphase filters. Sized so a tone at 97.5% of the
# target Nyquist passes nearly unattenuated while anything above it is
# strongly rejected.
_SINC_ZEROS = 96
_KAISER_BETA = 6.0


@lru_cache(maxsize=16)
def _polyphase_filters(src_rate: int, dst_rate: int):
    g = gcd(src_rate, dst_rate)
    up, down = dst_rate // g, src_rate // g
    cutoff = 0.5 * dst_rate / src_rate  # cycles per input sample
    half = _SINC_ZEROS / (2.0 * cutoff)  # kernel half-width in input samples
    K = int(np.ceil(half)) + 1
    if up * (2 * K + 1) > MAX_FILTER_BANK:
        raise UnsupportedWavError(
            f"rate {src_rate} Hz to {dst_rate} Hz needs a {up} x {2 * K + 1} filter bank, "
            f"above {MAX_FILTER_BANK} coefficients"
        )
    offsets = np.arange(-K, K + 1, dtype=np.float64)
    filters = np.zeros((up, 2 * K + 1), dtype=np.float64)
    for phase in range(up):
        tau = phase / up - offsets
        window = np.where(
            np.abs(tau) <= half,
            np.i0(_KAISER_BETA * np.sqrt(np.maximum(1.0 - (tau / half) ** 2, 0.0)))
            / np.i0(_KAISER_BETA),
            0.0,
        )
        h = 2.0 * cutoff * np.sinc(2.0 * cutoff * tau) * window
        filters[phase] = h / h.sum()  # unit DC gain per phase
    return up, down, K, filters


def resample_sinc(x: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Polyphase windowed-sinc resampling with cutoff at dst_rate/2."""
    if src_rate == dst_rate:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    up, down, K, filters = _polyphase_filters(src_rate, dst_rate)
    n_out = -(-len(x) * up // down)
    xp = np.pad(x, (K, K + down))
    y = np.empty(n_out, dtype=np.float64)
    inv_down = pow(down, -1, up)
    stride = xp.strides[0]
    for phase in range(up):
        n0 = (phase * inv_down) % up
        if n0 >= n_out:
            continue
        rows = (n_out - n0 + up - 1) // up
        base0 = (n0 * down) // up
        windows = np.lib.stride_tricks.as_strided(
            xp[base0:],
            shape=(rows, 2 * K + 1),
            strides=(down * stride, stride),
        )
        y[n0::up] = windows @ filters[phase]
    return y


def to_mono_8k(samples: np.ndarray, rate: int) -> np.ndarray:
    """Average channels to mono and downsample to TARGET_RATE.

    Upsampling is refused: the recipe only ever reduces the rate.
    """
    if rate < TARGET_RATE:
        raise ValueError(f"refusing to upsample from {rate} Hz to {TARGET_RATE} Hz")
    samples = np.asarray(samples, dtype=np.float64)
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    return resample_sinc(mono, rate, TARGET_RATE)


def standardize(samples: np.ndarray) -> np.ndarray:
    """(x - mean) / std per clip; std floored at 1e-8 so an all-constant
    clip maps to zeros instead of dividing by zero."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 1:
        raise ValueError("cannot standardize an empty clip")
    mu = samples.mean()
    sigma = max(float(samples.std()), STD_FLOOR)
    return (samples - mu) / sigma


def fix_length(samples: np.ndarray) -> np.ndarray:
    """Truncate to the first CLIP_SAMPLES samples or zero-pad at the end."""
    n = len(samples)
    if n >= CLIP_SAMPLES:
        return samples[:CLIP_SAMPLES]
    return np.concatenate([samples, np.zeros(CLIP_SAMPLES - n, dtype=samples.dtype)])


def preprocess(data: bytes) -> np.ndarray:
    """Full decode -> mono -> resample -> standardize -> fix_length chain."""
    samples, rate, _ = decode_wav(data)
    return fix_length(standardize(to_mono_8k(samples, rate))).astype(np.float32)


@dataclass(frozen=True)
class ClipEntry:
    clip_id: str
    path: Path | None
    label: int
    fold: int
    duration: float | None = None


def split_entries(entries, test_fold: int = 10):
    """Disjoint, exhaustive split: test = the given fold, train = rest, both
    in entry order. The package's one fold filter."""
    train = [e for e in entries if e.fold != test_fold]
    test = [e for e in entries if e.fold == test_fold]
    return train, test


class DatasetIndex:
    """Fold-organized catalog of clips behind a metadata CSV.

    Decoded clips are memoized in memory; `cache_dir`, when set, also stores
    the preprocessed 32000-sample float32 blob keyed by the content hash of
    the source file so later runs skip decoding and resampling. Blobs are
    written atomically; one of the wrong size is recomputed and rewritten.
    """

    def __init__(self, entries, class_names, cache_dir=None):
        self.entries = list(entries)
        self.class_names = list(class_names)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memo: dict = {}

    @classmethod
    def from_metadata_csv(cls, meta_path, data_root, cache_dir=None) -> "DatasetIndex":
        meta_path, data_root = Path(meta_path), Path(data_root)
        entries = []
        names: dict = {}
        with open(meta_path, newline="") as f:
            reader = csv.DictReader(f)
            required = {"slice_file_name", "fold", "classID"}
            missing = required - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{meta_path}: metadata CSV missing columns {sorted(missing)}")
            for row in reader:
                name = row["slice_file_name"]
                fold = int(row["fold"])
                label = int(row["classID"])
                folded = data_root / f"fold{fold}" / name
                path = folded if folded.exists() else data_root / name
                duration = None
                if row.get("start") and row.get("end"):
                    duration = float(row["end"]) - float(row["start"])
                if row.get("class"):
                    names[label] = row["class"]
                entries.append(ClipEntry(name, path, label, fold, duration))
        n_classes = max((e.label for e in entries), default=-1) + 1
        class_names = [names.get(i, f"class_{i}") for i in range(n_classes)]
        return cls(entries, class_names, cache_dir=cache_dir)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def _cache_path(self, raw: bytes) -> Path:
        key = hashlib.sha256(raw).hexdigest()[:32]
        return self.cache_dir / f"{key}.f32"

    def load(self, entry: ClipEntry) -> np.ndarray:
        """Preprocessed 32000-sample float32 waveform for one entry."""
        clip = self._memo.get(entry.clip_id)
        if clip is not None:
            return clip
        raw = Path(entry.path).read_bytes()
        if self.cache_dir:
            blob = self._cache_path(raw)
            if blob.exists():
                data = blob.read_bytes()
                if len(data) == 4 * CLIP_SAMPLES:
                    clip = np.frombuffer(data, dtype="<f4")
                else:
                    logger.warning("%s: cache blob has %d bytes, not %d; recomputing",
                                   blob, len(data), 4 * CLIP_SAMPLES)
            if clip is None:
                clip = preprocess(raw)
                with atomic_write(blob) as f:
                    f.write(clip.astype("<f4", copy=False).data)
        else:
            clip = preprocess(raw)
        self._memo[entry.clip_id] = clip
        return clip


@dataclass
class Batch:
    x: np.ndarray  # [B, CLIP_SAMPLES, 1] float32
    labels: np.ndarray  # [B] int64


def stack_clips(dataset, entries) -> tuple:
    """The entries' waveforms as one [N, CLIP_SAMPLES, 1] float32 array,
    and their [N] int64 labels, in entry order."""
    x = np.stack([dataset.load(e) for e in entries]).astype(np.float32, copy=False)[..., None]
    labels = np.array([e.label for e in entries], dtype=np.int64)
    return x, labels


def make_batches(dataset, entries, batch_size: int, rng):
    """Yield batches over a seeded permutation of the entries.

    A final short batch is kept when it has at least 2 rows (the BN
    minimum); a stray single row is dropped with a warning.
    """
    order = rng.permutation(len(entries))
    for start in range(0, len(order), batch_size):
        chunk = [entries[i] for i in order[start : start + batch_size]]
        if len(chunk) < 2:
            logger.warning("dropping final batch of %d row(s) (BN needs >= 2)", len(chunk))
            continue
        yield Batch(*stack_clips(dataset, chunk))
