"""WAV ingestion, 8 kHz resampling, standardization, and fold management.

The per-clip pipeline is decode -> mono mixdown -> ideal (sinc) low-pass
resample to 8 kHz by FFT -> standardize to zero mean / unit variance -> pad
or truncate to 32000 samples (4 s). Every stage is a pure function, so the
chain is bit-reproducible for a given file.

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
from math import gcd
from pathlib import Path

import numpy as np

from .tensor import atomic_write

logger = logging.getLogger(__name__)

TARGET_RATE = 8000
CLIP_SAMPLES = 32000
# Highest source rate accepted. The resampler zero-pads a clip to a whole
# number of rate / gcd(rate, 8000) samples, so an unbounded rate in a
# hostile header costs unbounded time and memory.
MAX_SOURCE_RATE = 384000
STD_FLOOR = 1e-8
# Hashed into every cache key with the source bytes. Change it whenever
# `preprocess` output changes, so blobs from an older pipeline are not served.
_PIPELINE_TAG = b"fft-sinc 8 kHz, standardized, 32000 float32\n"


class WavError(ValueError):
    pass


class MalformedWavError(WavError):
    """Header or chunk structure is not valid RIFF/WAVE."""


class UnsupportedWavError(WavError):
    """Container is valid but the codec is not PCM 8/16/24-bit or float32,
    or the sample rate is below TARGET_RATE or above MAX_SOURCE_RATE."""


class TruncatedWavError(WavError):
    """The file ends before the declared chunk or frame data."""


_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2..15 of the SubFormat GUIDs that carry a plain format code in their
# first two (KSDATAFORMAT_SUBTYPE_PCM, KSDATAFORMAT_SUBTYPE_IEEE_FLOAT).
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def decode_wav(data: bytes):
    """Parse a RIFF/WAVE blob into (samples [frames, channels], rate, channels).

    Integer PCM is scaled to [-1, 1] by the type's maximum magnitude
    (16-bit: /32768); 8-bit WAV PCM is unsigned and re-centered. Channels
    are kept separate for the caller. A WAVE_FORMAT_EXTENSIBLE fmt chunk is
    read as the format its SubFormat GUID names; the channel mask and
    valid-bits field are ignored. A float sample that is NaN or +-inf is
    refused.
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
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                # The format code is the first two bytes of the SubFormat GUID
                # at body bytes 24..39.
                if size < 40:
                    raise MalformedWavError(f"extensible fmt chunk of {size} bytes at offset {pos}")
                if body_start + 40 > len(data):
                    raise TruncatedWavError(f"fmt chunk runs past end of file (offset {pos})")
                guid = data[body_start + 24 : body_start + 40]
                if guid[2:] != _SUBFORMAT_TAIL:
                    raise UnsupportedWavError(f"fmt chunk at offset {pos}: SubFormat {guid.hex()}")
                fmt = struct.unpack_from("<H", guid) + fmt[1:]
        elif cid == b"data":
            if body_start + size > len(data):
                raise TruncatedWavError(
                    f"data chunk at offset {pos} declares {size} bytes, "
                    f"file has {len(data) - body_start}"
                )
            raw, data_offset = data[body_start : body_start + size], pos
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
    if frames == 0:
        raise TruncatedWavError("data chunk holds no frames")

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
        finite = np.isfinite(samples)
        if not finite.all():
            raise MalformedWavError(f"data chunk at offset {data_offset}: frame "
                                    f"{int(np.argmin(finite)) // channels} is not finite")

    return samples.reshape(frames, channels), rate, channels


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the resampler's block count. Only the count
    is made smooth, not the FFT length; with raw counts numpy cached a Bluestein
    plan per clip length, and a 24-clip corpus took 69 MiB of RSS, not 49.5."""
    best = 1 << (n - 1).bit_length()
    for b in range(n.bit_length()):
        for c in range(n.bit_length()):
            m = 3**b * 5**c
            while m < n:
                m *= 2
            best = min(best, m)
    return best


def resample_sinc(x: np.ndarray, src_rate: int) -> np.ndarray:
    """Ideal (sinc) low-pass resampling to TARGET_RATE by FFT, keeping only
    the bins below TARGET_RATE/2; the output has
    ceil(len(x) * TARGET_RATE / src_rate) samples."""
    x = np.asarray(x, dtype=np.float64)
    if src_rate == TARGET_RATE:
        return x
    g = gcd(src_rate, TARGET_RATE)
    up, down = TARGET_RATE // g, src_rate // g
    # Zero-padding to a whole number of `down` samples makes the output
    # length a whole number too, so every output sample falls exactly on
    # its instant; otherwise the clip is time-stretched.
    n_in = _fast_len(-(-len(x) // down)) * down
    n_out = n_in // down * up
    spec = np.fft.rfft(x, n_in)
    y = np.fft.irfft(spec[: (n_out + 1) // 2], n_out)
    y *= up / down
    return y[: -(-len(x) * up // down)]


def to_mono_8k(samples: np.ndarray, rate: int) -> np.ndarray:
    """Average channels to mono and downsample to TARGET_RATE.

    Upsampling is refused: the recipe only ever reduces the rate.
    """
    if rate < TARGET_RATE:
        raise UnsupportedWavError(f"refusing to upsample from {rate} Hz to {TARGET_RATE} Hz")
    samples = np.asarray(samples, dtype=np.float64)
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    return resample_sinc(mono, rate)


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

    Decoded clips are memoized in memory by file path; `cache_dir`, when
    set, also stores the preprocessed 32000-sample float32 blob keyed by
    the hash of the pipeline tag and the source file so later runs skip
    decoding and resampling. Blobs are written atomically; one of the wrong
    size, or holding a non-finite value, is recomputed and rewritten.
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
                try:
                    fold, label = int(row["fold"]), int(row["classID"])
                except (TypeError, ValueError):  # TypeError: a short row's missing cell is None
                    raise ValueError(f"{meta_path}, line {reader.line_num}: fold {row['fold']!r} "
                                     f"and classID {row['classID']!r} must be integers") from None
                if fold < 0 or label < 0:
                    raise ValueError(
                        f"{meta_path}, line {reader.line_num}: fold {fold} and classID {label} "
                        "must be >= 0"
                    )
                if not name or name in (".", "..") or Path(name).name != name:
                    raise ValueError(f"{meta_path}, line {reader.line_num}: slice_file_name "
                                     f"{name!r} must be a bare file name")
                folded = data_root / f"fold{fold}" / name
                path = folded if folded.exists() else data_root / name
                if row.get("class"):
                    names[label] = row["class"]
                entries.append(ClipEntry(name, path, label, fold))
        n_classes = max((e.label for e in entries), default=-1) + 1
        class_names = [names.get(i, f"class_{i}") for i in range(n_classes)]
        return cls(entries, class_names, cache_dir=cache_dir)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def _cache_path(self, raw: bytes) -> Path:
        key = hashlib.sha256(_PIPELINE_TAG)
        key.update(raw)
        return self.cache_dir / f"{key.hexdigest()[:32]}.f32"

    def load(self, entry: ClipEntry) -> np.ndarray:
        """Preprocessed 32000-sample float32 waveform for one entry."""
        clip = self._memo.get(entry.path)
        if clip is not None:
            return clip
        raw = Path(entry.path).read_bytes()
        blob = self._cache_path(raw) if self.cache_dir else None
        if blob is not None and blob.exists():
            data = blob.read_bytes()
            if len(data) == 4 * CLIP_SAMPLES:
                clip = np.frombuffer(data, dtype="<f4")
                if not np.isfinite(clip).all():
                    logger.warning("%s: cache blob holds a non-finite value; recomputing", blob)
                    clip = None
            else:
                logger.warning("%s: cache blob has %d bytes, not %d; recomputing",
                               blob, len(data), 4 * CLIP_SAMPLES)
        if clip is None:
            clip = preprocess(raw)
            if blob is not None:
                with atomic_write(blob) as f:
                    f.write(clip.astype("<f4", copy=False).data)
        self._memo[entry.path] = clip
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
