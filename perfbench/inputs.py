"""Seeded inputs for the benchmark workloads.

Everything here is derived from the workload seed, so one seed always gives
the same clips, corpus files and checkpoint. The program under test only
ever sees what these functions produce.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from wavecnn import RandomSource, build, save_checkpoint, training
from wavecnn.audio import CLIP_SAMPLES, TARGET_RATE, ClipEntry

NUM_CLASSES = 10
CLASS_NAMES = [f"class_{k}" for k in range(NUM_CLASSES)]

# Fold of every generated entry. training.train holds out fold 10 as the
# test split, so train entries sit in fold 1 (no test pass inside train).
TRAIN_FOLD = 1
EVAL_FOLD = 10


def _tone(rng: np.random.Generator, label: int, n: int, rate: int) -> np.ndarray:
    """A class-dependent tone under 4 kHz plus noise, in [-1, 1]."""
    freq = 180.0 * (label + 1) * rng.uniform(0.95, 1.05)
    t = np.arange(n) / rate
    wave = np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    wave += 0.3 * rng.standard_normal(n)
    return 0.6 * wave / np.max(np.abs(wave))


class TrainClips:
    """In-memory 8 kHz clips in the shape a DatasetIndex serves them. The
    first k clips of a seed are the same whatever `n_clips` is."""

    def __init__(self, seed: int, n_clips: int):
        rng = np.random.default_rng([seed, 1])
        self.class_names = CLASS_NAMES
        self.entries = [
            ClipEntry(f"train_{i:03d}", None, i % NUM_CLASSES, TRAIN_FOLD) for i in range(n_clips)
        ]
        self._clips = {}
        for e in self.entries:
            wave = _tone(rng, e.label, CLIP_SAMPLES, TARGET_RATE)
            self._clips[e.clip_id] = ((wave - wave.mean()) / wave.std()).astype(np.float32)

    @property
    def num_classes(self) -> int:
        return NUM_CLASSES

    def load(self, entry: ClipEntry) -> np.ndarray:
        return self._clips[entry.clip_id]

    def describe(self, batch: int, epochs: int) -> dict:
        return {"clips": len(self.entries), "clip_samples": CLIP_SAMPLES, "classes": NUM_CLASSES,
                "batch": batch, "epochs": epochs}


# --- WAV corpus -------------------------------------------------------------

# One slot per well-formed file: (source rate, nominal duration in seconds).
# The rate mix leans on 44.1/48 kHz as real field recordings do and covers
# every common rate from 8 to 192 kHz once. Rates and durations are fixed so
# the decode and resample work, which grows with rate and length, is about
# the same for every seed; the seed picks the pairing of channel count and
# sample format with the slots, jitters each duration by +-5% and draws the
# signal. Source rates of 1 MHz and more are left out on purpose (see
# README.md).
CORPUS_SLOTS = (
    (44100, 4.0), (44100, 3.5), (44100, 2.5), (44100, 1.5), (44100, 0.5),
    (44100, 3.0), (44100, 1.0),
    (48000, 4.0), (48000, 3.0), (48000, 2.0), (48000, 1.0), (48000, 0.5),
    (48000, 3.5), (48000, 1.5),
    (8000, 4.0), (11025, 3.0), (16000, 2.5), (22050, 4.0), (24000, 2.0),
    (32000, 3.5), (88200, 2.0), (96000, 1.5), (176400, 1.0), (192000, 0.5),
)
FORMATS = ("pcm8", "pcm16", "pcm24", "float32")
MALFORMED_KINDS = ("bad_riff", "truncated_data", "unsupported_codec", "no_data_chunk",
                   "bad_block_align")
N_MALFORMED = 4


def wav_bytes(samples: np.ndarray, rate: int, fmt: str) -> bytes:
    """RIFF/WAVE bytes for float samples [frames, channels] in [-1, 1]."""
    frames, channels = samples.shape
    if fmt == "pcm8":
        raw = np.clip(np.round(samples * 127.0) + 128, 0, 255).astype(np.uint8).tobytes()
        code, bits = 1, 8
    elif fmt == "pcm16":
        raw = np.round(samples * 32767.0).astype("<i2").tobytes()
        code, bits = 1, 16
    elif fmt == "pcm24":
        ints = np.round(samples * 8388607.0).astype("<i4").reshape(-1)
        raw = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        code, bits = 1, 24
    elif fmt == "float32":
        raw = samples.astype("<f4").tobytes()
        code, bits = 3, 32
    else:
        raise ValueError(f"unknown sample format {fmt!r}")
    block = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)
    pad = b"\0" if len(raw) % 2 else b""
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt_chunk
    body += b"data" + struct.pack("<I", len(raw)) + raw + pad
    return b"RIFF" + struct.pack("<I", len(body)) + body


def malform(data: bytes, kind: str) -> bytes:
    """Corrupt a well-formed WAV so that decode_wav must reject it."""
    if kind == "bad_riff":
        return b"RIFX" + data[4:]
    if kind == "truncated_data":
        return data[: 44 + (len(data) - 44) // 2]
    if kind == "unsupported_codec":  # IMA ADPCM, 4-bit
        return data[:20] + struct.pack("<H", 0x11) + data[22:34] + struct.pack("<H", 4) + data[36:]
    if kind == "no_data_chunk":
        return data[:36] + b"LIST" + data[40:]
    if kind == "bad_block_align":
        return data[:32] + struct.pack("<H", 5) + data[34:]
    raise ValueError(f"unknown malformation {kind!r}")


class Corpus:
    """A seeded on-disk WAV corpus: well-formed clips plus malformed files."""

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 2])
        root.mkdir(parents=True, exist_ok=True)
        n = len(CORPUS_SLOTS)
        channels = rng.permutation(np.arange(n) % 2 + 1)
        formats = rng.permutation([FORMATS[i % len(FORMATS)] for i in range(n)])
        self.good, self.bad, self.labels = [], [], []
        self.source_bytes = 0
        for i, ((rate, seconds), ch, fmt) in enumerate(zip(CORPUS_SLOTS, channels, formats)):
            label = i % NUM_CLASSES
            frames = int(rate * seconds * rng.uniform(0.95, 1.05))
            mono = _tone(rng, label, frames, rate)
            samples = np.stack([mono * (1.0 - 0.2 * c) for c in range(ch)], axis=1)
            data = wav_bytes(samples, rate, str(fmt))
            path = root / f"clip_{i:03d}_{rate}_{ch}ch_{fmt}.wav"
            path.write_bytes(data)
            self.source_bytes += len(data)
            self.good.append(ClipEntry(path.stem, path, label, EVAL_FOLD, frames / rate))
            self.labels.append(label)
        kinds = rng.choice(len(MALFORMED_KINDS), N_MALFORMED, replace=False)
        donors = rng.choice(n, N_MALFORMED, replace=False)
        for k, d in zip(kinds, donors):
            kind = MALFORMED_KINDS[k]
            path = root / f"bad_{kind}.wav"
            path.write_bytes(malform(self.good[d].path.read_bytes(), kind))
            self.bad.append(ClipEntry(path.stem, path, 0, EVAL_FOLD))
        self.labels = np.array(self.labels, dtype=np.int64)

    def describe(self) -> dict:
        return {
            "wav_files": len(self.good),
            "malformed_files": len(self.bad),
            "source_bytes": self.source_bytes,
            "rates_hz": sorted({rate for rate, _ in CORPUS_SLOTS}),
            "seconds_total": round(sum(e.duration for e in self.good), 3),
        }


def save_init_checkpoint(arch: str, seed: int, channel_scale: float, path: Path) -> None:
    """A freshly initialised model of `arch`, written as a checkpoint."""
    graph = build(arch, num_classes=NUM_CLASSES, rng=RandomSource(seed),
                  channel_scale=channel_scale)
    ckpt = training.Checkpoint(
        version=training.CHECKPOINT_VERSION,
        arch=arch,
        epoch=0,
        params=graph.params,
        state=graph.state,
        config={"arch": arch, "num_classes": NUM_CLASSES, "channel_scale": channel_scale},
    )
    save_checkpoint(ckpt, path)
