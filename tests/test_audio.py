import hashlib
import logging
import struct
import time
import tracemalloc

import numpy as np
import pytest

from wavecnn.audio import (
    CLIP_SAMPLES,
    DatasetIndex,
    MalformedWavError,
    TruncatedWavError,
    UnsupportedWavError,
    WavError,
    decode_wav,
    fix_length,
    make_batches,
    preprocess,
    resample_sinc,
    split_entries,
    stack_clips,
    standardize,
    to_mono_8k,
)
from wavecnn.synthetic import SyntheticDataset
from wavecnn.tensor import RandomSource


def wav_bytes(samples, rate, bits=16, audio_format=1):
    """Assemble a RIFF/WAVE blob; samples is [frames, channels] in [-1,1]."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < samples.shape[1]:
        samples = samples.T
    frames, channels = samples.shape
    if audio_format == 3:
        raw = samples.astype("<f4").tobytes()
    elif bits == 16:
        raw = np.clip(np.rint(samples * 32768), -32768, 32767).astype("<i2").tobytes()
    elif bits == 8:
        raw = (np.clip(np.rint(samples * 128), -128, 127) + 128).astype(np.uint8).tobytes()
    elif bits == 24:
        vals = np.clip(np.rint(samples * 8388608), -8388608, 8388607).astype(np.int32)
        b = np.empty((vals.size, 3), dtype=np.uint8)
        flat = vals.ravel()
        b[:, 0] = flat & 0xFF
        b[:, 1] = (flat >> 8) & 0xFF
        b[:, 2] = (flat >> 16) & 0xFF
        raw = b.tobytes()
    else:
        raise ValueError(bits)
    if audio_format == 3:
        bits = 32
    block = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(raw), b"WAVE",
        b"fmt ", 16, audio_format, channels, rate, rate * block, block, bits,
        b"data", len(raw),
    )
    return header + raw


# Bytes 2..15 of the PCM and IEEE-float SubFormat GUIDs.
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def extensible(blob, guid_tail=GUID_TAIL, fmt_size=40):
    """The same wav_bytes blob with its fmt chunk rewritten as
    WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE, the old tag in the SubFormat GUID),
    cut to fmt_size bytes."""
    tag, channels, rate, byte_rate, block, bits = struct.unpack_from("<HHIIHH", blob, 20)
    body = struct.pack("<HHIIHHHHIH", 0xFFFE, channels, rate, byte_rate, block, bits,
                       22, bits, 0, tag) + guid_tail
    out = blob[:12] + b"fmt " + struct.pack("<I", fmt_size) + body[:fmt_size] + blob[36:]
    return out[:4] + struct.pack("<I", len(out) - 8) + out[8:]


def _patch(offset, fmt, value):
    def edit(blob):
        struct.pack_into(fmt, blob, offset, value)
        return bytes(blob)
    return edit


# Each edit breaks the header of a 100-frame 16-bit mono 8 kHz wav_bytes blob
# (fmt body at byte 20, data chunk at 36, samples at 44):
# (edit, error, message).
HEADER_EDITS = {
    "fmt-under-16-bytes": (_patch(16, "<I", 14), MalformedWavError, "fmt chunk of 14 bytes"),
    "fmt-past-eof": (lambda b: bytes(b[:30]), TruncatedWavError, "runs past end of file"),
    "extensible-fmt-past-eof": (lambda b: extensible(bytes(b))[:50], TruncatedWavError,
                                "runs past end of file"),
    "no-data-chunk": (lambda b: bytes(b[:36]), MalformedWavError, "no data chunk"),
    "zero-channels": (_patch(22, "<H", 0), MalformedWavError, "channels=0"),
    "zero-rate": (_patch(24, "<I", 0), MalformedWavError, "rate=0"),
    "block-align-mismatch": (_patch(32, "<H", 3), MalformedWavError, "block align 3 != 2"),
    "partial-frame": (_patch(40, "<I", 199), TruncatedWavError, "not a multiple of frame size 2"),
}


class TestDecodeWav:
    @pytest.mark.parametrize("edit, error, message", HEADER_EDITS.values(),
                             ids=HEADER_EDITS.keys())
    def test_broken_header_refused(self, edit, error, message):
        blob = edit(bytearray(wav_bytes(np.zeros(100), 8000)))
        with pytest.raises(error, match=message):
            decode_wav(blob)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_refused(self, bad):
        """A float WAV holding NaN or +-inf is refused, naming the data chunk
        and the frame, rather than standardized into a NaN clip."""
        samples = np.zeros((10, 2))
        samples[7, 1] = bad
        blob = wav_bytes(samples, 8000, audio_format=3)
        with pytest.raises(MalformedWavError, match="data chunk at offset 36: frame 7 is not finite"):
            preprocess(blob)

    def test_16bit_positive_full_scale(self):
        data = wav_bytes(np.array([32767 / 32768.0]), 8000)
        samples, rate, ch = decode_wav(data)
        assert rate == 8000 and ch == 1
        assert abs(samples[0, 0] - 32767 / 32768) < 1e-12

    def test_16bit_negative_full_scale(self):
        raw = struct.pack("<h", -32768)
        data = wav_bytes(np.zeros(1), 8000)[: -2] + raw
        samples, _, _ = decode_wav(data)
        assert samples[0, 0] == -1.0

    def test_stereo_header_arithmetic(self):
        """1 second of 44100 Hz stereo: 44100 frames x 2 channels."""
        rng = np.random.default_rng(0)
        data = wav_bytes(rng.uniform(-0.5, 0.5, (44100, 2)), 44100)
        samples, rate, ch = decode_wav(data)
        assert samples.shape == (44100, 2) and rate == 44100 and ch == 2

    def test_8bit_unsigned_recentered(self):
        data = wav_bytes(np.array([0.0, 0.5]), 8000, bits=8)
        samples, _, _ = decode_wav(data)
        np.testing.assert_allclose(samples.ravel(), [0.0, 0.5], atol=1 / 128)

    def test_24bit_roundtrip(self):
        vals = np.array([0.25, -0.75, 0.5])
        samples, _, _ = decode_wav(wav_bytes(vals, 16000, bits=24))
        np.testing.assert_allclose(samples.ravel(), vals, atol=1e-6)

    def test_float32_passthrough(self):
        vals = np.array([0.1, -0.9, 1.5])  # float WAV is not rescaled
        samples, _, _ = decode_wav(wav_bytes(vals, 8000, audio_format=3))
        np.testing.assert_allclose(samples.ravel(), vals, rtol=1e-6)

    def test_skips_unknown_chunks(self):
        good = wav_bytes(np.array([0.5]), 8000)
        extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
        patched = good[:12] + extra + good[12:]
        patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
        samples, _, _ = decode_wav(patched)
        assert abs(samples[0, 0] - 0.5) < 1e-3

    def test_malformed_riff_names_offset(self):
        with pytest.raises(MalformedWavError, match="offset 0"):
            decode_wav(b"JUNK" + b"\x00" * 40)

    def test_malformed_wave_tag(self):
        blob = bytearray(wav_bytes(np.zeros(4), 8000))
        blob[8:12] = b"AVI "
        with pytest.raises(MalformedWavError, match="offset 8"):
            decode_wav(bytes(blob))

    def test_unsupported_codec_named(self):
        blob = bytearray(wav_bytes(np.zeros(4), 8000))
        blob[20:22] = struct.pack("<H", 7)  # mu-law
        with pytest.raises(UnsupportedWavError, match="format 7"):
            decode_wav(bytes(blob))

    @pytest.mark.parametrize("bits,audio_format", [(16, 1), (24, 1), (32, 3)])
    def test_extensible_decodes_as_plain(self, bits, audio_format):
        plain = wav_bytes(np.random.default_rng(3).uniform(-1, 1, (50, 2)), 48000,
                          bits=bits, audio_format=audio_format)
        samples, rate, ch = decode_wav(extensible(plain))
        want, want_rate, want_ch = decode_wav(plain)
        assert (rate, ch) == (want_rate, want_ch)
        assert samples.tobytes() == want.tobytes()

    def test_extensible_unknown_subformat(self):
        blob = extensible(wav_bytes(np.zeros(4), 8000), guid_tail=bytes(14))
        with pytest.raises(UnsupportedWavError, match="SubFormat"):
            decode_wav(blob)

    def test_extensible_short_fmt_chunk(self):
        with pytest.raises(MalformedWavError, match="18 bytes"):
            decode_wav(extensible(wav_bytes(np.zeros(4), 8000), fmt_size=18))

    @pytest.mark.parametrize("rate", [1_000_003, 50_000_017])
    def test_rate_above_bound_rejected_fast(self, rate):
        """A 400-byte file declaring a rate above MAX_SOURCE_RATE is
        refused before the resampler pads it to that rate's grid."""
        blob = wav_bytes(np.zeros(178), rate)
        assert len(blob) == 400
        t0 = time.perf_counter()
        with pytest.raises(UnsupportedWavError, match=f"rate {rate} Hz"):
            preprocess(blob)
        assert time.perf_counter() - t0 < 1.0

    # Rates sharing so few factors with 8 kHz that a clip is zero-padded to
    # up to 383,999 samples before the FFT; 383,999 is prime.
    @pytest.mark.parametrize("rate", [48_001, 383_999])
    def test_awkward_rate_resampled_fast(self, rate):
        """A 400-byte file at an awkward rate inside the bound is
        resampled within the same second."""
        blob = wav_bytes(np.random.default_rng(8).uniform(-0.5, 0.5, 178), rate)
        assert len(blob) == 400
        t0 = time.perf_counter()
        y = preprocess(blob)
        assert time.perf_counter() - t0 < 1.0
        assert y.shape == (CLIP_SAMPLES,) and np.isfinite(y).all()

    def test_rate_at_bound_accepted(self):
        _, rate, _ = decode_wav(wav_bytes(np.zeros(48), 384000))
        assert rate == 384000

    # Every rate of the benchmark corpus (perfbench/inputs.py), 352.8 kHz,
    # the rate bound, 11,024 Hz, which occurs in UrbanSound8K, and the
    # NTSC-derived 22,254 and 44,056 Hz.
    @pytest.mark.parametrize("rate", [
        8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000,
        88200, 96000, 176400, 192000, 352800, 384000, 11024, 22254, 44056,
    ])
    def test_common_rates_resampled(self, rate):
        y = preprocess(wav_bytes(np.zeros(rate // 100), rate))
        assert y.shape == (CLIP_SAMPLES,) and y.dtype == np.float32
        assert np.isfinite(y).all()

    def test_truncated_data_chunk(self):
        blob = wav_bytes(np.zeros(100), 8000)
        with pytest.raises(TruncatedWavError, match="declares"):
            decode_wav(blob[:-50])

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_no_frames_is_typed_error(self, rate):
        blob = bytearray(wav_bytes(np.zeros(1), rate)[:-2])
        struct.pack_into("<I", blob, 4, 36)  # RIFF size
        struct.pack_into("<I", blob, 40, 0)  # data chunk size
        assert len(blob) == 44
        with pytest.raises(TruncatedWavError, match="no frames"):
            preprocess(bytes(blob))

    def test_missing_chunks(self):
        with pytest.raises(TruncatedWavError):
            decode_wav(b"RIFF")
        with pytest.raises(MalformedWavError, match="no fmt"):
            decode_wav(b"RIFF\x04\x00\x00\x00WAVE")


class TestResampler:
    def test_already_8k_is_identity(self):
        x = np.random.default_rng(1).standard_normal(8000)
        y = to_mono_8k(x, 8000)
        np.testing.assert_array_equal(x, y)

    def test_duration_arithmetic(self):
        assert len(resample_sinc(np.zeros(176400), 44100)) == 32000
        assert len(resample_sinc(np.zeros(44100), 44100)) == 8000
        assert abs(len(resample_sinc(np.zeros(22050), 22050)) - 8000) <= 1

    def test_upsampling_refused(self):
        with pytest.raises(ValueError, match="upsample"):
            to_mono_8k(np.zeros(100), 4000)

    def test_rate_below_target_is_a_wav_error(self):
        """A file declaring 4,000 Hz decodes, and its refusal is typed."""
        with pytest.raises(WavError, match="upsample"):
            preprocess(wav_bytes(np.zeros(400), 4000))

    def test_channels_averaged(self):
        left = np.full(8000, 0.5)
        right = np.full(8000, -0.1)
        mono = to_mono_8k(np.stack([left, right], axis=1), 8000)
        np.testing.assert_allclose(mono, 0.2, atol=1e-12)

    def test_pure_tone_matches_analytic_reference(self):
        """1 kHz at 44100 Hz correlates > 0.999 with an analytic 1 kHz
        sine generated directly at 8 kHz."""
        src = 44100
        t = np.arange(src * 2) / src
        y = resample_sinc(np.sin(2 * np.pi * 1000 * t), src)
        ref = np.sin(2 * np.pi * 1000 * np.arange(len(y)) / 8000)
        mid = slice(len(y) // 4, 3 * len(y) // 4)
        corr = np.corrcoef(y[mid], ref[mid])[0, 1]
        assert corr > 0.999

    @staticmethod
    def tone_amplitude(freq, src=44100):
        t = np.arange(src) / src
        y = resample_sinc(np.sin(2 * np.pi * freq * t), src)
        mid = y[len(y) // 4 : 3 * len(y) // 4]
        return float(np.sqrt(2.0) * np.sqrt(np.mean(mid**2)))

    def test_passband_39khz(self):
        assert self.tone_amplitude(3900) >= 0.9

    def test_stopband_5khz(self):
        assert self.tone_amplitude(5000) <= 0.05

    # 0.7317 s puts none of these tones on an FFT bin, so an FFT resampler
    # without an exact output grid, or with its cutoff off 4 kHz, fails.
    @staticmethod
    def off_bin_tone(freq, src=44100):
        t = np.arange(round(0.7317 * src)) / src
        return resample_sinc(np.sin(2 * np.pi * freq * t), src)

    @staticmethod
    def fitted_amplitude(y, freq):
        """Amplitude of the `freq` Hz sinusoid that best fits the middle
        half of an 8 kHz signal."""
        mid = np.arange(len(y) // 4, 3 * len(y) // 4)
        w = 2 * np.pi * freq * mid / 8000
        basis = np.stack([np.sin(w), np.cos(w)], axis=1)
        return float(np.hypot(*np.linalg.lstsq(basis, y[mid], rcond=None)[0]))

    def test_off_bin_tone_matches_analytic_sine(self):
        y = self.off_bin_tone(1000.37)
        ref = np.sin(2 * np.pi * 1000.37 * np.arange(len(y)) / 8000)
        mid = slice(len(y) // 4, 3 * len(y) // 4)
        assert np.abs(y[mid] - ref[mid]).max() < 1e-4

    def test_off_bin_passband_tone(self):
        assert self.fitted_amplitude(self.off_bin_tone(3900.5), 3900.5) >= 0.99

    @pytest.mark.parametrize("freq", [4010, 4100.3])
    def test_off_bin_stopband_tone_not_aliased(self, freq):
        """A tone above 4 kHz must not fold back to 8000 - freq Hz. The
        brick-wall's ringing from the clip edges sits just below 4 kHz, is
        not an alias, and is not counted: for 4010 Hz it is 0.02 RMS
        amplitude over the middle half."""
        assert self.fitted_amplitude(self.off_bin_tone(freq), 8000 - freq) <= 0.01

    def test_off_bin_stopband_tone_leaves_little_energy(self):
        """4100.3 Hz is far enough above 4 kHz for the edge ringing to be
        small, so everything it leaves in the band, at any frequency,
        must be: RMS amplitude over the middle half at most 0.01."""
        y = self.off_bin_tone(4100.3)
        mid = y[len(y) // 4 : 3 * len(y) // 4]
        assert np.sqrt(2.0 * np.mean(mid**2)) <= 0.01

    def test_resample_determinism(self):
        x = np.random.default_rng(2).standard_normal(22050)
        np.testing.assert_array_equal(
            resample_sinc(x, 22050), resample_sinc(x, 22050)
        )


class TestStandardize:
    def test_constant_clip_maps_to_zeros(self):
        np.testing.assert_array_equal(standardize(np.full(100, 3.3)), 0.0)

    def test_two_point_case(self):
        np.testing.assert_allclose(standardize(np.array([0.0, 2.0])), [-1.0, 1.0])

    def test_random_clip_tolerances(self):
        x = np.random.default_rng(3).uniform(-0.3, 0.8, 20000)
        y = standardize(x)
        assert abs(y.mean()) < 1e-5
        assert abs(y.var() - 1.0) < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standardize(np.array([]))


class TestFixLength:
    def test_exact_length_unchanged(self):
        x = np.arange(CLIP_SAMPLES, dtype=np.float64)
        np.testing.assert_array_equal(fix_length(x), x)

    def test_short_zero_padded_at_end(self):
        y = fix_length(np.ones(8000))
        assert y.shape == (CLIP_SAMPLES,)
        assert y[:8000].all() and not y[8000:].any()

    def test_long_truncated_to_head(self):
        x = np.arange(40000, dtype=np.float64)
        np.testing.assert_array_equal(fix_length(x), x[:32000])


class TestPipeline:
    def test_preprocess_is_bit_reproducible(self):
        rng = np.random.default_rng(4)
        blob = wav_bytes(rng.uniform(-0.8, 0.8, (22050, 2)), 22050)
        a, b = preprocess(blob), preprocess(blob)
        assert a.dtype == np.float32 and a.shape == (CLIP_SAMPLES,)
        np.testing.assert_array_equal(a, b)

    def test_preprocessed_clip_is_standardized(self):
        rng = np.random.default_rng(5)
        blob = wav_bytes(rng.uniform(-0.8, 0.8, 44100), 44100)
        clip = preprocess(blob)
        live = clip[:8000]  # 1 s of signal, rest is pad
        assert abs(np.float64(live).mean()) < 1e-2


def write_corpus(root, n_files=12, rate=16000, seconds=0.25, folds=(1, 10)):
    """Small on-disk WAV corpus in fold<N>/ layout plus its metadata CSV."""
    rng = np.random.default_rng(17)
    rows = ["slice_file_name,fs_id,start,end,salience,fold,classID,class"]
    n = int(rate * seconds)
    for i in range(n_files):
        fold = folds[i % len(folds)]
        label = i % 2
        name = f"clip{i:03d}.wav"
        d = root / f"fold{fold}"
        d.mkdir(exist_ok=True, parents=True)
        if label == 0:
            t = np.arange(n) / rate
            wave = 0.7 * np.sin(2 * np.pi * rng.uniform(200, 1800) * t)
        else:
            wave = rng.uniform(-0.7, 0.7, n)
        (d / name).write_bytes(wav_bytes(wave, rate))
        cls = "sine" if label == 0 else "noise"
        rows.append(f"{name},0,0.0,{seconds},1,{fold},{label},{cls}")
    meta = root / "meta.csv"
    meta.write_text("\n".join(rows) + "\n")
    return meta


class TestDatasetIndex:
    def test_metadata_csv_with_extra_columns(self, tmp_path):
        meta = write_corpus(tmp_path)
        index = DatasetIndex.from_metadata_csv(meta, tmp_path)
        assert len(index.entries) == 12
        assert index.class_names == ["sine", "noise"]

    @pytest.mark.parametrize("row", ["b.wav,-3,1", "b.wav,1,-1"])
    def test_negative_fold_or_class_refused(self, tmp_path, row):
        meta = tmp_path / "meta.csv"
        meta.write_text(f"slice_file_name,fold,classID\na.wav,1,0\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            DatasetIndex.from_metadata_csv(meta, tmp_path)

    @pytest.mark.parametrize("row", ["b.wav,1.0,1", "b.wav,,1", "b.wav,1,x", "b.wav,1"])
    def test_non_integer_fold_or_class_refused(self, tmp_path, row):
        meta = tmp_path / "meta.csv"
        meta.write_text(f"slice_file_name,fold,classID\na.wav,1,0\n{row}\n")
        with pytest.raises(ValueError, match=r"meta\.csv, line 3: .* must be integers"):
            DatasetIndex.from_metadata_csv(meta, tmp_path)

    @pytest.mark.parametrize("name", ["", ".", "..", "../outside.wav", "fold1/b.wav",
                                      "/abs/b.wav"])
    def test_name_outside_data_root_refused(self, tmp_path, name):
        meta = tmp_path / "meta.csv"
        meta.write_text(f"slice_file_name,fold,classID\na.wav,1,0\n{name},1,1\n")
        with pytest.raises(ValueError, match=r"meta\.csv, line 3: .* must be a bare file name"):
            DatasetIndex.from_metadata_csv(meta, tmp_path)

    def test_same_name_in_two_folds_loads_each_file(self, tmp_path):
        """Two rows naming a.wav in different folds load two files."""
        rng = np.random.default_rng(15)
        sine = 0.5 * np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
        for fold, wave in ((1, sine), (2, rng.uniform(-0.5, 0.5, 8000))):
            (tmp_path / f"fold{fold}").mkdir()
            (tmp_path / f"fold{fold}" / "a.wav").write_bytes(wav_bytes(wave, 8000))
        meta = tmp_path / "meta.csv"
        meta.write_text("slice_file_name,fold,classID\na.wav,1,0\na.wav,2,1\n")
        index = DatasetIndex.from_metadata_csv(meta, tmp_path)
        for e in index.entries:
            np.testing.assert_array_equal(index.load(e), preprocess(e.path.read_bytes()))
        first, second = (index.load(e) for e in index.entries)
        assert not np.array_equal(first, second)

    def test_missing_required_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("file,fold\nx.wav,1\n")
        with pytest.raises(ValueError, match="missing columns"):
            DatasetIndex.from_metadata_csv(bad, tmp_path)

    def test_split_disjoint_and_exhaustive(self, tmp_path):
        """Synthetic 100-row metadata: fold-10 split leaves no overlap and
        no orphan."""
        rows = ["slice_file_name,fold,classID"]
        rng = np.random.default_rng(6)
        for i in range(100):
            rows.append(f"c{i:03d}.wav,{rng.integers(1, 11)},{rng.integers(0, 10)}")
        meta = tmp_path / "meta.csv"
        meta.write_text("\n".join(rows) + "\n")
        index = DatasetIndex.from_metadata_csv(meta, tmp_path)
        train, test = split_entries(index.entries, test_fold=10)
        train_ids = {e.clip_id for e in train}
        test_ids = {e.clip_id for e in test}
        assert not (train_ids & test_ids)
        assert len(train_ids | test_ids) == 100
        assert all(e.fold == 10 for e in test)
        assert all(e.fold != 10 for e in train)

    def test_load_and_batch_invariants(self, tmp_path):
        meta = write_corpus(tmp_path)
        index = DatasetIndex.from_metadata_csv(meta, tmp_path)
        clip = index.load(index.entries[0])
        assert clip.shape == (CLIP_SAMPLES,) and clip.dtype == np.float32
        for batch in make_batches(index, index.entries, 4, RandomSource(1)):
            assert batch.x.shape[1:] == (CLIP_SAMPLES, 1)

    def test_cache_blob_roundtrip(self, tmp_path):
        meta = write_corpus(tmp_path)
        cache = tmp_path / "cache"
        a = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        first = a.load(a.entries[0]).copy()
        blobs = list(cache.glob("*.f32"))
        assert blobs, "cache should hold preprocessed blobs"
        b = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        np.testing.assert_array_equal(b.load(b.entries[0]), first)

    def test_short_cache_blob_recomputed(self, tmp_path, caplog):
        """A truncated blob is recomputed with a warning and rewritten in
        full, with no temporary file left in the cache."""
        meta = write_corpus(tmp_path)
        cache = tmp_path / "cache"
        a = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        first = a.load(a.entries[0]).copy()
        (blob,) = cache.iterdir()
        blob.write_bytes(blob.read_bytes()[:1001])
        b = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        with caplog.at_level(logging.WARNING, logger="wavecnn.audio"):
            np.testing.assert_array_equal(b.load(b.entries[0]), first)
        assert "1001 bytes" in caplog.text
        assert list(cache.iterdir()) == [blob]
        assert blob.stat().st_size == 4 * CLIP_SAMPLES

    def test_non_finite_cache_blob_recomputed(self, tmp_path, caplog):
        """A blob of the right size holding a NaN, as an older tree cached
        from a NaN float WAV, is recomputed with a warning and rewritten."""
        meta = write_corpus(tmp_path)
        cache = tmp_path / "cache"
        a = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        first = a.load(a.entries[0]).copy()
        (blob,) = cache.iterdir()
        poisoned = first.copy()
        poisoned[:8000] = np.nan
        blob.write_bytes(poisoned.astype("<f4").tobytes())
        b = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        with caplog.at_level(logging.WARNING, logger="wavecnn.audio"):
            np.testing.assert_array_equal(b.load(b.entries[0]), first)
        assert "non-finite" in caplog.text
        assert list(cache.iterdir()) == [blob]
        assert blob.read_bytes() == first.astype("<f4").tobytes()

    def test_blob_under_bytes_only_key_ignored(self, tmp_path):
        """A blob keyed by the source bytes alone, as a pipeline without a
        tag wrote it, is not served: the key names the pipeline."""
        meta = write_corpus(tmp_path)
        cache = tmp_path / "cache"
        index = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
        raw = index.entries[0].path.read_bytes()
        stale = cache / f"{hashlib.sha256(raw).hexdigest()[:32]}.f32"
        stale.write_bytes(np.ones(CLIP_SAMPLES, dtype="<f4").tobytes())
        np.testing.assert_array_equal(index.load(index.entries[0]), preprocess(raw))

    def test_flat_layout_fallback(self, tmp_path):
        rng = np.random.default_rng(7)
        (tmp_path / "solo.wav").write_bytes(wav_bytes(rng.uniform(-0.5, 0.5, 4000), 8000))
        meta = tmp_path / "meta.csv"
        meta.write_text("slice_file_name,fold,classID\nsolo.wav,3,1\n")
        index = DatasetIndex.from_metadata_csv(meta, tmp_path)
        assert index.load(index.entries[0]).shape == (CLIP_SAMPLES,)


def test_stack_clips_copies_each_clip_once():
    """Stacking float32 clips allocates the stacked array and no second
    copy of it: the traced peak stays near the stacked bytes."""
    data = SyntheticDataset(n_clips=64)
    tracemalloc.start()
    try:
        x, labels = stack_clips(data, data.entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (64, CLIP_SAMPLES, 1) and x.dtype == np.float32
    assert np.array_equal(labels, [e.label for e in data.entries])
    assert peak <= 1.25 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the stacked bytes"
