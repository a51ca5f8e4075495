"""Derandomized fuzzing of the two readers of hostile bytes: the WAV
pipeline and the checkpoint loader. Each property lists the only outcomes
allowed; anything else (a bare KeyError, a NaN clip) is a failure. The
runs are seeded from the test itself, so every run tries the same inputs."""

import json
import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from wavecnn.audio import CLIP_SAMPLES, WavError, preprocess
from wavecnn.training import (
    CHECKPOINT_MAGIC,
    AdamState,
    Checkpoint,
    CheckpointError,
    adam_step,
    gradients,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from wavecnn.tensor import RandomSource

from test_audio import extensible, wav_bytes

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])

_rng = np.random.default_rng(11)
# Small valid files of each codec; float samples in [1, 2) put an exponent
# byte one flip away from +-inf or NaN.
WAV_BASES = [
    wav_bytes(_rng.uniform(-0.9, 0.9, 64), 8000),
    wav_bytes(_rng.uniform(-0.9, 0.9, (48, 2)), 11025, bits=8),
    wav_bytes(_rng.uniform(-0.9, 0.9, 40), 44100, bits=24),
    wav_bytes(_rng.uniform(1.0, 2.0, (40, 2)), 16000, audio_format=3),
    extensible(wav_bytes(_rng.uniform(-0.9, 0.9, (40, 2)), 48000, bits=16)),
    extensible(wav_bytes(_rng.uniform(1.0, 2.0, 40), 22050, audio_format=3)),
]
# (offset, struct format) of the plain header's fields: RIFF size, fmt size,
# format tag, channels, rate, byte rate, block align, bits, data size.
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"),
              (32, "<H"), (34, "<H"), (40, "<I")]


@st.composite
def mutated_wav(draw):
    blob = bytearray(draw(st.sampled_from(WAV_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "byte", "float", "float", "cut"]))
        if kind == "field":
            offset, fmt = draw(st.sampled_from(WAV_FIELDS))
            top = 2 ** (8 * struct.calcsize(fmt)) - 1
            value = draw(st.one_of(st.integers(0, 64), st.sampled_from([8000, 384000, top]),
                                   st.integers(0, top)))
            if offset + struct.calcsize(fmt) <= len(blob):
                struct.pack_into(fmt, blob, offset, min(value, top))
        elif len(blob) < 4:
            break
        elif kind == "byte":
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        elif kind == "float":  # an aligned word: a whole float32 sample in the data
            offset = 4 * draw(st.integers(0, len(blob) // 4 - 1))
            value = draw(st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(width=32))
            struct.pack_into("<f", blob, offset, value)
        else:
            del blob[draw(st.integers(0, len(blob))):]
    return bytes(blob)


@FUZZ
@given(mutated_wav())
def test_preprocess_gives_a_finite_clip_or_a_wav_error(blob):
    try:
        clip = preprocess(blob)
    except WavError:
        return
    assert clip.shape == (CLIP_SAMPLES,) and clip.dtype == np.float32
    assert np.isfinite(clip).all()


def _checkpoint_bytes(tmp_path_factory) -> bytes:
    rng = RandomSource(3)
    params = {"conv1.kernel": rng.normal((3, 1, 2)), "dense.b": rng.normal((2,))}
    state = {"conv1.bn.running_var": np.ones(2, dtype=np.float32)}
    ckpt = Checkpoint(version=1, arch="m3", epoch=2, params=params, state=state,
                      config={"num_classes": 2}, adam=AdamState(params),
                      rng_state=np.random.default_rng(0).bit_generator.state)
    path = tmp_path_factory.mktemp("fuzz") / "base.ckpt"
    save_checkpoint(ckpt, path)
    return path.read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _containers(node):
    """Every dict and list inside a decoded manifest, the root first."""
    found = [node]
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


_MUTATIONS = ["set", "drop", "rename", "payload-byte", "payload-cut", "payload-grow"]


@st.composite
def mutated_checkpoint(draw, base, mutations=_MUTATIONS):
    head = len(CHECKPOINT_MAGIC) + 4
    n = struct.unpack_from("<I", base, len(CHECKPOINT_MAGIC))[0]
    manifest, payload = json.loads(base[head : head + n]), bytearray(base[head + n :])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(mutations))
        if kind in ("set", "drop"):
            node = draw(st.sampled_from(_containers(manifest)))
            if not node:
                continue
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            if kind == "set":
                node[key] = draw(_JSON_VALUES)
            else:
                del node[key]
        elif kind == "rename":  # a name from another entry, maybe another kind's
            tensors = manifest.get("tensors")
            named = isinstance(tensors, list) and [t for t in tensors
                                                   if isinstance(t, dict) and "name" in t]
            if named:
                draw(st.sampled_from(named))["name"] = draw(st.sampled_from(named))["name"]
        elif kind == "payload-byte" and payload:
            payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
        elif kind == "payload-float" and len(payload) >= 4:  # one whole tensor value
            offset = 4 * draw(st.integers(0, len(payload) // 4 - 1))
            value = draw(st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(-4, 4, width=32))
            struct.pack_into("<f", payload, offset, value)
        elif kind == "payload-cut":
            del payload[draw(st.integers(0, len(payload))):]
        elif kind == "payload-grow":
            payload += bytes(draw(st.integers(1, 64)))
    blob = json.dumps(manifest).encode("utf-8")
    declared = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob) + 64)))
    return CHECKPOINT_MAGIC + struct.pack("<I", declared) + blob + bytes(payload)


def test_load_checkpoint_loads_or_raises_a_checkpoint_error(tmp_path_factory):
    base = _checkpoint_bytes(tmp_path_factory)
    path = tmp_path_factory.mktemp("fuzz") / "mutated.ckpt"

    @FUZZ
    @given(mutated_checkpoint(base))
    def property_(blob):
        path.write_bytes(blob)
        try:
            ckpt = load_checkpoint(path)
        except CheckpointError:
            return
        if ckpt.adam is not None:
            shapes = {name: p.shape for name, p in ckpt.params.items()}
            for moments in (ckpt.adam.m, ckpt.adam.v):
                assert {name: m.shape for name, m in moments.items()} == shapes

    property_()


def test_accepted_checkpoint_restores_and_trains(tmp_path, trained):
    """Accepted means runnable. Each mutant of a real m3 checkpoint (1/16
    width, one epoch) is refused with a CheckpointError by load_checkpoint
    or model_from_checkpoint, or it restores and runs one train step
    (B=2, T=400) to a finite loss.

    A payload write puts one whole float32 value into a tensor: NaN, +-inf,
    or a finite value in [-4, 4]. A finite weight large enough to overflow
    the float32 forward belongs to a diverged run, not a malformed file;
    the loader does not judge magnitudes."""
    path = tmp_path / "m3.ckpt"
    base = trained.read_bytes()
    x, labels = RandomSource(1).normal((2, 400, 1)), np.array([0, 1])
    mutations = ["set", "drop", "rename", "payload-float", "payload-float", "payload-cut",
                 "payload-grow"]

    @FUZZ
    @given(mutated_checkpoint(base, mutations))
    def property_(blob):
        path.write_bytes(blob)
        try:
            ckpt = load_checkpoint(path)
            graph = model_from_checkpoint(ckpt)
        except CheckpointError:
            return
        _, loss, grads = gradients(graph, x, labels, RandomSource(2), 1e-4)
        adam_step(graph.params, grads, ckpt.adam or AdamState(graph.params))
        assert math.isfinite(loss)

    property_()
