import json
import math
import struct

import numpy as np
import pytest

from wavecnn import build
from wavecnn.audio import make_batches
from wavecnn.synthetic import SyntheticDataset
from wavecnn.tensor import RandomSource
from wavecnn.training import (
    AdamState,
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    add_l2_gradients,
    evaluate,
    l2_penalty,
    load_checkpoint,
    model_from_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)


def mini_config(**over):
    base = dict(
        arch="m3",
        epochs=30,
        batch_size=4,
        seed=3,
        num_classes=2,
        channel_scale=1 / 16,
        l2_coeff=1e-4,
    )
    base.update(over)
    return TrainConfig(**base)


def mini_dataset(n=8, seed=3, length=4000, num_classes=2):
    return SyntheticDataset(n_clips=n, seed=seed, length=length, num_classes=num_classes)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_closed_form(self):
        """theta=0, g=1, alpha=0.001: bias correction gives m_hat=v_hat=1,
        so the first step lands at -0.001."""
        params = {"w": np.array([0.0])}
        state = AdamState(params, alpha=1e-3)
        adam_step(params, {"w": np.array([1.0])}, state)
        assert abs(params["w"][0] + 1e-3) < 1e-9

    def test_hundred_steps_on_quadratic(self):
        """100 Adam steps on f(t)=t^2 from t=1 with alpha=0.1 end below
        0.05 in magnitude; the scalar recurrence is run independently."""
        # independent plain-float recurrence
        t, m, v = 1.0, 0.0, 0.0
        for step in range(1, 101):
            g = 2.0 * t
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1.0 - 0.9 ** step)
            vh = v / (1.0 - 0.999 ** step)
            t -= 0.1 * mh / (math.sqrt(vh) + 1e-8)
        assert abs(t) < 0.05

        params = {"w": np.array([1.0])}
        state = AdamState(params, alpha=0.1)
        for _ in range(100):
            adam_step(params, {"w": 2.0 * params["w"]}, state)
        assert abs(params["w"][0]) < 0.05
        assert abs(params["w"][0] - t) < 1e-9

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"w": np.zeros(4)}, state)

    def test_l2_monotone_shrink(self):
        """With zero data gradient and l2 > 0 every weight with
        |theta| > alpha (Adam's per-step cap) strictly shrinks."""
        rng = np.random.default_rng(5)
        w = rng.uniform(0.01, 1.0, 64) * rng.choice([-1.0, 1.0], 64)
        params = {"w": w.copy()}
        state = AdamState(params, alpha=1e-3)
        grads = {}
        add_l2_gradients(params, grads, coeff=1e-4)
        np.testing.assert_allclose(grads["w"], 2e-4 * w, rtol=1e-12)
        adam_step(params, grads, state)
        assert np.all(np.abs(params["w"]) < np.abs(w))

    def test_l2_exclude_bn_flag(self):
        params = {"conv1.kernel": np.ones(2), "conv1.bn.gamma": np.ones(2)}
        grads = {}
        add_l2_gradients(params, grads, coeff=0.1, include_bn=False)
        assert "conv1.bn.gamma" not in grads and "conv1.kernel" in grads

    def test_l2_penalty_value(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        assert abs(l2_penalty(params, 0.5) - 0.5 * 14.0) < 1e-12


class TestTrainLoop:
    def test_overfits_tiny_set_and_loss_decreases(self):
        result = train(mini_config(), mini_dataset())
        hist = result.history
        assert max(r.train_acc for r in hist) == 1.0
        assert hist[9].train_loss < hist[0].train_loss

    def test_two_runs_bit_identical(self):
        r1 = train(mini_config(epochs=4), mini_dataset())
        r2 = train(mini_config(epochs=4), mini_dataset())
        assert f"{r1.history[0].train_loss:.6f}" == f"{r2.history[0].train_loss:.6f}"
        assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]
        for name in r1.graph.params:
            np.testing.assert_array_equal(r1.graph.params[name], r2.graph.params[name])

    def test_empty_training_split_rejected(self):
        data = mini_dataset()
        data.entries = [e.__class__(e.clip_id, e.path, e.label, 10, e.duration) for e in data.entries]
        with pytest.raises(ValueError, match="empty"):
            train(mini_config(epochs=1), data)

    def test_divergence_names_epoch_and_batch(self):
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
                train(mini_config(alpha=1e18, epochs=20, l2_coeff=0.0), mini_dataset())

    def test_metrics_csv_schema(self, tmp_path):
        log = tmp_path / "metrics.csv"
        train(mini_config(epochs=3, log_path=str(log)), mini_dataset())
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert int(fields[0]) == 1 and float(fields[1]) > 0

    def test_val_fold_carved_out_of_training(self):
        data = mini_dataset(n=12)
        # move a third of the clips to fold 2
        data.entries = [
            e.__class__(e.clip_id, e.path, e.label, 2 if i % 3 == 0 else 1, e.duration)
            for i, e in enumerate(data.entries)
        ]
        result = train(mini_config(epochs=1, val_fold=2), data)
        assert not math.isnan(result.history[-1].val_acc)


class TestEvaluate:
    def test_memorized_subset_scores_one(self):
        result = train(mini_config(), mini_dataset())
        data = mini_dataset()
        x = np.stack([data.load(e) for e in data.entries]).astype(np.float32)[..., None]
        y = np.array([e.label for e in data.entries])
        acc, confusion = evaluate(result.graph, x, y)
        assert acc == 1.0
        assert confusion.sum() == len(y)

    def test_untrained_ten_class_model_is_chance_level(self):
        data = mini_dataset(n=200, seed=11, length=2000, num_classes=10)
        graph = build("m3", num_classes=10, rng=RandomSource(1), channel_scale=1 / 32)
        x = np.stack([data.load(e) for e in data.entries]).astype(np.float32)[..., None]
        y = np.array([e.label for e in data.entries])
        acc, confusion = evaluate(graph, x, y)
        assert abs(acc - 0.1) <= 0.05
        np.testing.assert_array_equal(confusion.sum(axis=1), np.bincount(y, minlength=10))

    def test_evaluation_is_pure(self):
        graph = build("m5", num_classes=2, rng=RandomSource(2), channel_scale=1 / 16)
        x = RandomSource(3).normal(0, 1, (6, 2000, 1))
        y = np.array([0, 1, 0, 1, 0, 1])
        before = {n: p.copy() for n, p in list(graph.params.items()) + list(graph.state.items())}
        evaluate(graph, x, y)
        for n, p in list(graph.params.items()) + list(graph.state.items()):
            np.testing.assert_array_equal(p, before[n])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        result = train(mini_config(epochs=2), mini_dataset())
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == "m3" and loaded.epoch == 2
        for name, arr in result.checkpoint.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        for name, arr in result.checkpoint.state.items():
            np.testing.assert_array_equal(loaded.state[name], arr)
        for name, arr in result.checkpoint.adam.m.items():
            np.testing.assert_array_equal(loaded.adam.m[name], arr)
        assert loaded.adam.t == result.checkpoint.adam.t
        assert loaded.rng_state == result.checkpoint.rng_state

    def test_resume_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "resume.ckpt"
        full = train(mini_config(epochs=3), mini_dataset())

        part = train(mini_config(epochs=2, checkpoint_path=str(path)), mini_dataset())
        assert part.history[-1].epoch == 2
        resumed = train(
            mini_config(epochs=3), mini_dataset(), resume_from=load_checkpoint(path)
        )
        assert [r.epoch for r in resumed.history] == [3]
        for name in full.graph.params:
            np.testing.assert_array_equal(
                resumed.graph.params[name], full.graph.params[name], err_msg=name
            )
        for name in full.graph.state:
            np.testing.assert_array_equal(resumed.graph.state[name], full.graph.state[name])

    def test_version_mismatch(self, tmp_path):
        result = train(mini_config(epochs=1), mini_dataset())
        ckpt = result.checkpoint
        ckpt.version = 99
        path = tmp_path / "v99.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        result = train(mini_config(epochs=1), mini_dataset())
        path = tmp_path / "full.ckpt"
        save_checkpoint(result.checkpoint, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(cut)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(Exception, match="magic"):
            load_checkpoint(path)

    def test_arch_mismatch_names_first_offending_tensor(self, tmp_path):
        result = train(mini_config(epochs=1), mini_dataset())
        path = tmp_path / "m3.ckpt"
        save_checkpoint(result.checkpoint, path)
        other = build("m5", num_classes=2, rng=RandomSource(0), channel_scale=1 / 32)
        with pytest.raises(CheckpointMismatchError, match="conv1.kernel"):
            restore_model(load_checkpoint(path), other)

    def test_model_from_checkpoint_rebuilds(self, tmp_path):
        result = train(mini_config(epochs=1), mini_dataset())
        path = tmp_path / "m3.ckpt"
        save_checkpoint(result.checkpoint, path)
        graph = model_from_checkpoint(load_checkpoint(path))
        for name, arr in result.graph.params.items():
            np.testing.assert_array_equal(graph.params[name], arr)

    def test_float64_graph_refused(self, tmp_path):
        ckpt = Checkpoint(
            version=1, arch="m3", epoch=0,
            params={"w": np.zeros(3, dtype=np.float64)}, state={}, config={},
        )
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(ckpt, tmp_path / "bad.ckpt")


def _drop(key):
    return lambda m: m["tensors"][0].pop(key)


# Each edit corrupts a decoded manifest in place.
MANIFEST_EDITS = {
    "unknown-kind": lambda m: m["tensors"][0].update(kind="gradient"),
    "unhashable-kind": lambda m: m["tensors"][0].update(kind=["param"]),
    "no-kind": _drop("kind"),
    "no-name": _drop("name"),
    "no-offset": _drop("offset"),
    "no-shape": _drop("shape"),
    "negative-offset": lambda m: m["tensors"][0].update(offset=-4),
    "float-extent": lambda m: m["tensors"][0].update(shape=[1.5]),
    "entry-not-object": lambda m: m["tensors"].__setitem__(0, "w"),
    "no-tensors": lambda m: m.pop("tensors"),
    "tensors-not-list": lambda m: m.update(tensors={"w": 0}),
    "no-arch": lambda m: m.pop("arch"),
    "adam-missing-key": lambda m: m["adam"].pop("beta2"),
}


class TestCheckpointManifest:
    """A corrupt manifest ends in CheckpointFormatError, never a bare
    KeyError/TypeError from indexing it."""

    @staticmethod
    def _write(path, manifest, payload):
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)

    @pytest.mark.parametrize("edit", MANIFEST_EDITS.values(), ids=MANIFEST_EDITS.keys())
    def test_corrupt_manifest_is_format_error(self, tmp_path, edit):
        params = {"w": np.arange(3, dtype=np.float32)}
        ckpt = Checkpoint(version=1, arch="m3", epoch=1, params=params, state={},
                          config={}, adam=AdamState(params))
        path = tmp_path / "ok.ckpt"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        head = len(CHECKPOINT_MAGIC) + 4
        n = struct.unpack_from("<I", data, len(CHECKPOINT_MAGIC))[0]
        manifest = json.loads(data[head : head + n])
        assert load_checkpoint(path).params["w"].tolist() == [0.0, 1.0, 2.0]

        edit(manifest)
        self._write(path, manifest, data[head + n :])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "list.ckpt"
        self._write(path, [1, 2], b"")
        with pytest.raises(CheckpointFormatError, match="JSON object"):
            load_checkpoint(path)


class TestBatching:
    def test_batch_sizes_100_by_32(self):
        data = mini_dataset(n=100, length=1000)
        sizes = [len(b.labels) for b in make_batches(data, data.entries, 32, RandomSource(1))]
        assert sizes == [32, 32, 32, 4]

    def test_single_row_remainder_dropped_with_warning(self, caplog):
        data = mini_dataset(n=33, length=1000)
        with caplog.at_level("WARNING"):
            sizes = [len(b.labels) for b in make_batches(data, data.entries, 32, RandomSource(1))]
        assert sizes == [32]
        assert any("dropping" in r.message for r in caplog.records)

    def test_epoch_permutations_differ_but_reproduce(self):
        data = mini_dataset(n=16, length=1000)
        root = RandomSource(9)

        def order(epoch):
            rng = root.derive(2, epoch)
            return [tuple(b.labels) for b in make_batches(data, data.entries, 4, rng)]

        assert order(1) != order(2)
        assert order(1) == order(1)

    def test_batch_invariants(self):
        data = SyntheticDataset(n_clips=6, seed=1)
        for b in make_batches(data, data.entries, 4, RandomSource(2)):
            assert b.x.shape[1:] == (32000, 1) and b.x.dtype == np.float32
            assert b.labels.shape == (b.x.shape[0],)
