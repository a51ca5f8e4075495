import json
import math
import re
import shutil
import struct
import weakref

import numpy as np
import pytest

from harness import traced_peak
from wavecnn import build, ops, tensor, training
from wavecnn.audio import make_batches
from wavecnn.models import ModelGraph
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
        grads = {"w": np.zeros_like(w)}
        add_l2_gradients(params, grads, coeff=1e-4)
        np.testing.assert_allclose(grads["w"], 2e-4 * w, rtol=1e-12)
        adam_step(params, grads, state)
        assert np.all(np.abs(params["w"]) < np.abs(w))

    def test_l2_penalty_value(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        assert abs(l2_penalty(params, 0.5) - 0.5 * 14.0) < 1e-12


class TestTrainLoop:
    def test_overfits_tiny_set_and_loss_decreases(self):
        result = train(mini_config(), mini_dataset())
        hist = result.history
        assert max(r.train_acc for r in hist) == 1.0
        assert hist[9].train_loss < hist[0].train_loss

    def test_gradients_are_freed_before_the_next_forward(self, monkeypatch):
        """train drops a step's gradients once adam_step has used them, so
        none is alive when the next forward starts (m34-res's are 16 MB at
        published width)."""
        refs, alive = [], []
        step, forward = training.adam_step, ModelGraph.forward

        def weak_adam_step(params, grads, state):
            refs.extend(weakref.ref(g) for g in grads.values())
            step(params, grads, state)

        def counting_forward(graph, *args, **kwargs):
            if refs:
                alive.append(sum(r() is not None for r in refs))
            return forward(graph, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", weak_adam_step)
        monkeypatch.setattr(ModelGraph, "forward", counting_forward)
        train(mini_config(epochs=2), mini_dataset())
        assert len(refs) > 0 and len(alive) >= 3  # two batches an epoch, then evaluate
        assert alive == [0] * len(alive), alive

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

    def test_one_clip_split_empty_after_batch_assembly(self):
        """A lone clip is dropped as a short batch, so no epoch can run."""
        with pytest.raises(ValueError, match="empty after batch assembly"):
            train(mini_config(epochs=1), mini_dataset(n=1))

    def test_one_clip_run_refused_before_build(self, monkeypatch):
        """One training clip makes no batch; the run is refused before the
        model is built and the test fold is stacked."""
        data = mini_dataset(n=2)
        e = data.entries[1]
        data.entries[1] = e.__class__(e.clip_id, e.path, e.label, 10, e.duration)

        def not_called(*args, **kwargs):
            raise AssertionError("work done for a run that should be refused")

        monkeypatch.setattr(training, "build", not_called)
        monkeypatch.setattr(training, "stack_clips", not_called)
        with pytest.raises(ValueError, match=r"empty after batch assembly \(1 clip"):
            train(mini_config(epochs=1), data)

    def test_divergence_names_epoch_and_batch(self):
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
                train(mini_config(alpha=1e18, epochs=20, l2_coeff=0.0), mini_dataset())

    def test_missing_gradient_raises_despite_l2(self, monkeypatch):
        """The L2 term writes a gradient for every parameter, so the check
        for parameters the backward left out must come before it."""
        conv_backward = ops.conv1d_backward

        def no_kernel_grad(g, cache, **kwargs):
            grad_x, _, grad_bias = conv_backward(g, cache, **kwargs)
            return grad_x, None, grad_bias

        monkeypatch.setattr(ops, "conv1d_backward", no_kernel_grad)
        config = mini_config(epochs=1, l2_coeff=TrainConfig.l2_coeff)
        assert config.l2_coeff > 0
        with pytest.raises(RuntimeError, match="no gradient for parameters.*conv1.kernel"):
            train(config, mini_dataset())

    def test_metrics_csv_schema(self, tmp_path):
        log = tmp_path / "metrics.csv"
        train(mini_config(epochs=3, log_path=str(log)), mini_dataset())
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert int(fields[0]) == 1 and float(fields[1]) > 0

    @pytest.mark.parametrize("empty_file", [False, True])
    def test_resumed_run_into_new_log_writes_header(self, tmp_path, empty_file):
        """A resumed run's log, missing or empty, starts with the header;
        resuming into that log again appends without a second one."""
        ckpt = tmp_path / "run.ckpt"
        train(mini_config(epochs=2, checkpoint_path=str(ckpt)), mini_dataset())
        log = tmp_path / "resumed.csv"
        if empty_file:
            log.write_text("")
        for epochs in (3, 4):
            config = mini_config(epochs=epochs, checkpoint_path=str(ckpt), log_path=str(log))
            train(config, mini_dataset(), resume_from=load_checkpoint(ckpt))
        lines = log.read_text().strip().split("\n")
        assert lines[0] == training.METRICS_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]

    def test_val_fold_equal_to_test_fold_refused(self):
        with pytest.raises(ValueError, match="val_fold 10 is also the test fold"):
            mini_config(val_fold=10, test_fold=10)

    def test_val_fold_with_no_clip_refused(self, monkeypatch):
        """SyntheticDataset puts every clip in fold 1, so fold 7 is empty;
        the run is refused before the model is built."""
        def no_build(*args, **kwargs):
            raise AssertionError("model built for a run that should be refused")

        monkeypatch.setattr(training, "build", no_build)
        with pytest.raises(ValueError, match="val_fold 7 names no training clip"):
            train(mini_config(epochs=1, val_fold=7), mini_dataset())

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

    def test_peak_memory_bounded_by_eight_clips(self):
        """Evaluation holds at most 8 clips' activations at a time, so 32
        clips peak no higher than 8 do."""
        graph = build("m3", num_classes=10, rng=RandomSource(4), channel_scale=1 / 8)

        def peak(n):
            x = np.random.default_rng(5).standard_normal((n, 8000, 1), dtype=np.float32)
            y = np.arange(n) % 10
            return traced_peak(evaluate, graph, x, y)[1]

        assert peak(32) <= 1.2 * peak(8)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_label_outside_class_range_refused(self, bad, monkeypatch):
        graph = build("m3", num_classes=10, rng=RandomSource(1), channel_scale=1 / 32)
        monkeypatch.setattr(graph, "forward", lambda *a, **k: pytest.fail("forward ran"))
        x = np.zeros((3, 2000, 1), dtype=np.float32)
        with pytest.raises(ValueError, match=rf"label {bad} at row 2 is outside \[0, 10\)"):
            evaluate(graph, x, np.array([0, 1, bad]))

    def test_evaluation_is_pure(self):
        graph = build("m5", num_classes=2, rng=RandomSource(2), channel_scale=1 / 16)
        x = RandomSource(3).normal((6, 2000, 1))
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

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_resume_with_no_epoch_left_refused(self, tmp_path, epochs):
        path = tmp_path / "done.ckpt"
        train(mini_config(epochs=2, checkpoint_path=str(path)), mini_dataset())
        with pytest.raises(ValueError, match=f"epoch 2, so epochs {epochs} leaves no epoch"):
            train(mini_config(epochs=epochs), mini_dataset(), resume_from=load_checkpoint(path))

    def test_resume_with_another_arch_refused(self, trained):
        with pytest.raises(CheckpointMismatchError, match="checkpoint arch 'm3' != config arch 'm5'"):
            train(mini_config(arch="m5", epochs=2), mini_dataset(),
                  resume_from=load_checkpoint(trained))

    @pytest.mark.parametrize("field, value", [
        ("seed", 2), ("batch_size", 2), ("alpha", 1e-2), ("l2_coeff", 0.0),
        ("channel_scale", 1 / 8), ("test_fold", 9),
    ])
    def test_resume_with_another_setting_refused(self, trained, monkeypatch, field, value):
        """Each of these changes the trajectory, so the resume is refused,
        naming the field, before the model is built."""
        old = getattr(mini_config(), field)

        def no_build(*args, **kwargs):
            raise AssertionError("model built for a resume that should be refused")

        monkeypatch.setattr(training, "build", no_build)
        message = f"checkpoint {field} {old!r} != config {field} {value!r}"
        with pytest.raises(CheckpointMismatchError, match=re.escape(message)):
            train(mini_config(epochs=2, **{field: value}), mini_dataset(),
                  resume_from=load_checkpoint(trained))

    def test_resume_names_every_changed_setting(self, trained):
        with pytest.raises(CheckpointMismatchError,
                           match="checkpoint batch_size 4 != config batch_size 2; "
                                 "checkpoint seed 3 != config seed 5"):
            train(mini_config(epochs=2, batch_size=2, seed=5), mini_dataset(),
                  resume_from=load_checkpoint(trained))

    def test_resume_may_change_run_length_paths_and_stop_rule(self, tmp_path, trained):
        config = mini_config(epochs=2, checkpoint_path=str(tmp_path / "next.ckpt"),
                             log_path=str(tmp_path / "log.csv"), checkpoint_every=1,
                             stop_at_train_acc=1.1)
        resumed = train(config, mini_dataset(), resume_from=load_checkpoint(trained))
        assert [r.epoch for r in resumed.history] == [2]

    def test_resume_with_another_adam_step_size_refused(self, trained):
        """Adam's step size comes from the config: a checkpoint whose Adam
        state holds another one is refused, not overwritten."""
        ckpt = load_checkpoint(trained)
        ckpt.adam.alpha = 0.5
        with pytest.raises(CheckpointMismatchError,
                           match="checkpoint adam.alpha 0.5 != config alpha 0.001"):
            train(mini_config(epochs=2), mini_dataset(), resume_from=ckpt)

    @pytest.mark.parametrize("missing", ["adam", "rng_state"])
    def test_resume_without_optimizer_or_rng_state_refused(self, trained, missing):
        ckpt = load_checkpoint(trained)
        setattr(ckpt, missing, None)
        with pytest.raises(CheckpointMismatchError, match="no Adam or RNG state"):
            train(mini_config(epochs=2), mini_dataset(), resume_from=ckpt)

    def test_version_mismatch(self, tmp_path, trained):
        ckpt = load_checkpoint(trained)
        ckpt.version = 99
        path = tmp_path / "v99.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, trained):
        blob = trained.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(cut)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(Exception, match="magic"):
            load_checkpoint(path)

    def test_arch_mismatch_names_first_offending_tensor(self, trained):
        other = build("m5", num_classes=2, rng=RandomSource(0), channel_scale=1 / 32)
        with pytest.raises(CheckpointMismatchError, match="conv1.kernel"):
            restore_model(load_checkpoint(trained), other)

    def test_restore_names_missing_tensor(self):
        graph = build("m3", num_classes=2, rng=RandomSource(0), channel_scale=1 / 16)
        params = dict(graph.params)
        del params["dense.b"]
        ckpt = Checkpoint(version=1, arch="m3", epoch=1, params=params,
                          state=graph.state, config={})
        with pytest.raises(CheckpointMismatchError, match="missing tensor 'dense.b'"):
            restore_model(ckpt, graph)

    def test_restore_names_unknown_tensor(self):
        graph = build("m3", num_classes=2, rng=RandomSource(0), channel_scale=1 / 16)
        state = graph.state | {"conv9.bn.running_mean": np.zeros(4, np.float32)}
        ckpt = Checkpoint(version=1, arch="m3", epoch=1, params=graph.params,
                          state=state, config={})
        with pytest.raises(CheckpointMismatchError, match="unknown tensor 'conv9.bn.running_mean'"):
            restore_model(ckpt, graph)

    def test_negative_running_variance_is_refused(self, tmp_path, trained):
        """Inference would take the square root of a negative variance; the
        restore refuses the file first and names the tensor."""
        ckpt = load_checkpoint(trained)
        ckpt.state["conv1.bn.running_var"][0] = -4.0
        path = tmp_path / "negative_var.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointMismatchError, match="'conv1.bn.running_var'.*negative"):
            model_from_checkpoint(load_checkpoint(path))

    def test_params_and_state_do_not_stand_in_for_each_other(self, tmp_path, trained):
        """A checkpoint that swaps a param and a same-shaped state tensor
        between its sections, with Adam moments named like its params,
        loads; the resume refuses it and names the param, where a lookup
        across sections would restore it and fail in adam_step."""
        ckpt = load_checkpoint(trained)
        gamma, mean = "conv1.bn.gamma", "conv1.bn.running_mean"
        ckpt.params[mean] = ckpt.params.pop(gamma)
        ckpt.state[gamma] = ckpt.state.pop(mean)
        for moments in (ckpt.adam.m, ckpt.adam.v):
            moments[mean] = moments.pop(gamma)
        path = tmp_path / "swapped.ckpt"
        save_checkpoint(ckpt, path)
        swapped = load_checkpoint(path)
        with pytest.raises(CheckpointMismatchError, match="'conv1.bn.gamma' from its params"):
            train(mini_config(epochs=2), mini_dataset(), resume_from=swapped)

    def test_model_from_checkpoint_rebuilds(self, tmp_path):
        result = train(mini_config(epochs=1), mini_dataset())
        path = tmp_path / "m3.ckpt"
        save_checkpoint(result.checkpoint, path)
        graph = model_from_checkpoint(load_checkpoint(path))
        for name, arr in result.graph.params.items():
            np.testing.assert_array_equal(graph.params[name], arr)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, trained):
        """A save that fails partway through the tensors leaves the previous
        checkpoint loadable bitwise and no temporary file behind."""
        path = tmp_path / "model.ckpt"
        shutil.copy(trained, path)
        before = path.read_bytes()
        second = load_checkpoint(path)
        second.epoch = 2

        class FailingFile:
            """Passes writes through until half the previous file's size."""

            def __init__(self, f):
                self.f, self.left = f, len(before) // 2

            def write(self, data):
                n = memoryview(data).nbytes
                if n > self.left:
                    raise OSError("disk full")
                self.left -= n
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

        monkeypatch.setattr(tensor, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(second, path)
        monkeypatch.undo()

        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        loaded = load_checkpoint(path)
        assert loaded.epoch == 1
        for name, arr in load_checkpoint(trained).params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    def test_load_allocates_each_tensor_once(self, tmp_path):
        """The Adam moments are read into the loaded state, not allocated
        as zeros first: the traced peak stays near the tensor bytes."""
        graph = build("m34-res", num_classes=10, rng=RandomSource(0), channel_scale=0.25)
        ckpt = Checkpoint(version=1, arch="m34-res", epoch=1, params=graph.params,
                          state=graph.state, config={}, adam=AdamState(graph.params))
        path = tmp_path / "m34res.ckpt"
        save_checkpoint(ckpt, path)
        loaded, peak = traced_peak(load_checkpoint, path)
        sections = (loaded.params, loaded.state, loaded.adam.m, loaded.adam.v)
        nbytes = sum(a.nbytes for d in sections for a in d.values())
        assert peak <= 1.15 * nbytes, f"peak {peak / nbytes:.2f}x the tensor bytes"

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
    "overlapping-offset": lambda m: m["tensors"][1].update(offset=0),
    "gap-before-offset": lambda m: m["tensors"][1].update(offset=16),
    "duplicate-name": lambda m: m["tensors"][2].update(kind="adam_m"),
    "float-extent": lambda m: m["tensors"][0].update(shape=[1.5]),
    "entry-not-object": lambda m: m["tensors"].__setitem__(0, "w"),
    "no-tensors": lambda m: m.pop("tensors"),
    "tensors-not-list": lambda m: m.update(tensors={"w": 0}),
    "no-arch": lambda m: m.pop("arch"),
    "adam-missing-key": lambda m: m["adam"].pop("beta2"),
    "epoch-string": lambda m: m.update(epoch="1"),
    "epoch-negative": lambda m: m.update(epoch=-1),
    "epoch-bool": lambda m: m.update(epoch=True),
    "arch-list": lambda m: m.update(arch=["m3"]),
    "config-list": lambda m: m.update(config=[]),
    "rng-state-empty": lambda m: m.update(rng_state={}),
    "rng-state-other-generator": lambda m: m.update(rng_state={"bit_generator": "MT19937"}),
    "rng-state-no-state": lambda m: m.update(rng_state={"bit_generator": "PCG64"}),
    "rng-state-string-state": lambda m: m.update(rng_state={"bit_generator": "PCG64", "state": "x"}),
    "rng-state-no-inc": lambda m: m.update(
        rng_state={"bit_generator": "PCG64", "state": {"state": 1}}),
    "rng-state-negative": lambda m: m.update(rng_state={
        "bit_generator": "PCG64", "state": {"state": -1, "inc": 1}, "has_uint32": 0, "uinteger": 0}),
    "adam-t-string": lambda m: m["adam"].update(t="x"),
    "adam-alpha-string": lambda m: m["adam"].update(alpha="0.001"),
    "adam-alpha-nan": lambda m: m["adam"].update(alpha=float("nan")),
    "adam-beta1-other": lambda m: m["adam"].update(beta1=0.5),
    "adam-beta2-other": lambda m: m["adam"].update(beta2=0.99),
    "adam-eps-other": lambda m: m["adam"].update(eps=1e-7),
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

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_moment_missing_a_param_refused(self, tmp_path, moment):
        params = {"w": np.arange(3, dtype=np.float32), "dense.b": np.zeros(2, np.float32)}
        adam = AdamState(params)
        del getattr(adam, moment)["dense.b"]
        path = tmp_path / "seven.ckpt"
        save_checkpoint(Checkpoint(version=1, arch="m3", epoch=1, params=params, state={},
                                   config={}, adam=adam), path)
        with pytest.raises(CheckpointFormatError, match=f"adam_{moment} and param entries differ at 'dense.b'"):
            load_checkpoint(path)

    def test_moment_with_another_shape_refused(self, tmp_path):
        params = {"w": np.arange(3, dtype=np.float32)}
        adam = AdamState(params)
        adam.v["w"] = np.zeros(4, np.float32)
        path = tmp_path / "shape.ckpt"
        save_checkpoint(Checkpoint(version=1, arch="m3", epoch=1, params=params, state={},
                                   config={}, adam=adam), path)
        with pytest.raises(CheckpointFormatError, match="adam_v and param entries differ at 'w'"):
            load_checkpoint(path)

    def test_config_naming_another_arch_refused(self, tmp_path):
        """The manifest's arch builds the model and config["arch"] is what a
        resume compares, so a checkpoint whose two disagree is refused."""
        params = {"w": np.arange(3, dtype=np.float32)}
        path = tmp_path / "two-archs.ckpt"
        save_checkpoint(Checkpoint(version=1, arch="m3", epoch=1, params=params, state={},
                                   config={"arch": "m5"}), path)
        with pytest.raises(CheckpointFormatError, match="manifest arch 'm3' != config arch 'm5'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("kind", ["param", "state", "adam_m", "adam_v"])
    def test_non_finite_tensor_refused(self, tmp_path, kind, value):
        """A checkpoint with one NaN or +-inf value is refused at load,
        naming the kind and name of the tensor that holds it."""
        params = {"w": np.arange(3, dtype=np.float32), "dense.b": np.zeros(2, np.float32)}
        ckpt = Checkpoint(version=1, arch="m3", epoch=1, params=params,
                          state={"s": np.ones(2, np.float32)}, config={}, adam=AdamState(params))
        section = {"param": params, "state": ckpt.state, "adam_m": ckpt.adam.m,
                   "adam_v": ckpt.adam.v}[kind]
        name = "s" if kind == "state" else "dense.b"
        section[name][1] = value
        path = tmp_path / "non-finite.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointFormatError,
                           match=re.escape(f"{kind} tensor {name!r}: non-finite values")):
            load_checkpoint(path)

    def test_config_naming_another_step_size_refused(self, tmp_path, trained):
        """A resume would run at one of the two step sizes, so a checkpoint
        whose Adam alpha and config alpha disagree is refused."""
        path = tmp_path / "run.ckpt"
        data = trained.read_bytes()
        head = len(CHECKPOINT_MAGIC) + 4
        n = struct.unpack_from("<I", data, len(CHECKPOINT_MAGIC))[0]
        manifest = json.loads(data[head : head + n])
        assert manifest["config"]["alpha"] == manifest["adam"]["alpha"] == 0.001
        manifest["adam"]["alpha"] = 0.5
        self._write(path, manifest, data[head + n :])
        with pytest.raises(CheckpointFormatError, match="adam.alpha 0.5 != config alpha 0.001"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        params = {"w": np.arange(3, dtype=np.float32)}
        path = tmp_path / "long.ckpt"
        save_checkpoint(Checkpoint(version=1, arch="m3", epoch=1, params=params,
                                   state={}, config={}), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CheckpointFormatError, match="4 bytes follow"):
            load_checkpoint(path)

    def test_overlapping_entries_allocate_nothing(self, tmp_path):
        """40 entries all at offset 0 of a 1 MiB payload are refused before
        any of them is allocated, rather than loading 40 MiB."""
        n = 1 << 18
        tensors = [{"name": f"w{i}", "kind": "param", "shape": [n], "offset": 0}
                   for i in range(40)]
        manifest = {"version": 1, "arch": "m3", "epoch": 1, "config": {},
                    "rng_state": None, "adam": None, "tensors": tensors}
        path = tmp_path / "overlap.ckpt"
        self._write(path, manifest, bytes(4 * n))

        def refused():
            with pytest.raises(CheckpointFormatError, match="offset"):
                load_checkpoint(path)

        _, peak = traced_peak(refused)
        assert peak <= 4 * n, f"peak {peak} bytes"

    @pytest.mark.parametrize("manifest", [b"\xff\xfe{}", b"{\"version\": 1,"],
                             ids=["not-utf8", "not-json"])
    def test_manifest_bytes_not_json(self, tmp_path, manifest):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(manifest)) + manifest)
        with pytest.raises(CheckpointFormatError, match="not valid JSON"):
            load_checkpoint(path)

    def test_manifest_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1000) + b"{}")
        with pytest.raises(CheckpointTruncatedError, match="manifest truncated"):
            load_checkpoint(path)

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "list.ckpt"
        self._write(path, [1, 2], b"")
        with pytest.raises(CheckpointFormatError, match="JSON object"):
            load_checkpoint(path)


# Each edit garbles the config of an m3 checkpoint with 10 classes at width 1/16.
CONFIG_EDITS = {
    "num-classes-string": (CheckpointFormatError, {"num_classes": "abc"}),
    "num-classes-list": (CheckpointFormatError, {"num_classes": [1]}),
    "num-classes-float": (CheckpointFormatError, {"num_classes": 10.0}),
    "num-classes-bool": (CheckpointFormatError, {"num_classes": True}),
    "num-classes-zero": (CheckpointFormatError, {"num_classes": 0}),
    "channel-scale-string": (CheckpointFormatError, {"channel_scale": "x"}),
    "channel-scale-nan": (CheckpointFormatError, {"channel_scale": float("nan")}),
    "channel-scale-zero": (CheckpointFormatError, {"channel_scale": 0.0}),
    "channel-scale-above-one": (CheckpointFormatError, {"channel_scale": 1e6}),
    "num-classes-not-dense-b": (CheckpointMismatchError, {"num_classes": 10**9}),
}


class TestModelFromCheckpointConfig:
    """A garbled config value is refused before any tensor is sized from it."""

    @pytest.mark.parametrize("error, edit", CONFIG_EDITS.values(), ids=CONFIG_EDITS.keys())
    def test_refused_before_build(self, monkeypatch, error, edit):
        graph = build("m3", num_classes=10, rng=RandomSource(0), channel_scale=1 / 16)
        config = {"num_classes": 10, "channel_scale": 1 / 16} | edit
        ckpt = Checkpoint(version=1, arch="m3", epoch=1, params=graph.params,
                          state=graph.state, config=config)

        def no_build(*args, **kwargs):
            raise AssertionError("model built from a config that should be refused")

        monkeypatch.setattr(training, "build", no_build)
        with pytest.raises(error, match="num_classes|channel_scale"):
            model_from_checkpoint(ckpt)

    def test_unknown_arch_refused_before_build(self, monkeypatch):
        graph = build("m3", num_classes=10, rng=RandomSource(0), channel_scale=1 / 16)
        ckpt = Checkpoint(version=1, arch="m99", epoch=1, params=graph.params,
                          state=graph.state, config={"num_classes": 10, "channel_scale": 1 / 16})

        def no_build(*args, **kwargs):
            raise AssertionError("model built for an unknown architecture")

        monkeypatch.setattr(training, "build", no_build)
        with pytest.raises(CheckpointFormatError, match="unknown architecture 'm99'"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("batch_size", 1),
                                              ("l2_coeff", -1e-4)])
    def test_train_config_refuses_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(arch="m3", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -float("inf")),
        ("alpha", 0.0), ("alpha", -1e-3),
        ("l2_coeff", float("nan")), ("l2_coeff", float("inf")),
    ])
    def test_train_config_refuses_a_bad_step_size_or_l2_coeff(self, field, value):
        """A NaN compares False with every bound, so each bound is stated
        as the range a value must lie in. A NaN or infinite step size would
        end in a diverged run (or a checkpoint that load_checkpoint refuses)."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(arch="m3", **{field: value})

    @pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, float("nan")])
    def test_train_config_refuses_channel_scale(self, scale):
        with pytest.raises(ValueError, match="channel_scale"):
            TrainConfig(arch="m3", channel_scale=scale)


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
