"""Adam optimization, the epoch loop, evaluation, and checkpointing.

The training recipe: seeded shuffle each epoch, no augmentation, Adam with
bias correction, and an L2 penalty (coefficient 0.0001) applied to every
trainable parameter, BN scale/shift included.

Checkpoint container format (version 1):

    magic b"WCNNCKPT" | uint32 LE manifest length | UTF-8 JSON manifest |
    raw little-endian float32 tensor payloads, in manifest order

The payloads tile the rest of the file: each tensor's offset is the byte
count of the tensors before it, and no bytes follow the last one.

The manifest records version, architecture, epoch, config snapshot, RNG
state, Adam scalars, and one entry per tensor (name, kind, shape, offset).
With Adam scalars present, the adam_m and adam_v entries each name exactly
the param entries, with the same shapes. A config snapshot that names an
architecture or a step size (alpha) names the manifest's. Every tensor
value is finite.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .audio import make_batches, split_entries, stack_clips
from .models import ModelGraph, build, valid_architectures
from .tensor import NonFiniteError, RandomSource, atomic_write, check_finite

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"WCNNCKPT"
CHECKPOINT_VERSION = 1
METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,seconds"
# evaluate's batch size. Its peak grows with it: one m3 batch at published
# width peaks at 40.1 MiB under tracemalloc, 5.0 MiB a clip, at conv2.
# 8 is as fast as 64.
EVAL_BATCH = 8

# Adam's moment decay rates and denominator floor. Only the step size
# (TrainConfig.alpha) is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# RandomSource derivation tags used by train(); shuffles depend only on
# (seed, epoch) so a resumed run replays the same batch order.
_STREAM_INIT = 0
_STREAM_TRAIN_OPS = 1
_STREAM_SHUFFLE = 2


class TrainingDivergedError(RuntimeError):
    """Raised when a batch produces a non-finite loss or activations."""


class CheckpointError(RuntimeError):
    pass


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointMismatchError(CheckpointError):
    pass


@dataclass
class TrainConfig:
    arch: str
    epochs: int = 100
    batch_size: int = 32
    alpha: float = 1e-3
    l2_coeff: float = 1e-4
    seed: int = 0
    test_fold: int = 10
    val_fold: int | None = None
    num_classes: int = 10
    channel_scale: float = 1.0
    checkpoint_path: str | None = None
    log_path: str | None = None
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = end only
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (BN batch statistics)")
        if not 0 < self.alpha < math.inf:  # False for NaN too
            raise ValueError(f"alpha must be finite and > 0, not {self.alpha!r}")
        if not 0 <= self.l2_coeff < math.inf:
            raise ValueError(f"l2_coeff must be finite and >= 0, not {self.l2_coeff!r}")
        if not 0 < self.channel_scale <= 1:
            raise ValueError("channel_scale must be in (0, 1]")
        if self.val_fold == self.test_fold:
            raise ValueError(f"val_fold {self.val_fold} is also the test fold")


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict, alpha=1e-3):
        self.alpha = alpha
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on params."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        m, v = state.m[name], state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        p -= (state.alpha * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(p.dtype, copy=False)


def add_l2_gradients(params: dict, grads: dict, coeff: float) -> None:
    """grad += 2 * coeff * param for every trainable, in place: each
    parameter's gradient must already be in grads."""
    if coeff == 0.0:
        return
    for name, p in params.items():
        grads[name] += (2.0 * coeff) * p


def l2_penalty(params: dict, coeff: float) -> float:
    if coeff == 0.0:
        return 0.0
    total = 0.0
    for p in params.values():
        total += float(np.sum(p.astype(np.float64) ** 2))
    return coeff * total


@dataclass
class Checkpoint:
    version: int
    arch: str
    epoch: int
    params: dict
    state: dict
    config: dict
    adam: AdamState | None = None
    rng_state: dict | None = None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a checkpoint atomically: each tensor streams from its array into
    `<path>.tmp`, which replaces `path` only once it is complete."""
    arrays = [(name, "param", arr) for name, arr in ckpt.params.items()]
    arrays += [(name, "state", arr) for name, arr in ckpt.state.items()]
    adam_meta = None
    if ckpt.adam is not None:
        a = ckpt.adam
        adam_meta = {"t": a.t, "alpha": a.alpha, "beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                     "eps": ADAM_EPS}
        arrays += [(name, "adam_m", arr) for name, arr in a.m.items()]
        arrays += [(name, "adam_v", arr) for name, arr in a.v.items()]

    tensors = []
    offset = 0
    for name, kind, arr in arrays:
        if arr.dtype != np.float32:
            raise ValueError(f"checkpoint tensors must be float32, got {arr.dtype} for {name}")
        tensors.append({"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes

    manifest = {
        "version": ckpt.version,
        "arch": ckpt.arch,
        "epoch": ckpt.epoch,
        "config": ckpt.config,
        "rng_state": ckpt.rng_state,
        "adam": adam_meta,
        "tensors": tensors,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, _, arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f4").data)


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _tensor_entry(t, sections: dict, path) -> tuple:
    """(kind, name, shape, offset) of one manifest tensor entry; a missing
    field, unknown kind or non-integral extent is a CheckpointFormatError."""
    try:
        kind, name, shape, offset = t["kind"], t["name"], tuple(t["shape"]), t["offset"]
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{path}: malformed tensor entry {t!r:.120}") from exc
    if not (isinstance(kind, str) and kind in sections):
        raise CheckpointFormatError(f"{path}: tensor {name!r} has unknown kind {kind!r}")
    extents = (offset, *shape)
    if not isinstance(name, str) or not all(_is_count(v) for v in extents):
        raise CheckpointFormatError(f"{path}: tensor entry {t!r:.120} has a bad name, shape or offset")
    return kind, name, shape, offset


def _is_rng_state(state) -> bool:
    """Whether numpy accepts `state` as the state of a PCG64 generator."""
    try:
        np.random.PCG64(0).state = state
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return True


def _bad_fields(manifest: dict) -> list:
    """Names of the manifest fields that are missing or not as save_checkpoint writes them."""
    rng_state, meta = manifest.get("rng_state"), manifest.get("adam")
    ok = {
        "tensors": isinstance(manifest.get("tensors"), list),
        "epoch": _is_count(manifest.get("epoch")),
        "arch": isinstance(manifest.get("arch"), str),
        "config": isinstance(manifest.get("config", {}), dict),
        "rng_state": rng_state is None or _is_rng_state(rng_state),
    }
    if meta is not None:
        adam = meta if isinstance(meta, dict) else {}
        alpha = adam.get("alpha")
        ok |= {
            "adam.t": _is_count(adam.get("t")),
            "adam.alpha": type(alpha) in (int, float) and math.isfinite(alpha),
            "adam.beta1/beta2/eps": [adam.get(k) for k in ("beta1", "beta2", "eps")]
            == [ADAM_BETA1, ADAM_BETA2, ADAM_EPS],
        }
    return [name for name, good in ok.items() if not good]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file. Each tensor is read into its own array, so
    memory use is the size of the tensors, not of the file on top; since
    the tensors must tile the payload, that is at most the file's size."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = len(CHECKPOINT_MAGIC) + 4
        prefix = f.read(head)
        if len(prefix) < head or not prefix.startswith(CHECKPOINT_MAGIC):
            raise CheckpointFormatError(f"{path}: not a checkpoint file (bad magic)")
        n = struct.unpack_from("<I", prefix, len(CHECKPOINT_MAGIC))[0]
        if size < head + n:
            raise CheckpointTruncatedError(f"{path}: manifest truncated ({size} bytes)")
        try:
            manifest = json.loads(f.read(n).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"{path}: manifest is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CheckpointFormatError(f"{path}: manifest is not a JSON object")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {manifest.get('version')} != {CHECKPOINT_VERSION}"
            )
        bad = _bad_fields(manifest)
        if bad:
            raise CheckpointFormatError(f"{path}: manifest lacks or garbles {bad}")
        arch, meta, config = manifest["arch"], manifest.get("adam"), manifest.get("config", {})
        if config.get("arch", arch) != arch:
            raise CheckpointFormatError(
                f"{path}: manifest arch {arch!r:.40} != config arch {config['arch']!r:.40}"
            )
        if meta is not None and config.get("alpha", meta["alpha"]) != meta["alpha"]:
            raise CheckpointFormatError(
                f"{path}: adam.alpha {meta['alpha']!r} != config alpha {config['alpha']!r:.40}"
            )

        # Every entry is checked before any tensor is allocated.
        payload_bytes = size - head - n
        sections = {"param": {}, "state": {}, "adam_m": {}, "adam_v": {}}
        entries, end = {}, 0
        for t in manifest["tensors"]:
            kind, name, shape, offset = _tensor_entry(t, sections, path)
            if offset != end:
                raise CheckpointFormatError(f"{path}: tensor {name} at offset {offset}, expected {end}")
            if (kind, name) in entries:
                raise CheckpointFormatError(f"{path}: tensor {name!r} listed twice as {kind}")
            end += math.prod(shape) * 4
            if end > payload_bytes:
                raise CheckpointTruncatedError(
                    f"{path}: tensor {name} needs bytes up to {end}, payload has {payload_bytes}"
                )
            entries[kind, name] = shape
        if end != payload_bytes:
            raise CheckpointFormatError(f"{path}: {payload_bytes - end} bytes follow the last tensor")
        if meta is not None:
            params = {name: shape for (kind, name), shape in entries.items() if kind == "param"}
            for moment in ("adam_m", "adam_v"):
                shapes = {name: shape for (kind, name), shape in entries.items() if kind == moment}
                odd = sorted(shapes.items() ^ params.items())
                if odd:
                    raise CheckpointFormatError(
                        f"{path}: {moment} and param entries differ at {odd[0][0]!r}"
                    )
        for (kind, name), shape in entries.items():
            arr = np.empty(shape, dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointTruncatedError(f"{path}: tensor {name} ends early")
            try:
                check_finite(f"{kind} tensor {name!r}", arr)
            except NonFiniteError as exc:
                raise CheckpointFormatError(f"{path}: {exc}") from exc
            sections[kind][name] = arr

    adam = None
    if meta is not None:
        adam = AdamState({}, meta["alpha"])  # takes the loaded moments, allocates none
        adam.t = meta["t"]
        adam.m = sections["adam_m"]
        adam.v = sections["adam_v"]

    return Checkpoint(
        version=manifest["version"],
        arch=arch,
        epoch=manifest["epoch"],
        params=sections["param"],
        state=sections["state"],
        config=config,
        adam=adam,
        rng_state=manifest.get("rng_state"),
    )


def restore_model(ckpt: Checkpoint, graph: ModelGraph) -> None:
    """Copy checkpoint tensors into the graph, validating names and shapes;
    the first offending tensor is named in the error. A graph param is
    looked up only among the checkpoint's params and a state tensor only in
    its state; a running variance with a negative entry is refused."""
    for section, sources, targets in (("params", ckpt.params, graph.params),
                                      ("state", ckpt.state, graph.state)):
        for name, target in targets.items():
            source = sources.get(name)
            if source is None:
                raise CheckpointMismatchError(f"checkpoint is missing tensor {name!r} from its {section}")
            if source.shape != target.shape:
                raise CheckpointMismatchError(
                    f"tensor {name!r}: checkpoint shape {source.shape} != graph shape {target.shape}"
                )
            if name.endswith(".running_var") and (source < 0).any():
                raise CheckpointMismatchError(f"tensor {name!r} has a negative running variance")
            target[...] = source.astype(target.dtype, copy=False)
        extra = set(sources) - set(targets)
        if extra:
            raise CheckpointMismatchError(
                f"checkpoint has unknown tensor {sorted(extra)[0]!r} in its {section}"
            )


def model_from_checkpoint(ckpt: Checkpoint) -> ModelGraph:
    """Build the checkpoint's architecture at its config's class count and
    width, and restore its tensors. The architecture name and both config
    values are checked before anything is sized from them."""
    if ckpt.arch not in valid_architectures():
        raise CheckpointFormatError(f"unknown architecture {ckpt.arch!r:.40}")
    num_classes = ckpt.config.get("num_classes", 10)
    scale = ckpt.config.get("channel_scale", 1.0)
    if not (type(num_classes) is int and num_classes >= 1):
        raise CheckpointFormatError(f"config num_classes {num_classes!r:.40} is not an int >= 1")
    if not (type(scale) in (int, float) and 0 < scale <= 1):
        raise CheckpointFormatError(f"config channel_scale {scale!r:.40} is not in (0, 1]")
    dense_b = ckpt.params.get("dense.b")
    if dense_b is None or dense_b.shape != (num_classes,):
        raise CheckpointMismatchError(
            f"config num_classes {num_classes} does not match dense.b {getattr(dense_b, 'shape', None)}"
        )
    graph = build(ckpt.arch, num_classes=num_classes, rng=RandomSource(0), channel_scale=scale)
    restore_model(ckpt, graph)
    return graph


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seconds: float
    grad_ratio_min: float = float("nan")
    grad_ratio_max: float = float("nan")
    val_acc: float = float("nan")


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    graph: ModelGraph
    history: list


def _grad_norm_ratio(grads: dict, first_name: str, last_name: str) -> float:
    nf = float(np.linalg.norm(grads[first_name].astype(np.float64)))
    nl = float(np.linalg.norm(grads[last_name].astype(np.float64)))
    if nl == 0.0:
        return float("inf") if nf > 0 else float("nan")
    return nf / nl


def _append_metrics(path, record: EpochRecord, new_file: bool) -> None:
    if path is None:
        return
    with open(path, "w" if new_file else "a") as f:
        if f.tell() == 0:  # a fresh run, or a resumed run's new log
            f.write(METRICS_HEADER + "\n")
        f.write(
            f"{record.epoch},{record.train_loss:.6f},{record.train_acc:.4f},"
            f"{record.test_acc:.4f},{record.seconds:.3f}\n"
        )


def _make_checkpoint(config: TrainConfig, graph: ModelGraph, adam: AdamState,
                     train_rng: RandomSource, epoch: int) -> Checkpoint:
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        arch=config.arch,
        epoch=epoch,
        params=graph.params,
        state=graph.state,
        config=asdict(config),
        adam=adam,
        rng_state=train_rng.get_state(),
    )


def _check_resume(config: TrainConfig, ckpt: Checkpoint) -> None:
    """A resume continues the checkpoint's run or is refused: it needs the
    Adam and RNG state, an epoch left to run, the same config in every
    field but the run length, the output paths and the stop rule, and Adam's
    step size equal to the config's alpha."""
    if ckpt.adam is None or ckpt.rng_state is None:
        raise CheckpointMismatchError("checkpoint has no Adam or RNG state to resume from")
    if ckpt.epoch >= config.epochs:
        raise ValueError(f"checkpoint is at epoch {ckpt.epoch}, so epochs "
                         f"{config.epochs} leaves no epoch to run")
    free = {"epochs", "checkpoint_path", "log_path", "checkpoint_every", "stop_at_train_acc"}
    changed = [
        f"checkpoint {k} {ckpt.config.get(k)!r} != config {k} {v!r}"
        for k, v in asdict(config).items() if k not in free and ckpt.config.get(k) != v
    ]
    if ckpt.adam.alpha != config.alpha:
        changed.append(f"checkpoint adam.alpha {ckpt.adam.alpha!r} != config alpha {config.alpha!r}")
    if changed:
        raise CheckpointMismatchError("; ".join(changed))


def gradients(graph: ModelGraph, x: np.ndarray, labels: np.ndarray,
              rng: RandomSource | None, l2_coeff: float):
    """One train step up to the update: the train-mode forward, the data
    loss plus the L2 penalty, the backward and the L2 gradients. Returns
    (forward result, loss, gradients by parameter name). Raises
    NonFiniteError for a non-finite forward or loss, and RuntimeError if
    the backward left a parameter without a gradient."""
    result = graph.forward(x, mode="train", rng=rng)
    data_loss, _, grad_logits = ops.softmax_xent(result.logits, labels)
    loss = data_loss + l2_penalty(graph.params, l2_coeff)
    if not np.isfinite(loss):
        raise NonFiniteError(f"loss={loss}")
    grads: dict = {}
    result.tape.backward(grad_logits, grads)
    # Before the L2 term, which writes a gradient for every parameter.
    missing = graph.params.keys() - grads.keys()
    if missing:
        raise RuntimeError(f"no gradient for parameters {sorted(missing)}")
    add_l2_gradients(graph.params, grads, l2_coeff)
    return result, loss, grads


def train(config: TrainConfig, dataset, resume_from: Checkpoint | None = None) -> TrainResult:
    """Run the epoch loop and return the final checkpoint plus metrics.

    Per epoch: seeded reshuffle, then per minibatch `gradients` (forward
    in train mode, data loss plus L2 penalty, backward) and an Adam step;
    then test-fold evaluation in infer mode against the BN running
    statistics. A step's gradients and forward result are freed once Adam
    has used them, before the next forward.
    """
    if resume_from is not None:
        _check_resume(config, resume_from)
    train_entries, test_entries = split_entries(dataset.entries, config.test_fold)
    val_entries = []
    if config.val_fold is not None:
        train_entries, val_entries = split_entries(train_entries, config.val_fold)
        if not val_entries:
            raise ValueError(f"val_fold {config.val_fold} names no training clip")
    if len(train_entries) < 2:
        # make_batches drops only a lone final row, so 2 clips make a batch
        raise ValueError(f"training split is empty after batch assembly "
                         f"({len(train_entries)} clip(s); a batch needs 2)")

    root = RandomSource(config.seed)
    graph = build(
        config.arch,
        num_classes=config.num_classes,
        rng=root.derive(_STREAM_INIT),
        channel_scale=config.channel_scale,
    )
    train_rng = root.derive(_STREAM_TRAIN_OPS)
    if resume_from is None:
        start_epoch, adam = 0, AdamState(graph.params, config.alpha)
    else:
        restore_model(resume_from, graph)
        train_rng.set_state(resume_from.rng_state)
        start_epoch, adam = resume_from.epoch, resume_from.adam

    test_x, test_y = stack_clips(dataset, test_entries) if test_entries else (None, None)
    val_x, val_y = stack_clips(dataset, val_entries) if val_entries else (None, None)

    first_param = next(iter(graph.params))
    last_param = "dense.w"

    history = []
    new_log = start_epoch == 0
    for epoch in range(start_epoch + 1, config.epochs + 1):
        t0 = time.monotonic()
        shuffle_rng = root.derive(_STREAM_SHUFFLE, epoch)
        loss_sum, correct, seen, batch_id = 0.0, 0, 0, 0
        ratios = []
        for batch in make_batches(dataset, train_entries, config.batch_size, shuffle_rng):
            try:
                result, loss, grads = gradients(graph, batch.x, batch.labels, train_rng,
                                                config.l2_coeff)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite values at epoch {epoch}, batch {batch_id}: {exc}"
                ) from exc
            ratio = _grad_norm_ratio(grads, first_param, last_param)
            if not math.isnan(ratio):
                ratios.append(ratio)
            adam_step(graph.params, grads, adam)
            correct += int((np.argmax(result.probs, axis=1) == batch.labels).sum())
            # Nothing reads them again: free them before the next forward.
            del grads, result
            n = len(batch.labels)
            loss_sum += loss * n
            seen += n
            batch_id += 1

        train_loss = loss_sum / seen
        train_acc = correct / seen
        test_acc = float("nan")
        if test_x is not None:
            test_acc, _ = evaluate(graph, test_x, test_y)
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            train_acc=train_acc,
            test_acc=test_acc,
            seconds=time.monotonic() - t0,
            grad_ratio_min=min(ratios, default=float("nan")),
            grad_ratio_max=max(ratios, default=float("nan")),
        )
        if val_x is not None:
            record.val_acc, _ = evaluate(graph, val_x, val_y)
            logger.info("epoch %d val_acc %.4f", epoch, record.val_acc)
        history.append(record)
        _append_metrics(config.log_path, record, new_file=new_log)
        new_log = False

        done = epoch == config.epochs or (
            config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc
        )
        if config.checkpoint_path and (
            done or (config.checkpoint_every and epoch % config.checkpoint_every == 0)
        ):
            save_checkpoint(
                _make_checkpoint(config, graph, adam, train_rng, epoch),
                config.checkpoint_path,
            )
        if done:
            break

    final = _make_checkpoint(config, graph, adam, train_rng, history[-1].epoch)
    return TrainResult(checkpoint=final, graph=graph, history=history)


def evaluate(graph: ModelGraph, x: np.ndarray, labels: np.ndarray):
    """Infer-mode accuracy plus a per-class confusion matrix
    (rows = true class, columns = predicted; argmax ties go to the first
    index). Never mutates parameters or running statistics."""
    K = graph.num_classes
    outside = (labels < 0) | (labels >= K)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"label {labels[i]} at row {i} is outside [0, {K})")
    confusion = np.zeros((K, K), dtype=np.int64)
    for i in range(0, len(labels), EVAL_BATCH):
        xb = x[i : i + EVAL_BATCH]
        yb = labels[i : i + EVAL_BATCH]
        probs = graph.forward(xb, mode="infer").probs
        pred = np.argmax(probs, axis=1)
        np.add.at(confusion, (yb, pred), 1)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else float("nan")
    return accuracy, confusion
