"""Adam optimization, the epoch loop, evaluation, and checkpointing.

The training recipe: seeded shuffle each epoch, no augmentation, Adam with
bias correction, and an L2 penalty (coefficient 0.0001) applied to every
trainable parameter, BN scale/shift included (a flag excludes them).

Checkpoint container format (version 1):

    magic b"WCNNCKPT" | uint32 LE manifest length | UTF-8 JSON manifest |
    raw little-endian float32 tensor payloads, in manifest order

The manifest records version, architecture, epoch, config snapshot, RNG
state, Adam scalars, and one entry per tensor (name, kind, shape, offset).
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
from .models import ModelGraph, ForwardResult, build
from .tensor import RandomSource, NonFiniteError

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"WCNNCKPT"
CHECKPOINT_VERSION = 1
METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,seconds"

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
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    l2_coeff: float = 1e-4
    l2_include_bn: bool = True
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
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be >= 0")


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict, alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on params."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        m, v = state.m[name], state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        p -= (state.alpha * (m / c1) / (np.sqrt(v / c2) + state.eps)).astype(p.dtype, copy=False)


def add_l2_gradients(params: dict, grads: dict, coeff: float, include_bn: bool = True) -> None:
    """grad += 2 * coeff * param for every trainable (optionally skipping
    BN gamma/beta)."""
    if coeff == 0.0:
        return
    for name, p in params.items():
        if not include_bn and (".bn.gamma" in name or ".bn.beta" in name):
            continue
        ops.accumulate_grad(grads, name, (2.0 * coeff) * p)


def l2_penalty(params: dict, coeff: float, include_bn: bool = True) -> float:
    if coeff == 0.0:
        return 0.0
    total = 0.0
    for name, p in params.items():
        if not include_bn and (".bn.gamma" in name or ".bn.beta" in name):
            continue
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
    tensors = []
    payloads = []
    offset = 0

    def push(name, kind, arr):
        nonlocal offset
        if arr.dtype != np.float32:
            raise ValueError(f"checkpoint tensors must be float32, got {arr.dtype} for {name}")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append(
            {"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset}
        )
        payloads.append(raw)
        offset += len(raw)

    for name, arr in ckpt.params.items():
        push(name, "param", arr)
    for name, arr in ckpt.state.items():
        push(name, "state", arr)
    adam_meta = None
    if ckpt.adam is not None:
        a = ckpt.adam
        adam_meta = {"t": a.t, "alpha": a.alpha, "beta1": a.beta1, "beta2": a.beta2, "eps": a.eps}
        for name, arr in a.m.items():
            push(name, "adam_m", arr)
        for name, arr in a.v.items():
            push(name, "adam_v", arr)

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
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for raw in payloads:
            f.write(raw)


_ADAM_KEYS = ("t", "alpha", "beta1", "beta2", "eps")


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
    if not isinstance(name, str) or not all(type(v) is int and v >= 0 for v in extents):
        raise CheckpointFormatError(f"{path}: tensor entry {t!r:.120} has a bad name, shape or offset")
    return kind, name, shape, offset


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file. Each tensor is read into its own array, so
    memory use is the size of the tensors, not of the file on top."""
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
        missing = [k for k in ("arch", "epoch", "tensors") if k not in manifest]
        meta = manifest.get("adam")
        if meta is not None:
            missing += [f"adam.{k}" for k in _ADAM_KEYS if not isinstance(meta, dict) or k not in meta]
        if missing or not isinstance(manifest["tensors"], list):
            raise CheckpointFormatError(f"{path}: manifest lacks {missing or 'a tensor list'}")

        payload_bytes = size - head - n
        sections = {"param": {}, "state": {}, "adam_m": {}, "adam_v": {}}
        for t in manifest["tensors"]:
            kind, name, shape, offset = _tensor_entry(t, sections, path)
            end = offset + math.prod(shape) * 4
            if end > payload_bytes:
                raise CheckpointTruncatedError(
                    f"{path}: tensor {name} needs bytes up to {end}, payload has {payload_bytes}"
                )
            arr = np.empty(shape, dtype="<f4")
            f.seek(head + n + offset)
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointTruncatedError(f"{path}: tensor {name} ends early")
            sections[kind][name] = arr

    adam = None
    if meta is not None:
        adam = AdamState(
            sections["param"], meta["alpha"], meta["beta1"], meta["beta2"], meta["eps"]
        )
        adam.t = meta["t"]
        adam.m = sections["adam_m"]
        adam.v = sections["adam_v"]

    return Checkpoint(
        version=manifest["version"],
        arch=manifest["arch"],
        epoch=manifest["epoch"],
        params=sections["param"],
        state=sections["state"],
        config=manifest.get("config", {}),
        adam=adam,
        rng_state=manifest.get("rng_state"),
    )


def restore_model(ckpt: Checkpoint, graph: ModelGraph) -> None:
    """Copy checkpoint tensors into the graph, validating names and shapes;
    the first offending tensor is named in the error."""
    for name, target in list(graph.params.items()) + list(graph.state.items()):
        source = ckpt.params.get(name)
        if source is None:
            source = ckpt.state.get(name)
        if source is None:
            raise CheckpointMismatchError(f"checkpoint is missing tensor {name!r}")
        if source.shape != target.shape:
            raise CheckpointMismatchError(
                f"tensor {name!r}: checkpoint shape {source.shape} != graph shape {target.shape}"
            )
        target[...] = source.astype(target.dtype, copy=False)
    extra = (set(ckpt.params) | set(ckpt.state)) - set(graph.params) - set(graph.state)
    if extra:
        raise CheckpointMismatchError(f"checkpoint has unknown tensor {sorted(extra)[0]!r}")


def model_from_checkpoint(ckpt: Checkpoint) -> ModelGraph:
    graph = build(
        ckpt.arch,
        num_classes=int(ckpt.config.get("num_classes", 10)),
        rng=RandomSource(0),
        channel_scale=float(ckpt.config.get("channel_scale", 1.0)),
    )
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
    log_path: str | None


def _load_split(dataset, entries) -> tuple:
    if not entries:
        return None, None
    x = np.stack([dataset.load(e) for e in entries]).astype(np.float32)[..., None]
    y = np.array([e.label for e in entries], dtype=np.int64)
    return x, y


def _grad_norm_ratio(grads: dict, first_name: str, last_name: str) -> float:
    gf = grads.get(first_name)
    gl = grads.get(last_name)
    if gf is None or gl is None:
        return float("nan")
    nf = float(np.linalg.norm(gf.astype(np.float64)))
    nl = float(np.linalg.norm(gl.astype(np.float64)))
    if nl == 0.0:
        return float("inf") if nf > 0 else float("nan")
    return nf / nl


def _append_metrics(path, record: EpochRecord, new_file: bool) -> None:
    if path is None:
        return
    with open(path, "a" if not new_file else "w") as f:
        if new_file:
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


def train(config: TrainConfig, dataset, resume_from: Checkpoint | None = None) -> TrainResult:
    """Run the epoch loop and return the final checkpoint plus metrics.

    Per epoch: seeded reshuffle, minibatch forward (train mode), data loss
    plus L2 penalty, reverse-mode backward, Adam step; then test-fold
    evaluation in infer mode against the BN running statistics.
    """
    from .audio import make_batches, split_entries

    train_entries, test_entries = split_entries(dataset.entries, config.test_fold)
    val_entries = []
    if config.val_fold is not None:
        val_entries = [e for e in train_entries if e.fold == config.val_fold]
        train_entries = [e for e in train_entries if e.fold != config.val_fold]
    if not train_entries:
        raise ValueError("training split is empty")

    root = RandomSource(config.seed)
    graph = build(
        config.arch,
        num_classes=config.num_classes,
        rng=root.derive(_STREAM_INIT),
        channel_scale=config.channel_scale,
    )
    adam = AdamState(graph.params, config.alpha, config.beta1, config.beta2, config.eps_adam)
    train_rng = root.derive(_STREAM_TRAIN_OPS)
    start_epoch = 0
    if resume_from is not None:
        if resume_from.arch != config.arch:
            raise CheckpointMismatchError(
                f"checkpoint arch {resume_from.arch!r} != config arch {config.arch!r}"
            )
        restore_model(resume_from, graph)
        if resume_from.adam is not None:
            adam = resume_from.adam
            adam.alpha, adam.beta1 = config.alpha, config.beta1
            adam.beta2, adam.eps = config.beta2, config.eps_adam
        if resume_from.rng_state is not None:
            train_rng.set_state(resume_from.rng_state)
        start_epoch = resume_from.epoch

    test_x, test_y = _load_split(dataset, test_entries)
    val_x, val_y = _load_split(dataset, val_entries)

    first_param = next(iter(graph.params))
    last_param = "dense.w"
    param_names = set(graph.params)

    history = []
    new_log = start_epoch == 0
    for epoch in range(start_epoch + 1, config.epochs + 1):
        t0 = time.monotonic()
        shuffle_rng = root.derive(_STREAM_SHUFFLE, epoch)
        loss_sum, correct, seen, batch_id = 0.0, 0, 0, 0
        ratio_min, ratio_max = float("inf"), float("-inf")
        for batch in make_batches(dataset, train_entries, config.batch_size, shuffle_rng):
            try:
                result = graph.forward(batch.x, mode="train", rng=train_rng)
                data_loss, probs, grad_logits = ops.softmax_xent(result.logits, batch.labels)
                loss = data_loss + l2_penalty(
                    graph.params, config.l2_coeff, config.l2_include_bn
                )
                if not np.isfinite(loss):
                    raise NonFiniteError(f"loss={loss}")
                grads: dict = {}
                result.tape.backward(grad_logits, grads)
                add_l2_gradients(graph.params, grads, config.l2_coeff, config.l2_include_bn)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite values at epoch {epoch}, batch {batch_id}: {exc}"
                ) from exc
            missing = param_names - set(grads)
            if missing:
                raise RuntimeError(f"no gradient for parameters {sorted(missing)}")
            ratio = _grad_norm_ratio(grads, first_param, last_param)
            if np.isfinite(ratio) or ratio == float("inf"):
                ratio_min = min(ratio_min, ratio)
                ratio_max = max(ratio_max, ratio)
            adam_step(graph.params, grads, adam)
            n = len(batch.labels)
            loss_sum += loss * n
            correct += int((np.argmax(probs, axis=1) == batch.labels).sum())
            seen += n
            batch_id += 1
        if seen == 0:
            raise ValueError("training split is empty after batch assembly")

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
            grad_ratio_min=ratio_min if ratio_min != float("inf") else float("nan"),
            grad_ratio_max=ratio_max if ratio_max != float("-inf") else float("nan"),
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
    return TrainResult(checkpoint=final, graph=graph, history=history, log_path=config.log_path)


def evaluate(graph: ModelGraph, x: np.ndarray, labels: np.ndarray, batch_size: int = 64):
    """Infer-mode accuracy plus a per-class confusion matrix
    (rows = true class, columns = predicted; argmax ties go to the first
    index). Never mutates parameters or running statistics."""
    K = graph.num_classes
    confusion = np.zeros((K, K), dtype=np.int64)
    for i in range(0, len(labels), batch_size):
        xb = x[i : i + batch_size]
        yb = labels[i : i + batch_size]
        probs = graph.forward(xb, mode="infer").probs
        pred = np.argmax(probs, axis=1)
        np.add.at(confusion, (yb, pred), 1)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else float("nan")
    return accuracy, confusion
