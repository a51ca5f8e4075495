"""Command-line surface: train, eval, inspect, kernels, smoke."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis import kernel_spectra, write_spectrum_csv, write_spectrum_pgm
from .audio import CLIP_SAMPLES, TARGET_RATE, DatasetIndex, split_entries, stack_clips
from .models import (
    build,
    count_parameters,
    parameter_breakdown,
    rounded_millions,
    shape_trace,
    valid_architectures,
)
from .synthetic import SMOKE_EPOCHS, SMOKE_SEED, smoke_overfit
from .tensor import RandomSource
from .training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    train,
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wavecnn",
        description="Train and analyze deep 1D convolutional networks on raw waveforms.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    t = sub.add_parser("train", formatter_class=fmt, help="train a model on a WAV corpus")
    t.add_argument("--arch", required=True, choices=valid_architectures(), help="architecture name")
    t.add_argument("--data", required=True, help="corpus root (fold<N>/ subdirs or flat)")
    t.add_argument("--meta", required=True, help="metadata CSV (slice_file_name,fold,classID)")
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size, help="minibatch size (>= 2)")
    t.add_argument("--lr", type=float, default=TrainConfig.alpha, help="Adam step size")
    t.add_argument("--l2", type=float, default=TrainConfig.l2_coeff, help="L2 regularization coefficient")
    t.add_argument("--seed", type=int, default=TrainConfig.seed, help="seed for init, shuffling, dropout")
    t.add_argument("--test-fold", type=int, default=TrainConfig.test_fold, help="held-out test fold")
    t.add_argument("--val-fold", type=int, default=TrainConfig.val_fold,
                   help="optional fold held out of training for validation")
    t.add_argument("--out", default="model.ckpt", help="checkpoint output path")
    t.add_argument("--log", default=None, help="metrics CSV output path")
    t.add_argument("--cache-dir", default=None, help="preprocessed clip cache directory")
    t.add_argument("--ckpt-every", type=int, default=TrainConfig.checkpoint_every,
                   help="checkpoint cadence in epochs (0 = end of run only)")
    t.add_argument("--resume", default=None, help="checkpoint to resume from")

    e = sub.add_parser("eval", formatter_class=fmt, help="evaluate a checkpoint on one fold")
    e.add_argument("--ckpt", required=True, help="checkpoint to evaluate")
    e.add_argument("--data", required=True, help="corpus root")
    e.add_argument("--meta", required=True, help="metadata CSV")
    e.add_argument("--fold", type=int, default=10, help="fold to evaluate")
    e.add_argument("--cache-dir", default=None, help="preprocessed clip cache directory")

    i = sub.add_parser("inspect", formatter_class=fmt,
                       help="print layer table, shape trace, and parameter counts")
    i.add_argument("--arch", required=True, choices=valid_architectures(), help="architecture name")
    i.add_argument("--num-classes", type=int, default=10, help="classifier output classes")

    k = sub.add_parser("kernels", formatter_class=fmt,
                       help="first-layer kernel spectra as CSV (and optional PGM)")
    k.add_argument("--ckpt", required=True, help="checkpoint to analyze")
    k.add_argument("--out-csv", required=True, help="spectrum matrix CSV path")
    k.add_argument("--out-pgm", default=None, help="optional grayscale PGM image path")

    s = sub.add_parser("smoke", formatter_class=fmt,
                       help="synthetic overfit check; exits 0 only on 100%% train accuracy")
    s.add_argument("--seed", type=int, default=SMOKE_SEED, help="deterministic seed")
    s.add_argument("--epochs", type=int, default=SMOKE_EPOCHS, help="epoch budget")
    s.add_argument("--log", default=None, help="optional metrics CSV path")
    return p


def _cmd_train(args) -> int:
    dataset = DatasetIndex.from_metadata_csv(args.meta, args.data, cache_dir=args.cache_dir)
    config = TrainConfig(
        arch=args.arch,
        epochs=args.epochs,
        batch_size=args.batch_size,
        alpha=args.lr,
        l2_coeff=args.l2,
        seed=args.seed,
        test_fold=args.test_fold,
        val_fold=args.val_fold,
        num_classes=dataset.num_classes,
        checkpoint_path=args.out,
        log_path=args.log,
        checkpoint_every=args.ckpt_every,
    )
    resume = load_checkpoint(args.resume) if args.resume else None
    result = train(config, dataset, resume_from=resume)
    last = result.history[-1]
    print(
        f"trained {args.arch} for {last.epoch} epoch(s): "
        f"train_loss={last.train_loss:.6f} train_acc={last.train_acc:.4f} "
        f"test_acc={last.test_acc:.4f}"
    )
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    graph = model_from_checkpoint(ckpt)
    dataset = DatasetIndex.from_metadata_csv(args.meta, args.data, cache_dir=args.cache_dir)
    _, entries = split_entries(dataset.entries, args.fold)
    if not entries:
        raise ValueError(f"no clips in fold {args.fold}")
    x, labels = stack_clips(dataset, entries)
    accuracy, confusion = evaluate(graph, x, labels)
    print(f"fold={args.fold} clips={len(entries)} accuracy={accuracy:.4f}")
    print("confusion matrix (rows = true class, cols = predicted):")
    width = max(len(n) for n in dataset.class_names)
    for i, row in enumerate(confusion):
        name = dataset.class_names[i] if i < len(dataset.class_names) else str(i)
        print(f"  {name:<{width}} " + " ".join(f"{v:5d}" for v in row))
    return 0


def _cmd_inspect(args) -> int:
    graph = build(args.arch, num_classes=args.num_classes, rng=RandomSource(0))
    trace = shape_trace(graph, CLIP_SAMPLES)
    counts = dict(parameter_breakdown(graph))
    units = {u.label: u for u in graph.units}

    print(f"architecture {args.arch} ({args.num_classes} classes, input {CLIP_SAMPLES}x1)")
    header = f"{'layer':<24} {'rf':>4} {'stride':>6} {'params':>10} {'output (T x C)':>16}"
    print(header)
    print("-" * len(header))
    for label, (T, C) in trace:
        unit = units.get(label)
        rf = getattr(unit, "rf", "") if unit else ""
        stride = getattr(unit, "stride", "") if unit else ""
        params = counts.get(label, 0)
        print(f"{label:<24} {rf!s:>4} {stride!s:>6} {params:>10} {f'{T} x {C}':>16}")
    print()
    for label, (T, C) in trace:
        print(f"row name={label} t={T} c={C} params={counts.get(label, 0)}")
    total = count_parameters(graph)
    print(f"params_exact={total}")
    print(f"params_rounded={rounded_millions(total)}")
    print(f"weight_layers={graph.weight_layer_count()}")
    return 0


def _cmd_kernels(args) -> int:
    sm = kernel_spectra(args.ckpt)
    write_spectrum_csv(sm, args.out_csv)
    print(
        f"wrote {sm.magnitudes.shape[0]} kernel spectra x {sm.magnitudes.shape[1]} bins "
        f"({TARGET_RATE / sm.rf:.6g} Hz per bin) to {args.out_csv}"
    )
    if args.out_pgm:
        write_spectrum_pgm(sm, args.out_pgm)
        print(f"wrote PGM image to {args.out_pgm}")
    return 0


def _cmd_smoke(args) -> int:
    history = smoke_overfit(seed=args.seed, epochs=args.epochs, log_path=args.log).history
    for rec in history:
        print(
            f"epoch {rec.epoch:3d} train_loss={rec.train_loss:.6f} "
            f"train_acc={rec.train_acc:.4f}"
        )
    last = history[-1]
    if last.train_acc >= 1.0:
        print(f"smoke: reached 100% train accuracy at epoch {last.epoch}")
        return 0
    print(
        f"smoke: FAILED to reach 100% train accuracy in {args.epochs} epochs "
        f"(final {last.train_acc:.4f})",
        file=sys.stderr,
    )
    return 1


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "inspect": _cmd_inspect,
    "kernels": _cmd_kernels,
    "smoke": _cmd_smoke,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failures exit 1; usage errors exit 2 above
        print(f"wavecnn {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
