"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 9 needs a real corpus and self-skips unless WAVECNN_US8K_DIR and
WAVECNN_US8K_META are set.
"""

import os
import time

import numpy as np
import pytest

from wavecnn import build, count_parameters, shape_trace
from wavecnn import ops
from wavecnn.audio import DatasetIndex, resample_sinc, split_entries, standardize
from wavecnn.cli import main as cli_main
from wavecnn.synthetic import SyntheticDataset, trainability_contrast
from wavecnn.tensor import RandomSource
from wavecnn.training import TrainConfig, load_checkpoint, save_checkpoint, train

from gradcheck import run_suite
from naive_ref import conv1d_naive, dft_magnitudes_naive, maxpool1d_naive, relative_error


def conclude(number, tag, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {tag}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {number} ({tag}): {detail}"


GOLDEN = {
    "m3": (220_682, 0.2),
    "m5": (558_090, 0.5),
    "m11": (1_784_202, 1.8),
    "m18": (3_679_882, 3.7),
    "m34-res": (3_972_778, 4.0),
}
POOL_SIZES = {
    "m3": [2000, 500],
    "m5": [2000, 500, 125, 32],
    "m11": [2000, 500, 125, 32],
    "m18": [2000, 500, 125, 32],
    "m34-res": [2000, 500, 125, 32],
}


def test_acceptance_1_architecture_golden(capsys):
    t0 = time.monotonic()
    problems = []
    for name, (exact, label) in GOLDEN.items():
        got = count_parameters(build(name, rng=RandomSource(0)))
        if got != exact:
            problems.append(f"{name} count {got} != {exact}")
        if abs(got / 1e6 - label) >= 0.1:
            problems.append(f"{name} does not agree with label {label}M")
        rows = shape_trace(name, 32000)
        pooled = [t for lbl, (t, _) in rows if lbl.startswith("maxpool")]
        if pooled != POOL_SIZES[name]:
            problems.append(f"{name} pooled sizes {pooled}")
        if rows[-2][1][0] != 1:
            problems.append(f"{name} missing unit GAP row")
    m34 = [t for lbl, (t, _) in shape_trace("m34-res", 32000) if lbl.startswith("maxpool")]
    if m34[-1] != 32 or m34[-2] != 125:
        problems.append("ceil case 125 -> 32 not exercised")

    assert cli_main(["inspect", "--arch", "m3"]) == 0
    out = capsys.readouterr().out
    if "params_exact=220682" not in out or "params_rounded=0.2M" not in out:
        problems.append("inspect output tokens missing")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    conclude(1, "architecture-golden", not problems, "; ".join(problems) or f"{elapsed:.2f}s")


def test_acceptance_2_gradient_suite():
    t0 = time.monotonic()
    worst = run_suite(trials_per_op=20)
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not bad and elapsed < 120.0
    detail = f"worst {max(worst.values()):.2e} over {len(worst)} ops, {elapsed:.1f}s"
    conclude(2, "gradient-suite", ok, detail if ok else f"{bad} elapsed {elapsed:.1f}s")


def test_acceptance_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    problems = []

    for case in range(100):
        B = int(rng.integers(1, 5))
        Cin = int(rng.integers(1, 9))
        Cout = int(rng.integers(1, 9))
        if case % 5 == 0:
            rf, stride, T = 80, 4, int(rng.integers(80, 101))
            Cin, Cout = min(Cin, 2), min(Cout, 4)
        else:
            rf = int(rng.choice([1, 3, 8]))
            stride = int(rng.choice([1, 2, 4]))
            T = int(rng.integers(rf, 201))
        use_f64 = case % 2 == 0
        dtype = np.float64 if use_f64 else np.float32
        x = rng.standard_normal((B, T, Cin)).astype(dtype)
        k = rng.standard_normal((rf, Cin, Cout)).astype(dtype)
        b = rng.standard_normal(Cout).astype(dtype) if case % 3 == 0 else None
        y, _ = ops.conv1d_forward(x, ops.ConvParams(k, b, stride))
        if use_f64:
            ref = conv1d_naive(x, k, b, stride)
            if not np.array_equal(y, ref):
                problems.append(f"conv case {case}: float64 not bitwise")
        else:
            ref = conv1d_naive(
                x.astype(np.float64), k.astype(np.float64),
                None if b is None else b.astype(np.float64), stride,
            )
            err = relative_error(y, ref)
            if err >= 1e-6:
                problems.append(f"conv case {case}: float32 rel err {err:.2e}")

    for case in range(100):
        dtype = np.float64 if case % 2 == 0 else np.float32
        x = rng.standard_normal(
            (int(rng.integers(1, 5)), int(rng.integers(1, 201)), int(rng.integers(1, 9)))
        ).astype(dtype)
        y, (idx, _) = ops.maxpool1d_forward(x, "train")
        ref, ref_idx = maxpool1d_naive(x)
        if not (np.array_equal(y, ref) and np.array_equal(idx, ref_idx)):
            problems.append(f"maxpool case {case}")

    from wavecnn.analysis import kernel_spectra_from_kernel
    for rf in (8, 80, 320):
        kk = rng.standard_normal((rf, 1, 2))
        sm = kernel_spectra_from_kernel(kk)
        for row, orig in enumerate(sm.kernel_order):
            naive = dft_magnitudes_naive(kk[:, 0, orig])
            err = relative_error(sm.magnitudes[row], naive / naive.max())
            if err >= 1e-10:
                problems.append(f"dft rf={rf} rel err {err:.2e}")

    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    conclude(3, "oracle-equivalence", not problems, "; ".join(problems[:4]) or f"{elapsed:.1f}s")


def test_acceptance_4_overfit_smoke(capsys):
    t0 = time.monotonic()
    code = cli_main(["smoke"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    ok = code == 0 and "100% train accuracy" in out and elapsed < 300.0
    conclude(4, "overfit-smoke", ok, f"exit={code}, {elapsed:.1f}s")


def test_acceptance_5_trainability_contrast():
    bn, no_bn = trainability_contrast(seed=7, epochs=5)
    bn_loss, nobn_loss = bn[-1].train_loss, no_bn[-1].train_loss
    loss_ok = bn_loss < nobn_loss
    bn_acc = max(r.train_acc for r in bn)
    nobn_acc = max(r.train_acc for r in no_bn)
    acc_ok = bn_acc >= 1.0 and nobn_acc < 1.0
    ratio_ok = all(1e-4 <= r.grad_ratio_min and r.grad_ratio_max <= 1e4 for r in bn)

    def per_epoch(history):
        return " ".join(
            f"e{r.epoch}:[{r.grad_ratio_min:.2e},{r.grad_ratio_max:.2e}]" for r in history
        )

    detail = (
        f"epoch-5 loss BN {bn_loss:.4f} vs no-BN {nobn_loss:.4f} (lower: {loss_ok}); "
        f"best train acc BN {bn_acc:.2f} vs no-BN {nobn_acc:.2f} "
        f"(only BN reaches 1.00: {acc_ok}); "
        f"first/last grad ratios BN {per_epoch(bn)} "
        f"inside [1e-4,1e4]: {ratio_ok}; "
        f"no-BN {per_epoch(no_bn)}"
    )
    conclude(5, "trainability-contrast", loss_ok and acc_ok and ratio_ok, detail)


def test_acceptance_6_residual_passthrough():
    graph = build("m34-res", rng=RandomSource(33), dtype=np.float64)
    for name, arr in graph.params.items():
        if name.endswith(".kernel") and name != "conv1.kernel":
            arr[...] = 0.0  # dead residual branches
    x = RandomSource(44).normal((1, 32000, 1), dtype=np.float64)
    got = graph.forward(x, mode="infer").logits

    # Shortcut-only reference: stem, then each block is relu(channel-pad),
    # pools and head composed from plain numpy.
    h, _ = ops.conv1d_forward(
        x, ops.ConvParams(graph.params["conv1.kernel"], None, stride=4)
    )
    stem_bn = ops.BatchNormState(
        gamma=graph.params["conv1.bn.gamma"],
        beta=graph.params["conv1.bn.beta"],
        running_mean=graph.state["conv1.bn.running_mean"],
        running_var=graph.state["conv1.bn.running_var"],
    )
    h, _ = ops.batchnorm_forward(h, stem_bn, "infer")
    h = np.maximum(h, 0.0)

    def ref_pool(a):
        B, T, C = a.shape
        out_T = -(-T // 4)
        pad = out_T * 4 - T
        if pad:
            a = np.concatenate([a, np.full((B, pad, C), -np.inf)], axis=1)
        return a.reshape(B, out_T, 4, C).max(axis=2)

    for blocks, channels in ((3, 48), (4, 96), (6, 192), (3, 384)):
        h = ref_pool(h)
        for _ in range(blocks):
            grow = channels - h.shape[2]
            if grow:
                h = np.pad(h, ((0, 0), (0, 0), (0, grow)))
            h = np.maximum(h, 0.0)
    gap = h.mean(axis=1)
    expect = gap @ graph.params["dense.w"] + graph.params["dense.b"]

    diff = float(np.max(np.abs(got - expect)))
    conclude(6, "residual-passthrough", diff == 0.0, f"max abs diff {diff}")


def test_acceptance_7_checkpoint_roundtrip(tmp_path):
    cfg = dict(arch="m3", batch_size=4, seed=3, num_classes=2, channel_scale=1 / 16)
    data = SyntheticDataset(n_clips=8, seed=3, length=4000)
    path = tmp_path / "resume.ckpt"

    part = train(TrainConfig(epochs=2, checkpoint_path=str(path), **cfg), data)
    loaded = load_checkpoint(path)
    bitwise = all(
        np.array_equal(loaded.params[n], part.checkpoint.params[n])
        for n in part.checkpoint.params
    ) and all(
        np.array_equal(loaded.adam.m[n], part.checkpoint.adam.m[n])
        for n in part.checkpoint.adam.m
    )

    full = train(TrainConfig(epochs=3, **cfg), SyntheticDataset(n_clips=8, seed=3, length=4000))
    resumed = train(
        TrainConfig(epochs=3, **cfg),
        SyntheticDataset(n_clips=8, seed=3, length=4000),
        resume_from=loaded,
    )
    resume_identical = all(
        np.array_equal(full.graph.params[n], resumed.graph.params[n])
        for n in full.graph.params
    ) and all(
        np.array_equal(full.graph.state[n], resumed.graph.state[n])
        for n in full.graph.state
    )
    conclude(
        7, "checkpoint-roundtrip",
        bitwise and resume_identical,
        f"save/load bitwise: {bitwise}; resume == uninterrupted: {resume_identical}",
    )


def test_acceptance_8_data_pipeline(tmp_path):
    problems = []

    def tone_amp(freq, src=44100):
        t = np.arange(src) / src
        y = resample_sinc(np.sin(2 * np.pi * freq * t), src)
        mid = y[len(y) // 4 : 3 * len(y) // 4]
        return float(np.sqrt(2.0) * np.sqrt(np.mean(mid**2)))

    pass_amp, stop_amp = tone_amp(3900), tone_amp(5000)
    if pass_amp < 0.9:
        problems.append(f"3.9 kHz amplitude {pass_amp:.3f} < 0.9")
    if stop_amp > 0.05:
        problems.append(f"5 kHz amplitude {stop_amp:.4f} > 0.05")

    y = standardize(np.random.default_rng(5).uniform(-0.5, 0.5, 32000))
    if abs(y.mean()) >= 1e-5 or abs(y.var() - 1.0) >= 1e-4:
        problems.append("standardization tolerances violated")

    rows = ["slice_file_name,fold,classID"]
    rng = np.random.default_rng(8)
    for i in range(100):
        rows.append(f"c{i:03d}.wav,{rng.integers(1, 11)},{rng.integers(0, 10)}")
    meta = tmp_path / "meta.csv"
    meta.write_text("\n".join(rows) + "\n")
    index = DatasetIndex.from_metadata_csv(meta, tmp_path)
    tr, te = split_entries(index.entries, 10)
    tr_ids, te_ids = {e.clip_id for e in tr}, {e.clip_id for e in te}
    if tr_ids & te_ids or len(tr_ids | te_ids) != 100:
        problems.append("fold split not disjoint/exhaustive")

    conclude(
        8, "data-pipeline", not problems,
        "; ".join(problems) or f"pass {pass_amp:.3f}, stop {stop_amp:.4f}",
    )


@pytest.mark.skipif(
    not (os.environ.get("WAVECNN_US8K_DIR") and os.environ.get("WAVECNN_US8K_META")),
    reason="optional real-corpus smoke: set WAVECNN_US8K_DIR and WAVECNN_US8K_META",
)
def test_acceptance_9_small_real_data(tmp_path):
    data_dir = os.environ["WAVECNN_US8K_DIR"]
    meta = os.environ["WAVECNN_US8K_META"]
    full = DatasetIndex.from_metadata_csv(meta, data_dir, cache_dir=tmp_path / "cache")

    def subset(class_a=0, class_b=1, per_class=200):
        keep, counts = [], {class_a: 0, class_b: 0}
        for e in full.entries:
            if e.label not in counts:
                continue
            if e.fold != 10 and counts[e.label] >= per_class:
                continue
            if e.fold != 10:
                counts[e.label] += 1
            keep.append(
                e.__class__(e.clip_id, e.path, 0 if e.label == class_a else 1,
                            e.fold, e.duration)
            )
        return DatasetIndex(keep, ["a", "b"], cache_dir=tmp_path / "cache")

    results = {}
    for arch in ("m5", "m3"):
        cfg = TrainConfig(arch=arch, epochs=100, batch_size=32, seed=1,
                          num_classes=2, stop_at_train_acc=None)
        hist = train(cfg, subset()).history
        results[arch] = max(r.test_acc for r in hist)
    print(
        f"informational ordering (non-gating): m3 {results['m3']:.4f} vs "
        f"m5 {results['m5']:.4f} (expect m3 < m5)"
    )
    conclude(9, "small-real-data", results["m5"] > 0.7, f"m5 best test acc {results['m5']:.4f}")
