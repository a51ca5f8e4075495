"""The benchmark workloads: train-m3, train-m34res and ingest-eval.

Each workload is a closed loop: one caller in one process issues the next
call only when the previous one has returned. Untraced runs report the
end-to-end metrics; traced runs (`--trace 1`) report the per-layer ones.
README.md says why each workload exists.
"""

from __future__ import annotations

import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import inputs
import spans
from wavecnn import DatasetIndex, RandomSource, build, ops, training
from wavecnn.audio import CLIP_SAMPLES, WavError, make_batches

SETUP_REPEATS = 5
TRAIN_BATCH = 8
TRAIN_EPOCHS = 2  # one batch per epoch, a checkpoint after each
L2 = training.TrainConfig.l2_coeff
EVAL_BATCH = 64  # training.evaluate's default batch size


@dataclass
class Result:
    metrics: dict
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation whose output was checked."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def repeat_for(seconds: float, fn) -> list:
    """Call fn until `seconds` have passed (at least once); return its results."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(fn())
    return out


def throughput(clips_per_call: int, seconds: list) -> float:
    """Clips per second over every timed call of the run: all the clips
    over all the timed seconds."""
    return clips_per_call * len(seconds) / sum(seconds)


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def same_tensors(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- train-m3, train-m34res ---------------------------------------------------


def _train_config(arch, opts, work, epochs):
    return training.TrainConfig(
        arch=arch, epochs=epochs, batch_size=TRAIN_BATCH, seed=opts.seed,
        num_classes=inputs.NUM_CLASSES, channel_scale=opts.channel_scale,
        checkpoint_path=str(work / "train.ckpt"), checkpoint_every=1,
    )


def train_e2e(arch, opts, work, import_s) -> Result:
    data = inputs.TrainClips(opts.seed, TRAIN_BATCH)
    # Set-up: one short training call at the run's width (2 clips, 1 epoch,
    # with its checkpoint), so model build, allocation and BLAS start-up are
    # paid before timing.
    warm = inputs.TrainClips(opts.seed, 2)
    setups = [timed(training.train, _train_config(arch, opts, work, 1), warm)
              for _ in range(SETUP_REPEATS)]

    result = Result({})
    reference = {}  # losses and final parameters of the first call

    def call():
        config = _train_config(arch, opts, work, TRAIN_EPOCHS)
        t0 = time.perf_counter()
        res = training.train(config, data)
        dt = time.perf_counter() - t0
        losses = [h.train_loss for h in res.history]
        params = res.checkpoint.params
        back = training.load_checkpoint(config.checkpoint_path)
        if not reference:
            reference.update(losses=losses, params={k: v.copy() for k, v in params.items()})
        result.check(
            len(losses) == TRAIN_EPOCHS and bool(np.all(np.isfinite(losses))),
            f"train losses not all finite: {losses}",
        )
        result.check(
            losses == reference["losses"] and same_tensors(params, reference["params"]),
            f"losses {losses} or parameters differ from the first call's {reference['losses']}",
        )
        result.check(
            back.epoch == TRAIN_EPOCHS and same_tensors(back.params, params),
            "saved checkpoint does not restore the final parameters bitwise",
        )
        return dt

    clips = TRAIN_BATCH * TRAIN_EPOCHS
    training.train(_train_config(arch, opts, work, 1), data)  # warm-up, untimed
    times = repeat_for(opts.seconds, call)
    rates = [clips / t for t in times]
    result.metrics = {
        "clips_per_s": throughput(clips, times),
        "setup_s": import_s + median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.info = {
        "inputs": data.describe(TRAIN_BATCH, TRAIN_EPOCHS),
        "train_calls": len(rates),
        "train_clips_per_s_median": median(rates),
        "train_clips_per_s_min": min(rates),
        "train_clips_per_s_max": max(rates),
        "final_train_loss_nats": reference["losses"][-1],
        "setup_repeats_s": setups,
    }
    return result


def train_traced(arch, opts, work) -> Result:
    data = inputs.TrainClips(opts.seed, TRAIN_BATCH)
    graph = build(arch, num_classes=inputs.NUM_CLASSES, rng=RandomSource(opts.seed),
                  channel_scale=opts.channel_scale)
    adam = training.AdamState(graph.params)
    rng = RandomSource(opts.seed).derive(1)
    ckpt_path = work / "train.ckpt"
    rec = spans.Recorder()
    result = Result({})
    epoch = 0
    tape_lengths = set()

    def step(traced: bool):
        """One epoch as training.train runs it: a batch, forward, loss + L2,
        backward, Adam, checkpoint; the traced form drives graph.units with
        a LabelledTape instead of calling graph.forward."""
        nonlocal epoch
        epoch += 1
        r = rec if traced else spans.NullRecorder()
        with r.span("iteration"):
            with r.span("training.make_batches"):
                shuffle = RandomSource(opts.seed).derive(0, epoch)
                (batch,) = list(make_batches(data, data.entries, TRAIN_BATCH, shuffle))
            if traced:
                tape = spans.LabelledTape(rec)
                logits = batch.x.astype(graph.dtype, copy=False)
                for u in graph.units:
                    logits = u.forward(logits, graph, "train", tape, rng)
            else:
                res = graph.forward(batch.x, mode="train", rng=rng)
                logits, tape = res.logits, res.tape
            data_loss, _, grad_logits = ops.softmax_xent(logits, batch.labels)
            with r.span("training.l2"):
                loss = data_loss + training.l2_penalty(graph.params, L2)
            grads = {}
            tape.backward(grad_logits, grads)
            with r.span("training.l2"):
                training.add_l2_gradients(graph.params, grads, L2)
            with r.span("training.adam_step"):
                training.adam_step(graph.params, grads, adam)
            ckpt = training.Checkpoint(
                version=training.CHECKPOINT_VERSION, arch=arch, epoch=epoch,
                params=graph.params, state=graph.state,
                config={"arch": arch, "num_classes": inputs.NUM_CLASSES,
                        "channel_scale": opts.channel_scale},
                adam=adam, rng_state=rng.get_state(),
            )
            with r.span("training.save_checkpoint"):
                training.save_checkpoint(ckpt, ckpt_path)
            with r.span("training.load_checkpoint"):
                back = training.load_checkpoint(ckpt_path)
        result.check(bool(np.isfinite(loss)), f"epoch {epoch}: loss {loss}")
        result.check(grads.keys() == graph.params.keys(), f"epoch {epoch}: missing gradients")
        result.check(same_tensors(back.params, graph.params),
                     f"epoch {epoch}: checkpoint does not restore the parameters bitwise")
        tape_lengths.add(len(tape))
        return {"tape_records": len(tape)}

    step(False)  # warm-up
    shapes = spans.conv_shapes(graph, CLIP_SAMPLES, TRAIN_BATCH)
    samples = _traced_iterations(opts, graph, rec, step)
    result.check(len(tape_lengths) == 1,
                 f"traced tape records {tape_lengths} differ from graph.forward's")
    result.metrics, table = _layer_metrics(samples, shapes)
    result.metrics["training.checkpoint_bytes"] = ckpt_path.stat().st_size
    result.info = {"inputs": data.describe(TRAIN_BATCH, 1), "traced_iterations": len(samples.traced),
                   "iteration": "one training step with its checkpoint", "flop_table": table}
    return result


# --- ingest-eval ----------------------------------------------------------------


class IngestEval:
    """Restore m18, ingest the corpus cold then warm, evaluate it."""

    ARCH = "m18"

    def __init__(self, opts, work):
        self.opts, self.work = opts, work
        t0 = time.perf_counter()
        self.corpus = inputs.Corpus(opts.seed, work / "corpus")
        self.ckpt_path = work / "m18.ckpt"
        inputs.save_init_checkpoint(self.ARCH, opts.seed, opts.channel_scale, self.ckpt_path)
        self.inputs_s = time.perf_counter() - t0
        self.result = Result({})
        self.reference = None  # (cold clips, confusion) of the first iteration
        self.n = len(self.corpus.good)
        self.iterations = 0

    def describe(self) -> dict:
        return {**self.corpus.describe(), "arch": self.ARCH,
                "eval_batch": min(EVAL_BATCH, self.n), "clip_samples": CLIP_SAMPLES}

    def restore(self):
        return training.model_from_checkpoint(training.load_checkpoint(self.ckpt_path))

    def setup(self) -> float:
        """Restore the model, ingest two clips cold and evaluate them."""
        t0 = time.perf_counter()
        graph = self.restore()
        cache = self.work / "setup_cache"
        index = DatasetIndex(self.corpus.good[:2], inputs.CLASS_NAMES, cache)
        x = np.stack([index.load(e) for e in self.corpus.good[:2]])[..., None]
        training.evaluate(graph, x, self.corpus.labels[:2])
        dt = time.perf_counter() - t0
        shutil.rmtree(cache)
        return dt

    def iteration(self, rec=None) -> dict:
        """One pass: restore, cold ingest (malformed files included), warm
        ingest through a fresh index over the same cache dir, evaluate."""
        r = rec or spans.NullRecorder()
        corpus, check = self.corpus, self.result.check
        self.iterations += 1
        cache = self.work / f"cache_{self.iterations}"
        t0 = time.perf_counter()
        with r.span("iteration"):
            with r.span("training.load_checkpoint"):
                graph = self.restore()
            if rec is not None:
                spans.instrument_units(graph, rec)
            t1 = time.perf_counter()
            cold_index = DatasetIndex(corpus.good + corpus.bad, inputs.CLASS_NAMES, cache)
            cold = []
            for e in corpus.good:
                with r.span("audio.load_cold"):
                    cold.append(cold_index.load(e))
            rejected = []
            for e in corpus.bad:
                try:
                    with r.span("audio.load_cold"):
                        cold_index.load(e)
                    rejected.append(f"{e.clip_id}: loaded")
                except Exception as exc:  # the check below wants a WavError
                    rejected.append(exc)
            t2 = time.perf_counter()
            blobs = len(list(cache.iterdir()))
            warm_index = DatasetIndex(corpus.good, inputs.CLASS_NAMES, cache)
            warm, hits = [], 0  # hits: warm loads that did not decode (traced only)
            for e in corpus.good:
                decodes = rec.calls["audio.decode_wav"] if rec else 0
                with r.span("audio.load_warm"):
                    warm.append(warm_index.load(e))
                if rec:
                    hits += rec.calls["audio.decode_wav"] == decodes
            t3 = time.perf_counter()
            x = np.stack(warm)[..., None]
            with r.span("training.evaluate"):
                _, confusion = training.evaluate(graph, x, corpus.labels)
            t4 = time.perf_counter()
        blobs_after = len(list(cache.iterdir()))
        shutil.rmtree(cache)

        for e, c, w in zip(corpus.good, cold, warm):
            check(c.shape == (CLIP_SAMPLES,) and c.dtype == np.float32
                  and bool(np.all(np.isfinite(c))), f"{e.clip_id}: not 32000 finite float32")
            check(np.array_equal(c, w), f"{e.clip_id}: warm blob differs from cold clip")
        for e, outcome in zip(corpus.bad, rejected):
            check(isinstance(outcome, WavError), f"{e.clip_id}: expected WavError, got {outcome!r}")
        check(blobs == blobs_after == self.n, f"cache holds {blobs}/{blobs_after} blobs, want {self.n}")
        check(int(confusion.sum()) == self.n, f"confusion sums to {confusion.sum()}, not {self.n}")
        if self.reference is None:
            preds = np.concatenate([
                np.argmax(graph.forward(x[i : i + EVAL_BATCH], mode="infer").probs, axis=1)
                for i in range(0, self.n, EVAL_BATCH)
            ])
            again = np.zeros_like(confusion)
            np.add.at(again, (corpus.labels, preds), 1)
            check(np.array_equal(again, confusion), "second infer pass predicts differently")
            self.reference = (cold, confusion)
        else:
            ref_cold, ref_confusion = self.reference
            check(all(np.array_equal(a, b) for a, b in zip(ref_cold, cold)),
                  "cold clips differ between iterations")
            check(np.array_equal(ref_confusion, confusion), "confusion differs between iterations")
        return {
            "wall": t4 - t0, "restore": t1 - t0, "cold": t2 - t1, "warm": t3 - t2, "eval": t4 - t3,
            "audio.cache_hit_ratio": hits / self.n,
            "audio.rejected_ratio": sum(isinstance(o, WavError) for o in rejected) / len(rejected),
        }


def ingest_e2e(opts, work, import_s) -> Result:
    job = IngestEval(opts, work)
    setups = [job.setup() for _ in range(SETUP_REPEATS)]
    job.iteration()  # warm-up, untimed
    passes = repeat_for(opts.seconds, job.iteration)
    result = job.result
    result.metrics = {
        "clips_per_s": throughput(job.n, [p["wall"] for p in passes]),
        "setup_s": import_s + median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.info = {
        "inputs": job.describe(),
        "passes": len(passes),
        "clips_per_s_median": median(job.n / p["wall"] for p in passes),
        "ingest_cold_clips_per_s": median(job.n / p["cold"] for p in passes),
        "ingest_warm_clips_per_s": median(job.n / p["warm"] for p in passes),
        "eval_clips_per_s": median(job.n / p["eval"] for p in passes),
        "restore_s": median(p["restore"] for p in passes),
        "inputs_s": job.inputs_s,
        "setup_repeats_s": setups,
    }
    return result


def ingest_traced(opts, work) -> Result:
    job = IngestEval(opts, work)
    rec = spans.Recorder()
    job.iteration()  # warm-up
    shapes = spans.conv_shapes(job.restore(), CLIP_SAMPLES, min(EVAL_BATCH, job.n))
    samples = _traced_iterations(opts, None, rec, lambda traced: job.iteration(rec if traced else None))
    result = job.result
    result.metrics, table = _layer_metrics(samples, shapes)
    result.metrics["training.checkpoint_bytes"] = job.ckpt_path.stat().st_size
    result.info = {"inputs": job.describe(), "traced_iterations": len(samples.traced),
                   "iteration": "restore m18, cold + warm ingest, evaluate", "flop_table": table}
    return result


# --- traced-run bookkeeping -----------------------------------------------------


@dataclass
class TraceSamples:
    untraced_walls: list
    traced: list  # per traced iteration: span self times, calls, extras
    conv_totals: dict


def _traced_iterations(opts, graph, rec, iteration) -> TraceSamples:
    """Untraced and traced iterations in turn, so that drift in the
    machine's speed hits both alike; the difference of their median
    iteration times is the tracing overhead."""
    walls, traced, conv_totals = [], [], {}

    def pair():
        t0 = time.perf_counter()
        iteration(False)
        walls.append(time.perf_counter() - t0)
        rec.reset()
        with spans.patched(rec, graph):
            t0 = time.perf_counter()
            extra = iteration(True)
            wall = time.perf_counter() - t0
        for k, v in rec.totals.items():
            conv_totals[k] = conv_totals.get(k, 0.0) + v
        sample = dict(rec.self_s)
        sample.update({f"{k}#calls": v for k, v in rec.calls.items()})
        sample.update(extra)
        sample["conv.bytes"] = rec.totals["conv.bytes"]
        sample["traced_wall"] = wall
        traced.append(sample)

    repeat_for(opts.seconds, pair)
    return TraceSamples(walls, traced, conv_totals)


def _layer_metrics(samples: TraceSamples, shapes: list) -> tuple:
    """Per-layer metrics (medians over traced iterations) and the per-conv
    FLOP table, with the GEMM rates measured now, in this process."""
    table, g32, g64 = spans.flop_table(shapes)

    def med(key):
        return float(median(s.get(key, 0.0) for s in samples.traced))

    def rate(flop, secs):
        t = samples.conv_totals.get(secs, 0.0)
        return samples.conv_totals.get(flop, 0.0) / t / 1e9 if t else 0.0

    m = {}
    for g in spans.UNIT_GROUPS:
        m[f"models.{g}.fwd_s"] = med(f"models.{g}.fwd")
        m[f"models.{g}.bwd_s"] = med(f"models.{g}.bwd")
    m["models.tape_records"] = med("tape_records")
    m["ops.conv1d.fwd_gflops"] = rate("conv.fwd_flop", "conv.fwd_s")
    m["ops.conv1d.bwd_gflops"] = rate("conv.bwd_flop", "conv.bwd_s")
    m["ops.conv1d.computed_bytes"] = med("conv.bytes")
    m["blas.gemm_f32_gflops"] = g32
    m["blas.gemm_f64_gflops"] = g64
    m["tensor.check_finite_s"] = med("tensor.check_finite")
    m["tensor.check_finite_calls"] = med("tensor.check_finite#calls")
    for name in ("adam_step", "l2", "save_checkpoint", "load_checkpoint", "make_batches", "evaluate"):
        m[f"training.{name}_s"] = med(f"training.{name}")
    m["audio.decode_wav_s"] = med("audio.decode_wav")
    m["audio.resample_s"] = med("audio.resample")
    m["audio.cache_write_s"] = med("audio.load_cold")
    m["audio.cache_read_s"] = med("audio.load_warm")
    m["audio.cache_hit_ratio"] = med("audio.cache_hit_ratio")
    m["audio.rejected_ratio"] = med("audio.rejected_ratio")
    untraced = median(samples.untraced_walls)
    m["trace.unattributed_s"] = med("iteration")
    m["trace.untraced_iteration_s"] = untraced
    m["trace.overhead_s"] = med("traced_wall") - untraced
    return m, table


RUNNERS = {
    "train-m3": (lambda o, w, i: train_e2e("m3", o, w, i), lambda o, w: train_traced("m3", o, w)),
    "train-m34res": (lambda o, w, i: train_e2e("m34-res", o, w, i),
                     lambda o, w: train_traced("m34-res", o, w)),
    "ingest-eval": (ingest_e2e, ingest_traced),
}
