import collections
import hashlib
import tracemalloc

import numpy as np
import pytest

from wavecnn import build, count_parameters, models, ops, shape_trace
from wavecnn.models import (
    parameter_breakdown,
    rounded_millions,
    valid_architectures,
)
from wavecnn.ops import softmax_xent
from wavecnn.tensor import RandomSource
from wavecnn.training import EVAL_BATCH, evaluate


def closed_form_count(column, num_classes=10, with_bn=True, fc=False):
    """Independent parameter-count oracle from the published layer lists.

    column = [(rf, in_ch, out_ch), ...] for every conv in order; BN adds
    2*out per conv, no-BN adds a bias per conv; the head is dense
    (last_ch * classes + classes), optionally preceded by two bias-free
    1000-wide FC layers each with BN.
    """
    total = 0
    for rf, cin, cout in column:
        total += rf * cin * cout + (2 * cout if with_bn else cout)
    last = column[-1][2]
    if fc:
        total += last * 1000 + 2000  # fc1 + its BN
        total += 1000 * 1000 + 2000  # fc2 + its BN
        last = 1000
    total += last * num_classes + num_classes
    return total


def conv_column(name):
    cols = {
        "m3": [(80, 1, 256), (3, 256, 256)],
        "m5": [(80, 1, 128), (3, 128, 128), (3, 128, 256), (3, 256, 512)],
        "m11": [(80, 1, 64)]
        + [(3, 64, 64)] * 2
        + [(3, 64, 128)] + [(3, 128, 128)]
        + [(3, 128, 256)] + [(3, 256, 256)] * 2
        + [(3, 256, 512)] + [(3, 512, 512)],
        "m18": [(80, 1, 64)]
        + [(3, 64, 64)] * 4
        + [(3, 64, 128)] + [(3, 128, 128)] * 3
        + [(3, 128, 256)] + [(3, 256, 256)] * 3
        + [(3, 256, 512)] + [(3, 512, 512)] * 3,
        "m34-res": [(80, 1, 48)]
        + [(3, 48, 48)] * 6
        + [(3, 48, 96)] + [(3, 96, 96)] * 7
        + [(3, 96, 192)] + [(3, 192, 192)] * 11
        + [(3, 192, 384)] + [(3, 384, 384)] * 5,
    }
    return cols[name]


GOLDEN_COUNTS = {
    "m3": 220_682,
    "m5": 558_090,
    "m11": 1_784_202,
    "m18": 3_679_882,
    "m34-res": 3_972_778,
}
PUBLISHED_LABELS_M = {"m3": 0.2, "m5": 0.5, "m11": 1.8, "m18": 3.7, "m34-res": 4.0}


class TestGoldenCounts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
    def test_exact_count_matches_closed_form(self, name):
        graph = build(name, rng=RandomSource(0))
        got = count_parameters(graph)
        assert got == closed_form_count(conv_column(name)) == GOLDEN_COUNTS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
    def test_count_agrees_with_published_label(self, name):
        # The published labels mix rounding up (3.97M -> 4M) and truncation
        # (0.558M -> 0.5M); gate on agreement within one 0.1M step.
        got = count_parameters(build(name, rng=RandomSource(0)))
        assert abs(got / 1e6 - PUBLISHED_LABELS_M[name]) < 0.1

    def test_big_variants_match_published_counts(self):
        big3 = count_parameters(build("m3-big", rng=RandomSource(0)))
        big5 = count_parameters(build("m5-big", rng=RandomSource(0)))
        assert big3 == closed_form_count([(80, 1, 384), (3, 384, 384)]) == 478_474
        assert rounded_millions(big3) == "0.5M"
        assert big5 == closed_form_count(
            [(80, 1, 256), (3, 256, 256), (3, 256, 512), (3, 512, 1024)]
        ) == 2_197_514
        assert rounded_millions(big5) == "2.2M"

    def test_fc_variant_counts_report(self):
        """Golden-test report for the -fc heads.

        The implemented wiring (GAP output -> FC 1000 -> FC 1000 -> dense)
        is verified against its own closed form; the published coarse
        labels (129M, 18M, 1.8M, 8.7M) are irreconcilable with any single
        wiring and are printed for the record, not gated.
        """
        published = {"m3-fc": 129, "m5-fc": 18, "m11-fc": 1.8, "m18-fc": 8.7}
        for name, label in published.items():
            base = name[:-3]
            got = count_parameters(build(name, rng=RandomSource(0)))
            expect = closed_form_count(conv_column(base), fc=True)
            assert got == expect
            print(
                f"fc-count report: {name} implemented={got} ({rounded_millions(got)}) "
                f"published_label={label}M"
            )

    def test_no_bn_count_drops_bn_adds_bias(self):
        col = conv_column("m11")
        got = count_parameters(build("m11-no-bn", rng=RandomSource(0)))
        assert got == closed_form_count(col, with_bn=False)

    def test_breakdown_sums_to_total(self):
        graph = build("m5", rng=RandomSource(0))
        assert sum(c for _, c in parameter_breakdown(graph)) == count_parameters(graph)

    @pytest.mark.parametrize("name", valid_architectures())
    def test_unit_param_names_are_the_graph_params(self, name):
        """Each unit names exactly what its build registered: over the units,
        in order, the names are the graph's parameter map."""
        graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
        assert [n for u in graph.units for n in u.param_names()] == list(graph.params)

    def test_running_stats_not_counted(self):
        graph = build("m3", rng=RandomSource(0))
        assert all("running" not in name for name in graph.params)
        assert any("running" in name for name in graph.state)


class TestShapeTrace:
    def _pooled_sizes(self, name, T=32000):
        rows = shape_trace(name, T)
        return [t for label, (t, _) in rows if label.startswith("maxpool")]

    def test_m18_published_pool_sizes(self):
        assert self._pooled_sizes("m18") == [2000, 500, 125, 32]
        assert shape_trace("m18", 32000)[-2][1] == (1, 512)  # GAP row

    def test_m34_ceil_step_125_to_32(self):
        sizes = self._pooled_sizes("m34-res")
        assert 125 in sizes and 32 in sizes
        assert sizes[sizes.index(125) + 1] == 32

    @pytest.mark.parametrize(
        "name,expect",
        [
            ("m3", [2000, 500]),
            ("m5", [2000, 500, 125, 32]),
            ("m11", [2000, 500, 125, 32]),
            ("m18", [2000, 500, 125, 32]),
            ("m34-res", [2000, 500, 125, 32]),
        ],
    )
    def test_all_columns(self, name, expect):
        assert self._pooled_sizes(name) == expect

    def test_variable_length_input(self):
        """T=8000 traces through the ceil law: 500, 125, 32, 8."""
        assert self._pooled_sizes("m18", 8000) == [500, 125, 32, 8]

    def test_stride1_variant_trace(self):
        rows = dict(shape_trace("m11-stride1", 32000))
        assert rows["conv1"] == (32000, 64)
        assert self._pooled_sizes("m11-stride1") == [8000, 2000, 500, 125]

    def test_input_shorter_than_field_rejected(self):
        with pytest.raises(ValueError, match="receptive field"):
            shape_trace("m18", 50)

    @pytest.mark.parametrize("name", valid_architectures())
    def test_zero_clip_trace_stays_cheap(self, name):
        """The trace forwards zero clips at published width, so its memory
        is per-layer setup only; an op doing per-clip work at B=0 shows.
        The peak is at most 0.05 MiB (m18-fc); the 0.25 MiB budget leaves
        0.2 MiB of headroom, and one stem clip buffer exceeds it (m3's
        im2col rows take 2.4 MiB)."""
        graph = build(name, rng=RandomSource(0))
        tracemalloc.start()
        try:
            shape_trace(graph, 32000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("name", valid_architectures())
    def test_trace_matches_unit_outputs(self, name):
        """Each unit's infer-mode output has the (T, C) of its shape_trace
        row; a 2-D head output counts as T=1."""
        graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
        rows = shape_trace(graph, 3200)
        assert rows[0] == ("input", (3200, 1))
        h = RandomSource(1).normal((2, 3200, 1))
        for unit, row in zip(graph.units, rows[1:], strict=True):
            h = unit.forward(h, graph, "infer", None, None)
            got = (1, h.shape[1]) if h.ndim == 2 else h.shape[1:]
            assert (unit.label, got) == row


class TestNameLaw:
    @pytest.mark.parametrize(
        "name,count",
        [
            ("m3", 3), ("m5", 5), ("m11", 11), ("m18", 18), ("m34-res", 34),
            ("m3-big", 3), ("m5-big", 5), ("m11-srf", 11), ("m18-lrf", 18),
            ("m11-no-bn", 11), ("m34-no-bn", 34), ("m11-stride1", 11),
        ],
    )
    def test_weight_layers_match_name_number(self, name, count):
        graph = build(name, rng=RandomSource(0))
        assert graph.weight_layer_count() == count

    @pytest.mark.parametrize("name", ["m3-fc", "m5-fc", "m11-fc", "m18-fc"])
    def test_fc_variants_add_two_weight_layers(self, name):
        base = int(name[1:].split("-")[0])
        graph = build(name, rng=RandomSource(0))
        assert graph.weight_layer_count() == base + 2

    def test_m34_is_33_convs_plus_dense(self):
        graph = build("m34-res", rng=RandomSource(0))
        convs = {n.split(".")[0] for n in graph.params if n.startswith("conv")}
        assert len(convs) == 33 and "dense.w" in graph.params


class TestVariants:
    def test_receptive_field_variants(self):
        assert build("m11-srf", rng=RandomSource(0)).params["conv1.kernel"].shape[0] == 8
        assert build("m18-lrf", rng=RandomSource(0)).params["conv1.kernel"].shape[0] == 320

    def test_big_widen_first_layer_filters(self):
        assert build("m3-big", rng=RandomSource(0)).params["conv1.kernel"].shape[2] == 384
        assert build("m5-big", rng=RandomSource(0)).params["conv1.kernel"].shape[2] == 256

    def test_no_bn_has_biases_no_bn_params(self):
        graph = build("m18-no-bn", rng=RandomSource(0))
        assert "conv1.bias" in graph.params
        assert not any(".bn." in n for n in graph.params)
        assert not graph.state

    def test_fc_variant_has_dropout_and_bn(self):
        graph = build("m3-fc", rng=RandomSource(0))
        assert "fc1.w" in graph.params and "fc2.bn.gamma" in graph.params

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build("m7")
        with pytest.raises(ValueError, match="unknown architecture"):
            build("m11-big")

    def test_valid_architectures_buildable(self):
        for name in valid_architectures():
            build(name, rng=RandomSource(0), channel_scale=1 / 16)


# sha256 over unit labels, then parameter names, shapes, dtypes and init
# bytes, then state names, each in insertion order, at width 1/16 and
# RandomSource(0). The order matters beyond the values: checkpoint
# manifests, Adam's iteration and the gradient-ratio diagnostic's first
# parameter all follow it.
ARCHITECTURE_GOLDEN = {
    "m11": "ce6325acd20166bc5e89eb27350d406e98de2ddf3b717f932c26a9c0846675c7",
    "m11-fc": "5b4bb52bad54f58834f7c0e8d74eddfc7e85e19436e8a638144f925174258e81",
    "m11-lrf": "827ac6bc16362f6d2db467da66742f05358ffe294fa60336b2dd86ebdb0e7606",
    "m11-no-bn": "565887e0a483e37917f5f760adf5f719bfa16931f2587306b7ce524ee545e315",
    "m11-srf": "bb336f0bdf3b25758b872dc24bc707ae9eb9f2673abc86cc04bc0cdc3497dd0b",
    "m11-stride1": "ce6325acd20166bc5e89eb27350d406e98de2ddf3b717f932c26a9c0846675c7",
    "m18": "90621598c3739ab1b624fd90ec7fcd05c691f40206ab3cee8a4d868a67a3d40c",
    "m18-fc": "f5b79e42346421f181c677e3d190c4444fe2780c466eaefcb4be899654103697",
    "m18-lrf": "30071ad830ad7b574020c74e9afd40f4ff877a3ac176a69ed9e4443d3241354b",
    "m18-no-bn": "355a2ae52c77114d956b5ef67cf3443f73d6afd2ba0f48b13873765b6890bad7",
    "m18-srf": "1a1cbf7b01b79b29f9a386d6d26aa461991cd189914a789c0e1e9e1d36dea159",
    "m3": "4783428d1aca998bbc8af624a575f12a3c21fe4f05f70c0a744885cefca2a66e",
    "m3-big": "705dc2280db5ee13adbc345f465b1ba6a039eec120e7377ddd704b5d85b52a2e",
    "m3-fc": "7ff4aa58f9e0b7a17ca534ec4a5bbd8141ab2e98ee51f66b8226ff9b721774bd",
    "m3-no-bn": "49640e19074f1254b47b54ab1e6b949c36e1f67a57a088d6bb17c9a752c392ff",
    "m34-no-bn": "52fca640d6e620559c89482eea511e04fe5c0af92d3de472d1d6352e95b1ad7b",
    "m34-res": "8f9e7668ae3ccf03e5e5ea63fa3d814262e777b3cf6b89f2052e8255827c8cd6",
    "m5": "59a3ff3a22d2fa403f54ffaccb4a7cadafeb9db2861893b961ae590bebf1c018",
    "m5-big": "c1ac6240db52a3c0b0c87e98f3dc1c956cf74ca828a11bb01d672de42f421c15",
    "m5-fc": "f0e9b0a235c7b3b33588c1ba96aeef98b07acb371e5d0ca34d667962b07b0422",
    "m5-no-bn": "70e4176acbe3e0b429326546a1b494b1225ab015384025634e124de461d8c474",
}


def _architecture_digest(graph):
    h = hashlib.sha256()
    for u in graph.units:
        h.update(f"unit {u.label}\n".encode())
    for k, v in graph.params.items():
        h.update(f"param {k} {v.shape} {v.dtype.str}\n".encode())
        h.update(v.tobytes())
    for k in graph.state:
        h.update(f"state {k}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", valid_architectures())
def test_architecture_golden(name):
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
    assert _architecture_digest(graph) == ARCHITECTURE_GOLDEN[name]


def test_architecture_golden_covers_every_name():
    assert sorted(ARCHITECTURE_GOLDEN) == valid_architectures()


def _param_digest(graph):
    h = hashlib.sha256()
    for name in sorted(graph.params):
        h.update(name.encode())
        h.update(graph.params[name].tobytes())
    for name in sorted(graph.state):
        h.update(graph.state[name].tobytes())
    return h.hexdigest()


class TestForward:
    def test_fresh_model_rows_sum_to_one(self):
        graph = build("m5", rng=RandomSource(4), channel_scale=1 / 8)
        x = RandomSource(5).normal((3, 4000, 1))
        res = graph.forward(x, mode="infer")
        np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_inference_is_length_independent(self):
        graph = build("m18", rng=RandomSource(4), channel_scale=1 / 16)
        for T in (32000, 16000):
            x = RandomSource(6).normal((1, T, 1))
            assert graph.forward(x, mode="infer").probs.shape == (1, 10)

    def test_train_mode_returns_tape_with_full_coverage(self):
        graph = build("m11", rng=RandomSource(4), channel_scale=1 / 16)
        x = RandomSource(7).normal((2, 2000, 1))
        res = graph.forward(x, mode="train")
        _, _, dlogits = softmax_xent(res.logits, np.array([0, 1]))
        grads = {}
        res.tape.backward(dlogits, grads)
        assert set(grads) == set(graph.params)

    def test_train_mode_batch_one_rejected(self):
        graph = build("m3", rng=RandomSource(4), channel_scale=1 / 16)
        x = np.zeros((1, 1000, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="batch size"):
            graph.forward(x, mode="train")

    def test_infer_mode_mutates_nothing(self):
        graph = build("m5", rng=RandomSource(4), channel_scale=1 / 8)
        x = RandomSource(8).normal((2, 3000, 1))
        before = _param_digest(graph)
        graph.forward(x, mode="infer")
        assert _param_digest(graph) == before

    def test_train_mode_updates_running_stats(self):
        graph = build("m5", rng=RandomSource(4), channel_scale=1 / 8)
        x = RandomSource(8).normal((2, 3000, 1))
        before = graph.state["conv1.bn.running_mean"].copy()
        graph.forward(x, mode="train")
        assert not np.array_equal(graph.state["conv1.bn.running_mean"], before)

    def test_unknown_mode_rejected(self):
        """Without BN no op checks the mode, so the graph does."""
        graph = build("m3-no-bn", rng=RandomSource(4), channel_scale=1 / 16)
        x = np.zeros((2, 1000, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="mode"):
            graph.forward(x, mode="trian")

    def test_short_input_rejected(self):
        graph = build("m3", rng=RandomSource(4), channel_scale=1 / 16)
        with pytest.raises(ValueError, match="receptive field"):
            graph.forward(np.zeros((2, 60, 1), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(2, 1000), (2, 1000, 2), (1, 2, 1000, 1)])
    def test_input_not_batch_time_one_rejected(self, shape):
        graph = build("m3", rng=RandomSource(4), channel_scale=1 / 16)
        with pytest.raises(ValueError, match=r"expected input \[B,T,1\]"):
            graph.forward(np.zeros(shape, dtype=np.float32))

    def test_same_seed_same_init(self):
        a = build("m11", rng=RandomSource(42), channel_scale=1 / 8)
        b = build("m11", rng=RandomSource(42), channel_scale=1 / 8)
        assert _param_digest(a) == _param_digest(b)


# Tape records per train-mode forward. A change here changes what the
# backward walks, and the benchmark's models.tape_records with it. Every
# ReLU is a record of its own. A maxpool after a BN conv runs inside that
# conv's batch norm, so the maxpool unit records only the ReLU.
_TAPE_RECORDS = {
    "m11": 32, "m11-fc": 40, "m11-lrf": 32, "m11-no-bn": 26, "m11-srf": 32,
    "m11-stride1": 32, "m18": 53, "m18-fc": 61, "m18-lrf": 53, "m18-no-bn": 40,
    "m18-srf": 53, "m3": 8, "m3-big": 8, "m3-fc": 16, "m3-no-bn": 8,
    "m34-no-bn": 104, "m34-res": 136, "m5": 14, "m5-big": 14, "m5-fc": 22,
    "m5-no-bn": 14,
}


@pytest.mark.parametrize("name", valid_architectures())
def test_tape_structure(name):
    """The backward yields a gradient for exactly the parameters (adam_step
    silently ignores extra keys, such as a bias gradient for a BN conv),
    from a tape of the pinned length."""
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
    x = RandomSource(0).normal((2, 1280, 1))
    res = graph.forward(x, mode="train", rng=RandomSource(0))
    _, _, dlogits = softmax_xent(res.logits, np.array([0, 1]))
    grads = {}
    res.tape.backward(dlogits, grads)
    assert set(grads) == set(graph.params)
    assert len(res.tape) == _TAPE_RECORDS[name]


@pytest.mark.parametrize("name", valid_architectures())
def test_every_pooled_bn_conv_runs_as_one_op(name, monkeypatch):
    """Each BN conv unit that a maxpool unit follows, and no other unit,
    runs its conv, batch norm and pool as one conv1d_bn_pool_forward."""
    kernels = []
    fn = ops.conv1d_bn_pool_forward
    monkeypatch.setattr(ops, "conv1d_bn_pool_forward",
                        lambda x, p, s, mode: kernels.append(p.kernel) or fn(x, p, s, mode))
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
    graph.forward(RandomSource(0).normal((2, 1280, 1)), mode="train", rng=RandomSource(0))
    pooled = [graph.params[f"{u.label}.kernel"] for u, after in zip(graph.units, graph.units[1:])
              if isinstance(u, models._ConvUnit) and u.with_bn
              and isinstance(after, models._MaxPoolUnit)]
    assert bool(pooled) == ("no-bn" not in name)
    assert [id(k) for k in kernels] == [id(k) for k in pooled]


@pytest.mark.parametrize("name", valid_architectures())
def test_each_parameter_gradient_has_one_writer(name, monkeypatch):
    """Every parameter gets its gradient from exactly one tape record per
    forward, so storing it (no sum) loses nothing."""
    writers = collections.Counter()
    record = models._record

    def counting_record(tape, backward, cache, *names):
        def counted(g, cache):
            out = backward(g, cache)
            if names:
                writers.update(n for n, grad in zip(names, out[1:]) if grad is not None)
            return out
        record(tape, counted, cache, *names)

    monkeypatch.setattr(models, "_record", counting_record)
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
    x = RandomSource(0).normal((2, 1280, 1))
    res = graph.forward(x, mode="train", rng=RandomSource(0))
    _, _, dlogits = softmax_xent(res.logits, np.array([0, 1]))
    res.tape.backward(dlogits, {})
    assert writers == collections.Counter(list(graph.params))


def _published_order_forward(graph, x, mode, rng):
    """The graph's forward with every tail before its maxpool, in the
    published order: conv -> BN + ReLU -> maxpool, or ReLU -> maxpool."""
    h = x
    for u in graph.units:
        if isinstance(u, models._ConvUnit):
            h = u.conv_bn([h], graph, mode, None, relu=True)
        elif isinstance(u, models._MaxPoolUnit):
            h = ops.maxpool1d_forward(h, mode)[0]
        else:
            h = u.forward(h, graph, mode, None, rng)
    return h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", valid_architectures())
def test_pool_after_tail_matches_published_order(name, dtype):
    """A maxpool that runs the preceding BN conv's batch norm and ReLU gives
    the train logits, running stats and infer logits of the published order
    bitwise. BN gammas are drawn with both signs, and T = 2000 puts a ceil
    window (125 -> 32) after a BN conv or a block."""
    graph = build(name, rng=RandomSource(0), dtype=dtype, channel_scale=1 / 16)
    ref = build(name, rng=RandomSource(0), dtype=dtype, channel_scale=1 / 16)
    draw = np.random.default_rng(3)
    for k, v in graph.params.items():
        if k.endswith(".bn.gamma"):
            v[...] = draw.uniform(-2.0, 2.0, v.shape)
            ref.params[k][...] = v
    x = RandomSource(1).normal((2, 2000, 1)).astype(dtype)
    got = graph.forward(x, mode="train", rng=RandomSource(2)).logits
    want = _published_order_forward(ref, x, "train", RandomSource(2))
    np.testing.assert_array_equal(got, want)
    for k in graph.state:
        np.testing.assert_array_equal(graph.state[k], ref.state[k])
    np.testing.assert_array_equal(graph.forward(x).logits,
                                  _published_order_forward(ref, x, "infer", None))


def _step_peak_over_stem(name):
    """Tracemalloc peak of one train step (forward and backward) at 1/4
    width and B=4, over the bytes of the stem conv's float32 output."""
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 4)
    x = RandomSource(1).normal((4, 32000, 1)).astype(np.float32)
    stem_T, stem_ch = shape_trace(graph, 32000)[1][1]
    stem_bytes = 4 * stem_T * stem_ch * 4
    tracemalloc.start()
    try:
        res = graph.forward(x, mode="train", rng=RandomSource(2))
        _, _, dlogits = softmax_xent(res.logits, np.arange(4) % 10)
        res.tape.backward(dlogits, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / stem_bytes


def test_train_step_peak_memory():
    """Backward releases each record once run; the stem runs its conv,
    batch norm and maxpool in one streamed pass that never builds the stem
    output, and its conv's backward rebuilds that output one clip at a
    time; conv2 builds grad_x in its padded input and adds its taps through
    one clip-sized buffer. conv2's input dies at its padded copy, and each
    ReLU keeps its mask as bits. So an m3 step never holds a whole stem
    output: 1.207x measured, in conv2's backward, pinned at 1.28x (1.414x,
    pinned at 1.42x, while conv2's input lived through its batch norm and
    the masks took a byte an element)."""
    ratio = _step_peak_over_stem("m3")
    assert ratio <= 1.28, f"peak {ratio:.2f}x the stem output"


def test_stride1_stem_train_step_peak_memory():
    """m11-stride1's stride-1 stem output is 4x longer than m3's. Its
    stem streams as m3's does, so the step peaks near the end of the
    forward, where every later layer's cache is live, and at the start of
    the backward: 2.562x measured, pinned at 2.75x (2.788x while each conv
    input lived through its conv, the masks took a byte an element and the
    batch-norm sums made a block per clip)."""
    ratio = _step_peak_over_stem("m11-stride1")
    assert ratio <= 2.75, f"peak {ratio:.2f}x the stem output"


def test_evaluate_peak_memory():
    """In infer mode every pooled conv goes clip by clip through one output
    buffer, the stem and the deep convs alike, conv2's input dies at its
    padded copy and no ReLU makes a mask, so evaluating one batch of m3 at
    published width holds 0.548x that batch's stem output, measured at
    conv2. The bound leaves 0.06 of headroom, about two of conv2's clip
    buffers; holding conv2's input through the conv measured 0.641x,
    building conv2's whole output too 0.88x, and the stem's 1.50x."""
    graph = build("m3", rng=RandomSource(0))
    x = RandomSource(1).normal((EVAL_BATCH, 32000, 1)).astype(np.float32)
    stem_T, stem_ch = shape_trace(graph, 32000)[1][1]
    tracemalloc.start()
    try:
        evaluate(graph, x, np.arange(EVAL_BATCH) % 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / (EVAL_BATCH * stem_T * stem_ch * 4)
    assert ratio < 0.61, f"peak {ratio:.2f}x the stem output"


@pytest.mark.parametrize("name", valid_architectures())
def test_graph_builds_no_waveform_gradient(name):
    """The graph's backward returns None for the waveform, whose gradient
    nothing reads, and the parameter gradients of its units driven one by
    one, whose backward does build the input gradient, bit for bit."""
    x = RandomSource(0).normal((2, 1280, 1))
    labels = np.array([0, 1])
    runs = []
    for via_graph in (True, False):
        graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
        if via_graph:
            res = graph.forward(x, mode="train", rng=RandomSource(1))
            h, tape = res.logits, res.tape
        else:
            h, tape, rng = graph._input(x), ops.OpTape(), RandomSource(1)
            for u in graph.units:
                h = u.forward(h, graph, "train", tape, rng)
        grads = {}
        gx = tape.backward(softmax_xent(h, labels)[2], grads)
        runs.append((gx, grads))
    (gx_graph, grads_graph), (gx_units, grads_units) = runs
    assert gx_graph is None and gx_units.shape == x.shape
    assert grads_graph.keys() == grads_units.keys()
    for k, g in grads_graph.items():
        assert g.tobytes() == grads_units[k].tobytes(), k


@pytest.mark.parametrize("name", valid_architectures())
def test_infer_logits_of_a_clip_do_not_depend_on_its_batch(name):
    """Each clip's float32 infer logits are the same bits alone (B=1) as
    inside a batch of 3, with running statistics away from (0, 1)."""
    graph = build(name, rng=RandomSource(0), channel_scale=1 / 16)
    draw = np.random.default_rng(1)
    for k, v in graph.state.items():
        v[...] = draw.uniform(0.5, 1.5, v.shape) if k.endswith("var") else draw.normal(0, 0.1, v.shape)
    x = RandomSource(2).normal((3, 1280, 1))
    batch = graph.forward(x).logits
    for b in range(len(x)):
        assert graph.forward(x[b : b + 1]).logits.tobytes() == batch[b : b + 1].tobytes(), b


def test_tape_structure_covers_every_name():
    assert sorted(_TAPE_RECORDS) == valid_architectures()
