"""Finite-difference trial runners shared by the gradient tests.

Every trial builds a random small case in float64, computes analytic
gradients through the op's backward rule (for the conv unit, the conv unit
with the maxpool unit after it, and the residual block, through the model
units' op tape), and compares against central finite differences
(h = 1e-5) of a scalar projection of the forward pass.
Returns the worst normwise relative error over the trial's gradients.
"""

import zlib
from types import SimpleNamespace

import numpy as np

from wavecnn import models, ops
from wavecnn.tensor import RandomSource
from naive_ref import numerical_gradient, relative_error

H = 1e-5


def _proj(rng, shape):
    return rng.standard_normal(shape)


def conv_trial(rng):
    B = int(rng.integers(1, 3))
    T = int(rng.integers(4, 13))
    Cin = int(rng.integers(1, 4))
    Cout = int(rng.integers(1, 5))
    rf = int(rng.choice([1, 3, 8]))
    stride = int(rng.choice([1, 2, 4]))
    with_bias = bool(rng.integers(0, 2))
    x = rng.standard_normal((B, T, Cin))
    k = rng.standard_normal((rf, Cin, Cout))
    b = rng.standard_normal(Cout) if with_bias else None

    y, cache = ops.conv1d_forward(x, ops.ConvParams(k, b, stride))
    R = _proj(rng, y.shape)
    gx, gk, gb = ops.conv1d_backward(R, cache)

    def run(xv, kv, bv):
        out, _ = ops.conv1d_forward(xv, ops.ConvParams(kv, bv, stride))
        return float((out * R).sum())

    errs = [
        relative_error(gx, numerical_gradient(lambda v: run(v, k, b), x, H)),
        relative_error(gk, numerical_gradient(lambda v: run(x, v, b), k, H)),
    ]
    if with_bias:
        errs.append(relative_error(gb, numerical_gradient(lambda v: run(x, k, v), b, H)))
    return max(errs)


def maxpool_trial(rng):
    B = int(rng.integers(1, 3))
    T = int(rng.integers(2, 19))
    C = int(rng.integers(1, 4))
    # Spread values so +-h perturbations cannot flip a window's argmax.
    x = rng.permutation(B * T * C).astype(np.float64).reshape(B, T, C)
    x += rng.uniform(-0.3, 0.3, x.shape)
    y, cache = ops.maxpool1d_forward(x, "train")
    R = _proj(rng, y.shape)
    gx = ops.maxpool1d_backward(R, cache)

    def run(xv):
        out, _ = ops.maxpool1d_forward(xv, "train")
        return float((out * R).sum())

    return relative_error(gx, numerical_gradient(run, x, H))


def batchnorm_trial(rng, shape=None):
    if shape is None:
        shape = (int(rng.integers(2, 5)), int(rng.integers(3, 13)), int(rng.integers(1, 4)))
    C = shape[-1]
    x = rng.standard_normal(shape) * 2.0 + rng.standard_normal(C)
    gamma = rng.standard_normal(C) + 1.5
    beta = rng.standard_normal(C)

    def state():
        return ops.BatchNormState(
            gamma=gamma.copy(), beta=beta.copy(),
            running_mean=np.zeros(C), running_var=np.ones(C),
        )

    # The backward builds gx in the buffer it is given; x is read below.
    y, cache = ops.batchnorm_forward(x.copy(), state(), "train")
    R = _proj(rng, y.shape)
    gx, gg, gb = ops.batchnorm_backward(R, cache)

    def run(xv, gv, bv):
        s = state()
        s.gamma, s.beta = gv, bv
        out, _ = ops.batchnorm_forward(xv, s, "train")
        return float((out * R).sum())

    return max(
        relative_error(gx, numerical_gradient(lambda v: run(v, gamma, beta), x, H)),
        relative_error(gg, numerical_gradient(lambda v: run(x, v, beta), gamma, H)),
        relative_error(gb, numerical_gradient(lambda v: run(x, gamma, v), beta, H)),
    )


def gap_trial(rng):
    x = rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 15)), int(rng.integers(1, 5))))
    y, T = ops.global_avg_pool(x)
    R = _proj(rng, y.shape)
    gx = ops.global_avg_pool_backward(R, T)

    def run(xv):
        out, _ = ops.global_avg_pool(xv)
        return float((out * R).sum())

    return relative_error(gx, numerical_gradient(run, x, H))


def dense_xent_trial(rng, dims=None):
    B, C, K = dims or (int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 6)))
    x = rng.standard_normal((B, C))
    w = rng.standard_normal((C, K))
    b = rng.standard_normal(K)
    labels = rng.integers(0, K, B)

    logits, cache = ops.affine_forward(x, w, b)
    _, _, grad_logits = ops.softmax_xent(logits, labels)
    gx, gw, gb = ops.affine_backward(grad_logits, cache)

    def run(xv, wv, bv):
        return ops.softmax_xent(ops.affine_forward(xv, wv, bv)[0], labels)[0]

    return max(
        relative_error(gx, numerical_gradient(lambda v: run(v, w, b), x, H)),
        relative_error(gw, numerical_gradient(lambda v: run(x, v, b), w, H)),
        relative_error(gb, numerical_gradient(lambda v: run(x, w, v), b, H)),
    )


def relu_trial(rng):
    x = rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(2, 10)), int(rng.integers(1, 4))))
    x = np.where(np.abs(x) < 1e-3, 0.5, x)  # keep clear of the kink
    y, mask = ops.relu_forward(x.copy(), "train")
    R = _proj(rng, y.shape)
    gx = ops.relu_backward(R.copy(), mask)  # builds gx in its buffer; R is read below

    def run(xv):
        out, _ = ops.relu_forward(xv.copy(), "infer")
        return float((out * R).sum())

    return relative_error(gx, numerical_gradient(run, x, H))


def dropout_trial(rng):
    x = rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(4, 12))))
    rate = 0.3
    keep = rng.uniform(0, 1, x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    cache = (keep, np.float64(scale))
    R = _proj(rng, x.shape)
    gx = ops.dropout_backward(R, cache)

    def run(xv):
        return float((xv * keep * scale * R).sum())

    return relative_error(gx, numerical_gradient(run, x, H))


def _residual_case(rng, with_bn):
    B = int(rng.integers(2, 4))
    T = int(rng.integers(3, 8))
    Cin = int(rng.integers(1, 3))
    Cout = Cin + int(rng.integers(0, 3))  # exercises the zero-pad shortcut
    x = rng.standard_normal((B, T, Cin))
    params = {
        "conv1.kernel": rng.standard_normal((3, Cin, Cout)),
        "conv2.kernel": rng.standard_normal((3, Cout, Cout)),
    }
    for k in ("conv1", "conv2"):
        if with_bn:
            params[f"{k}.bn.gamma"] = rng.standard_normal(Cout) + 1.5
            params[f"{k}.bn.beta"] = rng.standard_normal(Cout)
        else:
            params[f"{k}.bias"] = rng.standard_normal(Cout)
    block = models._ResBlockUnit(1, Cout, with_bn)
    graph = SimpleNamespace(params={}, state={}, dtype=np.dtype(np.float64))
    block.build(Cin, RandomSource(0), graph)
    graph.params.update(params)
    return block, graph, x


def _unit_errors(unit, graph, x, rng):
    """Worst error of a model unit's input and parameter gradients, taken
    backward through an op tape."""
    tape, grads = ops.OpTape(), {}
    y = unit.forward(x, graph, "train", tape, None)
    R = _proj(rng, y.shape)
    gx = tape.backward(R.copy(), grads)  # a ReLU record builds its grad_x in R's buffer

    def run(xv):
        return unit.forward(xv, graph, "train", None, None)

    def scalar(name, v):
        saved = graph.params[name]
        graph.params[name] = v
        try:
            return float((run(x) * R).sum())
        finally:
            graph.params[name] = saved

    errs = [relative_error(gx, numerical_gradient(lambda v: float((run(v) * R).sum()), x, H))]
    for name in unit.param_names():
        p = graph.params[name]
        errs.append(relative_error(grads[name], numerical_gradient(lambda v: scalar(name, v), p, H)))
    return max(errs)


def conv_unit_trial(rng):
    """The model's conv unit with batch norm and its fused ReLU epilogue.

    A case is redrawn while a pre-ReLU value lies within 1e-3 of the kink,
    where a +-h step could flip the mask. Cin starts at 2: with a single
    kernel entry per output channel, batch norm cancels its scale, so its
    true gradient is zero and finite differences measure only round-off.
    """
    while True:
        B = int(rng.integers(2, 4))
        T = int(rng.integers(3, 10))
        Cin = int(rng.integers(2, 4))
        Cout = int(rng.integers(1, 4))
        rf = int(rng.choice([1, 3, 8]))
        stride = int(rng.choice([1, 2]))
        x = rng.standard_normal((B, T, Cin))
        unit = models._ConvUnit(1, rf, stride, Cout, with_bn=True)
        graph = SimpleNamespace(params={}, state={}, dtype=np.dtype(np.float64))
        unit.build(Cin, RandomSource(0), graph)
        graph.params.update({
            "conv1.kernel": rng.standard_normal((rf, Cin, Cout)),
            "conv1.bn.gamma": rng.standard_normal(Cout) + 1.5,
            "conv1.bn.beta": rng.standard_normal(Cout),
        })
        if np.abs(unit.conv_bn([x], graph, "train", None, relu=False)).min() >= 1e-3:
            break
    return _unit_errors(unit, graph, x, rng)


def conv_unit_pool_trial(rng):
    """A pooled conv unit with batch norm, which applies the BN scale/shift
    to the window extremes of the raw conv output, and the maxpool unit
    after it, which applies the ReLU. Gammas take both signs, so some
    channels pool the min.

    A case is redrawn while two raw values of one window lie within 1e-3 of
    each other (which covers its two largest and two smallest), where a
    +-h step could move the extreme to another slot, or while a pooled
    pre-ReLU value lies within 1e-3 of the kink. Cin starts at 2, as in the
    conv unit trial. Cin < ops._IM2COL_MAX_CIN, so the conv runs streamed
    with its batch norm and the pool (ops.conv1d_bn_pool_forward), and its
    backward rebuilds the conv output clip by clip to apply the batch
    norm's compact gradient.
    """
    while True:
        B = int(rng.integers(2, 4))
        T = int(rng.integers(4, 14))
        Cin = int(rng.integers(2, 4))
        Cout = int(rng.integers(1, 4))
        rf = int(rng.choice([1, 3, 8]))
        stride = int(rng.choice([1, 2]))
        x = rng.standard_normal((B, T, Cin))
        conv = models._ConvUnit(1, rf, stride, Cout, with_bn=True)
        conv.pooled = True  # as _units marks a BN conv before a maxpool
        pool = models._MaxPoolUnit(1)
        graph = SimpleNamespace(params={}, state={}, dtype=np.dtype(np.float64))
        conv.build(Cin, RandomSource(0), graph)
        graph.params.update({
            "conv1.kernel": rng.standard_normal((rf, Cin, Cout)),
            "conv1.bn.gamma": rng.choice([-1.0, 1.0], Cout) * rng.uniform(0.5, 2.0, Cout),
            "conv1.bn.beta": rng.standard_normal(Cout),
        })
        raw = ops.conv1d_forward(x, conv._params(graph))[0]
        pad = -raw.shape[1] % ops._POOL
        windows = np.pad(raw, ((0, 0), (0, pad), (0, 0)), constant_values=np.nan)
        gaps = np.diff(np.sort(windows.reshape(B, -1, ops._POOL, Cout), axis=2), axis=2)
        pre = ops.maxpool1d_forward(conv.conv_bn([x], graph, "train", None, relu=False), "infer")[0]
        if np.min(gaps, where=~np.isnan(gaps), initial=np.inf) >= 1e-3 and np.abs(pre).min() >= 1e-3:
            break
    pair = SimpleNamespace(
        forward=lambda x, graph, mode, tape, rng: pool.forward(
            conv.forward(x, graph, mode, tape, rng), graph, mode, tape, rng),
        param_names=conv.param_names,
    )
    return _unit_errors(pair, graph, x, rng)


def _relu_inputs(block, graph, x):
    """What the block's inner and outer ReLUs see in forward."""
    c1, c2 = block._convs
    inner = c1.conv_bn([x], graph, "train", None, relu=False)
    outer = c2.conv_bn([np.maximum(inner, 0)], graph, "train", None, relu=False)
    return inner, outer + np.pad(x, ((0, 0), (0, 0), (0, outer.shape[-1] - x.shape[-1])))


def residual_trial(rng, with_bn=True):
    """The model's residual block unit, backward through the op tape.

    A case is redrawn while a ReLU input lies within 1e-3 of the kink,
    where a +-h step could flip the mask. With BN it is also redrawn while
    the inner ReLU passes fewer than two entries: the second BN then sees
    a rescaled fixed pattern, so the true gradients of the first conv and
    BN are zero and finite differences measure only round-off.
    """
    while True:
        block, graph, x = _residual_case(rng, with_bn)
        inner, outer = _relu_inputs(block, graph, x)
        clear = min(np.abs(inner).min(), np.abs(outer).min()) >= 1e-3
        if clear and (not with_bn or np.count_nonzero(inner > 0) >= 2):
            break
    return _unit_errors(block, graph, x, rng)


TRIALS = {
    "conv1d": conv_trial,
    "maxpool1d": maxpool_trial,
    "batchnorm": batchnorm_trial,
    "global_avg_pool": gap_trial,
    "dense_softmax_xent": dense_xent_trial,
    "relu": relu_trial,
    "dropout": dropout_trial,
    "conv_unit_bn_relu": conv_unit_trial,
    "conv_unit_bn_relu_pool": conv_unit_pool_trial,
    "residual_block": residual_trial,
    "residual_block_no_bn": lambda rng: residual_trial(rng, with_bn=False),
}


def run_suite(trials_per_op=20, seed=20240801):
    """Run every op's trials; returns {op: worst relative error}."""
    worst = {}
    for name, trial in TRIALS.items():
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        worst[name] = max(trial(rng) for _ in range(trials_per_op))
    return worst
