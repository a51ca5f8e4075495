"""Gradient correctness: analytic backward vs central finite differences.

Everything runs in float64 with h = 1e-5; the comprehensive 20-trials-per-op
sweep at the 1e-4 tolerance lives in the acceptance suite, this module keeps
a faster sweep plus the pinned example cases at their tighter tolerances.
"""

import zlib

import numpy as np
import pytest

import gradcheck
from gradcheck import TRIALS


@pytest.mark.parametrize("op", sorted(TRIALS))
def test_gradients_random_trials(op):
    rng = np.random.default_rng([99, zlib.crc32(op.encode())])
    worst = max(TRIALS[op](rng) for _ in range(5))
    assert worst < 1e-4, f"{op}: worst relative error {worst:.3e}"


def test_conv_pinned_case_tight_tolerance():
    """B=2, T=11, Cin=3, rf=3, stride=2 agrees with finite differences to
    better than 1e-6 in 64-bit."""
    from wavecnn import ops
    from naive_ref import numerical_gradient, relative_error

    rng = np.random.default_rng(2024)
    x = rng.standard_normal((2, 11, 3))
    k = rng.standard_normal((3, 3, 4))
    b = rng.standard_normal(4)
    y, cache = ops.conv1d_forward(x, ops.ConvParams(k, b, 2))
    R = rng.standard_normal(y.shape)
    gx, gk, gb = ops.conv1d_backward(R, cache)

    def run(xv, kv, bv):
        out, _ = ops.conv1d_forward(xv, ops.ConvParams(kv, bv, 2))
        return float((out * R).sum())

    assert relative_error(gx, numerical_gradient(lambda v: run(v, k, b), x)) < 1e-6
    assert relative_error(gk, numerical_gradient(lambda v: run(x, v, b), k)) < 1e-6
    assert relative_error(gb, numerical_gradient(lambda v: run(x, k, v), b)) < 1e-6


def test_batchnorm_pinned_case():
    """Random [4,16,3], gradients on x, gamma, beta better than 1e-5."""
    rng = np.random.default_rng(31337)
    assert gradcheck.batchnorm_trial(rng, shape=(4, 16, 3)) < 1e-5


def test_dense_softmax_xent_pinned_case():
    """Random [B=3, C=5, K=4] better than 1e-5."""
    rng = np.random.default_rng(555)
    assert gradcheck.dense_xent_trial(rng, dims=(3, 5, 4)) < 1e-5
