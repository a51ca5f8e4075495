import numpy as np
import pytest

from wavecnn import ops
from wavecnn.ops import BatchNormState, ConvParams
from wavecnn.tensor import NonFiniteError

from naive_ref import conv1d_backward_naive, conv1d_naive, maxpool1d_naive, relative_error


def _bn_state(C, dtype=np.float64, gamma=None, beta=None):
    return BatchNormState(
        gamma=np.ones(C, dtype) if gamma is None else gamma,
        beta=np.zeros(C, dtype) if beta is None else beta,
        running_mean=np.zeros(C, dtype),
        running_var=np.ones(C, dtype),
    )


class TestConv1d:
    def test_published_input_shape(self):
        """[1,32000,1] with rf 80 stride 4 and 256 filters -> [1,8000,256]."""
        x = np.zeros((1, 32000, 1), dtype=np.float32)
        k = np.zeros((80, 1, 256), dtype=np.float32)
        y, _ = ops.conv1d_forward(x, ConvParams(k, stride=4))
        assert y.shape == (1, 8000, 256)

    def test_zero_kernel_gives_zero_output(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 50, 3))
        y, _ = ops.conv1d_forward(x, ConvParams(np.zeros((3, 3, 4)), stride=1))
        np.testing.assert_array_equal(y, 0.0)

    def test_hand_case_same_padding(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        k = np.ones((3, 1, 1))
        y, _ = ops.conv1d_forward(x, ConvParams(k, stride=1))
        np.testing.assert_array_equal(y.ravel(), [3.0, 6.0, 9.0, 7.0])

    def test_channel_mismatch_error(self):
        with pytest.raises(ValueError, match="channels"):
            ops.conv1d_forward(np.zeros((1, 8, 2)), ConvParams(np.zeros((3, 3, 4))))

    def test_float64_matches_naive_bitwise(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            B, T = int(rng.integers(1, 4)), int(rng.integers(4, 40))
            Cin, Cout = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            rf = int(rng.choice([1, 3, 8]))
            stride = int(rng.choice([1, 2, 4]))
            x = rng.standard_normal((B, T, Cin))
            k = rng.standard_normal((rf, Cin, Cout))
            b = rng.standard_normal(Cout) if trial % 2 else None
            y, _ = ops.conv1d_forward(x, ConvParams(k, b, stride))
            np.testing.assert_array_equal(y, conv1d_naive(x, k, b, stride))

    def test_float32_matches_naive_within_1e6(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal((2, 40, 4)).astype(np.float32)
            k = rng.standard_normal((8, 4, 5)).astype(np.float32)
            y, _ = ops.conv1d_forward(x, ConvParams(k, stride=2))
            ref = conv1d_naive(x.astype(np.float64), k.astype(np.float64), None, 2)
            assert relative_error(y, ref) < 1e-6
            assert y.dtype == np.float32

    def test_shape_law(self):
        """Same padding with stride s maps T -> ceil(T/s)."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            T = int(rng.integers(1, 70))
            s = int(rng.choice([1, 2, 3, 4]))
            rf = int(rng.choice([1, 3, 8]))
            y, _ = ops.conv1d_forward(
                np.zeros((1, T, 1)), ConvParams(np.zeros((rf, 1, 2)), stride=s)
            )
            assert y.shape[1] == -(-T // s)

    def test_backward_zero_grad(self):
        x = np.random.default_rng(1).standard_normal((2, 9, 2))
        k = np.random.default_rng(2).standard_normal((3, 2, 3))
        b = np.zeros(3)
        y, cache = ops.conv1d_forward(x, ConvParams(k, b, 1))
        gx, gk, gb = ops.conv1d_backward(np.zeros_like(y), cache)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_backward_rf1_outer_product_rule(self):
        """rf=1, stride=1: grad_kernel[0,c,o] = sum_{b,t} x[b,t,c]*gout[b,t,o]."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 7, 3))
        k = rng.standard_normal((1, 3, 4))
        y, cache = ops.conv1d_forward(x, ConvParams(k, stride=1))
        gout = rng.standard_normal(y.shape)
        _, gk, _ = ops.conv1d_backward(gout, cache)
        np.testing.assert_allclose(gk[0], np.einsum("btc,bto->co", x, gout), rtol=1e-12)

    # (B, T, Cin, Cout, rf, stride): the waveform stem, a thin input just
    # below the whole-window threshold, and a deep input at the per-tap path.
    BACKWARD_CASES = [
        (3, 403, 1, 8, 80, 4),
        (2, 37, ops._IM2COL_BACKWARD_MAX_CIN - 1, 4, 8, 3),
        (3, 50, 2 * ops._IM2COL_BACKWARD_MAX_CIN, 5, 3, 1),
    ]

    @pytest.mark.parametrize("B,T,Cin,Cout,rf,stride", BACKWARD_CASES)
    def test_backward_matches_naive_on_both_paths(self, B, T, Cin, Cout, rf, stride):
        rng = np.random.default_rng(Cin)
        x = rng.standard_normal((B, T, Cin))
        k = rng.standard_normal((rf, Cin, Cout))
        b = rng.standard_normal(Cout)
        out_T = -(-T // stride)
        gout = rng.standard_normal((B, out_T, Cout))
        ref_gx, ref_gk = conv1d_backward_naive(x, k, gout, stride)

        _, cache = ops.conv1d_forward(x, ConvParams(k, b, stride))
        gx, gk, gb = ops.conv1d_backward(gout, cache)
        # Summation order differs, so entries that cancel get an absolute
        # floor of 1e-12 of the largest entry.
        for got, ref in ((gx, ref_gx), (gk, ref_gk), (gb, gout.sum(axis=(0, 1)))):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

        x32, k32, g32 = (a.astype(np.float32) for a in (x, k, gout))
        _, cache = ops.conv1d_forward(x32, ConvParams(k32, b.astype(np.float32), stride))
        gx, gk, gb = ops.conv1d_backward(g32, cache)
        assert gx.dtype == gk.dtype == gb.dtype == np.float32
        ref_gx, ref_gk = conv1d_backward_naive(x32, k32, g32, stride)
        assert relative_error(gx, ref_gx) < 1e-6
        assert relative_error(gk, ref_gk) < 1e-6

    def test_backward_shape_mismatch(self):
        y, cache = ops.conv1d_forward(np.zeros((1, 8, 1)), ConvParams(np.zeros((3, 1, 2))))
        with pytest.raises(ValueError, match="grad shape"):
            ops.conv1d_backward(np.zeros((1, 9, 2)), cache)


class TestMaxPool:
    def test_published_sizes(self):
        y, _ = ops.maxpool1d_forward(np.zeros((1, 8000, 4), dtype=np.float32))
        assert y.shape == (1, 2000, 4)

    def test_ceil_semantics_125_to_32(self):
        y, _ = ops.maxpool1d_forward(np.zeros((1, 125, 2)))
        assert y.shape == (1, 32, 2)

    def test_hand_case_partial_window(self):
        x = np.array([1.0, 3.0, 2.0, 0.0, 5.0, 4.0]).reshape(1, 6, 1)
        y, _ = ops.maxpool1d_forward(x)
        np.testing.assert_array_equal(y.ravel(), [3.0, 5.0])

    def test_matches_naive_bitwise_with_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            x = rng.standard_normal((2, int(rng.integers(1, 30)), 3))
            y, (idx, _, _) = ops.maxpool1d_forward(x)
            yn, idxn = maxpool1d_naive(x)
            np.testing.assert_array_equal(y, yn)
            np.testing.assert_array_equal(idx, idxn)
        # Integer values in {0, 1, 2}: most windows tie, and T % 4 != 0
        # leaves a partial last window.
        for dtype in (np.float64, np.float32):
            for T in (1, 5, 30, 103):
                x = rng.integers(0, 3, (3, T, 4)).astype(dtype)
                y, (idx, _, _) = ops.maxpool1d_forward(x)
                yn, idxn = maxpool1d_naive(x)
                np.testing.assert_array_equal(y, yn)
                np.testing.assert_array_equal(idx, idxn)

    def test_nan_input_raises(self):
        x = np.zeros((1, 10, 2))
        x[0, 5, 1] = np.nan
        with pytest.raises(NonFiniteError, match="maxpool1d"):
            ops.maxpool1d_forward(x)

    def test_tie_goes_to_first_index(self):
        x = np.array([2.0, 7.0, 7.0, 1.0]).reshape(1, 4, 1)
        y, (idx, _, _) = ops.maxpool1d_forward(x)
        assert y.ravel()[0] == 7.0 and idx.ravel()[0] == 1

    def test_backward_routes_to_argmax(self):
        x = np.array([2.0, 7.0, 7.0, 1.0, 0.0, 9.0]).reshape(1, 6, 1)
        y, cache = ops.maxpool1d_forward(x)
        gx = ops.maxpool1d_backward(np.array([[[1.0], [1.0]]]), cache)
        np.testing.assert_array_equal(gx.ravel(), [0, 1, 0, 0, 0, 1])


class TestBatchNorm:
    def test_train_output_statistics(self):
        """gamma=1, beta=0: per-channel mean ~ 0 and variance ~ 1."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 200, 3)) * 3.0 + 2.0
        y, _ = ops.batchnorm_forward(x, _bn_state(3), "train")
        assert np.abs(y.mean(axis=(0, 1))).max() < 1e-4
        assert np.abs(y.var(axis=(0, 1)) - 1.0).max() < 1e-3

    def test_constant_input_maps_to_beta(self):
        beta = np.array([0.5, -1.0])
        x = np.full((3, 10, 2), 7.0)
        y, _ = ops.batchnorm_forward(x, _bn_state(2, beta=beta), "train")
        np.testing.assert_allclose(y, np.broadcast_to(beta, y.shape), atol=1e-9)

    def test_running_stats_update_rule(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 50, 2)) + 1.0
        s = _bn_state(2)
        ops.batchnorm_forward(x, s, "train")
        mu, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
        np.testing.assert_allclose(s.running_mean, 0.9 * 0.0 + 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(s.running_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-12)

    def test_infer_uses_running_stats_only(self):
        s = _bn_state(2)
        s.running_mean[...] = [1.0, -1.0]
        s.running_var[...] = [4.0, 0.25]
        x = np.ones((1, 5, 2))
        y, _ = ops.batchnorm_forward(x, s, "infer")
        expect = (x - s.running_mean) / np.sqrt(s.running_var + s.eps)
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_fresh_running_stats_allow_inference(self):
        y, _ = ops.batchnorm_forward(np.ones((1, 4, 2)), _bn_state(2), "infer")
        assert np.all(np.isfinite(y))

    def test_train_needs_batch_of_two(self):
        with pytest.raises(ValueError, match="batch size"):
            ops.batchnorm_forward(np.zeros((1, 8, 2)), _bn_state(2), "train")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            ops.batchnorm_forward(np.zeros((2, 8, 3)), _bn_state(2), "train")


class TestGlobalAvgPool:
    def test_published_shape(self):
        y, _ = ops.global_avg_pool(np.zeros((1, 32, 512)))
        assert y.shape == (1, 1, 512)

    def test_constant_preserved(self):
        y, _ = ops.global_avg_pool(np.full((2, 9, 3), 2.5))
        np.testing.assert_allclose(y, 2.5)

    def test_length_one_is_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 4))
        y, _ = ops.global_avg_pool(x)
        np.testing.assert_array_equal(y, x)

    def test_any_length_works(self):
        for T in (1, 5, 80, 1000):
            y, _ = ops.global_avg_pool(np.ones((1, T, 2)))
            assert y.shape == (1, 1, 2)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        """Uniform logits with K=10: probabilities 0.1, loss ln 10."""
        loss, probs, _ = ops.dense_softmax_xent(
            np.zeros((3, 4)), np.zeros((4, 10)), np.zeros(10), np.array([0, 5, 9])
        )
        np.testing.assert_allclose(probs, 0.1, rtol=1e-12)
        assert abs(loss - np.log(10.0)) < 1e-9

    def test_huge_correct_logit_no_overflow(self):
        logits = np.zeros((1, 10))
        logits[0, 3] = 1000.0
        loss, probs, _ = ops.softmax_xent(logits, np.array([3]))
        assert loss < 1e-6 and np.all(np.isfinite(probs))

    def test_rows_sum_to_one_and_loss_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            logits = rng.standard_normal((4, 6)) * rng.uniform(0.1, 30)
            loss, probs, _ = ops.softmax_xent(logits, rng.integers(0, 6, 4))
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            assert loss >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            ops.softmax_xent(np.zeros((2, 3)), np.array([0, 3]))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((3, 4))
        y, cache = ops.dropout(x, 0.0, "train")
        assert y is x and cache is None

    def test_infer_identity_regardless_of_rate(self):
        x = np.ones((3, 4))
        y, _ = ops.dropout(x, 0.9, "infer")
        assert y is x

    def test_survivor_fraction_and_expectation(self):
        """rate 0.3 on >= 1e5 elements: ~70% survive, mean preserved."""
        from wavecnn.tensor import RandomSource

        x = np.ones((400, 300))
        y, _ = ops.dropout(x, 0.3, "train", RandomSource(77))
        frac = np.count_nonzero(y) / y.size
        assert abs(frac - 0.7) < 0.02
        assert abs(y.mean() - 1.0) < 0.02

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ops.dropout(np.ones(3), 1.0, "train")


class TestResidualBlock:
    def _zero_block(self, Cin, Cout, dtype=np.float64):
        k1 = np.zeros((3, Cin, Cout), dtype)
        k2 = np.zeros((3, Cout, Cout), dtype)
        return (
            ops.ConvParams(k1, stride=1),
            _bn_state(Cout, dtype),
            ops.ConvParams(k2, stride=1),
            _bn_state(Cout, dtype),
        )

    def test_zero_branch_same_channels_is_relu(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 12, 5))
        c1, b1, c2, b2 = self._zero_block(5, 5)
        y, _ = ops.residual_block_forward(x, c1, b1, c2, b2, "train")
        np.testing.assert_array_equal(y, np.maximum(x, 0.0))

    def test_zero_branch_channel_growth_pads(self):
        """48 -> 96 with a dead branch: y = relu([x || zeros]) exactly."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 6, 48))
        c1, b1, c2, b2 = self._zero_block(48, 96)
        y, _ = ops.residual_block_forward(x, c1, b1, c2, b2, "train")
        expect = np.maximum(np.pad(x, ((0, 0), (0, 0), (0, 48))), 0.0)
        np.testing.assert_array_equal(y, expect)

    def test_time_length_unchanged(self):
        x = np.zeros((2, 17, 4))
        c1, b1, c2, b2 = self._zero_block(4, 8)
        y, _ = ops.residual_block_forward(x, c1, b1, c2, b2, "infer")
        assert y.shape == (2, 17, 8)

    def test_channel_shrink_rejected(self):
        x = np.zeros((2, 6, 8))
        c1, b1, c2, b2 = self._zero_block(8, 4)
        with pytest.raises(ValueError, match="shrink"):
            ops.residual_block_forward(x, c1, b1, c2, b2, "infer")

    def test_zeroed_group_is_relu_chain_of_padded_input(self):
        """An N-block group with dead branches computes relu of the
        channel-padded input, tensor-exactly."""
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 10, 3))
        h = x
        for cin, cout in [(3, 3), (3, 6), (6, 6)]:
            c1, b1, c2, b2 = self._zero_block(cin, cout)
            h, _ = ops.residual_block_forward(h, c1, b1, c2, b2, "train")
        expect = np.maximum(np.pad(x, ((0, 0), (0, 0), (0, 3))), 0.0)
        np.testing.assert_array_equal(h, expect)

    def test_fanout_gradient_accumulates_both_paths(self):
        """Input gradient = branch adjoint + shortcut adjoint."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 8, 3))
        c1 = ops.ConvParams(rng.standard_normal((3, 3, 3)), stride=1)
        c2 = ops.ConvParams(rng.standard_normal((3, 3, 3)), stride=1)
        b1, b2 = _bn_state(3), _bn_state(3)
        y, cache = ops.residual_block_forward(x, c1, b1, c2, b2, "train")
        gout = rng.standard_normal(y.shape)
        gx = ops.residual_block_backward(gout, cache)[0]
        assert gx.shape == x.shape and np.all(np.isfinite(gx))
