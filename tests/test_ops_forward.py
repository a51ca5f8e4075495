import weakref

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wavecnn import models, ops
from wavecnn.ops import BatchNormState, ConvParams
from wavecnn.tensor import NonFiniteError, RandomSource

from harness import traced_peak
from naive_ref import conv1d_backward_naive, conv1d_naive, maxpool1d_naive, relative_error


def _bn_state(C, dtype=np.float64, gamma=None, beta=None):
    return BatchNormState(
        gamma=np.ones(C, dtype) if gamma is None else gamma,
        beta=np.zeros(C, dtype) if beta is None else beta,
        running_mean=np.zeros(C, dtype),
        running_var=np.ones(C, dtype),
    )


def _conv_backward_reference(grad_out, cache):
    """conv1d_backward's algorithm with grad_x kept apart from the cached
    padded input: grad_x starts as fresh zeros and takes each tap's share
    in tap order, and xp is only read. Returns (grad_x, grad_kernel)."""
    xp, (B, T, Cin), p, out_T, left = cache
    (rf, _, Cout), stride = p.kernel.shape, p.stride
    dt = grad_out.dtype
    k = p.kernel.astype(dt, copy=False)
    grad_xp = np.zeros(xp.shape, dtype=dt)
    taps = [slice(r, r + stride * out_T, stride) for r in range(rf)]
    if Cin < ops._IM2COL_MAX_CIN:
        k2 = k.transpose(1, 0, 2).reshape(Cin * rf, Cout)
        gk2 = np.zeros((Cin * rf, Cout), dtype=dt)
        gcols = np.empty((out_T, Cin, rf), dtype=dt)
        for b in range(B):
            cols = sliding_window_view(xp[b], rf, axis=0)[::stride].reshape(out_T, Cin * rf)
            gk2 += cols.T @ grad_out[b]
            np.matmul(grad_out[b], k2.T, out=gcols.reshape(out_T, Cin * rf))
            for r, rows in enumerate(taps):
                grad_xp[b, rows] += gcols[:, :, r]
        grad_kernel = gk2.reshape(Cin, rf, Cout).transpose(1, 0, 2)
    else:
        grad_kernel = np.empty(k.shape, dtype=dt)
        buf = np.empty((B, out_T, Cin), dtype=dt)
        for r, rows in enumerate(taps):
            buf[...] = xp[:, rows]
            np.matmul(buf.reshape(-1, Cin).T, grad_out.reshape(-1, Cout), out=grad_kernel[r])
            np.matmul(grad_out, k[r].T, out=buf)
            grad_xp[:, rows] += buf
    return grad_xp[:, left : left + T], grad_kernel


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


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

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ValueError, match="empty time axis"):
            ops.conv1d_forward(np.zeros((1, 0, 3)), ConvParams(np.zeros((3, 3, 4))))

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

    @pytest.mark.parametrize("rf", [1, 3, 8])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_float32_deep_forward_matches_naive_within_1e6(self, rf, stride):
        """The per-tap forward, taken from Cin = _IM2COL_MAX_CIN up."""
        rng = np.random.default_rng(10 * rf + stride)
        Cin = ops._IM2COL_MAX_CIN + stride - 1
        for with_bias in (False, True):
            x = rng.standard_normal((2, 21, Cin)).astype(np.float32)
            k = rng.standard_normal((rf, Cin, 3)).astype(np.float32)
            b = rng.standard_normal(3).astype(np.float32) if with_bias else None
            y, _ = ops.conv1d_forward(x, ConvParams(k, b, stride))
            b64 = None if b is None else b.astype(np.float64)
            ref = conv1d_naive(x.astype(np.float64), k.astype(np.float64), b64, stride)
            assert y.dtype == np.float32
            assert relative_error(y, ref) < 1e-6

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
    # below the whole-window threshold, and deep inputs at the per-tap path,
    # unstrided and strided.
    BACKWARD_CASES = [
        (3, 403, 1, 8, 80, 4),
        (2, 37, ops._IM2COL_MAX_CIN - 1, 4, 8, 3),
        (3, 50, 2 * ops._IM2COL_MAX_CIN, 5, 3, 1),
        (2, 41, ops._IM2COL_MAX_CIN, 6, 3, 2),
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("B,T,Cin,Cout,rf,stride", BACKWARD_CASES)
    def test_backward_builds_grad_x_in_the_cached_input(self, B, T, Cin, Cout, rf, stride, dtype):
        """grad_x is a view of the padded input the forward cached, and
        grad_x and grad_kernel equal, byte for byte, the same algorithm run
        into fresh zeros; x itself is never written. A grad of the other
        dtype is refused before anything is written."""
        rng = np.random.default_rng(Cin + rf)
        x = rng.standard_normal((B, T, Cin)).astype(dtype)
        k = rng.standard_normal((rf, Cin, Cout)).astype(dtype)
        gout = rng.standard_normal((B, -(-T // stride), Cout)).astype(dtype)
        x_before = x.copy()
        _, cache = ops.conv1d_forward(x, ConvParams(k, stride=stride))
        _same_bytes(x, x_before)
        other = np.float32 if dtype == np.float64 else np.float64
        with pytest.raises(ValueError, match="dtype"):
            ops.conv1d_backward(gout.astype(other), cache)
        ref_gx, ref_gk = _conv_backward_reference(gout, (cache[0].copy(), *cache[1:]))

        gx, gk, _ = ops.conv1d_backward(gout, cache)
        assert np.shares_memory(gx, cache[0])
        _same_bytes(gx, ref_gx)
        _same_bytes(gk, ref_gk)
        _same_bytes(x, x_before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("B,T,Cin,Cout,rf,stride", BACKWARD_CASES)
    def test_backward_without_input_grad(self, B, T, Cin, Cout, rf, stride, dtype):
        """Without input_grad the backward returns None for grad_x, and the
        grad_kernel and grad_bias bytes of a full backward."""
        rng = np.random.default_rng(Cin + rf)
        x = rng.standard_normal((B, T, Cin)).astype(dtype)
        p = ConvParams(rng.standard_normal((rf, Cin, Cout)).astype(dtype),
                       rng.standard_normal(Cout).astype(dtype), stride)
        gout = rng.standard_normal((B, -(-T // stride), Cout)).astype(dtype)
        _, gk, gb = ops.conv1d_backward(gout, ops.conv1d_forward(x, p)[1])
        gx, gk_only, gb_only = ops.conv1d_backward(gout, ops.conv1d_forward(x, p)[1], input_grad=False)
        assert gx is None
        _same_bytes(gk_only, gk)
        _same_bytes(gb_only, gb)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("B,T,Cin,Cout,rf,stride", BACKWARD_CASES)
    def test_batch_equals_each_clip_alone_bytewise(self, B, T, Cin, Cout, rf, stride, dtype):
        """Each clip's output in a batch has the bytes of that clip run
        alone, with and without bias, and a batch of zero clips gives an
        empty output: a clip-parallel forward relies on this."""
        rng = np.random.default_rng(Cin + rf)
        x = rng.standard_normal((B, T, Cin)).astype(dtype)
        k = rng.standard_normal((rf, Cin, Cout)).astype(dtype)
        for bias in (None, rng.standard_normal(Cout).astype(dtype)):
            p = ConvParams(k, bias, stride)
            y, _ = ops.conv1d_forward(x, p)
            for b in range(B):
                _same_bytes(y[b : b + 1], ops.conv1d_forward(x[b : b + 1], p)[0])
            _same_bytes(ops.conv1d_forward(x[:0], p)[0], y[:0])

    @pytest.mark.parametrize("B,T,Cin,Cout,rf,stride",
                             [c for c in BACKWARD_CASES if c[2] >= ops._IM2COL_MAX_CIN])
    def test_deep_forward_equals_batched_taps_bytewise(self, B, T, Cin, Cout, rf, stride):
        """The float32 deep forward adds each later tap clip by clip; the
        bits equal one batched GEMM per tap added into the output."""
        rng = np.random.default_rng(Cin + rf)
        x = rng.standard_normal((B, T, Cin)).astype(np.float32)
        k = rng.standard_normal((rf, Cin, Cout)).astype(np.float32)
        y, (xp, _, _, out_T, _) = ops.conv1d_forward(x, ConvParams(k, stride=stride))
        taps = [xp[:, r : r + stride * out_T : stride] for r in range(rf)]
        want = np.matmul(taps[0], k[0])
        for r in range(1, rf):
            want += np.matmul(taps[r], k[r])
        _same_bytes(y, want)

    # (T, rf, stride, Cin, Cout) at B=2: the published stem and the m3
    # 256->256 rf-3 layer, with T cut down from the published length.
    PUBLISHED_SHAPES = [(4000, 80, 4, 1, 256), (250, 3, 1, 256, 256)]

    @pytest.mark.parametrize("T,rf,stride,Cin,Cout", PUBLISHED_SHAPES)
    def test_float32_within_1e6_of_float64_at_published_shapes(self, T, rf, stride, Cin, Cout):
        """Float32 accumulates in float32; its normwise error against the
        float64 path on the same rounded inputs stays < 1e-6."""
        rng = np.random.default_rng(rf * Cin)
        x32 = rng.standard_normal((2, T, Cin)).astype(np.float32)
        k32 = (rng.standard_normal((rf, Cin, Cout)) / np.sqrt(rf * Cin)).astype(np.float32)
        y, cache = ops.conv1d_forward(x32, ConvParams(k32, stride=stride))
        g32 = rng.standard_normal(y.shape).astype(np.float32)
        gx, gk, _ = ops.conv1d_backward(g32, cache)
        assert y.dtype == gx.dtype == gk.dtype == np.float32

        x64, k64, g64 = (a.astype(np.float64) for a in (x32, k32, g32))
        ref_y, cache = ops.conv1d_forward(x64, ConvParams(k64, stride=stride))
        ref_gx, ref_gk, _ = ops.conv1d_backward(g64, cache)
        for got, ref in ((y, ref_y), (gx, ref_gx), (gk, ref_gk)):
            assert relative_error(got, ref) < 1e-6

    # (B, rf, Cout) at T=32000, stride 4: the published stem, and the -lrf
    # stem, whose rf-320 im2col rows would outweigh the output if gathered
    # for the whole batch.
    @pytest.mark.parametrize("B,rf,Cout", [(2, 80, 256), (8, 320, 64)])
    def test_float32_stem_forward_peak_memory(self, B, rf, Cout):
        """The float32 forward allocates little beyond its output: no
        float64 copies of the im2col or of the output."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((B, 32000, 1)).astype(np.float32)
        k = rng.standard_normal((rf, 1, Cout)).astype(np.float32)
        (y, _), peak = traced_peak(ops.conv1d_forward, x, ConvParams(k, stride=4))
        assert peak < 2 * y.nbytes

    def test_float32_deep_forward_peak_memory(self):
        """The per-tap forward holds the padded input, the output and one
        clip-sized tap buffer: no im2col and no output-sized temporary."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4000, 64)).astype(np.float32)
        k = rng.standard_normal((3, 64, 64)).astype(np.float32)
        (y, _), peak = traced_peak(ops.conv1d_forward, x, ConvParams(k, stride=1))
        assert peak < 2.75 * y.nbytes

    def test_deep_backward_peak_memory(self):
        """The deep backward builds grad_x in the padded input it cached and
        holds one input-sized buffer reused by every tap: no grad_x array of
        its own, no per-tap temporaries or transposed copies."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4000, 64)).astype(np.float32)
        k = rng.standard_normal((3, 64, 64)).astype(np.float32)
        y, cache = ops.conv1d_forward(x, ConvParams(k, stride=1))
        g = rng.standard_normal(y.shape).astype(np.float32)
        _, peak = traced_peak(ops.conv1d_backward, g, cache)
        assert peak <= 1.25 * x.nbytes

    def test_backward_shape_mismatch(self):
        y, cache = ops.conv1d_forward(np.zeros((1, 8, 1)), ConvParams(np.zeros((3, 1, 2))))
        with pytest.raises(ValueError, match="grad shape"):
            ops.conv1d_backward(np.zeros((1, 9, 2)), cache)


class TestMaxPool:
    def test_published_sizes(self):
        y, _ = ops.maxpool1d_forward(np.zeros((1, 8000, 4), dtype=np.float32), "train")
        assert y.shape == (1, 2000, 4)

    def test_ceil_semantics_125_to_32(self):
        y, _ = ops.maxpool1d_forward(np.zeros((1, 125, 2)), "train")
        assert y.shape == (1, 32, 2)

    def test_hand_case_partial_window(self):
        x = np.array([1.0, 3.0, 2.0, 0.0, 5.0, 4.0]).reshape(1, 6, 1)
        y, _ = ops.maxpool1d_forward(x, "train")
        np.testing.assert_array_equal(y.ravel(), [3.0, 5.0])

    def test_matches_naive_bitwise_with_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            x = rng.standard_normal((2, int(rng.integers(1, 30)), 3))
            y, (idx, _) = ops.maxpool1d_forward(x, "train")
            yn, idxn = maxpool1d_naive(x)
            np.testing.assert_array_equal(y, yn)
            np.testing.assert_array_equal(idx, idxn)
        # Integer values in {0, 1, 2}: most windows tie, and T % 4 != 0
        # leaves a partial last window.
        for dtype in (np.float64, np.float32):
            for T in (1, 5, 30, 103):
                x = rng.integers(0, 3, (3, T, 4)).astype(dtype)
                y, (idx, _) = ops.maxpool1d_forward(x, "train")
                yn, idxn = maxpool1d_naive(x)
                np.testing.assert_array_equal(y, yn)
                np.testing.assert_array_equal(idx, idxn)

    def test_tie_goes_to_first_index(self):
        x = np.array([2.0, 7.0, 7.0, 1.0]).reshape(1, 4, 1)
        y, (idx, _) = ops.maxpool1d_forward(x, "train")
        assert y.ravel()[0] == 7.0 and idx.ravel()[0] == 1

    def test_backward_routes_to_argmax(self):
        x = np.array([2.0, 7.0, 7.0, 1.0, 0.0, 9.0]).reshape(1, 6, 1)
        y, cache = ops.maxpool1d_forward(x, "train")
        gx = ops.maxpool1d_backward(np.array([[[1.0], [1.0]]]), cache)
        np.testing.assert_array_equal(gx.ravel(), [0, 1, 0, 0, 0, 1])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [125, 2001])
    def test_backward_equals_padded_put_along(self, T, dtype):
        """The per-clip scatter equals scattering into a zero-filled
        [B, out_T, _POOL, C] array and cutting it to T, ragged last window
        included; channel 1 pools the min."""
        rng = np.random.default_rng(T)
        x = rng.standard_normal((3, T, 5)).astype(dtype)
        _, cache = ops.maxpool1d_forward(x, "train", np.arange(5) == 1)
        g = rng.standard_normal((3, -(-T // ops._POOL), 5)).astype(dtype)
        B, out_T, C = g.shape
        padded = np.zeros((B, out_T, ops._POOL, C), dtype)
        np.put_along_axis(padded, cache[0][:, :, None, :], g[:, :, None, :], axis=2)
        want = padded.reshape(B, out_T * ops._POOL, C)[:, :T]
        got = ops.maxpool1d_backward(g, cache)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_infer_keeps_nothing(self):
        """Infer mode returns the train-mode output bitwise, and no cache."""
        x = np.random.default_rng(12).standard_normal((3, 103, 4), dtype=np.float32)
        y_train, _ = ops.maxpool1d_forward(x, "train")
        y_infer, cache = ops.maxpool1d_forward(x, "infer")
        assert y_infer.dtype == y_train.dtype
        assert y_infer.tobytes() == y_train.tobytes()
        assert cache is None

    def test_train_argmax_is_one_byte(self):
        x = np.random.default_rng(13).standard_normal((2, 8000, 16), dtype=np.float32)
        y, (idx, _) = ops.maxpool1d_forward(x, "train")
        assert idx.nbytes == y.size


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

    def test_float32_offset_input_matches_float64(self):
        """Statistics in float64 keep a float32 input far from zero (mean
        100, std 0.01) within 1e-3 of the float64 normalization."""
        rng = np.random.default_rng(11)
        x = (100.0 + 0.01 * rng.standard_normal((8, 1000, 16))).astype(np.float32)
        y, _ = ops.batchnorm_forward(x, _bn_state(16, np.float32), "train")
        assert y.dtype == np.float32
        x64 = x.astype(np.float64)
        ref = (x64 - x64.mean(axis=(0, 1))) / np.sqrt(x64.var(axis=(0, 1)) + 1e-5)
        assert relative_error(y, ref) < 1e-3

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
        y, cache = ops.batchnorm_forward(x, s, "infer")
        expect = (x - s.running_mean) / np.sqrt(s.running_var + ops._BN_EPS)
        np.testing.assert_allclose(y, expect, rtol=1e-12)
        assert cache is None

    def test_fresh_running_stats_allow_inference(self):
        y, _ = ops.batchnorm_forward(np.ones((1, 4, 2)), _bn_state(2), "infer")
        assert np.all(np.isfinite(y))

    def test_train_needs_batch_of_two(self):
        with pytest.raises(ValueError, match="batch size"):
            ops.batchnorm_forward(np.zeros((1, 8, 2)), _bn_state(2), "train")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            ops.batchnorm_forward(np.zeros((2, 8, 3)), _bn_state(2), "train")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown batchnorm mode 'trian'"):
            ops.batchnorm_forward(np.zeros((2, 8, 2)), _bn_state(2), "trian")


    def test_backward_peak_memory(self):
        """The backward forms grad_x in one output-sized array: its x * b
        term goes in one clip at a time, with no full-size temporary."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 2000, 64), dtype=np.float32)
        _, cache = ops.batchnorm_forward(x, _bn_state(64, np.float32), "train")
        g = rng.standard_normal(x.shape, dtype=np.float32)
        _, peak = traced_peak(ops.batchnorm_backward, g, cache)
        assert peak <= 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input bytes"


def _published_order(x, p, s, mode, relu=False):
    """conv1d_forward, batchnorm_forward, [relu_forward,] maxpool1d_forward:
    the reference for conv1d_bn_pool_forward. Returns (y, slot index,
    backward); in infer mode the last two are None. backward(g) gives (BN
    grad_x, grad_x, grad_kernel, grad_gamma, grad_beta), the BN grad_x
    being built in the conv output that batch norm took over."""
    h, conv_cache = ops.conv1d_forward(x, p)
    y, bn_cache = ops.batchnorm_forward(h, s, mode)
    y, mask = ops.relu_forward(y, mode) if relu else (y, None)
    y, pool_cache = ops.maxpool1d_forward(y, mode)
    if mode == "infer":
        return y, None, None

    def backward(g):
        g = ops.maxpool1d_backward(g, pool_cache)
        gy, gg, gb = ops.batchnorm_backward(ops.relu_backward(g, mask) if relu else g, bn_cache)
        assert gy is h
        return (gy, *ops.conv1d_backward(gy, conv_cache)[:2], gg, gb)
    return y, pool_cache[0], backward


def _one_op(x, p, s, mode, relu=False):
    """conv1d_bn_pool_forward [, relu_forward], returned as _published_order
    returns. A deep conv's BN grad_x is built in the output its forward
    kept; a thin conv's is the compact _SlotGrad."""
    y, conv_cache, bn_cache = ops.conv1d_bn_pool_forward(x, p, s, mode)
    y, mask = ops.relu_forward(y, mode) if relu else (y, None)
    assert (bn_cache is None) == (mode == "infer")
    if mode == "infer":
        return y, None, None

    def backward(g):  # the ReLU's backward writes in its gradient: the caller's g is reused
        gy, gg, gb = ops.batchnorm_backward(ops.relu_backward(g.copy(), mask) if relu else g, bn_cache)
        deep = p.kernel.shape[1] >= ops._IM2COL_MAX_CIN
        assert gy is bn_cache[0] if deep else isinstance(gy, ops._SlotGrad)
        return (gy, *ops.conv1d_backward(gy, conv_cache)[:2], gg, gb)
    return y, bn_cache[3][0], backward


def _same_grads(got, want):
    """The gradients of _one_op and _published_order, byte for byte; a
    compact BN grad_x describes the reference's array."""
    gy, ref = got[0], want[0]
    if isinstance(gy, ops._SlotGrad):
        assert (gy.shape, gy.dtype, gy.size) == (ref.shape, ref.dtype, ref.size)
    else:
        _same_bytes(gy, ref)
    for a, b in zip(got[1:], want[1:], strict=True):
        _same_bytes(a, b)


def _identity_conv(Cin, C, dtype):
    """A 1-tap conv whose output is the first C of its Cin input channels,
    exactly (one product by 1 and the rest by 0 per output), so a test sets
    a pooled batch norm's input."""
    k = np.zeros((1, Cin, C), dtype)
    k[0, :C] = np.eye(C, dtype=dtype)
    return ConvParams(k)


def _widened(x, Cin):
    """x [B, T, 6] with Cin - 6 more input channels, which _identity_conv
    drops."""
    extra = np.random.default_rng(Cin).standard_normal((*x.shape[:2], Cin - x.shape[2]))
    return np.concatenate([x, extra.astype(x.dtype)], axis=-1)


def _pooled_case(rng, T, dtype, gamma=(1.3, -0.7, 0.0, 2.1, -1.9, 0.4)):
    """Input and a state factory for 6 channels: gammas of both signs and
    (by default) one 0, and running stats away from (0, 1) so infer mode
    has work to do."""
    x = (rng.standard_normal((2, T, 6)) * 1.5 + rng.standard_normal(6)).astype(dtype)
    beta = rng.standard_normal(6).astype(dtype)
    mean, var = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)

    def state():
        s = _bn_state(6, dtype, np.array(gamma, dtype), beta.copy())
        s.running_mean[...] = mean
        s.running_var[...] = var
        return s
    return x, state


# The identity conv's input channels: the 6 alone (thin), and with more
# channels at and above the threshold (deep).
POOLED_CIN = [6, ops._IM2COL_MAX_CIN, 16]


class TestPooledBatchNorm:
    """The pooled batch norm of conv1d_bn_pool_forward, after a conv that
    passes its input through (_identity_conv), and the ReLU op against the
    published order: batch norm, ReLU, then maxpool."""

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [125, 128, 2001])
    @pytest.mark.parametrize("Cin", POOLED_CIN)
    def test_matches_bn_relu_then_maxpool_bitwise(self, Cin, T, dtype, mode):
        x, state = _pooled_case(np.random.default_rng(T), T, dtype)
        x, p = _widened(x, Cin), _identity_conv(Cin, 6, dtype)
        s, s_ref = state(), state()
        ref, _, _ = _published_order(x, p, s_ref, mode, relu=True)
        y, _, _ = _one_op(x, p, s, mode, relu=True)
        assert y.shape == (2, -(-T // ops._POOL), 6)
        _same_bytes(y, ref)
        _same_bytes(s.running_mean, s_ref.running_mean)
        _same_bytes(s.running_var, s_ref.running_var)

    def test_zero_gamma_routes_to_the_raw_max(self):
        """With gamma 0 every slot of a window ties after BN. The gradient
        goes to the raw argmax: a valid subgradient for gamma, and grad_x
        and grad_beta equal the published order's."""
        rng = np.random.default_rng(18)
        x, state = _pooled_case(rng, 128, np.float64)
        p = _identity_conv(6, 6, np.float64)
        _, _, ref_backward = _published_order(x, p, state(), "train", relu=True)
        y, _, backward = _one_op(x, p, state(), "train", relu=True)
        g = rng.standard_normal(y.shape)
        _, gx, _, gg, gb = backward(g)
        _, rx, _, rg, rb = ref_backward(g)
        np.testing.assert_array_equal(gx, rx)
        np.testing.assert_array_equal(gb, rb)
        x_max = x[:, :, 2].reshape(2, -1, ops._POOL).max(axis=2)
        mu, inv = x[:, :, 2].mean(), 1 / np.sqrt(x[:, :, 2].var() + ops._BN_EPS)
        mask = y[:, :, 2] > 0
        assert mask.all(), "beta > 0 passes every window of the gamma-0 channel"
        assert gg[2] != rg[2]
        assert gg[2] == pytest.approx((g[:, :, 2] * mask * (x_max - mu) * inv).sum(), rel=1e-12)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("Cin", POOLED_CIN)
    def test_nan_raises(self, Cin, mode):
        """A NaN input makes a NaN conv output, which the conv refuses
        clip by clip before its batch norm sees it."""
        x, state = _pooled_case(np.random.default_rng(17), 128, np.float32)
        x[1, 50, 3] = np.nan
        with pytest.raises(NonFiniteError, match="conv1d"):
            ops.conv1d_bn_pool_forward(_widened(x, Cin), _identity_conv(Cin, 6, np.float32),
                                       state(), mode)

    def test_overflow_to_pos_inf_raises(self):
        """A pre-ReLU +inf wins its window, so it is always seen."""
        x = np.zeros((2, 4, 1), np.float32)
        x[0, :, 0] = [3, -1, -1, -1]
        s = _bn_state(1, np.float32, gamma=np.array([2.45e38], np.float32))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="batchnorm"):
            ops.conv1d_bn_pool_forward(x, _identity_conv(1, 1, np.float32), s, "train")

    def test_pooled_away_neg_inf_does_not_raise(self):
        """A pre-ReLU -inf that loses its window is not seen: the ReLU maps
        it to 0 either way. Unpooled, the same input raises. Channel 1 has
        a negative gamma and pools the min."""
        x = np.zeros((2, 4, 2), np.float32)
        x[0, :, 0] = [-3, 1, 1, 1]
        x[0, :, 1] = [3, -1, -1, -1]
        gamma = np.array([2.45e38, -2.45e38], np.float32)
        p = _identity_conv(2, 2, np.float32)
        with np.errstate(over="ignore"):
            y, _, _ = _one_op(x, p, _bn_state(2, np.float32, gamma), "train", relu=True)
            assert np.all(np.isfinite(y)) and y[0, 0].min() > 1e38
            with pytest.raises(NonFiniteError, match="batchnorm"):
                _published_order(x, p, _bn_state(2, np.float32, gamma), "train")


class TestBatchNormOwnsInput:
    """Train-mode batch norm takes x over, and its backward builds grad_x
    in x's buffer: the conv output, which conv1d_bn_pool_forward keeps only
    for a deep conv. After a thin conv the backward returns the compact
    _SlotGrad, which the conv's backward applies to each rebuilt clip."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [125, 128, 2001])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("Cin", POOLED_CIN)
    def test_pooled_backward_equals_bn_then_maxpool_bytewise(self, Cin, relu, T, dtype):
        """Every gradient is byte-equal to the published order's, whose
        maxpool backward scatters into zeros and whose batch norm backward
        adds x * b and c onto them: signed zeros included. The BN outputs
        have no ties within a window."""
        rng = np.random.default_rng(T + 1)
        x, state = _pooled_case(rng, T, dtype, gamma=(1.3, -0.7, 0.8, 2.1, -1.9, 0.4))
        # Channel 0 is dead (g all zero there), with gamma > 0 and a
        # negative mean: its b and c are -0.0, so x * b is -0.0 where x > 0.
        x[..., 0] -= x[..., 0].mean() + 0.5
        assert (x[..., 0] > 0).any() and x[..., 0].mean() < 0
        pre = ops.batchnorm_forward(x, state(), "train")[0]
        windows = np.pad(pre, ((0, 0), (0, -T % ops._POOL), (0, 0)), constant_values=-np.inf)
        windows = windows.reshape(2, -1, ops._POOL, 6)
        assert np.all((windows == windows.max(axis=2, keepdims=True)).sum(axis=2) == 1)
        x, p = _widened(x, Cin), _identity_conv(Cin, 6, dtype)
        y, _, backward = _one_op(x, p, state(), "train", relu)
        g = rng.standard_normal(y.shape).astype(dtype)
        g[..., 0] = 0
        _, _, ref_backward = _published_order(x, p, state(), "train", relu)
        _same_grads(backward(g), ref_backward(g))


class TestStreamedConvBatchNormPool:
    """conv1d_bn_pool_forward against the published order: conv1d_forward,
    batchnorm_forward, then maxpool1d_forward. A thin conv's batch norm
    keeps no conv output, so its backward returns the compact _SlotGrad,
    and the conv's backward rebuilds each clip's output and applies it
    there; a deep conv's keeps the output in train mode."""

    # (T, Cin, rf, stride): rf 8, 80 and 320 at strides 1 and 4, at the
    # stem's Cin 1 and up to just below the threshold, and two deep convs.
    # Every conv output but the 400-row one ends in a ragged pool window,
    # and the 2001-row ones span several blocks of the float64 sums.
    CASES = [(2001, 1, 8, 1), (2001, 3, 80, 1), (403, 1, 80, 4), (1600, 1, 80, 4),
             (1283, 2, 320, 4), (403, ops._IM2COL_MAX_CIN - 1, 8, 4),
             (403, ops._IM2COL_MAX_CIN, 8, 4), (2001, 16, 3, 1)]

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T,Cin,rf,stride", CASES)
    def test_equals_conv_then_pooled_batch_norm_bytewise(self, T, Cin, rf, stride, dtype, mode):
        """The pooled output, the slot index, the running statistics and,
        in train mode, grad_x, grad_kernel and the BN grads equal the
        published order's byte for byte. Gammas take both signs, so some
        channels pool the min."""
        rng = np.random.default_rng(T + Cin + rf)
        x = rng.standard_normal((3, T, Cin)).astype(dtype)
        k = rng.standard_normal((rf, Cin, 6)).astype(dtype)
        _, state = _pooled_case(rng, 8, dtype, gamma=(1.3, -0.7, 0.8, 2.1, -1.9, 0.4))
        out_T = -(-T // stride)
        assert (out_T % ops._POOL == 0) == (out_T == 400)
        g = rng.standard_normal((3, -(-out_T // ops._POOL), 6)).astype(dtype)
        p, s, s_ref = ConvParams(k, stride=stride), state(), state()
        y, idx, backward = _one_op(x, p, s, mode)
        ref, ref_idx, ref_backward = _published_order(x, p, s_ref, mode)
        for name in ("running_mean", "running_var"):
            _same_bytes(getattr(s, name), getattr(s_ref, name))
        _same_bytes(y, ref)
        if mode == "infer":
            return
        _same_bytes(idx, ref_idx)
        _same_grads(backward(g), ref_backward(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_channel_adds_rows_in_order(self, dtype):
        """Batch-norm statistics add rows in order (_bn_sums) at every
        width, where numpy's own sum of a lone channel goes pairwise. So a
        1-channel conv gives the pooled output, slot index and statistics
        (float64, and the running ones) of the published order with a
        1-channel batch norm, bit for bit, and in float64 not the pairwise
        sums'."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2001, 1)).astype(dtype)
        p = ConvParams(rng.standard_normal((8, 1, 1)).astype(dtype))
        gamma, beta = np.array([-1.3], dtype), np.array([0.2], dtype)
        s, s_ref = (_bn_state(1, dtype, gamma.copy(), beta.copy()) for _ in range(2))
        out, _, bn_cache = ops.conv1d_bn_pool_forward(x, p, s, "train")
        y, _ = ops.conv1d_forward(x, p)
        h, cache = ops.batchnorm_forward(y.copy(), s_ref, "train")
        ref, (ref_idx, _) = ops.maxpool1d_forward(h, "train")
        for got, want in ((out, ref), (bn_cache[3][0], ref_idx),
                          (bn_cache[4], cache[4]), (bn_cache[5], cache[5]),
                          (s.running_mean, s_ref.running_mean), (s.running_var, s_ref.running_var)):
            _same_bytes(got, want)
        if dtype == np.float64:  # these float32 values sum exactly in float64, in any order
            pairwise = y.reshape(-1, 1).sum(axis=0) / y.size
            assert pairwise != bn_cache[4]

    def test_refuses_a_bias(self):
        """Any conv without bias runs with its pooled batch norm, and only a
        thin one's backward takes the compact gradient."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 40, ops._IM2COL_MAX_CIN))
        _, state = _pooled_case(rng, 8, np.float64)
        _, _, bn_cache = ops.conv1d_bn_pool_forward(
            x[..., :1], ConvParams(rng.standard_normal((3, 1, 6))), state(), "train")
        gy = ops.batchnorm_backward(rng.standard_normal((2, 10, 6)), bn_cache)[0]
        for Cin, bias in ((ops._IM2COL_MAX_CIN, None), (1, np.zeros(6))):
            p = ConvParams(rng.standard_normal((3, Cin, 6)), bias, stride=1)
            if bias is not None:
                with pytest.raises(ValueError, match="conv without bias"):
                    ops.conv1d_bn_pool_forward(x[..., :Cin], p, state(), "train")
            _, cache = ops.conv1d_forward(x[..., :Cin], p)
            with pytest.raises(ValueError, match="compact gradient"):
                ops.conv1d_backward(gy, cache)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("Cin", [1, ops._IM2COL_MAX_CIN - 1, ops._IM2COL_MAX_CIN, 16])
def test_only_a_deep_conv_output_is_built_before_a_pooled_batch_norm(Cin, dtype, monkeypatch):
    """Through the model's conv and maxpool units, a pooled BN conv runs as
    one conv1d_bn_pool_forward, which goes through neither conv1d_forward
    nor batchnorm_forward at any width. With Cin < _IM2COL_MAX_CIN no cache
    holds an array of its output's size; a deeper conv's batch norm caches
    that output, the buffer its backward builds grad_x in. Either way the
    tape yields every gradient. Gradcheck's `conv_unit_bn_relu_pool` trial
    (float64, Cin 2-3) runs the first case: its finite differences check
    the thin route."""
    caches = []

    def keep(name):
        fn = getattr(ops, name)

        def kept(*args, **kwargs):
            *out, cache = fn(*args, **kwargs)
            caches.append((name, cache))
            return (*out, cache)
        monkeypatch.setattr(ops, name, kept)

    for name in ("conv1d_forward", "batchnorm_forward", "conv1d_bn_pool_forward"):
        keep(name)
    conv = models._ConvUnit(1, 8, 2, 6, with_bn=True)
    conv.pooled = True  # as _units marks a BN conv before a maxpool
    pool = models._MaxPoolUnit(1)
    graph = SimpleNamespace(params={}, state={}, dtype=np.dtype(dtype))
    conv.build(Cin, RandomSource(0), graph)
    x = RandomSource(1).normal((3, 50, Cin)).astype(dtype)
    tape = ops.OpTape()
    y = pool.forward(conv.forward(x, graph, "train", tape, None), graph, "train", tape, None)
    thin = Cin < ops._IM2COL_MAX_CIN
    assert [n for n, _ in caches] == ["conv1d_bn_pool_forward"]
    bn_cache = caches[-1][1]
    sizes = [a.size for a in bn_cache if isinstance(a, np.ndarray)]
    assert (3 * 25 * 6 in sizes) == (not thin), sizes
    grads = {}
    gx = tape.backward(np.ones_like(y), grads)
    assert gx.shape == x.shape and gx.dtype == x.dtype
    assert set(grads) == set(conv.param_names())


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

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ValueError, match="empty time axis"):
            ops.global_avg_pool(np.ones((1, 0, 2)))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        """Uniform logits with K=10: probabilities 0.1, loss ln 10."""
        logits, _ = ops.affine_forward(np.zeros((3, 4)), np.zeros((4, 10)), np.zeros(10))
        loss, probs, _ = ops.softmax_xent(logits, np.array([0, 5, 9]))
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
    def test_infer_identity(self):
        x = np.ones((3, 4))
        y, _ = ops.dropout(x, "infer")
        assert y is x

    def test_survivor_fraction_and_expectation(self):
        """rate 0.3 on >= 1e5 elements: ~70% survive, mean preserved."""
        from wavecnn.tensor import RandomSource

        x = np.ones((400, 300))
        y, _ = ops.dropout(x, "train", RandomSource(77))
        frac = np.count_nonzero(y) / y.size
        assert abs(frac - 0.7) < 0.02
        assert abs(y.mean() - 1.0) < 0.02

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ValueError, match="RandomSource"):
            ops.dropout(np.ones((2, 3)), "train")


class TestResidualBlock:
    """The model's residual block unit, run outside a full network."""

    def _block(self, Cin, Cout, zero=True, dtype=np.float64):
        block = models._ResBlockUnit(1, Cout, with_bn=True)
        graph = SimpleNamespace(params={}, state={}, dtype=np.dtype(dtype))
        block.build(Cin, RandomSource(0), graph)
        if zero:
            graph.params["conv1.kernel"][...] = 0.0
            graph.params["conv2.kernel"][...] = 0.0
        return block, graph

    def test_zero_branch_same_channels_is_relu(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 12, 5))
        block, graph = self._block(5, 5)
        y = block.forward(x, graph, "train", None, None)
        np.testing.assert_array_equal(y, np.maximum(x, 0.0))

    def test_zero_branch_channel_growth_pads(self):
        """48 -> 96 with a dead branch: y = relu([x || zeros]) exactly."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 6, 48))
        block, graph = self._block(48, 96)
        y = block.forward(x, graph, "train", None, None)
        expect = np.maximum(np.pad(x, ((0, 0), (0, 0), (0, 48))), 0.0)
        np.testing.assert_array_equal(y, expect)

    def test_time_length_unchanged(self):
        x = np.zeros((2, 17, 4))
        block, graph = self._block(4, 8)
        y = block.forward(x, graph, "infer", None, None)
        assert y.shape == (2, 17, 8)

    def test_channel_shrink_rejected(self):
        with pytest.raises(ValueError, match="shrink"):
            self._block(8, 4)

    def test_zeroed_group_is_relu_chain_of_padded_input(self):
        """An N-block group with dead branches computes relu of the
        channel-padded input, tensor-exactly."""
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 10, 3))
        h = x
        for cin, cout in [(3, 3), (3, 6), (6, 6)]:
            block, graph = self._block(cin, cout)
            h = block.forward(h, graph, "train", None, None)
        expect = np.maximum(np.pad(x, ((0, 0), (0, 0), (0, 3))), 0.0)
        np.testing.assert_array_equal(h, expect)

    def test_shortcut_overflow_rejected(self):
        """A branch output of -3e38 plus an input of -3e38 overflows to -inf
        in the shortcut add, which checks its sum before the ReLU zeroes it."""
        x = np.full((2, 6, 4), -3e38, dtype=np.float32)
        block, graph = self._block(4, 4, dtype=np.float32)
        graph.params["conv2.bn.beta"][...] = -3e38
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="shortcut_add"):
            block.forward(x, graph, "train", None, None)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_shortcut_overflow_before_maxpool_rejected(self, mode):
        """One -inf from the shortcut add loses its window to the -3e38
        around it, so a maxpool after the block would drop it; the add's
        own check refuses it first. The branch outputs beta = -3e38."""
        block, graph = self._block(4, 4, dtype=np.float32)
        pool = models._MaxPoolUnit(1)
        graph.params["conv2.bn.gamma"][...] = 0.0
        graph.params["conv2.bn.beta"][...] = -3e38
        x = np.zeros((2, 8, 4), dtype=np.float32)
        x[0, 5] = -3e38
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="shortcut_add"):
            pool.forward(block.forward(x, graph, mode, None, None), graph, mode, None, None)

    def test_fanout_gradient_accumulates_both_paths(self):
        """Input gradient = branch adjoint + shortcut adjoint."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 8, 3))
        block, graph = self._block(3, 3, zero=False)
        tape = ops.OpTape()
        y = block.forward(x, graph, "train", tape, None)
        gout = rng.standard_normal(y.shape)
        gx = tape.backward(gout, {})
        assert gx.shape == x.shape and np.all(np.isfinite(gx))
        # A dead branch passes no gradient to x, leaving the shortcut's share.
        block, graph = self._block(3, 6)
        tape = ops.OpTape()
        y = block.forward(x, graph, "train", tape, None)
        gout = rng.standard_normal(y.shape)
        gx = tape.backward(gout.copy(), {})  # the ReLU record writes in its gradient
        np.testing.assert_array_equal(gx, (gout * (y > 0))[:, :, :3])


class TestOpTape:
    def test_record_released_once_run(self):
        """The record backward runs first, and the cache it captured, are
        gone by the time the next record runs."""
        tape = ops.OpTape()
        alive = []
        tape.record(lambda g, grads: alive.append(ref() is not None) or g)
        cache = np.full(4, 3.0)
        ref = weakref.ref(cache)
        tape.record(lambda g, grads, cache=cache: g * cache)
        del cache
        g = tape.backward(np.full(4, 2.0), {})
        assert alive == [False]
        np.testing.assert_array_equal(g, 6.0)
        assert len(tape) == 2

    def test_second_walk_raises(self):
        tape = ops.OpTape()
        tape.record(lambda g, grads: g)
        tape.backward(np.ones(2), {})
        with pytest.raises(RuntimeError, match="once"):
            tape.backward(np.ones(2), {})
        assert len(tape) == 1
