"""Brute-force reference implementations and the finite-difference harness.

These stay deliberately naive (scalar loops, direct definitions) and
independent of the library's vectorized paths; tests compare both routes.
"""

import numpy as np

from wavecnn.ops import _same_pad_1d


def conv1d_naive(x, kernel, bias=None, stride=1):
    """Triple-loop same-padded conv; accumulates products in (tap, channel)
    order with the bias added last."""
    B, T, Cin = x.shape
    rf, _, Cout = kernel.shape
    out_T, left, right = _same_pad_1d(T, rf, stride)
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
    y = np.zeros((B, out_T, Cout), dtype=x.dtype)
    for b in range(B):
        for t in range(out_T):
            for o in range(Cout):
                acc = x.dtype.type(0.0)
                for r in range(rf):
                    for c in range(Cin):
                        acc += xp[b, t * stride + r, c] * kernel[r, c, o]
                if bias is not None:
                    acc += bias[o]
                y[b, t, o] = acc
    return y


def conv1d_backward_naive(x, kernel, grad_out, stride=1):
    """Adjoints of the same-padded conv by definition, in float64, one
    (tap, output step) pair at a time:
    grad_kernel[r,c,o] = sum_{b,t} xp[b, t*stride + r, c] * g[b,t,o], and
    grad_x is its transpose, scattered onto the padded input and cropped."""
    B, T, Cin = x.shape
    rf = kernel.shape[0]
    out_T, left, right = _same_pad_1d(T, rf, stride)
    xp = np.pad(x.astype(np.float64), ((0, 0), (left, right), (0, 0)))
    k = kernel.astype(np.float64)
    g = grad_out.astype(np.float64)
    grad_kernel = np.zeros(k.shape)
    grad_xp = np.zeros(xp.shape)
    for r in range(rf):
        for t in range(out_T):
            grad_kernel[r] += np.einsum("bc,bo->co", xp[:, t * stride + r, :], g[:, t, :])
            grad_xp[:, t * stride + r, :] += np.einsum("bo,co->bc", g[:, t, :], k[r])
    return grad_xp[:, left : left + T, :], grad_kernel


def maxpool1d_naive(x, window=4):
    """Loop maxpool with ceil semantics; first index wins ties."""
    B, T, C = x.shape
    out_T = -(-T // window)
    y = np.empty((B, out_T, C), dtype=x.dtype)
    idx = np.empty((B, out_T, C), dtype=np.int64)
    for b in range(B):
        for t in range(out_T):
            for c in range(C):
                best, best_i = x[b, t * window, c], 0
                for w in range(1, min(window, T - t * window)):
                    v = x[b, t * window + w, c]
                    if v > best:
                        best, best_i = v, w
                y[b, t, c] = best
                idx[b, t, c] = best_i
    return y, idx


def dft_magnitudes_naive(signal):
    """O(n^2) DFT magnitude for bins 0..floor(n/2)."""
    n = len(signal)
    bins = n // 2 + 1
    out = np.empty(bins, dtype=np.float64)
    for k in range(bins):
        re = im = 0.0
        for t in range(n):
            angle = -2.0 * np.pi * k * t / n
            re += signal[t] * np.cos(angle)
            im += signal[t] * np.sin(angle)
        out[k] = np.hypot(re, im)
    return out


def numerical_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a, b, floor=1e-12):
    """Normwise relative difference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)
