"""The numpy and BLAS behaviour that the bitwise checks rest on.

The float64 oracle, the step digest and the byte-equality tests of the
streamed stem prove a change by equal bits. Those bits depend on how numpy
orders a reduction and on how BLAS splits a GEMM. Each test here pins one
such behaviour on a small case, and its failure message names it, so an
upgrade that changes one fails here, near the cause, and not as a new step
digest.

One behaviour is deliberately not relied on: a block of a float32 GEMM's
rows need not give those rows of the whole GEMM. With scipy-openblas
0.3.31 an (M, 80) @ (80, 24) product takes another kernel below about 520
rows, and its rows differ in the last bits. So the streamed stem computes
each clip's GEMM whole, as conv1d_forward does, and blocks only its
float64 sums.
"""

import numpy as np
import pytest


def _carried_sums(x, rows):
    """Float64 per-column sum and sum of squares of x [N, C], taken in row
    blocks of `rows` as the streamed stem takes them: each block and its
    squares stacked [2, rows, C], their first row taking the totals so far,
    then summed over the rows."""
    sums = np.zeros((2, x.shape[1]))
    for r0 in range(0, len(x), rows):
        block = np.empty((2, *x[r0 : r0 + rows].shape))
        block[0] = x[r0 : r0 + rows]
        np.multiply(block[0], block[0], out=block[1])
        block[:, 0] += sums
        sums = block.sum(axis=1)
    return sums


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("C", [2, 3, 64])
def test_axis0_float64_reductions_add_rows_in_order(C, dtype):
    rng = np.random.default_rng(C)
    x = (rng.standard_normal((1003, C)) * 10.0 ** rng.uniform(-5, 5, C)).astype(dtype)
    mean = x.mean(axis=0, dtype=np.float64)
    sum_sq = np.einsum("ij,ij->j", x, x, dtype=np.float64)
    for rows in (1, 4, 7, 500, 1003):
        acc = _carried_sums(x, rows)
        assert np.array_equal(acc[0] / len(x), mean) and np.array_equal(acc[1], sum_sq), (
            "float64 axis-0 sum/mean/einsum of a C-contiguous (N, C >= 2) "
            f"{np.dtype(dtype).name} array no longer adds rows in order: a carried "
            f"accumulator over {rows}-row blocks gives other bits")


@pytest.mark.parametrize("B", [1, 2, 8])
def test_stacked_float32_matmul_gives_each_clip_its_own_gemm(B):
    rng = np.random.default_rng(B)
    x = rng.standard_normal((B, 301, 24)).astype(np.float32)
    k = rng.standard_normal((24, 40)).astype(np.float32)
    stacked = np.matmul(x, k)
    for b in range(B):
        assert np.array_equal(stacked[b], x[b] @ k), (
            f"a stacked float32 np.matmul at B={B} gives clip {b} other bits "
            "than its own 2-D GEMM")
