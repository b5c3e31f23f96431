"""The selective-scan kernel, checked against arithmetic you can do by hand.

Three exhibits:
  1. ss2d, the four-direction selective scan, on a 1x3 grid with one
     channel, unrolled with a calculator;
  2. the four traversals of a grid and their merge (the numpy pair
     _traversals / cross_merge_fwd) as an exact (bit-for-bit) 4x identity;
  3. wall-clock growth of the kernel: doubling the sequence roughly
     doubles the time, i.e. the scan is linear in L, not quadratic.

Timings go to stderr, so stdout is the same bytes on every run.
"""

import math
import sys

import numpy as np

from sumnet.rng import SplitMix64
from sumnet.scan import (SSMParams, _traversals, bench_lengths, cross_merge_fwd,
                         fit_loglog_slope, ss2d)
from sumnet.tensor import Tensor


def main():
    # -- 1. hand-unrolled scan ------------------------------------------
    # h_t = exp(delta A) h_{t-1} + delta B_t x_t ; y_t = C_t h_t + D x_t, with
    # one channel and one state: delta = softplus(b_delta) = 1, A = -exp(0)
    # = -1, B_t = C_t = x_t (weights 1) and D = 0.  On the constant input
    # x = 1 the state runs 1, 1 + 1/e, 1 + 1/e + 1/e^2 along a traversal.
    # One shared parameter set, on a batch of one 1x3 grid: its
    # column-major traversals are its row-major ones, so the merge is twice
    # (forward + backward sweep).
    one, zero = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
    params = SSMParams(a_log=Tensor(zero), d_skip=Tensor(np.zeros((1, 1))),
                       w_b=Tensor(one), w_c=Tensor(one), w_delta=Tensor(zero),
                       v_delta=Tensor(zero), b_delta=Tensor(np.full((1, 1), math.log(math.e - 1))))
    y = ss2d(np.ones((1, 1, 3, 1)), params)
    fwd = np.cumsum([math.exp(-t) for t in range(3)])  # 1, 1 + 1/e, 1 + 1/e + 1/e^2
    expected = 2.0 * (fwd + fwd[::-1])
    print("ss2d y      :", y.data.ravel())
    print("hand oracle :", expected)
    print("max abs diff:", np.max(np.abs(y.data.ravel() - expected)))

    # -- 2. four traversals, one exact inverse --------------------------
    rng = SplitMix64(4)
    f = rng.uniforms(5 * 7 * 4).reshape(1, 5, 7, 4)
    merged = cross_merge_fwd(_traversals(f), 5, 7)
    print("cross_merge(cross_scan(f)) == 4f exactly:", np.array_equal(merged, 4.0 * f))

    # -- 3. linear wall-clock growth ------------------------------------
    lengths = [256, 512, 1024, 2048]
    mins = list(bench_lengths(lengths, channels=4, state_size=4, runs=3).values())
    for n, t in zip(lengths, mins):
        print(f"L={n:5d}  {t * 1e3:8.2f} ms", file=sys.stderr)
    print("log-log slope:", round(fit_loglog_slope(lengths, mins), 3),
          "(1.0 = perfectly linear)", file=sys.stderr)


if __name__ == "__main__":
    main()
