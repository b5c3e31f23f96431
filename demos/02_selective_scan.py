"""The selective-scan kernel, checked against arithmetic you can do by hand.

Three exhibits:
  1. the linear recurrence on a 3-step input, unrolled with a calculator;
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
from sumnet.scan import (_traversals, bench_lengths, cross_merge_fwd, fit_loglog_slope,
                         ssm_recurrence)


def main():
    # -- 1. hand-unrolled recurrence ------------------------------------
    # h_t = exp(dt*A) h_{t-1} + dt*B x_t ; y_t = C h_t, with dt=1, A=-1,
    # B=C=1 and an impulse input: the state just decays, y = 1, 1/e, 1/e^2.
    # One sequence of 3 steps, 1 channel, 1 state: [B=1, L=3, C=1].
    delta = np.ones((1, 3, 1))
    a = np.array([[-1.0]])
    b_seq = np.ones((1, 3, 1))
    c_seq = np.ones((1, 3, 1))
    x = np.array([[[1.0], [0.0], [0.0]]])
    y = ssm_recurrence(delta, a, b_seq, c_seq, x)
    expected = [1.0, math.exp(-1), math.exp(-2)]
    print("recurrence y:", y.data.ravel())
    print("hand oracle :", np.array(expected))
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
