"""A tour of the reverse-mode tape.

Every differentiable operation in this package is a numpy pair -- a
forward that returns its output and what its backward needs, and that
backward -- recorded as one node on an ambient Tape by `T.primitive`.
backward() replays the tape in reverse and hands back one gradient array
per leaf tensor.  Here we define an op of our own the same way, and watch
its gradient agree live with the finite-difference oracle the test suite
uses.
"""

import numpy as np

from sumnet import tensor as T
from sumnet.rng import SplitMix64


def mean_sigmoid_affine(x, w):
    """mean(sigmoid(x @ w)) as one tape node over (x, w)."""
    def fwd(x, w, keep):
        s = 1.0 / (1.0 + np.exp(-(x @ w)))
        return s.mean(), (x, w, s)

    def bwd(saved, g):
        x, w, s = saved
        g_z = g * s * (1.0 - s) / s.size  # back through the mean and the sigmoid
        return g_z @ w.T, x.T @ g_z

    return T.primitive("mean_sigmoid_affine", (x, w), fwd, bwd)


def main():
    rng = SplitMix64(11)
    x = T.Tensor(rng.uniforms(6).reshape(2, 3))
    w = T.Tensor(rng.uniforms(3).reshape(3, 1) - 0.5, requires_grad=True)

    # A scalar objective: mean of a sigmoid-squashed affine map.
    with T.Tape() as tape:
        y = mean_sigmoid_affine(x, w)
        grads = T.backward(tape, y)

    print("objective  :", float(y.data))
    print("tape grad  :", grads[w].ravel())

    # Central finite differences, computed without the tape.
    def f(wt):
        wd = np.asarray(wt.data)
        return float(np.mean(1.0 / (1.0 + np.exp(-(x.data @ wd)))))

    fd = T.finite_diff_grad(f, w).data
    print("fd grad    :", fd.ravel())
    print("max rel err:", T.max_rel_err(grads[w], fd))

    # Recorded leaves outside the objective's ancestry get exact zeros.
    unused = T.Tensor(np.ones((3, 1)), requires_grad=True)
    with T.Tape() as tape:
        z = mean_sigmoid_affine(x, w)
        mean_sigmoid_affine(x, unused)  # on the tape, but z never saw it
        grads = T.backward(tape, z)
    print("unused leaf:", grads[unused].ravel())


if __name__ == "__main__":
    main()
