"""A train step and a prediction do not depend on the BLAS thread count.

The acceptance gate trains its conflict runs in worker processes pinned to
one OpenBLAS thread each; that keeps their results only if one and two
threads give the same bits.  OpenBLAS splits a matmul over threads by
blocks of the output, each block summed in the same order, so they should;
this checks it at the benchmark's and the acceptance gate's train shapes.
"""

import numpy as np
import pytest

from sumnet import tensor as T
from sumnet.data import Sample
from sumnet.model import Model, SumConfig, batch_loss
from sumnet.rng import SplitMix64

from blas_threads import blas_threads, openblas_threads


def _step_and_predict_bytes(model, samples) -> list:
    """The loss, every parameter's gradient and the predictions, as bytes."""
    idxs = list(range(len(samples)))
    with T.Tape() as tape:
        loss = batch_loss(model, samples, idxs)
        grads = T.backward(tape, loss)
    out = [loss.data.tobytes()]
    out += [grads[t].tobytes() for t in model.params().values()]
    imgs = np.stack([s.image for s in samples])
    out.append(model.predict(imgs, [s.label for s in samples]).tobytes())
    return out


@pytest.mark.parametrize("channels,size,batch", [(16, 64, 8), (8, 64, 16), (4, 32, 8)])
def test_train_step_and_predict_are_bit_identical_at_one_and_two_blas_threads(
        channels, size, batch):
    if openblas_threads() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    model = Model(SumConfig(input_size=size, base_channels=channels, seed=4))
    rng = SplitMix64(9)
    for t in model.params().values():  # off the init, the zero knob head too
        t.data += rng.uniforms(t.size, -0.05, 0.05).reshape(t.shape).astype(t.data.dtype)
    samples = []
    for i in range(batch):
        smap = rng.uniforms(size * size, 0.05, 1.0).reshape(size, size)
        fmap = (rng.uniforms(size * size).reshape(size, size) > 0.95).astype(np.float64)
        samples.append(Sample(f"s{i}", rng.uniforms(size * size * 3).reshape(size, size, 3),
                              smap, fmap, i % 4))
    runs = {}
    for n in (1, 2):
        with blas_threads(n):
            runs[n] = _step_and_predict_bytes(model, samples)
    names = ["loss"] + list(model.params()) + ["predict"]
    differ = [name for name, a, b in zip(names, runs[1], runs[2]) if a != b]
    assert not differ, f"differ between 1 and 2 threads: {differ[:5]}"
