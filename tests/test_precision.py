"""float32 compute against the float64 reference: dtypes, bounds and edges.

A float32 model (the default) must compute, record and update in float32
alone; its loss and gradients must track the float64 model's at the same
parameters; and the ops whose float32 range is narrower than float64's
(exp overflows past 88.7, not 709) must stay finite wherever the float32
result is representable, or name their op when it is not.
"""

import numpy as np
import pytest

from sumnet import scan as S
from sumnet import tensor as T
from sumnet.model import Adam, Model, NumericAbort, batch_loss, train
from sumnet.objective import composite_loss
from sumnet.rng import SplitMix64
from sumnet.tensor import NumericError

from test_model import micro_cfg, micro_samples

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
CONDITIONINGS = [dict(), dict(conditioning="one-hot", placement="all-blocks"),
                 dict(conditioning="none")]


def _labels(cfg, samples):
    return None if cfg.conditioning == "none" else [s.label for s in samples]


def _loss_and_grads(model, samples):
    with T.Tape() as tape:
        loss = batch_loss(model, samples, list(range(len(samples))))
        grads = T.backward(tape, loss)
    return loss, tape, {n: grads[t] for n, t in model.params().items()}


# ---------------------------------------------------------------------------
# dtype propagation


@pytest.mark.parametrize("kw", CONDITIONINGS)
def test_a_float32_train_step_stays_float32(kw):
    m = Model(micro_cfg(**kw))
    tensors = m._tensors()
    assert m.dtype == F32 and all(t.data.dtype == F32 for t in tensors.values())
    # drawn in float64, rounded once
    for name, t in Model(micro_cfg(dtype="float64", **kw))._tensors().items():
        assert np.array_equal(tensors[name].data, t.data.astype(F32)), name
    samples = micro_samples(3)
    opt = Adam(m.params(), lr=1e-3)
    loss, tape, grads = _loss_and_grads(m, samples)
    # every node's output, the leaves (parameters, the cast images, a fixed
    # one-hot table) included, and every gradient
    assert {t.data.dtype for t in tape._tensors} == {F32}
    assert {g.dtype for g in grads.values()} == {F32}
    opt.step({m.params()[n]: g for n, g in grads.items()})
    assert opt.flat.dtype == opt.m.dtype == opt.v.dtype == F32
    assert all(t.data.dtype == F32 for t in m.params().values())
    imgs = np.stack([s.image for s in samples])  # float64 images are cast once
    assert m.predict(imgs, _labels(m.cfg, samples)).dtype == F32


def test_float32_loss_and_gradients_track_float64_at_the_same_parameters():
    # measured worst: loss 1.1e-7 relative, gradients 6.5e-5 of each array's
    # largest entry (C=4 micro models, prompt, one-hot and none)
    for kw in CONDITIONINGS:
        m32 = Model(micro_cfg(**kw))
        rng = SplitMix64(11)
        for t in m32.params().values():  # off the init, the zero knob head too
            t.data += rng.uniforms(t.size, -0.05, 0.05).reshape(t.shape).astype(F32)
        m64 = Model.loaded(micro_cfg(dtype="float64", **kw),
                           {n: t.data.astype(F64) for n, t in m32.params().items()})
        samples = micro_samples(4)
        loss32, _, g32 = _loss_and_grads(m32, samples)
        loss64, _, g64 = _loss_and_grads(m64, samples)
        assert abs(float(loss32.data) - float(loss64.data)) <= 1e-6 * abs(float(loss64.data))
        for name, want in g64.items():
            scale = np.abs(want).max()
            assert np.abs(g32[name] - want).max() <= 5e-4 * scale, (kw, name)


# ---------------------------------------------------------------------------
# the float32 edges

EDGE = np.array([-3.4e38, -1e4, -104.0, -89.0, -88.7, -88.0, -17.0, -1e-30, 0.0, 1e-30, 17.0,
                 88.0, 88.7, 89.0, 104.0, 1e4, 3.4e38])


def test_sigmoid_and_silu_grad_at_the_float32_edge():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s32 = T._sigmoid_raw(EDGE.astype(F32))
        d32 = T._silu_grad(EDGE.astype(F32), s32)
    s64 = T._sigmoid_raw(EDGE)
    assert s32.dtype == d32.dtype == F32
    assert np.isfinite(s32).all() and np.isfinite(d32).all()
    assert ((0.0 <= s32) & (s32 <= 1.0)).all()
    # float64's value rounded, but for float32's subnormals and its flush to 0
    assert np.allclose(s32, s64, rtol=1e-6, atol=1e-44)


def _scan_arrays(dtype, ch=len(EDGE), n=2, length=5, a_log=0.0):
    """selective_scan inputs for one group over `ch` channels, b_delta at
    the edge values (the softplus's pre-activation, with x near 0)."""
    rng = SplitMix64(7)
    x4 = rng.uniforms(length * ch, -1e-3, 1e-3).reshape(1, 1, length, ch)
    params = [np.full((1, ch, n), a_log), np.ones((1, ch)),
              rng.uniforms(ch * n, -0.5, 0.5).reshape(1, ch, n),
              rng.uniforms(ch * n, -0.5, 0.5).reshape(1, ch, n),
              rng.uniforms(ch, -0.5, 0.5).reshape(1, ch, 1),
              rng.uniforms(ch, -0.5, 0.5).reshape(1, 1, ch), EDGE[None, :ch]]
    return x4.astype(dtype), [p.astype(dtype) for p in params]


def _scan_run(dtype, **kw):
    x4, params = _scan_arrays(dtype, **kw)
    y, saved = S.selective_scan_fwd(x4, *params, keep=True)
    grads = S.selective_scan_bwd(saved, np.ones_like(y))
    return y, grads


def test_softplus_of_b_delta_at_the_float32_edge():
    # softplus(b) runs through exp(min(b, 30)): no overflow at any b, and
    # the float32 scan agrees with the float64 one
    y32, g32 = _scan_run(F32)
    y64, g64 = _scan_run(F64)
    assert y32.dtype == F32 and all(g.dtype == F32 for g in g32)
    for got, want in zip((y32, *g32), (y64, *g64)):
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-5 * max(np.abs(want).max(), 1.0)


def test_exp_a_log_at_the_float32_edge_and_past_it():
    # exp(88) = 1.65e38 is a float32; A = -exp(a_log) stays finite through
    # the forward and the backward (delta A at b = 3.4e38 overflows to -inf,
    # and exp(-inf) = 0 is abar's limit)
    with np.errstate(over="ignore"):
        y, grads = _scan_run(F32, a_log=88.0)
    assert np.isfinite(y).all() and all(np.isfinite(g).all() for g in grads)
    # exp(89) is not: a checked call names the op, where float64 is finite
    y64, grads64 = _scan_run(F64, a_log=89.0)
    assert np.isfinite(y64).all() and all(np.isfinite(g).all() for g in grads64)
    with pytest.raises(NumericError, match=r"^selective_scan exp\(a_log\): produced"):
        _scan_run(F32, a_log=89.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_log_past_the_float32_edge_aborts_training_and_names_the_op():
    # the forward squashes A = -inf (abar = 0), so only the gradient boundary
    # trips, and its checked replay names the op; float64 trains on
    samples = micro_samples(4)
    for dtype in ("float64", "float32"):
        m = Model(micro_cfg(epochs=1, batch_size=2, dtype=dtype))
        m.params()["enc1.b0.ssm.a_log"].data[2, 1, 0] = 89.0
        if dtype == "float64":
            assert train(m, samples[:3], samples[3:]).rows
            continue
        with pytest.raises(NumericAbort, match=r"^selective_scan exp\(a_log\): produced a "
                                               r"non-finite value \(epoch 0, batch 0\)$"):
            train(m, samples[:3], samples[3:])


def _edge_maps(size=16):
    """float32 prediction maps at the edges of the loss's normalizations."""
    rng = SplitMix64(5)
    spread = rng.uniforms(size * size).reshape(size, size)
    logits = 17.0 + 13.0 * spread  # float32 sigmoid saturates to exactly 1.0 here
    tiny = np.full((size, size), 1.4e-45)  # the smallest float32 subnormal
    tiny[3, 4] = 1.0
    return {
        "saturated sigmoid": T._sigmoid_raw(logits.astype(F32)),
        "float64's unsaturated sigmoid": T._sigmoid_raw(logits).astype(F32),
        "tiny mass": (1e-38 * (1.0 + spread)).astype(F32),  # mass^2 and spread^2 underflow
        "subnormal floor": tiny.astype(F32),
        "constant ones": np.ones((size, size), dtype=F32),
    }


@pytest.mark.parametrize("kl_literal", [False, True])
def test_composite_loss_normalizations_at_the_float32_edge(kl_literal):
    size = 16
    rng = SplitMix64(6)
    gt = rng.uniforms(size * size).reshape(size, size)
    gt[gt < 0.6] = 0.0
    fix = np.zeros((size, size))
    fix[3, 4] = fix[9, 12] = 1.0
    for name, pred in _edge_maps(size).items():
        results = {}
        for dtype in (F32, F64):
            p = T.Tensor(pred.astype(dtype), requires_grad=True)
            with T.Tape() as tape:
                loss = composite_loss(gt, fix, p, kl_literal=kl_literal)
                (g,) = T.backward(tape, loss).values()
            assert loss.data.dtype == g.dtype == dtype, name
            assert np.isfinite(loss.data) and np.isfinite(g).all(), (name, dtype)
            results[dtype] = loss.data, g
        # the loss computes in float64, so float32 gets float64's result rounded
        assert results[F32][0] == results[F64][0].astype(F32), name
        assert np.array_equal(results[F32][1], results[F64][1].astype(F32)), name
