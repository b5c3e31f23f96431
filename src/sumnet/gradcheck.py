"""Finite-difference verification suites over every pair the model runs.

Each suite returns (name, rel_err, tol) rows; a row passes when
rel_err < tol.  There is a row for every pair the model runs: the scan's,
the blocks' and stages', and the composite loss, each at OP_TOL; the
end-to-end model check samples individual parameter scalars and compares
against central differences at MODEL_TOL.  The generic tape ops and the loss
terms are test oracles, checked by the test suite.

Every suite runs in float64: the op rows on float64 arrays, the model rows
on a float64 model, whatever dtype training uses.

Outputs that pass through a layer norm are reduced with a fixed random
weighting, never a plain sum: a layer-norm row sums to zero by construction,
which would leave nothing but round-off in the finite differences.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import blocks as B
from . import objective as O
from . import scan as S
from . import tensor as T
from .model import Model, SumConfig, batch_loss
from .rng import derive, uniform_array
from .tensor import Tensor

OP_TOL = 1e-4
MODEL_TOL = 1e-3
_SEED = 20240915


def _arr(shape, lo=-1.0, hi=1.0, tag="x"):
    return uniform_array(shape, lo, hi, derive(_SEED, tag, *map(str, shape)))


def _weighted_sum(out: Tensor, tag: str) -> Tensor:
    """sum(out * w) for a fixed random w in [0.1, 1) drawn from `tag`: one node."""
    w = uniform_array(out.shape, 0.1, 1.0, derive(_SEED, "wsum", tag))
    return T.primitive("weighted_sum", (out,), lambda x, keep: ((x * w).sum(), None),
                       lambda _, g: (g * w,))


def _probe(rows: list, name: str, point: np.ndarray, f) -> None:
    """Append the row `name` of f's gradient at `point` against central
    differences, f's output weighted by the row's name."""
    err, _, _ = T.check_gradient(lambda t: _weighted_sum(f(t), name), Tensor(point))
    rows.append((name, err, OP_TOL))


def check_scan() -> list:
    """The merge and the 4-direction scan: its grid input and each of its
    seven parameter fields."""
    rows = []
    row = partial(_probe, rows)
    b, c, n = 2, 3, 2
    h, w = 2, 3
    seqs = [_arr((b, h * w, c), tag=f"merge.{d}") for d in S.DIRECTION_ORDER]
    for k, d in enumerate(S.DIRECTION_ORDER):
        row(f"cross_merge.{d}", seqs[k], lambda t, k=k: T.primitive(
            "cross_merge", [t if j == k else v for j, v in enumerate(seqs)],
            lambda *s, keep: (S.cross_merge_fwd(s, h, w), None),
            lambda _, g: tuple(S._traversals(g))))

    grid = _arr((4, 4, c), tag="grid")
    p2 = S.init_ss2d_params(c, n, derive(_SEED, "ss2d-params"), "g2")
    row("ss2d.input", grid, lambda t: S.ss2d(t, p2))
    row("ss2d.input_batched", _arr((b, 3, 4, c), tag="gridb"), lambda t: S.ss2d(t, p2))

    def with_slice(params, field, k):  # params with slice k of field probed, the rest fixed
        stack = getattr(params, field).data
        return lambda t: replace(params, **{field: T.primitive(
            "slice_probe", (t,), lambda x, keep: (np.concatenate(
                [stack[:k], x[None], stack[k + 1:]]), None), lambda _, g: (g[k],))})

    # one direction's slice of an unshared parameter each, every field
    # once at least: a direction or group mix-up in the grouped scan moves
    # these rows, not the input rows
    for d, field in (("row_fwd", "a_log"), ("col_bwd", "a_log"), ("row_bwd", "w_delta"),
                     ("col_fwd", "d_skip"), ("row_fwd", "w_b"), ("row_bwd", "w_c"),
                     ("col_fwd", "v_delta"), ("col_bwd", "b_delta")):
        k = S.DIRECTION_ORDER.index(d)
        probed = with_slice(p2, field, k)
        row(f"ss2d.{d}.{field}", getattr(p2, field).data[k].copy(),
            lambda t, probed=probed: S.ss2d(grid, probed(t)))
    shared = S.init_ss2d_params(c, n, derive(_SEED, "ss2d-shared"), "g3", shared=True)
    row("ss2d.shared", shared.a_log.data.copy(),
        lambda t: S.ss2d(grid, replace(shared, a_log=t)))
    return rows


def check_blocks() -> list:
    """Norms, convolution, the stages, the gated block, and conditioning."""
    rows = []
    row = partial(_probe, rows)
    c = 4
    x = Tensor(_arr((5, 5, c), tag="bx"))
    ln = B.init_layer_norm(c)
    row("layer_norm.input", x.data, lambda t: B.layer_norm(t, ln))
    # per-sample [2, 1, 1, C] gamma and beta, as a modulated gated block folds them
    ln_b = B.LayerNormParams(*(Tensor(_arr((2, 1, 1, c), 0.5, 1.5, f"ln.{k}")) for k in "gb"))
    row("layer_norm.input_batched", _arr((2, 3, 3, c), tag="lnbx"),
        lambda t: B.layer_norm(t, ln_b))
    row("layer_norm.gamma", ln.gamma.data.copy(),
        lambda t: B.layer_norm(x, B.LayerNormParams(t, ln.beta)))
    row("layer_norm.beta", _arr((c,), tag="lnb"),
        lambda t: B.layer_norm(x, B.LayerNormParams(ln.gamma, t)))

    dw = B.init_dwconv(c, derive(_SEED, "dw"), "g")
    row("depthwise_conv.input", _arr((2, 4, 3, c), tag="dwx"),
        lambda t: B.depthwise_conv3x3(t, dw))
    row("depthwise_conv.kernel", dw.kernel.data.copy(),
        lambda t: B.depthwise_conv3x3(x, B.DWConvParams(t, dw.bias)))
    row("depthwise_conv.bias", _arr((c,), tag="dwb"),
        lambda t: B.depthwise_conv3x3(x, B.DWConvParams(dw.kernel, t)))

    lin = B.init_linear(c, 3, derive(_SEED, "lin"), "g")
    row("linear.weight", lin.weight.data.copy(), lambda t: B.linear(x, B.Linear(t, lin.bias)))
    row("linear.bias", _arr((3,), tag="linb"), lambda t: B.linear(x, B.Linear(lin.weight, t)))
    row("linear.input", _arr((2, 3, 3, c), tag="linx"), lambda t: B.linear(t, lin))

    img = _arr((8, 8, 3), 0.0, 1.0, "img")
    pe = B.init_patch_embed(c, derive(_SEED, "pe"))
    row("patch_embed.input", img, lambda t: B.patch_embed(t, pe))
    row("patch_embed.proj_weight", pe.proj.weight.data.copy(), lambda t: B.patch_embed(
        img, B.PatchEmbedParams(B.Linear(t, pe.proj.bias), pe.norm)))

    down = B.init_downsample(c, derive(_SEED, "down"), "g")
    dx = _arr((4, 4, c), tag="dx")
    row("downsample.input", dx, lambda t: B.downsample(t, down))
    row("downsample.norm_gamma", _arr((4 * c,), 0.5, 1.5, "downg"), lambda t: B.downsample(
        dx, B.DownsampleParams(B.LayerNormParams(t, down.norm.beta), down.proj)))

    # a decoder up-step: a 2x expand of C channels plus a projected C/2 skip
    up = B.init_patch_expand(c, 2, derive(_SEED, "up"), "g")
    skip = B.init_linear(c // 2, c // 2, derive(_SEED, "skip"), "g")
    ux, sx = _arr((2, 3, 3, c), tag="ux"), _arr((2, 6, 6, c // 2), tag="sx")
    row("up_step.input", ux, lambda t: B.up_step(t, sx, up, skip))
    row("up_step.skip", sx, lambda t: B.up_step(ux, t, up, skip))
    row("up_step.proj_weight", up.proj.weight.data.copy(), lambda t: B.up_step(
        ux, sx, B.PatchExpandParams(B.Linear(t, up.proj.bias), 2), skip))
    row("up_step.skip_weight", skip.weight.data.copy(),
        lambda t: B.up_step(ux, sx, up, B.Linear(t, skip.bias)))

    # the saliency head: a 4x expand of 2C channels, a readout to one channel
    head = B.init_patch_expand(2 * c, 4, derive(_SEED, "head"), "g")
    readout = B.init_linear(c // 2, 1, derive(_SEED, "readout"), "g")
    hx = _arr((2, 2, 2, 2 * c), tag="hx")
    row("head.input", hx, lambda t: B.head(t, head, readout))
    row("head.readout_weight", readout.weight.data.copy(),
        lambda t: B.head(hx, head, B.Linear(t, readout.bias)))

    vss = B.init_vss(c, 2, derive(_SEED, "vss"), "g")
    vx = _arr((4, 4, c), tag="vx")
    row("vss.input", vx, lambda t: B.gated_block(t, vss))
    row("vss.gate_weight", vss.gate.weight.data.copy(),
        lambda t: B.gated_block(vx, replace(vss, gate=B.Linear(t, vss.gate.bias))))
    # [2, 5] knobs away from identity on a [2, 4, 4, C] grid
    grid = _arr((2, 4, 4, c), tag="cvx")
    knobs = _arr((2, 5), -0.5, 0.5, "knobs") + np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    row("gated_block.input", grid, lambda t: B.gated_block(t, vss, knobs))
    row("gated_block.knobs", knobs, lambda t: B.gated_block(grid, vss, t))

    cond = B.init_conditioner(4, 8, derive(_SEED, "cond"))
    one_hot = B.init_conditioner(4, 8, derive(_SEED, "cond"), one_hot=True)
    # make raw knobs nonzero so every layer of the MLP carries real gradients
    for p in (cond, one_hot):
        p.l3.weight.data = uniform_array(p.l3.weight.shape, -0.3, 0.3, derive(_SEED, "l3w"))
    labels = np.array([1, 3, 1])  # a label drawn twice adds both rows' gradients
    row("conditioner.tokens", cond.tokens.data.copy(),
        lambda t: B.conditioner(replace(cond, tokens=t), labels))
    for name, p, k in (("l1_weight", cond, 1), ("l3_weight", cond, 3),
                       ("one_hot.l1_weight", one_hot, 1)):
        lin = getattr(p, f"l{k}")
        row(f"conditioner.{name}", lin.weight.data.copy(), lambda t, p=p, k=k, lin=lin:
            B.conditioner(replace(p, **{f"l{k}": B.Linear(t, lin.bias)}), labels))
    return rows


def check_objective() -> list:
    """The composite loss, gradients wrt prediction: one map, the literal KL
    and a stack."""
    rows = []
    row = partial(_probe, rows)
    size = 6
    gt = uniform_array((size, size), 0.01, 1.0, derive(_SEED, "gt"))
    gt = gt / gt.sum()
    fix = np.zeros((size, size))
    fix[1, 2] = fix[4, 4] = fix[0, 5] = 1.0
    pred0 = uniform_array((size, size), 0.05, 0.95, derive(_SEED, "pred"))
    row("composite_loss", pred0, lambda t: O.composite_loss(gt, fix, t))
    row("composite_loss.literal", pred0, lambda t: O.composite_loss(gt, fix, t, kl_literal=True))
    # a stack, built like the single map above: per-map statistics, then
    # the mean over rows
    gts = uniform_array((3, size, size), 0.01, 1.0, derive(_SEED, "gts"))
    gts = gts / gts.sum(axis=(1, 2), keepdims=True)
    fixes = np.zeros((3, size, size))
    fixes[:, 1, 2] = fixes[0, 4, 4] = fixes[2, 0, 5] = 1.0
    preds = uniform_array((3, size, size), 0.05, 0.95, derive(_SEED, "preds"))
    row("composite_loss.batch", preds, lambda t: O.composite_loss(gts, fixes, t))
    return rows


def _micro_model() -> tuple:
    """A float64 micro model and one sample: in float32 the differences
    would measure rounding, not gradients."""
    cfg = SumConfig(input_size=32, base_channels=4, state_size=2,
                    encoder_depths=(1, 1, 1, 1), decoder_depths=(1, 1, 1, 1),
                    token_dim=8, seed=_SEED % (2 ** 24), dtype="float64")
    model = Model(cfg)
    from .data import Sample

    img = uniform_array((32, 32, 3), 0.0, 1.0, derive(_SEED, "mimg"))
    smap = uniform_array((32, 32), 0.0, 1.0, derive(_SEED, "mmap"))
    smap[smap < 0.7] = 0.0
    smap[4, 7] = 1.0
    fmap = np.zeros((32, 32))
    fmap[4, 7] = fmap[20, 11] = fmap[9, 28] = 1.0
    sample = Sample("m0", img, smap, fmap, 1)
    return model, sample


def check_model(scalars_per_param: int = 2, max_params: int = 120) -> list:
    """End-to-end: batch loss vs central differences on sampled parameters.

    Perturbs individual scalars (two per parameter over a deterministic
    sample of parameters, each direction of a scan parameter on its own,
    plus the conditioner's last layer) rather than whole arrays, keeping the
    check under a minute while still crossing every module boundary.
    """
    model, sample = _micro_model()

    def loss_value() -> float:
        return float(batch_loss(model, [sample], [0]).data)

    with T.Tape() as tape:
        loss = batch_loss(model, [sample], [0])
        grads = T.backward(tape, loss)
    # name -> (array, gradient); a scan parameter's direction slices are
    # units of their own, <block>.ssm.<direction>.<field>
    units = {}
    for name, t in model.params().items():
        if ".ssm." in name:
            block, field = name.rsplit(".ssm.", 1)
            tags = ("shared",) if len(t.data) == 1 else S.DIRECTION_ORDER
            for k, d in enumerate(tags):
                units[f"{block}.ssm.{d}.{field}"] = (t.data[k], grads[t][k])
        else:
            units[name] = (t.data, grads[t])

    names = sorted(units)
    if len(names) > max_params:
        idx = np.linspace(0, len(names) - 1, max_params).astype(int)
        names = [names[i] for i in sorted(set(idx.tolist()))]
    # every conditioner scalar but its last layer's sits behind that
    # zero-initialized layer, where gradient and differences are both 0:
    # the last layer is what the model.cond row checks
    names += [n for n in ("cond.l3.weight", "cond.l3.bias") if n in units and n not in names]

    h = 1e-4
    worst = {}
    with T._suspend_recording():
        for name in names:
            data, grad = units[name]
            flat = data.ravel()
            n = flat.size
            picks = sorted({int(derive(_SEED, "pick", name, str(j)) % n)
                            for j in range(min(scalars_per_param, n))})
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                ad = grad.ravel()[i]
                err = abs(ad - fd) / (1e-8 + abs(fd))
                key = name.split(".b")[0].split(".", 1)[0]
                worst[key] = max(worst.get(key, 0.0), err)
    return [(f"model.{key}", err, MODEL_TOL) for key, err in sorted(worst.items())]


SUITES = {
    "scan": check_scan,
    "blocks": check_blocks,
    "objective": check_objective,
    "model": check_model,
}


def run_suite(module: str = "all") -> list:
    """Rows for one module or all of them, in a fixed order."""
    if module == "all":
        rows = []
        for name in ("scan", "blocks", "objective", "model"):
            rows.extend(SUITES[name]())
        return rows
    if module not in SUITES:
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from all, {', '.join(SUITES)}")
    return SUITES[module]()
