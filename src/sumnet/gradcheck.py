"""Finite-difference verification suites over every differentiable piece.

Each suite returns (name, rel_err, tol) rows; a row passes when
rel_err < tol.  Elementwise/matrix/reduction/shape ops and the composite
blocks use OP_TOL; the end-to-end model check samples individual parameter
scalars and compares against central differences at MODEL_TOL.

Outputs that pass through a layer norm are reduced with a fixed random
weighting, never a plain sum: a layer-norm row sums to zero by construction,
which would leave nothing but round-off in the finite differences.
"""

from __future__ import annotations

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
    w = uniform_array(out.shape, 0.1, 1.0, derive(_SEED, "wsum", tag))
    return T.reduce_sum(T.mul(out, Tensor(w)))


def _check(f, x: np.ndarray, h: float = 1e-4) -> float:
    err, _, _ = T.check_gradient(f, Tensor(x), h)
    return err


def check_tensor_ops() -> list:
    """One row per differentiable primitive, probed at generic points."""
    x = _arr((3, 4))
    pos = _arr((3, 4), 0.5, 2.0, "pos")
    other = Tensor(_arr((3, 4), -1.0, 1.0, "other"))
    safe = Tensor(_arr((3, 4), 0.6, 1.4, "den"))
    rows = []

    def add(name, f, point, tol=OP_TOL):
        rows.append((name, _check(f, point), tol))

    add("add", lambda t: _weighted_sum(T.add(t, other), "add"), x)
    add("sub", lambda t: _weighted_sum(T.sub(t, other), "sub"), x)
    add("mul", lambda t: _weighted_sum(T.mul(t, other), "mul"), x)
    add("div", lambda t: _weighted_sum(T.div(t, safe), "div"), x)
    add("minimum", lambda t: _weighted_sum(T.minimum(t, other), "min"), x)
    add("maximum", lambda t: _weighted_sum(T.maximum(t, other), "max"), x)
    add("exp", lambda t: _weighted_sum(T.exp(t), "exp"), x)
    add("log", lambda t: _weighted_sum(T.log(t), "log"), pos)
    add("sqrt", lambda t: _weighted_sum(T.sqrt(t), "sqrt"), pos)
    add("sigmoid", lambda t: _weighted_sum(T.sigmoid(t), "sigmoid"), x)
    add("silu", lambda t: _weighted_sum(T.silu(t), "silu"), x)
    add("softplus", lambda t: _weighted_sum(T.softplus(t), "softplus"), x)
    add("gelu", lambda t: _weighted_sum(T.gelu(t), "gelu"), x)
    mat = Tensor(_arr((4, 5), tag="mat"))
    add("matmul", lambda t: _weighted_sum(T.matmul(t, mat), "matmul"), x)
    add("reduce_sum", lambda t: _weighted_sum(T.reduce_sum(t, axes=1), "rsum"), x)
    add("reduce_mean", lambda t: _weighted_sum(T.reduce_mean(t, axes=0), "rmean"), x)
    add("reduce_var", lambda t: _weighted_sum(T.reduce_var(t, axes=1), "rvar"), x)
    add("reshape", lambda t: _weighted_sum(T.reshape(t, (2, 6)), "reshape"), x)
    add("transpose", lambda t: _weighted_sum(T.transpose(t, (1, 0)), "transpose"), x)
    add("flip", lambda t: _weighted_sum(T.flip(t, 1), "flip"), x)
    add("index", lambda t: _weighted_sum(t[1:, ::2], "index"), x)
    add("take", lambda t: _weighted_sum(T.take(t, np.array([0, 2, 2]), axis=0), "take"), x)
    add("concat", lambda t: _weighted_sum(T.concat([t, other], axis=1), "concat"), x)
    add("pad", lambda t: _weighted_sum(T.pad(t, ((1, 1), (0, 2))), "pad"), x)
    return rows


def check_scan() -> list:
    """Recurrence inputs, the merge, and the 4-direction scan: its grid input
    and each of its seven parameter fields."""
    rows = []
    b, length, c, n = 2, 5, 3, 2
    delta = _arr((b, length, c), 0.05, 0.5, "delta")
    a = _arr((c, n), -1.5, -0.2, "a")
    b_seq = _arr((b, length, n), tag="bseq")
    c_seq = _arr((b, length, n), tag="cseq")
    xs = _arr((b, length, c), tag="xs")

    def rec(name, f, point):
        rows.append((f"ssm_recurrence.{name}", _check(f, point), OP_TOL))

    rec("delta", lambda t: _weighted_sum(
        S.ssm_recurrence(t, Tensor(a), Tensor(b_seq), Tensor(c_seq), Tensor(xs)), "r.d"), delta)
    rec("a", lambda t: _weighted_sum(
        S.ssm_recurrence(Tensor(delta), t, Tensor(b_seq), Tensor(c_seq), Tensor(xs)), "r.a"), a)
    rec("b_seq", lambda t: _weighted_sum(
        S.ssm_recurrence(Tensor(delta), Tensor(a), t, Tensor(c_seq), Tensor(xs)), "r.b"), b_seq)
    rec("c_seq", lambda t: _weighted_sum(
        S.ssm_recurrence(Tensor(delta), Tensor(a), Tensor(b_seq), t, Tensor(xs)), "r.c"), c_seq)
    rec("x", lambda t: _weighted_sum(
        S.ssm_recurrence(Tensor(delta), Tensor(a), Tensor(b_seq), Tensor(c_seq), t), "r.x"), xs)

    def param_row(name, params, field, f, k=None):
        """A row probing params.<field>, or only its slice k on the direction
        axis (the other slices held fixed): f() runs with the probe in place."""
        def probe(t):
            saved = getattr(params, field)
            if k is not None:
                t = T.concat([saved.data[:k], T.reshape(t, (1,) + t.shape),
                              saved.data[k + 1:]], axis=0)
            setattr(params, field, t)
            try:
                return f()
            finally:
                setattr(params, field, saved)
        point = getattr(params, field).data
        rows.append((name, _check(probe, (point if k is None else point[k]).copy()), OP_TOL))

    h, w = 2, 3
    seqs = [_arr((b, h * w, c), tag=f"merge.{d}") for d in S.DIRECTION_ORDER]
    for k, d in enumerate(S.DIRECTION_ORDER):
        def merge(t, k=k):
            parts = [t if j == k else v for j, v in enumerate(seqs)]
            node = T.primitive("cross_merge", parts,
                               lambda *s, keep: (S.cross_merge_fwd(s, h, w), None),
                               lambda _, g: tuple(S._traversals(g)))
            return _weighted_sum(node, "merge")
        rows.append((f"cross_merge.{d}", _check(merge, seqs[k]), OP_TOL))

    grid = _arr((4, 4, c), tag="grid")
    p2 = S.init_ss2d_params(c, n, derive(_SEED, "ss2d-params"), "g2")
    rows.append(("ss2d.input",
                 _check(lambda t: _weighted_sum(S.ss2d(t, p2), "ss2d.in"), grid), OP_TOL))
    rows.append(("ss2d.input_batched",
                 _check(lambda t: _weighted_sum(S.ss2d(t, p2), "ss2d.inb"),
                        _arr((b, 3, 4, c), tag="gridb")), OP_TOL))
    # one direction's slice of an unshared parameter each, every field
    # once at least: a direction or group mix-up in the grouped scan moves
    # these rows, not the input rows
    for d, field in (("row_fwd", "a_log"), ("col_bwd", "a_log"), ("row_bwd", "w_delta"),
                     ("col_fwd", "d_skip"), ("row_fwd", "w_b"), ("row_bwd", "w_c"),
                     ("col_fwd", "v_delta"), ("col_bwd", "b_delta")):
        param_row(f"ss2d.{d}.{field}", p2, field,
                  lambda tag=f"ss2d.{d}.{field}": _weighted_sum(S.ss2d(Tensor(grid), p2), tag),
                  k=S.DIRECTION_ORDER.index(d))
    shared = S.init_ss2d_params(c, n, derive(_SEED, "ss2d-shared"), "g3", shared=True)
    param_row("ss2d.shared", shared, "a_log",
              lambda: _weighted_sum(S.ss2d(Tensor(grid), shared), "ss2d.shared"))
    return rows


def check_blocks() -> list:
    """Norms, convolution, resampling, the gated block, and conditioning."""
    rows = []
    c = 4
    x = _arr((5, 5, c), tag="bx")
    ln = B.init_layer_norm(c)
    rows.append(("layer_norm.input", _check(
        lambda t: _weighted_sum(B.layer_norm(t, ln), "ln.in"), x), OP_TOL))
    # per-sample [2, 1, 1, C] gamma and beta, as a modulated gated block folds them
    ln_b = B.LayerNormParams(*(Tensor(_arr((2, 1, 1, c), 0.5, 1.5, f"ln.{k}")) for k in "gb"))
    rows.append(("layer_norm.input_batched", _check(
        lambda t: _weighted_sum(B.layer_norm(t, ln_b), "ln.inb"), _arr((2, 3, 3, c), tag="lnbx")),
        OP_TOL))
    rows.append(("layer_norm.gamma", _check(
        lambda t: _weighted_sum(B.layer_norm(Tensor(x), B.LayerNormParams(t, ln.beta)),
                                "ln.g"), ln.gamma.data.copy()), OP_TOL))
    rows.append(("layer_norm.beta", _check(
        lambda t: _weighted_sum(B.layer_norm(Tensor(x), B.LayerNormParams(ln.gamma, t)),
                                "ln.b"), _arr((c,), tag="lnb")), OP_TOL))

    dw = B.init_dwconv(c, derive(_SEED, "dw"), "g")
    rows.append(("depthwise_conv.input", _check(
        lambda t: _weighted_sum(B.depthwise_conv3x3(t, dw), "dw.in"),
        _arr((2, 4, 3, c), tag="dwx")), OP_TOL))
    rows.append(("depthwise_conv.kernel", _check(
        lambda t: _weighted_sum(B.depthwise_conv3x3(Tensor(x), B.DWConvParams(t, dw.bias)),
                                "dw.k"), dw.kernel.data.copy()), OP_TOL))
    rows.append(("depthwise_conv.bias", _check(
        lambda t: _weighted_sum(B.depthwise_conv3x3(Tensor(x), B.DWConvParams(dw.kernel, t)),
                                "dw.b"), _arr((c,), tag="dwb")), OP_TOL))

    lin = B.init_linear(c, 3, derive(_SEED, "lin"), "g")
    rows.append(("linear.weight", _check(
        lambda t: _weighted_sum(B.linear(Tensor(x), B.Linear(t, lin.bias)), "lin.w"),
        lin.weight.data.copy()), OP_TOL))
    rows.append(("linear.bias", _check(
        lambda t: _weighted_sum(B.linear(Tensor(x), B.Linear(lin.weight, t)), "lin.b"),
        _arr((3,), tag="linb")), OP_TOL))
    rows.append(("linear.input", _check(
        lambda t: _weighted_sum(B.linear(t, lin), "lin.in"), _arr((2, 3, 3, c), tag="linx")),
        OP_TOL))

    img = _arr((8, 8, 3), 0.0, 1.0, "img")
    pe = B.init_patch_embed(c, derive(_SEED, "pe"))
    rows.append(("patch_embed.input", _check(
        lambda t: _weighted_sum(B.patch_embed(t, pe), "pe.in"), img), OP_TOL))
    rows.append(("patch_embed.proj_weight", _check(
        lambda t: _weighted_sum(B.patch_embed(Tensor(img), B.PatchEmbedParams(
            B.Linear(t, pe.proj.bias), pe.norm)), "pe.w"), pe.proj.weight.data.copy()), OP_TOL))

    down = B.init_downsample(c, derive(_SEED, "down"), "g")
    dx = _arr((4, 4, c), tag="dx")
    rows.append(("downsample.input", _check(
        lambda t: _weighted_sum(B.downsample(t, down), "down.in"), dx), OP_TOL))
    rows.append(("downsample.norm_gamma", _check(
        lambda t: _weighted_sum(B.downsample(Tensor(dx), B.DownsampleParams(
            B.LayerNormParams(t, down.norm.beta), down.proj)), "down.g"),
        _arr((4 * c,), 0.5, 1.5, "downg")), OP_TOL))

    up = B.init_patch_expand(c, 2, derive(_SEED, "up"), "g")
    ux = _arr((3, 3, c), tag="ux")
    rows.append(("patch_expand.input", _check(
        lambda t: _weighted_sum(B.patch_expand(t, up), "up.in"), ux), OP_TOL))
    rows.append(("patch_expand.proj_weight", _check(
        lambda t: _weighted_sum(B.patch_expand(Tensor(ux), B.PatchExpandParams(
            B.Linear(t, up.proj.bias), 2)), "up.w"), up.proj.weight.data.copy()), OP_TOL))

    # the saliency head: a 4x expand of 2C channels, a readout to one channel
    head = B.init_patch_expand(2 * c, 4, derive(_SEED, "head"), "g")
    readout = B.init_linear(c // 2, 1, derive(_SEED, "readout"), "g")
    hx = _arr((2, 2, 2, 2 * c), tag="hx")
    rows.append(("head.input", _check(
        lambda t: _weighted_sum(B.head(t, head, readout), "head.in"), hx),
        OP_TOL))
    rows.append(("head.readout_weight", _check(
        lambda t: _weighted_sum(B.head(Tensor(hx), head, B.Linear(
            t, readout.bias)), "head.w"), readout.weight.data.copy()), OP_TOL))

    vss = B.init_vss(c, 2, derive(_SEED, "vss"), "g")
    rows.append(("vss.input", _check(
        lambda t: _weighted_sum(B.gated_block(t, vss), "vss.in"), _arr((4, 4, c), tag="vx")),
        OP_TOL))
    rows.append(("vss.gate_weight", _check(
        lambda t: _weighted_sum(
            B.gated_block(Tensor(_arr((4, 4, c), tag="vx")),
                          B.VSSWeights(vss.ln1, B.Linear(t, vss.gate.bias), vss.inproj,
                                       vss.dw, vss.ssm, vss.ln2, vss.outproj)), "vss.gw"),
        vss.gate.weight.data.copy()), OP_TOL))

    # [2, 1, 1, 1] knobs away from identity on a [2, 4, 4, C] grid
    grid = Tensor(_arr((2, 4, 4, c), tag="cvx"))
    knobs = {k: _arr((2, 1, 1, 1), lo, hi, f"knob.{k}") for k, lo, hi in (
        ("alpha1", 0.5, 1.5), ("beta1", -0.5, 0.5), ("alpha2", 0.5, 1.5),
        ("beta2", -0.5, 0.5), ("alpha3", 0.5, 1.5))}
    rows.append(("gated_block.input", _check(
        lambda t: _weighted_sum(B.gated_block(t, vss, B.ModulationParams(
            *(Tensor(v) for v in knobs.values()))), "gb.in"), grid.data), OP_TOL))
    for name in knobs:
        def knob_path(t, name=name):
            mod = B.ModulationParams(*(t if k == name else Tensor(v) for k, v in knobs.items()))
            return _weighted_sum(B.gated_block(grid, vss, mod), f"gb.{name}")
        rows.append((f"gated_block.{name}", _check(knob_path, knobs[name]), OP_TOL))

    cond = B.init_conditioner(4, 8, derive(_SEED, "cond"))
    # make raw knobs nonzero so the modulation path carries real gradients
    cond.l3.weight.data = uniform_array(cond.l3.weight.shape, -0.3, 0.3,
                                        derive(_SEED, "l3w"))

    def cond_path(tokens):
        saved = cond.tokens
        cond.tokens = tokens
        try:
            mod = B.conditioner(cond, np.array([1, 3]))
            return _weighted_sum(B.gated_block(grid, vss, mod), "cvss.tok")
        finally:
            cond.tokens = saved

    rows.append(("conditioner.tokens", _check(cond_path, cond.tokens.data.copy()), OP_TOL))

    def l3_path(w):
        saved = cond.l3
        cond.l3 = B.Linear(w, saved.bias)
        try:
            mod = B.conditioner(cond, np.array([0, 2]))
            return _weighted_sum(B.gated_block(grid, vss, mod), "cvss.l3")
        finally:
            cond.l3 = saved

    rows.append(("conditioner.l3_weight", _check(l3_path, cond.l3.weight.data.copy()), OP_TOL))
    return rows


def check_objective() -> list:
    """Every loss term and the weighted composite, gradients wrt prediction."""
    rows = []
    size = 6
    gt = uniform_array((size, size), 0.01, 1.0, derive(_SEED, "gt"))
    gt = gt / gt.sum()
    fix = np.zeros((size, size))
    fix[1, 2] = fix[4, 4] = fix[0, 5] = 1.0
    pred0 = uniform_array((size, size), 0.05, 0.95, derive(_SEED, "pred"))
    probes = [
        ("kl_loss", lambda t: O.kl_loss(gt, t)),
        ("kl_loss.literal", lambda t: O.kl_loss(gt, t, literal=True)),
        ("cc_loss", lambda t: O.cc_loss(gt, t)),
        ("sim_loss", lambda t: O.sim_loss(gt, t)),
        ("nss_loss", lambda t: O.nss_loss(fix, t)),
        ("mse_loss", lambda t: O.mse_loss(gt, t)),
        ("composite_loss", lambda t: O.composite_loss(gt, fix, t)),
        ("composite_loss.literal", lambda t: O.composite_loss(gt, fix, t, kl_literal=True)),
    ]
    for name, f in probes:
        rows.append((name, _check(f, pred0), OP_TOL))

    # a stack, built like the single map above: per-map statistics, then
    # the mean over rows
    gts = uniform_array((3, size, size), 0.01, 1.0, derive(_SEED, "gts"))
    gts = gts / gts.sum(axis=(1, 2), keepdims=True)
    fixes = np.zeros((3, size, size))
    fixes[:, 1, 2] = fixes[0, 4, 4] = fixes[2, 0, 5] = 1.0
    preds = uniform_array((3, size, size), 0.05, 0.95, derive(_SEED, "preds"))
    rows.append(("composite_loss.batch",
                 _check(lambda t: O.composite_loss(gts, fixes, t), preds), OP_TOL))
    return rows


def _micro_model() -> tuple:
    cfg = SumConfig(input_size=32, base_channels=4, state_size=2,
                    encoder_depths=(1, 1, 1, 1), decoder_depths=(1, 1, 1, 1),
                    token_dim=8, seed=_SEED % (2 ** 24))
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
    sample of parameters, each direction of a scan parameter on its own)
    rather than whole arrays, keeping the check under a minute while still
    crossing every module boundary.
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
    "tensor": check_tensor_ops,
    "scan": check_scan,
    "blocks": check_blocks,
    "objective": check_objective,
    "model": check_model,
}


def run_suite(module: str = "all") -> list:
    """Rows for one module or all of them, in a fixed order."""
    if module == "all":
        rows = []
        for name in ("tensor", "scan", "blocks", "objective", "model"):
            rows.extend(SUITES[name]())
        return rows
    if module not in SUITES:
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from all, {', '.join(SUITES)}")
    return SUITES[module]()
