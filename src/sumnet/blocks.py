"""Network building blocks: norms, depthwise conv, patch resampling, the
gated scan block with its optional feature modulation, and the conditioner.

Grids are channels-last: [H, W, C] or [B, H, W, C].  Every learnable array
is a float64 Tensor initialized from a seed derived from its name, so two
models that share a parameter name and seed start from identical values
regardless of what other parameters exist around them (a float32 model
rounds them once, see `model.Model`).  Every pair allocates in its input's
dtype.  Every random initial value is drawn by `tensor.init_uniforms`,
which only allocates under `tensor.skip_draws` (the build
`Model.from_state` overwrites).

`linear`, `layer_norm` and `depthwise_conv3x3` are each a pure numpy pair,
`*_fwd(...) -> (out, saved)` and `*_bwd(saved, g) -> gradients`, recorded
as one node by `tensor.primitive`.  The stages chain those pairs into one
node each: `conditioner` (the token-table MLP, the label rows' gather and
the scales' 1 +), `patch_embed` (a 4x4 tiling, `linear`, `layer_norm`),
`downsample` (a 2x2 tiling, `layer_norm`, `linear`), `up_step` (the patch
expand, `linear` and a pixel shuffle, plus a projected skip), `head` (the
patch expand, a readout `linear`, a sigmoid), and `gated_block`, with the
pairs of `scan.ss2d`, one node per block.

With knobs, the block applies five scalars (a1, b1, a2, b2, a3), one [B, 5]
array from `conditioner`: a small MLP over a per-domain token, a row of a
drawn prompt table or of a fixed one-hot table, one expression for both.
Each knob acts on the output of one of the block's two norms, and an affine
map of an affine map is one affine map, so the knobs fold into the norms'
gamma and beta on [C]-sized arrays: the plain and the conditional block run
the same grid-sized steps.

At the small grids of a B=1 predict a block call costs its fixed per-call
work, not its arithmetic, so what does not depend on the values is built
once.  The layer norm's channel mean and variance are matmuls with a
cached, read-only vector of 1/C (`_channel_mean`, in the backward too), and
the depthwise conv's nine tap windows are built once per grid shape
(`_tap_windows`).  Each such cache is bounded and keyed only on shapes and
dtypes.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import tensor as T
from .scan import SSMParams, init_ss2d_params, ss2d_bwd, ss2d_fwd
from .tensor import ShapeError, Tensor

LN_EPS = 1e-6


class DomainLabel(enum.IntEnum):
    """Dataset-domain codes; the order fixes prompt-table rows."""

    NATURAL_MOUSE = 0
    NATURAL_EYE = 1
    ECOMMERCE = 2
    UI = 3


# ---------------------------------------------------------------------------
# affine + norm primitives


@dataclass
class Linear:
    weight: Tensor  # [in, out]
    bias: Tensor  # [out]


def _drawn(shape, bound: float, seed: int, name: str, field: str) -> Tensor:
    """A trainable `shape` tensor of uniforms in [-bound, bound) from the stream
    derive(seed, name, field); see tensor.init_uniforms."""
    return Tensor(T.init_uniforms(shape, bound, seed, (name,), field)[0], requires_grad=True)


def init_linear(n_in: int, n_out: int, seed: int, name: str, zero: bool = False) -> Linear:
    if zero:
        w = T.zeros((n_in, n_out), requires_grad=True)
    else:
        w = _drawn((n_in, n_out), float(np.sqrt(6.0 / (n_in + n_out))), seed, name, "weight")
    return Linear(w, T.zeros((n_out,), requires_grad=True))


def linear_fwd(x, w, b):
    """linear on arrays: (x W + b over the trailing axis, saved)."""
    n_in, n_out = w.shape
    flat = x.reshape(-1, n_in)
    y = flat @ w
    y += b
    return y.reshape(x.shape[:-1] + (n_out,)), (flat, w, x.shape)


def linear_bwd(saved, g, x_grad=True):
    """Gradients of linear_fwd: (g W^T, x^T g, sum of g), leading axes
    flattened; the input's is None, and not formed, unless `x_grad`."""
    flat, w, x_shape = saved
    g2 = g.reshape(-1, w.shape[1])
    g_x = (g2 @ w.T).reshape(x_shape) if x_grad else None
    return g_x, flat.T @ g2, T._sum_rows(g2)


def linear(x: Tensor, p: Linear) -> Tensor:
    """Affine map over the trailing channel axis of any-rank input.

    One tape node over (x, weight, bias); see linear_fwd / linear_bwd.
    """
    x = T.as_tensor(x)
    if x.shape[-1] != p.weight.shape[0]:
        raise ShapeError(f"linear expects trailing dim {p.weight.shape[0]}, got {x.shape}")
    return T.primitive("linear", (x, p.weight, p.bias),
                       lambda x, w, b, keep: linear_fwd(x, w, b), linear_bwd)


@dataclass
class LayerNormParams:
    gamma: Tensor  # [C]
    beta: Tensor  # [C]


def init_layer_norm(channels: int) -> LayerNormParams:
    return LayerNormParams(
        T.full((channels,), 1.0, requires_grad=True),
        T.zeros((channels,), requires_grad=True),
    )


@lru_cache(maxsize=64)
def _inv_count(ch: int, dtype: np.dtype) -> np.ndarray:
    """A read-only [ch] vector of 1/ch in `dtype`, built once per (channel
    count, dtype)."""
    v = np.full(ch, 1.0 / ch, dtype=dtype)
    v.flags.writeable = False
    return v


def _channel_mean(v):
    """The mean of v over its trailing channel axis, keepdims: a matmul with a
    vector of 1/C, several times faster than ``ndarray.mean`` over the short
    trailing axis, which sums before it divides, so the last bits differ."""
    ch = v.shape[-1]
    return (v.reshape(-1, ch) @ _inv_count(ch, v.dtype)).reshape(v.shape[:-1] + (1,))


def ln_core_fwd(x, eps: float = LN_EPS):
    """The normalizing core of layer_norm_fwd: (normalized x, saved).  The
    mean and the variance are `_channel_mean`s.  sigma >= sqrt(eps) > 0, so
    the divide raises no warning on finite input."""
    mu = _channel_mean(x)
    centered = x - mu
    sigma = np.sqrt(_channel_mean(centered * centered) + eps)
    out = centered / sigma
    return out, (out, sigma)


def ln_core_bwd(saved, g):
    """Gradient of ln_core_fwd as a one-element tuple: with x_hat the output
    and sigma = sqrt(var + eps), (g - mean(g) - x_hat * mean(g * x_hat)) /
    sigma, both means `_channel_mean`s."""
    out, sigma = saved
    gx = g - _channel_mean(g)
    gx -= out * _channel_mean(g * out)
    gx /= sigma
    return (gx,)


def layer_norm_fwd(x, gamma, beta, name: str = "layer_norm", eps: float = LN_EPS):
    """layer_norm on arrays: (ln_core_fwd(x) * gamma + beta, saved).  gamma and
    beta are [C] or per sample [B, 1, 1, C].  With per-op checks on, a
    non-finite step is named `name` and "core", "scale" or "shift"."""
    n, core_saved = ln_core_fwd(x, eps)
    T._check(f"{name} core", n)
    out = n * gamma
    T._check(f"{name} scale", out)
    out = out + beta
    T._check(f"{name} shift", out)
    return out, (core_saved, gamma, beta.shape)


def layer_norm_bwd(saved, g):
    """Gradients of layer_norm_fwd (x, gamma, beta), each summed back to its
    input's shape."""
    (n, sigma), gamma, beta_shape = saved
    g_beta = T._unbroadcast(g, beta_shape)
    g_gamma = T._unbroadcast(g * n, gamma.shape)
    (g_x,) = ln_core_bwd((n, sigma), T._unbroadcast(g * gamma, n.shape))
    return g_x, g_gamma, g_beta


def layer_norm(x: Tensor, p: LayerNormParams, eps: float = LN_EPS) -> Tensor:
    """Normalize the trailing channel axis to zero mean, unit variance, then
    scale by gamma and shift by beta; one tape node over (x, gamma, beta)."""
    return T.primitive("layer_norm", (x, p.gamma, p.beta),
                       lambda x, gamma, beta, keep: layer_norm_fwd(x, gamma, beta, eps=eps),
                       layer_norm_bwd)


# ---------------------------------------------------------------------------
# depthwise conv


@dataclass
class DWConvParams:
    kernel: Tensor  # [C, 3, 3]
    bias: Tensor  # [C]


def init_dwconv(channels: int, seed: int, name: str) -> DWConvParams:
    a = float(np.sqrt(6.0 / 18.0))  # per-channel fan: 9 in, 9 out
    return DWConvParams(
        _drawn((channels, 3, 3), a, seed, name, "kernel"),
        T.zeros((channels,), requires_grad=True),
    )


@lru_cache(maxsize=64)
def _tap_windows(ndim: int, h: int, w: int) -> tuple:
    """The nine tap windows of an [.., H, W, C] grid of `ndim` axes into its
    zero-padded [.., H + 2, W + 2, C] copy, as index tuples, tap dy * 3 + dx
    at offset (dy, dx); window 4, the centre, is the interior.  Built once
    per shape."""
    lead = (slice(None),) * (ndim - 3)
    return tuple(lead + (slice(dy, dy + h), slice(dx, dx + w))
                 for dy in range(3) for dx in range(3))


def dwconv_fwd(x, kernel, bias):
    """depthwise_conv3x3 on arrays ([H, W, C] or [B, H, W, C]): (out, saved)."""
    h, w = x.shape[-3], x.shape[-2]
    windows = _tap_windows(x.ndim, h, w)
    k9 = kernel.reshape(-1, 9)  # column dy * 3 + dx is tap (dy, dx)
    padded = np.zeros(x.shape[:-3] + (h + 2, w + 2, x.shape[-1]), dtype=x.dtype)
    padded[windows[4]] = x
    acc = padded[windows[0]] * k9[:, 0]
    for tap, win in enumerate(windows[1:], 1):
        acc += padded[win] * k9[:, tap]
    acc += bias
    return acc, (padded, k9, windows)


def dwconv_bwd(saved, g):
    """Gradients of dwconv_fwd.  The input's is the correlation of the
    zero-padded g with the flipped taps -- tap t reads window 8 - t --
    accumulated in tap order into one buffer, so each element sums the same
    products in the order a scatter of g * k[:, dy, dx] would.  The kernel's
    contracts g with each tap's window; the bias's is a column sum."""
    padded, k9, windows = saved
    taps = "bhwc,bhwc->c" if g.ndim == 4 else "hwc,hwc->c"
    g_pad = np.zeros_like(padded)
    g_pad[windows[4]] = g  # the centre window is the interior
    g_x = g_pad[windows[8]] * k9[:, 0]
    tmp = np.empty_like(g_x)
    g_k = np.empty_like(k9)
    for tap, win in enumerate(windows):
        if tap:
            g_x += np.multiply(g_pad[windows[8 - tap]], k9[:, tap], out=tmp)
        g_k[:, tap] = np.einsum(taps, padded[win], g)
    return g_x, g_k.reshape(-1, 3, 3), T._sum_rows(g.reshape(-1, g.shape[-1]))


def depthwise_conv3x3(x: Tensor, p: DWConvParams) -> Tensor:
    """Per-channel 3x3 conv, zero-padded, stride 1; no cross-channel mixing.

    One tape node over (x, kernel, bias); see dwconv_fwd / dwconv_bwd.
    """
    x = T.as_tensor(x)
    if x.ndim not in (3, 4):
        raise ShapeError(f"expected a grid, got {x.shape}")
    if x.shape[-1] != p.kernel.shape[0]:
        raise ShapeError(f"grid has {x.shape[-1]} channels, kernel has {p.kernel.shape[0]}")
    return T.primitive("depthwise_conv3x3", (x, p.kernel, p.bias),
                       lambda x, k, b, keep: dwconv_fwd(x, k, b), dwconv_bwd)


# ---------------------------------------------------------------------------
# patch resampling


@dataclass
class PatchEmbedParams:
    proj: Linear  # 48 -> C
    norm: LayerNormParams


def init_patch_embed(channels: int, seed: int, name: str = "embed") -> PatchEmbedParams:
    return PatchEmbedParams(init_linear(48, channels, seed, f"{name}.proj"),
                            init_layer_norm(channels))


def _retile(x: np.ndarray, tiled: tuple, out: tuple) -> np.ndarray:
    """x's trailing [H, W, C] viewed as `tiled` (5 axes), axes 1 and 2
    swapped, read out as `out`: the one transpose of both resamplings."""
    nl = x.ndim - 3
    r = x.reshape(x.shape[:-3] + tiled)
    r = np.ascontiguousarray(r.transpose(tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4)))
    return r.reshape(x.shape[:-3] + out)


def _space_to_depth(x: np.ndarray, factor: int) -> np.ndarray:
    """[.., H, W, C] -> [.., H/f, W/f, f*f*C] by stacking each f x f tile,
    row-major with channels fastest."""
    h, w, c = x.shape[-3:]
    if h % factor or w % factor:
        raise ShapeError(f"grid {h}x{w} not divisible by patch factor {factor}")
    h, w = h // factor, w // factor
    return _retile(x, (h, factor, w, factor, c), (h, w, factor * factor * c))


def _depth_to_space(x: np.ndarray, factor: int) -> np.ndarray:
    """The inverse of _space_to_depth, a pixel shuffle: [.., H, W, f*f*C] ->
    [.., f*H, f*W, C], channel chunk (dy*f + dx) to offset (dy, dx) of its tile."""
    h, w, c = x.shape[-3], x.shape[-2], x.shape[-1] // (factor * factor)
    return _retile(x, (h, w, factor, factor, c), (h * factor, w * factor, c))


def _embed_fwd(img, w, b, gamma, beta, keep):
    """patch_embed on arrays: (out, saved)."""
    y, lin_saved = linear_fwd(_space_to_depth(img, 4), w, b)
    T._check("patch_embed proj", y)
    out, ln_saved = layer_norm_fwd(y, gamma, beta, name="patch_embed norm")
    return out, (lin_saved, ln_saved)


def _embed_bwd(saved, g, img_grad=True):
    """Gradients of _embed_fwd (img, weight, bias, gamma, beta); the image's
    is None, and not formed, unless `img_grad`."""
    lin_saved, ln_saved = saved
    g_y, g_gamma, g_beta = layer_norm_bwd(ln_saved, g)
    g_tiles, g_w, g_b = linear_bwd(lin_saved, g_y, x_grad=img_grad)
    return _depth_to_space(g_tiles, 4) if img_grad else None, g_w, g_b, g_gamma, g_beta


def patch_embed(img: Tensor, p: PatchEmbedParams) -> Tensor:
    """RGB grid -> 4x-downsampled embedded grid (affine on 4x4x3 tiles + LN).

    One tape node over (img, proj weight and bias, norm gamma and beta):
    the tiling, then the `linear` and `layer_norm` pairs.  The backward
    untiles the image's gradient only when the image requires one.
    """
    img = T.as_tensor(img)
    if img.ndim not in (3, 4) or img.shape[-1] != 3:
        raise ShapeError(f"expected [.., H, W, 3] image grid, got {img.shape}")
    return T.primitive("patch_embed", (img, p.proj.weight, p.proj.bias, p.norm.gamma,
                                       p.norm.beta), _embed_fwd,
                       partial(_embed_bwd, img_grad=img.requires_grad))


@dataclass
class DownsampleParams:
    norm: LayerNormParams  # over 4C
    proj: Linear  # 4C -> 2C


def init_downsample(channels: int, seed: int, name: str) -> DownsampleParams:
    return DownsampleParams(init_layer_norm(4 * channels),
                            init_linear(4 * channels, 2 * channels, seed, f"{name}.proj"))


def _down_fwd(x, gamma, beta, w, b, keep):
    """downsample on arrays: (out, saved)."""
    n, ln_saved = layer_norm_fwd(_space_to_depth(x, 2), gamma, beta, name="downsample norm")
    out, lin_saved = linear_fwd(n, w, b)
    return out, (ln_saved, lin_saved)


def _down_bwd(saved, g):
    """Gradients of _down_fwd (x, gamma, beta, weight, bias)."""
    ln_saved, lin_saved = saved
    g_n, g_w, g_b = linear_bwd(lin_saved, g)
    g_merged, g_gamma, g_beta = layer_norm_bwd(ln_saved, g_n)
    return _depth_to_space(g_merged, 2), g_gamma, g_beta, g_w, g_b


def downsample(x: Tensor, p: DownsampleParams) -> Tensor:
    """2x2 patch merge: concat (TL, TR, BL, BR) channels, LN, affine to 2C.

    One tape node over (x, norm gamma and beta, proj weight and bias).
    """
    return T.primitive("downsample", (x, p.norm.gamma, p.norm.beta, p.proj.weight,
                                      p.proj.bias), _down_fwd, _down_bwd)


@dataclass
class PatchExpandParams:
    proj: Linear  # C -> f*f*(C//f)
    factor: int


def init_patch_expand(channels: int, factor: int, seed: int, name: str) -> PatchExpandParams:
    if channels % factor:
        raise ShapeError(f"channels {channels} not divisible by expand factor {factor}")
    out = factor * factor * (channels // factor)
    return PatchExpandParams(init_linear(channels, out, seed, f"{name}.proj"), factor)


def _expand_fwd(x, w, b, factor):
    """The patch expand of `up_step` and `head` on arrays: an affine to
    f*f*(C/f) channels, then a pixel shuffle to an f-times grid, channel chunk
    (dy*f + dx) to spatial offset (dy, dx) of each f x f tile: (out, saved)."""
    y, lin_saved = linear_fwd(x, w, b)
    return _depth_to_space(y, factor), (lin_saved, factor)


def _expand_bwd(saved, g):
    """Gradients of _expand_fwd (x, weight, bias)."""
    lin_saved, factor = saved
    return linear_bwd(lin_saved, _space_to_depth(g, factor))


def _expand_input(x, p: PatchExpandParams) -> Tensor:
    """x as a Tensor, checked to have the channel count p's projection takes."""
    x = T.as_tensor(x)
    if x.shape[-1] != p.proj.weight.shape[0]:
        raise ShapeError(f"patch_expand expects trailing dim {p.proj.weight.shape[0]}, "
                         f"got {x.shape}")
    return x


def _up_fwd(x, skip, w, b, w_skip, b_skip, factor):
    """up_step on arrays: (out, saved)."""
    up, expand_saved = _expand_fwd(x, w, b, factor)
    T._check("up_step expand", up)
    projected, skip_saved = linear_fwd(skip, w_skip, b_skip)
    T._check("up_step skip", projected)
    return up + projected, (expand_saved, skip_saved)


def _up_bwd(saved, g):
    """Gradients of _up_fwd (x, skip, weight, bias, skip weight and bias)."""
    expand_saved, skip_saved = saved
    g_skip, g_ws, g_bs = linear_bwd(skip_saved, g)
    g_x, g_w, g_b = _expand_bwd(expand_saved, g)
    return g_x, g_skip, g_w, g_b, g_ws, g_bs


def up_step(x: Tensor, skip: Tensor, p: PatchExpandParams, skip_proj: Linear) -> Tensor:
    """One decoder up-step: x expanded by p (`_expand_fwd`) plus skip_proj's
    affine of the encoder grid `skip`, [.., fH, fW, C/f] on both sides.  One
    tape node over (x, skip, proj weight and bias, skip weight and bias).
    """
    return T.primitive("up_step", (_expand_input(x, p), skip, p.proj.weight, p.proj.bias,
                                   skip_proj.weight, skip_proj.bias),
                       lambda *arrays, keep: _up_fwd(*arrays, p.factor), _up_bwd)


def _head_fwd(x, w, b, w_out, b_out, factor):
    """head on arrays: (out, saved)."""
    up, expand_saved = _expand_fwd(x, w, b, factor)
    T._check("head expand", up)
    z, out_saved = linear_fwd(up, w_out, b_out)
    T._check("head readout", z)
    s = T._sigmoid_raw(z)
    return s.reshape(s.shape[:-1]), (expand_saved, out_saved, s)


def _head_bwd(saved, g):
    """Gradients of _head_fwd (x, weight, bias, readout weight and bias)."""
    expand_saved, out_saved, s = saved
    g_up, g_w_out, g_b_out = linear_bwd(out_saved, g.reshape(s.shape) * s * (1.0 - s))
    return (*_expand_bwd(expand_saved, g_up), g_w_out, g_b_out)


def head(x: Tensor, p: PatchExpandParams, readout: Linear) -> Tensor:
    """The saliency head: the patch expand by p (`_expand_fwd`), then
    readout's affine (C/f -> 1) and a sigmoid, the channel axis dropped:
    [.., H, W, C] -> [.., fH, fW] maps in (0, 1).  One tape node over (x,
    proj weight and bias, readout weight and bias).
    """
    return T.primitive("head", (_expand_input(x, p), p.proj.weight, p.proj.bias,
                                readout.weight, readout.bias),
                       lambda *arrays, keep: _head_fwd(*arrays, p.factor), _head_bwd)


# ---------------------------------------------------------------------------
# gated scan block


@dataclass
class VSSWeights:
    """Weights of one gated scan block over C channels."""

    ln1: LayerNormParams
    gate: Linear  # C -> C
    inproj: Linear  # C -> C
    dw: DWConvParams
    ssm: SSMParams
    ln2: LayerNormParams
    outproj: Linear  # C -> C


def init_vss(channels: int, state_size: int, seed: int, name: str,
             shared_scan: bool = False) -> VSSWeights:
    return VSSWeights(
        ln1=init_layer_norm(channels),
        gate=init_linear(channels, channels, seed, f"{name}.gate"),
        inproj=init_linear(channels, channels, seed, f"{name}.inproj"),
        dw=init_dwconv(channels, seed, f"{name}.dw"),
        ssm=init_ss2d_params(channels, state_size, seed, f"{name}.ssm", shared=shared_scan),
        ln2=init_layer_norm(channels),
        outproj=init_linear(channels, channels, seed, f"{name}.outproj"),
    )


# ---------------------------------------------------------------------------
# conditioning

_SCALES = [0, 2, 4]  # the knob columns that are scales, 1 + raw; the shifts are raw


def gated_block(f: Tensor, w: VSSWeights, knobs: Tensor | None = None) -> Tensor:
    """Gated scan block, feature-modulated when `knobs` is given; one tape node.

    x = LN1(f); gate = silu(linear_gate(x)); the scan branch is
    ss2d(silu(dwconv(linear_in(x)))); attn = LN2 of it; the result is
    f + linear_out(gate * attn).  `knobs` holds the five knobs (a1, b1, a2,
    b2, a3) as columns, [B, 5] per sample of a batch or [5] for a 3-D grid;
    [B, 5] knobs broadcast a 3-D grid to a batch.  They fold into the norms'
    affine params, at [B, 1, 1, C] or [C]: LN1 runs with (a1 gamma1, a1 beta1
    + b1) and LN2 with (a2 a3 gamma2, a2 beta2 + b2), the paper's a1 x + b1
    and a2 attn + b2 with a3 scaling LN2's core, up to rounding.  At identity
    knobs (1, 0, 1, 0, 1) each fold multiplies by 1.0 or adds 0.0, exact in
    IEEE arithmetic, so the result equals the unmodulated block bit for bit.

    The node's inputs are f, every VSSWeights tensor (the scan parameters
    in SSMParams.tensors() order) and, with knobs, the knob tensor; their
    gradients chain the pairs of `linear`, `layer_norm`, `depthwise_conv3x3`
    and `scan.ss2d` with the elementwise steps between them, in the order
    a tape of one node per step would, then unfold the norms' params back
    to gamma, beta and the knobs, each summed to its shape.  With per-op
    checks on (a direct call, or the replay of a model boundary that
    tripped, see `tensor.checked_at_boundary`) every intermediate must be
    finite, and a failure names it, e.g. "gated_block gate silu: produced a
    non-finite value"; inside ss2d the selective_scan and cross_merge checks
    keep their own names.  Inside the model's forward those checks are off,
    and their names surface through the replay.
    """
    f = T.as_tensor(f)
    if f.ndim not in (3, 4):
        raise ShapeError(f"expected [H, W, C] or [B, H, W, C], got {f.shape}")
    if f.shape[-1] != w.ln1.gamma.shape[0]:
        raise ShapeError(f"grid has {f.shape[-1]} channels, block has {w.ln1.gamma.shape[0]}")
    inputs = (f, w.ln1.gamma, w.ln1.beta, w.gate.weight, w.gate.bias, w.inproj.weight,
              w.inproj.bias, w.dw.kernel, w.dw.bias, *w.ssm.tensors(), w.ln2.gamma,
              w.ln2.beta, w.outproj.weight, w.outproj.bias, *(() if knobs is None else (knobs,)))
    return T.primitive("gated_block", inputs, _gated_block_fwd, lambda grad_fn, g: grad_fn(g))


def _fold_knobs(knobs, gamma1, beta1, gamma2, beta2):
    """The norms' (gamma, beta) pairs with the knobs folded in (see
    gated_block), and unfold, which takes the folded pairs' gradients back
    to gamma1, beta1, gamma2, beta2 and the knobs, each summed to its shape."""
    lead = knobs.shape[:-1]
    cols = knobs.reshape(lead + (1, 1, 1, 5)) if lead else knobs
    a1, b1, a2, b2, a3 = cols[..., 0], cols[..., 1], cols[..., 2], cols[..., 3], cols[..., 4]
    a23 = a2 * a3
    c_shape = gamma1.shape

    def unfold(g_gamma1, g_beta1, g_gamma2, g_beta2):
        sum_to = T._unbroadcast
        g_a23 = g_gamma2 * gamma2  # the gradient of a23 = a2 * a3, per channel
        cols = (sum_to(g_gamma1 * gamma1 + g_beta1 * beta1, a1.shape),
                sum_to(g_beta1, b1.shape), sum_to(g_a23 * a3 + g_beta2 * beta2, a2.shape),
                sum_to(g_beta2, b2.shape), sum_to(g_a23 * a2, a3.shape))
        return (sum_to(g_gamma1 * a1, c_shape), sum_to(g_beta1 * a1, c_shape),
                sum_to(g_gamma2 * a23, c_shape), sum_to(g_beta2 * a2, c_shape),
                np.stack([col.reshape(lead) for col in cols], axis=-1))

    return (a1 * gamma1, a1 * beta1 + b1), (a23 * gamma2, a2 * beta2 + b2), unfold


def _gated_block_fwd(f, gamma1, beta1, w_gate, b_gate, w_in, b_in, kernel, k_bias, *rest, keep):
    """gated_block on arrays: (out, grad_fn).  `rest` is the seven scan
    parameters, gamma2, beta2, w_out, b_out and, when modulated, the knob
    array; grad_fn(g) returns the gradients in that input order."""
    ssm, (gamma2, beta2, w_out, b_out), knobs = rest[:7], rest[7:11], rest[11:]
    check = T._check
    ln1, ln2, unfold = (gamma1, beta1), (gamma2, beta2), None
    if knobs:
        ln1, ln2, unfold = _fold_knobs(knobs[0], gamma1, beta1, gamma2, beta2)
    x, ln1_saved = layer_norm_fwd(f, *ln1, name="gated_block ln1")
    gl, gate_saved = linear_fwd(x, w_gate, b_gate)
    check("gated_block gate linear", gl)
    gl_s = T._sigmoid_raw(gl)
    gate = gl * gl_s
    check("gated_block gate silu", gate)
    branch, in_saved = linear_fwd(x, w_in, b_in)
    check("gated_block inproj", branch)
    conv, dw_saved = dwconv_fwd(branch, kernel, k_bias)
    check("gated_block dwconv", conv)
    conv_s = T._sigmoid_raw(conv)
    branch = conv * conv_s
    check("gated_block dwconv silu", branch)
    grid_shape = branch.shape if branch.ndim == 4 else (1,) + branch.shape
    scanned, ss_saved = ss2d_fwd(branch.reshape(grid_shape), ssm, keep=keep)
    attn, ln2_saved = layer_norm_fwd(scanned.reshape(branch.shape), *ln2, name="gated_block ln2")
    prod = gate * attn
    check("gated_block gate product", prod)
    fused, out_saved = linear_fwd(prod, w_out, b_out)
    check("gated_block outproj", fused)
    f_shape = f.shape

    def grad_fn(g):
        g_prod, g_wo, g_bo = linear_bwd(out_saved, g)
        g_gate = g_prod * attn
        g_scan, g_gamma2, g_beta2 = layer_norm_bwd(ln2_saved, g_prod * gate)
        g_grid, g_ssm = ss2d_bwd(ss_saved, g_scan.reshape(grid_shape))
        g_conv = T._silu_grad(conv, conv_s)
        g_conv *= g_grid.reshape(g_conv.shape)
        g_branch, g_k, g_kb = dwconv_bwd(dw_saved, g_conv)
        g_x, g_wi, g_bi = linear_bwd(in_saved, g_branch)
        g_gl = T._silu_grad(gl, gl_s)
        g_gl *= g_gate
        g_xg, g_wg, g_bg = linear_bwd(gate_saved, g_gl)
        g_f, g_gamma1, g_beta1 = layer_norm_bwd(ln1_saved, g_x + g_xg)
        g_knobs = ()
        if unfold is not None:
            g_gamma1, g_beta1, g_gamma2, g_beta2, *g_knobs = unfold(g_gamma1, g_beta1,
                                                                    g_gamma2, g_beta2)
        return (T._unbroadcast(g, f_shape) + g_f, g_gamma1, g_beta1, g_wg, g_bg, g_wi, g_bi,
                g_k, g_kb, *g_ssm, g_gamma2, g_beta2, g_wo, g_bo, *g_knobs)

    return fused + f, grad_fn


@dataclass
class ConditionerParams:
    """A [num_domains, token_dim] token table (its shape gives both sizes) and
    the shared MLP that maps a token to the five knobs."""

    tokens: Tensor  # drawn and trainable (prompt), or fixed np.eye (one-hot)
    l1: Linear  # D -> 128
    l2: Linear  # 128 -> 64
    l3: Linear  # 64 -> 5, zero-init so training starts at identity


def init_conditioner(num_domains: int, token_dim: int, seed: int,
                     one_hot: bool = False, name: str = "cond") -> ConditionerParams:
    """Prompt conditioning draws a trainable token table; one-hot fixes it to
    np.eye(num_domains, token_dim), without gradient, so not a parameter."""
    if one_hot:
        if num_domains > token_dim:
            raise ShapeError(f"{num_domains} one-hot domains cannot pad into dim {token_dim}")
        tokens = Tensor(np.eye(num_domains, token_dim))
    else:
        a = float(np.sqrt(6.0 / (num_domains + token_dim)))
        tokens = _drawn((num_domains, token_dim), a, seed, name, "tokens")
    return ConditionerParams(
        tokens=tokens,
        l1=init_linear(token_dim, 128, seed, f"{name}.l1"),
        l2=init_linear(128, 64, seed, f"{name}.l2"),
        l3=init_linear(64, 5, seed, f"{name}.l3", zero=True),
    )


def _check_labels(labels, num_domains: int) -> np.ndarray:
    """Labels as int64 rows; a non-integer (0.7, True, "1") is refused, not
    truncated, while an integral float (2.0) passes, as in SumConfig."""
    raw = np.asarray(labels, dtype=object).reshape(-1)
    if raw.size == 0:
        raise ShapeError("empty label list")
    for v in raw:
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not float(v).is_integer()):
            raise ShapeError(f"domain label {v!r} is not an integer")
    arr = raw.astype(np.int64)
    if arr.min() < 0 or arr.max() >= num_domains:
        raise ShapeError(f"domain label out of range 0..{num_domains - 1}: {arr.tolist()}")
    return arr


def _cond_fwd(tokens, w1, b1, w2, b2, w3, b3, rows, keep):
    """conditioner on arrays: (knobs [B, 5], saved)."""
    h, l1_saved = linear_fwd(tokens, w1, b1)
    T._check("conditioner l1", h)
    h, d1 = T._gelu_fwd(h, keep)
    h, l2_saved = linear_fwd(h, w2, b2)
    T._check("conditioner l2", h)
    h, d2 = T._gelu_fwd(h, keep)
    table, l3_saved = linear_fwd(h, w3, b3)
    knobs = np.take(table, rows, axis=0)
    knobs[:, _SCALES] += 1.0
    return knobs, (l1_saved, d1, l2_saved, d2, l3_saved, rows, table.shape)


def _cond_bwd(saved, g, token_grad=True):
    """Gradients of _cond_fwd (tokens, l1, l2 and l3 weight and bias); the
    tokens' is None, and not formed, unless `token_grad`."""
    l1_saved, d1, l2_saved, d2, l3_saved, rows, table_shape = saved
    g_table = np.zeros(table_shape, dtype=g.dtype)
    np.add.at(g_table, rows, g)  # a label drawn twice adds both rows' gradients
    g_h, g_w3, g_b3 = linear_bwd(l3_saved, g_table)
    g_h, g_w2, g_b2 = linear_bwd(l2_saved, g_h * d2)
    g_tokens, g_w1, g_b1 = linear_bwd(l1_saved, g_h * d1, x_grad=token_grad)
    return g_tokens, g_w1, g_b1, g_w2, g_b2, g_w3, g_b3


def conditioner(p: ConditionerParams, labels) -> Tensor:
    """The knobs (a1, b1, a2, b2, a3) of a batch of domain labels, [B, 5].

    The MLP runs over every row of the token table, a prompt table or a
    one-hot one alike (linear, GELU, linear, GELU, linear); each label then
    gathers its row, and the three scales become 1 + raw while the two
    shifts stay raw, so zero raw rows give exact identity knobs.  One tape
    node over (tokens, l1, l2 and l3 weight and bias); a fixed one-hot table
    forms no gradient.
    """
    rows = _check_labels(labels, p.tokens.shape[0])
    inputs = (p.tokens, *(t for lin in (p.l1, p.l2, p.l3) for t in (lin.weight, lin.bias)))
    return T.primitive("conditioner", inputs,
                       lambda *arrays, keep: _cond_fwd(*arrays, rows, keep),
                       partial(_cond_bwd, token_grad=p.tokens.requires_grad))


def conditioner_param_count(p: ConditionerParams) -> int:
    """Trainable conditioner entries: a one-hot table is fixed, so not counted."""
    tensors = (p.tokens, *(t for lin in (p.l1, p.l2, p.l3) for t in (lin.weight, lin.bias)))
    return sum(t.size for t in tensors if t.requires_grad)
