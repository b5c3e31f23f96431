import dataclasses
import tracemalloc

import numpy as np
import pytest

import sumnet.tensor as T
from sumnet import blocks as B
from sumnet.blocks import (
    LN_EPS,
    DomainLabel,
    DownsampleParams,
    DWConvParams,
    LayerNormParams,
    Linear,
    PatchEmbedParams,
    PatchExpandParams,
    conditioner,
    depthwise_conv3x3,
    downsample,
    dwconv_bwd,
    dwconv_fwd,
    gated_block,
    head,
    init_conditioner,
    init_downsample,
    init_dwconv,
    init_layer_norm,
    init_linear,
    init_patch_embed,
    init_patch_expand,
    init_vss,
    layer_norm,
    linear,
    linear_bwd,
    linear_fwd,
    ln_core_bwd,
    ln_core_fwd,
    patch_embed,
    up_step,
)
from sumnet.tensor import NumericError, ShapeError, Tensor, check_gradient
import oracles as ops
from test_scan import _reference_ss2d

TOL = 1e-4
IDENTITY = np.array([1.0, 0.0, 1.0, 0.0, 1.0])  # knobs (a1, b1, a2, b2, a3) that change nothing


def rnd(shape, seed, lo=-1.0, hi=1.0):
    return T.uniform(shape, lo, hi, seed)


def patch_expand(x, p):
    """The expand pair that up_step and head chain, as one node of its own."""
    return T.primitive("patch_expand", (B.as_grid(x, "patch_expand", p.proj.weight.shape[0]),
                                        p.proj.weight, p.proj.bias),
                       lambda x, w, b, keep: B._expand_fwd(x, w, b, p.factor), B._expand_bwd)


# ---------------------------------------------------------------------------
# norms and affine layers


def test_layer_norm_moments():
    x = rnd((5, 6, 8), 1, -2.0, 2.0)
    p = init_layer_norm(8)
    y = layer_norm(x, p)
    mu = y.data.mean(axis=-1)
    var = y.data.var(axis=-1)
    assert np.abs(mu).max() < 1e-9
    assert np.abs(var - 1.0).max() < 1e-3


def test_layer_norm_constant_rows_give_beta():
    p = init_layer_norm(4)
    p.beta.data[:] = [1.0, 2.0, 3.0, 4.0]
    y = layer_norm(Tensor(np.full((2, 2, 4), 7.0)), p)
    assert np.allclose(y.data, np.broadcast_to([1.0, 2.0, 3.0, 4.0], (2, 2, 4)))


def test_layer_norm_shift_invariance():
    x = rnd((3, 3, 16), 2)
    p = init_layer_norm(16)
    a = layer_norm(x, p)
    b = layer_norm(ops.add(x, 5.0), p)
    assert np.abs(a.data - b.data).max() < 1e-9


def test_linear_shapes_and_error():
    p = init_linear(4, 6, seed=3, name="t")
    y = linear(rnd((2, 3, 4), 4), p)
    assert y.shape == (2, 3, 6)
    with pytest.raises(ShapeError):
        linear(rnd((2, 5), 5), p)


# ---------------------------------------------------------------------------
# depthwise conv


def test_dwconv_identity_kernel_bit_exact():
    p = init_dwconv(3, seed=6, name="t")
    p.kernel.data[:] = 0.0
    p.kernel.data[:, 1, 1] = 1.0
    p.bias.data[:] = 0.0
    x = rnd((1, 5, 7, 3), 7)
    y = depthwise_conv3x3(x, p)
    assert np.array_equal(y.data, x.data)


def test_dwconv_box_kernel_hand_oracle():
    # all-ones kernel sums the 3x3 neighborhood; zero padding at the border
    p = init_dwconv(1, seed=8, name="t")
    p.kernel.data[:] = 1.0
    p.bias.data[:] = 0.0
    x = Tensor(np.arange(9.0).reshape(1, 3, 3, 1))
    y = depthwise_conv3x3(x, p).data[0]
    assert y[1, 1, 0] == np.arange(9.0).sum()
    assert y[0, 0, 0] == 0 + 1 + 3 + 4
    assert y[2, 2, 0] == 4 + 5 + 7 + 8


def test_dwconv_no_channel_mixing():
    p = init_dwconv(2, seed=9, name="t")
    x = np.zeros((1, 4, 4, 2))
    x[..., 0] = 1.0
    y = depthwise_conv3x3(Tensor(x), p)
    # channel 1 sees only its own (zero) input plus its bias
    assert np.allclose(y.data[..., 1], p.bias.data[1])


def test_dwconv_batched_matches_single():
    p = init_dwconv(3, seed=10, name="t")
    xb = rnd((2, 4, 5, 3), 11)
    yb = depthwise_conv3x3(xb, p)
    for i in range(2):
        yi = depthwise_conv3x3(Tensor(xb.data[i:i + 1]), p)
        assert np.array_equal(yb.data[i], yi.data[0])


# ---------------------------------------------------------------------------
# fused primitives against the tape compositions they replaced


def _reference_channel_mean(x):
    """The mean over the trailing channel axis, keepdims, as the layer-norm
    pair takes it: the rows times a column of 1/C."""
    c = x.shape[-1]
    means = ops.matmul(ops.reshape(x, (-1, c)), np.full((c, 1), 1.0 / c))
    return ops.reshape(means, x.shape[:-1] + (1,))


def _reference_ln_core(x, eps=LN_EPS):
    mu = _reference_channel_mean(x)
    centered = ops.sub(x, mu)
    var = _reference_channel_mean(ops.mul(centered, centered))
    return ops.div(centered, ops.sqrt(ops.add(var, eps)))


def _reference_linear(x, p):
    """Affine map over the trailing channel axis of any-rank input."""
    x = T.as_tensor(x)
    n_in, n_out = p.weight.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear expects trailing dim {n_in}, got {x.shape}")
    lead = x.shape[:-1]
    flat = ops.reshape(x, (-1, n_in))
    out = ops.add(ops.matmul(flat, p.weight), p.bias)
    return ops.reshape(out, lead + (n_out,))


def _reference_depthwise_conv3x3(x, p):
    x = T.as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"expected a [B, H, W, C] grid, got {x.shape}")
    if x.shape[-1] != p.kernel.shape[0]:
        raise ShapeError(f"grid has {x.shape[-1]} channels, kernel has {p.kernel.shape[0]}")
    _, h, w, _ = x.shape
    padded = ops.pad(x, [(0, 0), (1, 1), (1, 1), (0, 0)])
    acc = None
    for dy in range(3):
        for dx in range(3):
            window = ops.index(padded, (slice(None), slice(dy, dy + h), slice(dx, dx + w)))
            term = ops.mul(window, ops.index(p.kernel, (slice(None), dy, dx)))
            acc = term if acc is None else ops.add(acc, term)
    return ops.add(acc, p.bias)


def _forward_and_grads(fn, arrays, seed):
    """fn's output, the gradients of a random weighting of it, and the op nodes.

    A plain sum would hide layer-norm gradients: each normalized row sums
    to zero by construction.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        out = fn(*leaves)
        n_ops = sum(1 for node in tape.nodes if node.grad_fn is not None)
        weights = T.uniform(out.shape, 0.1, 1.0, seed).data
        T.backward(tape, ops.reduce_sum(ops.mul(out, weights)))
    return out.data, [t.grad for t in leaves], n_ops


def _assert_grads_close(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape, i
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300), i


# C >= 3: with two channels a normalized row is +-1 whatever x is, so its
# gradient is pure round-off and no relative bound can hold
FUSED_GRIDS = [(1, 1, 1, 4), (1, 5, 6, 3), (1, 1, 1, 3), (2, 4, 3, 5)]


@pytest.mark.parametrize("shape", FUSED_GRIDS)
@pytest.mark.parametrize("affine", ["channel", "per-sample"])
def test_layer_norm_matches_reference_composition(shape, affine):
    # [C] affine params, or per-sample [B, 1, 1, C] ones as a modulated
    # gated block folds them
    c = shape[-1]
    p_shape = (c,) if affine == "channel" else (shape[0], 1, 1, c)
    inputs = [rnd(shape, 41, -2.0, 2.0).data, rnd(p_shape, 43, 0.5, 1.5).data,
              rnd(p_shape, 44).data]
    got, got_g, n_ops = _forward_and_grads(
        lambda x, g, b: layer_norm(x, LayerNormParams(g, b)), inputs, 42)
    want, want_g, _ = _forward_and_grads(
        lambda x, g, b: ops.add(ops.mul(_reference_ln_core(x), g), b), inputs, 42)
    assert n_ops == 1
    assert np.array_equal(got, want)
    _assert_grads_close(got_g, want_g)  # x, gamma and beta


@pytest.mark.parametrize("shape", FUSED_GRIDS)
def test_layer_norm_statistics_match_reduce_mean(shape):
    # the matmul means sum in another order than reduce_mean, which sums
    # then divides: they agree to a few ulp
    x = rnd(shape, 45, -2.0, 2.0)
    mu, want_mu = B._channel_mean(x.data), ops.reduce_mean(x, -1, keepdims=True).data
    centered = x.data - want_mu
    var = B._channel_mean(centered * centered)
    want_var = ops.reduce_mean(Tensor(centered * centered), -1, keepdims=True).data
    assert np.abs(mu - want_mu).max() <= 1e-14 * np.abs(x.data).max()
    assert np.abs(var - want_var).max() <= 1e-14 * np.abs(want_var).max()


F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
# `_filled` serves two roles, each a case under the name it had as its own
# cache: the ones vector of `_sum_rows` and the 1/C vector of `_channel_mean`
SHAPE_CACHES = [pytest.param(T._filled, (7, 1.0, F64), id="_ones-key0"),
                pytest.param(T._filled, (7, 1.0 / 7, F64), id="_inv_count-key1"),
                pytest.param(B._tap_windows, (3, 5), id="_tap_windows-key2")]


@pytest.mark.parametrize("cache, key", SHAPE_CACHES)
def test_shape_caches_are_read_only_bounded_and_keyed_on_shapes(cache, key):
    # each call gets the one cached object, so no caller may write into it
    got = cache(*key)
    assert cache(*key) is got
    arrays = [got] if isinstance(got, np.ndarray) else []
    assert arrays or all(isinstance(win, tuple) and all(isinstance(s, slice) for s in win)
                         for win in got)  # the windows: tuples of slices, immutable
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
    keyed_on_dtype = isinstance(key[-1], np.dtype)
    if keyed_on_dtype:  # a vector per (length, value, dtype): 1/C and ones alike
        n, value, _ = key
        single, ones = cache(n, value, F32), cache(n, 1.0, F64)
        assert got.dtype == F64 and single.dtype == F32
        assert np.array_equal(got, np.full(n, value)) and np.array_equal(single, got.astype(F32))
        assert np.array_equal(ones, np.ones(n))
    assert all(isinstance(k, int) for k in key[:1 if keyed_on_dtype else None])
    size = cache.cache_info().maxsize
    assert size is not None
    at = 0 if keyed_on_dtype else len(key) - 1  # the length it varies
    for n in range(size + 5):  # more shapes than it holds
        cache(*key[:at], n + 1, *key[at + 1:])
    assert cache.cache_info().currsize <= size


@pytest.mark.parametrize("shape", FUSED_GRIDS)
def test_dwconv_matches_reference_composition(shape):
    c = shape[-1]
    inputs = [rnd(shape, 43).data, rnd((c, 3, 3), 44).data, rnd((c,), 45).data]
    got, got_g, n_ops = _forward_and_grads(
        lambda x, k, b: depthwise_conv3x3(x, DWConvParams(k, b)), inputs, 46)
    want, want_g, _ = _forward_and_grads(
        lambda x, k, b: _reference_depthwise_conv3x3(x, DWConvParams(k, b)), inputs, 46)
    assert n_ops == 1
    assert np.array_equal(got, want)
    _assert_grads_close(got_g, want_g)  # x, kernel and bias


@pytest.mark.parametrize("shape", [(7, 3), (2, 5, 4), (2, 3, 3, 6)])
def test_linear_matches_reference_composition(shape):
    n_in, n_out = shape[-1], 5
    inputs = [rnd(shape, 47).data, rnd((n_in, n_out), 48).data, rnd((n_out,), 49).data]
    got, got_g, n_ops = _forward_and_grads(lambda x, w, b: linear(x, Linear(w, b)), inputs, 50)
    want, want_g, _ = _forward_and_grads(
        lambda x, w, b: _reference_linear(x, Linear(w, b)), inputs, 50)
    assert n_ops == 1
    assert got.shape == shape[:-1] + (n_out,) and np.array_equal(got, want)
    _assert_grads_close(got_g, want_g)  # x, weight and bias


# The backward pairs against the numpy expressions they replaced: a scatter
# of g * k into a padded buffer, ndarray.sum column sums and ndarray.mean
# channel means.
ORACLE_GRIDS = [(1, 5, 6, 3), (1, 16, 16, 8), (2, 4, 3, 5), (8, 16, 16, 16)]


def _scatter_dwconv_bwd(saved, g):
    padded, k9, windows = saved
    _, h, w, _ = g.shape
    g_pad = np.zeros(padded.shape)
    g_k = np.empty(k9.shape)
    for tap, win in enumerate(windows):
        g_pad[win] += g * k9[:, tap]
        g_k[:, tap] = np.einsum("bhwc,bhwc->c", padded[win], g)
    g_x = np.ascontiguousarray(g_pad[:, 1:h + 1, 1:w + 1])
    return g_x, g_k.reshape(-1, 3, 3), g.sum(axis=(0, 1, 2))


def _mean_ln_core_bwd(saved, g):
    out, sigma = saved
    gx = g - g.mean(axis=-1, keepdims=True)
    gx -= out * (g * out).mean(axis=-1, keepdims=True)
    gx /= sigma
    return (gx,)


def _sum_linear_bwd(saved, g):
    flat, w, x_shape = saved
    g2 = g.reshape(-1, w.shape[1])
    return (g2 @ w.T).reshape(x_shape), flat.T @ g2, g2.sum(axis=0)


def _oracle_pair(shape, seed):
    """dwconv, ln_core and linear: (name, saved, g, new bwd, old bwd)."""
    c = shape[-1]
    x, g = rnd(shape, seed).data, rnd(shape, seed + 1).data
    _, dw_saved = dwconv_fwd(x, rnd((c, 3, 3), seed + 2).data, rnd((c,), seed + 3).data)
    _, ln_saved = ln_core_fwd(x)
    _, lin_saved = linear_fwd(x, rnd((c, c), seed + 4).data, rnd((c,), seed + 5).data)
    return [("dwconv", dw_saved, g, dwconv_bwd, _scatter_dwconv_bwd),
            ("ln_core", ln_saved, g, ln_core_bwd, _mean_ln_core_bwd),
            ("linear", lin_saved, g, linear_bwd, _sum_linear_bwd)]


@pytest.mark.parametrize("shape", ORACLE_GRIDS)
def test_backward_pairs_match_their_old_expressions(shape):
    for name, saved, g, bwd, oracle in _oracle_pair(shape, 70):
        got, want = bwd(saved, g), oracle(saved, g)
        assert len(got) == len(want), name
        _assert_grads_close(got, want)


@pytest.mark.parametrize("shape", ORACLE_GRIDS)
def test_dwconv_input_gradient_equals_the_scatter_bit_for_bit(shape):
    # each element sums the same products in the same tap order
    _, saved, g, bwd, oracle = _oracle_pair(shape, 80)[0]
    assert np.array_equal(bwd(saved, g)[0], oracle(saved, g)[0])


# ---------------------------------------------------------------------------
# patch resampling


def test_patch_embed_tile_order_and_shape():
    p = init_patch_embed(8, seed=12)
    img = rnd((1, 8, 8, 3), 13, 0.0, 1.0)
    y = patch_embed(img, p)
    assert y.shape == (1, 2, 2, 8)
    with pytest.raises(ShapeError):
        patch_embed(rnd((1, 6, 6, 3), 14), p)  # not divisible by 4
    with pytest.raises(ShapeError):
        patch_embed(rnd((1, 8, 8, 4), 15), p)  # not RGB
    with pytest.raises(ShapeError, match=r"patch_embed expects a \[B, H, W, 3\] grid"):
        patch_embed(img.data[0], p)  # a lone image is not a batch of one


def test_patch_embed_tile_vector_is_row_major():
    # single 4x4 single-channel-in-3 tile: the 48-vector must read the tile
    # row-major with channels fastest
    p = init_patch_embed(48, seed=16)
    p.proj.weight.data[:] = np.eye(48)
    p.proj.bias.data[:] = 0.0
    img = np.zeros((4, 4, 3))
    img[..., 0] = np.arange(16.0).reshape(4, 4)
    img[..., 1] = 100.0 + np.arange(16.0).reshape(4, 4)
    # layer_norm scrambles values, so recover the pre-norm vector:
    tiles_wanted = np.stack(
        [img[dy, dx, c] for dy in range(4) for dx in range(4) for c in range(3)]
    )
    from sumnet.blocks import _space_to_depth

    tiles = _space_to_depth(img[None], 4)
    assert np.array_equal(tiles[0, 0, 0], tiles_wanted)


def test_downsample_order_and_hand_oracle():
    # grid [[1, 2], [3, 4]] -> merged channel vector (TL, TR, BL, BR) = (1, 2, 3, 4)
    p = init_downsample(1, seed=17, name="t")
    p.proj.weight.data[:] = 0.0
    p.proj.weight.data[0, 0] = 1.0  # pick out normalized TL
    p.proj.weight.data[1, 1] = 1.0  # and normalized TR
    p.proj.bias.data[:] = 0.0
    x = Tensor(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    y = downsample(x, p)
    merged = np.array([1.0, 2.0, 3.0, 4.0])
    normed = (merged - merged.mean()) / np.sqrt(merged.var() + 1e-6)
    assert y.shape == (1, 1, 1, 2)
    assert np.allclose(y.data[0, 0, 0], normed[:2], atol=1e-12)
    with pytest.raises(ShapeError):
        downsample(rnd((1, 3, 3, 1), 18), p)


def _reference_downsample(x, p):
    """The 2x2 merge as four strided gathers and a concat (TL, TR, BL, BR)."""
    x = T.as_tensor(x)
    h_ax, w_ax = x.ndim - 3, x.ndim - 2
    if x.shape[h_ax] % 2 or x.shape[w_ax] % 2:
        raise ShapeError(f"downsample needs even extent, got {x.shape}")
    lead = (slice(None),) * (x.ndim - 3)
    tl, tr, bl, br = (ops.index(x, lead + (slice(dy, None, 2), slice(dx, None, 2)))
                      for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)))
    merged = ops.concat([tl, tr, bl, br], axis=x.ndim - 1)
    return linear(layer_norm(merged, p.norm), p.proj)


@pytest.mark.parametrize("shape", [(1, 4, 4, 3), (1, 2, 2, 1), (2, 8, 6, 5)])
def test_downsample_matches_reference_gather(shape):
    c = shape[-1]
    inputs = [rnd(shape, 23).data, rnd((4 * c,), 24, 0.5, 1.5).data, rnd((4 * c,), 25).data,
              rnd((4 * c, 2 * c), 26).data, rnd((2 * c,), 27).data]

    def run(fn):
        return _forward_and_grads(
            lambda x, g, b, w, bias: fn(x, DownsampleParams(LayerNormParams(g, b),
                                                            Linear(w, bias))), inputs, 28)

    got, got_g, n_ops = run(downsample)
    want, want_g, want_ops = run(_reference_downsample)
    assert n_ops == 1 and want_ops == 7  # one node for 4 gathers, concat, LN and linear
    assert got.shape == shape[:-3] + (shape[-3] // 2, shape[-2] // 2, 2 * c)
    assert np.array_equal(got, want)
    for g, w in zip(got_g, want_g):  # x, gamma, beta, weight, bias
        assert np.array_equal(g, w)
    with pytest.raises(ShapeError, match="not divisible"):  # odd width
        downsample(rnd(shape[:-2] + (3, c), 29), init_downsample(c, seed=30, name="t"))


def test_downsample_constant_stays_constant():
    p = init_downsample(4, seed=19, name="t")
    x = Tensor(np.full((1, 4, 4, 4), 3.25))
    y = downsample(x, p)
    assert y.shape == (1, 2, 2, 8)
    assert np.abs(y.data - y.data[0, 0, 0]).max() == 0.0


def test_patch_expand_pixel_shuffle_layout():
    p = init_patch_expand(4, 2, seed=20, name="t")
    p.proj.weight.data[:] = 0.0
    p.proj.weight.data[0, :] = np.arange(1.0, 9.0)
    p.proj.bias.data[:] = 0.0
    x = np.zeros((1, 1, 1, 4))
    x[0, 0, 0, 0] = 1.0
    y = patch_expand(Tensor(x), p)
    assert y.shape == (1, 2, 2, 2)
    expect = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    assert np.array_equal(y.data[0], expect)


def test_expand_then_merge_constancy():
    # constant input -> the expanded grid repeats one 2x2 tile everywhere,
    # and merging back gives a spatially constant grid again
    pe = init_patch_expand(8, 2, seed=21, name="t1")
    pm = init_downsample(4, seed=22, name="t2")
    x = Tensor(np.full((1, 2, 2, 8), -1.5))
    up = patch_expand(x, pe)  # [1, 4, 4, 4]
    down = downsample(up, pm)  # [1, 2, 2, 8]
    tiles = up.data.reshape(2, 2, 2, 2, 4)  # [H, f, W, f, C]
    assert np.abs(tiles - tiles[0:1, :, 0:1]).max() == 0.0
    assert np.abs(down.data - down.data[0, 0, 0]).max() == 0.0


def test_patch_expand_rejects_bad_factor():
    with pytest.raises(ShapeError):
        init_patch_expand(6, 4, seed=23, name="t")


def test_patch_expand_and_head_reject_a_wrong_channel_count():
    p = init_patch_expand(8, 4, seed=24, name="t")
    with pytest.raises(ShapeError, match=r"patch_expand expects a \[B, H, W, 8\] grid"):
        patch_expand(np.ones((1, 2, 2, 4)), p)
    with pytest.raises(ShapeError, match=r"head expects a \[B, H, W, 8\] grid"):
        head(np.ones((1, 2, 2, 4)), p, init_linear(2, 1, seed=25, name="r"))


def _up_params():
    return init_patch_expand(4, 2, seed=4, name="t"), init_linear(2, 2, seed=5, name="s")


UNBATCHED = [  # (op, its call on the unbatched [H, W, C] grid g)
    ("depthwise_conv3x3", lambda g: depthwise_conv3x3(g, init_dwconv(4, seed=1, name="t"))),
    ("gated_block", lambda g: gated_block(g, init_vss(4, 2, seed=2, name="t"))),
    ("downsample", lambda g: downsample(g, init_downsample(4, seed=3, name="t"))),
    ("up_step", lambda g: up_step(g, np.ones((1, 8, 8, 2)), *_up_params())),
    ("up_step skip", lambda g: up_step(g[None, :2, :2], g[..., :2], *_up_params())),
    ("head", lambda g: head(g, init_patch_expand(4, 4, seed=6, name="t"),
                            init_linear(1, 1, seed=7, name="r"))),
]


@pytest.mark.parametrize("op, call", UNBATCHED, ids=[op for op, _ in UNBATCHED])
def test_grid_ops_refuse_an_unbatched_grid(op, call):
    # a lone grid is not read as a batch of one: the op names the layout it takes
    with pytest.raises(ShapeError, match=op + r" expects a \[B, H, W, \d\] grid, got \(4, 4, "):
        call(np.ones((4, 4, 4)))


def test_up_step_refuses_a_skip_that_does_not_fit_the_expand():
    # a skip of another batch would broadcast in the sum and fail only in
    # the backward; one of another size would fail inside numpy
    x = np.ones((2, 2, 2, 4))
    for skip in (np.ones((1, 4, 4, 2)), np.ones((2, 8, 8, 2))):
        with pytest.raises(ShapeError, match=r"up_step skip \(\d, \d, \d, 2\) does not fit the "
                                             r"expand of \(2, 2, 2, 4\)"):
            up_step(x, skip, *_up_params())


def test_patch_embed_untiles_no_gradient_for_a_constant_image():
    pe = init_patch_embed(4, seed=26)
    with T.Tape() as tape:
        out = patch_embed(rnd((1, 8, 4, 3), 27, 0.0, 1.0), pe)
        (node,) = [n for n in tape.nodes if n.grad_fn is not None]
    g_img, *g_params = node.grad_fn(np.ones(out.shape))
    assert g_img is None and all(g is not None for g in g_params)


# the stage pairs against the tape compositions they replaced

_TILE_AXES = (0, 2, 1, 3, 4)


def _reference_space_to_depth(x, f):
    x = T.as_tensor(x)
    (h, w, c), lead, nl = x.shape[-3:], x.shape[:-3], x.ndim - 3
    r = ops.reshape(x, lead + (h // f, f, w // f, f, c))
    r = ops.transpose(r, tuple(range(nl)) + tuple(nl + a for a in _TILE_AXES))
    return ops.reshape(r, lead + (h // f, w // f, f * f * c))


def _reference_depth_to_space(y, f):
    (h, w, c), lead, nl = y.shape[-3:], y.shape[:-3], y.ndim - 3
    r = ops.reshape(y, lead + (h, w, f, f, c // (f * f)))
    r = ops.transpose(r, tuple(range(nl)) + tuple(nl + a for a in _TILE_AXES))
    return ops.reshape(r, lead + (h * f, w * f, c // (f * f)))


def _stage_case(stage, lead):
    """(inputs, pair, reference composition) of one stage on a grid with
    leading axes `lead`; the pair and the reference take the same arrays."""
    c = 5
    if stage == "patch_embed":
        inputs = [rnd(lead + (8, 4, 3), 91, 0.0, 1.0).data, rnd((48, c), 92).data,
                  rnd((c,), 93).data, rnd((c,), 94, 0.5, 1.5).data, rnd((c,), 95).data]

        def params(w, b, g, bt):
            return PatchEmbedParams(Linear(w, b), LayerNormParams(g, bt))

        return (inputs, lambda x, *ps: patch_embed(x, params(*ps)),
                lambda x, w, b, g, bt: layer_norm(
                    linear(_reference_space_to_depth(x, 4), Linear(w, b)),
                    LayerNormParams(g, bt)))
    if stage == "downsample":
        inputs = [rnd(lead + (4, 6, c), 96).data, rnd((4 * c,), 97, 0.5, 1.5).data,
                  rnd((4 * c,), 98).data, rnd((4 * c, 2 * c), 99).data, rnd((2 * c,), 100).data]

        def params(g, bt, w, b):
            return DownsampleParams(LayerNormParams(g, bt), Linear(w, b))

        return (inputs, lambda x, *ps: downsample(x, params(*ps)),
                lambda x, g, bt, w, b: linear(layer_norm(_reference_space_to_depth(x, 2),
                                                         LayerNormParams(g, bt)), Linear(w, b)))
    f, c = (4, 8) if stage == "head" else (2, 4)
    inputs = [rnd(lead + (3, 2, c), 101).data, rnd((c, f * c), 102).data, rnd((f * c,), 103).data]
    if stage == "patch_expand":
        return (inputs, lambda x, w, b: patch_expand(x, PatchExpandParams(Linear(w, b), f)),
                lambda x, w, b: _reference_depth_to_space(linear(x, Linear(w, b)), f))
    if stage == "up_step":  # the expand plus a projected skip of the C/2-wide finer grid
        inputs[1:1] = [rnd(lead + (6, 4, c // 2), 107).data]
        inputs += [rnd((c // 2, c // 2), 108).data, rnd((c // 2,), 109).data]
        return (inputs, lambda x, s, w, b, ws, bs: up_step(
                    x, s, PatchExpandParams(Linear(w, b), f), Linear(ws, bs)),
                lambda x, s, w, b, ws, bs: ops.add(
                    _reference_depth_to_space(linear(x, Linear(w, b)), f),
                    linear(s, Linear(ws, bs))))
    inputs += [rnd((c // f, 1), 104).data, rnd((1,), 105).data]

    def reference_head(x, w, b, wr, br):
        y = ops.sigmoid(linear(_reference_depth_to_space(linear(x, Linear(w, b)), f),
                               Linear(wr, br)))
        return ops.reshape(y, y.shape[:-1])

    return (inputs, lambda x, w, b, wr, br: head(
        x, PatchExpandParams(Linear(w, b), f), Linear(wr, br)), reference_head)


@pytest.mark.parametrize("lead", [(1,), (2,)])
@pytest.mark.parametrize("stage", ["patch_embed", "downsample", "patch_expand", "up_step",
                                   "head"])
def test_stage_pairs_match_reference_composition(stage, lead):
    inputs, pair, reference = _stage_case(stage, lead)
    got, got_g, n_ops = _forward_and_grads(pair, inputs, 106)
    want, want_g, want_ops = _forward_and_grads(reference, inputs, 106)
    assert n_ops == 1 and want_ops > 1
    assert np.array_equal(got, want)
    _assert_grads_close(got_g, want_g)  # the grid's and every parameter's


def test_stage_pairs_checked_mode_name_the_step():
    pe = init_patch_embed(4, seed=31)
    pe.proj.weight.data[0, 0] = np.inf
    with pytest.raises(NumericError, match="patch_embed proj: produced a non-finite value"):
        patch_embed(np.ones((1, 4, 4, 3)), pe)
    x = np.ones((1, 2, 2, 4))
    x[0, 1, 1, 2] = np.nan
    with pytest.raises(NumericError, match="downsample norm core"):
        downsample(x, init_downsample(4, seed=32, name="t"))
    up = init_patch_expand(8, 4, seed=33, name="t")
    readout = init_linear(2, 1, seed=34, name="r")
    readout.bias.data[0] = np.inf
    with pytest.raises(NumericError, match="head readout: produced a non-finite value"):
        head(np.ones((1, 1, 1, 8)), up, readout)


# ---------------------------------------------------------------------------
# gated scan block


def test_vss_zero_fuse_is_residual_identity():
    w = init_vss(4, 2, seed=24, name="t")
    w.outproj.weight.data[:] = 0.0
    w.outproj.bias.data[:] = 0.0
    f = rnd((1, 5, 6, 4), 25)
    y = gated_block(f, w)
    assert np.array_equal(y.data, f.data)


def test_vss_shapes_and_batch_consistency():
    w = init_vss(4, 2, seed=26, name="t")
    fb = rnd((2, 4, 4, 4), 27)
    yb = gated_block(fb, w)
    assert yb.shape == fb.shape
    for i in range(2):
        yi = gated_block(Tensor(fb.data[i:i + 1]), w)
        assert np.allclose(yb.data[i], yi.data[0], atol=1e-12)


def test_cvss_identity_modulation_bit_exact():
    w = init_vss(6, 3, seed=28, name="t")
    f = rnd((1, 4, 5, 6), 29)
    a = gated_block(f, w)
    b = gated_block(f, w, IDENTITY[None])
    assert np.array_equal(a.data, b.data)


def _reference_scan_branch(x, w):
    a = linear(x, w.inproj)
    a = ops.silu(depthwise_conv3x3(a, w.dw))
    return _reference_ss2d(a, w.ssm)


def _reference_vss(f, w):
    """Gated scan block: LN, two branches (gate, scan), fuse, residual."""
    x = layer_norm(f, w.ln1)
    gate = ops.silu(linear(x, w.gate))
    attn = layer_norm(_reference_scan_branch(x, w), w.ln2)
    fused = linear(ops.mul(gate, attn), w.outproj)
    return ops.add(fused, f)


def _knob_columns(knobs):
    """The five knobs of a [B, 5] tensor, as [B, 1, 1, 1] tensors."""
    return [ops.index(knobs, (slice(None), j, None, None, None)) for j in range(5)]


def _reference_cvss(f, w, knobs):
    """Conditional gated scan block: _reference_vss with the knobs folded
    into the norms' affine params, LN1 with (a1 gamma1, a1 beta1 + b1) and
    LN2 with ((a2 a3) gamma2, a2 beta2 + b2)."""
    a1, b1, a2, b2, a3 = _knob_columns(knobs)
    ln1 = LayerNormParams(ops.mul(a1, w.ln1.gamma), ops.add(ops.mul(a1, w.ln1.beta), b1))
    ln2 = LayerNormParams(ops.mul(ops.mul(a2, a3), w.ln2.gamma),
                          ops.add(ops.mul(a2, w.ln2.beta), b2))
    return _reference_vss(f, dataclasses.replace(w, ln1=ln1, ln2=ln2))


def _paper_cvss(f, w, knobs):
    """Conditional gated scan block in the paper's order, three insertion
    points: (a1, b1) rescale the first normalized features, (a3) scales the
    second norm's core before its affine, (a2, b2) rescale the result."""
    a1, b1, a2, b2, a3 = _knob_columns(knobs)
    x = ops.add(ops.mul(a1, layer_norm(f, w.ln1)), b1)
    gate = ops.silu(linear(x, w.gate))
    attn = _reference_scan_branch(x, w)
    attn = ops.add(ops.mul(ops.mul(a3, _reference_ln_core(attn)), w.ln2.gamma), w.ln2.beta)
    attn = ops.add(ops.mul(a2, attn), b2)
    fused = linear(ops.mul(gate, attn), w.outproj)
    return ops.add(fused, f)


def _vss_tensors(w):
    """Every tensor of a VSSWeights, the stacked scan parameters once each."""
    return [w.ln1.gamma, w.ln1.beta, w.gate.weight, w.gate.bias, w.inproj.weight,
            w.inproj.bias, w.dw.kernel, w.dw.bias, *w.ssm.tensors(), w.ln2.gamma,
            w.ln2.beta, w.outproj.weight, w.outproj.bias]


# C >= 3 (see FUSED_GRIDS); 1x1 grids leave each scan a single step
@pytest.mark.parametrize("shape, mod, shared", [
    ((1, 1, 1, 4), None, False),
    ((1, 1, 1, 4), "identity", False),
    ((1, 4, 5, 4), None, False),
    ((1, 4, 5, 4), "identity", False),
    ((1, 4, 5, 4), "random", False),
    ((1, 1, 1, 4), "random", False),
    ((2, 3, 4, 5), None, False),
    ((2, 3, 4, 5), "identity", False),
    ((2, 3, 4, 5), "random", False),
    ((2, 3, 4, 5), None, True),
    ((2, 3, 4, 5), "random", True),
])
def test_gated_block_matches_reference_composition(shape, mod, shared):
    c = shape[-1]
    w = init_vss(c, 3, seed=60, name="t", shared_scan=shared)
    for k, t in enumerate(_vss_tensors(w)):
        t.data += rnd(t.shape, 600 + k, -0.3, 0.3).data
    m = None
    if mod == "identity":
        m = Tensor(np.tile(IDENTITY, (shape[0], 1)), requires_grad=True)
    elif mod == "random":
        m = Tensor(1.0 + rnd((shape[0], 5), 610, -0.5, 0.5).data, requires_grad=True)
    f = Tensor(rnd(shape, 61).data, requires_grad=True)
    leaves = [f] + _vss_tensors(w) + ([] if m is None else [m])

    def run(block):
        with T.Tape() as tape:
            y = block(f, w) if m is None else block(f, w, m)
            n_ops = sum(1 for node in tape.nodes if node.grad_fn is not None)
            weights = T.uniform(y.shape, 0.1, 1.0, 62).data
            T.backward(tape, ops.reduce_sum(ops.mul(y, weights)))
        return y.data, [t.grad.copy() for t in leaves], n_ops

    def by_slice(grads):
        """The gradients with each stacked scan parameter's split into its
        per-direction slices, so that each slice is compared on its own."""
        scan = {id(t) for t in w.ssm.tensors()}
        return [s for t, g in zip(leaves, grads) for s in (list(g) if id(t) in scan else [g])]

    got, got_g, n_ops = run(gated_block)
    want, want_g, _ = run(_reference_vss if m is None else _reference_cvss)
    assert n_ops == 1
    assert got.shape == want.shape and np.array_equal(got, want)
    _assert_grads_close(by_slice(got_g), by_slice(want_g))  # f, every weight, every knob
    if m is not None:  # the fold reassociates the paper's order: equal at identity knobs
        paper, paper_g, _ = run(_paper_cvss)
        if mod == "identity":
            assert np.array_equal(got, paper)
        _assert_grads_close([got], [paper])
        _assert_grads_close(by_slice(got_g), by_slice(paper_g))
    if m is not None:
        assert got_g[-1].shape == m.shape


def test_gated_block_gradients_match_ndarray_sum_column_sums(monkeypatch):
    # every column sum: the linears' and the conv's biases, LN gamma/beta,
    # d_skip and b_delta
    w = init_vss(6, 3, seed=64, name="t")
    knobs = Tensor(1.0 + rnd((2, 5), 66, -0.5, 0.5).data, requires_grad=True)
    f = Tensor(rnd((2, 8, 8, 6), 65).data, requires_grad=True)
    leaves = [f] + _vss_tensors(w) + [knobs]

    def grads():
        with T.Tape() as tape:
            y = gated_block(f, w, knobs)
            T.backward(tape, ops.reduce_sum(ops.mul(y, T.uniform(y.shape, 0.1, 1.0, 67).data)))
        return [t.grad.copy() for t in leaves]

    got = grads()
    monkeypatch.setattr(T, "_sum_rows", lambda x: x.sum(axis=-2))
    _assert_grads_close(got, grads())


def test_gated_block_checked_mode_names_the_intermediate():
    w = init_vss(4, 2, seed=63, name="t")
    f = rnd((1, 3, 3, 4), 64)
    bad_gate = w.gate.weight.data.copy()
    bad_gate[1, 2] = np.nan
    with pytest.raises(NumericError, match="gated_block gate linear"):
        gated_block(f, dataclasses.replace(w, gate=Linear(Tensor(bad_gate), w.gate.bias)))
    gamma = w.ln2.gamma.data.copy()
    gamma[0] = np.inf
    with pytest.raises(NumericError, match="gated_block ln2 scale"):
        gated_block(f, dataclasses.replace(w, ln2=dataclasses.replace(w.ln2,
                                                                       gamma=Tensor(gamma))))
    with T._op_checks(False), np.errstate(invalid="ignore"):
        y = gated_block(f, dataclasses.replace(
            w, ln2=dataclasses.replace(w.ln2, gamma=Tensor(gamma))))
    assert not np.isfinite(y.data).all()


def test_cvss_nonidentity_changes_output():
    w = init_vss(4, 2, seed=30, name="t")
    f = rnd((1, 3, 3, 4), 31)
    knobs = np.array([[1.0, 0.0, 1.5, 0.0, 1.0]])  # a2 = 1.5
    assert not np.array_equal(gated_block(f, w, knobs).data, gated_block(f, w).data)


def test_gated_block_refuses_knobs_that_are_not_one_row_per_grid():
    # neither [5] knobs nor [B', 5] ones with B' != B broadcast over the batch
    w = init_vss(4, 2, seed=34, name="t")
    for batch, knobs in ((1, IDENTITY), (3, IDENTITY[None]), (1, np.tile(IDENTITY, (2, 1))),
                         (2, np.ones((2, 4)))):
        with pytest.raises(ShapeError, match=r"gated_block expects \[B, 5\] knobs, one row per "
                                             f"grid of the batch of {batch}, got"):
            gated_block(np.ones((batch, 2, 2, 4)), w, knobs)


def test_a_recorded_gated_block_keeps_each_forward_value_once():
    # a float32 block at step-std's first level.  The tape holds the output,
    # the scan's checkpoints and its delta, B and C, and the block's
    # intermediates: 26 grid-sized arrays' worth.  Keeping gate = silu(gate
    # linear) or the scan's grid silu(conv), each one multiply of two kept
    # arrays, beside them would add one grid each
    w = init_vss(16, 8, seed=35, name="t")
    for t in _vss_tensors(w):
        t.data = t.data.astype(np.float32)
        t.requires_grad = True
    f = Tensor(rnd((8, 16, 16, 16), 36).data.astype(np.float32), requires_grad=True)
    knobs = Tensor(np.tile(IDENTITY, (8, 1)).astype(np.float32), requires_grad=True)
    for m in (None, knobs):
        gated_block(f, w, m)  # the shape caches, filled before counting
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                y = gated_block(f, w, m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) and y.data.dtype == np.float32
        assert held < 27 * f.data.nbytes, held / f.data.nbytes
        del tape, y


def test_cvss_beta_shifts_when_gate_open():
    # with alpha2=0 the scan branch collapses to beta2; output still finite
    w = init_vss(4, 2, seed=32, name="t")
    f = rnd((1, 3, 3, 4), 33)
    y = gated_block(f, w, np.array([[1.0, 0.0, 0.0, 2.0, 1.0]]))
    assert np.isfinite(y.data).all()


# ---------------------------------------------------------------------------
# conditioner


def test_conditioner_param_count_formula():
    from sumnet.model import Model, SumConfig

    def count(conditioning):
        return Model(SumConfig(input_size=32, base_channels=4, token_dim=128,
                               conditioning=conditioning)).num_parameters()

    # 4*128 + (128*128 + 128) + (128*64 + 64) + (64*5 + 5); a one-hot table
    # is fixed, so not a parameter
    assert count("prompt") - count("none") == 25605
    assert count("one-hot") - count("none") == 25605 - 512


def test_zero_final_layer_gives_identity_modulation():
    p = init_conditioner(4, 128, seed=35)
    knobs = conditioner(p, [0, 1, 2, 3])
    assert np.array_equal(knobs.data, np.tile(IDENTITY, (4, 1)))


def test_distinct_tokens_give_distinct_rows_once_trained():
    p = init_conditioner(4, 16, seed=36)
    # give l3 some weight so rows differ
    p.l3.weight.data[:] = T.uniform((64, 5), -0.5, 0.5, 37).data
    rows = conditioner(p, [0, 1, 2, 3]).data
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(rows[i], rows[j])


def _gelu(v):
    return 0.5 * v * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (v + 0.044715 * v ** 3)))


def test_one_hot_matches_table_route():
    # one-hot params go through the same table route as prompts; each row of
    # the result is the MLP applied by hand to the padded one-hot token
    p = init_conditioner(4, 16, seed=38, one_hot=True)
    p.l3.weight.data[:] = T.uniform((64, 5), -0.5, 0.5, 39).data
    for k, lin in enumerate((p.l1, p.l2, p.l3)):
        lin.bias.data[:] = T.uniform(lin.bias.shape, -0.2, 0.2, 390 + k).data
    labels = [2, 0, 2]
    knobs = conditioner(p, labels)
    for i, label in enumerate(labels):
        h = np.zeros(16)
        h[label] = 1.0
        for lin in (p.l1, p.l2):
            h = _gelu(h @ lin.weight.data + lin.bias.data)
        raw = h @ p.l3.weight.data + p.l3.bias.data
        assert np.abs(knobs.data[i] - (raw + IDENTITY)).max() <= 1e-12, label


def test_label_validation():
    p = init_conditioner(4, 16, seed=40)
    with pytest.raises(ShapeError):
        conditioner(p, [4])
    with pytest.raises(ShapeError):
        conditioner(p, [-1])
    with pytest.raises(ShapeError):
        conditioner(p, [])
    assert int(DomainLabel.UI) == 3


@pytest.mark.parametrize("label", [0.7, 2.9, True, np.True_, "1", float("nan")])
def test_label_validation_refuses_a_label_that_is_not_an_integer(label):
    # a fractional label must not be truncated into some domain's row
    p = init_conditioner(4, 16, seed=40)
    with pytest.raises(ShapeError, match=f"domain label {label!r} is not an integer"):
        conditioner(p, [label])
    with pytest.raises(ShapeError, match="is not an integer"):
        conditioner(p, [1, label])


def test_label_validation_accepts_an_integral_float():
    p = init_conditioner(4, 16, seed=40)
    p.l3.weight.data[:] = T.uniform((64, 5), -0.5, 0.5, 41).data
    got, want = conditioner(p, [2.0, np.float64(1.0)]), conditioner(p, np.array([2, 1]))
    assert np.array_equal(got.data, want.data)


def test_batched_modulation_matches_per_sample():
    w = init_vss(4, 2, seed=41, name="t")
    p = init_conditioner(4, 16, seed=42)
    p.l3.weight.data[:] = T.uniform((64, 5), -0.2, 0.2, 43).data
    fb = rnd((3, 4, 4, 4), 44)
    labels = [0, 2, 1]
    yb = gated_block(fb, w, conditioner(p, labels))
    for i, lab in enumerate(labels):
        yi = gated_block(Tensor(fb.data[i:i + 1]), w, conditioner(p, [lab]))
        assert np.allclose(yb.data[i], yi.data[0], atol=1e-12)


# ---------------------------------------------------------------------------
# gradients through the blocks: every pair has a finite-difference row in
# sumnet.gradcheck, which test_gradient_suite runs


def test_grad_resampling():
    img = rnd((1, 8, 8, 3), 47, 0.0, 1.0)
    pe = init_patch_embed(4, seed=48)
    wts = T.uniform((1, 2, 2, 4), -1.0, 1.0, 470).data
    err, _, _ = check_gradient(lambda t: ops.reduce_sum(ops.mul(patch_embed(t, pe), wts)), img)
    assert err < TOL
    x = rnd((1, 4, 4, 4), 49)
    pd = init_downsample(4, seed=50, name="t")
    err, _, _ = check_gradient(lambda t: ops.reduce_sum(ops.mul(downsample(t, pd), 0.5)), x)
    assert err < TOL
