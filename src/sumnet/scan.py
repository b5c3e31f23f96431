"""Directional sequence scanning and the selective state-space recurrence.

A feature grid [H, W, C] is flattened into four 1-D traversals (row-major
forward/backward, column-major forward/backward), each traversal runs an
input-dependent linear state-space recurrence left to right, and the four
outputs are scattered back to the grid and summed.  The recurrence is the
O(L) sequential form (no parallel prefix tricks here).  Its state arrays are
time-major, [L, B, N, C], and both sweeps update them in place one contiguous
step at a time: the cost is memory traffic through these arrays, not FLOPs.
So both kernels walk time in chunks of K = max(1, min(L, _CHUNK_ELEMS //
(B N C))) steps, 256 KB of state per chunk buffer, and finish each chunk's
work while it is in L2.  When a tape records the call, the hidden states and
the decay factors are kept whole for the backward pass, trading memory for
an exact reverse sweep without recomputation.  When nothing records
(predict, eval, the finite-difference oracle) the forward reuses one K-row
buffer per array and keeps no full-size state.

Each fused primitive is a pure numpy pair, `*_fwd(...) -> (out, saved)`
and `*_bwd(saved, g) -> gradients`, with a thin tape wrapper around it:
`_flatten`/`_unflatten` for one `cross_scan` traversal, `cross_merge_fwd`
(whose backward is `_flatten`), `selective_scan_fwd`/`_bwd` for a whole
direction (projections, softplus, A = -exp(A_log), recurrence and skip;
`saved` keeps the sequence, the rank-R delta projection, the softplus
derivative, delta, the B/C projections, A, exp(A_log) and the kernel's
hidden and abar), and `ss2d_fwd`/`_bwd`, which chain the other three over
all four directions so that `ss2d` records one node.  `blocks.gated_block`
chains the same pairs.  `ssm_recurrence` is the bare recurrence as its own
primitive, on the same kernels.

Recurrence, per step t, channel c, state n:
    delta_t  = softplus(x_t W_d V_d + b_d)            [C]  (low-rank, rank R)
    B_t      = x_t W_B                                [N]
    C_t      = x_t W_C                                [N]
    abar     = exp(delta_t[c] * A[c, n])              A = -exp(A_log) < 0
    h_t      = abar * h_{t-1} + delta_t[c] B_t[n] x_t[c]
    y_t[c]   = sum_n C_t[n] h_t[c, n] + D[c] x_t[c]

Because A < 0 and delta > 0, |abar| < 1 and the state stays bounded for
bounded inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import derive, uniform_array
from .tensor import ShapeError, Tensor

DIRECTION_ORDER = ("row_fwd", "row_bwd", "col_fwd", "col_bwd")


# ---------------------------------------------------------------------------
# directional flattening


@dataclass
class DirectionalSequences:
    """Four flattened traversals of one grid, plus the grid extent."""

    row_fwd: Tensor
    row_bwd: Tensor
    col_fwd: Tensor
    col_bwd: Tensor
    height: int
    width: int

    def as_list(self):
        return [
            ("row_fwd", self.row_fwd),
            ("row_bwd", self.row_bwd),
            ("col_fwd", self.col_fwd),
            ("col_bwd", self.col_bwd),
        ]


def _flatten(grid: np.ndarray, direction: str) -> np.ndarray:
    """One traversal of a [B, H, W, C] array as a fresh [B, H*W, C] array.

    Reversing a row-major flattening is the same as reversing both spatial
    axes before it; column-major is row-major of the transposed grid.
    """
    b, h, w, c = grid.shape
    if direction.startswith("col"):
        grid = grid.transpose(0, 2, 1, 3)
    if direction.endswith("bwd"):
        grid = grid[:, ::-1, ::-1]
    return np.array(grid, order="C").reshape(b, h * w, c)


def _unflatten(seq: np.ndarray, direction: str, h: int, w: int) -> np.ndarray:
    """Inverse of _flatten: a [B, H*W, C] traversal as a [B, H, W, C] view."""
    b, _, c = seq.shape
    col = direction.startswith("col")
    grid = seq.reshape((b, w, h, c) if col else (b, h, w, c))
    if direction.endswith("bwd"):
        grid = grid[:, ::-1, ::-1]
    return grid.transpose(0, 2, 1, 3) if col else grid


def cross_scan(f: Tensor) -> DirectionalSequences:
    """Flatten a grid into the four traversal orders (fresh buffers, not views).

    A [H, W, C] grid yields [L, C] sequences; [B, H, W, C] yields [B, L, C].
    Each traversal is one tape node whose backward scatters the sequence
    gradient back onto the grid: `_flatten` and `_unflatten` are its
    forward/backward pair.
    """
    f = T.as_tensor(f)
    if f.ndim not in (3, 4):
        raise ShapeError(f"expected [H, W, C] or [B, H, W, C], got {f.shape}")
    f4 = f.data if f.ndim == 4 else f.data[None]
    _, h, w, _ = f4.shape
    fshape = f.shape

    def traversal(direction):
        seq = _flatten(f4, direction)

        def make():
            def grad_fn(g):
                g3 = g if g.ndim == 3 else g[None]
                return (np.ascontiguousarray(_unflatten(g3, direction, h, w)).reshape(fshape),)

            return grad_fn

        out = seq if f.ndim == 4 else seq[0]
        return T._emit("cross_scan", (f,), out, make)

    return DirectionalSequences(*map(traversal, DIRECTION_ORDER), h, w)


def cross_merge_fwd(seqs, h: int, w: int) -> np.ndarray:
    """Four [B, H*W, C] traversals, in DIRECTION_ORDER, back on one summed grid.

    Summation is pairwise, (row_fwd + row_bwd) + (col_fwd + col_bwd), so that
    merging four identical grids is exact doubling twice (bit-exact 4x).
    The backward needs no saved state: it is `_flatten` of the grid
    gradient in each direction.
    """
    rf, rb, cf, cb = (_unflatten(s, d, h, w) for d, s in zip(DIRECTION_ORDER, seqs))
    merged = rf + rb  # C-ordered; the column pair is added into it in place
    merged += cf + cb
    return merged


def cross_merge(seqs: DirectionalSequences) -> Tensor:
    """Invert each traversal back to the grid and sum the four grids.

    One tape node over the four sequences (see cross_merge_fwd); each one's
    gradient is the traversal of the grid gradient in its own order.
    """
    h, w = seqs.height, seqs.width
    parts = tuple(T.as_tensor(t) for _, t in seqs.as_list())
    shape = parts[0].shape
    if parts[0].ndim not in (2, 3) or any(t.shape != shape for t in parts):
        raise ShapeError(f"cross_merge needs four equal [.., L, C] sequences, "
                         f"got {[t.shape for t in parts]}")
    if shape[-2] != h * w:
        raise ShapeError(f"sequence length {shape[-2]} does not match grid {h}x{w}")
    had_batch = len(shape) == 3
    merged = cross_merge_fwd([t.data if had_batch else t.data[None] for t in parts], h, w)

    def make():
        def grad_fn(g):
            g4 = g if had_batch else g[None]
            return tuple(_flatten(g4, d).reshape(shape) for d in DIRECTION_ORDER)

        return grad_fn

    return T._emit("cross_merge", parts, merged if had_batch else merged[0], make)


# ---------------------------------------------------------------------------
# recurrence kernel (forward + hand-derived backward)


def _time_major(v):
    """Swap the batch and time axes of a [B, L, K] array (a view; self-inverse)."""
    return v.transpose(1, 0, 2)


# Elements of one [K, B, N, C] chunk buffer: 2^15 float64 is 256 KB, small
# enough that a chunk's abar, hidden (or dh) and temporaries stay in L2.
_CHUNK_ELEMS = 1 << 15


def _chunk_len(length, bsz, n, ch):
    """Time steps per chunk: K = max(1, min(L, _CHUNK_ELEMS // (B N C)))."""
    return max(1, min(length, _CHUNK_ELEMS // (bsz * n * ch)))


def _forward_chunk(delta_c, dx_c, b_c, c_c, a_t, tmp, h_prev, ab=None, hd=None, y_c=None):
    """All forward work on one time-major chunk while it is in cache.

    abar = exp(delta a) in place, du = delta x B straight into the hidden
    rows, the in-place sweep from h_prev (None at t = 0), then C h.  Writes
    into ab, hd and y_c when given; otherwise each op allocates its own
    output, C-ordered so that every step's [B, N, C] block is contiguous
    (the inputs are transposed views).  Returns (abar, hidden,
    y [K, B, 1, C]) of the chunk.
    """
    ab = np.multiply(delta_c[:, :, None, :], a_t, out=ab, order="C")
    np.exp(ab, out=ab)
    if h_prev is not None:  # read before hd is written: it may be hd's last row
        np.multiply(ab[0], h_prev, out=tmp)
    hd = np.einsum("lbc,lbn->lbnc", dx_c, b_c, out=hd, order="C")
    if h_prev is not None:
        hd[0] += tmp
    h_prev = hd[0]
    for ab_t, h in zip(ab[1:], hd[1:]):
        np.multiply(ab_t, h_prev, out=tmp)
        h += tmp
        h_prev = h
    return ab, hd, np.matmul(c_c[:, :, None, :], hd, out=y_c)


def _scan_forward(delta, a, b_seq, c_seq, x, keep=True):
    """Raw numpy recurrence.  Inputs batch-major: delta/x [B,L,C], b/c [B,L,N].

    Returns (y [B,L,C], hidden [L,B,N,C], abar [L,B,N,C]) when `keep`, else
    (y, None, None).  The state arrays are time-major, so each sweep step
    reads and writes one contiguous [B, N, C] block.  Time is walked in
    chunks of K steps (`_chunk_len`), each finished by `_forward_chunk`
    while it is in cache, with h carried from the previous chunk's last
    step.  With `keep` the chunks are slices of the full hidden and abar
    that the backward pass reads; without it (nothing records) every chunk
    reuses one K-row buffer per array and no full-size state is built.  A
    call that fits one chunk runs it on the whole arrays and lets each op
    allocate, so it pays no chunking overhead.  einsum builds the outer
    products because broadcasting runs an inner loop only C long.
    """
    bsz, length, ch = delta.shape
    n = a.shape[1]
    k = _chunk_len(length, bsz, n, ch)
    delta_t, b_t, c_t = _time_major(delta), _time_major(b_seq), _time_major(c_seq)
    a_t = np.ascontiguousarray(a.T)
    dx = delta_t * _time_major(x)
    tmp = np.empty((bsz, n, ch))
    if k == length:
        abar, hidden, y = _forward_chunk(delta_t, dx, b_t, c_t, a_t, tmp, None)
    else:
        abar = np.empty((length if keep else k, bsz, n, ch))
        hidden = np.empty_like(abar)
        y = np.empty((length, bsz, 1, ch))
        for s in range(0, length, k):
            e = s + k
            ab, hd = (abar[s:e], hidden[s:e]) if keep else (abar[:length - s], hidden[:length - s])
            h_prev = hidden[s - 1 if keep else -1] if s else None
            _forward_chunk(delta_t[s:e], dx[s:e], b_t[s:e], c_t[s:e], a_t, tmp, h_prev,
                           ab, hd, y[s:e])
    y = np.ascontiguousarray(_time_major(y[:, :, 0]))
    return (y, hidden, abar) if keep else (y, None, None)


def _scan_backward(g, delta, a, b_seq, c_seq, x, hidden, abar):
    """Reverse sweep for the recurrence above; returns batch-major gradients.

    With dh_t the gradient reaching h_t, the recurrence h_t = abar_t h_{t-1}
    + du_t gives dh_t = g_t * C_t + abar_{t+1} * dh_{t+1}, accumulated right
    to left; every parameter gradient then factors through dh.  The chunks
    of the forward are walked in reverse through one K-row dh buffer: g (x) C
    is built in it and swept in place, and abar_s * dh_s carries into the
    chunk before.  Once the gradients into du (delta x and B) are contracted
    out of a chunk, its rows become the gradient into delta * a,
    dh_t * h_{t-1} * abar_t (h_{-1} = 0, so step 0 contributes nothing), and
    the chunk's share of the A gradient is added to a running sum.
    """
    g_t, delta_t, x_t = _time_major(g), _time_major(delta), _time_major(x)
    b_t, c_t = _time_major(b_seq), _time_major(c_seq)
    length, bsz, ch = g_t.shape
    n = a.shape[1]
    k = _chunk_len(length, bsz, n, ch)
    dx = delta_t * x_t
    dh = np.empty((k, bsz, n, ch))
    tmp = np.empty((bsz, n, ch))
    carry = np.empty((bsz, n, ch))
    g_c = np.empty((length, bsz, n, 1))
    g_dx = np.empty((length, bsz, 1, ch))  # into delta * x
    g_b = np.empty((length, bsz, n, 1))
    g_delta = np.empty((length, bsz, ch))
    g_a = np.zeros((ch, n))
    for s in reversed(range(0, length, k)):
        e = min(s + k, length)
        d, ab, g_s = dh[:e - s], abar[s:e], g_t[s:e]
        np.matmul(hidden[s:e], g_s[..., None], out=g_c[s:e])
        np.einsum("lbc,lbn->lbnc", g_s, c_t[s:e], out=d)
        if e < length:
            d[-1] += carry
        dh_next = d[-1]
        for ab_next, dh_cur in zip(ab[:0:-1], d[-2::-1]):
            np.multiply(ab_next, dh_next, out=tmp)
            dh_cur += tmp
            dh_next = dh_cur
        if s:
            np.multiply(ab[0], d[0], out=carry)
        np.matmul(b_t[s:e, :, None, :], d, out=g_dx[s:e])
        np.matmul(d, dx[s:e, ..., None], out=g_b[s:e])
        np.multiply(g_dx[s:e, :, 0], x_t[s:e], out=g_delta[s:e])
        lo = max(s, 1)  # first step with a previous state
        if lo < e:
            g_da = d[lo - s:]
            g_da *= hidden[lo - 1:e - 1]
            g_da *= abar[lo:e]
            g_delta[lo:e] += np.einsum("lbnc,cn->lbc", g_da, a)
            g_a += np.einsum("lbnc,lbc->cn", g_da, delta_t[lo:e])
    g_dx = g_dx[:, :, 0]
    g_x = g_dx * delta_t
    g_delta, g_b, g_c, g_x = (np.ascontiguousarray(_time_major(v))
                              for v in (g_delta, g_b[..., 0], g_c[..., 0], g_x))
    return g_delta, g_a, g_b, g_c, g_x


def ssm_recurrence(delta, a, b_seq, c_seq, x) -> Tensor:
    """Tape primitive for the recurrence; returns y shaped like x.

    delta, x: [L, C] or [B, L, C]; b_seq, c_seq: matching [.., L, N]; a: [C, N].
    """
    delta, a, b_seq, c_seq, x = map(T.as_tensor, (delta, a, b_seq, c_seq, x))
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    dd = delta.data[None] if squeeze else delta.data
    bd = b_seq.data[None] if squeeze else b_seq.data
    cd = c_seq.data[None] if squeeze else c_seq.data
    if xd.ndim != 3 or dd.shape != xd.shape:
        raise ShapeError(f"recurrence input shapes differ: x {x.shape}, delta {delta.shape}")
    bsz, length, ch = xd.shape
    if a.ndim != 2 or a.shape[0] != ch:
        raise ShapeError(f"state matrix {a.shape} does not match {ch} channels")
    n = a.shape[1]
    if bd.shape != (bsz, length, n) or cd.shape != (bsz, length, n):
        raise ShapeError(
            f"projection shapes {b_seq.shape}/{c_seq.shape} do not match [L={length}, N={n}]"
        )
    ad = a.data
    inputs = (delta, a, b_seq, c_seq, x)
    y, hidden, abar = _scan_forward(dd, ad, bd, cd, xd,
                                    keep=T._recording_tape(inputs) is not None)

    def make():
        def grad_fn(g):
            g3 = g[None] if squeeze else g
            gd, ga, gb, gc, gx = _scan_backward(g3, dd, ad, bd, cd, xd, hidden, abar)
            if squeeze:
                gd, gb, gc, gx = gd[0], gb[0], gc[0], gx[0]
            return gd, ga, gb, gc, gx

        return grad_fn

    out = y[0] if squeeze else y
    return T._emit("ssm_recurrence", inputs, out, make)


# ---------------------------------------------------------------------------
# parameterized selective scan


@dataclass
class SSMParams:
    """Learnable pieces of one directional scan over C channels, N states."""

    a_log: Tensor  # [C, N]; A = -exp(a_log)
    d_skip: Tensor  # [C]
    w_b: Tensor  # [C, N]
    w_c: Tensor  # [C, N]
    w_delta: Tensor  # [C, R]
    v_delta: Tensor  # [R, C]
    b_delta: Tensor  # [C]

    @property
    def channels(self):
        return self.a_log.shape[0]

    def tensors(self) -> tuple:
        """The seven tensors in field order, the order selective_scan takes them."""
        return (self.a_log, self.d_skip, self.w_b, self.w_c, self.w_delta, self.v_delta,
                self.b_delta)


def delta_rank(channels: int) -> int:
    return max(1, channels // 8)


def init_ssm_params(channels: int, state_size: int, seed: int, name: str = "ssm") -> SSMParams:
    """Stability-minded init: A spans -1..-N per channel, delta starts at 0.01."""
    if channels < 1 or state_size < 1:
        raise ShapeError("channels and state_size must be positive")
    r = delta_rank(channels)
    a_row = np.log(np.linspace(1.0, float(state_size), state_size))
    glorot_bn = np.sqrt(6.0 / (channels + state_size))
    glorot_wd = np.sqrt(6.0 / (channels + r))
    return SSMParams(
        a_log=Tensor(np.tile(a_row, (channels, 1)), requires_grad=True),
        d_skip=Tensor(np.ones(channels), requires_grad=True),
        w_b=T.uniform((channels, state_size), -glorot_bn, glorot_bn,
                      derive(seed, name, "w_b"), requires_grad=True),
        w_c=T.uniform((channels, state_size), -glorot_bn, glorot_bn,
                      derive(seed, name, "w_c"), requires_grad=True),
        w_delta=T.uniform((channels, r), -glorot_wd, glorot_wd,
                          derive(seed, name, "w_delta"), requires_grad=True),
        v_delta=T.uniform((r, channels), -glorot_wd, glorot_wd,
                          derive(seed, name, "v_delta"), requires_grad=True),
        # softplus(b) = 0.01  =>  b = log(expm1(0.01))
        b_delta=T.full((channels,), float(np.log(np.expm1(0.01))), requires_grad=True),
    )


def selective_scan_fwd(x3, a_log, d_skip, w_b, w_c, w_delta, v_delta, b_delta, keep):
    """selective_scan on arrays: x3 [B, L, C] -> (y [B, L, C], saved).

    Runs the delta projection and its softplus, the B and C projections,
    A = -exp(a_log), the recurrence kernel and the skip term D x.  In
    checked mode the delta pre-activation, both projections and exp(a_log)
    must be finite.  `saved` holds what selective_scan_bwd reads (the
    sequence, the rank-R delta projection, the softplus derivative, delta,
    the B/C projections, A, exp(a_log), the kernel's hidden and abar) when
    `keep`, else None, and then the kernel keeps no full-size state.
    """
    bsz, length, ch = x3.shape
    n = w_b.shape[1]
    flat = x3.reshape(bsz * length, ch)
    low = flat @ w_delta
    pre = low @ v_delta + b_delta
    T._check("selective_scan delta pre-activation", pre)
    big = pre > 30.0
    delta = np.where(big, pre, np.log1p(np.exp(np.minimum(pre, 30.0))))
    b_flat, c_flat = flat @ w_b, flat @ w_c
    T._check("selective_scan B projection", b_flat)
    T._check("selective_scan C projection", c_flat)
    with np.errstate(over="ignore"):
        e_a = np.exp(a_log)
    T._check("selective_scan exp(a_log)", e_a)
    a = e_a * -1.0
    delta3 = delta.reshape(x3.shape)
    b3, c3 = b_flat.reshape(bsz, length, n), c_flat.reshape(bsz, length, n)
    y, hidden, abar = _scan_forward(delta3, a, b3, c3, x3, keep=keep)
    out = y + x3 * d_skip
    if not keep:
        return out, None
    deriv = np.where(big, 1.0, T._sigmoid_raw(pre))  # softplus'
    return out, (x3, low, deriv, delta3, a, e_a, b3, c3, hidden, abar,
                 d_skip, w_b, w_c, w_delta, v_delta)


def selective_scan_bwd(saved, g3):
    """Gradients of selective_scan_fwd for y's gradient g3 [B, L, C]: the
    sequence's, then a_log, d_skip, w_b, w_c, w_delta, v_delta, b_delta."""
    (x3, low, deriv, delta3, a, e_a, b3, c3, hidden, abar,
     d_skip, w_b, w_c, w_delta, v_delta) = saved
    ch, n = a.shape
    flat = x3.reshape(-1, ch)
    g_delta, g_a, g_b, g_c, g_x = _scan_backward(g3, delta3, a, b3, c3, x3, hidden, abar)
    g_pre = g_delta.reshape(-1, ch) * deriv
    g_low = g_pre @ v_delta.T
    g_b, g_c = g_b.reshape(-1, n), g_c.reshape(-1, n)
    g_x += g3 * d_skip
    g_x += (g_low @ w_delta.T + g_b @ w_b.T + g_c @ w_c.T).reshape(x3.shape)
    return (g_x, (g_a * -1.0) * e_a, (g3 * x3).sum(axis=(0, 1)),
            flat.T @ g_b, flat.T @ g_c, flat.T @ g_low, low.T @ g_pre, g_pre.sum(axis=0))


def selective_scan(seq: Tensor, p: SSMParams) -> Tensor:
    """Input-conditioned scan over one flattened sequence ([L,C] or [B,L,C]).

    One tape node over (seq, a_log, d_skip, w_b, w_c, w_delta, v_delta,
    b_delta), computed by selective_scan_fwd; the backward chains the
    kernel's five gradients back through the projections, the softplus and
    A (selective_scan_bwd).
    """
    seq = T.as_tensor(seq)
    if seq.ndim not in (2, 3):
        raise ShapeError(f"selective_scan expects [L, C] or [B, L, C], got {seq.shape}")
    x3 = seq.data[None] if seq.ndim == 2 else seq.data
    if x3.shape[-1] != p.channels:
        raise ShapeError(f"sequence has {x3.shape[-1]} channels, params have {p.channels}")
    inputs = (seq,) + p.tensors()
    out, saved = selective_scan_fwd(x3, *(t.data for t in inputs[1:]),
                                    keep=T._recording_tape(inputs) is not None)

    def make():
        def grad_fn(g):
            g_x, *rest = selective_scan_bwd(saved, g[None] if g.ndim == 2 else g)
            return (g_x.reshape(seq.shape), *rest)

        return grad_fn

    return T._emit("selective_scan", inputs, out[0] if seq.ndim == 2 else out, make)


@dataclass
class SS2DParams:
    """Per-direction scan parameters, ordered like DIRECTION_ORDER."""

    directions: list

    @property
    def channels(self):
        return self.directions[0].channels

    def tensors(self) -> tuple:
        """Every direction's tensors, last direction first.

        In this order a set shared by all four directions accumulates its
        gradients as a tape of one node per direction did: col_bwd's first.
        """
        return tuple(t for p in reversed(self.directions) for t in p.tensors())


def init_ss2d_params(channels: int, state_size: int, seed: int,
                     name: str = "ss2d", shared: bool = False) -> SS2DParams:
    """Four independent parameter sets by default; one shared set if asked."""
    if shared:
        p = init_ssm_params(channels, state_size, seed, f"{name}.shared")
        return SS2DParams([p, p, p, p])
    return SS2DParams(
        [init_ssm_params(channels, state_size, seed, f"{name}.{d}") for d in DIRECTION_ORDER]
    )


def ss2d_fwd(grid, directions, keep):
    """ss2d on arrays: grid [B, H, W, C] -> (merged grid, saved).

    `directions` holds one (a_log, d_skip, w_b, w_c, w_delta, v_delta,
    b_delta) array tuple per DIRECTION_ORDER entry.  Chains the traversal
    (`_flatten`), selective_scan_fwd and cross_merge_fwd.  In checked mode
    each direction's scan output and the merged grid must be finite,
    besides selective_scan_fwd's own checks; the traversals only copy
    values already checked.  `saved` is the per-direction scan state.
    """
    _, h, w, _ = grid.shape
    ys, saved = [], []
    for d, arrays in zip(DIRECTION_ORDER, directions):
        y, s = selective_scan_fwd(_flatten(grid, d), *arrays, keep=keep)
        T._check("selective_scan", y)
        ys.append(y)
        saved.append(s)
    merged = cross_merge_fwd(ys, h, w)
    T._check("cross_merge", merged)
    return merged, saved


def ss2d_bwd(saved, g):
    """Gradients of ss2d_fwd for the merged grid's gradient g [B, H, W, C]:
    (the grid's, a list of seven parameter gradients per direction).

    The directions run last to first, so the parameter gradients come in
    SS2DParams.tensors() order, and their grid gradients are summed as
    ((col_bwd + col_fwd) + row_bwd) + row_fwd, the order in which a tape
    accumulates one node per direction.
    """
    _, h, w, _ = g.shape
    g_grid, g_params = None, []
    for d, s in zip(reversed(DIRECTION_ORDER), reversed(saved)):
        g_seq, *g_p = selective_scan_bwd(s, _flatten(g, d))
        g_params.extend(g_p)
        g_view = _unflatten(g_seq, d, h, w)
        if g_grid is None:
            g_grid = np.ascontiguousarray(g_view)
        else:
            g_grid += g_view
    return g_grid, g_params


def ss2d(f: Tensor, params: SS2DParams) -> Tensor:
    """Scan a grid in all four directions and merge back (unnormalized sum).

    One tape node over the grid and `params.tensors()` (see ss2d_fwd).
    """
    f = T.as_tensor(f)
    if f.ndim not in (3, 4):
        raise ShapeError(f"expected [H, W, C] or [B, H, W, C], got {f.shape}")
    if f.shape[-1] != params.channels:
        raise ShapeError(f"grid has {f.shape[-1]} channels, params have {params.channels}")
    inputs = (f,) + params.tensors()
    merged, saved = ss2d_fwd(f.data if f.ndim == 4 else f.data[None],
                             [[t.data for t in p.tensors()] for p in params.directions],
                             keep=T._recording_tape(inputs) is not None)

    def make():
        def grad_fn(g):
            g_grid, g_params = ss2d_bwd(saved, g if g.ndim == 4 else g[None])
            return (g_grid.reshape(f.shape), *g_params)

        return grad_fn

    return T._emit("ss2d", inputs, merged.reshape(f.shape), make)


# ---------------------------------------------------------------------------
# timing harness (linear-complexity evidence)


def bench_lengths(lengths, channels: int = 16, state_size: int = 8,
                  runs: int = 5, seed: int = 0) -> dict:
    """Per-length median scan times, measured round-robin across lengths.

    Interleaving the lengths spreads any scheduler or frequency burst over
    at most one sample per length instead of a whole length's window, so
    the medians stay meaningful on busy machines.  Returns {length: median
    seconds} in input order; `runs` below 1 is a ValueError.
    """
    runs = int(runs)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    setups = []
    for n in lengths:
        p = init_ssm_params(channels, state_size, seed, "bench")
        x = Tensor(uniform_array((n, channels), -1.0, 1.0,
                                 derive(seed, "bench-x", n)))
        selective_scan(x, p)  # warm-up + allocator touch
        setups.append((n, p, x))
    times = {n: [] for n in lengths}
    for _ in range(runs):
        for n, p, x in setups:
            t0 = time.perf_counter()
            selective_scan(x, p)
            times[n].append(time.perf_counter() - t0)
    return {n: float(np.median(ts)) for n, ts in times.items()}


def fit_loglog_slope(lengths, seconds) -> float:
    """Least-squares slope of log(time) against log(length)."""
    lx = np.log(np.asarray(lengths, dtype=np.float64))
    ly = np.log(np.asarray(seconds, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])
