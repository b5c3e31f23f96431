"""Directional sequence scanning and the selective state-space recurrence.

A feature grid [H, W, C] is flattened into four 1-D traversals (row-major
forward/backward, column-major forward/backward), each traversal runs an
input-dependent linear state-space recurrence left to right, and the four
outputs are scattered back to the grid and summed.  The recurrence is the
O(L) sequential form (no parallel prefix tricks here).

The scan has one grouped layout and one parameterization.  Its kernels
take G groups of B rows: the batch axis holds G consecutive groups, and
group g uses a[g] of a [G, C, N] state matrix.  `selective_scan_fwd`/`_bwd`
take the sequence as [G, B, L, C] and every parameter stacked as [G, ...],
and run each projection as one batched matmul.  `SSMParams` stores each
scan parameter stacked on the direction axis, [4, ...] in DIRECTION_ORDER,
so the kernels read it as stored; a shared set is [1, ...], broadcast to
four groups and its gradient summed as ((col_bwd + col_fwd) + row_bwd) +
row_fwd.  `ss2d` writes its four traversals into one [4, B, L, C] array
and makes one kernel call with G=4, forward and backward.  At B=1 and
narrow C the cost is per-call overhead, so one call over 4B rows beats
four calls over B.

The state arrays are time-major, [L, G*B, N, C], and both sweeps update
them in place one contiguous step at a time: the cost is memory traffic
through these arrays, not FLOPs.  So both kernels walk time in chunks of
K = max(1, min(L, _CHUNK_BYTES // (G B N C itemsize))) steps, 256 KiB of
state per chunk buffer in either dtype, and finish each chunk's work while
it is in L2; every buffer is allocated in the inputs' dtype.  The kernels
read their per-step inputs (delta, B, C, and backward also x and the output
gradient) as contiguous time-major arrays, copying any input not laid out
so: with G*B rows, one step's rows sit a whole sequence apart in a
batch-major array.  `selective_scan_fwd` keeps delta, B and C time-major
and `ss2d_bwd` lays the gradient's traversals out time-major, so only x is
copied.  Outputs are written batch-major through time-major views.  When a
tape records the call, the forward keeps the hidden states and the
backward rebuilds the rest, in cache and bit for bit (Mamba's
recomputation, Gu & Dao 2023, as gradient checkpointing per chunk).  The
decay factors abar = exp(delta A) cost three passes to rebuild and as many
bytes as the hidden states to keep, so a chunked call never keeps them:
the backward rebuilds each chunk's abar in one K-row buffer.  The hidden
states are kept whole below _CHECKPOINT_BYTES (4 MiB), where they stay in
cache and are cheaper to store than to rebuild; from that size on only
each chunk's last hidden state is kept, and the backward rebuilds each
chunk's hidden states from the checkpoint before it.  A call that fits one
chunk keeps its abar, at most one chunk buffer, rather than rebuild it.
When nothing records (predict, eval, the finite-difference oracle) the
forward reuses one K-row buffer per array and keeps no state.

The scan is plain numpy with hand-derived backwards.  `_traversals` (a
grid's four traversals) and `cross_merge_fwd` (their sum back on the grid)
are each the other's backward, and read each direction's layout from one
constant, `_DIRECTION_FLAGS`; the layer norms around the scan in a gated
block take their statistics as matmuls and the conv's tap windows are built
once per shape (see `blocks`); `_scan_forward`/`_scan_backward` are the
recurrence kernel.  Two pairs, `*_fwd(..., keep) -> (out, saved)` and
`*_bwd(saved, ...)`, build on them: `selective_scan_fwd`/`_bwd` for G
sequences at once (projections, softplus, A = -exp(A_log), recurrence and
skip; `saved` keeps the rank-R delta projection, the softplus derivative,
delta, the B/C projections, A, exp(A_log) and the kernel's state, and the
caller passes the sequences back), and `ss2d_fwd`/`_bwd`, which chain the
traversals, one grouped call and the merge, and keep the grid, not its
four traversals, rebuilding them for the backward pass.  `tensor.primitive`
records `ss2d` as one node; `blocks.gated_block` chains the same pairs.

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


# (column-major, reversed) of each direction, in DIRECTION_ORDER
_DIRECTION_FLAGS = ((False, False), (False, True), (True, False), (True, True))


def _unflatten(seq: np.ndarray, col: bool, rev: bool, h: int, w: int) -> np.ndarray:
    """A [B, H*W, C] traversal as a [B, H, W, C] view in grid layout; `col`
    and `rev` are its direction's flags (_DIRECTION_FLAGS).

    Reversing a row-major flattening is the same as reversing both spatial
    axes before it; column-major is row-major of the transposed grid.
    Assigning a grid to this view writes the traversal into `seq`.
    """
    b, _, c = seq.shape
    grid = seq.reshape((b, w, h, c) if col else (b, h, w, c))
    if rev:
        grid = grid[:, ::-1, ::-1]
    return grid.transpose(0, 2, 1, 3) if col else grid


def _grids(seqs, h: int, w: int) -> list:
    """Four [B, H*W, C] traversals, in DIRECTION_ORDER, as grid-layout views."""
    return [_unflatten(s, col, rev, h, w) for s, (col, rev) in zip(seqs, _DIRECTION_FLAGS)]


def _traversals(grid: np.ndarray, out=None) -> np.ndarray:
    """The four traversals of a [B, H, W, C] array, in DIRECTION_ORDER, as
    one [4, B, H*W, C] array: written into `out` when given, which may be a
    strided view, else into a fresh array."""
    b, h, w, c = grid.shape
    if out is None:
        out = np.empty((len(DIRECTION_ORDER), b, h * w, c), dtype=grid.dtype)
    for view in _grids(out, h, w):
        view[...] = grid
    return out


def cross_merge_fwd(seqs, h: int, w: int) -> np.ndarray:
    """Four [B, H*W, C] traversals, in DIRECTION_ORDER, back on one summed grid.

    Summation is pairwise, (row_fwd + row_bwd) + (col_fwd + col_bwd), so that
    merging four identical grids is exact doubling twice (bit-exact 4x).
    The backward needs no saved state: it is `_traversals` of the grid
    gradient.
    """
    rf, rb, cf, cb = _grids(seqs, h, w)
    merged = rf + rb  # C-ordered; the column pair is added into it in place
    merged += cf + cb
    return merged


# ---------------------------------------------------------------------------
# recurrence kernel (forward + hand-derived backward)


def _time_major(v):
    """Swap the batch and time axes of a [B, L, K] array (a view; self-inverse)."""
    return v.transpose(1, 0, 2)


def _per_row(a, rows):
    """A as [rows, N, C], laid out like one step of the state: the rows are
    G consecutive groups, for a of [G, C, N] (or [C, N], one group)."""
    a3 = a.reshape((-1,) + a.shape[-2:])
    return a3.transpose(0, 2, 1).repeat(rows // len(a3), axis=0)


# Bytes of one [K, G*B, N, C] chunk buffer: 256 KiB (2^15 float64 or 2^16
# float32 elements), small enough that a chunk's abar, hidden (or dh) and
# temporaries stay in L2.
_CHUNK_BYTES = 256 << 10
# Bytes of a chunked recorded call's [L, G*B, N, C] state from which it keeps
# one hidden row per chunk, not hidden whole: 4 MiB, 16 chunk buffers.  A
# smaller state stays in cache and is cheaper to store than to rebuild; past
# it the full-size writes cost more.
_CHECKPOINT_BYTES = 4 << 20


def _chunk_len(length, rows, n, ch, itemsize):
    """Time steps per chunk for elements of `itemsize` bytes:
    K = max(1, min(L, _CHUNK_BYTES // (G B N C itemsize)))."""
    return max(1, min(length, _CHUNK_BYTES // (rows * n * ch * itemsize)))


def _decay_chunk(delta_c, a_t, ab=None):
    """abar = exp(delta a) of one time-major chunk, in place in ab when given,
    else in a new C-ordered array.  a_t is A per row (`_per_row`).  delta a
    is a broadcast copy of delta, then an in-place product with a_t over
    whole rows: the same products as one broadcast product, whose inner
    loop is only C long, and faster."""
    if ab is None:
        ab = np.empty((len(delta_c),) + a_t.shape, dtype=delta_c.dtype)
    np.copyto(ab, delta_c[:, :, None, :])
    np.multiply(ab, a_t, out=ab)
    np.exp(ab, out=ab)
    return ab


def _state_chunk(delta_c, dx_c, b_c, a_t, tmp, h_prev, ab=None, hd=None):
    """abar and hidden of one time-major chunk, built while it is in cache.

    abar by `_decay_chunk`, du = delta x B straight into the hidden rows,
    then the in-place sweep from h_prev (None at t = 0).  Writes into ab and
    hd when given, else into new C-ordered arrays, so that every step's
    [G*B, N, C] block is contiguous.  The forward builds each chunk's state
    here, and a checkpointed backward rebuilds it here, bit for bit.
    Returns (abar, hidden) of the chunk.
    """
    ab = _decay_chunk(delta_c, a_t, ab)
    if h_prev is not None:  # read before hd is written: it may be hd's last row
        np.multiply(ab[0], h_prev, out=tmp)
    hd = np.einsum("lbc,lbn->lbnc", dx_c, b_c, out=hd, order="C")
    if h_prev is not None:
        hd[0] += tmp
    h_prev = hd[0]
    mul, add = np.multiply, np.add  # outputs passed by position: a keyword costs per step
    for ab_t, h in zip(ab[1:], hd[1:]):
        mul(ab_t, h_prev, tmp)
        add(h, tmp, h)
        h_prev = h
    return ab, hd


def _scan_forward(delta, a, b_seq, c_seq, x, keep=True):
    """Raw numpy recurrence over G groups of B rows.

    Inputs batch-major: delta/x [G*B, L, C], b/c [G*B, L, N]; a is [G, C, N]
    (or [C, N] for one group), and rows g*B .. (g+1)*B - 1 use a[g].
    Returns (y [G*B,L,C], state).  The state is what `_scan_backward`
    reads: None without `keep`; with it (hidden, abar) for a call that fits
    one chunk, both whole [L,G*B,N,C]; (hidden, None) for a chunked call,
    hidden whole below _CHECKPOINT_BYTES of state, else hidden at each
    chunk's last step as [n_chunks, G*B, N, C] (the checkpoints).  A chunked
    call keeps no abar: the backward rebuilds it per chunk.  The state
    arrays are time-major, so each sweep step reads and writes one
    contiguous [G*B, N, C] block, and delta, B and C are read time-major
    (copied unless laid out so).  Time is walked in chunks of K steps
    (`_chunk_len` over all G*B rows), each built by `_state_chunk` and read
    by C h while it is in cache, with h carried from the previous chunk's
    last step.  abar is always built in one K-row buffer; hidden is too,
    unless it is kept whole, when the chunks are slices of it.  A call that
    fits one chunk runs it on the whole arrays and lets each op allocate, so
    it pays no chunking overhead; its abar is at most one chunk buffer, so
    it is kept rather than rebuilt.  einsum builds the outer products
    because broadcasting runs an inner loop only C long.

    The pass budget.  Once per call: the time-major copies of delta, B and
    C (none from `selective_scan_fwd`, which lays them out so) and
    dx = delta x, one pass over [L, G*B, C].  Per chunk, over [K, G*B, N, C]
    state (1-5 in `_state_chunk`):
      1. abar = delta, broadcast reads delta                writes abar
      2. abar *= a, in place     reads A per row            updates abar
      3. exp(abar), in place     reads and writes abar
      4. du = einsum(dx, B)      reads dx, B                writes hidden
      5. the sweep, per step:    h_t += abar_t h_{t-1}      reads abar,
         through one [G*B, N, C] temporary                  updates hidden
      6. y = C h (matmul)        reads C, hidden            writes y
    So five passes write the state and one more reads it; with checkpoints
    each chunk also copies its last hidden row.
    """
    rows, length, ch = delta.shape
    n, dt = a.shape[-1], delta.dtype
    k = _chunk_len(length, rows, n, ch, dt.itemsize)
    delta_t, b_t, c_t = [np.ascontiguousarray(_time_major(v)) for v in (delta, b_seq, c_seq)]
    a_t = _per_row(a, rows)
    dx = delta_t * _time_major(x)
    tmp = np.empty((rows, n, ch), dtype=dt)
    y = np.empty((rows, length, ch), dtype=dt)
    y_t = _time_major(y)[:, :, None]  # written time-major, returned batch-major
    if k == length:
        abar, hidden = _state_chunk(delta_t, dx, b_t, a_t, tmp, None)
        np.matmul(c_t[:, :, None, :], hidden, out=y_t)
        return y, (hidden, abar) if keep else None
    whole = keep and length * rows * n * ch * dt.itemsize < _CHECKPOINT_BYTES
    abar = np.empty((k, rows, n, ch), dtype=dt)
    hidden = np.empty((length if whole else k, rows, n, ch), dtype=dt)
    ckpt = np.empty((-(-length // k), rows, n, ch), dtype=dt) if keep and not whole else None
    h_prev = None
    for i, s in enumerate(range(0, length, k)):
        e = s + k
        hd = hidden[s:e] if whole else hidden[:length - s]
        _state_chunk(delta_t[s:e], dx[s:e], b_t[s:e], a_t, tmp, h_prev, abar[:length - s], hd)
        np.matmul(c_t[s:e, :, None, :], hd, out=y_t[s:e])
        h_prev = hd[-1]
        if ckpt is not None:
            ckpt[i] = h_prev
    if not keep:
        return y, None
    return y, (hidden if whole else ckpt, None)


def _scan_backward(g, delta, a, b_seq, c_seq, x, state):
    """Reverse sweep for the recurrence above, from the forward's `state`;
    returns batch-major gradients, the A gradient shaped like `a`.

    With dh_t the gradient reaching h_t, the recurrence h_t = abar_t h_{t-1}
    + du_t gives dh_t = g_t * C_t + abar_{t+1} * dh_{t+1}, accumulated right
    to left; every parameter gradient then factors through dh.  The chunks
    of the forward are walked in reverse through one K-row dh buffer: g (x) C
    is built in it and swept in place, and abar_s * dh_s carries into the
    chunk before.  Once the gradients into du (delta x and B) are contracted
    out of a chunk, its rows become the gradient into delta * a,
    dh_t * h_{t-1} * abar_t (h_{-1} = 0, so step 0 contributes nothing).
    That gradient meets A per row, laid out like the state (`_per_row`):
    into delta, and into a per-row running A gradient that is summed over
    each group's B rows at the end.  The inputs are read time-major (copied
    unless laid out so), the gradients written batch-major.  Every state
    form is read chunk by chunk, and what the forward did not keep is
    rebuilt with the forward's own ops in the forward's order, so bit for
    bit.  A one-chunk state (hidden, abar) is read as kept.  A whole hidden
    with abar None has each chunk's abar rebuilt by `_decay_chunk` into one
    K-row buffer, and hidden read in slices.  Checkpoints (fewer rows than
    L) have each chunk's abar and hidden rebuilt by `_state_chunk` into that
    buffer and a (K+1)-row hidden buffer whose row 0 is the previous chunk's
    checkpoint, h_{s-1}.  (With K = 1 the checkpoints are every hidden row,
    and are read as a whole hidden.)

    The pass budget per chunk, over [K, G*B, N, C] state.  A chunked call
    first rebuilds the chunk into the buffers: a whole hidden runs R1-R3,
    checkpoints run R1-R5 (the forward's passes 1-5, `_state_chunk`) after
    copying the checkpoint into row 0; a one-chunk state runs none:
      R1. abar = delta, broadcast     reads delta                 writes abar
      R2. abar *= a, in place         reads A per row             updates abar
      R3. exp(abar), in place         reads and writes abar
      R4. du = einsum(delta x, B)     reads delta x, B            writes hidden
      R5. the sweep, per step         reads abar                  updates hidden
    Then, for every state form:
      1. g_C = h g (matmul)           reads hidden, g             writes g_c
      2. dh = einsum(g, C)            reads g, C                  writes dh
      3. the sweep, per step:         dh_t += abar_{t+1} dh_{t+1} reads abar,
         through one temporary, then the carry abar_s dh_s    updates dh
      4. g_dx = B dh (matmul)         reads B, dh                 writes g_dx
      5. g_B = dh (delta x) (matmul)  reads dh, delta x           writes g_b
      6. dh *= h_{t-1}, in place      reads hidden                updates dh
      7. dh *= abar_t, in place       reads abar                  updates dh
      8. einsum(dh, A) into g_delta   reads dh                    [K, G*B, C]
      9. einsum(dh, delta) into g_A   reads dh                    [G*B, N, C]
    plus [K, G*B, C] passes for delta x and the delta and x gradients.
    Writing abar_t dh_t of step 3 to a K-row buffer, so that 6 and 7
    become one multiply, measured slower: the sweep's temporary stops
    living in L1.
    """
    g_t, delta_t, x_t, b_t, c_t = [np.ascontiguousarray(_time_major(v))
                                   for v in (g, delta, x, b_seq, c_seq)]
    length, rows, ch = g_t.shape
    n, dt = a.shape[-1], delta_t.dtype
    a_t = _per_row(a, rows)
    k = _chunk_len(length, rows, n, ch, dt.itemsize)
    dh = np.empty((k, rows, n, ch), dtype=dt)
    tmp = np.empty((rows, n, ch), dtype=dt)
    carry = np.empty((rows, n, ch), dtype=dt)
    dx = np.empty((k, rows, ch, 1), dtype=dt)  # delta * x of the chunk
    g_dx = np.empty((k, rows, 1, ch), dtype=dt)  # into delta * x
    g_delta, g_x = np.empty((rows, length, ch), dtype=dt), np.empty((rows, length, ch), dtype=dt)
    g_b, g_c = np.empty((rows, length, n), dtype=dt), np.empty((rows, length, n), dtype=dt)
    # written time-major, returned batch-major
    gd_t, gx_t = _time_major(g_delta), _time_major(g_x)
    gb_t, gc_t = _time_major(g_b)[..., None], _time_major(g_c)[..., None]
    g_a_rows = np.zeros((rows, n, ch), dtype=dt)
    hidden, abar = state
    rebuild = len(hidden) < length  # hidden holds the checkpoints
    if abar is None:  # each chunk's state is rebuilt in these
        ab_buf = np.empty((k, rows, n, ch), dtype=dt)
    if rebuild:
        h_buf = np.empty((k + 1, rows, n, ch), dtype=dt)
    mul, add = np.multiply, np.add  # as in _state_chunk's sweep
    for s in reversed(range(0, length, k)):
        e = min(s + k, length)
        lo = max(s, 1)  # first step with a previous state
        d, g_s = dh[:e - s], g_t[s:e]
        dx_s, g_dx_s = dx[:e - s], g_dx[:e - s]
        np.multiply(delta_t[s:e], x_t[s:e], out=dx_s[..., 0])
        if rebuild:
            h_buf[0] = hidden[s // k - 1]  # h_{s-1}, unread at s = 0
            ab, hid = _state_chunk(delta_t[s:e], dx_s[..., 0], b_t[s:e], a_t, tmp,
                                   h_buf[0] if s else None, ab_buf[:e - s], h_buf[1:e - s + 1])
            prev = h_buf[lo - s:e - s]
        else:
            ab = abar[s:e] if abar is not None else _decay_chunk(delta_t[s:e], a_t, ab_buf[:e - s])
            hid, prev = hidden[s:e], hidden[lo - 1:e - 1]
        np.matmul(hid, g_s[..., None], out=gc_t[s:e])
        np.einsum("lbc,lbn->lbnc", g_s, c_t[s:e], out=d)
        if e < length:
            d[-1] += carry
        dh_next = d[-1]
        for ab_next, dh_cur in zip(ab[:0:-1], d[-2::-1]):
            mul(ab_next, dh_next, tmp)
            add(dh_cur, tmp, dh_cur)
            dh_next = dh_cur
        if s:
            np.multiply(ab[0], d[0], out=carry)
        np.matmul(b_t[s:e, :, None, :], d, out=g_dx_s)
        np.matmul(d, dx_s, out=gb_t[s:e])
        np.multiply(g_dx_s[:, :, 0], x_t[s:e], out=gd_t[s:e])
        np.multiply(g_dx_s[:, :, 0], delta_t[s:e], out=gx_t[s:e])
        if lo < e:
            g_da = d[lo - s:]
            g_da *= prev
            g_da *= ab[lo - s:]
            gd_t[lo:e] += np.einsum("lbnc,bnc->lbc", g_da, a_t)
            g_a_rows += np.einsum("lbnc,lbc->bnc", g_da, delta_t[lo:e])
    g_a = g_a_rows.reshape(a.size // (n * ch), -1, n, ch).sum(axis=1)
    return g_delta, g_a.transpose(0, 2, 1).reshape(a.shape), g_b, g_c, g_x


# ---------------------------------------------------------------------------
# parameterized selective scan


@dataclass
class SSMParams:
    """Learnable scan parameters over C channels and N states, each field
    stacked on a leading group axis: [4, ...] in DIRECTION_ORDER, or [1, ...]
    for one set that all four directions share."""

    a_log: Tensor  # [G, C, N]; A = -exp(a_log)
    d_skip: Tensor  # [G, C]
    w_b: Tensor  # [G, C, N]
    w_c: Tensor  # [G, C, N]
    w_delta: Tensor  # [G, C, R]
    v_delta: Tensor  # [G, R, C]
    b_delta: Tensor  # [G, C]

    @property
    def channels(self):
        return self.a_log.shape[-2]

    def tensors(self) -> tuple:
        """The seven tensors in field order, the order the scans take them."""
        return (self.a_log, self.d_skip, self.w_b, self.w_c, self.w_delta, self.v_delta,
                self.b_delta)


def delta_rank(channels: int) -> int:
    return max(1, channels // 8)


def init_ss2d_params(channels: int, state_size: int, seed: int,
                     name: str = "ss2d", shared: bool = False) -> SSMParams:
    """Stability-minded init of four independent sets by default, one shared
    set if asked: A spans -1..-N per channel, delta starts at 0.01, and
    slice k of each random field is the stream derive(seed, label, field) of
    the k-th label, `{name}.{d}` for d in DIRECTION_ORDER (`{name}.shared`)."""
    if channels < 1 or state_size < 1:
        raise ShapeError("channels and state_size must be positive")
    labels = [f"{name}.{t}" for t in (("shared",) if shared else DIRECTION_ORDER)]
    k, r = len(labels), delta_rank(channels)
    a_row = np.log(np.linspace(1.0, float(state_size), state_size))
    glorot_bn = np.sqrt(6.0 / (channels + state_size))
    glorot_wd = np.sqrt(6.0 / (channels + r))

    def draw(field, shape, a):  # one pass over every label's stream
        return Tensor(T.init_uniforms(shape, a, seed, labels, field), requires_grad=True)

    return SSMParams(
        a_log=Tensor(np.tile(a_row, (k, channels, 1)), requires_grad=True),
        d_skip=Tensor(np.ones((k, channels), dtype=np.float64), requires_grad=True),
        w_b=draw("w_b", (channels, state_size), glorot_bn),
        w_c=draw("w_c", (channels, state_size), glorot_bn),
        w_delta=draw("w_delta", (channels, r), glorot_wd),
        v_delta=draw("v_delta", (r, channels), glorot_wd),
        # softplus(b) = 0.01  =>  b = log(expm1(0.01))
        b_delta=Tensor(np.full((k, channels), np.log(np.expm1(0.01)), dtype=np.float64),
                       requires_grad=True),
    )


def selective_scan_fwd(x4, a_log, d_skip, w_b, w_c, w_delta, v_delta, b_delta, keep):
    """The parameterized selective scan on arrays for G sequences at once:
    x4 [G, B, L, C] -> (y [G, B, L, C], saved).

    Each parameter is stacked over the groups, [G, ...] (a_log [G, C, N],
    d_skip [G, C], ...), and group g scans with its own set.  Runs the delta
    projection and its softplus, the B and C projections (each one batched
    matmul over the groups), A = -exp(a_log), one recurrence kernel call over
    all G*B rows and the skip term D x.  With per-op checks on the delta
    pre-activation, both projections and exp(a_log) must be finite; in the
    model's forward they are off, and a boundary's checked replay raises
    their named errors (`tensor.checked_at_boundary`).  `saved` holds what
    selective_scan_bwd reads besides x4, which its caller passes back (the
    rank-R delta projection, the softplus derivative, delta, the B/C
    projections, A, exp(a_log), the kernel's state) when `keep`, else None,
    and then the kernel keeps no state.

    The softplus derivative comes from the softplus's own exponential:
    e = exp(min(pre, 30)), then sigmoid(pre) = e / (1 + e) before log1p
    overwrites e, and 1.0 where pre > 30.  For pre <= 0 that is the value
    `tensor._sigmoid_raw` gives, bit for bit, and within 2 ulp above; only
    gradients read it.
    """
    groups, bsz, length, ch = x4.shape
    n = w_b.shape[2]
    flat = x4.reshape(groups, bsz * length, ch)
    low = flat @ w_delta
    pre = low @ v_delta + b_delta[:, None]
    T._check("selective_scan delta pre-activation", pre)
    big = pre > 30.0
    delta = np.minimum(pre, 30.0)  # softplus, in place
    np.exp(delta, out=delta)
    deriv = None
    if keep:  # softplus' = e / (1 + e) from the same e = exp(min(pre, 30))
        deriv = delta + 1.0
        np.divide(delta, deriv, out=deriv)
        np.copyto(deriv, 1.0, where=big)
    np.log1p(delta, out=delta)
    np.copyto(delta, pre, where=big)
    del pre, big
    b_flat, c_flat = flat @ w_b, flat @ w_c
    T._check("selective_scan B projection", b_flat)
    T._check("selective_scan C projection", c_flat)
    with np.errstate(over="ignore"):
        e_a = np.exp(a_log)
    T._check("selective_scan exp(a_log)", e_a)
    a = e_a * -1.0
    # laid out time-major ([L, G*B, .], passed as batch-major views) once,
    # for both kernels, which read them so
    rows = (groups * bsz, length)
    delta3, b3, c3 = [_time_major(np.ascontiguousarray(_time_major(v.reshape(rows + (-1,)))))
                      for v in (delta, b_flat, c_flat)]
    del delta, b_flat, c_flat
    y, state = _scan_forward(delta3, a, b3, c3, x4.reshape(rows + (ch,)), keep=keep)
    out = y.reshape(x4.shape)
    out += x4 * d_skip[:, None, None]
    if not keep:
        return out, None
    return out, (low, deriv, delta3, a, e_a, b3, c3, state, d_skip, w_b, w_c, w_delta, v_delta)


def selective_scan_bwd(saved, x4, g4):
    """Gradients of selective_scan_fwd on the sequences x4 for y's gradient
    g4, both [G, B, L, C]: the sequences', then a_log, d_skip, w_b, w_c,
    w_delta, v_delta, b_delta, each stacked over the groups like its
    parameter."""
    low, deriv, delta3, a, e_a, b3, c3, state, d_skip, w_b, w_c, w_delta, v_delta = saved
    groups, ch, n = a.shape
    g_pre, g_a, g_b, g_c, g_x = _scan_backward(g4.reshape(delta3.shape), delta3, a, b3, c3,
                                               x4.reshape(delta3.shape), state)
    flat_t = x4.reshape(groups, -1, ch).transpose(0, 2, 1)
    g_pre = g_pre.reshape(groups, -1, ch)
    g_pre *= deriv  # delta's gradient becomes the pre-activation's in place
    g_low = g_pre @ v_delta.transpose(0, 2, 1)
    g_b, g_c = g_b.reshape(groups, -1, n), g_c.reshape(groups, -1, n)
    # the skip and the three projections' terms are added into the kernel's
    # g_x through one full-size buffer
    tmp = np.multiply(g4, d_skip[:, None, None], order="C")
    g_x3, tmp3 = g_x.reshape(groups, -1, ch), tmp.reshape(groups, -1, ch)
    g_x3 += tmp3
    for g_p, w_p in ((g_low, w_delta), (g_b, w_b), (g_c, w_c)):
        g_x3 += np.matmul(g_p, w_p.transpose(0, 2, 1), out=tmp3)
    g_d = T._sum_rows(np.multiply(g4, x4, out=tmp).reshape(g_pre.shape))
    return (g_x.reshape(g4.shape), (g_a * -1.0) * e_a, g_d, flat_t @ g_b, flat_t @ g_c,
            flat_t @ g_low, low.transpose(0, 2, 1) @ g_pre, T._sum_rows(g_pre))


def ss2d_fwd(grid, params, keep):
    """ss2d on arrays: grid [B, H, W, C] -> (merged grid, saved).

    The four traversals go into one [4, B, H*W, C] array (`_traversals`)
    that selective_scan_fwd scans as four groups with `params`, the arrays
    of SSMParams.tensors() ([1, ...] ones broadcast to four), so the whole
    ss2d is one kernel call; cross_merge_fwd sums them back.  With per-op
    checks on the scan output and the merged grid must be finite, besides
    selective_scan_fwd's own checks; the traversals only copy values
    already checked.  In the model's forward these names surface through a
    boundary's checked replay (`tensor.checked_at_boundary`).  `saved` is
    the grouped scan's, the grid and the set count: the grid, not its four
    traversals, a quarter of their bytes, which ss2d_bwd rebuilds.
    """
    _, h, w, _ = grid.shape
    k, sets = len(DIRECTION_ORDER), len(params[0])
    if sets == 1:
        params = [np.broadcast_to(p, (k,) + p.shape[1:]) for p in params]
    elif sets != k:
        raise ShapeError(f"scan parameters stack {sets} sets, need 1 or {k}")
    y, saved = selective_scan_fwd(_traversals(grid), *params, keep=keep)
    T._check("selective_scan", y)
    merged = cross_merge_fwd(y, h, w)
    T._check("cross_merge", merged)
    return merged, (saved, grid, sets)


def ss2d_bwd(saved, g):
    """Gradients of ss2d_fwd for the merged grid's gradient g [B, H, W, C]:
    (the grid's, the seven parameter gradients stacked like the parameters).

    The grid's traversals are rebuilt, the forward's own copies, and they
    and the grid gradient's run back through one grouped
    selective_scan_bwd.  The four grid gradients are summed as
    ((col_bwd + col_fwd) + row_bwd) + row_fwd, and a shared set's four
    parameter gradients in the same order, keeping its [1, ...] shape.
    """
    saved, grid, sets = saved
    b, h, w, c = g.shape
    # the gradient's traversals are laid out time-major, as the kernel reads
    # them; the grid's batch-major, as the projections' gradients read them
    seqs = np.empty((h * w, len(DIRECTION_ORDER), b, c), dtype=g.dtype).transpose(1, 2, 0, 3)
    g_seq, *g_params = selective_scan_bwd(saved, _traversals(grid), _traversals(g, seqs))
    rf, rb, cf, cb = _grids(g_seq, h, w)
    g_grid = np.add(cb, cf, order="C")
    g_grid += rb
    g_grid += rf
    if sets == 1:
        g_params = [((g_p[3:] + g_p[2:3]) + g_p[1:2]) + g_p[:1] for g_p in g_params]
    return g_grid, g_params


def ss2d(f: Tensor, params: SSMParams) -> Tensor:
    """Scan a grid in all four directions and merge back (unnormalized sum).

    One tape node over the grid and `params.tensors()` (see ss2d_fwd).
    """
    f = T.as_tensor(f)
    if f.ndim not in (3, 4):
        raise ShapeError(f"expected [H, W, C] or [B, H, W, C], got {f.shape}")
    if f.shape[-1] != params.channels:
        raise ShapeError(f"grid has {f.shape[-1]} channels, params have {params.channels}")
    def fwd(grid, *params, keep):
        merged, saved = ss2d_fwd(grid if grid.ndim == 4 else grid[None], params, keep=keep)
        return merged.reshape(f.shape), saved

    def bwd(saved, g):
        g_grid, g_params = ss2d_bwd(saved, g if g.ndim == 4 else g[None])
        return (g_grid.reshape(f.shape), *g_params)

    return T.primitive("ss2d", (f,) + params.tensors(), fwd, bwd)


# ---------------------------------------------------------------------------
# timing harness (linear-complexity evidence)


def bench_lengths(lengths, channels: int = 16, state_size: int = 8,
                  runs: int = 5, seed: int = 0) -> dict:
    """Per-length minimum scan times, measured round-robin across lengths.

    Each run is one untaped G=1 kernel call, `selective_scan_fwd` on a
    [1, 1, L, C] sequence with one [1, ...] parameter set.  Interleaving the
    lengths spreads any scheduler or frequency burst over at most one sample
    per length instead of a whole length's window, and the minimum keeps only
    each length's least disturbed run: other processes only ever add time.
    Returns {length: minimum seconds} in input order; `runs` < 1 is a ValueError.
    """
    runs = int(runs)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    params = [t.data for t in init_ss2d_params(channels, state_size, seed, "bench",
                                                shared=True).tensors()]
    setups = []
    for n in lengths:
        x4 = uniform_array((1, 1, n, channels), -1.0, 1.0, derive(seed, "bench-x", n))
        selective_scan_fwd(x4, *params, keep=False)  # warm-up + allocator touch
        setups.append((n, x4))
    times = {n: [] for n in lengths}
    for _ in range(runs):
        for n, x4 in setups:
            t0 = time.perf_counter()
            selective_scan_fwd(x4, *params, keep=False)
            times[n].append(time.perf_counter() - t0)
    return {n: min(ts) for n, ts in times.items()}


def fit_loglog_slope(lengths, seconds) -> float:
    """Least-squares slope of log(time) against log(length)."""
    lx = np.log(np.asarray(lengths, dtype=np.float64))
    ly = np.log(np.asarray(seconds, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])
