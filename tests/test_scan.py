import dataclasses

import numpy as np
import pytest

import sumnet.tensor as T
from sumnet import scan
from sumnet.scan import (
    DIRECTION_ORDER,
    SSMParams,
    bench_lengths,
    cross_merge_fwd,
    delta_rank,
    init_ss2d_params,
    selective_scan_bwd,
    selective_scan_fwd,
    ss2d,
    _scan_backward,
    _scan_forward,
    _traversals,
)
from sumnet.blocks import gated_block, init_vss
from sumnet.rng import derive, uniform_array
from sumnet.tensor import NumericError, ShapeError, Tensor, check_gradient

import oracles as ops
from oracles import ssm_recurrence

TOL = 1e-4


def rnd(shape, seed, lo=-1.0, hi=1.0):
    return T.uniform(shape, lo, hi, seed)


# ---------------------------------------------------------------------------
# directional flattening: the numpy pair _traversals / cross_merge_fwd


def test_cross_scan_2x2_enumeration():
    # [[a, b], [c, d]] with scalar channels
    grid = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
    row_fwd, row_bwd, col_fwd, col_bwd = (seq[0, :, 0] for seq in _traversals(grid))
    assert np.array_equal(row_fwd, [1, 2, 3, 4])
    assert np.array_equal(row_bwd, [4, 3, 2, 1])
    assert np.array_equal(col_fwd, [1, 3, 2, 4])
    assert np.array_equal(col_bwd, [4, 2, 3, 1])


def test_cross_scan_copies_not_views():
    grid = np.zeros((1, 2, 2, 1))
    seqs = _traversals(grid)
    grid[0, 0, 0, 0] = 99.0
    assert seqs[0, 0, 0, 0] == 0.0
    # a single row or column is already contiguous in every order
    for shape in ((1, 1, 1, 2), (1, 1, 3, 2), (1, 3, 1, 2), (2, 1, 4, 3)):
        grid = rnd(shape, 3).data
        assert not np.shares_memory(_traversals(grid), grid), shape


def test_roundtrip_is_4x_identity_bit_exact():
    # every shape up to 8x8x4, awkward values included
    for h in range(1, 9):
        for w in range(1, 9):
            for c in (1, 3, 4):
                f = T.uniform((1, h, w, c), -3.0, 3.0, seed=h * 100 + w * 10 + c).data
                f[0, 0, 0, 0] = 0.1  # classic non-dyadic value
                merged = cross_merge_fwd(_traversals(f), h, w)
                assert np.array_equal(merged, 4.0 * f), (h, w, c)


def test_roundtrip_batched():
    f = rnd((3, 5, 4, 2), 77).data
    assert np.array_equal(cross_merge_fwd(_traversals(f), 5, 4), 4.0 * f)


def test_merge_with_one_direction_zeroed_is_3x():
    f = rnd((1, 4, 6, 3), 13).data
    seqs = _traversals(f)
    seqs[DIRECTION_ORDER.index("col_bwd")] = 0.0
    assert np.array_equal(cross_merge_fwd(seqs, 4, 6), 3.0 * f)


def test_ss2d_rejects_bad_rank():
    pp = init_ss2d_params(3, 2, seed=1)
    for shape in ((3, 3), (2, 2, 3), (1, 1, 2, 2, 3)):  # [H, W, C] too: grids are batched
        with pytest.raises(ShapeError, match=r"ss2d expects a \[B, H, W, 3\] grid"):
            ss2d(Tensor(np.zeros(shape)), pp)


# ---------------------------------------------------------------------------
# the numpy pairs against the tape compositions they replaced


def _reference_cross_scan(f4):
    """The four traversals of a [B, H, W, C] grid, in DIRECTION_ORDER, as T ops."""
    b, h, w, c = f4.shape
    row_fwd = ops.copy(ops.reshape(f4, (b, h * w, c)))
    col_fwd = ops.reshape(ops.transpose(f4, (0, 2, 1, 3)), (b, h * w, c))
    return [row_fwd, ops.flip(row_fwd, 1), col_fwd, ops.flip(col_fwd, 1)]


def _reference_cross_merge(parts, h, w):
    """Four [B, H*W, C] traversals, in DIRECTION_ORDER, summed on the grid as T ops."""
    b, _, c = parts[0].shape
    rf = ops.reshape(parts[0], (b, h, w, c))
    rb = ops.reshape(ops.flip(parts[1], 1), (b, h, w, c))
    cf = ops.transpose(ops.reshape(parts[2], (b, w, h, c)), (0, 2, 1, 3))
    cb = ops.transpose(ops.reshape(ops.flip(parts[3], 1), (b, w, h, c)), (0, 2, 1, 3))
    return ops.add(ops.add(rf, rb), ops.add(cf, cb))


def _assert_grads_close(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape, i
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300), i


GRIDS = [(1, 1, 1, 2), (1, 3, 4, 2), (1, 1, 1, 3), (2, 3, 5, 2)]


@pytest.mark.parametrize("shape", GRIDS)
def test_cross_scan_matches_reference_composition(shape):
    # _traversals against the composition; its backward is cross_merge_fwd
    b, h, w, c = shape
    weights = np.stack([rnd((b, h * w, c), 50 + i).data for i in range(4)])
    f = Tensor(rnd(shape, 49).data, requires_grad=True)
    with T.Tape() as tape:
        seqs = _reference_cross_scan(f)
        T.backward(tape, ops.reduce_sum(ops.mul(ops.concat(seqs), weights.reshape(-1, h * w, c))))
    got = _traversals(f.data)
    for g, want in zip(got, seqs):
        assert g.shape == want.shape and np.array_equal(g, want.data)
    _assert_grads_close([cross_merge_fwd(weights, h, w)], [f.grad])


@pytest.mark.parametrize("shape", GRIDS)
def test_cross_merge_matches_reference_composition(shape):
    # cross_merge_fwd against the composition; its backward is _traversals
    b, h, w, c = shape
    weights = rnd((b, h, w, c), 59).data
    parts = [Tensor(rnd((b, h * w, c), 60 + i).data, requires_grad=True) for i in range(4)]
    with T.Tape() as tape:
        want = _reference_cross_merge(parts, h, w)
        T.backward(tape, ops.reduce_sum(ops.mul(want, weights)))
    got = cross_merge_fwd([t.data for t in parts], h, w)
    assert got.shape == want.shape and np.array_equal(got, want.data)
    _assert_grads_close(list(_traversals(weights)), [t.grad for t in parts])  # DIRECTION_ORDER


# ---------------------------------------------------------------------------
# recurrence oracles


def test_three_step_hand_oracle():
    # delta=1, A=-1, B=1, C=1, D=0 (no skip), x = (1, 0, 0):
    # h = (1, e^-1, e^-2), y = h
    y = ssm_recurrence(
        np.ones((1, 3, 1)), np.array([[-1.0]]), np.ones((1, 3, 1)), np.ones((1, 3, 1)),
        np.array([[[1.0], [0.0], [0.0]]]),
    )
    expect = np.array([1.0, np.exp(-1.0), np.exp(-2.0)])
    assert np.max(np.abs(y.data.ravel() - expect)) < 1e-12
    # display-precision values from the derivation: 1.0000, 0.3679, 0.1353
    assert np.allclose(y.data.ravel(), [1.0, 0.3679, 0.1353], atol=5e-5)


def test_single_step_closed_form():
    # L=1: y1 = C1 * (delta1 B1 x1) + D x1, D applied by selective_scan_fwd only
    delta = np.array([[[0.7, 1.3]]])
    a = np.array([[-1.0], [-2.0]])
    b1 = np.array([[[0.5]]])
    c1 = np.array([[[1.5]]])
    x1 = np.array([[[2.0, -3.0]]])
    y = ssm_recurrence(delta, a, b1, c1, x1)
    expect = c1[0, 0, 0] * (delta[0, 0] * b1[0, 0, 0] * x1[0, 0])
    assert np.allclose(y.data[0, 0], expect, atol=1e-15)


def test_zero_c_projection_leaves_skip_only():
    # with W_C = 0 each direction's scan output is exactly D x = x (D = 1 at
    # init), and the four merge to 4x bit for bit
    p = init_ss2d_params(3, 4, seed=3)
    p = dataclasses.replace(p, w_c=Tensor(np.zeros_like(p.w_c.data), requires_grad=True))
    grid = rnd((2, 3, 4, 3), 19)
    y = ss2d(grid, p)
    assert np.array_equal(p.d_skip.data, np.ones((4, 3)))
    assert np.array_equal(y.data, 4.0 * grid.data)


def test_state_stays_bounded_long_sequence():
    # A < 0 and delta > 0 give |abar| < 1; geometric bound must hold at L=4096
    a_log, _, w_b, w_c, w_delta, v_delta, b_delta = (
        t.data[0] for t in init_ss2d_params(2, 4, seed=5, shared=True).tensors())
    seq = rnd((4096, 2), 23)
    x3 = seq.data[None]
    flat = seq.data
    delta = np.log1p(np.exp(flat @ w_delta @ v_delta + b_delta))
    b = (flat @ w_b)[None]
    c = (flat @ w_c)[None]
    a = -np.exp(a_log)
    y, (hidden, _) = _scan_forward(delta[None], a, b, c, x3)
    abar, _ = _kernel_state(delta[None], a, b, x3)
    assert np.isfinite(hidden).all() and np.isfinite(y).all()
    drive = np.abs((delta * flat)[..., None] * b[0][:, None, :])
    bound = drive.max() / (1.0 - abar.max())
    assert np.abs(hidden).max() <= bound + 1e-9


# The batch-major sweep the time-major kernel replaced, kept verbatim as the
# oracle: every [B, L, C, N] temporary is materialized, nothing is in place.


def _reference_forward(delta, a, b_seq, c_seq, x):
    """Raw numpy recurrence.  All inputs batched: delta/x [B,L,C], b/c [B,L,N].

    Returns (y [B,L,C], hidden [B,L,C,N], abar [B,L,C,N]).
    """
    bsz, length, ch = x.shape
    n = a.shape[1]
    abar = np.exp(delta[..., None] * a[None, None])  # [B,L,C,N]
    du = (delta * x)[..., None] * b_seq[:, :, None, :]  # [B,L,C,N]
    hidden = np.empty((bsz, length, ch, n))
    h = np.zeros((bsz, ch, n))
    for t in range(length):
        h = abar[:, t] * h + du[:, t]
        hidden[:, t] = h
    y = np.einsum("blcn,bln->blc", hidden, c_seq)
    return y, hidden, abar


def _reference_backward(g, delta, a, b_seq, c_seq, x, hidden, abar):
    """Reverse sweep for the recurrence above.

    With dh_t the gradient reaching h_t, the recurrence h_t = abar_t h_{t-1}
    + du_t gives dh_t = g_t * C_t + abar_{t+1} * dh_{t+1}, accumulated right
    to left; every parameter gradient then factors through dh.
    """
    bsz, length, ch = x.shape
    n = a.shape[1]
    g_c = np.einsum("blcn,blc->bln", hidden, g)
    direct = g[..., None] * c_seq[:, :, None, :]  # [B,L,C,N]
    dh = np.empty_like(hidden)
    run = np.zeros((bsz, ch, n))
    for t in range(length - 1, -1, -1):
        if t == length - 1:
            run = direct[:, t].copy()
        else:
            run = direct[:, t] + abar[:, t + 1] * run
        dh[:, t] = run
    h_prev = np.concatenate([np.zeros((bsz, 1, ch, n)), hidden[:, :-1]], axis=1)
    g_abar = dh * h_prev  # gradient into abar = exp(delta * a)
    g_da = g_abar * abar  # gradient into (delta * a)
    g_delta_state = np.einsum("blcn,cn->blc", g_da, a)
    g_a = np.einsum("blcn,blc->cn", g_da, delta)
    g_dx = np.einsum("blcn,bln->blc", dh, b_seq)  # gradient into (delta * x)
    g_b = np.einsum("blcn,blc->bln", dh, delta * x)
    g_delta = g_delta_state + g_dx * x
    g_x = g_dx * delta
    return g_delta, g_a, g_b, g_c, g_x


def _kernel_state(delta, a, b_seq, x):
    """(abar, hidden) as the kernel builds them, time-major [L, rows, N, C]:
    `_state_chunk` over the whole sequence as one chunk."""
    delta_t, b_t = (np.ascontiguousarray(v.transpose(1, 0, 2)) for v in (delta, b_seq))
    a_t = scan._per_row(a, len(delta))
    return scan._state_chunk(delta_t, delta_t * x.transpose(1, 0, 2), b_t, a_t,
                             np.empty(a_t.shape), None)


def _recurrence_inputs(bsz, length, ch, n, seed):
    return (rnd((bsz, length, ch), seed, 0.05, 1.5).data,
            rnd((ch, n), seed + 1, -3.0, -0.2).data,
            rnd((bsz, length, n), seed + 2).data,
            rnd((bsz, length, n), seed + 3).data,
            rnd((bsz, length, ch), seed + 4).data)


def _assert_kernel_matches_reference(args, g):
    """Taped kernel against the oracle; returns its y for chunking comparisons.
    The kernel's abar, which a chunked call does not keep, is `_state_chunk`'s."""
    bsz, length, ch = args[4].shape
    n = args[1].shape[1]
    y_ref, hidden_ref, abar_ref = _reference_forward(*args)
    y, state = _scan_forward(*args)
    hidden = state[0]
    assert y.shape == (bsz, length, ch) and hidden.shape == (length, bsz, n, ch)
    assert np.array_equal(hidden, hidden_ref.transpose(1, 0, 3, 2))
    abar, hidden_one = _kernel_state(args[0], args[1], args[2], args[4])
    assert np.array_equal(abar, abar_ref.transpose(1, 0, 3, 2))
    assert np.array_equal(hidden_one, hidden)
    grads_ref = _reference_backward(g, *args, hidden_ref, abar_ref)
    grads = _scan_backward(g, *args, state)
    names = ("y", "delta", "a", "b_seq", "c_seq", "x")
    for name, got, want in zip(names, (y,) + grads, (y_ref,) + grads_ref):
        assert got.shape == want.shape, name
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-12 * scale, name
    assert np.array_equal(_scan_forward(*args, keep=False)[0], y)
    return y


def _assert_checkpoints_change_no_bit(args, g, hidden_ref):
    """The checkpoint path against the whole-hidden path of the same call: y
    and every gradient bit for bit, and each checkpoint the oracle's hidden
    (time-major, [L, rows, N, C]) at its chunk's last step.  Only a call
    that fits one chunk keeps abar, and it keeps its state whole at any
    size."""
    length, rows, n, ch = hidden_ref.shape
    k = scan._chunk_len(length, rows, n, ch, hidden_ref.itemsize)
    y, state = _scan_forward(*args)
    hidden, abar = state  # below _CHECKPOINT_BYTES: hidden whole
    assert np.array_equal(hidden, hidden_ref) and (abar is not None) == (k == length)
    grads = _scan_backward(g, *args, state)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scan, "_CHECKPOINT_BYTES", 1)
        y_ck, state_ck = _scan_forward(*args)
        grads_ck = _scan_backward(g, *args, state_ck)
    ckpt, abar = state_ck
    if k == length:
        assert abar is not None
    else:
        last = [min(s + k, length) - 1 for s in range(0, length, k)]
        assert abar is None and ckpt.shape == (len(last), rows, n, ch)
        assert np.array_equal(ckpt, hidden_ref[last])
    for got, want in zip((y_ck,) + grads_ck, (y,) + grads):
        assert got.tobytes() == want.tobytes()


# (4, 300, 16, 8) runs five chunks of K=64 at the real budget, the last one
# partial; (8, 256, 16, 8) is eight chunks of K=32, an exact multiple
@pytest.mark.parametrize("bsz,length,ch,n", [(1, 1, 1, 1), (1, 7, 3, 2), (3, 1, 4, 2),
                                             (2, 16, 5, 8), (4, 300, 16, 8), (8, 256, 16, 8)])
def test_kernel_matches_batch_major_reference(bsz, length, ch, n):
    # L=1 runs both sweeps zero times; the reverse sweep's empty range is covered here
    args = _recurrence_inputs(bsz, length, ch, n, seed=17 * length + ch)
    g = rnd((bsz, length, ch), 999).data
    _assert_kernel_matches_reference(args, g)
    _assert_checkpoints_change_no_bit(args, g, _reference_forward(*args)[1].transpose(1, 0, 3, 2))


@pytest.mark.parametrize("length", [1, 6, 300])
def test_grouped_kernel_matches_reference_per_group(length):
    # G=3 groups of B=2 rows, each with its own A, in one call: every group
    # matches the oracle on its own rows; L=300 runs two chunks of K=170
    groups, bsz, ch, n = 3, 2, 4, 8
    parts = [_recurrence_inputs(bsz, length, ch, n, seed=31 + 7 * i) for i in range(groups)]
    delta, b_seq, c_seq, x = (np.concatenate([p[j] for p in parts]) for j in (0, 2, 3, 4))
    a = np.stack([p[1] for p in parts])
    g = rnd((groups * bsz, length, ch), 997).data
    y, state = _scan_forward(delta, a, b_seq, c_seq, x)
    g_delta, g_a, g_b, g_c, g_x = _scan_backward(g, delta, a, b_seq, c_seq, x, state)
    assert g_a.shape == a.shape
    hidden, abar = state[0], _kernel_state(delta, a, b_seq, x)[0]
    hidden_refs = []
    for i, args in enumerate(parts):
        r = slice(i * bsz, (i + 1) * bsz)
        y_ref, hidden_ref, abar_ref = _reference_forward(*args)
        assert np.array_equal(hidden[:, r], hidden_ref.transpose(1, 0, 3, 2)), i
        assert np.array_equal(abar[:, r], abar_ref.transpose(1, 0, 3, 2)), i
        want = (y_ref,) + _reference_backward(g[r], *args, hidden_ref, abar_ref)
        _assert_grads_close((y[r], g_delta[r], g_a[i], g_b[r], g_c[r], g_x[r]), want)
        hidden_refs.append(hidden_ref.transpose(1, 0, 3, 2))
    _assert_checkpoints_change_no_bit((delta, a, b_seq, c_seq, x), g,
                                      np.concatenate(hidden_refs, axis=1))


def test_chunking_changes_no_output_bit(monkeypatch):
    # K in {1, 2, 3} and a single chunk on L=7: every chunk boundary and a
    # partial last chunk; y is the same bits however time is cut
    bsz, length, ch, n = 2, 7, 3, 2
    args = _recurrence_inputs(bsz, length, ch, n, seed=5)
    g = rnd((bsz, length, ch), 998).data
    whole = _assert_kernel_matches_reference(args, g)
    hidden_ref = _reference_forward(*args)[1].transpose(1, 0, 3, 2)
    for k in (1, 2, 3):
        monkeypatch.setattr(scan, "_CHUNK_BYTES", k * bsz * n * ch * 8)  # float64
        assert scan._chunk_len(length, bsz, n, ch, 8) == k
        assert np.array_equal(_assert_kernel_matches_reference(args, g), whole), k
        _assert_checkpoints_change_no_bit(args, g, hidden_ref)


def test_only_recorded_calls_keep_scan_state(monkeypatch):
    kernel, seen = scan._scan_forward, []

    def spy(*args, keep=True):
        seen.append(keep)
        out = kernel(*args, keep=keep)
        assert (out[1] is not None) == keep
        return out

    monkeypatch.setattr(scan, "_scan_forward", spy)
    arrays = _recurrence_inputs(2, 6, 3, 2, seed=9)
    p = init_ss2d_params(3, 2, seed=3)
    frozen = SSMParams(*(Tensor(t.data) for t in p.tensors()))
    grid = rnd((2, 2, 3, 3), 24)

    def calls(params):
        seen.clear()
        ss2d(grid, params)
        ssm_recurrence(*[Tensor(v, requires_grad=params is p) for v in arrays])
        return seen

    assert calls(p) == [False, False]  # no tape
    with T.Tape():
        assert calls(frozen) == [False, False]  # nothing needs a gradient
        with T._suspend_recording():
            assert calls(p) == [False, False]  # the finite-difference oracle's mode
        assert calls(p) == [True, True]

    g = rnd((2, 6, 3), 25).data
    leaves = [Tensor(v, requires_grad=True) for v in arrays]
    with T.Tape() as tape:
        seen.clear()
        loss = ops.reduce_sum(ops.mul(ssm_recurrence(*leaves), g))
    assert seen == [True]
    T.backward(tape, loss)
    y_ref, hidden_ref, abar_ref = _reference_forward(*arrays)
    _assert_grads_close([t.grad for t in leaves],
                        _reference_backward(g, *arrays, hidden_ref, abar_ref))


def test_a_recorded_chunked_ss2d_below_the_checkpoint_size_keeps_hidden_alone(monkeypatch):
    # a [2, 8, 8, 16] grid with N=8 scans L=64 steps over 4B=8 rows in two
    # chunks of K=32: a 512 KiB state, hidden kept whole, abar rebuilt
    _assert_chunked_ss2d_keeps_no_decay_factors_or_traversals(monkeypatch, 2, 8, 2, True)


def test_a_recorded_ss2d_past_the_checkpoint_size_keeps_no_full_state(monkeypatch):
    # step-std level 0: a [8, 16, 16, 16] grid with N=8 scans L=256 steps
    # over 4B=32 rows, a 2^20-element (8 MiB) state per array; the tape keeps
    # its 32 chunks' last hidden rows, 1 MiB, and no array of the state's size
    _assert_chunked_ss2d_keeps_no_decay_factors_or_traversals(monkeypatch, 8, 16, 32, False)


def _assert_chunked_ss2d_keeps_no_decay_factors_or_traversals(monkeypatch, bsz, side, chunks,
                                                              whole):
    """What the tape keeps of a recorded ss2d that runs in `chunks` chunks,
    hidden `whole` or checkpointed, counted in bytes: no [L, 4B, N, C] abar
    and no [4, B, L, C] traversals."""
    ch, n, rank, size = 16, 8, delta_rank(16), 8  # float64
    length, rows = side * side, 4 * bsz
    full = length * rows * n * ch
    assert -(-length // scan._chunk_len(length, rows, n, ch, size)) == chunks
    assert (full * size < scan._CHECKPOINT_BYTES) == whole
    kernel, states = scan._scan_forward, []

    def spy(*args, keep=True):
        out = kernel(*args, keep=keep)
        states.append(out[1])
        return out

    monkeypatch.setattr(scan, "_scan_forward", spy)
    params = init_ss2d_params(ch, n, seed=6)
    with T.Tape() as tape:
        ss2d(rnd((bsz, side, side, ch), 41), params)
    (node,) = [nd for nd in tape.nodes if nd.grad_fn is not None]

    def arrays(v):
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (tuple, list)):
            for u in v:
                yield from arrays(u)

    ((hidden, abar),) = states
    assert abar is None
    assert hidden.shape == ((length,) if whole else (chunks,)) + (rows, n, ch)
    # besides the state: the softplus derivative and delta [4B, L, C], the
    # B and C projections [4B, L, N], the rank-R delta projection, A and
    # exp(a_log), the grid and the five parameters the backward reads; no
    # [L, 4B, N, C] abar and no [4, B, L, C] copy of the grid's traversals
    read = (params.d_skip, params.w_b, params.w_c, params.w_delta, params.v_delta)
    rest = (2 * rows * length * ch + 2 * rows * length * n + rows * length * rank
            + 2 * 4 * ch * n + bsz * length * ch + sum(t.size for t in read))
    saved = list(arrays(node.grad_fn.args))
    assert sum(v.nbytes for v in saved) == hidden.nbytes + rest * size
    assert max(v.size for v in saved) == (full if whole else rows * length * ch)
    if not whole:
        assert hidden.nbytes == 32 * 32 * 8 * 16 * 8 == 1 << 20


def test_recurrence_shape_errors():
    for shape in ((1, 4, 4, 3), (2, 4, 4, 3)):
        with pytest.raises(ShapeError, match=r"ss2d expects a \[B, H, W, 5\] grid, got \(\d, 4"):
            ss2d(rnd(shape, 1), init_ss2d_params(5, 2, seed=1))


# ---------------------------------------------------------------------------
# the parameterized scan against the tape composition it replaced


def _reference_selective_scan(seq, a_log, d_skip, w_b, w_c, w_delta, v_delta, b_delta):
    """One direction's scan of a [L, C] or [B, L, C] sequence with one
    parameter set (a_log [C, N], ...): ssm_recurrence between tensor ops."""
    squeeze = seq.ndim == 2
    x3 = ops.reshape(seq, (1,) + seq.shape) if squeeze else seq
    bsz, length, ch = x3.shape
    flat = ops.reshape(x3, (bsz * length, ch))
    delta = ops.softplus(ops.add(ops.matmul(ops.matmul(flat, w_delta), v_delta), b_delta))
    delta = ops.reshape(delta, (bsz, length, ch))
    b_seq = ops.reshape(ops.matmul(flat, w_b), (bsz, length, w_b.shape[1]))
    c_seq = ops.reshape(ops.matmul(flat, w_c), (bsz, length, w_c.shape[1]))
    a = ops.mul(ops.exp(a_log), -1.0)
    y = ssm_recurrence(delta, a, b_seq, c_seq, x3)
    y = ops.add(y, ops.mul(x3, d_skip))
    return ops.reshape(y, seq.shape) if squeeze else y


SSM_FIELDS = ("a_log", "d_skip", "w_b", "w_c", "w_delta", "v_delta", "b_delta")


def _random_ssm_arrays(ch, n, seed):
    """Generic values of one parameter set; one channel's delta bias sits on
    softplus's linear branch (pre-activation above 30)."""
    r = delta_rank(ch)
    shapes = {"a_log": (ch, n), "d_skip": (ch,), "w_b": (ch, n), "w_c": (ch, n),
              "w_delta": (ch, r), "v_delta": (r, ch), "b_delta": (ch,)}
    arrays = {f: rnd(shapes[f], seed + k, -0.8, 0.8).data for k, f in enumerate(SSM_FIELDS)}
    arrays["b_delta"] = rnd((ch,), seed + 9, -3.0, 0.5).data
    arrays["b_delta"][0] = 40.0
    return arrays


# [L, C] and [B, L, C]; L=1 leaves the reverse sweep empty; C < 16 has rank 1
SCAN_SHAPES = [(6, 3), (1, 4), (2, 5, 3), (3, 1, 2), (2, 4, 16)]


@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_selective_scan_matches_reference_composition(shape):
    # the numpy pair at G=1: the sequence as [1, B, L, C], one [1, ...] set
    ch, n = shape[-1], 3
    arrays = _random_ssm_arrays(ch, n, seed=70 + len(shape) * 10 + ch)
    x = rnd(shape, 81, -1.5, 1.5).data
    weights = rnd(shape, 82).data
    leaves = [Tensor(x.copy(), requires_grad=True)] + [
        Tensor(arrays[f].copy(), requires_grad=True) for f in SSM_FIELDS]
    with T.Tape() as tape:
        want = _reference_selective_scan(*leaves)
        T.backward(tape, ops.reduce_sum(ops.mul(want, weights)))

    x4 = x.reshape((1,) * (4 - len(shape)) + shape)
    params = [arrays[f][None] for f in SSM_FIELDS]
    got, saved = selective_scan_fwd(x4, *params, keep=True)
    assert got.shape == x4.shape and np.array_equal(got.reshape(shape), want.data)
    assert np.array_equal(selective_scan_fwd(x4, *params, keep=False)[0], got)
    g_x, *g_params = selective_scan_bwd(saved, x4, weights.reshape(x4.shape))
    assert [g.shape for g in g_params] == [q.shape for q in params]
    # the sequence, then every SSM_FIELDS entry
    _assert_grads_close([g_x.reshape(shape)] + [g[0] for g in g_params],
                        [t.grad for t in leaves])


def test_softplus_derivative_from_its_own_exp():
    # the delta pre-activation is b_delta exactly: zero projections
    pre = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                          [30.0, np.nextafter(30.0, -np.inf), np.nextafter(30.0, np.inf),
                           30.5, 0.0, -0.0]])
    ch = pre.size
    x4 = rnd((1, 1, 2, ch), 83).data
    a_log, d_skip, w_b, w_c = (np.zeros((1, ch, 1)), np.ones((1, ch)), np.ones((1, ch, 1)),
                               np.ones((1, ch, 1)))
    _, saved = scan.selective_scan_fwd(x4, a_log, d_skip, w_b, w_c, np.zeros((1, ch, 1)),
                                       np.zeros((1, 1, ch)), pre[None], keep=True)
    deriv = saved[1][0]
    want = np.where(pre > 30.0, 1.0, T._sigmoid_raw(pre))  # the old expression
    assert np.all(np.abs(deriv - want) <= 2 * np.spacing(want))
    assert (deriv[:, pre <= 0.0] == want[pre <= 0.0]).all()  # the same e / (1 + e)
    assert np.all(deriv[:, pre > 30.0] == 1.0)


def _reference_ss2d(f4, params):
    """Scan a [B, H, W, C] grid in all four directions and merge back
    (unnormalized sum)."""
    f4 = T.as_tensor(f4)
    if f4.ndim != 4:
        raise ShapeError(f"expected [B, H, W, C], got {f4.shape}")
    if f4.shape[-1] != params.channels:
        raise ShapeError(f"grid has {f4.shape[-1]} channels, params have {params.channels}")
    sets = len(params.a_log.data)  # 4, or 1 shared by every direction
    scanned = [_reference_selective_scan(t, *(ops.index(p, k % sets) for p in params.tensors()))
               for k, t in enumerate(_reference_cross_scan(f4))]
    return _reference_cross_merge(scanned, *f4.shape[1:3])


# ss2d scans its four traversals as one G=4 kernel call over 4B rows.  At
# N=3 the B=1 grids below split time into chunks that the per-direction
# reference does not: [1, 16, 16, 16] runs K=170 of L=256 (2 chunks, the
# last partial), [1, 12, 20, 32] K=85 of L=240 (3); [1, 1, 1, 16] is a 1x1
# grid and [1, 5, 2, 3] a non-square one.
SS2D_GRIDS = GRIDS + [(2, 3, 4, 16), (1, 16, 16, 16), (1, 12, 20, 32), (1, 1, 1, 16),
                      (1, 5, 2, 3)]


def _stacked_params(sets, requires_grad=False):
    """SSMParams holding the given per-direction field arrays stacked on
    the direction axis (one set is a shared [1, ...] set)."""
    return SSMParams(*(Tensor(np.stack([a[fld] for a in sets]), requires_grad=requires_grad)
                       for fld in SSM_FIELDS))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("shape", SS2D_GRIDS)
def test_ss2d_matches_reference_composition(shape, shared):
    ch, n = shape[-1], 3
    sets = [_random_ssm_arrays(ch, n, seed=90 + 10 * k) for k in range(1 if shared else 4)]
    x = rnd(shape, 91, -1.5, 1.5).data
    weights = rnd(shape, 92).data

    def run(scan_2d):
        f = Tensor(x.copy(), requires_grad=True)
        params = _stacked_params(sets, requires_grad=True)
        with T.Tape() as tape:
            y = scan_2d(f, params)
            n_ops = sum(1 for node in tape.nodes if node.grad_fn is not None)
            T.backward(tape, ops.reduce_sum(ops.mul(y, weights)))
        # each set's slice of every stacked parameter gradient on its own
        return (y.data, [f.grad] + [t.grad[k] for k in range(len(sets)) for t in params.tensors()],
                n_ops)

    got, got_g, n_ops = run(ss2d)
    want, want_g, _ = run(_reference_ss2d)
    assert n_ops == 1
    assert got.shape == want.shape == shape and np.array_equal(got, want)
    _assert_grads_close(got_g, want_g)  # the grid, then every direction's parameters
    assert len(got_g) == 1 + len(sets) * len(SSM_FIELDS)


def _ss2d_run(x, params, weights):
    """ss2d on a fresh leaf under a tape: (y, the grid's gradient)."""
    f = Tensor(x.copy(), requires_grad=True)
    with T.Tape() as tape:
        y = ss2d(f, params)
        T.backward(tape, ops.reduce_sum(ops.mul(y, weights)))
    return y.data, f.grad


def test_grouped_chunking_changes_no_output_bit(monkeypatch):
    # the G=4 analogue of test_chunking_changes_no_output_bit: K in {1, 2, 3}
    # and one chunk over all 4B rows on L=9; y keeps its bits, taped or not
    bsz, h, w, ch, n = 2, 3, 3, 3, 2
    params = _stacked_params([_random_ssm_arrays(ch, n, seed=110 + 10 * k) for k in range(4)])
    x = rnd((bsz, h, w, ch), 111, -1.5, 1.5).data
    weights = rnd((bsz, h, w, ch), 112).data
    whole, whole_g = _ss2d_run(x, params, weights)
    assert scan._chunk_len(h * w, 4 * bsz, n, ch, 8) == h * w
    for k in (1, 2, 3):
        monkeypatch.setattr(scan, "_CHUNK_BYTES", k * 4 * bsz * n * ch * 8)  # float64
        assert scan._chunk_len(h * w, 4 * bsz, n, ch, 8) == k
        y, g = _ss2d_run(x, params, weights)
        assert np.array_equal(y, whole), k
        assert np.array_equal(ss2d(Tensor(x), params).data, whole), k
        _assert_grads_close([g], [whole_g])
        with pytest.MonkeyPatch.context() as m:  # checkpoints at the same K: the same bits
            m.setattr(scan, "_CHECKPOINT_BYTES", 1)
            y_ck, g_ck = _ss2d_run(x, params, weights)
        assert y_ck.tobytes() == y.tobytes() and g_ck.tobytes() == g.tobytes(), k


def test_one_kernel_call_per_ss2d_and_gated_block(monkeypatch):
    calls = []
    for name in ("_scan_forward", "_scan_backward"):
        def spy(*args, _kernel=getattr(scan, name), _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(scan, name, spy)
    grid = rnd((2, 3, 5, 4), 121).data
    weights = rnd((2, 3, 5, 4), 122).data
    pp = init_ss2d_params(4, 3, seed=123)
    w = init_vss(4, 3, seed=124, name="guard")

    def forward_then_backward(op):
        calls.clear()
        f = Tensor(grid, requires_grad=True)
        with T.Tape() as tape:
            y = op(f)
            assert calls == ["_scan_forward"]
            loss = ops.reduce_sum(ops.mul(y, weights))
        T.backward(tape, loss)
        assert calls == ["_scan_forward", "_scan_backward"]

    forward_then_backward(lambda f: ss2d(f, pp))
    forward_then_backward(lambda f: gated_block(f, w))
    forward_then_backward(lambda f: gated_block(f, w, np.tile([1.0, 0.0, 1.0, 0.0, 1.0], (2, 1))))
    calls.clear()
    ss2d(Tensor(grid), pp)  # untaped
    assert calls == ["_scan_forward"]


def test_ss2d_checked_mode_names_one_directions_projection():
    # a NaN in col_bwd's slice of w_b alone reaches one group of the
    # stacked B projection; the stacked check still names it
    pp = init_ss2d_params(3, 2, seed=131)
    w_b = pp.w_b.data.copy()
    w_b[3, 1, 0] = np.nan
    pp = dataclasses.replace(pp, w_b=Tensor(w_b))
    grid = rnd((2, 3, 4, 3), 132)
    with T._op_checks(False):
        y = ss2d(grid, pp).data
    assert not np.isfinite(y).all()
    with pytest.raises(NumericError, match="selective_scan B projection"):
        ss2d(grid, pp)
    w = init_vss(3, 2, seed=133, name="nan")
    w.ssm = dataclasses.replace(w.ssm, w_b=Tensor(w_b))
    with pytest.raises(NumericError, match="selective_scan B projection"):
        gated_block(grid, w)


def test_selective_scan_checked_mode_names_the_intermediate():
    p = init_ss2d_params(3, 2, seed=3)
    grid = rnd((1, 5, 2, 3), 4)
    # exp(800) overflows, but abar = exp(delta * -inf) = 0 keeps the output finite
    huge = dataclasses.replace(p, a_log=Tensor(np.full((4, 3, 2), 800.0)))
    with T._op_checks(False):
        assert np.isfinite(ss2d(grid, huge).data).all()
    with pytest.raises(NumericError, match=r"selective_scan exp\(a_log\)"):
        ss2d(grid, huge)
    bad = grid.data.copy()
    bad[0, 2, 1, 0] = np.nan
    with pytest.raises(NumericError, match="selective_scan delta pre-activation"):
        ss2d(Tensor(bad), p)
    w_c = p.w_c.data.copy()
    w_c[2, 1, 0] = np.inf
    with pytest.raises(NumericError, match="selective_scan C projection"):
        ss2d(grid, dataclasses.replace(p, w_c=Tensor(w_c)))


# ---------------------------------------------------------------------------
# gradients


def test_grad_recurrence_all_inputs():
    L, C, N = 5, 3, 2
    delta0 = rnd((1, L, C), 101, 0.2, 1.0)
    a0 = rnd((C, N), 102, -2.0, -0.3)
    b0 = rnd((1, L, N), 103)
    c0 = rnd((1, L, N), 104)
    x0 = rnd((1, L, C), 105)
    weights = T.uniform((1, L, C), -1.0, 1.0, 106).data
    parts = [delta0, a0, b0, c0, x0]
    for i, name in enumerate(["delta", "a", "b_seq", "c_seq", "x"]):
        def f(t, i=i):
            args = [Tensor(p.data) for p in parts]
            args[i] = t
            return ops.reduce_sum(ops.mul(ssm_recurrence(*args), weights))

        err, _, _ = check_gradient(f, parts[i])
        assert err < TOL, f"{name}: rel err {err}"


def test_grad_selective_scan_params_and_input():
    # every stacked field whole, all four directions at once, through ss2d
    p = init_ss2d_params(3, 2, seed=7)
    grid = rnd((1, 2, 3, 3), 21)
    for field in SSM_FIELDS:
        def f(t, field=field):
            return ops.reduce_sum(
                ops.mul(ss2d(Tensor(grid.data), dataclasses.replace(p, **{field: t})), 0.3))

        err, _, _ = check_gradient(f, Tensor(getattr(p, field).data))
        assert err < TOL, f"{field}: rel err {err}"
    err, _, _ = check_gradient(lambda t: ops.reduce_sum(ops.mul(ss2d(t, p), 0.3)), grid)
    assert err < TOL


def test_grad_ss2d_end_to_end():
    pp = init_ss2d_params(3, 2, seed=9)
    g = rnd((1, 4, 5, 3), 31)
    err, _, _ = check_gradient(lambda t: ops.reduce_sum(ops.mul(ss2d(t, pp), 0.2)), g)
    assert err < TOL


# ---------------------------------------------------------------------------
# parameterization details


def test_init_values():
    p = init_ss2d_params(4, 8, seed=0)
    assert np.allclose(p.a_log.data[0, 0], np.log(np.linspace(1.0, 8.0, 8)))
    assert (p.a_log.data == p.a_log.data[0, 0]).all()  # every direction, every channel
    assert np.array_equal(p.d_skip.data, np.ones((4, 4)))
    # delta bias chosen so softplus(bias) == 0.01
    assert np.all(np.abs(np.log1p(np.exp(p.b_delta.data)) - 0.01) < 1e-12)
    assert p.w_delta.shape == (4, 4, 1) and p.v_delta.shape == (4, 1, 4)
    assert delta_rank(32) == 4 and delta_rank(4) == 1
    with pytest.raises(ShapeError, match="positive"):
        init_ss2d_params(0, 8, seed=0)


def test_directions_independent_by_default_shared_on_request():
    pp = init_ss2d_params(4, 2, seed=11)
    assert [t.shape[0] for t in pp.tensors()] == [4] * 7 and pp.channels == 4
    assert not np.array_equal(pp.w_b.data[0], pp.w_b.data[1])
    shared = init_ss2d_params(4, 2, seed=11, shared=True)
    assert [t.shape[0] for t in shared.tensors()] == [1] * 7 and shared.channels == 4


def test_init_ss2d_params_slices_equal_their_label_streams():
    # each random field is one stacked draw; slice k is the stream of the
    # k-th label, blk.<direction> in DIRECTION_ORDER (blk.shared)
    bn, wd = np.sqrt(6.0 / 9.0), np.sqrt(6.0 / 7.0)
    for labels in ([f"blk.{d}" for d in DIRECTION_ORDER], ["blk.shared"]):
        p = init_ss2d_params(6, 3, 17, name="blk", shared=len(labels) == 1)
        k = len(labels)
        assert [t.shape for t in p.tensors()] == [(k, 6, 3), (k, 6), (k, 6, 3), (k, 6, 3),
                                                  (k, 6, 1), (k, 1, 6), (k, 6)]
        for i, label in enumerate(labels):
            for field, a in (("w_b", bn), ("w_c", bn), ("w_delta", wd), ("v_delta", wd)):
                got = getattr(p, field).data[i]
                want = uniform_array(got.shape, -a, a, derive(17, label, field))
                assert got.tobytes() == want.tobytes(), (label, field)


def test_ss2d_shared_set_gradient_sums_directions_in_tape_order():
    # a [1, ...] set's gradient is ((col_bwd + col_fwd) + row_bwd) + row_fwd
    # of the four groups' gradients: bit-identical to passing the same set
    # stacked four times and summing its slices in that order
    sets = [_random_ssm_arrays(3, 2, seed=140)]
    x = rnd((2, 3, 4, 3), 141, -1.5, 1.5).data
    weights = rnd((2, 3, 4, 3), 142).data
    grads = []
    for stack in (sets, sets * 4):
        params = _stacked_params(stack, requires_grad=True)
        with T.Tape() as tape:
            y = ss2d(Tensor(x), params)
            T.backward(tape, ops.reduce_sum(ops.mul(y, weights)))
        grads.append([t.grad for t in params.tensors()])
    for one, four in zip(*grads):
        assert one.shape[0] == 1
        assert np.array_equal(one[0], ((four[3] + four[2]) + four[1]) + four[0])


def test_ss2d_rejects_a_stack_of_neither_one_nor_four_sets():
    sets = [_random_ssm_arrays(3, 2, seed=150 + k) for k in range(2)]
    with pytest.raises(ShapeError, match="stack 2 sets, need 1 or 4"):
        ss2d(rnd((1, 3, 4, 3), 151), _stacked_params(sets))


def test_ss2d_batch_matches_per_sample():
    pp = init_ss2d_params(2, 3, seed=13)
    batch = rnd((2, 3, 4, 2), 41)
    full = ss2d(batch, pp)
    for i in range(2):
        single = ss2d(Tensor(batch.data[i:i + 1]), pp)
        assert np.allclose(full.data[i], single.data[0], atol=1e-12)


@pytest.mark.parametrize("runs", [0, -2])
def test_bench_lengths_rejects_non_positive_runs(runs):
    with pytest.raises(ValueError, match="runs"):
        bench_lengths([8], runs=runs)
