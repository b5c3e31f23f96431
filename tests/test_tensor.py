import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import sumnet.data as D
import sumnet.model as M
import sumnet.tensor as T
from sumnet.tensor import (
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    check_gradient,
    finite_diff_grad,
    max_rel_err,
)

import oracles as ops

TOL = 1e-4


def rnd(shape, seed, lo=-1.0, hi=1.0):
    return T.uniform(shape, lo, hi, seed)


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_hand_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ops.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        ops.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_elementwise_fixed_points():
    assert ops.silu(Tensor([0.0])).data[0] == 0.0
    assert abs(ops.softplus(Tensor([0.0])).data[0] - np.log(2.0)) < 1e-15
    assert ops.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert ops.gelu(Tensor([0.0])).data[0] == 0.0
    # softplus overflow guard: exactly x in the far-positive tail
    assert ops.softplus(Tensor([600.0])).data[0] == 600.0
    # stable sigmoid saturates without overflow
    assert ops.sigmoid(Tensor([800.0])).data[0] == 1.0
    assert ops.sigmoid(Tensor([-800.0])).data[0] == 0.0


def test_broadcasting_matches_numpy():
    a = rnd((2, 3), 1)
    b = rnd((3,), 2)
    assert np.array_equal(ops.add(a, b).data, a.data + b.data)
    assert np.array_equal(ops.mul(a, b).data, a.data * b.data)
    c = rnd((2, 1), 3)
    assert np.array_equal(ops.sub(a, c).data, a.data - c.data)
    with pytest.raises(ShapeError):
        ops.add(rnd((2, 3), 4), rnd((4,), 5))


def test_reductions_match_numpy():
    x = rnd((3, 4, 5), 6)
    assert np.allclose(ops.reduce_sum(x, 1).data, x.data.sum(axis=1))
    assert np.allclose(ops.reduce_mean(x, (0, 2)).data, x.data.mean(axis=(0, 2)))
    # population variance, not sample variance
    assert np.allclose(ops.reduce_var(x, 2).data, x.data.var(axis=2, ddof=0))
    assert ops.reduce_sum(x).data.shape == ()
    assert ops.reduce_sum(x, 1, keepdims=True).data.shape == (3, 1, 5)
    with pytest.raises(ShapeError):
        ops.reduce_sum(x, 3)
    with pytest.raises(ShapeError):
        ops.reduce_sum(x, (0, 0))


# The rewritten numpy helpers against the expressions they replace.


def _two_divide_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_raw_is_bit_identical_to_the_two_divide_form():
    edges = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, np.inf, -np.inf, np.nan]
    x = np.concatenate([edges, rnd((4, 257), 7, -50.0, 50.0).data.ravel()])
    assert T._sigmoid_raw(x).tobytes() == _two_divide_sigmoid(x).tobytes()


def _sum_unbroadcast(g, shape):
    """_unbroadcast with every reduction an ndarray.sum."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _assert_sums_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("shape", [(3, 5), (1, 4), (127, 4), (128, 4),
                                   (2048, 16), (4, 2048, 16), (3, 300, 1)])
def test_sum_rows_matches_ndarray_sum(shape):
    x = rnd(shape, 8, -2.0, 2.0).data
    _assert_sums_close(T._sum_rows(x), x.sum(axis=-2))


@pytest.mark.parametrize("shape, to", [
    ((8, 16, 16, 16), (16,)),  # the LN gamma/beta gradients: 2048 rows
    ((8, 16, 16, 16), (16, 16)),
    ((2, 3, 4), (4,)),
    ((8, 16, 16, 16), ()),  # a full reduction
    ((2, 3), ()),
    ((8, 16, 16, 16), (8, 1, 1, 1)),  # batched knobs
    ((300, 4), (1, 4)),
    ((5, 300, 4), (1, 4)),
])
def test_unbroadcast_matches_ndarray_sum(shape, to):
    g = rnd(shape, 9).data
    _assert_sums_close(np.asarray(T._unbroadcast(g, to)), np.asarray(_sum_unbroadcast(g, to)))


def test_shape_ops_roundtrip():
    x = rnd((2, 3, 4), 7)
    assert np.array_equal(ops.reshape(x, (6, 4)).data, x.data.reshape(6, 4))
    tr = ops.transpose(x, (2, 0, 1))
    assert np.array_equal(tr.data, x.data.transpose(2, 0, 1))
    fl = ops.flip(x, 1)
    assert np.array_equal(ops.flip(fl, 1).data, x.data)
    with pytest.raises(ShapeError):
        ops.reshape(x, (5, 5))
    with pytest.raises(ShapeError):
        ops.transpose(x, (0, 1))


def test_concat_pad_index_take():
    a, b = rnd((2, 3), 8), rnd((4, 3), 9)
    cat = ops.concat([a, b], axis=0)
    assert np.array_equal(cat.data, np.concatenate([a.data, b.data], axis=0))
    p = ops.pad(a, ((1, 1), (0, 2)))
    assert p.shape == (4, 5)
    assert p.data[0].sum() == 0.0 and np.array_equal(p.data[1:3, :3], a.data)
    assert np.array_equal(ops.index(a, 1).data, a.data[1])
    assert np.array_equal(ops.index(a, (slice(None), slice(1, 3))).data, a.data[:, 1:3])
    tk = ops.take(b, [3, 0, 0], axis=0)
    assert np.array_equal(tk.data, b.data[[3, 0, 0]])
    with pytest.raises(ShapeError):
        ops.take(b, [4], axis=0)


def test_create_validation():
    assert T.zeros((2, 2)).data.sum() == 0.0
    assert T.full((2,), 3.5).data[1] == 3.5
    with pytest.raises(ShapeError):
        T.zeros((0, 2))
    with pytest.raises(ShapeError):
        T.full((-1,), 1.0)


def test_float64_c_order_always():
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3).T)
    assert t.data.dtype == np.float64 and t.data.flags.c_contiguous


# ---------------------------------------------------------------------------
# checked mode


def test_checked_mode_catches_bad_values():
    with pytest.raises(NumericError):
        ops.log(Tensor([-1.0]))
    with pytest.raises(NumericError):
        ops.sqrt(Tensor([-1.0]))
    with pytest.raises(NumericError):
        ops.div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(NumericError):
        ops.exp(Tensor([1000.0]))  # overflows to inf
    with T._op_checks(False):
        assert T.checked_mode() is False
        out = ops.exp(Tensor([1000.0]))
        assert np.isinf(out.data[0])
    assert T.checked_mode() is True


def _squashing(x):
    """exp overflows to inf for x > 709, and exp(-inf) squashes it to 0."""
    return ops.exp(ops.mul(ops.exp(x), -1.0))


def test_checked_at_boundary_checks_the_output_and_replays_to_name_the_op():
    x = Tensor([1.0, 1000.0])
    with pytest.raises(NumericError, match="exp"):
        _squashing(x)  # a direct call is checked op by op
    out = T.checked_at_boundary("squash", _squashing, x)
    assert np.array_equal(out.data, [np.exp(-np.e), 0.0])
    with pytest.raises(NumericError, match="^log: negative argument$"):
        T.checked_at_boundary("blowup", lambda t: ops.mul(ops.log(t), 0.0), Tensor([-1.0]))
    seen = []

    def fn(t):  # non-finite output, though no op fails a check
        seen.append(T._local.op_checks)
        return Tensor(t.data * np.nan)

    with pytest.raises(NumericError, match="^outer: produced a non-finite value$"):
        T.checked_at_boundary("outer", fn, x)
    assert seen == [False, True]  # the unchecked run, then the checked replay
    with pytest.raises(NumericError, match="^exp: produced"):  # a nested boundary calls
        T.replay_checked(T.checked_at_boundary, "inner", _squashing, x)  # through


def test_op_check_scope_is_restored_after_an_exception():
    with pytest.raises(RuntimeError, match="inside"):
        with T._op_checks(False):
            assert np.isinf(ops.exp(Tensor([1000.0])).data[0])
            raise RuntimeError("inside")
    with pytest.raises(NumericError):
        ops.exp(Tensor([1000.0]))
    assert T._local.op_checks is None
    assert T.checked_at_boundary("squash", _squashing, Tensor([1000.0])).data[0] == 0.0


# ---------------------------------------------------------------------------
# primitive: the recording path of the fused ops


def _doubling(seen):
    """A primitive that doubles its input and logs every `keep` it is given
    and whether its bwd received the object its fwd saved."""
    token = object()

    def fwd(x, keep):
        seen.append(keep)
        return 2.0 * x, token

    def bwd(saved, g):
        seen.append(saved is token)
        return (2.0 * g,)

    return lambda x: T.primitive("double", (x,), fwd, bwd)


def test_primitive_keeps_state_exactly_when_its_node_records():
    seen = []
    double = _doubling(seen)
    leaf = Tensor([1.0, 2.0], requires_grad=True)
    assert not double(leaf).requires_grad  # no tape
    with Tape() as tape:
        double(Tensor([1.0, 2.0]))  # no input needs a gradient
        with T._suspend_recording():
            double(leaf)
        assert seen == [False, False, False] and len(tape) == 0
        out = double(leaf)
        assert seen == [False, False, False, True]
        assert [node.kind for node in tape.nodes] == ["leaf", "double"]  # one node
        loss = ops.reduce_sum(out)
    backward(tape, loss)
    assert seen == [False, False, False, True, True]  # bwd got the very object fwd saved
    assert np.array_equal(leaf.grad, [2.0, 2.0])


def test_primitive_takes_plain_arrays_and_checks_its_output():
    out = _doubling([])(np.array([1.0, 3.0]))
    assert isinstance(out, Tensor) and np.array_equal(out.data, [2.0, 6.0])
    with pytest.raises(NumericError, match="blowup"):
        T.primitive("blowup", (Tensor([1.0]),), lambda x, keep: (x * np.inf, None),
                    lambda saved, g: (g,))


def test_no_module_but_tensor_reaches_the_recording_internals():
    # every op records through T.primitive, so one path puts nodes on the tape,
    # and no module but tensor reads or flips the checked-mode switch
    private = {"_recording_tape", "_record", "_local", "_op_checks"}
    found = []
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in private:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_the_generic_ops_live_only_in_the_test_oracles():
    # sumnet defines none of the oracles' names, so only an import of the
    # oracles could reach one, and no module of sumnet or demo makes one
    src = Path(T.__file__).parent
    moved = {n for n, v in vars(ops).items() if getattr(v, "__module__", "") == "oracles"}
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"sumnet.{path.stem}".replace(".__init__", ""))
        assert not moved & set(vars(module)), path.name
    paths = sorted(src.glob("*.py")) + sorted((src.parents[1] / "demos").glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(a.name == "oracles" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "oracles"]
    assert len(paths) > 10 and not found, found


STAGE_KINDS = {"conditioner", "patch_embed", "gated_block", "downsample", "up_step", "head",
               "composite_loss"}


def test_every_recorded_node_comes_through_primitive(tmp_path, monkeypatch):
    # a step-micro batch loss (C=4, S=32, B=8) records stage nodes only: 15
    # blocks, the stem, 3 merges, 3 up-steps, the head, the loss and, unless
    # unconditioned, the conditioner; prompt and one-hot run one expression
    paths = D.generate_dataset(tmp_path, n_per_domain=2, size=32, seed=1)
    samples = [s for fold in ("train", "val", "test") for s in D.load_samples(paths[fold])]
    kinds = []
    real = T.primitive

    def counting(kind, inputs, fwd, bwd):
        out = real(kind, inputs, fwd, bwd)
        if out.requires_grad:  # the call recorded a node
            kinds.append(kind)
        return out

    monkeypatch.setattr(T, "primitive", counting)
    for conditioning, count in (("prompt", 25), ("one-hot", 25), ("none", 24)):
        model = M.Model(M.SumConfig(input_size=32, base_channels=4, conditioning=conditioning))
        kinds.clear()
        with Tape() as tape:
            M.batch_loss(model, samples, range(8))
        recorded = [node.kind for node in tape.nodes if node.kind != "leaf"]
        assert len(recorded) == count and kinds == recorded, conditioning
        assert set(recorded) == STAGE_KINDS - ({"conditioner"} if count == 24 else set())


# ---------------------------------------------------------------------------
# backward oracles


def test_matmul_backward_hand_oracle():
    # loss = sum(x @ w), x = [[1, 1]]  =>  dL/dw = [[1], [1]]
    x = Tensor([[1.0, 1.0]])
    w = Tensor([[2.0], [3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ops.reduce_sum(ops.matmul(x, w))
        backward(tape, loss)
    assert np.array_equal(w.grad, [[1.0], [1.0]])


def test_two_consumers_accumulate():
    # y = x*x + 3x  =>  dy/dx = 2x + 3
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.add(ops.mul(x, x), ops.mul(3.0, x))
        backward(tape, ops.reduce_sum(y))
    assert np.allclose(x.grad, [7.0])


def test_detached_leaf_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        tape._ensure(y)  # participates in nothing
        loss = ops.reduce_sum(ops.mul(x, x))
        grads = backward(tape, loss)
    assert np.array_equal(y.grad, [0.0])
    assert y in grads and x in grads


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.mul(x, 2.0)
        with pytest.raises(ShapeError):
            backward(tape, y)


def test_backward_linearity():
    def grad_of(fn, xv):
        x = Tensor(xv, requires_grad=True)
        with Tape() as tape:
            backward(tape, fn(x))
        return x.grad

    xv = T.uniform((4,), -1.0, 1.0, 11).data
    f = lambda x: ops.reduce_sum(ops.mul(x, x))
    g = lambda x: ops.reduce_sum(ops.exp(x))
    a, b = 2.5, -1.25
    combined = grad_of(lambda x: ops.add(ops.mul(a, f(x)), ops.mul(b, g(x))), xv)
    assert np.allclose(combined, a * grad_of(f, xv) + b * grad_of(g, xv), atol=1e-12)


def test_grad_determinism():
    def run():
        x = T.uniform((8,), -1.0, 1.0, 21, requires_grad=True)
        with Tape() as tape:
            y = ops.reduce_sum(ops.add(ops.mul(ops.silu(x), ops.sigmoid(x)), ops.gelu(x)))
            backward(tape, y)
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert y1.tobytes() == y2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# finite-difference gradient suite (the op-level acceptance oracle)


def _sum_after(op):
    return lambda x: ops.reduce_sum(op(x))


UNARY_CASES = [
    ("exp", ops.exp, (-1.0, 1.0)),
    ("log", ops.log, (0.5, 2.0)),  # away from the 0 kink
    ("sqrt", ops.sqrt, (0.5, 2.0)),
    ("sigmoid", ops.sigmoid, (-2.0, 2.0)),
    ("silu", ops.silu, (-2.0, 2.0)),
    ("softplus", ops.softplus, (-2.0, 2.0)),
    ("gelu", ops.gelu, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,rng_range", UNARY_CASES)
def test_grad_unary(name, op, rng_range):
    lo, hi = rng_range
    x = T.uniform((3, 5), lo, hi, seed=hash_seed(name))
    err, _, _ = check_gradient(_sum_after(op), x)
    assert err < TOL, f"{name}: rel err {err}"


def hash_seed(name):
    return sum(ord(c) for c in name) * 7919


BINARY_CASES = [
    ("add", ops.add),
    ("sub", ops.sub),
    ("mul", ops.mul),
    ("div", ops.div),
    ("min", ops.minimum),
    ("max", ops.maximum),
]


@pytest.mark.parametrize("name,op", BINARY_CASES)
def test_grad_binary_broadcast(name, op):
    # second operand broadcasts over rows; div stays away from zero
    b_lo, b_hi = (0.5, 1.5) if name == "div" else (-1.0, 1.0)
    a = T.uniform((4, 3), -1.0, 1.0, seed=hash_seed(name) + 1)
    bv = T.uniform((3,), b_lo, b_hi, seed=hash_seed(name) + 2)

    err_a, _, _ = check_gradient(lambda x: ops.reduce_sum(op(x, Tensor(bv.data))), a)
    err_b, _, _ = check_gradient(lambda x: ops.reduce_sum(op(Tensor(a.data), x)), bv)
    assert err_a < TOL and err_b < TOL, f"{name}: {err_a}, {err_b}"


def test_grad_matmul_and_reductions():
    a = T.uniform((3, 4), -1.0, 1.0, 31)
    b = T.uniform((4, 2), -1.0, 1.0, 32)
    err, _, _ = check_gradient(lambda x: ops.reduce_sum(ops.matmul(x, Tensor(b.data))), a)
    assert err < TOL
    err, _, _ = check_gradient(lambda x: ops.reduce_sum(ops.matmul(Tensor(a.data), x)), b)
    assert err < TOL
    x = T.uniform((3, 4), 0.5, 1.5, 33)
    for red in (ops.reduce_sum, ops.reduce_mean, ops.reduce_var):
        err, _, _ = check_gradient(lambda t: ops.reduce_sum(red(t, 1)), x)
        assert err < TOL, red.__name__


def test_grad_shape_ops():
    x = T.uniform((2, 3, 4), -1.0, 1.0, 41)
    cases = [
        lambda t: ops.reduce_sum(ops.mul(ops.reshape(t, (6, 4)), 1.5)),
        lambda t: ops.reduce_sum(ops.mul(ops.transpose(t, (1, 2, 0)), 2.0)),
        lambda t: ops.reduce_sum(ops.mul(ops.flip(t, 2), 0.5)),
        lambda t: ops.reduce_sum(ops.mul(ops.index(t, (1, slice(None), slice(1, 3))), 3.0)),
        lambda t: ops.reduce_sum(ops.mul(ops.take(t, [1, 1, 0], axis=1), 0.7)),
        lambda t: ops.reduce_sum(ops.mul(ops.pad(t, ((0, 1), (1, 0), (2, 2))), 0.9)),
        lambda t: ops.reduce_sum(ops.mul(ops.concat([t, t], axis=0), 1.1)),
        lambda t: ops.reduce_sum(ops.mul(ops.copy(t), 1.3)),
    ]
    for i, fn in enumerate(cases):
        err, _, _ = check_gradient(fn, x)
        assert err < TOL, f"case {i}: rel err {err}"


def test_grad_composite_chain():
    # exercise a chain resembling real block wiring
    def f(x):
        y = ops.add(ops.mul(ops.silu(x), ops.sigmoid(ops.mul(x, 0.5))), ops.softplus(x))
        z = ops.reduce_mean(y, 1)
        return ops.reduce_sum(ops.mul(z, z))

    x = T.uniform((4, 6), -1.5, 1.5, 51)
    err, _, _ = check_gradient(f, x)
    assert err < TOL


def test_finite_diff_validates_input():
    with pytest.raises(ValueError):
        finite_diff_grad(ops.reduce_sum, Tensor([1.0]), h=0.0)


def test_max_rel_err_shape_guard():
    with pytest.raises(ShapeError):
        max_rel_err(np.zeros(3), np.zeros(4))
