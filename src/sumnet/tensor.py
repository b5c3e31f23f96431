"""Dense float32 or float64 tensors with a define-by-run reverse-mode tape.

Every op that records a tape node is a numpy pair, `fwd(*arrays, keep) ->
(out, saved)` and `bwd(saved, g) -> gradients`, and records its one node
through `primitive`.  The model's ops are the stage pairs of `blocks`,
`scan` and `objective`: the conditioner, the patch embedding, the whole
gated block, the merges, the decoder up-steps, the saliency head and the
composite loss, with `linear`, `layer_norm`, depthwise conv and `ss2d` as
pairs of their own.  A node's inputs may repeat; `backward` then adds up
each occurrence's gradient in input order.  Tensors wrap C-order numpy
arrays of float32 or float64, kept as given; any other input is converted
to float64.  Every pair allocates in its inputs' dtype, so a float32 model
computes, records and differentiates in float32 throughout; the float64
route is the one the finite-difference checks verify.  When a Tape is
active and an input requires gradients, each operation appends a node (op
kind, input node ids, output node id, `bwd` bound to its saved values) to
the tape; `backward` replays the node list once in reverse, accumulating
gradients additively so a value consumed twice gets the sum of both branch
gradients.  The tape is rebuilt on every forward pass.  The numpy helpers
the pairs share (`_sum_rows`, `_unbroadcast`, `_sigmoid_raw`, `_silu_grad`,
`_gelu_fwd`) live here too; `_sum_rows` reads its vector of ones from a
cache bounded and keyed on the length and dtype, which hands out read-only
arrays.

`finite_diff_grad` is the independent oracle for the gradient-check suite:
central differences evaluated with recording suspended.

Checked mode (on by default; `_op_checks(False)` turns it off) raises
NumericError when an op produces a non-finite value, naming the op.
Direct op calls are checked op by op.  The model checks at its boundaries
(`checked_at_boundary`): per-op checks off, one `isfinite` on the output,
and a checked replay that names the op when the output is not finite, so a
non-finite intermediate squashed before it (exp(exp(1000) * -1) = 0) passes.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .rng import derive, uniform_array, uniform_stack


class ShapeError(ValueError):
    """Invalid shape, dimension, axis, or broadcast."""


class NumericError(ArithmeticError):
    """Domain violation or non-finite value caught in checked mode."""


class _ThreadState(threading.local):
    """Per-thread state: the tape stack and the flags of the scopes below."""

    def __init__(self):
        self.stack = []
        self.skip_draws = False
        # per-op checks, the one checked-mode switch: None at the top level
        # (on), False in a boundary's first run or under _op_checks(False),
        # True in a replay; a boundary inside False or True calls through
        self.op_checks = None


_local = _ThreadState()


def checked_mode() -> bool:
    """False inside `_op_checks(False)`: at the top level that turns every
    check off, the boundaries' too; inside a boundary's first run its
    caller owns the check."""
    return _local.op_checks is not False


def active_tape():
    stack = _local.stack
    return stack[-1] if stack else None


class _suspend_recording:
    """Context that hides the active tape (the finite-difference oracle, a replay)."""

    def __enter__(self):
        _local.stack.append(None)
        return self

    def __exit__(self, *exc):
        _local.stack.pop()
        return False


class _scope:
    """Context that sets one field of this thread's state, restored on exit,
    exceptions included."""

    def __init__(self, field: str, value):
        self._field, self._value = field, value

    def __enter__(self):
        self._prev = getattr(_local, self._field)
        setattr(_local, self._field, self._value)
        return self

    def __exit__(self, *exc):
        setattr(_local, self._field, self._prev)
        return False


def skip_draws() -> _scope:
    """Context in which `init_uniforms` allocates without drawing: for a build
    whose every parameter is overwritten next (``Model.from_state``).  Per
    thread, and restored on exit, exceptions included."""
    return _scope("skip_draws", True)


def _op_checks(on: bool) -> _scope:
    """Context in which the per-op checks (`_check`, and any check that reads
    `checked_mode`) run or not as `on` says, and a `checked_at_boundary`
    inside calls through: the caller owns the check.
    Off, a check costs an attribute read."""
    return _scope("op_checks", bool(on))


def replay_checked(fn, *args):
    """fn(*args) with recording suspended and every per-op check on, nested
    boundaries included: rerun a deterministic computation whose output
    tripped a boundary, so its NumericError names the op.  numpy's
    floating-point warnings are silenced: the per-op checks report."""
    with _suspend_recording(), _op_checks(True), np.errstate(all="ignore"):
        return fn(*args)


def checked_at_boundary(kind: str, fn, *args):
    """fn(*args) -> Tensor with per-op checks off and one check of its output.

    fn must be deterministic in its arguments and in state nothing changes
    between two calls.  The first run raises no floating-point warning; a
    non-finite output is replayed (`replay_checked`), which raises the op's
    NumericError, and if the replay finds none, the error names `kind`.
    Inside `_op_checks` (checked mode off, an enclosing boundary or a
    replay) this is fn(*args).
    """
    if _local.op_checks is not None:
        return fn(*args)
    with _op_checks(False), np.errstate(all="ignore"):
        out = fn(*args)
    if not np.isfinite(out.data).all():
        replay_checked(fn, *args)
        raise NumericError(f"{kind}: produced a non-finite value")
    return out


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Immutable-by-convention float32 or float64 array plus gradient metadata."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:  # ints, bools, other floats: float64
            arr = arr.astype(np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Node:
    """One tape entry.  Saved forward values are bound into grad_fn."""

    __slots__ = ("kind", "input_ids", "output_id", "grad_fn")

    def __init__(self, kind: str, input_ids: tuple, output_id: int, grad_fn):
        self.kind = kind
        self.input_ids = input_ids
        self.output_id = output_id
        self.grad_fn = grad_fn


class Tape:
    """Append-only op record; a context manager that activates itself."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._ids: dict[int, int] = {}  # id(tensor) -> node index
        self._tensors: list[Tensor] = []  # node index -> tensor (keeps ids alive)

    def __enter__(self):
        _local.stack.append(self)
        return self

    def __exit__(self, *exc):
        _local.stack.pop()
        return False

    def __len__(self):
        return len(self.nodes)

    def _ensure(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(Node("leaf", (), nid, None))
            self._ids[id(t)] = nid
            self._tensors.append(t)
        return nid

    def _record(self, kind: str, inputs: list, out: Tensor, grad_fn) -> None:
        input_ids = tuple([self._ensure(t) for t in inputs])
        nid = len(self.nodes)
        self.nodes.append(Node(kind, input_ids, nid, grad_fn))
        self._ids[id(out)] = nid
        self._tensors.append(out)


def _check(kind: str, out: np.ndarray) -> None:
    if _local.op_checks is not False and not np.isfinite(out).all():
        raise NumericError(f"{kind}: produced a non-finite value")


def _recording_tape(inputs: list):
    """The tape an op over `inputs` records on, or None when nothing records.

    An op is recorded when a tape is active (not suspended) and at least one
    input requires a gradient.  `primitive` asks before its forward, so the
    forward can skip saving state that only a backward pass would read.
    Every op passes here, so it reads the tape stack itself (see active_tape).
    """
    stack = _local.stack
    if stack and stack[-1] is not None:
        for t in inputs:
            if t.requires_grad:
                return stack[-1]
    return None


def primitive(kind: str, inputs, fwd, bwd) -> Tensor:
    """One tape node for an op given as a numpy forward/backward pair.

    Every op that records a node comes through here: the stage pairs of
    `blocks`, `scan` and `objective`.  Runs `fwd(*arrays, keep=keep) -> (out,
    saved)` on the inputs' arrays (plain arrays are accepted as
    inputs).  `keep` is True exactly when the node records, so a forward can
    skip state only its backward reads.  The node's gradient is
    `bwd(saved, g)`, one array (or None) per input.  In checked mode a
    non-finite `out` raises NumericError naming `kind`.
    """
    inputs = [t if isinstance(t, Tensor) else Tensor(t) for t in inputs]
    tape = _recording_tape(inputs)
    out, saved = fwd(*[t.data for t in inputs], keep=tape is not None)
    _check(kind, out)
    out = Tensor(out, requires_grad=tape is not None)
    if tape is not None:
        tape._record(kind, inputs, out, partial(bwd, saved))
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep over the tape; fills .grad on leaf tensors.

    Returns {leaf tensor: gradient array} for every leaf with requires_grad.
    A leaf the loss never touched gets a zero gradient, not an error.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {}
    lid = tape._ids.get(id(loss))
    if lid is not None:
        grads[lid] = np.ones_like(loss.data)
        for node in reversed(tape.nodes):
            if node.grad_fn is None:
                continue  # leaf: keep whatever accumulated
            g = grads.pop(node.output_id, None)
            if g is None:
                continue  # branch not reached by the loss
            for iid, ig in zip(node.input_ids, node.grad_fn(g)):
                if ig is None:
                    continue
                if iid in grads:
                    grads[iid] = grads[iid] + ig
                else:
                    grads[iid] = ig
    results: dict = {}
    for idx, t in enumerate(tape._tensors):
        if tape.nodes[idx].grad_fn is None and t.requires_grad:
            g = grads.get(idx)
            # ascontiguousarray turns a 0-d gradient 1-d; the reshape keeps the leaf's shape
            t.grad = (np.zeros_like(t.data) if g is None
                      else np.ascontiguousarray(g).reshape(t.data.shape))
            results[t] = t.grad
    return results


# ---------------------------------------------------------------------------
# creation


def _validate_shape(shape) -> tuple:
    dims = tuple(int(d) for d in shape)
    if any(d < 1 for d in dims):
        raise ShapeError(f"dimensions must be positive, got {dims}")
    return dims


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_validate_shape(shape), dtype=np.float64), requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_validate_shape(shape), float(value), dtype=np.float64), requires_grad)


def uniform(shape, lo: float, hi: float, seed: int, requires_grad: bool = False) -> Tensor:
    return Tensor(uniform_array(_validate_shape(shape), lo, hi, seed), requires_grad)


def init_uniforms(shape, bound: float, seed: int, labels, field: str) -> np.ndarray:
    """[len(labels), *shape] uniforms in [-bound, bound), row k from the stream
    derive(seed, labels[k], field), in one uniform_stack pass: the one source
    of the init helpers' random values.  Under `skip_draws`, uninitialized."""
    dims = _validate_shape(shape)
    if _local.skip_draws:
        return np.empty((len(labels),) + dims, dtype=np.float64)
    return uniform_stack(dims, -bound, bound, [derive(seed, label, field) for label in labels])


# ---------------------------------------------------------------------------
# numpy helpers of the fused pairs


@lru_cache(maxsize=64)
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """A read-only vector of n ones in `dtype`, built once per (length, dtype)."""
    v = np.ones(n, dtype=dtype)
    v.flags.writeable = False
    return v


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x [..., M, K] summed over its M rows: a matmul with a vector of ones,
    which BLAS runs several times faster than ``ndarray.sum`` over a
    non-trailing axis; the order of the additions differs, so the last bits
    may."""
    return _ones(x.shape[-2], x.dtype) @ x


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        lead, rest = math.prod(g.shape[:extra]), g.shape[extra:]
        g = _sum_rows(g.reshape(lead, math.prod(rest))).reshape(rest)
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0, e / (1 + e) below, e = exp(-|x|): stable in
    both tails, and one masked divide, so each element is still one IEEE
    division of the same operands.  e is built in one buffer."""
    e = np.abs(x)
    np.negative(e, e)
    np.exp(e, e)
    out = np.where(x >= 0.0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _silu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s (1 + x (1 - s)) for s = sigmoid(x), in one buffer: the same IEEE
    operations on the same operands, without three temporaries."""
    out = 1.0 - s
    out *= x
    out += 1.0
    out *= s
    return out


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_fwd(x, keep):
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + a x^3))), on an array:
    (out, its derivative when `keep`, else None).  The cube is x * x * x,
    two multiplies, not numpy's `power`, a libm call per element."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    deriv = None
    if keep:
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return 0.5 * x * (1.0 + t), deriv


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_grad(f: Callable, x: Tensor, h: float = 1e-4) -> Tensor:
    """Central-difference gradient of a scalar-valued f at x.

    Runs with recording suspended so f's internal ops never hit the tape.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    base = np.array(x.data, dtype=np.float64)
    flat = base.ravel().copy()
    out = np.empty_like(flat)
    with _suspend_recording():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(as_tensor(f(Tensor(flat.reshape(base.shape)))).data.reshape(()))
            flat[i] = orig - h
            fm = float(as_tensor(f(Tensor(flat.reshape(base.shape)))).data.reshape(()))
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("finite_diff_grad: non-finite function value")
            out[i] = (fp - fm) / (2.0 * h)
    return Tensor(out.reshape(base.shape))


def max_rel_err(auto: np.ndarray, fd: np.ndarray) -> float:
    """max |auto - fd| / (1e-8 + |fd|), the suite's shared error measure."""
    auto = np.asarray(auto, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    if auto.shape != fd.shape:
        raise ShapeError(f"gradient shape mismatch: {auto.shape} vs {fd.shape}")
    if auto.size == 0:
        return 0.0
    return float(np.max(np.abs(auto - fd) / (1e-8 + np.abs(fd))))


def check_gradient(f: Callable, x: Tensor, h: float = 1e-4):
    """Compare tape gradient of f at x against finite differences.

    Returns (max relative error, tape gradient, finite-difference gradient).
    """
    with Tape() as tape:
        xg = Tensor(x.data.copy(), requires_grad=True)
        loss = f(xg)
        backward(tape, loss)
        auto = xg.grad
    fd = finite_diff_grad(f, Tensor(x.data.copy()), h).data
    return max_rel_err(auto, fd), auto, fd
