"""Dense float64 tensors with a define-by-run reverse-mode tape.

The generic primitives live here and record through `_emit`.  The fused
primitives of `blocks` and `scan` (`linear`, layer-norm core, depthwise
conv, `selective_scan` over one whole direction, `ss2d` over all four, the
whole gated block, the bare scan recurrence) are each a numpy pair,
`fwd(*arrays, keep) -> (out, saved)` and `bwd(saved, g) -> gradients`, and
record one node each through `primitive`, the one way for code outside
this module to put a node on the tape.  A node's inputs may repeat
(`mul(x, x)`); `backward` then adds up each occurrence's gradient in input
order.  Tensors wrap C-order float64 numpy arrays.  When a Tape is active
and an input requires gradients, each operation appends a node (op kind,
input node ids, output node id, backward closure over saved values) to the
tape; `backward` replays the node list once in reverse, accumulating
gradients additively so a value consumed twice gets the sum of both branch
gradients.  The tape is rebuilt on every forward pass.

`finite_diff_grad` is the independent oracle for the gradient-check suite:
central differences evaluated with recording suspended.

Checked mode (on by default) raises NumericError when an op produces a
non-finite value or hits a domain violation (log/sqrt of a negative,
division by zero).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .rng import derive, uniform_array, uniform_stack


class ShapeError(ValueError):
    """Invalid shape, dimension, axis, or broadcast."""


class NumericError(ArithmeticError):
    """Domain violation or non-finite value caught in checked mode."""


_local = threading.local()
_CHECKED = [True]  # single-element list so closures see toggles


def set_checked(flag: bool) -> bool:
    """Toggle checked mode; returns the previous setting."""
    prev = _CHECKED[0]
    _CHECKED[0] = bool(flag)
    return prev


def checked_mode() -> bool:
    return _CHECKED[0]


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class _suspend_recording:
    """Context that hides the active tape (used by the finite-difference oracle)."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class skip_draws:
    """Context in which `init_uniforms` allocates without drawing: for a build
    whose every parameter is overwritten next (``Model.from_state``).  Per
    thread, and restored on exit, exceptions included."""

    def __enter__(self):
        self._prev = getattr(_local, "skip_draws", False)
        _local.skip_draws = True
        return self

    def __exit__(self, *exc):
        _local.skip_draws = self._prev
        return False


class Tensor:
    """Immutable-by-convention float64 array plus gradient metadata."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
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

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axes=None, keepdims: bool = False):
        return reduce_sum(self, axes, keepdims)

    def mean(self, axes=None, keepdims: bool = False):
        return reduce_mean(self, axes, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Node:
    """One tape entry.  Saved forward values live in the grad_fn closure."""

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
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
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

    def _record(self, kind: str, inputs: tuple, out: Tensor, grad_fn) -> None:
        input_ids = tuple(self._ensure(t) for t in inputs)
        nid = len(self.nodes)
        self.nodes.append(Node(kind, input_ids, nid, grad_fn))
        self._ids[id(out)] = nid
        self._tensors.append(out)


def _check(kind: str, out: np.ndarray) -> None:
    if _CHECKED[0] and not np.isfinite(out).all():
        raise NumericError(f"{kind}: produced a non-finite value")


def _recording_tape(inputs: tuple):
    """The tape an op over `inputs` records on, or None when nothing records.

    An op is recorded when a tape is active (not suspended) and at least one
    input requires a gradient.  `primitive` asks before its forward, so the
    forward can skip saving state that only a backward pass would read.
    Every op passes here, so it reads the tape stack itself (see active_tape).
    """
    stack = _tape_stack()
    if stack and stack[-1] is not None and any(t.requires_grad for t in inputs):
        return stack[-1]
    return None


def _emit(kind: str, inputs: tuple, out_data: np.ndarray, make_grad_fn) -> Tensor:
    """Shared recording path.  make_grad_fn is called lazily, only when taping."""
    _check(kind, out_data)
    tape = _recording_tape(inputs)
    out = Tensor(out_data, requires_grad=tape is not None)
    if tape is not None:
        tape._record(kind, inputs, out, make_grad_fn())
    return out


def primitive(kind: str, inputs, fwd, bwd) -> Tensor:
    """One tape node for a fused op given as a numpy forward/backward pair.

    Runs `fwd(*arrays, keep=keep) -> (out, saved)` on the inputs' arrays
    (plain arrays are accepted as inputs).  `keep` is True exactly when the
    node records, so a forward can skip state only its backward reads.  The
    node's gradient is `bwd(saved, g)`, one array (or None) per input.  In
    checked mode a non-finite `out` raises NumericError naming `kind`.
    """
    inputs = tuple(as_tensor(t) for t in inputs)
    out, saved = fwd(*(t.data for t in inputs), keep=_recording_tape(inputs) is not None)
    return _emit(kind, inputs, out, lambda: lambda g: bwd(saved, g))


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
    return Tensor(np.zeros(_validate_shape(shape)), requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_validate_shape(shape), float(value)), requires_grad)


def uniform(shape, lo: float, hi: float, seed: int, requires_grad: bool = False) -> Tensor:
    return Tensor(uniform_array(_validate_shape(shape), lo, hi, seed), requires_grad)


def init_uniforms(shape, bound: float, seed: int, labels, field: str) -> np.ndarray:
    """[len(labels), *shape] uniforms in [-bound, bound), row k from the stream
    derive(seed, labels[k], field), in one uniform_stack pass: the one source
    of the init helpers' random values.  Under `skip_draws`, uninitialized."""
    dims = _validate_shape(shape)
    if getattr(_local, "skip_draws", False):
        return np.empty((len(labels),) + dims)
    return uniform_stack(dims, -bound, bound, [derive(seed, label, field) for label in labels])


# ---------------------------------------------------------------------------
# broadcasting binary ops


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_check(kind: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("add", a, b)
    ash, bsh = a.data.shape, b.data.shape

    def make():
        return lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh))

    return _emit("add", (a, b), a.data + b.data, make)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("sub", a, b)
    ash, bsh = a.data.shape, b.data.shape

    def make():
        return lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh))

    return _emit("sub", (a, b), a.data - b.data, make)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("mul", a, b)
    ad, bd = a.data, b.data

    def make():
        return lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return _emit("mul", (a, b), ad * bd, make)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("div", a, b)
    ad, bd = a.data, b.data
    if _CHECKED[0] and (bd == 0.0).any():
        raise NumericError("div: division by zero")

    def make():
        return lambda g: (
            _unbroadcast(g / bd, ad.shape),
            _unbroadcast(-g * ad / (bd * bd), bd.shape),
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = ad / bd
    return _emit("div", (a, b), out_data, make)


def minimum(a, b) -> Tensor:
    """Elementwise min; ties send the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("min", a, b)
    ad, bd = a.data, b.data
    mask = ad <= bd

    def make():
        return lambda g: (
            _unbroadcast(g * mask, ad.shape),
            _unbroadcast(g * ~mask, bd.shape),
        )

    return _emit("min", (a, b), np.where(mask, ad, bd), make)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("max", a, b)
    ad, bd = a.data, b.data
    mask = ad >= bd

    def make():
        return lambda g: (
            _unbroadcast(g * mask, ad.shape),
            _unbroadcast(g * ~mask, bd.shape),
        )

    return _emit("max", (a, b), np.where(mask, ad, bd), make)


# ---------------------------------------------------------------------------
# unary ops


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def make():
        return lambda g: (g * out_data,)

    return _emit("exp", (x,), out_data, make)


def log(x) -> Tensor:
    x = as_tensor(x)
    if _CHECKED[0] and (x.data < 0.0).any():
        raise NumericError("log: negative argument")
    xd = x.data

    def make():
        return lambda g: (g / xd,)

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(xd)
    return _emit("log", (x,), out_data, make)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    if _CHECKED[0] and (x.data < 0.0).any():
        raise NumericError("sqrt: negative argument")
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(x.data)

    def make():
        return lambda g: (g * 0.5 / out_data,)

    return _emit("sqrt", (x,), out_data, make)


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    # stable in both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out_data = _sigmoid_raw(x.data)

    def make():
        return lambda g: (g * out_data * (1.0 - out_data),)

    return _emit("sigmoid", (x,), out_data, make)


def _silu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s * (1.0 + x * (1.0 - s))


def silu(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    s = _sigmoid_raw(xd)

    def make():
        return lambda g: (g * _silu_grad(xd, s),)

    return _emit("silu", (x,), xd * s, make)


def softplus(x) -> Tensor:
    """log(1 + e^x), returning x directly above 30 to dodge overflow."""
    x = as_tensor(x)
    xd = x.data
    big = xd > 30.0
    out_data = np.where(big, xd, np.log1p(np.exp(np.minimum(xd, 30.0))))

    def make():
        deriv = np.where(big, 1.0, _sigmoid_raw(xd))
        return lambda g: (g * deriv,)

    return _emit("softplus", (x,), out_data, make)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(c (x + a x^3)))."""
    x = as_tensor(x)
    xd = x.data
    inner = _GELU_C * (xd + _GELU_A * xd**3)
    t = np.tanh(inner)

    def make():
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        deriv = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return lambda g: (g * deriv,)

    return _emit("gelu", (x,), 0.5 * xd * (1.0 + t), make)


# ---------------------------------------------------------------------------
# matmul and reductions


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def make():
        return lambda g: (g @ bd.T, ad.T @ g)

    return _emit("matmul", (a, b), ad @ bd, make)


def _norm_axes(ndim: int, axes) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = []
    for ax in axes:
        ax = int(ax)
        if ax < 0:
            ax += ndim
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
        out.append(ax)
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(out))


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(x, axes=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axes)
    xsh = x.data.shape

    def make():
        return lambda g: (_expand_reduced(g, xsh, ax, keepdims).copy(),)

    return _emit("sum", (x,), x.data.sum(axis=ax, keepdims=keepdims), make)


def reduce_mean(x, axes=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axes)
    xsh = x.data.shape
    n = 1
    for a in ax:
        n *= xsh[a]

    def make():
        return lambda g: (_expand_reduced(g, xsh, ax, keepdims) / n,)

    return _emit("mean", (x,), x.data.mean(axis=ax, keepdims=keepdims), make)


def reduce_var(x, axes=None, keepdims: bool = False) -> Tensor:
    """Population variance (divide by n, not n-1)."""
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axes)
    xd = x.data
    n = 1
    for a in ax:
        n *= xd.shape[a]
    mu = xd.mean(axis=ax, keepdims=True)
    centered = xd - mu
    out_data = (centered * centered).mean(axis=ax, keepdims=keepdims)

    def make():
        return lambda g: (
            _expand_reduced(g, xd.shape, ax, keepdims) * (2.0 / n) * centered,
        )

    return _emit("var", (x,), out_data, make)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        out_data = x.data.reshape(tuple(shape))
    except ValueError:
        raise ShapeError(f"cannot reshape {x.shape} to {tuple(shape)}") from None
    xsh = x.data.shape

    def make():
        return lambda g: (g.reshape(xsh),)

    return _emit("reshape", (x,), out_data, make)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for ndim {x.ndim}")
    inv = tuple(int(a) for a in np.argsort(axes))

    def make():
        return lambda g: (np.ascontiguousarray(g.transpose(inv)),)

    return _emit("transpose", (x,), np.ascontiguousarray(x.data.transpose(axes)), make)


def flip(x, axis: int) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axis)[0]

    def make():
        return lambda g: (np.ascontiguousarray(np.flip(g, ax)),)

    return _emit("flip", (x,), np.ascontiguousarray(np.flip(x.data, ax)), make)


def copy(x) -> Tensor:
    """Identity with a fresh buffer (no aliasing of the input's storage)."""
    x = as_tensor(x)

    def make():
        return lambda g: (g,)

    return _emit("copy", (x,), x.data.copy(), make)


def index(x, key) -> Tensor:
    """Basic indexing (ints and slices); gradient scatters back into place."""
    x = as_tensor(x)
    try:
        out_data = x.data[key]
    except IndexError:
        raise ShapeError(f"index {key!r} invalid for shape {x.shape}") from None
    if not isinstance(out_data, np.ndarray):
        out_data = np.asarray(out_data)
    xd_shape, xd_dtype = x.data.shape, x.data.dtype

    def make():
        def grad_fn(g):
            gz = np.zeros(xd_shape, dtype=xd_dtype)
            gz[key] = g  # basic keys never alias, plain assignment is the scatter
            return (gz,)

        return grad_fn

    return _emit("index", (x,), out_data.copy(), make)


def take(x, indices, axis: int = 0) -> Tensor:
    """Integer-array gather along one axis; duplicate rows accumulate grads."""
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axis)[0]
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take expects a 1-D index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[ax]):
        raise ShapeError(f"take indices out of range for axis {ax} of shape {x.shape}")
    xd_shape = x.data.shape

    def make():
        def grad_fn(g):
            gz = np.zeros(xd_shape)
            np.add.at(gz, (slice(None),) * ax + (idx,), g)
            return (gz,)

        return grad_fn

    return _emit("take", (x,), np.take(x.data, idx, axis=ax), make)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    ax = _norm_axes(tensors[0].ndim, axis)[0]
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=ax)
    except ValueError:
        raise ShapeError(
            f"concat shapes incompatible: {[t.shape for t in tensors]} on axis {ax}"
        ) from None
    sizes = [t.shape[ax] for t in tensors]

    def make():
        def grad_fn(g):
            pieces = np.split(g, np.cumsum(sizes)[:-1], axis=ax)
            return tuple(np.ascontiguousarray(p) for p in pieces)

        return grad_fn

    return _emit("concat", tuple(tensors), out_data, make)


def pad(x, pad_width) -> Tensor:
    """Zero padding; pad_width is a ((before, after), ...) pair per axis."""
    x = as_tensor(x)
    pw = tuple((int(b), int(a)) for b, a in pad_width)
    if len(pw) != x.ndim:
        raise ShapeError(f"pad needs {x.ndim} (before, after) pairs, got {len(pw)}")
    if any(b < 0 or a < 0 for b, a in pw):
        raise ShapeError("pad amounts must be non-negative")
    xsh = x.data.shape
    inner = tuple(slice(b, b + s) for (b, _), s in zip(pw, xsh))

    def make():
        return lambda g: (np.ascontiguousarray(g[inner]),)

    return _emit("pad", (x,), np.pad(x.data, pw), make)


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
