"""Test oracles no model code runs, each op a numpy pair recorded through
`sumnet.tensor.primitive`: the generic ops (`add` ... `pad`; the six
broadcasting ones sum each gradient back to its operand's shape), the five
loss terms (the tape oracle of `objective.composite_loss`) and the bare scan
kernel, `ssm_recurrence`.  Checked mode also refuses log/sqrt of a negative
and division by zero."""

import math
from typing import Sequence

import numpy as np

import sumnet.tensor as T
from sumnet.objective import (
    EPS,
    GUARD,
    _MAP_AXES,
    _as_map,
    _check_pair,
    _checked_mass,
    _refuse,
)
from sumnet import scan as S
from sumnet.tensor import NumericError, ShapeError, Tensor, as_tensor

# ---------------------------------------------------------------------------
# broadcasting binary ops


def _broadcasting(kind: str, a, b, fwd, bwd) -> Tensor:
    """Record a broadcasting binary op: `fwd(a, b, keep) -> (out, saved)` and
    `bwd(saved, g) -> (ga, gb)` at the broadcast shape; each gradient is summed
    back down to its operand's shape."""
    a, b = as_tensor(a), as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape
    if ash != bsh:
        try:
            np.broadcast_shapes(ash, bsh)
        except ValueError:
            raise ShapeError(f"{kind}: shapes {ash} and {bsh} do not broadcast") from None

    def unbroadcast_bwd(saved, g):
        ga, gb = bwd(saved, g)
        return T._unbroadcast(ga, ash), T._unbroadcast(gb, bsh)

    return T.primitive(kind, (a, b), fwd, unbroadcast_bwd)


def add(a, b) -> Tensor:
    return _broadcasting("add", a, b, lambda a, b, keep: (a + b, None), lambda _, g: (g, g))


def sub(a, b) -> Tensor:
    return _broadcasting("sub", a, b, lambda a, b, keep: (a - b, None), lambda _, g: (g, -g))


def mul(a, b) -> Tensor:
    return _broadcasting("mul", a, b, lambda a, b, keep: (a * b, (a, b)),
                         lambda ab, g: (g * ab[1], g * ab[0]))


def _div_fwd(a, b, keep):
    if T.checked_mode() and (b == 0.0).any():
        raise NumericError("div: division by zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b, (a, b)


def div(a, b) -> Tensor:
    return _broadcasting("div", a, b, _div_fwd,
                         lambda ab, g: (g / ab[1], -g * ab[0] / (ab[1] * ab[1])))


def _select(mask, a, b):
    return np.where(mask, a, b), mask


def _select_bwd(mask, g):
    return g * mask, g * ~mask


def minimum(a, b) -> Tensor:
    """Elementwise min; ties send the gradient to the first operand."""
    return _broadcasting("min", a, b, lambda a, b, keep: _select(a <= b, a, b), _select_bwd)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the gradient to the first operand."""
    return _broadcasting("max", a, b, lambda a, b, keep: _select(a >= b, a, b), _select_bwd)


# ---------------------------------------------------------------------------
# unary ops


def _exp_fwd(x, keep):
    with np.errstate(over="ignore"):
        out = np.exp(x)
    return out, out


def exp(x) -> Tensor:
    return T.primitive("exp", (x,), _exp_fwd, lambda out, g: (g * out,))


def _log_fwd(x, keep):
    if T.checked_mode() and (x < 0.0).any():
        raise NumericError("log: negative argument")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x), x


def log(x) -> Tensor:
    return T.primitive("log", (x,), _log_fwd, lambda x, g: (g / x,))


def _sqrt_fwd(x, keep):
    if T.checked_mode() and (x < 0.0).any():
        raise NumericError("sqrt: negative argument")
    with np.errstate(invalid="ignore"):
        out = np.sqrt(x)
    return out, out


def sqrt(x) -> Tensor:
    return T.primitive("sqrt", (x,), _sqrt_fwd, lambda out, g: (g * 0.5 / out,))


def _sigmoid_fwd(x, keep):
    out = T._sigmoid_raw(x)
    return out, out


def sigmoid(x) -> Tensor:
    return T.primitive("sigmoid", (x,), _sigmoid_fwd, lambda out, g: (g * out * (1.0 - out),))


def _silu_fwd(x, keep):
    s = T._sigmoid_raw(x)
    return x * s, (x, s)


def silu(x) -> Tensor:
    return T.primitive("silu", (x,), _silu_fwd, lambda xs, g: (g * T._silu_grad(*xs),))


def _softplus_fwd(x, keep):
    big = x > 30.0
    out = np.where(big, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    return out, (np.where(big, 1.0, T._sigmoid_raw(x)) if keep else None)


def softplus(x) -> Tensor:
    """log(1 + e^x), returning x directly above 30 to dodge overflow."""
    return T.primitive("softplus", (x,), _softplus_fwd, lambda deriv, g: (g * deriv,))


def gelu(x) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(c (x + a x^3)))."""
    return T.primitive("gelu", (x,), T._gelu_fwd, lambda deriv, g: (g * deriv,))


# ---------------------------------------------------------------------------
# matmul and reductions


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return T.primitive("matmul", (a, b), lambda a, b, keep: (a @ b, (a, b)),
                     lambda ab, g: (g @ ab[1].T, ab[0].T @ g))


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
    return T.primitive("sum", (x,), lambda x, keep: (x.sum(axis=ax, keepdims=keepdims), None),
                     lambda _, g: (_expand_reduced(g, xsh, ax, keepdims).copy(),))


def reduce_mean(x, axes=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axes)
    xsh = x.data.shape
    n = math.prod(xsh[a] for a in ax)
    return T.primitive("mean", (x,), lambda x, keep: (x.mean(axis=ax, keepdims=keepdims), None),
                     lambda _, g: (_expand_reduced(g, xsh, ax, keepdims) / n,))


def reduce_var(x, axes=None, keepdims: bool = False) -> Tensor:
    """Population variance (divide by n, not n-1)."""
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axes)
    xsh = x.data.shape
    n = math.prod(xsh[a] for a in ax)

    def fwd(x, keep):
        centered = x - x.mean(axis=ax, keepdims=True)
        return (centered * centered).mean(axis=ax, keepdims=keepdims), centered

    return T.primitive("var", (x,), fwd, lambda centered, g: (
        _expand_reduced(g, xsh, ax, keepdims) * (2.0 / n) * centered,))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape) -> Tensor:
    def fwd(x, keep):
        try:
            return x.reshape(tuple(shape)), x.shape
        except ValueError:
            raise ShapeError(f"cannot reshape {x.shape} to {tuple(shape)}") from None

    return T.primitive("reshape", (x,), fwd, lambda xsh, g: (g.reshape(xsh),))


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for ndim {x.ndim}")
    inv = tuple(int(a) for a in np.argsort(axes))
    return T.primitive("transpose", (x,),
                     lambda x, keep: (np.ascontiguousarray(x.transpose(axes)), None),
                     lambda _, g: (np.ascontiguousarray(g.transpose(inv)),))


def flip(x, axis: int) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axis)[0]
    return T.primitive("flip", (x,), lambda x, keep: (np.ascontiguousarray(np.flip(x, ax)), None),
                     lambda _, g: (np.ascontiguousarray(np.flip(g, ax)),))


def copy(x) -> Tensor:
    """Identity with a fresh buffer (no aliasing of the input's storage)."""
    return T.primitive("copy", (x,), lambda x, keep: (x.copy(), None), lambda _, g: (g,))


def index(x, key) -> Tensor:
    """Basic indexing (ints, slices and None axes, which insert a length-1 axis);
    the gradient scatters back into place."""

    def fwd(x, keep):
        try:
            out = x[key]
        except IndexError:
            raise ShapeError(f"index {key!r} invalid for shape {x.shape}") from None
        return np.asarray(out).copy(), x.shape

    def bwd(xsh, g):
        gz = np.zeros(xsh)
        gz[key] = g  # basic keys never alias, plain assignment is the scatter
        return (gz,)

    return T.primitive("index", (x,), fwd, bwd)


def take(x, indices, axis: int = 0) -> Tensor:
    """Integer-array gather along one axis; duplicate rows accumulate grads."""
    x = as_tensor(x)
    ax = _norm_axes(x.ndim, axis)[0]
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take expects a 1-D index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[ax]):
        raise ShapeError(f"take indices out of range for axis {ax} of shape {x.shape}")

    def bwd(xsh, g):
        gz = np.zeros(xsh)
        np.add.at(gz, (slice(None),) * ax + (idx,), g)
        return (gz,)

    return T.primitive("take", (x,), lambda x, keep: (np.take(x, idx, axis=ax), x.shape), bwd)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    ax = _norm_axes(tensors[0].ndim, axis)[0]

    def fwd(*arrays, keep):
        try:
            out = np.concatenate(arrays, axis=ax)
        except ValueError:
            raise ShapeError(
                f"concat shapes incompatible: {[a.shape for a in arrays]} on axis {ax}"
            ) from None
        return out, [a.shape[ax] for a in arrays]

    def bwd(sizes, g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=ax)
        return [np.ascontiguousarray(p) for p in pieces]

    return T.primitive("concat", tensors, fwd, bwd)


def pad(x, pad_width) -> Tensor:
    """Zero padding; pad_width is a ((before, after), ...) pair per axis."""
    x = as_tensor(x)
    pw = tuple((int(b), int(a)) for b, a in pad_width)
    if len(pw) != x.ndim:
        raise ShapeError(f"pad needs {x.ndim} (before, after) pairs, got {len(pw)}")
    if any(b < 0 or a < 0 for b, a in pw):
        raise ShapeError("pad amounts must be non-negative")
    inner = tuple(slice(b, b + s) for (b, _), s in zip(pw, x.shape))
    return T.primitive("pad", (x,), lambda x, keep: (np.pad(x, pw), None),
                     lambda _, g: (np.ascontiguousarray(g[inner]),))


# ---------------------------------------------------------------------------
# the loss terms: the tape oracle of objective.composite_loss


def _row_mean(per_map: Tensor) -> Tensor:
    """A single map's value as is; a stack's per-row values averaged."""
    return per_map if per_map.ndim == 0 else reduce_mean(per_map)


def normalize_sum(x, name: str = "map") -> Tensor:
    """Scale each non-negative map to unit mass; zero or negative mass is an error."""
    t = _as_map(x, name)
    _checked_mass(t, name)
    return div(t, reduce_sum(t, _MAP_AXES, keepdims=True))


def kl_loss(gt, pred, literal: bool = False) -> Tensor:
    """KL divergence between sum-normalized maps.

    Default orientation penalizes missing predicted mass where the target
    has mass: sum(g * log(EPS + g / (p + EPS))).  `literal` flips the ratio
    to sum(g * log(EPS + p / (g + EPS))) -- a printed form kept only for
    side-by-side debugging; it rewards shrinking p wherever g > 0 and is not
    a divergence.
    """
    g = normalize_sum(gt, "gt map")
    p = normalize_sum(pred, "pred map")
    _check_pair(g, p)
    if literal:
        ratio = div(p, add(g, EPS))
    else:
        ratio = div(g, add(p, EPS))
    return _row_mean(reduce_sum(mul(g, log(add(ratio, EPS))), _MAP_AXES))


def cc_loss(gt, pred) -> Tensor:
    """Pearson correlation with guarded denominator (population moments)."""
    g = _as_map(gt, "gt map")
    p = _as_map(pred, "pred map")
    _check_pair(g, p)
    gc = sub(g, reduce_mean(g, _MAP_AXES, keepdims=True))
    pc = sub(p, reduce_mean(p, _MAP_AXES, keepdims=True))
    cov = reduce_mean(mul(gc, pc), _MAP_AXES)
    sg = sqrt(reduce_mean(mul(gc, gc), _MAP_AXES))
    sp = sqrt(reduce_mean(mul(pc, pc), _MAP_AXES))
    return _row_mean(div(cov, add(mul(sg, sp), GUARD)))


def sim_loss(gt, pred) -> Tensor:
    """Histogram intersection of sum-normalized maps: sum of cellwise minima."""
    g = normalize_sum(gt, "gt map")
    p = normalize_sum(pred, "pred map")
    _check_pair(g, p)
    return _row_mean(reduce_sum(minimum(g, p), _MAP_AXES))


def nss_loss(fixations, pred) -> Tensor:
    """Mean z-scored prediction at fixated cells (population sigma + guard)."""
    f = _as_map(fixations, "fixation map")
    p = _as_map(pred, "pred map")
    _check_pair(f, p)
    n_fix = f.data.sum(axis=_MAP_AXES)
    _refuse(n_fix < 1.0, f, "fixation map", "has no fixations")
    mu = reduce_mean(p, _MAP_AXES, keepdims=True)
    sigma = sqrt(reduce_var(p, _MAP_AXES, keepdims=True))
    z = div(sub(p, mu), add(sigma, GUARD))
    return _row_mean(div(reduce_sum(mul(z, f), _MAP_AXES), n_fix))


def mse_loss(gt, pred) -> Tensor:
    """Mean squared error on the raw [0, 1] maps (no normalization)."""
    g = _as_map(gt, "gt map")
    p = _as_map(pred, "pred map")
    _check_pair(g, p)
    d = sub(g, p)
    return _row_mean(reduce_mean(mul(d, d), _MAP_AXES))


# ---------------------------------------------------------------------------
# the scan kernel as one node


def ssm_recurrence(delta, a, b_seq, c_seq, x) -> Tensor:
    """The bare recurrence kernel as one tape node: y [B, L, C] for delta, x
    [B, L, C], b_seq, c_seq [B, L, N] and a [C, N].  Unchecked: its callers
    pass arrays they built."""
    def fwd(delta, a, b_seq, c_seq, x, keep):
        y, state = S._scan_forward(delta, a, b_seq, c_seq, x, keep=keep)
        return y, (delta, a, b_seq, c_seq, x, state)

    return T.primitive("ssm_recurrence", (delta, a, b_seq, c_seq, x), fwd,
                     lambda saved, g: S._scan_backward(g, *saved))
