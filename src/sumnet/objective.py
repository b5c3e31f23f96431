"""Differentiable training losses over 2-D saliency maps or stacks of them.

Everything here runs through the tensor tape so gradients flow to the
prediction.  Every loss takes a single [H, W] map or a [B, H, W] stack of
maps: statistics are per map, over the last two axes, and a stack returns
the mean of its rows' losses, so one call on a batch records one small set
of tape nodes instead of one set per sample.  Guard terms (1e-12 on
denominators) keep training stable on degenerate batches; the strict
evaluation-time formulas live in `metrics`, implemented separately in plain
numpy so the two routes can cross-check each other.

Sign conventions follow the composite weighting (10, -2, -1, -1, 5) for
(KL, CC, SIM, NSS, MSE): similarity terms enter negatively, divergences
positively, so a perfect prediction drives the composite negative.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

EPS = 2.2e-16  # inherited regularizer inside the KL log
GUARD = 1e-12  # denominator guard for loss-mode statistics

DEFAULT_WEIGHTS = (10.0, -2.0, -1.0, -1.0, 5.0)
_MAP_AXES = (-2, -1)


class NormalizationError(ValueError):
    """A map that must carry positive mass does not."""


def _as_map(x, name: str) -> Tensor:
    t = T.as_tensor(x)
    if t.ndim not in (2, 3):
        raise ShapeError(f"{name} must be a 2-D map or a [B, H, W] stack, got {t.shape}")
    return t


def _check_pair(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"map shapes differ: {a.shape} vs {b.shape}")


def _refuse(bad: np.ndarray, t: Tensor, name: str, problem: str) -> None:
    """Raise NormalizationError naming the first map of t flagged in bad."""
    bad = np.asarray(bad).reshape(-1)
    if bad.any():
        where = f" row {int(np.argmax(bad))}" if t.ndim == 3 else ""
        raise NormalizationError(f"{name}{where} {problem}")


def _row_mean(per_map: Tensor) -> Tensor:
    """A single map's value as is; a stack's per-row values averaged."""
    return per_map if per_map.ndim == 0 else T.reduce_mean(per_map)


def normalize_sum(x, name: str = "map") -> Tensor:
    """Scale each non-negative map to unit mass; zero or negative mass is an error."""
    t = _as_map(x, name)
    total = T.reduce_sum(t, _MAP_AXES, keepdims=True)
    _refuse(t.data.min(axis=_MAP_AXES) < 0.0, t, name, "has negative entries")
    _refuse(total.data <= 0.0, t, name, "has no mass to normalize")
    return T.div(t, total)


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
        ratio = T.div(p, T.add(g, EPS))
    else:
        ratio = T.div(g, T.add(p, EPS))
    return _row_mean(T.reduce_sum(T.mul(g, T.log(T.add(ratio, EPS))), _MAP_AXES))


def cc_loss(gt, pred) -> Tensor:
    """Pearson correlation with guarded denominator (population moments)."""
    g = _as_map(gt, "gt map")
    p = _as_map(pred, "pred map")
    _check_pair(g, p)
    gc = T.sub(g, T.reduce_mean(g, _MAP_AXES, keepdims=True))
    pc = T.sub(p, T.reduce_mean(p, _MAP_AXES, keepdims=True))
    cov = T.reduce_mean(T.mul(gc, pc), _MAP_AXES)
    sg = T.sqrt(T.reduce_mean(T.mul(gc, gc), _MAP_AXES))
    sp = T.sqrt(T.reduce_mean(T.mul(pc, pc), _MAP_AXES))
    return _row_mean(T.div(cov, T.add(T.mul(sg, sp), GUARD)))


def sim_loss(gt, pred) -> Tensor:
    """Histogram intersection of sum-normalized maps: sum of cellwise minima."""
    g = normalize_sum(gt, "gt map")
    p = normalize_sum(pred, "pred map")
    _check_pair(g, p)
    return _row_mean(T.reduce_sum(T.minimum(g, p), _MAP_AXES))


def nss_loss(fixations, pred) -> Tensor:
    """Mean z-scored prediction at fixated cells (population sigma + guard)."""
    f = _as_map(fixations, "fixation map")
    p = _as_map(pred, "pred map")
    _check_pair(f, p)
    n_fix = f.data.sum(axis=_MAP_AXES)
    _refuse(n_fix < 1.0, f, "fixation map", "has no fixations")
    mu = T.reduce_mean(p, _MAP_AXES, keepdims=True)
    sigma = T.sqrt(T.reduce_var(p, _MAP_AXES, keepdims=True))
    z = T.div(T.sub(p, mu), T.add(sigma, GUARD))
    return _row_mean(T.div(T.reduce_sum(T.mul(z, f), _MAP_AXES), n_fix))


def mse_loss(gt, pred) -> Tensor:
    """Mean squared error on the raw [0, 1] maps (no normalization)."""
    g = _as_map(gt, "gt map")
    p = _as_map(pred, "pred map")
    _check_pair(g, p)
    d = T.sub(g, p)
    return _row_mean(T.reduce_mean(T.mul(d, d), _MAP_AXES))


def composite_loss(gt, fixations, pred, weights=DEFAULT_WEIGHTS,
                   kl_literal: bool = False) -> Tensor:
    """Weighted sum: w1*KL + w2*CC + w3*SIM + w4*NSS + w5*MSE.

    On a [B, H, W] stack every term is its mean over the rows, so the result
    is the mean of the per-map composites.
    """
    if len(weights) != 5:
        raise ValueError(f"need 5 loss weights, got {len(weights)}")
    w1, w2, w3, w4, w5 = (float(w) for w in weights)
    total = T.mul(kl_loss(gt, pred, literal=kl_literal), w1)
    total = T.add(total, T.mul(cc_loss(gt, pred), w2))
    total = T.add(total, T.mul(sim_loss(gt, pred), w3))
    total = T.add(total, T.mul(nss_loss(fixations, pred), w4))
    total = T.add(total, T.mul(mse_loss(gt, pred), w5))
    return total
