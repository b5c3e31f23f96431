"""Differentiable training losses over 2-D saliency maps or stacks of them.

The loss takes a single [H, W] map or a [B, H, W] stack of maps: statistics
are per map, over the last two axes, and a stack returns the mean of its
rows' losses.  It computes in float64 whatever the prediction's dtype, and
returns its value and the prediction's gradient in that dtype: a map's mass
and spread sum and square values that float32 underflows (the squares of a
spread below 1e-19, the square of a mass below 1e-19), and on [B, S, S]
values the two casts cost little next to the network.  `composite_loss`,
the objective training runs, is one numpy forward/backward pair recorded as
one node over the prediction: the targets' statistics are batch constants,
computed once per call, and the forward runs the numpy operations of its
five terms (KL, CC, SIM, NSS, MSE) in the order a tape of generic ops
would, so its value equals the weighted sum of the five term functions the
tests keep as its oracle, bit for bit.  Guard terms (1e-12 on denominators)
keep training stable on degenerate batches; the strict evaluation-time
formulas live in `metrics`, implemented separately in plain numpy so the
two routes can cross-check each other.

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


def _checked_mass(t: Tensor, name: str) -> np.ndarray:
    """Each map's total mass, [.., 1, 1]; a map with a negative entry or no
    mass is refused."""
    total = t.data.sum(axis=_MAP_AXES, keepdims=True)
    _refuse(t.data.min(axis=_MAP_AXES) < 0.0, t, name, "has negative entries")
    _refuse(total <= 0.0, t, name, "has no mass to normalize")
    return total


def composite_loss(gt, fixations, pred, weights=DEFAULT_WEIGHTS,
                   kl_literal: bool = False) -> Tensor:
    """Weighted sum: w1*KL + w2*CC + w3*SIM + w4*NSS + w5*MSE; one tape node.

    On a [B, H, W] stack every term is its mean over the rows, so the result
    is the mean of the per-map composites.  The node's one input is `pred`:
    `gt` and `fixations` are targets, and their statistics are computed here
    once per call, in plain numpy.  The inputs are checked as the five term
    oracles check them, in the same order and with the same messages.
    """
    if len(weights) != 5:
        raise ValueError(f"need 5 loss weights, got {len(weights)}")
    g = _as_map(gt, "gt map")
    g_total = _checked_mass(g, "gt map")
    p = _as_map(pred, "pred map")
    _checked_mass(p, "pred map")
    _check_pair(g, p)
    f = _as_map(fixations, "fixation map")
    _check_pair(f, p)
    n_fix = f.data.sum(axis=_MAP_AXES, keepdims=True)
    _refuse(n_fix < 1.0, f, "fixation map", "has no fixations")
    gt, fix = g.data, f.data
    gc = gt - gt.mean(axis=_MAP_AXES, keepdims=True)
    targets = (gt, gt / g_total, gc, np.sqrt((gc * gc).mean(axis=_MAP_AXES, keepdims=True)),
               fix, n_fix)
    weights = tuple(float(w) for w in weights)
    return T.primitive("composite_loss", (p,),
                       lambda p, keep: _composite_fwd(p, targets, weights, kl_literal),
                       lambda grad_fn, g: grad_fn(g))


def _composite_fwd(p, targets, weights, literal):
    """composite_loss on the prediction's array: (loss, grad_fn), the loss in
    p's dtype, computed in float64.

    `targets` are the batch constants: the raw target, its unit-mass
    normalization (KL and SIM share it), its centred copy and sigma (CC),
    the fixation map and its per-map counts, all per-map statistics kept as
    [.., 1, 1].  Each term is the same numpy expression, in the same order,
    as the tape ops of its term function, so the loss is bit-identical to
    theirs.  With per-op checks on, a non-finite term raises NumericError
    naming it, e.g. "composite_loss cc: produced a non-finite value".
    grad_fn(g) returns the prediction's gradient as a one-element tuple.
    """
    gt, gn, gc, sg, fix, n_fix = targets
    dtype, p = p.dtype, p.astype(np.float64, copy=False)
    w1, w2, w3, w4, w5 = weights
    ax, stack, check = _MAP_AXES, p.ndim == 3, T._check

    def row_mean(per_map):  # per-map values [.., 1, 1] -> the loss's scalar
        return per_map.reshape(-1).mean() if stack else per_map.reshape(())

    with np.errstate(divide="ignore", invalid="ignore"):
        total = p.sum(axis=ax, keepdims=True)
        pn = p / total
        den = gn + EPS if literal else pn + EPS
        arg = (pn if literal else gn) / den + EPS
        kl = row_mean((gn * np.log(arg)).sum(axis=ax, keepdims=True))
        check("composite_loss kl", kl)
        pc = p - p.mean(axis=ax, keepdims=True)
        cov = (gc * pc).mean(axis=ax, keepdims=True)
        sigma = np.sqrt((pc * pc).mean(axis=ax, keepdims=True))
        cc_den = sg * sigma + GUARD
        cc = row_mean(cov / cc_den)
        check("composite_loss cc", cc)
        mask = gn <= pn
        sim = row_mean(np.where(mask, gn, pn).sum(axis=ax, keepdims=True))
        check("composite_loss sim", sim)
        nss_den = sigma + GUARD
        zf = (pc / nss_den * fix).sum(axis=ax, keepdims=True)
        nss = row_mean(zf / n_fix)
        check("composite_loss nss", nss)
        d = gt - p
        mse = row_mean((d * d).mean(axis=ax, keepdims=True))
        check("composite_loss mse", mse)
    loss = kl * w1 + cc * w2 + sim * w3 + nss * w4 + mse * w5

    def grad_fn(g):
        rows = p.shape[0] if stack else 1
        g = np.asarray(g, dtype=np.float64)
        c1, c2, c3, c4, c5 = (g * w / rows for w in weights)
        n = p.shape[-2] * p.shape[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # KL and SIM reach p through its unit-mass map pn = p / total
            g_arg = c1 * gn / arg
            g_pn = g_arg / den if literal else -g_arg * gn / (den * den)
            g_pn += c3 * ~mask
            g_p = g_pn / total
            g_p -= (g_pn * p).sum(axis=ax, keepdims=True) / (total * total)
            # CC and NSS reach p through its centred copy pc, each as
            # a * target + k * pc per map: the covariance or fixation sum
            # over its denominator, whose sigma also depends on pc
            g_sigma = -(c2 * cov * sg / (cc_den * cc_den) + c4 * zf / (n_fix * nss_den))
            g_pc = (c2 / (n * cc_den)) * gc
            g_pc += (c4 / (n_fix * nss_den)) * fix
            # sigma's own gradient is pc / (n sigma); a constant map, as a
            # saturated sigmoid gives (sigma = 0, pc = 0), takes 0, not 0/0
            g_pc += np.divide(g_sigma, n * sigma, out=np.zeros_like(sigma),
                              where=sigma > 0) * pc
            g_pc -= g_pc.mean(axis=ax, keepdims=True)
            g_p += g_pc
            g_p += (c5 * (2.0 / n)) * (p - gt)
        return (g_p.astype(dtype, copy=False),)

    return np.asarray(loss, dtype=dtype), grad_fn
