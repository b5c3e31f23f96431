"""Strict evaluation metrics for saliency maps, in plain numpy.

This module deliberately avoids the tensor/tape machinery: it is the second,
independent route for the quantities the objective module optimizes, so the
two implementations can be checked against each other.  Where the training
losses paper over degeneracies with guard terms, evaluation refuses to
fabricate a number: zero variance, empty fixation sets and the like raise
UndefinedMetricError, and aggregation reports exclusion counts per metric.

AUC here is the fixation-threshold variant: thresholds sweep the predicted
values at fixated cells (plus the two ROC endpoints), TPR is the fraction of
fixations at or above threshold, FPR the fraction of all pixels at or above
threshold (ties count as positive), area by trapezoid.  A constant map
scores exactly 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = 2.2e-16


class UndefinedMetricError(ValueError):
    """The metric has no defined value on this input."""


def _as_map(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise UndefinedMetricError(f"{name} must be a 2-D map, got shape {arr.shape}")
    return arr


def _pair(gt, pred, name: str = "gt"):
    g = _as_map(gt, name)
    p = _as_map(pred, "pred")
    if g.shape != p.shape:
        raise UndefinedMetricError(f"map shapes differ: {g.shape} vs {p.shape}")
    return g, p


def _unit_mass(x: np.ndarray, name: str) -> np.ndarray:
    if x.min() < 0.0:
        raise UndefinedMetricError(f"{name} has negative entries")
    total = x.sum()
    if total <= 0.0:
        raise UndefinedMetricError(f"{name} has no mass")
    return x / total


def cc_metric(gt, pred) -> float:
    """Pearson correlation; undefined when either map has zero variance."""
    g, p = _pair(gt, pred)
    # max == min is the exact constancy test; a float std of a constant
    # array can come out as a harmless-looking 1e-17
    if g.max() == g.min() or p.max() == p.min():
        raise UndefinedMetricError("zero variance map in correlation")
    gs, ps = g.std(), p.std()  # population
    gc, pc = g - g.mean(), p - p.mean()
    return float((gc * pc).mean() / (gs * ps))


def kld_metric(gt, pred) -> float:
    """KL divergence of sum-normalized maps (same orientation as training)."""
    g, p = _pair(gt, pred)
    gn = _unit_mass(g, "gt")
    pn = _unit_mass(p, "pred")
    return float(np.sum(gn * np.log(EPS + gn / (pn + EPS))))


def sim_metric(gt, pred) -> float:
    """Histogram intersection of sum-normalized maps, in [0, 1]."""
    g, p = _pair(gt, pred)
    return float(np.minimum(_unit_mass(g, "gt"), _unit_mass(p, "pred")).sum())


def nss_metric(fixations, pred) -> float:
    """Mean z-scored prediction at fixations; strict sigma (no guard)."""
    f, p = _pair(fixations, pred, "fixation map")
    n_fix = f.sum()
    if n_fix < 1.0:
        raise UndefinedMetricError("no fixations")
    if p.max() == p.min():
        raise UndefinedMetricError("constant prediction has no z-scores")
    sigma = p.std()
    z = (p - p.mean()) / sigma
    return float((z * f).sum() / n_fix)


def auc_judd_metric(fixations, pred) -> float:
    """Fixation-threshold ROC area; see module docstring for conventions."""
    f, p = _pair(fixations, pred, "fixation map")
    fix_mask = f > 0.0
    n_fix = int(fix_mask.sum())
    if n_fix == 0:
        raise UndefinedMetricError("no fixations")
    values = p.ravel()
    fix_values = p[fix_mask]
    n_pix = values.size
    thresholds = np.sort(fix_values)[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for thr in thresholds:
        tpr.append(float((fix_values >= thr).sum()) / n_fix)
        fpr.append(float((values >= thr).sum()) / n_pix)
    tpr.append(1.0)
    fpr.append(1.0)
    return float(np.trapezoid(tpr, fpr))


@dataclass
class MetricReport:
    """Per-sample metric values; a None value records an exclusion."""

    sample_id: str = ""
    cc: float | None = None
    kld: float | None = None
    auc: float | None = None
    sim: float | None = None
    nss: float | None = None
    exclusions: dict = field(default_factory=dict)  # metric -> reason

    def as_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "cc": self.cc,
            "kld": self.kld,
            "auc": self.auc,
            "sim": self.sim,
            "nss": self.nss,
            "exclusions": dict(sorted(self.exclusions.items())),
        }


def evaluate_sample(pred, gt_map, fix_map, sample_id: str = "") -> MetricReport:
    """All five metrics on one sample; failures are recorded, not raised."""
    report = MetricReport(sample_id=sample_id)
    probes = (
        ("cc", lambda: cc_metric(gt_map, pred)),
        ("kld", lambda: kld_metric(gt_map, pred)),
        ("auc", lambda: auc_judd_metric(fix_map, pred)),
        ("sim", lambda: sim_metric(gt_map, pred)),
        ("nss", lambda: nss_metric(fix_map, pred)),
    )
    for name, fn in probes:
        try:
            setattr(report, name, fn())
        except UndefinedMetricError as exc:
            report.exclusions[name] = str(exc)
    return report


METRIC_NAMES = ("cc", "kld", "auc", "sim", "nss")


def summarize(reports) -> dict:
    """Included-only means/stds plus per-metric exclusion counts."""
    out = {"count": len(reports)}
    for name in METRIC_NAMES:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        excluded = len(reports) - len(vals)
        if vals:
            arr = np.asarray(vals)
            out[name] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),  # population, matching the metrics
                "included": len(vals),
                "excluded": excluded,
            }
        else:
            out[name] = {"mean": None, "std": None, "included": 0, "excluded": excluded}
    return out


@dataclass
class RunScore:
    """Min-max scaled metrics of one run within a comparison set."""

    name: str
    cc_scaled: float
    sim_scaled: float
    nss_scaled: float
    kld_scaled: float
    f_score: float


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full_like(values, 0.5)  # degenerate spread: everyone mid-scale
    return (values - lo) / (hi - lo)


# the worst plausible value of each ranked metric
_WORST = {"cc": -1.0, "sim": 0.0, "nss": 0.0, "kld": 100.0}


def f_scores(runs) -> list:
    """Composite ranking over runs: CCs + SIMs + NSSs - KLDs after min-max.

    `runs` is a list of (name, {"cc": .., "sim": .., "nss": .., "kld": ..}),
    the run means.  A mean that no sample could score (None or not finite)
    must never win the ranking, so it stands in as the metric's worst
    plausible value: cc -1, sim 0, nss 0, kld 100.  A single run has no
    spread anywhere, so every scaled term is 0.5 and its F-score is
    0.5 + 0.5 + 0.5 - 0.5 = 1.0.
    """
    if not runs:
        return []
    names = [name for name, _ in runs]
    mats = {}
    for key, worst in _WORST.items():
        means = [vals[key] for _, vals in runs]
        mats[key] = _minmax(np.asarray([worst if m is None or not np.isfinite(m) else float(m)
                                        for m in means]))
    out = []
    for i, name in enumerate(names):
        f = float(mats["cc"][i] + mats["sim"][i] + mats["nss"][i] - mats["kld"][i])
        out.append(RunScore(name, float(mats["cc"][i]), float(mats["sim"][i]),
                            float(mats["nss"][i]), float(mats["kld"][i]), f))
    return out
