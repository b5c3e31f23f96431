import numpy as np
import pytest

from sumnet.metrics import (
    MetricReport,
    UndefinedMetricError,
    auc_judd_metric,
    cc_metric,
    evaluate_sample,
    f_scores,
    kld_metric,
    nss_metric,
    sim_metric,
    summarize,
)
from sumnet.rng import SplitMix64, uniform_array

from oracles import auc_judd_loop, cc_loss, kl_loss, nss_loss, sim_loss


def rmap(shape, seed, lo=0.05, hi=1.0):
    return uniform_array(shape, lo, hi, seed)


# ---------------------------------------------------------------------------
# value oracles


def test_perfect_prediction_values():
    g = rmap((8, 8), 1)
    assert abs(cc_metric(g, g) - 1.0) < 1e-12
    assert abs(sim_metric(g, g) - 1.0) < 1e-12
    assert abs(kld_metric(g, g)) < 1e-9


def test_strict_mode_raises_where_loss_mode_guards():
    g = rmap((4, 4), 2)
    flat = np.full((4, 4), 0.7)
    with pytest.raises(UndefinedMetricError):
        cc_metric(g, flat)
    with pytest.raises(UndefinedMetricError):
        cc_metric(flat, g)
    fix = np.zeros((4, 4))
    fix[0, 0] = 1.0
    with pytest.raises(UndefinedMetricError):
        nss_metric(fix, flat)
    with pytest.raises(UndefinedMetricError):
        nss_metric(np.zeros((4, 4)), g)
    with pytest.raises(UndefinedMetricError):
        auc_judd_metric(np.zeros((4, 4)), g)
    with pytest.raises(UndefinedMetricError):
        kld_metric(np.zeros((4, 4)), g)


def test_shape_and_rank_guards():
    with pytest.raises(UndefinedMetricError):
        cc_metric(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(UndefinedMetricError):
        sim_metric(np.zeros(4), np.zeros(4))


# ---------------------------------------------------------------------------
# the two routes agree on valid inputs


def test_metric_route_matches_loss_route():
    sm = SplitMix64(3)
    for trial in range(8):
        g = rmap((7, 7), 100 + trial)
        p = rmap((7, 7), 200 + trial)
        fix = np.zeros((7, 7))
        for _ in range(5):
            fix[sm.next_below(7), sm.next_below(7)] = 1.0
        # the metrics score one [H, W] map, the losses a [B, H, W] stack
        gb, pb, fb = g[None], p[None], fix[None]
        assert abs(cc_metric(g, p) - cc_loss(gb, pb).item()) < 1e-9
        assert abs(sim_metric(g, p) - sim_loss(gb, pb).item()) < 1e-12
        assert abs(kld_metric(g, p) - kl_loss(gb, pb).item()) < 1e-12
        assert abs(nss_metric(fix, p) - nss_loss(fb, pb).item()) < 1e-9


# ---------------------------------------------------------------------------
# AUC


def _auc_brute(fix_map, pred):
    """Independent ROC rebuild: same thresholds, done with explicit loops."""
    fix_vals = sorted(pred[fix_map > 0.0].ravel(), reverse=True)
    allv = pred.ravel()
    pts = [(0.0, 0.0)]
    for thr in fix_vals:
        tp = sum(1 for v in fix_vals if v >= thr) / len(fix_vals)
        fp = sum(1 for v in allv if v >= thr) / len(allv)
        pts.append((fp, tp))
    pts.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def test_auc_matches_brute_force():
    sm = SplitMix64(5)
    for trial in range(6):
        p = rmap((9, 9), 300 + trial)
        fix = np.zeros((9, 9))
        for _ in range(6):
            fix[sm.next_below(9), sm.next_below(9)] = 1.0
        got = auc_judd_metric(fix, p)
        want = _auc_brute(fix, p)
        assert abs(got - want) < 1e-12, trial


def test_auc_perfect_separation_16x16():
    # prediction strictly larger on every fixated cell than anywhere else
    pred = rmap((16, 16), 7, 0.0, 0.5)
    fix = np.zeros((16, 16))
    for r, c in [(2, 2), (5, 9), (12, 4), (14, 14)]:
        fix[r, c] = 1.0
        pred[r, c] = 0.9 + 0.01 * r
    assert auc_judd_metric(fix, pred) >= 0.99


def test_auc_constant_map_is_half():
    fix = np.zeros((8, 8))
    fix[3, 3] = 1.0
    fix[5, 1] = 1.0
    assert auc_judd_metric(fix, np.full((8, 8), 0.4)) == 0.5


def test_auc_anti_prediction_below_half():
    g = rmap((10, 10), 8)
    fix = np.zeros((10, 10))
    # fixate the three smallest predicted cells
    idx = np.argsort(g.ravel())[:3]
    fix.ravel()[idx] = 1.0
    assert auc_judd_metric(fix, g) < 0.5


def test_auc_monotone_transform_invariant():
    p = rmap((6, 6), 9)
    fix = np.zeros((6, 6))
    fix[2, 2] = fix[4, 5] = 1.0
    a = auc_judd_metric(fix, p)
    b = auc_judd_metric(fix, 2.0 * p + 1.0)
    assert abs(a - b) < 1e-12


def _auc_case(name):
    """(fixation map, prediction) of one named AUC edge case."""
    sm = SplitMix64(17)
    pred = rmap((9, 7), 40)
    fix = np.zeros((9, 7))
    for _ in range(8):
        fix[sm.next_below(9), sm.next_below(7)] = 1.0
    if name == "ties":  # four levels, so fixated and other cells share values
        pred = np.floor(pred * 4.0) / 4.0
    elif name == "duplicate fixations":  # a cell fixated twice, two fixated cells of one value
        fix[0, 0], fix[8, 6] = 2.0, 1.0
        pred[8, 6] = pred[0, 0]
    elif name == "constant map":
        pred = np.full((9, 7), 0.3)
    elif name == "single fixation":
        fix = np.zeros((9, 7))
        fix[4, 3] = 1.0
    elif name == "NaN entries":  # at a fixated cell and elsewhere
        pred[fix > 0.0] = np.where(np.arange(int((fix > 0.0).sum())) % 3 == 0, np.nan,
                                   pred[fix > 0.0])
        pred[0, 1] = pred[5, 5] = np.nan
    elif name == "infinities":
        pred[fix > 0.0] = np.where(np.arange(int((fix > 0.0).sum())) % 2 == 0, np.inf,
                                   pred[fix > 0.0])
        pred[1, 1], pred[2, 2], pred[3, 3] = -np.inf, np.inf, -np.inf
    return fix, pred


AUC_CASES = ["ties", "duplicate fixations", "constant map", "single fixation", "NaN entries",
             "infinities"]


@pytest.mark.parametrize("name", AUC_CASES)
def test_auc_equals_the_threshold_loop_on_edge_cases(name):
    fix, pred = _auc_case(name)
    assert auc_judd_metric(fix, pred) == auc_judd_loop(fix, pred)


def test_auc_equals_the_threshold_loop_on_random_maps_with_ties_and_infinities():
    sm = SplitMix64(23)
    for trial in range(300):
        h, w = 1 + sm.next_below(10), 1 + sm.next_below(10)
        levels = 1 + sm.next_below(5)
        pred = np.floor(sm.uniforms(h * w).reshape(h, w) * levels) / levels
        marks = sm.uniforms(h * w).reshape(h, w)
        pred[marks < 0.05] = np.inf
        pred[(marks >= 0.05) & (marks < 0.1)] = -np.inf
        if trial % 3 == 0:
            pred[(marks >= 0.1) & (marks < 0.15)] = np.nan
        fix = (sm.uniforms(h * w).reshape(h, w) < 0.3) * (1.0 + (marks > 0.9))
        if not fix.any():
            fix.flat[sm.next_below(h * w)] = 1.0
        assert auc_judd_metric(fix, pred) == auc_judd_loop(fix, pred), trial


def test_auc_without_fixations_is_undefined_in_both_forms():
    for fn in (auc_judd_metric, auc_judd_loop):
        with pytest.raises(UndefinedMetricError, match="no fixations"):
            fn(np.zeros((4, 4)), rmap((4, 4), 3))


# ---------------------------------------------------------------------------
# per-sample reports and aggregation


def test_evaluate_sample_records_exclusions():
    g = rmap((5, 5), 10)
    fix = np.zeros((5, 5))
    fix[2, 2] = 1.0
    flat = np.full((5, 5), 0.2)
    rep = evaluate_sample(flat, g, fix, sample_id="s1")
    assert rep.cc is None and "cc" in rep.exclusions
    assert rep.nss is None and "nss" in rep.exclusions
    assert rep.auc == 0.5 and rep.sim is not None and rep.kld is not None
    good = evaluate_sample(g, g, fix, sample_id="s2")
    assert good.exclusions == {}
    assert abs(good.cc - 1.0) < 1e-12


def test_summarize_counts_exclusions():
    g = rmap((5, 5), 11)
    fix = np.zeros((5, 5))
    fix[1, 1] = 1.0
    reports = [
        evaluate_sample(g, g, fix, "a"),
        evaluate_sample(np.full((5, 5), 0.3), g, fix, "b"),
    ]
    summary = summarize(reports)
    assert summary["count"] == 2
    assert summary["cc"]["included"] == 1 and summary["cc"]["excluded"] == 1
    assert summary["sim"]["included"] == 2
    assert summary["cc"]["mean"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# run ranking


def test_f_score_single_run_is_one():
    scores = f_scores([("only", {"cc": 0.7, "sim": 0.5, "nss": 1.2, "kld": 0.4})])
    assert scores[0].f_score == 1.0


def test_f_score_dominant_run():
    runs = [
        ("good", {"cc": 0.9, "sim": 0.8, "nss": 2.0, "kld": 0.2}),
        ("bad", {"cc": 0.5, "sim": 0.4, "nss": 1.0, "kld": 0.9}),
    ]
    scores = {s.name: s.f_score for s in f_scores(runs)}
    assert scores["good"] == 3.0 and scores["bad"] == -1.0


def test_f_score_affine_rescale_invariance():
    runs = [
        ("a", {"cc": 0.9, "sim": 0.8, "nss": 2.0, "kld": 0.2}),
        ("b", {"cc": 0.5, "sim": 0.6, "nss": 1.0, "kld": 0.5}),
        ("c", {"cc": 0.7, "sim": 0.4, "nss": 3.0, "kld": 0.9}),
    ]
    base = [s.f_score for s in f_scores(runs)]
    rescaled = [
        (name, {**vals, "nss": 10.0 * vals["nss"] - 4.0}) for name, vals in runs
    ]
    again = [s.f_score for s in f_scores(rescaled)]
    assert np.allclose(base, again, atol=1e-12)


def test_f_score_degenerate_metric_column():
    runs = [
        ("a", {"cc": 0.7, "sim": 0.5, "nss": 2.0, "kld": 0.3}),
        ("b", {"cc": 0.7, "sim": 0.6, "nss": 1.0, "kld": 0.4}),
    ]
    scores = f_scores(runs)
    assert scores[0].cc_scaled == 0.5 and scores[1].cc_scaled == 0.5


def test_report_as_dict_is_stable():
    rep = MetricReport(sample_id="x", cc=0.5, kld=0.1, auc=0.9, sim=0.4, nss=1.0)
    d = rep.as_dict()
    assert list(d) == ["sample_id", "cc", "kld", "auc", "sim", "nss", "exclusions"]
