import numpy as np
import pytest

import sumnet.tensor as T
from sumnet.objective import DEFAULT_WEIGHTS, NormalizationError, composite_loss
from sumnet.rng import uniform_array
from sumnet.tensor import ShapeError, Tensor, check_gradient

import oracles as ops
from oracles import cc_loss, kl_loss, mse_loss, normalize_sum, nss_loss, sim_loss

TOL = 1e-4


def rmap(shape, seed, lo=0.05, hi=1.0):
    # strictly positive maps keep every loss well-defined
    return uniform_array(shape, lo, hi, seed)


# ---------------------------------------------------------------------------
# closed-form oracles


def test_kl_two_cell_oracle():
    # gt (1, 0) vs uniform (0.5, 0.5): KL = log 2
    v = kl_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(v.item() - np.log(2.0)) < 1e-6


def test_kl_self_is_tiny_and_bounded_below():
    m = rmap((8, 8), 1)
    v = kl_loss(m, m).item()
    assert abs(v) <= 1e-9
    for seed in range(5):
        a, b = rmap((6, 6), 10 + seed), rmap((6, 6), 20 + seed)
        assert kl_loss(a, b).item() >= -1e-9


def test_kl_literal_orientation_differs():
    g = np.array([[0.8, 0.2]])
    p = np.array([[0.3, 0.7]])
    std = kl_loss(g, p).item()
    lit = kl_loss(g, p, literal=True).item()
    assert std > 0.0
    assert abs(std - lit) > 1e-3
    # literal form decreases as predicted mass shrinks where gt has mass:
    # that is the behavior that makes it unusable as a training divergence
    p_small = np.array([[0.03, 0.07]])
    assert kl_loss(g, p_small / p_small.sum(), literal=True).item() == pytest.approx(lit)


def test_cc_oracles_and_invariances():
    m = rmap((8, 8), 2)
    assert abs(cc_loss(m, m).item() - 1.0) < 1e-9
    anti = m.max() + m.min() - m  # perfectly anti-correlated
    assert abs(cc_loss(m, anti).item() + 1.0) < 1e-9
    other = rmap((8, 8), 3)
    base = cc_loss(m, other).item()
    assert abs(cc_loss(m * 3.0 + 0.7, other).item() - base) < 1e-9
    assert -1.0 - 1e-9 <= base <= 1.0 + 1e-9


def test_sim_two_cell_oracle_and_bounds():
    v = sim_loss(np.array([[0.7, 0.3]]), np.array([[0.4, 0.6]]))
    assert abs(v.item() - 0.7) < 1e-12
    m = rmap((5, 5), 4)
    assert abs(sim_loss(m, m).item() - 1.0) < 1e-12
    o = rmap((5, 5), 5)
    v = sim_loss(m, o).item()
    assert 0.0 <= v <= 1.0
    assert abs(sim_loss(o, m).item() - v) < 1e-15  # symmetric


def test_nss_three_cell_oracle():
    # pred (0, 1, 2), one fixation on the 2: z = (2-1)/sqrt(2/3) = sqrt(3/2)
    pred = np.array([[0.0, 1.0, 2.0]])
    fix = np.array([[0.0, 0.0, 1.0]])
    v = nss_loss(fix, pred).item()
    assert abs(v - np.sqrt(1.5)) < 1e-6


def test_nss_uniform_pred_is_zero_and_affine_invariant():
    fix = np.zeros((4, 4))
    fix[1, 2] = 1.0
    assert abs(nss_loss(fix, np.full((4, 4), 0.3)).item()) < 1e-6
    pred = rmap((4, 4), 6)
    base = nss_loss(fix, pred).item()
    assert abs(nss_loss(fix, pred * 2.0 + 1.0).item() - base) < 1e-9


def test_nss_requires_fixations():
    with pytest.raises(NormalizationError):
        nss_loss(np.zeros((3, 3)), rmap((3, 3), 7))


def test_mse_oracle_and_shape_guard():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.full((2, 2), 0.5)
    assert abs(mse_loss(a, b).item() - 0.25) < 1e-15
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(4), np.zeros(4))
    with pytest.raises(ShapeError, match="stack"):
        mse_loss(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)))


def test_normalize_guards():
    with pytest.raises(NormalizationError):
        normalize_sum(np.zeros((2, 2)))
    with pytest.raises(NormalizationError):
        normalize_sum(np.array([[1.0, -0.5]]))


# ---------------------------------------------------------------------------
# composite


def test_composite_matches_manual_sum():
    g, p = rmap((6, 6), 8), rmap((6, 6), 9)
    fix = np.zeros((6, 6))
    fix[2, 3] = 1.0
    fix[4, 1] = 1.0
    manual = (
        10.0 * kl_loss(g, p).item()
        - 2.0 * cc_loss(g, p).item()
        - 1.0 * sim_loss(g, p).item()
        - 1.0 * nss_loss(fix, p).item()
        + 5.0 * mse_loss(g, p).item()
    )
    v = composite_loss(g, fix, p, DEFAULT_WEIGHTS).item()
    assert abs(v - manual) < 1e-12


def test_composite_perfect_prediction_is_negative():
    g = rmap((8, 8), 10)
    fix = np.zeros((8, 8))
    fix[np.unravel_index(np.argmax(g), g.shape)] = 1.0
    assert composite_loss(g, fix, g).item() < 0.0


def test_composite_weight_count():
    g = rmap((4, 4), 11)
    with pytest.raises(ValueError):
        composite_loss(g, g, g, weights=(1.0, 2.0))


# ---------------------------------------------------------------------------
# [B, H, W] stacks


def _stack_case(b=3, size=6):
    gt = np.stack([rmap((size, size), 30 + i) for i in range(b)])
    pred = np.stack([rmap((size, size), 40 + i) for i in range(b)])
    fix = np.zeros((b, size, size))
    for i in range(b):
        fix[i, i, (2 * i + 1) % size] = fix[i, size - 1 - i, i] = 1.0
    return gt, fix, pred


@pytest.mark.parametrize("kl_literal", [False, True])
def test_stack_is_mean_of_per_map_calls(kl_literal):
    gt, fix, pred = _stack_case()
    cases = [
        ("kl", lambda g, f, p: kl_loss(g, p, literal=kl_literal)),
        ("cc", lambda g, f, p: cc_loss(g, p)),
        ("sim", lambda g, f, p: sim_loss(g, p)),
        ("nss", lambda g, f, p: nss_loss(f, p)),
        ("mse", lambda g, f, p: mse_loss(g, p)),
        ("composite", lambda g, f, p: composite_loss(g, f, p, kl_literal=kl_literal)),
    ]
    for name, fn in cases:
        stacked = fn(gt, fix, pred)
        assert stacked.shape == (), name
        per_map = np.mean([fn(gt[i], fix[i], pred[i]).item() for i in range(len(gt))])
        assert abs(stacked.item() - per_map) <= 1e-12 * abs(per_map), name


@pytest.mark.parametrize("case,message", [
    ("negative", "pred map row 2 has negative entries"),
    ("no mass", "gt map row 1 has no mass to normalize"),
    ("no fixations", "fixation map row 2 has no fixations"),
])
def test_stack_errors_name_the_row(case, message):
    gt, fix, pred = _stack_case()
    if case == "negative":
        pred[2, 3, 3] = -0.5
    elif case == "no mass":
        gt[1] = 0.0
    else:
        fix[2] = 0.0
    with pytest.raises(NormalizationError, match=message):
        composite_loss(gt, fix, pred)


# ---------------------------------------------------------------------------
# the composite pair against the tape composition it replaced


def _reference_composite(gt, fix, pred, weights=DEFAULT_WEIGHTS, kl_literal=False):
    """The weighted sum of the five term functions, one tape op at a time."""
    w1, w2, w3, w4, w5 = (float(w) for w in weights)
    total = ops.mul(kl_loss(gt, pred, literal=kl_literal), w1)
    total = ops.add(total, ops.mul(cc_loss(gt, pred), w2))
    total = ops.add(total, ops.mul(sim_loss(gt, pred), w3))
    total = ops.add(total, ops.mul(nss_loss(fix, pred), w4))
    return ops.add(total, ops.mul(mse_loss(gt, pred), w5))


def _value_grad_nodes(fn, gt, fix, pred, kl_literal):
    p = Tensor(pred.copy(), requires_grad=True)
    with T.Tape() as tape:
        loss = fn(gt, fix, p, kl_literal=kl_literal)
        n_ops = sum(1 for node in tape.nodes if node.grad_fn is not None)
        T.backward(tape, loss)
    return loss.data, p.grad, n_ops


@pytest.mark.parametrize("kl_literal", [False, True])
@pytest.mark.parametrize("b", [None, 1, 3])
def test_composite_matches_reference_composition(b, kl_literal):
    # sparse targets, as the corpus's maps are: SIM's min switches sides
    gt, fix, pred = _stack_case(b or 1, size=7)
    gt[gt < 0.5] = 0.0
    if b is None:
        gt, fix, pred = gt[0], fix[0], pred[0]
    got, got_g, n_ops = _value_grad_nodes(composite_loss, gt, fix, pred, kl_literal)
    want, want_g, _ = _value_grad_nodes(_reference_composite, gt, fix, pred, kl_literal)
    assert n_ops == 1
    assert got.shape == () and np.array_equal(got, want)
    assert np.abs(got_g - want_g).max() <= 1e-12 * np.abs(want_g).max()


def test_composite_checked_mode_names_the_term():
    gt, fix, pred = _stack_case()
    pred[1, 2, 2] = np.inf
    with pytest.raises(T.NumericError, match="composite_loss kl: produced a non-finite value"):
        composite_loss(gt, fix, pred)


# ---------------------------------------------------------------------------
# gradients through every loss


def test_grad_all_losses_wrt_pred():
    g = rmap((5, 5), 12)
    fix = np.zeros((5, 5))
    fix[1, 1] = 1.0
    fix[3, 2] = 1.0
    pred0 = Tensor(rmap((5, 5), 13, 0.2, 1.0))
    cases = [
        ("kl", lambda p: kl_loss(g, p)),
        ("kl literal", lambda p: kl_loss(g, p, literal=True)),
        ("cc", lambda p: cc_loss(g, p)),
        ("sim", lambda p: sim_loss(g, p)),
        ("nss", lambda p: nss_loss(fix, p)),
        ("mse", lambda p: mse_loss(g, p)),
        ("composite", lambda p: composite_loss(g, fix, p)),
    ]
    for name, fn in cases:
        err, _, _ = check_gradient(fn, pred0)
        assert err < TOL, f"{name}: rel err {err}"
