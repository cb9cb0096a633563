"""Debiasing oracle tests: IPS arithmetic, propensity fitting on separable
data, adversary loss anchors (uniform -> ln G, perfect -> ~0), gradient
reversal, and the parity gap."""

import numpy as np
import pytest

from mmrec.debias import (
    DebiasError,
    PropensityModel,
    adversary_loss,
    estimate_propensity,
    fit_propensity,
    init_adversary,
    ips_weights,
    parity_gap,
)
from mmrec.numerics import finite_diff_grad, make_rng, rel_error


def test_estimate_propensity_sigmoid_and_clip():
    m = PropensityModel(weights=np.array([1.0]), bias=0.0, clip_floor=0.01)
    assert estimate_propensity(np.array([0.0]), m) == pytest.approx(0.5)
    # sigmoid(ln 3) = 0.75
    assert estimate_propensity(np.array([np.log(3.0)]), m) == pytest.approx(0.75)
    # strongly negative score clips at the floor
    assert estimate_propensity(np.array([-100.0]), m) == 0.01


def test_ips_loss_hand_worked():
    # losses [2, 4], propensities [0.5, 1.0]: weights 1/(2*0.5) and
    # 1/(2*1.0), so the loss is (1/2)(2/0.5 + 4/1.0) = (4 + 4)/2 = 4
    w = ips_weights(np.array([0.5, 1.0]))
    assert np.array_equal(w, [1.0, 0.5])
    assert float(np.sum(np.array([2.0, 4.0]) * w)) == 4.0


def test_ips_uniform_propensity_is_plain_mean():
    rng = make_rng(1)
    losses = rng.uniform(0, 5, size=10)
    w = ips_weights(np.ones(10))
    assert float(np.sum(losses * w)) == pytest.approx(float(losses.mean()))
    assert np.allclose(w, 0.1)


def test_ips_shape_mismatch():
    with pytest.raises(DebiasError):
        ips_weights(np.ones((3, 4)))
    with pytest.raises(DebiasError):
        ips_weights(np.ones(0))


def test_fit_propensity_separable_accuracy():
    rng = make_rng(2)
    pos = rng.standard_normal((100, 3)) + np.array([2.0, 0, 0])
    neg = rng.standard_normal((100, 3)) - np.array([2.0, 0, 0])
    model, losses = fit_propensity(pos, neg)
    # training loss is nonincreasing by construction
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    preds_pos = [estimate_propensity(x, model) for x in pos]
    preds_neg = [estimate_propensity(x, model) for x in neg]
    acc = (np.mean(np.array(preds_pos) > 0.5) + np.mean(np.array(preds_neg) <= 0.5)) / 2
    assert acc >= 0.95


def test_fit_propensity_single_class_errors():
    with pytest.raises(DebiasError):
        fit_propensity(np.ones((3, 2)), np.zeros((0, 2)))


def test_adversary_uniform_predictions_give_ln_g():
    # zero weights -> uniform over G groups -> loss = ln G regardless of data
    adv = {"adv.w": np.zeros((1, 3)), "adv.b": np.zeros(3)}
    x = make_rng(3).standard_normal((20, 1))
    gids = np.arange(20) % 3
    loss, _, _ = adversary_loss(x, gids, adv)
    assert loss == pytest.approx(np.log(3.0))


def test_adversary_perfect_predictions_near_zero():
    # scores perfectly separate two groups; a confident adversary has ~0 loss
    adv = {"adv.w": np.array([[50.0, -50.0]]), "adv.b": np.zeros(2)}
    x = np.array([[1.0]] * 5 + [[-1.0]] * 5)
    gids = np.array([0] * 5 + [1] * 5)
    loss, _, _ = adversary_loss(x, gids, adv)
    assert loss < 1e-6


def test_adversary_grads_match_finite_diff():
    rng = make_rng(4)
    adv = init_adversary(rng, 2, 3)
    x = rng.standard_normal((8, 2))
    gids = np.array([0, 1, 2, 0, 1, 2, 0, 1])

    loss, grads, d_inputs = adversary_loss(x, gids, adv, reversal_coeff=-1.0)
    # reversal_coeff=-1 returns the true input gradient
    for name in ("adv.w", "adv.b"):
        base = adv[name]

        def f(flat, name=name, base=base):
            repl = dict(adv)
            repl[name] = flat.reshape(base.shape)
            return adversary_loss(x, gids, repl)[0]

        numeric = finite_diff_grad(f, base.ravel().copy())
        assert rel_error(grads[name].ravel(), numeric) < 1e-4, name

    def f_x(flat):
        return adversary_loss(flat.reshape(x.shape), gids, adv)[0]

    numeric = finite_diff_grad(f_x, x.ravel().copy())
    assert rel_error(d_inputs.ravel(), numeric) < 1e-4


def test_gradient_reversal_flips_sign():
    rng = make_rng(5)
    adv = init_adversary(rng, 1, 2)
    x = rng.standard_normal((6, 1))
    gids = np.array([0, 1, 0, 1, 0, 1])
    _, _, d_plus = adversary_loss(x, gids, adv, reversal_coeff=1.0)
    _, _, d_minus = adversary_loss(x, gids, adv, reversal_coeff=-1.0)
    assert np.allclose(d_plus, -d_minus)


def test_parity_gap_hand_worked():
    scores = {
        "g0": np.array([0.9, 0.8, 0.2, 0.1]),  # 2/4 above 0.5
        "g1": np.array([0.9, 0.8, 0.7, 0.6]),  # 4/4 above 0.5
    }
    assert parity_gap(scores, 0.5) == pytest.approx(0.5)
    # identical distributions -> zero gap
    assert parity_gap({"a": np.ones(3), "b": np.ones(3)}, 0.5) == 0.0
    with pytest.raises(DebiasError):
        parity_gap({"a": np.ones(2), "b": np.array([])}, 0.5)


def test_parity_gap_three_groups_max_pairwise():
    scores = {"a": np.array([1.0]), "b": np.array([0.0]), "c": np.array([1.0, 0.0])}
    assert parity_gap(scores, 0.5) == pytest.approx(1.0)
