"""Online-learning oracle tests: hand-unrolled momentum recursion, the
uncertainty-scaled rate, selective-update edge cases, reliability EMAs,
the feedback objective, EWC hand values, and the Fisher estimator."""

import numpy as np
import pytest

from mmrec.adaptive import (
    AdaptiveError,
    EwcState,
    FeedbackWeights,
    OptimizerState,
    adaptive_rate,
    combined_feedback_loss,
    estimate_fisher,
    ewc_penalty,
    reliability_weights,
    selective_step,
    update_probabilities,
)
from mmrec.numerics import finite_diff_grad, make_rng, rel_error


def test_momentum_hand_unrolled():
    # tau_sel=0, gamma=0.9, eta=0.1, constant gradient 1:
    # v1 = 0.1, v2 = 0.9*0.1 + 0.1 = 0.19
    params = {"w": np.array([1.0])}
    state = OptimizerState(gamma_m=0.9, eta0=0.1, tau_sel=0.0)
    grads = {"w": np.array([1.0])}
    assert selective_step(params, grads, state) == 1.0
    assert state.momentum["w"][0] == pytest.approx(0.1)
    assert params["w"][0] == pytest.approx(0.9)
    assert selective_step(params, grads, state) == 1.0
    assert state.momentum["w"][0] == pytest.approx(0.19)
    assert params["w"][0] == pytest.approx(0.71)
    assert state.step_count == 2


def test_momentum_rejects_nonfinite_whole_step():
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    state = OptimizerState(tau_sel=0.0)
    grads = {"a": np.array([1.0]), "b": np.array([np.nan])}
    assert selective_step(params, grads, state) == 0.0
    assert params["a"][0] == 1.0 and params["b"][0] == 2.0
    assert state.step_count == 0


def test_optimizer_state_invariants():
    with pytest.raises(AdaptiveError):
        OptimizerState(gamma_m=1.0)
    with pytest.raises(AdaptiveError):
        OptimizerState(eta0=0.0)


def test_adaptive_rate_hand_values():
    assert adaptive_rate(0.1, 1.0, 0.0) == pytest.approx(0.1)
    assert adaptive_rate(0.1, 1.0, 1.0) == pytest.approx(0.1 * np.exp(-1))
    assert adaptive_rate(0.1, 2.0, 0.5) == pytest.approx(0.1 * np.exp(-1))
    with pytest.raises(AdaptiveError):
        adaptive_rate(0.1, 1.0, -0.1)


def test_update_probabilities_softmax_over_abs():
    g = np.array([1.0, -1.0, 0.0])
    p = update_probabilities(g)
    assert p.sum() == pytest.approx(1.0)
    assert p[0] == pytest.approx(p[1])  # |g| equal
    assert p[2] < p[0]


def test_selective_tau_zero_updates_every_coordinate():
    # a per-tensor softmax over these magnitudes underflows to 0 at the
    # zero and at the 1; tau_sel = 0 must still update all four
    params = {"w": np.zeros(4)}
    state = OptimizerState(tau_sel=0.0, eta0=0.1, gamma_m=0.9)
    grads = {"w": np.array([1000.0, 0.0, -1000.0, 1.0])}
    assert selective_step(params, grads, state) == 1.0
    assert np.array_equal(state.momentum["w"], 0.1 * grads["w"])
    assert np.array_equal(params["w"], -0.1 * grads["w"])


def test_selective_freezes_low_probability_coordinates():
    # one dominant coordinate: softmax mass concentrates there; with a
    # threshold between the two masses only that coordinate moves
    params = {"w": np.zeros(2)}
    state = OptimizerState(tau_sel=0.3, eta0=0.1, gamma_m=0.0)
    grads = {"w": np.array([10.0, 0.0])}
    frac = selective_step(params, grads, state)
    assert frac == pytest.approx(0.5)
    assert params["w"][0] != 0.0
    assert params["w"][1] == 0.0                      # frozen value
    assert state.momentum["w"][1] == 0.0              # frozen momentum


def test_selective_tau_at_or_above_max_freezes_everything():
    params = {"w": np.ones(4)}
    state = OptimizerState(tau_sel=0.9)
    frac = selective_step(params, {"w": np.ones(4)}, state)
    assert frac == 0.0
    assert np.array_equal(params["w"], np.ones(4))


def test_selective_invalid_tau():
    with pytest.raises(AdaptiveError):
        selective_step({"w": np.ones(1)}, {"w": np.ones(1)},
                       OptimizerState(tau_sel=1.0))


def test_reliability_weights_and_ema():
    w = FeedbackWeights()
    a, b = reliability_weights(w)          # both-zero fallback
    assert (a, b) == (0.5, 0.5)
    w.update("explicit", 1.0)
    # EMA with decay 0.99: 0.99*0 + 0.01*1 = 0.01
    assert w.rel_explicit == pytest.approx(0.01)
    w.update("implicit", 1.0)
    w.update("implicit", 1.0)
    a, b = reliability_weights(w)
    assert a + b == pytest.approx(1.0)
    assert b > a  # implicit accumulated more agreement


def test_ewc_penalty_hand_worked():
    # lambda=2, F=1, theta-theta*=3: (2/2)*1*9 = 9; grad = 2*1*3 = 6
    ewc = EwcState(fisher={"w": np.array([1.0])},
                   anchor={"w": np.array([0.0])}, lambda_ewc=2.0)
    loss, grads = ewc_penalty({"w": np.array([3.0])}, ewc)
    assert loss == pytest.approx(9.0)
    assert grads["w"][0] == pytest.approx(6.0)


def test_ewc_penalty_matches_finite_diff():
    rng = make_rng(3)
    theta = {"w": rng.standard_normal(4)}
    ewc = EwcState(fisher={"w": rng.uniform(0, 2, 4)},
                   anchor={"w": rng.standard_normal(4)}, lambda_ewc=5.0)
    loss, grads = ewc_penalty(theta, ewc)
    numeric = finite_diff_grad(
        lambda t: ewc_penalty({"w": t}, ewc)[0], theta["w"].copy()
    )
    assert rel_error(grads["w"], numeric) < 1e-4


def test_ewc_penalty_matches_per_tensor_reference():
    # the flattened penalty against a per-tensor loop: gradients are the
    # same elementwise arithmetic (bit-equal); the loss is summed in
    # another order, so it gets a tolerance of a few ulps
    rng = make_rng(4)
    shapes = {"a": (3, 4), "b": (5,), "c": (1,), "d": (2, 8)}
    theta = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ewc = EwcState(fisher={k: rng.uniform(0, 2, s) for k, s in shapes.items()},
                   anchor={k: rng.standard_normal(s) for k, s in shapes.items()},
                   lambda_ewc=3.0)
    loss, grads = ewc_penalty(theta, ewc)
    ref_loss = 0.0
    for k, f in ewc.fisher.items():
        delta = theta[k] - ewc.anchor[k]
        ref_loss += 0.5 * ewc.lambda_ewc * float(np.sum(f * delta * delta))
        assert grads[k].shape == shapes[k]
        assert np.array_equal(grads[k], ewc.lambda_ewc * f * delta)
    assert loss == pytest.approx(ref_loss, rel=1e-14)
    assert ewc_penalty(theta, EwcState()) == (0.0, {})

    theta["b"] = np.zeros(6)
    with pytest.raises(AdaptiveError):
        ewc_penalty(theta, ewc)
    theta["b"] = np.zeros(5)
    ewc.anchor["a"] = np.zeros((4, 3))
    with pytest.raises(AdaptiveError):
        ewc_penalty(theta, ewc)


def test_estimate_fisher_mean_of_squares():
    g1 = {"w": np.array([1.0, 2.0])}
    g2 = {"w": np.array([3.0, 0.0])}
    fisher = estimate_fisher([g1, g2])
    assert np.allclose(fisher["w"], [(1 + 9) / 2, (4 + 0) / 2])
    with pytest.raises(AdaptiveError):
        estimate_fisher([])


def test_combined_feedback_loss_hand_worked():
    params = {"w": np.array([1.0, -1.0])}
    ge = {"w": np.array([2.0, 0.0])}
    gi = {"w": np.array([0.0, 4.0])}
    # alpha = 1 / (1 + 3) = 0.25
    w = FeedbackWeights(rel_explicit=1.0, rel_implicit=3.0, gamma_reg=0.0)
    loss, grads = combined_feedback_loss((3.0, gi), (1.0, ge), params, w)
    # 0.25*1 + 0.75*3 = 2.5; grad = 0.25*ge + 0.75*gi
    assert loss == pytest.approx(2.5)
    assert np.allclose(grads["w"], [0.5, 3.0])


def test_combined_feedback_single_kind_forces_full_weight():
    params = {"w": np.zeros(1)}
    g = {"w": np.ones(1)}
    # reliabilities that would give alpha 0.9 with an explicit term
    w = FeedbackWeights(rel_explicit=0.9, rel_implicit=0.1)
    loss, grads = combined_feedback_loss((2.0, g), None, params, w)
    assert loss == pytest.approx(2.0)       # beta forced to 1
    assert grads["w"][0] == pytest.approx(1.0)
    # both reliabilities zero: 0.5/0.5
    loss, grads = combined_feedback_loss((2.0, g), (4.0, g), params,
                                         FeedbackWeights())
    assert loss == pytest.approx(3.0)
    assert grads["w"][0] == pytest.approx(1.0)


def test_combined_feedback_l2_term():
    params = {"w": np.array([2.0])}
    g = {"w": np.zeros(1)}
    w = FeedbackWeights(gamma_reg=0.5)
    loss, grads = combined_feedback_loss((0.0, g), None, params, w)
    # 0.5 * 2^2 = 2; grad = 2*0.5*2 = 2
    assert loss == pytest.approx(2.0)
    assert grads["w"][0] == pytest.approx(2.0)
