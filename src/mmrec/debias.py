"""Causal debiasing: propensity estimation with inverse propensity
scoring, an adversarial demographic head with gradient reversal, and the
demographic parity gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import init_matrix, softmax


class DebiasError(ValueError):
    pass


# ------------------------------------------------------------- propensity

@dataclass
class PropensityModel:
    weights: np.ndarray
    bias: float = 0.0
    clip_floor: float = 0.01


def estimate_propensity(features: np.ndarray, model: PropensityModel) -> float:
    """Sigmoid of the linear score, clipped below at the floor."""
    z = float(np.dot(model.weights, features) + model.bias)
    p = 1.0 / (1.0 + np.exp(-z))
    return max(model.clip_floor, p)


def fit_propensity(
    positives: np.ndarray,
    negatives: np.ndarray,
    clip_floor: float = 0.01,
    lr: float = 0.5,
    epochs: int = 200,
) -> tuple[PropensityModel, list[float]]:
    """Logistic regression by full-batch gradient descent with backtracking
    (training loss is nonincreasing per epoch by construction)."""
    if len(positives) == 0 or len(negatives) == 0:
        raise DebiasError("need at least one positive and one negative example")
    x = np.vstack([positives, negatives]).astype(np.float64)
    y = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    w = np.zeros(x.shape[1])
    b = 0.0

    def loss_of(wv, bv):
        z = x @ wv + bv
        # stable log(1+exp(-|z|)) formulation
        return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))

    losses = [loss_of(w, b)]
    step = lr
    for _ in range(epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        gw = x.T @ (p - y) / len(y)
        gb = float(np.mean(p - y))
        while step > 1e-12:
            cand_w = w - step * gw
            cand_b = b - step * gb
            cand_loss = loss_of(cand_w, cand_b)
            if cand_loss <= losses[-1]:
                w, b = cand_w, cand_b
                losses.append(cand_loss)
                break
            step *= 0.5
        else:
            losses.append(losses[-1])
    return PropensityModel(weights=w, bias=b, clip_floor=clip_floor), losses


def ips_weights(propensities: np.ndarray) -> np.ndarray:
    """Per-sample IPS weight 1 / (|D| * e_i), computed as (1 / e_i) / |D|.

    The IPS loss is the sum of each sample's loss times its weight, and the
    weight multiplies each sample's gradient; with every propensity 1 it is
    the plain mean.
    """
    prop = np.asarray(propensities, dtype=np.float64)
    if prop.ndim != 1 or prop.size == 0:
        raise DebiasError("propensities must be a non-empty 1-D array")
    return (1.0 / prop) / prop.size


# ------------------------------------------------------- adversarial head

def init_adversary(rng: np.random.Generator, in_dim: int, n_groups: int) -> dict:
    return {"adv.w": init_matrix(rng, (in_dim, n_groups)),
            "adv.b": np.zeros(n_groups)}


def adversary_loss(
    inputs: np.ndarray,
    group_ids: np.ndarray,
    adv_params: dict,
    reversal_coeff: float = 1.0,
) -> tuple[float, dict, np.ndarray]:
    """Group-weighted negative log-likelihood of the true group given the
    fused user representation.

    inputs: [N, in_dim]. Returns (loss, adversary grads, d_inputs) where
    d_inputs is the main-model gradient already sign-reversed by
    ``reversal_coeff`` (the gradient-reversal realization of the min-max;
    pass reversal_coeff=-1 to recover the true gradient).
    Group weights are the empirical group shares, so the loss reduces to
    mean cross-entropy and a uniform adversary over G groups yields ln G.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    gids = np.asarray(group_ids, dtype=int)
    if x.shape[0] != gids.size:
        raise DebiasError("inputs/groups length mismatch")
    if x.shape[0] == 0:
        raise DebiasError("empty batch")
    n_groups = adv_params["adv.b"].size
    counts = np.bincount(gids, minlength=n_groups).astype(np.float64)
    group_weights = counts / counts.sum()
    # per-sample weight: P(S=s)/N_s so each group's mean log-prob is
    # weighted by its probability mass
    sample_w = np.array([group_weights[g] / counts[g] for g in gids])

    logits = x @ adv_params["adv.w"] + adv_params["adv.b"]
    probs = softmax(logits)
    eps = 1e-12
    loss = float(-np.sum(sample_w * np.log(probs[np.arange(len(gids)), gids] + eps)))

    dlogits = probs.copy()
    dlogits[np.arange(len(gids)), gids] -= 1.0
    dlogits *= sample_w[:, None]
    grads = {
        "adv.w": x.T @ dlogits,
        "adv.b": dlogits.sum(axis=0),
    }
    d_inputs_true = dlogits @ adv_params["adv.w"].T
    d_inputs = -reversal_coeff * d_inputs_true
    return loss, grads, d_inputs


def parity_gap(
    scores_by_group: dict[str, np.ndarray], tau: float
) -> float:
    """Max over group pairs of |P(score > tau | s1) - P(score > tau | s2)|."""
    rates = {}
    for g, scores in scores_by_group.items():
        arr = np.asarray(scores, dtype=np.float64)
        if arr.size == 0:
            raise DebiasError(f"empty group {g}")
        rates[g] = float(np.mean(arr > tau))
    names = sorted(rates)
    gap = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            gap = max(gap, abs(rates[names[i]] - rates[names[j]]))
    return gap
