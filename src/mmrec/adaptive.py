"""Online adaptive learning: one momentum step with importance-sampled
selective updates, an uncertainty-scaled learning rate, explicit/implicit
feedback weighting, and elastic weight consolidation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax

log = logging.getLogger(__name__)


class AdaptiveError(ValueError):
    pass


@dataclass
class OptimizerState:
    momentum: dict[str, np.ndarray] = field(default_factory=dict)
    gamma_m: float = 0.9
    eta0: float = 0.1
    lambda_u: float = 1.0
    tau_sel: float = 0.0
    step_count: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma_m < 1.0):
            raise AdaptiveError("momentum coefficient must be in [0,1)")
        if self.eta0 <= 0.0:
            raise AdaptiveError("base learning rate must be positive")

    def buffer(self, name: str, like: np.ndarray) -> np.ndarray:
        if name not in self.momentum:
            self.momentum[name] = np.zeros_like(like)
        return self.momentum[name]


@dataclass
class EwcState:
    fisher: dict[str, np.ndarray] = field(default_factory=dict)
    anchor: dict[str, np.ndarray] = field(default_factory=dict)
    lambda_ewc: float = 0.0


@dataclass
class FeedbackWeights:
    rel_explicit: float = 0.0
    rel_implicit: float = 0.0
    gamma_reg: float = 0.0
    ema_decay: float = 0.99

    def update(self, kind: str, agreement: float) -> None:
        """EMA of agreement between a feedback event and held-out behavior."""
        if kind == "explicit":
            self.rel_explicit = self.ema_decay * self.rel_explicit + (1 - self.ema_decay) * agreement
        else:
            self.rel_implicit = self.ema_decay * self.rel_implicit + (1 - self.ema_decay) * agreement


def adaptive_rate(eta0: float, lambda_u: float, uncertainty: float) -> float:
    """eta0 * exp(-lambda * uncertainty); uncertainty is the generator's
    normalized predictive entropy at the fed-back event, in [0,1]."""
    if uncertainty < 0:
        raise AdaptiveError("uncertainty must be nonnegative")
    return float(eta0 * np.exp(-lambda_u * uncertainty))


def update_probabilities(grad: np.ndarray) -> np.ndarray:
    """Softmax over |g_j| within one parameter tensor (per-tensor partition,
    not global across tensors)."""
    flat = np.abs(np.asarray(grad, dtype=np.float64).ravel())
    if flat.size == 0 or not np.any(np.isfinite(flat)):
        raise AdaptiveError("need at least one finite gradient")
    return softmax(flat).reshape(np.asarray(grad).shape)


def selective_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    eta: float | None = None,
) -> float:
    """Momentum step (v <- gamma*v + eta*g; theta <- theta - v) on the
    coordinates whose update probability exceeds tau_sel; the others keep
    their value and momentum. tau_sel = 0 updates every coordinate. Returns
    the fraction updated; a non-finite gradient rejects the whole step
    (params and state unchanged) and returns 0.0."""
    if not (0.0 <= state.tau_sel < 1.0):
        raise AdaptiveError("tau_sel must be in [0,1)")
    eta = state.eta0 if eta is None else eta
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            log.warning("non-finite gradient for %s: step rejected", name)
            return 0.0
    state.step_count += 1
    if state.tau_sel == 0.0:
        for name, g in grads.items():
            v = state.buffer(name, g)
            v *= state.gamma_m
            v += eta * g
            params[name] -= v
        return 1.0
    total = 0
    updated = 0
    for name, g in grads.items():
        mask = update_probabilities(g) > state.tau_sel
        total += g.size
        updated += int(mask.sum())
        v = state.buffer(name, g)
        v[mask] = state.gamma_m * v[mask] + eta * g[mask]
        params[name][mask] -= v[mask]
    return updated / max(1, total)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so that their global L2 norm is at most
    ``max_norm`` (no clip when ``max_norm`` is 0); returns the norm before
    clipping. Norm clipping as in Pascanu et al. 2013, "On the difficulty
    of training recurrent neural networks"."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for k in grads:
            grads[k] *= scale
    return norm


def reliability_weights(weights: FeedbackWeights) -> tuple[float, float]:
    """alpha = rel_explicit / (rel_explicit + rel_implicit); beta = 1-alpha.
    Both-zero reliabilities fall back to 0.5/0.5 with a log line."""
    re_, ri = weights.rel_explicit, weights.rel_implicit
    if re_ < 0 or ri < 0:
        raise AdaptiveError("reliabilities must be nonnegative")
    if re_ + ri == 0.0:
        log.warning("both feedback reliabilities are zero; defaulting to 0.5")
        return 0.5, 0.5
    alpha = re_ / (re_ + ri)
    return alpha, 1.0 - alpha


def ewc_penalty(
    params: dict[str, np.ndarray], ewc: EwcState
) -> tuple[float, dict[str, np.ndarray]]:
    """(lambda/2) * sum_j F_j (theta_j - theta*_j)^2 and its gradient.

    The anchored tensors are flattened into one vector, so the penalty is
    one sum and the gradient tensors are views into one array.
    """
    names = list(ewc.fisher)
    if not names:
        return 0.0, {}
    for name in names:
        shape = ewc.fisher[name].shape
        if params[name].shape != shape or ewc.anchor[name].shape != shape:
            raise AdaptiveError(f"fisher/anchor shape mismatch for {name}")
    f = np.concatenate([ewc.fisher[n] for n in names], axis=None)
    delta = (np.concatenate([params[n] for n in names], axis=None)
             - np.concatenate([ewc.anchor[n] for n in names], axis=None))
    loss = 0.5 * ewc.lambda_ewc * float((f * delta * delta).sum())
    g = ewc.lambda_ewc * f * delta
    grads: dict[str, np.ndarray] = {}
    pos = 0
    for name in names:
        size = ewc.fisher[name].size
        grads[name] = g[pos : pos + size].reshape(ewc.fisher[name].shape)
        pos += size
    return loss, grads


def estimate_fisher(
    per_example_grads: list[dict[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Diagonal Fisher: mean over examples of squared NLL gradients."""
    if not per_example_grads:
        raise AdaptiveError("need a nonempty sample")
    fisher: dict[str, np.ndarray] = {}
    n = len(per_example_grads)
    for g in per_example_grads:
        for name, arr in g.items():
            if name not in fisher:
                fisher[name] = np.zeros_like(arr)
            fisher[name] += arr * arr / n
    return fisher


def combined_feedback_loss(
    implicit: tuple[float, dict[str, np.ndarray]],
    explicit: tuple[float, dict[str, np.ndarray]] | None,
    params: dict[str, np.ndarray],
    weights: FeedbackWeights,
) -> tuple[float, dict[str, np.ndarray]]:
    """beta * implicit (sequence NLL) loss + alpha * explicit (squared-error)
    loss + gamma_reg * L2 over parameters.

    Each term is a precomputed (loss, grads) pair from the model. alpha is
    the weight of :func:`reliability_weights`, or 0 without an explicit
    term; beta = 1 - alpha."""
    alpha = reliability_weights(weights)[0] if explicit is not None else 0.0
    total = 0.0
    grads: dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in params.items()}
    for term, weight in ((explicit, alpha), (implicit, 1.0 - alpha)):
        if term is None or weight == 0.0:
            continue
        loss, g = term
        total += weight * loss
        for name, arr in g.items():
            grads[name] += weight * arr

    if weights.gamma_reg > 0.0:
        for name, arr in params.items():
            total += weights.gamma_reg * float(np.sum(arr * arr))
            grads[name] += 2.0 * weights.gamma_reg * arr
    return total, grads
