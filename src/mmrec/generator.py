"""Autoregressive next-item generation head.

A small causal decoder over item-id tokens, conditioned on the fused user
vector and retrieved-context embeddings injected as prefix soft tokens.
All gradients are hand-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    NumericsError,
    attention_backward,
    attention_forward,
    init_matrix,
)


class GenerationError(ValueError):
    pass


def special_ids(n_items: int) -> dict[str, int]:
    return {"BOS": n_items, "EOS": n_items + 1, "PAD": n_items + 2}


def init_generator_params(
    rng: np.random.Generator, n_items: int, d: int, d_k: int,
    n_blocks: int, max_seq: int,
) -> dict[str, np.ndarray]:
    p: dict[str, np.ndarray] = {}
    p["gen.item_emb"] = init_matrix(rng, (n_items + 3, d))
    p["gen.pos"] = init_matrix(rng, (max_seq, d))
    p["gen.wsoft"] = init_matrix(rng, (d, d))
    for b in range(n_blocks):
        p[f"gen.b{b}.wq"] = init_matrix(rng, (d, d_k))
        p[f"gen.b{b}.wk"] = init_matrix(rng, (d, d_k))
        p[f"gen.b{b}.wv"] = init_matrix(rng, (d, d))
        p[f"gen.b{b}.wo"] = init_matrix(rng, (d, d))
    p["gen.wout"] = init_matrix(rng, (d, n_items))
    p["gen.bout"] = np.zeros(n_items)
    p["gen.wrate"] = init_matrix(rng, (d,))
    p["gen.brate"] = np.zeros(1)
    return p


def n_blocks_of(params: dict) -> int:
    n = 0
    while f"gen.b{n}.wq" in params:
        n += 1
    return n


@dataclass
class GenerationRequest:
    h_user: np.ndarray
    context_embeddings: list[np.ndarray] = field(default_factory=list)
    history: list[int] = field(default_factory=list)   # catalog positions
    exclude: set[int] = field(default_factory=set)
    n: int = 10


@dataclass
class ForwardResult:
    probs: np.ndarray          # over catalog; excluded entries exactly 0
    logits: np.ndarray
    allowed: np.ndarray        # boolean mask over catalog
    h_t: np.ndarray
    _cache: dict = field(repr=False, default_factory=dict)


def generator_forward(request: GenerationRequest, params: dict) -> ForwardResult:
    """Forward pass. Sequence = [user soft token; context soft tokens; BOS;
    history embeddings]; final-position hidden state produces item logits;
    excluded items are masked to probability 0 and the rest renormalized."""
    n_items = params["gen.wout"].shape[1]
    emb = params["gen.item_emb"]
    pos = params["gen.pos"]
    wsoft = params["gen.wsoft"]
    bos = special_ids(n_items)["BOS"]

    soft_inputs = [np.asarray(request.h_user, dtype=np.float64)]
    soft_inputs += [np.asarray(c, dtype=np.float64) for c in request.context_embeddings]
    n_prefix = len(soft_inputs)
    # keep the most recent history that fits the positional table
    budget = pos.shape[0] - n_prefix - 1
    if budget < 0:
        raise GenerationError("prefix soft tokens exceed max sequence length")
    history = list(request.history)[-budget:] if budget else []
    if any(y < 0 or y >= n_items for y in history):
        raise GenerationError("history item id outside catalog")

    rows = [h @ wsoft for h in soft_inputs]
    rows.append(emb[bos])
    rows += [emb[y] for y in history]
    x0 = np.array(rows) + pos[: len(rows)]

    x = x0
    block_caches = []
    for b in range(n_blocks_of(params)):
        out, ac = attention_forward(
            x, x, params[f"gen.b{b}.wq"], params[f"gen.b{b}.wk"],
            params[f"gen.b{b}.wv"], causal=True,
        )
        z = out @ params[f"gen.b{b}.wo"]
        block_caches.append({"acache": ac, "out": out})
        x = x + z

    h_t = x[-1]
    logits = h_t @ params["gen.wout"] + params["gen.bout"]

    allowed = np.ones(n_items, dtype=bool)
    for e in request.exclude:
        if 0 <= e < n_items:
            allowed[e] = False
    if not allowed.any():
        raise GenerationError("all items excluded")
    shifted = logits[allowed] - logits[allowed].max()
    e = np.exp(shifted)
    probs = np.zeros(n_items)
    probs[allowed] = e / e.sum()

    cache = {
        "soft_inputs": soft_inputs, "history": history, "x0_rows": len(rows),
        "block_caches": block_caches, "x_final": x, "n_prefix": n_prefix,
        "bos": bos,
    }
    return ForwardResult(probs=probs, logits=logits, allowed=allowed, h_t=h_t,
                         _cache=cache)


def generator_backward(
    fr: ForwardResult,
    dlogits: np.ndarray,
    params: dict,
    grads: dict,
    d_ht_extra: np.ndarray | None = None,
) -> np.ndarray:
    """Backprop an upstream gradient on the final-position logits (plus an
    optional direct gradient on h_t, used by the rating head).

    Accumulates generator parameter gradients and returns d(h_user).
    """
    cache = fr._cache
    grads["gen.wout"] += np.outer(fr.h_t, dlogits)
    grads["gen.bout"] += dlogits
    t = cache["x0_rows"]
    dx = np.zeros((t, params["gen.wsoft"].shape[0]))
    dx[-1] = params["gen.wout"] @ dlogits
    if d_ht_extra is not None:
        dx[-1] += d_ht_extra
    for b in reversed(range(n_blocks_of(params))):
        bc = cache["block_caches"][b]
        grads[f"gen.b{b}.wo"] += bc["out"].T @ dx
        dout = dx @ params[f"gen.b{b}.wo"].T
        ab = attention_backward(dout, bc["acache"])
        grads[f"gen.b{b}.wq"] += ab["d_wq"]
        grads[f"gen.b{b}.wk"] += ab["d_wk"]
        grads[f"gen.b{b}.wv"] += ab["d_wv"]
        dx = dx + ab["d_xq"] + ab["d_xkv"]

    grads["gen.pos"][:t] += dx
    n_prefix = cache["n_prefix"]
    wsoft = params["gen.wsoft"]
    d_h_user = None
    for i, h in enumerate(cache["soft_inputs"]):
        grads["gen.wsoft"] += np.outer(h, dx[i])
        if i == 0:
            d_h_user = dx[0] @ wsoft.T
    grads["gen.item_emb"][cache["bos"]] += dx[n_prefix]
    hist = cache["history"]
    if hist:
        np.add.at(grads["gen.item_emb"], hist, dx[n_prefix + 1 :])
    return d_h_user


def recommend_top_n(
    request: GenerationRequest, params: dict
) -> list[tuple[int, float]]:
    """Greedy top-N by next-item probability; deterministic, ties broken by
    ascending item id; excluded items never appear."""
    fr = generator_forward(request, params)
    ids = np.arange(fr.probs.size)
    order = np.lexsort((ids, -fr.probs))
    ranked = [(int(i), float(fr.probs[i])) for i in order if fr.allowed[i]]
    return ranked[: request.n]


def nll_dlogits(fr: ForwardResult, target: int) -> tuple[float, np.ndarray]:
    """Loss -log p(target) and its gradient w.r.t. the final logits."""
    if not fr.allowed[target]:
        raise GenerationError("target item is excluded (probability 0)")
    p_t = fr.probs[target]
    if p_t <= 0.0:
        raise GenerationError("target item has probability 0")
    dlogits = fr.probs.copy()
    dlogits[target] -= 1.0
    dlogits[~fr.allowed] = 0.0
    return -float(np.log(p_t)), dlogits


def predictive_entropy(fr: ForwardResult) -> float:
    """Entropy of the next-item distribution normalized to [0,1]."""
    p = fr.probs[fr.allowed]
    n = p.size
    if n <= 1:
        return 0.0
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / np.log(n))


def rating_prediction(fr: ForwardResult, params: dict) -> float:
    """Scalar rating prediction from the final hidden state."""
    return float(fr.h_t @ params["gen.wrate"] + params["gen.brate"][0])


def rating_loss(
    fr: ForwardResult, rating: float, params: dict, grads: dict
) -> tuple[float, np.ndarray]:
    """Squared error on an explicit rating; returns (loss, d_h_user)."""
    pred = rating_prediction(fr, params)
    err = pred - rating
    loss = err * err
    grads["gen.wrate"] += 2.0 * err * fr.h_t
    grads["gen.brate"][0] += 2.0 * err
    d_h_user = generator_backward(
        fr, np.zeros_like(fr.logits), params, grads,
        d_ht_extra=2.0 * err * params["gen.wrate"],
    )
    return loss, d_h_user
