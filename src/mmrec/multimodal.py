"""Modality encoders (text / categorical / numerical), asymmetric
cross-modal mixing, and adaptive weighted fusion.

Cross-modal mixing is pairwise attention from each modality to each other
one. Every modality is encoded to a single pooled vector, so each pair
attends over exactly one key: the softmax weight is exactly 1 and the
attended output is exactly the value projection ``h_n @ V_mn``. The mixing
is computed in that form, and only the value matrices ``xm.{m}.{n}.v`` are
parameters: query/key matrices could not reach any output. Their random
draws are still made and discarded, so that the initial value of every
other tensor stays the same function of the seed.

Parameters live in a flat dict of name -> float64 ndarray; every forward
function returns a cache and has a matching hand-derived backward that
accumulates into a gradient dict with the same keys.

Modality order is fixed as ("text", "cat", "num") everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericsError,
    attention_backward,
    attention_forward,
    init_matrix,
    row_dots,
    softmax,
    softmax_backward,
)

MODALITIES = ("text", "cat", "num")


def init_encoder_params(
    rng: np.random.Generator,
    vocab_size: int,
    n_categories: int,
    numeric_dim: int,
    user_numeric_dim: int,
    d: int,
    d_k: int,
    max_tokens: int,
) -> dict[str, np.ndarray]:
    p: dict[str, np.ndarray] = {}
    p["text.emb"] = init_matrix(rng, (vocab_size, d))
    p["text.pos"] = init_matrix(rng, (max_tokens, d))
    p["text.wq"] = init_matrix(rng, (d, d_k))
    p["text.wk"] = init_matrix(rng, (d, d_k))
    p["text.wv"] = init_matrix(rng, (d, d))
    p["text.wo"] = init_matrix(rng, (d, d))
    p["text.empty"] = init_matrix(rng, (d,))
    p["cat.emb"] = init_matrix(rng, (max(1, n_categories), d))
    for prefix, dim in (("num", numeric_dim), ("unum", user_numeric_dim)):
        p[f"{prefix}.w1"] = init_matrix(rng, (max(1, dim), d))
        p[f"{prefix}.b1"] = np.zeros(d)
        p[f"{prefix}.w2"] = init_matrix(rng, (d, d))
        p[f"{prefix}.b2"] = np.zeros(d)
    for m in MODALITIES:
        for n in MODALITIES:
            if m == n:
                continue
            init_matrix(rng, (d, d_k))   # query draw, discarded
            init_matrix(rng, (d, d_k))   # key draw, discarded
            p[f"xm.{m}.{n}.v"] = init_matrix(rng, (d, d))
    M = len(MODALITIES)
    p["fus.w"] = init_matrix(rng, (M, d))
    p["fus.beta"] = np.zeros(1)
    p["fus.wc"] = init_matrix(rng, (M * d, d))
    p["fus.bc"] = np.zeros(d)
    return p


# ---------------------------------------------------------------- encoders

def encode_text(tokens: list[int], params: dict) -> tuple[np.ndarray, dict]:
    """Token embeddings + positional encodings through one self-attention
    block with output projection, mean-pooled. Empty input returns the
    learned empty-text vector."""
    emb, pos = params["text.emb"], params["text.pos"]
    if len(tokens) > pos.shape[0]:
        tokens = tokens[: pos.shape[0]]
    if any(t >= emb.shape[0] or t < 0 for t in tokens):
        raise NumericsError("token id outside vocabulary")
    if len(tokens) == 0:
        return params["text.empty"].copy(), {"empty": True}
    t = len(tokens)
    x = emb[tokens] + pos[:t]
    attended, acache = attention_forward(
        x, x, params["text.wq"], params["text.wk"], params["text.wv"]
    )
    z = attended @ params["text.wo"]
    h = z.mean(axis=0)
    return h, {"empty": False, "tokens": tokens, "x": x, "attended": attended,
               "acache": acache}


def encode_text_backward(dh: np.ndarray, cache: dict, params: dict, grads: dict) -> None:
    if cache["empty"]:
        grads["text.empty"] += dh
        return
    tokens = cache["tokens"]
    t = len(tokens)
    dz = np.tile(dh / t, (t, 1))
    grads["text.wo"] += cache["attended"].T @ dz
    dattended = dz @ params["text.wo"].T
    ab = attention_backward(dattended, cache["acache"])
    grads["text.wq"] += ab["d_wq"]
    grads["text.wk"] += ab["d_wk"]
    grads["text.wv"] += ab["d_wv"]
    dx = ab["d_xq"] + ab["d_xkv"]
    np.add.at(grads["text.emb"], tokens, dx)
    grads["text.pos"][:t] += dx


def encode_categorical(cat_ids: list[int], params: dict) -> tuple[np.ndarray, dict]:
    """Mean of member category embeddings; empty set encodes to zeros."""
    emb = params["cat.emb"]
    if any(c >= emb.shape[0] or c < 0 for c in cat_ids):
        raise NumericsError("unknown category id")
    if not cat_ids:
        return np.zeros(emb.shape[1]), {"ids": []}
    return emb[cat_ids].mean(axis=0), {"ids": list(cat_ids)}


def encode_categorical_backward(dh, cache, params, grads) -> None:
    ids = cache["ids"]
    if ids:
        np.add.at(grads["cat.emb"], ids, np.tile(dh / len(ids), (len(ids), 1)))


def encode_numeric(
    x: np.ndarray, params: dict, prefix: str = "num"
) -> tuple[np.ndarray, dict]:
    """Two-layer perceptron: tanh hidden layer then linear output."""
    x = np.asarray(x, dtype=np.float64)
    w1 = params[f"{prefix}.w1"]
    if x.size != w1.shape[0]:
        raise NumericsError(f"numeric dim {x.size} != encoder dim {w1.shape[0]}")
    a1 = np.tanh(x @ w1 + params[f"{prefix}.b1"])
    h = a1 @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    return h, {"x": x, "a1": a1, "prefix": prefix}


def encode_numeric_backward(dh, cache, params, grads) -> None:
    pre = cache["prefix"]
    a1, x = cache["a1"], cache["x"]
    grads[f"{pre}.w2"] += np.outer(a1, dh)
    grads[f"{pre}.b2"] += dh
    da1 = params[f"{pre}.w2"] @ dh
    dz1 = (1.0 - a1 * a1) * da1
    grads[f"{pre}.w1"] += np.outer(x, dz1)
    grads[f"{pre}.b1"] += dz1


# ----------------------------------------------------------------- fusion

def fusion_weights(hs: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Softmax over per-modality scores w_m . h_m."""
    if len(hs) < 1:
        raise NumericsError("at least one modality required")
    scores = np.array([w[m] @ hs[m] for m in range(len(hs))])
    return softmax(scores)


def fuse(
    hs: list[np.ndarray], alpha: np.ndarray, params: dict
) -> tuple[np.ndarray, dict]:
    """alpha-weighted sum plus beta-gated perceptron over the concatenation
    of all modality vectors in fixed declared order."""
    M = len(hs)
    wc, bc = params["fus.wc"], params["fus.bc"]
    if wc.shape[0] != M * hs[0].size:
        raise NumericsError("modality count mismatch vs fusion params")
    concat = np.concatenate(hs)
    z = concat @ wc + bc
    mlp = np.tanh(z)
    beta = float(params["fus.beta"][0])
    fused = sum(alpha[m] * hs[m] for m in range(M)) + beta * mlp
    return fused, {"hs": hs, "alpha": alpha, "concat": concat, "mlp": mlp,
                   "beta": beta}


def multimodal_forward(
    inputs: dict, params: dict, fusion_on: bool = True
) -> tuple[np.ndarray, dict]:
    """Full stack: encode each modality, mix via pairwise cross-modal
    attention (residual mean over incoming pairs), then fuse.
    Attention over a single pooled key reduces to its value projection,
    so pair (m, n) contributes ``h_n @ V_mn`` (see the module docstring).

    inputs: {"text": token list, "cat": category id list,
             "num": feature vector, "num_prefix": "num"|"unum"}
    With fusion_on=False the output is the plain mean of the raw modality
    encodings (cross-attention and adaptive weighting contribute nothing).
    """
    prefix = inputs.get("num_prefix", "num")
    h_text, c_text = encode_text(inputs["text"], params)
    h_cat, c_cat = encode_categorical(inputs["cat"], params)
    h_num, c_num = encode_numeric(inputs["num"], params, prefix)
    raw = [h_text, h_cat, h_num]
    cache: dict = {"enc": [c_text, c_cat, c_num], "fusion_on": fusion_on}

    if not fusion_on:
        return (raw[0] + raw[1] + raw[2]) / 3.0, cache

    M = len(MODALITIES)
    rows = [np.atleast_2d(h) for h in raw]
    hs = []
    mix_caches = []
    for mi, m in enumerate(MODALITIES):
        acc = np.zeros(raw[mi].shape)
        pair_caches = []
        for ni, n in enumerate(MODALITIES):
            if mi == ni:
                continue
            name = f"xm.{m}.{n}.v"
            acc += (rows[ni] @ params[name])[0]
            pair_caches.append((ni, name, rows[ni]))
        hs.append(raw[mi] + acc / (M - 1))
        mix_caches.append(pair_caches)
    cache["mix"] = mix_caches
    alpha = fusion_weights(hs, params["fus.w"])
    fused, fcache = fuse(hs, alpha, params)
    cache["fcache"] = fcache
    return fused, cache


def multimodal_backward(
    d_fused: np.ndarray, cache: dict, params: dict, grads: dict
) -> None:
    """Backprop through the full stack (gradients for every parameter in
    this module, accumulated into ``grads``)."""
    c_text, c_cat, c_num = cache["enc"]
    if not cache["fusion_on"]:
        d_raw = [d_fused / 3.0] * 3
    else:
        f = cache["fcache"]
        hs, alpha, beta, mlp = f["hs"], f["alpha"], f["beta"], f["mlp"]
        M = len(hs)
        d_hs = [alpha[m] * d_fused for m in range(M)]
        d_alpha = np.array([d_fused @ hs[m] for m in range(M)])
        grads["fus.beta"][0] += d_fused @ mlp
        dz = (1.0 - mlp * mlp) * (beta * d_fused)
        grads["fus.wc"] += np.outer(f["concat"], dz)
        grads["fus.bc"] += dz
        dconcat = params["fus.wc"] @ dz
        d = hs[0].size
        for m in range(M):
            d_hs[m] = d_hs[m] + dconcat[m * d : (m + 1) * d]
        ds = softmax_backward(alpha, d_alpha)
        for m in range(M):
            grads["fus.w"][m] += ds[m] * hs[m]
            d_hs[m] = d_hs[m] + ds[m] * params["fus.w"][m]
        d_raw = [d_hs[m].copy() for m in range(M)]  # residual path
        for mi, pair_caches in enumerate(cache["mix"]):
            dout = (d_hs[mi] / (M - 1))[None, :]
            for (ni, name, xkv) in pair_caches:
                grads[name] += xkv.T @ dout
                d_raw[ni] += (dout @ params[name].T)[0]

    encode_text_backward(d_raw[0], c_text, params, grads)
    encode_categorical_backward(d_raw[1], c_cat, params, grads)
    encode_numeric_backward(d_raw[2], c_num, params, grads)


# ------------------------------------------------------- batched items

@dataclass
class ItemBatch:
    """Encoder inputs of ``n`` items, grouped for :func:`encode_items`: text
    by token count, categories by set size. Items without tokens or
    categories are in no group of that modality."""
    n: int
    text: list[tuple[np.ndarray, np.ndarray]]   # (rows, tokens [B, t]), t > 0
    cat: list[tuple[np.ndarray, np.ndarray]]    # (rows, ids [B, c]), c > 0
    num: np.ndarray                             # [n, numeric dim]


def batch_inputs(inputs: list[dict]) -> ItemBatch:
    """Group per-item ``multimodal_forward`` inputs (all with the ``num``
    prefix) into an :class:`ItemBatch`."""
    def groups(key: str) -> list[tuple[np.ndarray, np.ndarray]]:
        by_size: dict[int, list[int]] = {}
        for row, inp in enumerate(inputs):
            by_size.setdefault(len(inp[key]), []).append(row)
        return [(np.array(rows), np.array([inputs[r][key] for r in rows],
                                          dtype=np.int64).reshape(len(rows), size))
                for size, rows in sorted(by_size.items()) if size > 0]

    num = [np.asarray(inp["num"], dtype=np.float64).ravel() for inp in inputs]
    sizes = sorted({x.size for x in num})
    if len(sizes) > 1:
        raise NumericsError(f"numeric dim {sizes[-1]} != {sizes[0]} in one batch")
    return ItemBatch(n=len(inputs), text=groups("text"), cat=groups("cat"),
                     num=np.array(num).reshape(len(inputs), sizes[0] if sizes else 0))


def _rows_at(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x[i] @ w`` for every row i, as stacked (1 x d) @ (d x k) products:
    the same BLAS call per row as the per-item path, where one matrix
    product over all rows would sum in another order."""
    return (x[:, None, :] @ w)[:, 0]


def encode_items(batch: ItemBatch, params: dict, fusion_on: bool = True) -> np.ndarray:
    """The fused encoding of every item in ``batch``, one row each, equal bit
    for bit to ``multimodal_forward`` of the item alone (no cache: item
    encodings are not backpropagated). Raises the per-item path's errors:
    token or category id out of range, numeric dimension mismatch, and a
    non-finite softmax input."""
    emb, pos = params["text.emb"], params["text.pos"]
    if batch.n == 0:
        return np.zeros((0, emb.shape[1]))
    h_text = np.tile(params["text.empty"], (batch.n, 1))
    dk = params["text.wq"].shape[1]
    for rows, tokens in batch.text:
        tokens = tokens[:, : pos.shape[0]]
        if tokens.min() < 0 or tokens.max() >= emb.shape[0]:
            raise NumericsError("token id outside vocabulary")
        x = emb[tokens] + pos[: tokens.shape[1]]
        q, k, v = (x @ params[f"text.{w}"] for w in ("wq", "wk", "wv"))
        attn = softmax((q @ k.transpose(0, 2, 1)) / np.sqrt(dk))
        h_text[rows] = ((attn @ v) @ params["text.wo"]).mean(axis=1)

    cat_emb = params["cat.emb"]
    h_cat = np.zeros((batch.n, cat_emb.shape[1]))
    for rows, ids in batch.cat:
        if ids.min() < 0 or ids.max() >= cat_emb.shape[0]:
            raise NumericsError("unknown category id")
        h_cat[rows] = cat_emb[ids].mean(axis=1)

    w1 = params["num.w1"]
    if batch.num.shape[1] != w1.shape[0]:
        raise NumericsError(
            f"numeric dim {batch.num.shape[1]} != encoder dim {w1.shape[0]}")
    a1 = np.tanh(_rows_at(batch.num, w1) + params["num.b1"])
    h_num = _rows_at(a1, params["num.w2"]) + params["num.b2"]

    raw = [h_text, h_cat, h_num]
    if not fusion_on:
        return (raw[0] + raw[1] + raw[2]) / 3.0
    M = len(MODALITIES)
    hs = []
    for mi, m in enumerate(MODALITIES):
        acc = np.zeros(raw[mi].shape)
        for ni, n in enumerate(MODALITIES):
            if mi != ni:
                acc += _rows_at(raw[ni], params[f"xm.{m}.{n}.v"])
        hs.append(raw[mi] + acc / (M - 1))
    w = params["fus.w"]
    alpha = softmax(np.stack([row_dots(hs[m], w[m]) for m in range(M)], axis=1))
    wc = params["fus.wc"]
    if wc.shape[0] != M * hs[0].shape[1]:
        raise NumericsError("modality count mismatch vs fusion params")
    mlp = np.tanh(_rows_at(np.concatenate(hs, axis=1), wc) + params["fus.bc"])
    beta = float(params["fus.beta"][0])
    return sum(alpha[:, m, None] * hs[m] for m in range(M)) + beta * mlp


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}
