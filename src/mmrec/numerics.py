"""Shared numerics: stable softmax, cosine similarity, attention building
blocks, parameter initialization, and a finite-difference gradient oracle.

Everything is double precision. Gradients elsewhere in the package are
hand-derived; the finite-difference oracle here is the reference they are
tested against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class NumericsError(ValueError):
    """Raised for shape mismatches, non-finite inputs, and empty operands."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator. Same seed gives the same stream everywhere."""
    return np.random.default_rng(int(seed))


def init_matrix(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in = shape[0]."""
    fan_in = max(1, shape[0])
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise NumericsError("softmax of empty vector")
    if not np.isfinite(v).all():
        raise NumericsError("softmax input must be finite")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Gradient of softmax: given output p and upstream dp, return d(input).

    Works row-wise over the last axis.
    """
    dot = np.sum(dp * p, axis=-1, keepdims=True)
    return (dp - dot) * p


def masked_softmax(scores: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis with boolean mask (True = keep)."""
    if mask is None:
        return softmax(scores)
    if not mask.any(axis=-1).all():
        raise NumericsError("softmax row with all entries masked")
    s = np.where(mask, scores, -np.inf)
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-length nonzero vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise NumericsError(f"cosine length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise NumericsError("cosine of zero-norm vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows, the leading axes broadcast. Each
    pair is one stacked (1 x d) @ (d x 1) product, which sums exactly as
    ``np.dot`` of the two vectors does; a matrix-vector product would sum
    in another order and differ in the last bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm``."""
    return np.sqrt(row_dots(x, x))


def row_cosines(a: np.ndarray, b: np.ndarray, norm_a: np.ndarray,
                norm_b: np.ndarray) -> np.ndarray:
    """:func:`cosine` of each pair of rows (leading axes broadcast), given
    the row norms, equal bit for bit to the scalar function."""
    if np.any(norm_a == 0.0) or np.any(norm_b == 0.0):
        raise NumericsError("cosine of zero-norm vector")
    return np.clip(row_dots(a, b) / (norm_a * norm_b), -1.0, 1.0)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up.flat[j] += h
        dn.flat[j] -= h
        fu = float(f(up))
        fd = float(f(dn))
        if not (np.isfinite(fu) and np.isfinite(fd)):
            raise NumericsError("non-finite function value in finite differences")
        grad.flat[j] = (fu - fd) / (2.0 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise relative error with an absolute floor for tiny gradients."""
    a = np.asarray(analytic).ravel()
    n = np.asarray(numeric).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def attention_forward(
    xq: np.ndarray,
    xkv: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    causal: bool = False,
) -> tuple[np.ndarray, dict]:
    """Single-head scaled dot-product attention.

    out = softmax(xq Wq (xkv Wk)^T / sqrt(d_k)) (xkv Wv)

    Returns (out, cache) where cache holds intermediates for the backward
    pass. ``causal`` requires xq and xkv to be the same sequence.
    """
    if wq.shape[1] != wk.shape[1]:
        raise NumericsError("query/key dim mismatch")
    dk = wq.shape[1]
    if dk == 0:
        raise NumericsError("attention key dimension must be positive")
    q = xq @ wq
    k = xkv @ wk
    v = xkv @ wv
    scores = (q @ k.T) / np.sqrt(dk)
    mask = None
    if causal:
        t = xq.shape[0]
        mask = np.tri(t, dtype=bool)
    attn = masked_softmax(scores, mask)
    out = attn @ v
    cache = {
        "xq": xq, "xkv": xkv, "wq": wq, "wk": wk, "wv": wv,
        "q": q, "k": k, "v": v, "attn": attn, "dk": dk,
    }
    return out, cache


def attention_backward(dout: np.ndarray, cache: dict) -> dict:
    """Backward for :func:`attention_forward`.

    Returns dict with d_xq, d_xkv, d_wq, d_wk, d_wv.
    """
    attn, v, q, k = cache["attn"], cache["v"], cache["q"], cache["k"]
    xq, xkv = cache["xq"], cache["xkv"]
    scale = 1.0 / np.sqrt(cache["dk"])
    dattn = dout @ v.T
    dv = attn.T @ dout
    dscores = softmax_backward(attn, dattn)
    dq = dscores @ k * scale
    dkm = dscores.T @ q * scale
    return {
        "d_xq": dq @ cache["wq"].T,
        "d_xkv": dkm @ cache["wk"].T + dv @ cache["wv"].T,
        "d_wq": xq.T @ dq,
        "d_wk": xkv.T @ dkm,
        "d_wv": xkv.T @ dv,
    }
