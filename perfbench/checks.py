"""Output checks and statistics, computed apart from the program.

Every function here is plain Python over plain values, so each one is
checked against hand-worked values in ``test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import math

# near-ties in the retrieval oracle: entries whose oracle scores differ by
# less than this may swap places (the program and the oracle sum the same
# terms in a different floating-point order)
RETRIEVAL_TOL = 1e-9
# recomputed ranking metrics must equal the program's to this
METRIC_TOL = 1e-12
MAX_EXPLANATION_CHARS = 400


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples that lie beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


# ------------------------------------------------------------- retrieval

def oracle_ranking(query, entries, lambda_sim, lambda_temporal,
                   lambda_credibility, sigma, t_now):
    """Brute-force relevance of every entry, best first, ties by ascending
    entry id. ``entries`` holds (entry_id, embedding, timestamp,
    credibility) tuples; arithmetic is scalar Python floats."""
    q = [float(x) for x in query]
    qn = math.sqrt(sum(x * x for x in q))
    scored = []
    for entry_id, emb, ts, cred in entries:
        e = [float(x) for x in emb]
        en = math.sqrt(sum(x * x for x in e))
        cos = sum(a * b for a, b in zip(q, e)) / (qn * en)
        cos = min(1.0, max(-1.0, cos))
        dt = float(t_now) - float(ts)
        temporal = math.exp(-(dt * dt) / (2.0 * sigma * sigma))
        score = (lambda_sim * cos + lambda_temporal * temporal
                 + lambda_credibility * float(cred))
        scored.append((score, entry_id))
    scored.sort(key=lambda se: (-se[0], se[1]))
    return [(entry_id, score) for score, entry_id in scored]


def retrieval_mismatch(got_ids: list[str], oracle: list[tuple[str, float]],
                       k: int, tol: float = RETRIEVAL_TOL) -> str | None:
    """None when ``got_ids`` is the oracle's top k up to swaps among
    entries whose oracle scores differ by less than ``tol``; else why not."""
    want = min(k, len(oracle))
    if len(got_ids) != want:
        return f"{len(got_ids)} entries retrieved, expected {want}"
    if len(set(got_ids)) != len(got_ids):
        return "duplicate entries retrieved"
    score_of = dict(oracle)
    for rank, entry_id in enumerate(got_ids):
        if entry_id not in score_of:
            return f"unknown entry {entry_id!r}"
        best = oracle[rank][1]
        if abs(score_of[entry_id] - best) >= tol:
            return (f"rank {rank + 1}: {entry_id} scores {score_of[entry_id]!r}, "
                    f"oracle {oracle[rank][0]} scores {best!r}")
    return None


# --------------------------------------------------------- ranking metrics

def ranking_metrics(lists: dict[str, list[str]], truth: dict[str, str],
                    k: int = 10) -> dict[str, float]:
    """HR@k, NDCG@k (one relevant item, IDCG 1) and MRR over the users that
    have a held-out item."""
    hr = ndcg = rr = 0.0
    counted = 0
    for user, ranked in lists.items():
        target = truth.get(user)
        if target is None:
            continue
        counted += 1
        if target in ranked:
            rank = ranked.index(target) + 1
            rr += 1.0 / rank
            if rank <= k:
                hr += 1.0
                ndcg += 1.0 / math.log2(rank + 1)
    if not counted:
        return {"hr": 0.0, "ndcg": 0.0, "mrr": 0.0}
    return {"hr": hr / counted, "ndcg": ndcg / counted, "mrr": rr / counted}


# ---------------------------------------------------------- recommendations

def payload_problems(payload: dict, n: int, history: list[str]) -> list[str]:
    """Properties every recommendation payload must have: n distinct items,
    none from the history, scores in [0, 1] and non-increasing with ties in
    ascending item id, and an explanation of 1 to 400 characters."""
    recs = payload.get("recommendations", [])
    problems = []
    ids = [r["item_id"] for r in recs]
    if len(ids) != n:
        problems.append(f"{len(ids)} items, expected {n}")
    if len(set(ids)) != len(ids):
        problems.append("duplicate items")
    seen = set(history) & set(ids)
    if seen:
        problems.append(f"items from the history: {sorted(seen)}")
    for prev, cur in zip(recs, recs[1:]):
        if cur["score"] > prev["score"] or (
            cur["score"] == prev["score"] and cur["item_id"] < prev["item_id"]
        ):
            problems.append(f"order broken at {cur['item_id']}")
            break
    for r in recs:
        if not 0.0 <= r["score"] <= 1.0:
            problems.append(f"score {r['score']!r} outside [0, 1]")
            break
    for r in recs:
        text = r.get("explanation_text", "")
        if not text or len(text) > MAX_EXPLANATION_CHARS:
            problems.append(f"explanation of {len(text)} characters")
            break
    return problems


# --------------------------------------------------------------- updates

def update_problems(record: dict, eta0: float, lambda_u: float) -> list[str]:
    """An online_update record must carry uncertainty in [0, 1] and
    eta = eta0 * exp(-lambda_u * uncertainty)."""
    u = record["uncertainty"]
    problems = []
    if not 0.0 <= u <= 1.0:
        problems.append(f"uncertainty {u!r} outside [0, 1]")
    want = eta0 * math.exp(-lambda_u * u)
    if not math.isclose(record["eta"], want, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"eta {record['eta']!r}, expected {want!r}")
    return problems


def params_digest(params: dict) -> str:
    """sha256 over the parameter tensors in name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()
