"""Ranking and beyond-accuracy metrics: HR@K, NDCG@K, MRR, intra-list
diversity, coverage@100, novelty, and a fairness score, plus random and
popularity baselines.

Leave-last-out protocol: one held-out item per user, full-catalog ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .debias import parity_gap
from .numerics import row_cosines, row_norms


@dataclass
class EvalReport:
    metrics: dict[str, float] = field(default_factory=dict)
    cutoffs: list[int] = field(default_factory=list)
    dataset_id: str = ""
    config_hash: str = ""
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "metrics": dict(sorted(self.metrics.items())),
            "cutoffs": self.cutoffs,
            "dataset_id": self.dataset_id,
            "config_hash": self.config_hash,
            "seed": self.seed,
        }


def _rank_of(ranked: list, target) -> int | None:
    """1-based rank of target in the list, None if absent."""
    for i, item in enumerate(ranked):
        if item == target:
            return i + 1
    return None


def hr_at_k(lists: dict, truth: dict, k: int) -> float:
    """Fraction of users whose held-out item appears in the top-K.
    Users without ground truth are skipped."""
    hits = 0
    counted = 0
    for user, ranked in lists.items():
        target = truth.get(user)
        if target is None:
            continue
        counted += 1
        rank = _rank_of(ranked[:k], target)
        if rank is not None:
            hits += 1
    return hits / counted if counted else 0.0


def ndcg_at_k(lists: dict, truth: dict, k: int) -> float:
    """Binary-relevance NDCG with a single relevant item (IDCG = 1):
    1/log2(rank+1) if the target is ranked within K, else 0."""
    total = 0.0
    counted = 0
    for user, ranked in lists.items():
        target = truth.get(user)
        if target is None:
            continue
        counted += 1
        rank = _rank_of(ranked[:k], target)
        if rank is not None:
            total += 1.0 / math.log2(rank + 1)
    return total / counted if counted else 0.0


def mrr(lists: dict, truth: dict) -> float:
    """Mean reciprocal rank (0 for users whose target is absent)."""
    total = 0.0
    counted = 0
    for user, ranked in lists.items():
        target = truth.get(user)
        if target is None:
            continue
        counted += 1
        rank = _rank_of(ranked, target)
        if rank is not None:
            total += 1.0 / rank
    return total / counted if counted else 0.0


def intra_list_diversity(vectors: np.ndarray) -> float:
    """Mean pairwise (1 - cosine) over a list's item embeddings (one row per
    item, in list order), in [0, 2]. Equal bit for bit to summing the
    scalar cosines pair by pair in order."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n < 2:
        return 0.0
    i, j = np.triu_indices(n, 1)   # (0, 1), (0, 2), ..., (n-2, n-1)
    norms = row_norms(vectors)
    cos = row_cosines(vectors[i], vectors[j], norms[i], norms[j])
    return float(np.cumsum(1.0 - cos)[-1] / i.size)


def coverage_at_100(lists: dict, catalog_size: int) -> float:
    """Distinct items recommended anywhere in a top-100, over the catalog."""
    seen = set()
    for ranked in lists.values():
        seen.update(ranked[:100])
    return len(seen) / catalog_size if catalog_size else 0.0


def novelty(lists: dict, pop_freq: dict, catalog_size: int) -> float:
    """Mean -log2(frequency) of recommended items, normalized by
    -log2(1/catalog) into [0,1]. Unseen items count as frequency
    1/catalog (maximally novel)."""
    if catalog_size <= 1:
        return 0.0
    floor = 1.0 / catalog_size
    denom = -math.log2(floor)
    total = 0.0
    count = 0
    for ranked in lists.values():
        for item in ranked:
            f = max(pop_freq.get(item, floor), 1e-300)
            total += min(-math.log2(f), denom)
            count += 1
    return (total / count) / denom if count else 0.0


def fairness_score(
    scored_lists: dict, groups: dict, tau: float
) -> float:
    """1 - parity gap of above-threshold score rates pooled per group.

    scored_lists: user -> list of (item, score); groups: user -> label.
    """
    by_group: dict[str, list[float]] = {}
    for user, entries in scored_lists.items():
        g = groups.get(user)
        if g is None:
            continue
        by_group.setdefault(g, []).extend(float(s) for _, s in entries)
    if len(by_group) < 2:
        return 1.0
    gap = parity_gap({g: np.asarray(v) for g, v in by_group.items()}, tau)
    return 1.0 - gap


def random_baseline_lists(
    users: list, catalog: list, n: int, rng: np.random.Generator
) -> dict:
    """Uniform-random rankings (without replacement) per user."""
    return {u: [catalog[i] for i in rng.permutation(len(catalog))[:n]] for u in users}


def popularity_baseline_lists(
    users: list, catalog: list, popularity: dict, n: int,
    exclude: dict | None = None,
) -> dict:
    """Most-popular-first ranking, optionally excluding seen items."""
    ordered = sorted(catalog, key=lambda i: (-popularity.get(i, 0), i))
    out = {}
    for u in users:
        seen = exclude.get(u, set()) if exclude else set()
        out[u] = [i for i in ordered if i not in seen][:n]
    return out


def report_table(reports: dict[str, EvalReport]) -> str:
    """Aligned plain-text table, one row per report (method/configuration)."""
    names = sorted({m for r in reports.values() for m in r.metrics})
    rows = []
    header = ["method"] + names
    for label, rep in reports.items():
        rows.append([label] + [f"{rep.metrics.get(m, float('nan')):.4f}" for m in names])
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines += [fmt.format(*r) for r in rows]
    return "\n".join(lines)
