"""In-dataset metadata retrieval.

Entries are item-description embeddings plus per-category centroids,
ranked by a composite of cosine similarity, Gaussian temporal relevance,
and credibility. Retrieval is an exact linear scan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import cosine

log = logging.getLogger(__name__)

DAY_SECONDS = 86400


class RetrievalError(ValueError):
    pass


@dataclass
class ContextEntry:
    entry_id: str
    source_item_id: str
    embedding: np.ndarray
    timestamp: int
    credibility: float
    text: str

    def __post_init__(self):
        if not (0.0 <= self.credibility <= 1.0):
            raise RetrievalError(f"credibility {self.credibility} outside [0,1]")
        if np.linalg.norm(self.embedding) == 0.0:
            raise RetrievalError(f"zero embedding for entry {self.entry_id}")


@dataclass
class RetrievalConfig:
    k: int = 4
    lambda_sim: float = 0.6
    lambda_temporal: float = 0.2
    lambda_credibility: float = 0.2
    sigma: float = 30.0 * DAY_SECONDS

    def __post_init__(self):
        if self.k < 0:
            raise RetrievalError("K must be nonnegative")
        if self.sigma <= 0:
            raise RetrievalError("sigma must be positive")
        if self.lambda_sim + self.lambda_temporal + self.lambda_credibility <= 0:
            raise RetrievalError("at least one lambda must be positive")


@dataclass
class RetrievedContext:
    entries: list[tuple[ContextEntry, float]] = field(default_factory=list)

    def embeddings(self) -> list[np.ndarray]:
        return [e.embedding for e, _ in self.entries]


def credibility_from_counts(count: int, max_count: int) -> float:
    """min(1, log(1+count)/log(1+max_count)); 0 when the corpus has no reviews."""
    if max_count <= 0:
        return 0.0
    return min(1.0, float(np.log1p(count) / np.log1p(max_count)))


def build_index(
    items: dict,
    embed_item,
    item_timestamps: dict[str, int],
    popularity: dict[str, int],
) -> list[ContextEntry]:
    """One entry per item description plus one per category centroid.

    ``embed_item`` maps an ItemRecord to its current embedding. Items with
    empty description and no categories are skipped with a log line.
    """
    max_count = max(popularity.values(), default=0)
    entries: list[ContextEntry] = []
    embeddings: dict[str, np.ndarray] = {}
    skipped = 0
    for iid in sorted(items):
        rec = items[iid]
        if not rec.description_tokens and not rec.categories:
            skipped += 1
            continue
        emb = np.asarray(embed_item(rec), dtype=np.float64)
        if np.linalg.norm(emb) == 0.0:
            skipped += 1
            continue
        embeddings[iid] = emb
        entries.append(
            ContextEntry(
                entry_id=f"item:{iid}",
                source_item_id=iid,
                embedding=emb,
                timestamp=item_timestamps.get(iid, 0),
                credibility=credibility_from_counts(popularity.get(iid, 0), max_count),
                text=rec.title,
            )
        )
    if skipped:
        log.info("skipped %d items without description/categories", skipped)

    category_members: dict[str, list[str]] = {}
    for iid in sorted(items):
        for c in sorted(items[iid].categories):
            category_members.setdefault(c, []).append(iid)
    for cat in sorted(category_members):
        members = [m for m in category_members[cat] if m in embeddings]
        if not members:
            continue
        centroid = np.mean([embeddings[m] for m in members], axis=0)
        if np.linalg.norm(centroid) == 0.0:
            continue
        entries.append(
            ContextEntry(
                entry_id=f"cat:{cat}",
                source_item_id=members[0],
                embedding=centroid,
                timestamp=int(np.mean([item_timestamps.get(m, 0) for m in members])),
                credibility=credibility_from_counts(
                    sum(popularity.get(m, 0) for m in members), max_count * max(1, len(members))
                ),
                text=f"category {cat}",
            )
        )
    return entries


def temporal_relevance(t_current: float, t_j: float, sigma: float) -> float:
    """Gaussian recency kernel exp(-(dt)^2 / (2 sigma^2)), in (0, 1]."""
    if sigma <= 0:
        raise RetrievalError("sigma must be positive")
    dt = float(t_current) - float(t_j)
    return float(np.exp(-(dt * dt) / (2.0 * sigma * sigma)))


def relevance_score(
    q_u: np.ndarray, entry: ContextEntry, config: RetrievalConfig, t_current: float
) -> float:
    """Weighted sum of similarity, temporal relevance, and credibility."""
    sim = cosine(q_u, entry.embedding)
    temp = temporal_relevance(t_current, entry.timestamp, config.sigma)
    return (
        config.lambda_sim * sim
        + config.lambda_temporal * temp
        + config.lambda_credibility * entry.credibility
    )


def retrieve_top_k(
    q_u: np.ndarray,
    index: list[ContextEntry],
    config: RetrievalConfig,
    t_current: float,
) -> RetrievedContext:
    """Exactly the K highest-scoring entries; ties broken by ascending
    entry_id. K=0 yields an empty context (retrieval ablation)."""
    if not index:
        raise RetrievalError("empty retrieval index")
    if config.k == 0:
        return RetrievedContext(entries=[])
    scored = [(relevance_score(q_u, e, config, t_current), e) for e in index]
    scored.sort(key=lambda se: (-se[0], se[1].entry_id))
    top = scored[: config.k]
    return RetrievedContext(entries=[(e, s) for s, e in top])
