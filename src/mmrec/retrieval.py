"""In-dataset metadata retrieval.

Entries are item-description embeddings plus per-category centroids,
ranked by a composite of cosine similarity, Gaussian temporal relevance,
and credibility. Retrieval is an exact scan: one stacked product scores
every entry (the "Flat" index of Johnson et al. 2019, "Billion-scale
similarity search with GPUs"; nothing approximate is needed at catalog
scale), and a sort picks the top K.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericsError, row_cosines, row_norms

log = logging.getLogger(__name__)

DAY_SECONDS = 86400


class RetrievalError(ValueError):
    pass


@dataclass
class ContextEntry:
    """One entry of a :class:`RetrievalIndex`, as iteration yields it."""
    entry_id: str
    embedding: np.ndarray
    timestamp: int
    credibility: float


class RetrievalIndex:
    """Entries held as arrays, one row each: ids, embeddings (with their
    norms), timestamps and credibility. ``len()`` counts the entries, and
    iterating yields them as :class:`ContextEntry` objects."""

    def __init__(self, entry_ids: list[str], embeddings: np.ndarray,
                 timestamps: np.ndarray, credibility: np.ndarray):
        self.entry_ids = list(entry_ids)
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.credibility = np.asarray(credibility, dtype=np.float64)
        self.norms = row_norms(self.embeddings)
        bad = np.flatnonzero((self.credibility < 0.0) | (self.credibility > 1.0))
        if bad.size:
            raise RetrievalError(f"credibility {self.credibility[bad[0]]} "
                                 "outside [0,1]")
        zero = np.flatnonzero(self.norms == 0.0)
        if zero.size:
            raise RetrievalError(f"zero embedding for entry {self.entry_ids[zero[0]]}")
        # each entry's place when the ids are sorted (code point order, as
        # Python compares strings): the tie-break of retrieve_top_k
        order = np.argsort(np.array(self.entry_ids, dtype=str), kind="stable")
        self.id_rank = np.empty(len(order), dtype=np.int64)
        self.id_rank[order] = np.arange(len(order))

    def __len__(self) -> int:
        return len(self.entry_ids)

    def __iter__(self):
        return (self.entry(i) for i in range(len(self)))

    def entry(self, i: int) -> ContextEntry:
        return ContextEntry(entry_id=self.entry_ids[i], embedding=self.embeddings[i],
                            timestamp=int(self.timestamps[i]),
                            credibility=float(self.credibility[i]))


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


@dataclass
class IndexSource:
    """What an index takes from the dataset alone, in catalog row order: the
    items' entry ids, which of them may become entries (a description or a
    category), their timestamps, popularity and credibility, and the member
    rows of each category (categories in sorted order)."""
    entry_ids: list[str]
    described: np.ndarray       # bool per item
    timestamps: np.ndarray      # int per item
    popularity: np.ndarray      # int per item
    credibility: np.ndarray     # per item
    max_count: int
    categories: list[tuple[str, np.ndarray]]


def index_source(items: dict, item_ids: list[str], item_timestamps: dict[str, int],
                 popularity: dict[str, int]) -> IndexSource:
    max_count = max(popularity.values(), default=0)
    members: dict[str, list[int]] = {}
    for row, iid in enumerate(item_ids):
        for c in items[iid].categories:
            members.setdefault(c, []).append(row)
    return IndexSource(
        entry_ids=[f"item:{iid}" for iid in item_ids],
        described=np.array([bool(items[i].description_tokens or items[i].categories)
                            for i in item_ids], dtype=bool),
        timestamps=np.array([item_timestamps.get(i, 0) for i in item_ids], dtype=np.int64),
        popularity=np.array([popularity.get(i, 0) for i in item_ids], dtype=np.int64),
        credibility=np.array([credibility_from_counts(popularity.get(i, 0), max_count)
                              for i in item_ids]),
        max_count=max_count,
        categories=[(c, np.array(members[c])) for c in sorted(members)],
    )


def build_index(source: IndexSource, embeddings: np.ndarray) -> RetrievalIndex:
    """One entry per item description plus one per category centroid, from
    the catalog's ``embeddings`` (rows in catalog order).

    Items with empty description and no categories, or a zero embedding,
    are skipped with a log line; a centroid averages its other members.
    """
    usable = source.described & (row_norms(embeddings) != 0.0)
    skipped = int(usable.size - usable.sum())
    if skipped:
        log.info("skipped %d items without description/categories", skipped)
    rows = np.flatnonzero(usable)
    ids = [source.entry_ids[r] for r in rows]
    vecs, stamps, creds = [embeddings[rows]], [source.timestamps[rows]], \
        [source.credibility[rows]]
    for cat, members in source.categories:
        members = members[usable[members]]
        if not members.size:
            continue
        centroid = embeddings[members].mean(axis=0)
        if np.linalg.norm(centroid) == 0.0:
            continue
        ids.append(f"cat:{cat}")
        vecs.append(centroid[None])
        stamps.append([int(np.mean(source.timestamps[members]))])
        creds.append([credibility_from_counts(
            int(source.popularity[members].sum()),
            source.max_count * max(1, members.size))])
    return RetrievalIndex(ids, np.concatenate(vecs), np.concatenate(stamps),
                          np.concatenate(creds))


def temporal_relevance(t_current: float, t_j, sigma: float):
    """Gaussian recency kernel exp(-(dt)^2 / (2 sigma^2)), in (0, 1]; ``t_j``
    may be an array of timestamps."""
    if sigma <= 0:
        raise RetrievalError("sigma must be positive")
    dt = float(t_current) - np.asarray(t_j, dtype=np.float64)
    return np.exp(-(dt * dt) / (2.0 * sigma * sigma))


def relevance_scores(
    q_u: np.ndarray, index: RetrievalIndex, config: RetrievalConfig,
    t_current: float,
) -> np.ndarray:
    """Weighted sum of similarity, temporal relevance, and credibility of
    every entry, each equal bit for bit to the scalar formula."""
    q_u = np.asarray(q_u, dtype=np.float64).ravel()
    if q_u.shape[0] != index.embeddings.shape[1]:
        raise NumericsError(f"cosine length mismatch: {q_u.shape} vs "
                            f"{index.embeddings.shape[1:]}")
    sim = row_cosines(index.embeddings, q_u, index.norms, row_norms(q_u))
    temp = temporal_relevance(t_current, index.timestamps, config.sigma)
    return (
        config.lambda_sim * sim
        + config.lambda_temporal * temp
        + config.lambda_credibility * index.credibility
    )


def retrieve_top_k(
    q_u: np.ndarray,
    index: RetrievalIndex,
    config: RetrievalConfig,
    t_current: float,
) -> RetrievedContext:
    """Exactly the K highest-scoring entries; ties broken by ascending
    entry_id. K=0 yields an empty context (retrieval ablation)."""
    if not len(index):
        raise RetrievalError("empty retrieval index")
    if config.k == 0:
        return RetrievedContext(entries=[])
    scores = relevance_scores(q_u, index, config, t_current)
    top = np.lexsort((index.id_rank, -scores))[: config.k]
    return RetrievedContext(entries=[(index.entry(int(i)), float(scores[i]))
                                     for i in top])
