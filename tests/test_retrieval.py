"""Retrieval oracle tests: hand-worked composite scores, a brute-force
top-K reference, tie-breaks, and the temporal kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrec.numerics import cosine, make_rng
from mmrec.retrieval import (
    ContextEntry,
    RetrievalConfig,
    RetrievalError,
    build_index,
    credibility_from_counts,
    relevance_score,
    retrieve_top_k,
    temporal_relevance,
)


def _entry(eid, emb, ts=0, cred=0.5):
    return ContextEntry(entry_id=eid, source_item_id=eid, embedding=np.asarray(emb, float),
                        timestamp=ts, credibility=cred, text=eid)


def test_entry_invariants():
    with pytest.raises(RetrievalError):
        _entry("a", [1.0, 0.0], cred=1.5)
    with pytest.raises(RetrievalError):
        _entry("a", [0.0, 0.0])


def test_config_invariants():
    with pytest.raises(RetrievalError):
        RetrievalConfig(k=-1)
    with pytest.raises(RetrievalError):
        RetrievalConfig(sigma=0.0)
    with pytest.raises(RetrievalError):
        RetrievalConfig(lambda_sim=0, lambda_temporal=0, lambda_credibility=0)


def test_credibility_hand_values():
    assert credibility_from_counts(0, 10) == 0.0
    assert credibility_from_counts(10, 10) == pytest.approx(1.0)
    assert credibility_from_counts(3, 10) == pytest.approx(np.log(4) / np.log(11))
    assert credibility_from_counts(5, 0) == 0.0  # no reviews in corpus


def test_temporal_kernel_hand_values():
    assert temporal_relevance(100, 100, 10) == pytest.approx(1.0)
    # one sigma away: exp(-1/2)
    assert temporal_relevance(110, 100, 10) == pytest.approx(np.exp(-0.5))
    # symmetric in dt
    assert temporal_relevance(90, 100, 10) == temporal_relevance(110, 100, 10)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1, 1e6))
@settings(max_examples=50, deadline=None)
def test_temporal_kernel_bounded_and_monotone(t, tj, sigma):
    r = temporal_relevance(t, tj, sigma)
    assert 0.0 <= r <= 1.0
    # moving further away never increases relevance
    further = temporal_relevance(t + abs(t - tj) + 1, tj, sigma) if t >= tj else \
        temporal_relevance(t - 1, tj, sigma)
    assert further <= r + 1e-12


def test_relevance_score_hand_worked():
    cfg = RetrievalConfig(k=2, lambda_sim=0.5, lambda_temporal=0.3,
                          lambda_credibility=0.2, sigma=10.0)
    q = np.array([1.0, 0.0])
    e = _entry("a", [1.0, 1.0], ts=100, cred=0.4)
    expect = 0.5 * (1 / np.sqrt(2)) + 0.3 * np.exp(-0.5) + 0.2 * 0.4
    assert relevance_score(q, e, cfg, t_current=110) == pytest.approx(expect)


def test_retrieve_matches_bruteforce_oracle():
    rng = make_rng(4)
    cfg = RetrievalConfig(k=5, sigma=50.0)
    index = [_entry(f"e{j:02d}", rng.standard_normal(6),
                    ts=int(rng.integers(0, 200)), cred=float(rng.uniform()))
             for j in range(30)]
    q = rng.standard_normal(6)
    got = retrieve_top_k(q, index, cfg, t_current=100.0)

    # independent brute force
    scored = sorted(
        ((cfg.lambda_sim * cosine(q, e.embedding)
          + cfg.lambda_temporal * temporal_relevance(100.0, e.timestamp, cfg.sigma)
          + cfg.lambda_credibility * e.credibility, e.entry_id) for e in index),
        key=lambda se: (-se[0], se[1]),
    )
    assert [e.entry_id for e, _ in got.entries] == [eid for _, eid in scored[:5]]
    for (e, s), (score, _) in zip(got.entries, scored):
        assert s == pytest.approx(score)


def test_retrieve_ties_break_by_entry_id():
    cfg = RetrievalConfig(k=2, lambda_sim=1.0, lambda_temporal=0.0,
                          lambda_credibility=0.0)
    # identical embeddings -> identical scores
    index = [_entry("b", [1.0, 0]), _entry("a", [1.0, 0]), _entry("c", [1.0, 0])]
    got = retrieve_top_k(np.array([1.0, 0.0]), index, cfg, 0.0)
    assert [e.entry_id for e, _ in got.entries] == ["a", "b"]


def test_k_zero_empty_context():
    cfg = RetrievalConfig(k=0)
    got = retrieve_top_k(np.ones(2), [_entry("a", [1, 0])], cfg, 0.0)
    assert got.entries == []
    assert got.embeddings() == []


def test_k_larger_than_index():
    cfg = RetrievalConfig(k=10)
    got = retrieve_top_k(np.ones(2), [_entry("a", [1, 0]), _entry("b", [0, 1])], cfg, 0.0)
    assert len(got.entries) == 2


def test_empty_index_errors():
    with pytest.raises(RetrievalError):
        retrieve_top_k(np.ones(2), [], RetrievalConfig(), 0.0)


def test_build_index_items_and_centroids(tiny_ds):
    ds = tiny_ds
    d = 5
    rng = make_rng(0)
    table = {iid: rng.standard_normal(d) + 0.1 for iid in ds.item_ids}
    ts = {iid: 100 for iid in ds.item_ids}
    index = build_index(ds.items, table, ts, ds.popularity)
    ids = [e.entry_id for e in index]
    n_cats = len({c for rec in ds.items.values() for c in rec.categories})
    assert sum(1 for i in ids if i.startswith("item:")) == ds.n_items
    assert sum(1 for i in ids if i.startswith("cat:")) == n_cats
    # a centroid equals the mean of its member embeddings
    cat = sorted({c for rec in ds.items.values() for c in rec.categories})[0]
    members = [iid for iid in ds.item_ids if cat in ds.items[iid].categories]
    centroid = next(e for e in index if e.entry_id == f"cat:{cat}")
    assert np.allclose(centroid.embedding, np.mean([table[m] for m in members], axis=0))
