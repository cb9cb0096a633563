"""Retrieval oracle tests: hand-worked composite scores, a brute-force
top-K reference, tie-breaks, the temporal kernel, and bit-identity of the
matrix scan with the scalar formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrec.numerics import cosine, make_rng
from mmrec.retrieval import (
    RetrievalConfig,
    RetrievalError,
    RetrievalIndex,
    build_index,
    credibility_from_counts,
    index_source,
    relevance_scores,
    retrieve_top_k,
    temporal_relevance,
)


def _entry(eid, emb, ts=0, cred=0.5):
    return (eid, np.asarray(emb, float), ts, cred)


def _index(*entries):
    ids, embs, ts, creds = zip(*entries)
    return RetrievalIndex(list(ids), np.array(embs), np.array(ts), np.array(creds))


def _scalar_score(q, e, cfg, t):
    return (cfg.lambda_sim * cosine(q, e.embedding)
            + cfg.lambda_temporal * float(temporal_relevance(t, e.timestamp, cfg.sigma))
            + cfg.lambda_credibility * e.credibility)


def test_entry_invariants():
    with pytest.raises(RetrievalError):
        _index(_entry("a", [1.0, 0.0], cred=1.5))
    with pytest.raises(RetrievalError):
        _index(_entry("b", [1.0, 0.0]), _entry("a", [0.0, 0.0]))


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
    index = _index(_entry("a", [1.0, 1.0], ts=100, cred=0.4))
    expect = 0.5 * (1 / np.sqrt(2)) + 0.3 * np.exp(-0.5) + 0.2 * 0.4
    assert relevance_scores(q, index, cfg, t_current=110)[0] == pytest.approx(expect)


def test_scores_equal_scalar_formula_bit_for_bit():
    # the matrix scan scores every entry exactly as the per-entry formula
    rng = make_rng(9)
    cfg = RetrievalConfig(k=5, sigma=40.0)
    index = _index(*[_entry(f"e{j:03d}", rng.standard_normal(16),
                            ts=int(rng.integers(0, 300)), cred=float(rng.uniform()))
                     for j in range(200)])
    for _ in range(20):
        q = rng.standard_normal(16)
        got = relevance_scores(q, index, cfg, 150.0)
        want = [_scalar_score(q, e, cfg, 150.0) for e in index]
        assert got.tolist() == want


def test_retrieve_matches_bruteforce_oracle():
    rng = make_rng(4)
    cfg = RetrievalConfig(k=5, sigma=50.0)
    index = _index(*[_entry(f"e{j:02d}", rng.standard_normal(6),
                            ts=int(rng.integers(0, 200)), cred=float(rng.uniform()))
                     for j in range(30)])
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
    index = _index(_entry("b", [1.0, 0]), _entry("a", [1.0, 0]), _entry("c", [1.0, 0]))
    got = retrieve_top_k(np.array([1.0, 0.0]), index, cfg, 0.0)
    assert [e.entry_id for e, _ in got.entries] == ["a", "b"]


def test_exact_ties_keep_entry_id_order():
    # every score term ties exactly between repeated rows; the matrix scan
    # keeps them tied and orders them by id, whatever their index order
    rng = make_rng(2)
    base = [rng.standard_normal(8) for _ in range(5)]
    entries = [_entry(f"e{j:02d}", base[j % 5], ts=7, cred=0.25) for j in range(20)]
    cfg = RetrievalConfig(k=20, sigma=10.0)
    q = rng.standard_normal(8)
    for order in (entries, entries[::-1]):
        got = retrieve_top_k(q, _index(*order), cfg, 3.0)
        scores = [s for _, s in got.entries]
        ids = [e.entry_id for e, _ in got.entries]
        for a in range(0, 20, 4):
            assert len(set(scores[a:a + 4])) == 1
            assert ids[a:a + 4] == sorted(ids[a:a + 4])
        assert scores == sorted(scores, reverse=True)


def test_k_zero_empty_context():
    cfg = RetrievalConfig(k=0)
    got = retrieve_top_k(np.ones(2), _index(_entry("a", [1, 0])), cfg, 0.0)
    assert got.entries == []
    assert got.embeddings() == []


def test_k_larger_than_index():
    cfg = RetrievalConfig(k=10)
    got = retrieve_top_k(np.ones(2), _index(_entry("a", [1, 0]), _entry("b", [0, 1])),
                         cfg, 0.0)
    assert len(got.entries) == 2


def test_empty_index_errors():
    with pytest.raises(RetrievalError):
        retrieve_top_k(np.ones(2), RetrievalIndex([], np.zeros((0, 2)), [], []),
                       RetrievalConfig(), 0.0)


def test_build_index_items_and_centroids(tiny_ds):
    ds = tiny_ds
    d = 5
    rng = make_rng(0)
    table = rng.standard_normal((ds.n_items, d)) + 0.1
    ts = {iid: 100 for iid in ds.item_ids}
    index = build_index(index_source(ds.items, ds.item_ids, ts, ds.popularity), table)
    ids = [e.entry_id for e in index]
    n_cats = len({c for rec in ds.items.values() for c in rec.categories})
    assert sum(1 for i in ids if i.startswith("item:")) == ds.n_items
    assert sum(1 for i in ids if i.startswith("cat:")) == n_cats
    # a centroid equals the mean of its member embeddings
    cat = sorted({c for rec in ds.items.values() for c in rec.categories})[0]
    members = [j for j, iid in enumerate(ds.item_ids) if cat in ds.items[iid].categories]
    centroid = next(e for e in index if e.entry_id == f"cat:{cat}")
    assert np.allclose(centroid.embedding, np.mean(table[members], axis=0))


def test_single_member_centroid_ties_its_item(tiny_ds):
    # a category with one member has that member's embedding, timestamp and
    # credibility: both entries score the same, and the ids order them
    ds = tiny_ds
    rng = make_rng(1)
    table = rng.standard_normal((ds.n_items, 5))
    cats = {c for rec in ds.items.values() for c in rec.categories}
    loner = next(iid for iid in ds.item_ids if ds.items[iid].categories)
    items = {iid: rec for iid, rec in ds.items.items()}
    items["zz-solo"] = type(items[loner])(
        item_id="zz-solo", title="", description_tokens=[],
        categories=frozenset({"solo"}), numeric_features=np.zeros(1))
    ids = sorted(items)
    pop = {iid: j for j, iid in enumerate(ids)}
    full = np.vstack([table, rng.standard_normal((1, 5))])
    index = build_index(index_source(items, ids, {i: 50 for i in ids}, pop), full)
    assert "solo" not in cats and "cat:solo" in index.entry_ids
    solo = [e for e in index if e.entry_id in ("cat:solo", "item:zz-solo")]
    assert np.array_equal(solo[0].embedding, solo[1].embedding)
    assert (solo[0].timestamp, solo[0].credibility) == (solo[1].timestamp, solo[1].credibility)
    q = full[-1]
    got = retrieve_top_k(q, index, RetrievalConfig(k=2), 50.0)
    assert [e.entry_id for e, _ in got.entries] == ["cat:solo", "item:zz-solo"]
    assert got.entries[0][1] == got.entries[1][1]
