"""Metric oracle tests: hand-worked values (NDCG at rank 2 = 1/log2(3)),
brute-force references to 1e-12, and baseline generators."""

import math

import numpy as np
import pytest

from mmrec.metrics import (
    coverage_at_100,
    fairness_score,
    hr_at_k,
    intra_list_diversity,
    mrr,
    ndcg_at_k,
    novelty,
    popularity_baseline_lists,
    random_baseline_lists,
    report_table,
    EvalReport,
)
from mmrec.numerics import cosine, make_rng

LISTS = {
    "u1": ["a", "b", "c", "d"],   # target b at rank 2
    "u2": ["x", "y", "z", "a"],   # target a at rank 4
    "u3": ["p", "q", "r", "s"],   # target missing
}
TRUTH = {"u1": "b", "u2": "a", "u3": "nope"}


def test_hr_hand_worked():
    assert hr_at_k(LISTS, TRUTH, 2) == pytest.approx(1 / 3)
    assert hr_at_k(LISTS, TRUTH, 4) == pytest.approx(2 / 3)
    # users without ground truth are skipped, not counted as misses
    assert hr_at_k({"u1": ["a", "b"], "u9": ["a"]}, {"u1": "b"}, 2) == 1.0


def test_ndcg_hand_worked():
    # rank 2 contributes 1/log2(3) ~= 0.63093
    assert ndcg_at_k({"u": ["a", "t"]}, {"u": "t"}, 5) == pytest.approx(
        1 / math.log2(3), abs=1e-5
    )
    assert 1 / math.log2(3) == pytest.approx(0.63093, abs=1e-5)
    # rank 1 is a perfect 1.0; missing is 0
    assert ndcg_at_k({"u": ["t"]}, {"u": "t"}, 5) == 1.0
    assert ndcg_at_k({"u": ["a"]}, {"u": "t"}, 5) == 0.0
    got = ndcg_at_k(LISTS, TRUTH, 4)
    expect = (1 / math.log2(3) + 1 / math.log2(5) + 0.0) / 3
    assert got == pytest.approx(expect, abs=1e-12)


def test_mrr_hand_worked():
    assert mrr(LISTS, TRUTH) == pytest.approx((1 / 2 + 1 / 4 + 0) / 3, abs=1e-12)
    assert mrr({"u": ["t", "a"]}, {"u": "t"}) == 1.0


def test_ranking_metrics_bruteforce_reference():
    rng = make_rng(6)
    catalog = [f"i{j}" for j in range(30)]
    lists = {}
    truth = {}
    for u in range(25):
        perm = rng.permutation(30)
        lists[f"u{u}"] = [catalog[i] for i in perm[:10]]
        truth[f"u{u}"] = catalog[int(rng.integers(30))]

    # independent brute force
    def brute(k):
        hr = ndcg = rr = 0.0
        for u in lists:
            lst = lists[u]
            t = truth[u]
            if t in lst[:k]:
                r = lst[:k].index(t) + 1
                hr += 1
                ndcg += 1 / math.log2(r + 1)
            if t in lst:
                rr += 1 / (lst.index(t) + 1)
        n = len(lists)
        return hr / n, ndcg / n, rr / n

    for k in (1, 5, 10):
        bh, bn, br = brute(k)
        assert abs(hr_at_k(lists, truth, k) - bh) < 1e-12
        assert abs(ndcg_at_k(lists, truth, k) - bn) < 1e-12
    assert abs(mrr(lists, truth) - brute(10)[2]) < 1e-12


def test_ild_hand_worked():
    emb = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
           "c": np.array([1.0, 0.0])}
    # pairs: (a,b)=1, (a,c)=0, (b,c)=1 -> mean 2/3
    assert intra_list_diversity([emb["a"], emb["b"], emb["c"]]) == pytest.approx(2 / 3)
    assert intra_list_diversity([emb["a"]]) == 0.0
    # identical items -> zero diversity
    assert intra_list_diversity([emb["a"], emb["c"]]) == pytest.approx(0.0)


def test_ild_matches_bruteforce():
    # bit for bit: the scalar cosines summed pair by pair in list order
    rng = make_rng(7)
    for n in (2, 3, 8, 10):
        for _ in range(25):
            vecs = rng.standard_normal((n, 4)) + 0.01
            total, pairs = 0.0, 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += 1.0 - cosine(vecs[i], vecs[j])
                    pairs += 1
            assert intra_list_diversity(vecs) == total / pairs


def test_coverage_hand_worked():
    lists = {"u1": ["a", "b"], "u2": ["b", "c"]}
    assert coverage_at_100(lists, 10) == pytest.approx(0.3)
    assert coverage_at_100({}, 10) == 0.0


def test_novelty_bounds_and_hand_values():
    # all recommendations at the floor frequency -> maximal novelty 1.0
    assert novelty({"u": ["x", "y"]}, {}, 100) == pytest.approx(1.0)
    # an item with frequency 1 has novelty 0
    assert novelty({"u": ["a"]}, {"a": 1.0}, 100) == pytest.approx(0.0)
    # frequency 1/sqrt(catalog) sits exactly halfway in log space
    n = 256
    f = 1.0 / math.sqrt(n)
    assert novelty({"u": ["a"]}, {"a": f}, n) == pytest.approx(0.5)
    val = novelty({"u": ["a", "b"]}, {"a": 0.5, "b": 0.01}, 100)
    assert 0.0 <= val <= 1.0


def test_fairness_score_hand_worked():
    scored = {
        "u1": [("a", 0.9), ("b", 0.9)],      # g0: 2/2 above
        "u2": [("a", 0.1), ("b", 0.9)],      # g1: 1/2 above
    }
    groups = {"u1": "g0", "u2": "g1"}
    assert fairness_score(scored, groups, 0.5) == pytest.approx(0.5)
    # a single group cannot have a gap
    assert fairness_score(scored, {"u1": "g0", "u2": "g0"}, 0.5) == 1.0


def test_random_baseline_properties():
    rng = make_rng(8)
    catalog = [f"i{j}" for j in range(20)]
    lists = random_baseline_lists(["u1", "u2"], catalog, 10, rng)
    for lst in lists.values():
        assert len(lst) == 10
        assert len(set(lst)) == 10      # no repeats
        assert set(lst) <= set(catalog)


def test_popularity_baseline_order_and_exclusion():
    catalog = ["a", "b", "c", "d"]
    pop = {"a": 5, "b": 9, "c": 1}
    lists = popularity_baseline_lists(["u"], catalog, pop, 4)
    assert lists["u"] == ["b", "a", "c", "d"]
    lists = popularity_baseline_lists(["u"], catalog, pop, 4, exclude={"u": {"b"}})
    assert lists["u"] == ["a", "c", "d"]


def test_report_table_contains_all_metrics():
    reports = {
        "model": EvalReport(metrics={"hr@5": 0.5, "mrr": 0.25}),
        "random": EvalReport(metrics={"hr@5": 0.1}),
    }
    table = report_table(reports)
    assert "hr@5" in table and "mrr" in table
    assert "model" in table and "random" in table
    assert "0.5000" in table
