"""Tests of the benchmark's own code: tracing, statistics and the oracles.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


# ---------------------------------------------------------------- tracing

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["b", 5.0, 9.0, 0], ["c", 6.0, 7.0, 2]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_wrapped_calls_record_nested_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])
    tracer = tracing.Tracer()

    def inner():
        now[0] += 2.0

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        now[0] += 1.0
        inner_t()
        now[0] += 3.0
        return "done"

    outer_t = tracer.wrap("m.outer", outer)
    assert outer_t() == "done"
    assert tracer.spans == [["m.outer", 0.0, 6.0, -1], ["m.inner", 1.0, 3.0, 0]]
    assert tracing.self_times(tracer.spans) == [4.0, 2.0]
    with tracer.paused():
        outer_t()
    assert len(tracer.spans) == 2


def test_layer_metrics_counts_and_ratios():
    # two requests, each encoding two items, and one update with one
    # generator forward; one encode outside any request
    names = ["harness.recommend_payload", "model.encode_item",
             "harness.online_update", "generator.generator_forward"]
    spans = [[0, 0.0, 1.0, -1], [1, 0.1, 0.2, 0], [1, 0.3, 0.5, 0],
             [0, 2.0, 3.0, -1], [1, 2.1, 2.2, 3], [1, 2.3, 2.4, 3],
             [2, 4.0, 5.0, -1], [3, 4.5, 4.75, 6],
             [1, 6.0, 6.5, -1]]
    export = {"names": names, "spans": spans, "entries_scored": 7,
              "updated_fractions": [0.5, 1.0]}
    out = tracing.layer_metrics(export)
    assert out["model.encode_item.calls"] == 5
    assert out["model.items_encoded_per_request"] == 2.0
    assert out["generator.forwards_per_update"] == 1.0
    assert out["generator.generator_forward.self_s"] == pytest.approx(0.25)
    assert out["harness.recommend_payload.self_s"] == pytest.approx(0.7 + 0.8)
    assert out["retrieval.entries_scored"] == 7
    assert out["adaptive.updated_fraction_mean"] == 0.75
    assert out["trace.spans"] == 9
    assert set(out) <= {name for name, _, _ in tracing.PER_LAYER}


# ------------------------------------------------------------- statistics

def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 90) == 90
    assert checks.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert checks.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_tail_sample_rule():
    assert checks.beyond(100, 90) == 10
    assert checks.beyond(99, 90) == 9
    assert checks.beyond(40, 75) == 10
    # MIN_ROUNDS is the fewest samples with ten beyond the 90th percentile
    assert checks.beyond(workload.MIN_ROUNDS, 90) == 10
    assert checks.beyond(workload.MIN_ROUNDS - 1, 90) < 10


# ---------------------------------------------------------------- oracles

ENTRIES = [
    ("e1", [1.0, 0.0], 0, 0.0),
    ("e2", [0.0, 1.0], 0, 1.0),
    ("e3", [1.0, 1.0], 1, 0.5),
]


def test_retrieval_oracle_hand_values():
    ranked = checks.oracle_ranking([2.0, 0.0], ENTRIES, 0.6, 0.2, 0.2,
                                   sigma=1.0, t_now=0)
    # e1: 0.6*1 + 0.2*1 + 0; e3: 0.6/sqrt(2) + 0.2*exp(-1/2) + 0.2*0.5;
    # e2: 0.6*0 + 0.2*1 + 0.2*1
    assert [e for e, _ in ranked] == ["e1", "e3", "e2"]
    assert ranked[0][1] == pytest.approx(0.8, abs=1e-15)
    assert ranked[1][1] == pytest.approx(
        0.6 / math.sqrt(2) + 0.2 * math.exp(-0.5) + 0.1, abs=1e-15)
    assert ranked[2][1] == pytest.approx(0.4, abs=1e-15)


def test_retrieval_oracle_breaks_ties_by_entry_id():
    twins = [("b", [1.0, 2.0], 5, 0.3), ("a", [1.0, 2.0], 5, 0.3)]
    ranked = checks.oracle_ranking([1.0, 1.0], twins, 0.6, 0.2, 0.2, 10.0, 5)
    assert [e for e, _ in ranked] == ["a", "b"]


def test_retrieval_mismatch():
    oracle = [("a", 0.9), ("b", 0.9 - 1e-12), ("c", 0.5), ("d", 0.1)]
    assert checks.retrieval_mismatch(["a", "b"], oracle, 2) is None
    assert checks.retrieval_mismatch(["b", "a"], oracle, 2) is None   # near-tie
    assert "rank 2" in checks.retrieval_mismatch(["a", "c"], oracle, 2)
    assert "rank 1" in checks.retrieval_mismatch(["c", "a"], oracle, 2)
    assert "expected 2" in checks.retrieval_mismatch(["a"], oracle, 2)
    assert "duplicate" in checks.retrieval_mismatch(["a", "a"], oracle, 2)
    assert "unknown" in checks.retrieval_mismatch(["a", "z"], oracle, 2)


def test_ranking_metrics_hand_values():
    lists = {"u1": ["a", "t", "b"], "u2": ["x", "y"], "u3": ["t"],
             "u4": [f"i{j}" for j in range(10)] + ["late"]}
    truth = {"u1": "t", "u2": "z", "u4": "late"}   # u3 has no held-out item
    got = checks.ranking_metrics(lists, truth, k=10)
    assert got["hr"] == pytest.approx(1 / 3, abs=1e-15)
    assert got["ndcg"] == pytest.approx((1 / math.log2(3)) / 3, abs=1e-15)
    assert got["mrr"] == pytest.approx((1 / 2 + 1 / 11) / 3, abs=1e-15)


def _payload(recs):
    return {"recommendations": [
        {"item_id": i, "score": s, "explanation_text": t} for i, s, t in recs]}


def test_payload_properties():
    good = _payload([("i2", 0.5, "x"), ("i1", 0.2, "y"), ("i3", 0.2, "z")])
    assert checks.payload_problems(good, 3, ["i9"]) == []
    assert checks.payload_problems(good, 4, []) == ["3 items, expected 4"]
    tie = _payload([("i2", 0.5, "x"), ("i3", 0.2, "y"), ("i1", 0.2, "z")])
    assert checks.payload_problems(tie, 3, []) == ["order broken at i1"]
    rising = _payload([("i1", 0.2, "x"), ("i2", 0.5, "y")])
    assert checks.payload_problems(rising, 2, []) == ["order broken at i2"]
    assert checks.payload_problems(good, 3, ["i1"]) == ["items from the history: ['i1']"]
    bad_score = _payload([("i1", 1.5, "x")])
    assert checks.payload_problems(bad_score, 1, []) == ["score 1.5 outside [0, 1]"]
    long_text = _payload([("i1", 0.5, "w" * 401)])
    assert checks.payload_problems(long_text, 1, []) == ["explanation of 401 characters"]
    no_text = _payload([("i1", 0.5, "")])
    assert checks.payload_problems(no_text, 1, []) == ["explanation of 0 characters"]
    dup = _payload([("i1", 0.5, "x"), ("i1", 0.5, "x")])
    assert checks.payload_problems(dup, 2, []) == ["duplicate items"]


def test_update_record_rate():
    ok = {"uncertainty": 0.25, "eta": 0.1 * math.exp(-0.25)}
    assert checks.update_problems(ok, 0.1, 1.0) == []
    stale = {"uncertainty": 0.25, "eta": 0.1}
    assert checks.update_problems(stale, 0.1, 1.0) == [
        f"eta 0.1, expected {0.1 * math.exp(-0.25)!r}"]
    wide = {"uncertainty": 1.5, "eta": 0.1 * math.exp(-1.5)}
    assert checks.update_problems(wide, 0.1, 1.0) == ["uncertainty 1.5 outside [0, 1]"]


# ---------------------------------------------------- BENCHMARK.json agrees

def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tracing.PER_LAYER
