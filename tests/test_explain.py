"""Explanation oracle tests: byte-identical golden renders, the declared
tie order, the argmax type invariant, and the length cap."""

import numpy as np
import pytest

from mmrec.explain import (
    CONTEXTUAL,
    FALLBACK,
    MAX_CHARS,
    PREFERENCE,
    SIMILARITY,
    ExplainError,
    PreferenceHead,
    aspect_item_table,
    context_rows,
    context_vector,
    explain_recommendation,
    init_context_params,
    preference_distribution,
    preference_explanation_prob,
    select_and_render,
    similar_from_history,
)
from mmrec.numerics import init_matrix, make_rng, softmax

D = 6


def _head(labels=("cat0", "cat1", "cat2")):
    return PreferenceHead(w=np.zeros((D, len(labels))), b=np.zeros(len(labels)),
                          aspect_labels=list(labels))


def test_preference_head_requires_two_aspects():
    with pytest.raises(ExplainError):
        PreferenceHead(w=np.zeros((D, 1)), b=np.zeros(1), aspect_labels=["only"])


def test_preference_distribution_is_softmax():
    head = _head()
    head.b = np.array([1.0, 0.0, -1.0])
    p = preference_distribution(np.zeros(D), head)
    assert np.allclose(p, softmax(np.array([1.0, 0.0, -1.0])))


def test_aspect_item_table_uniform_over_members():
    table = aspect_item_table(
        ["a", "b"],
        {"i1": frozenset({"a"}), "i2": frozenset({"a"}), "i3": frozenset({"b"})},
    )
    assert table["a"] == {"i1": 0.5, "i2": 0.5}
    assert table["b"] == {"i3": 1.0}


def test_preference_prob_hand_worked_and_uncovered_zero():
    head = _head(["a", "b"])
    table = {"a": {"i1": 0.5}, "b": {"i2": 1.0}}
    p_u = np.array([0.8, 0.2])
    # covered by top aspect: 0.8*0.5 * 0.2*1.0 ... i1 not in b -> factor 0
    # with top_k=1: just 0.8 * 0.5
    assert preference_explanation_prob("i1", p_u, head, table, top_k=1) == pytest.approx(0.4)
    # item in no top aspect -> exactly 0
    assert preference_explanation_prob("ix", p_u, head, table, top_k=2) == 0.0


def test_similar_from_history_tie_by_ascending_id():
    emb = {"t": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]),
           "a": np.array([3.0, 0.0]), "c": np.array([0.0, 1.0])}
    got = similar_from_history("t", ["b", "c", "a"], emb, k=2)
    # a and b tie at cosine 1.0; ascending id puts a first
    assert [h for h, _ in got] == ["a", "b"]
    assert got[0][1] == pytest.approx(1.0)
    with pytest.raises(ExplainError):
        similar_from_history("t", [], emb, k=1)


def test_context_vector_convex_combination():
    params = init_context_params(make_rng(0), D)
    rows, labels = context_rows(7200, 1, params)
    assert rows.shape == (3, D)
    assert labels[1] == "location"
    c_t, w = context_vector(np.ones(D), rows, params)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= 0)
    assert np.allclose(c_t, w @ (rows @ params["ctx.wv"]))


def test_context_rows_time_bucket():
    params = init_context_params(make_rng(0), D)
    # 7200s = hour 2 -> 3-hour bucket 0; 4*3600=hour 4 -> bucket 1
    _, labels0 = context_rows(7200, 0, params)
    _, labels1 = context_rows(4 * 3600, 0, params)
    assert "bucket 0" in labels0[0]
    assert "bucket 1" in labels1[0]


def test_golden_renders_byte_identical():
    text, d = select_and_render("Title X", 0.9, 0.1, 0.1,
                                {"aspect": "comedy", "neighbor": "n", "descriptor": "x"})
    assert text == ("Recommended because you often choose comedy titles, "
                    "and 'Title X' matches that interest.")
    assert d.chosen_type == PREFERENCE

    text, d = select_and_render("Title X", 0.1, 0.9, 0.1,
                                {"neighbor": "Old Favourite", "descriptor": "x"})
    assert text == "Recommended because 'Title X' is close to 'Old Favourite' from your history."
    assert d.chosen_type == SIMILARITY

    text, d = select_and_render("Title X", 0.0, 0.0, 0.7,
                                {"descriptor": "time-of-day bucket 3"})
    assert text == "Recommended because 'Title X' fits the current context: time-of-day bucket 3."
    assert d.chosen_type == CONTEXTUAL


def test_fallback_when_no_evidence():
    text, d = select_and_render("Title X", 0.0, 0.0, 0.0, {})
    assert d.chosen_type == FALLBACK
    assert text == "Recommended based on your overall activity: 'Title X'."


def test_tie_order_preference_over_similarity_over_context():
    slots = {"aspect": "a", "neighbor": "n", "descriptor": "d"}
    _, d = select_and_render("T", 0.5, 0.5, 0.5, slots)
    assert d.chosen_type == PREFERENCE
    _, d = select_and_render("T", 0.0, 0.5, 0.5, slots)
    assert d.chosen_type == SIMILARITY


def test_missing_slot_disables_type():
    # highest weight lacks its slot -> next best type is used
    _, d = select_and_render("T", 0.9, 0.5, 0.1, {"neighbor": "n", "descriptor": "d"})
    assert d.chosen_type == SIMILARITY


def test_render_capped_at_400_chars():
    text, _ = select_and_render("X" * 1000, 0.9, 0.0, 0.0, {"aspect": "a"})
    assert len(text) <= MAX_CHARS


def test_chosen_type_is_argmax_of_weights():
    # property: with all slots present, chosen type always attains the max
    rng = make_rng(5)
    slots = {"aspect": "a", "neighbor": "n", "descriptor": "d"}
    for _ in range(50):
        a, s, c = rng.uniform(0.01, 1.0, size=3)
        _, d = select_and_render("T", a, s, c, slots)
        weights = {PREFERENCE: a, SIMILARITY: s, CONTEXTUAL: c}
        assert weights[d.chosen_type] == max(weights.values())


def test_end_to_end_explanation(tiny_ds):
    ds = tiny_ds
    rng = make_rng(1)
    labels = sorted({c for r in ds.items.values() for c in r.categories})
    head = PreferenceHead(w=init_matrix(rng, (D, len(labels))),
                          b=np.zeros(len(labels)), aspect_labels=labels)
    table = aspect_item_table(labels, {i: r.categories for i, r in ds.items.items()})
    emb = {iid: rng.standard_normal(D) + 0.01 for iid in ds.item_ids}
    ctx = init_context_params(rng, D)

    uid = next(u for u in sorted(ds.users) if ds.users[u].history)
    user = ds.users[uid]
    target = user.history[-1]
    text, decision = explain_recommendation(
        user, ds.items[target], rng.standard_normal(D), head, table, emb, ctx,
        timestamp=1_000_000,
    )
    assert decision.chosen_type in (PREFERENCE, SIMILARITY, CONTEXTUAL, FALLBACK)
    assert 0 < len(text) <= MAX_CHARS
    assert (ds.items[target].title or target) in text
