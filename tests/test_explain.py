"""Explanation oracle tests: byte-identical golden renders, the declared
tie order, the argmax type invariant, and the length cap."""

import numpy as np
import pytest

from mmrec.dataset import ItemRecord, UserRecord
from mmrec.explain import (
    FALLBACK,
    MAX_CHARS,
    PREFERENCE,
    SIMILARITY,
    ExplainError,
    PreferenceHead,
    explain_recommendation,
    preference_aspect,
    preference_distribution,
    select_and_render,
    similar_from_history,
)
from mmrec.numerics import cosine, init_matrix, make_rng, softmax

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


def test_preference_aspect_hand_worked_and_uncovered_none():
    head = _head(["a", "b", "c"])
    p_u = np.array([0.5, 0.3, 0.2])
    # one category in the user's top aspect covers the item
    assert preference_aspect(p_u, head, frozenset({"a"})) == "a"
    # the second aspect covers it too; the first covering aspect is named
    assert preference_aspect(p_u, head, frozenset({"b", "x"})) == "b"
    assert preference_aspect(p_u, head, frozenset({"a", "b"})) == "a"
    # top_k=1 looks at the top aspect only
    assert preference_aspect(p_u, head, frozenset({"b"}), top_k=1) is None
    # an item outside every top aspect is not covered
    assert preference_aspect(p_u, head, frozenset({"c"})) is None
    assert preference_aspect(p_u, head, frozenset()) is None
    # tied mass is ordered by aspect index
    assert preference_aspect(np.full(3, 1 / 3), head, frozenset({"b", "c"})) == "b"


def _neighbors(target, history, emb):
    return [(h, cosine(emb[target], emb[h])) for h in history if h != target]


def test_similar_from_history_tie_by_ascending_id():
    emb = {"t": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]),
           "a": np.array([3.0, 0.0]), "c": np.array([0.0, 1.0])}
    got = similar_from_history(_neighbors("t", ["b", "c", "a"], emb), k=2)
    # a and b tie at cosine 1.0; ascending id puts a first
    assert [h for h, _ in got] == ["a", "b"]
    assert got[0][1] == pytest.approx(1.0)
    with pytest.raises(ExplainError):
        similar_from_history([], k=1)


def test_golden_renders_byte_identical():
    text, d = select_and_render("Title X", 0.9, 0.1,
                                {"aspect": "comedy", "neighbor": "n"})
    assert text == ("Recommended because you often choose comedy titles, "
                    "and 'Title X' matches that interest.")
    assert d.chosen_type == PREFERENCE

    text, d = select_and_render("Title X", 0.1, 0.9, {"neighbor": "Old Favourite"})
    assert text == "Recommended because 'Title X' is close to 'Old Favourite' from your history."
    assert d.chosen_type == SIMILARITY


def test_fallback_when_no_evidence():
    text, d = select_and_render("Title X", 0.0, 0.0, {})
    assert d.chosen_type == FALLBACK
    assert text == "Recommended based on your overall activity: 'Title X'."


def test_tie_order_preference_over_similarity():
    slots = {"aspect": "a", "neighbor": "n"}
    _, d = select_and_render("T", 0.5, 0.5, slots)
    assert d.chosen_type == PREFERENCE
    _, d = select_and_render("T", 0.0, 0.5, slots)
    assert d.chosen_type == SIMILARITY


def test_missing_slot_disables_type():
    # highest weight lacks its slot -> next best type is used
    _, d = select_and_render("T", 0.9, 0.5, {"neighbor": "n"})
    assert d.chosen_type == SIMILARITY


def test_render_capped_at_400_chars():
    text, _ = select_and_render("X" * 1000, 0.9, 0.0, {"aspect": "a"})
    assert len(text) <= MAX_CHARS


def test_chosen_type_is_argmax_of_weights():
    # property: with all slots present, chosen type always attains the max
    rng = make_rng(5)
    slots = {"aspect": "a", "neighbor": "n"}
    for _ in range(50):
        a, s = rng.uniform(0.01, 1.0, size=2)
        _, d = select_and_render("T", a, s, slots)
        weights = {PREFERENCE: a, SIMILARITY: s}
        assert weights[d.chosen_type] == max(weights.values())


def test_end_to_end_explanation(tiny_ds):
    ds = tiny_ds
    rng = make_rng(1)
    labels = sorted({c for r in ds.items.values() for c in r.categories})
    head = PreferenceHead(w=init_matrix(rng, (D, len(labels))),
                          b=np.zeros(len(labels)), aspect_labels=labels)
    emb = {iid: rng.standard_normal(D) + 0.01 for iid in ds.item_ids}

    uid = next(u for u in sorted(ds.users) if ds.users[u].history)
    user = ds.users[uid]
    target = user.history[-1]
    text, decision = explain_recommendation(
        ds.items[target], preference_distribution(rng.standard_normal(D), head),
        head, _neighbors(target, user.history, emb),
    )
    assert decision.chosen_type in (PREFERENCE, SIMILARITY, FALLBACK)
    assert 0 < len(text) <= MAX_CHARS
    assert (ds.items[target].title or target) in text


def test_single_category_item_in_top_aspect_gets_preference():
    # the user prefers "drama"; the item has that one category, and its
    # only history neighbour points the opposite way (cosine -1), so the
    # similarity type has no usable evidence
    head = PreferenceHead(w=np.zeros((D, 3)), b=np.array([2.0, 0.0, 0.0]),
                          aspect_labels=["drama", "comedy", "horror"])
    item = ItemRecord(item_id="i1", title="Target", description_tokens=[],
                      categories=frozenset({"drama"}), numeric_features=np.zeros(1))
    user = UserRecord(user_id="u1", history=["i0"])
    emb = {"i1": np.ones(D), "i0": -np.ones(D)}
    text, decision = explain_recommendation(
        item, preference_distribution(np.zeros(D), head), head,
        _neighbors("i1", user.history, emb))
    assert decision.chosen_type == PREFERENCE
    assert decision.slots["aspect"] == "drama"
    assert decision.alpha_pref == pytest.approx(float(np.max(softmax(head.b))))
    assert text == ("Recommended because you often choose drama titles, "
                    "and 'Target' matches that interest.")
