"""Templated explanation generation.

Three explanation families (preference, similarity, contextual); the
rendered template is picked by the dominant type weight with the declared
tie order preference > similarity > contextual. Rendering is a pure
function of the decision and its slot fillers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import cosine, init_matrix, softmax

PREFERENCE = "preference"
SIMILARITY = "similarity"
CONTEXTUAL = "contextual"
FALLBACK = "fallback"

TYPE_ORDER = (PREFERENCE, SIMILARITY, CONTEXTUAL)

TEMPLATES = {
    PREFERENCE: "Recommended because you often choose {aspect} titles, and '{title}' matches that interest.",
    SIMILARITY: "Recommended because '{title}' is close to '{neighbor}' from your history.",
    CONTEXTUAL: "Recommended because '{title}' fits the current context: {descriptor}.",
    FALLBACK: "Recommended based on your overall activity: '{title}'.",
}

MAX_CHARS = 400


class ExplainError(ValueError):
    pass


@dataclass
class PreferenceHead:
    w: np.ndarray            # [d, A]
    b: np.ndarray            # [A]
    aspect_labels: list[str]

    def __post_init__(self):
        if len(self.aspect_labels) < 2:
            raise ExplainError("need at least 2 aspects")


@dataclass
class ExplanationDecision:
    alpha_pref: float
    alpha_sim: float
    alpha_context: float
    chosen_type: str
    template_id: str
    slots: dict[str, str] = field(default_factory=dict)


def preference_distribution(h_u: np.ndarray, head: PreferenceHead) -> np.ndarray:
    """Softmax preference distribution over aspects."""
    return softmax(h_u @ head.w + head.b)


def aspect_item_table(
    aspect_labels: list[str], item_categories: dict[str, frozenset[str]]
) -> dict[str, dict[str, float]]:
    """P(item | aspect) from category co-membership, normalized per aspect."""
    table: dict[str, dict[str, float]] = {}
    for aspect in aspect_labels:
        members = sorted(i for i, cats in item_categories.items() if aspect in cats)
        table[aspect] = {i: 1.0 / len(members) for i in members} if members else {}
    return table


def preference_explanation_prob(
    item_id: str,
    p_u: np.ndarray,
    head: PreferenceHead,
    aspect_items: dict[str, dict[str, float]],
    top_k: int = 2,
) -> float:
    """Product over the user's top-K aspects of
    P(aspect | preferences) * P(item | aspect).

    Used for ranking/weighting only; it is not a calibrated probability.
    Items outside every top aspect get 0 (similarity type is forced).
    """
    order = np.argsort(-p_u, kind="stable")[:top_k]
    prob = 1.0
    covered = False
    for k in order:
        aspect = head.aspect_labels[int(k)]
        p_item = aspect_items.get(aspect, {}).get(item_id, 0.0)
        if p_item > 0:
            covered = True
        prob *= float(p_u[int(k)]) * p_item
    return prob if covered else 0.0


def similar_from_history(
    item_id: str,
    history: list[str],
    embeddings: dict[str, np.ndarray],
    k: int,
) -> list[tuple[str, float]]:
    """Top-K history items by cosine to the target, ties by ascending id."""
    if not history:
        raise ExplainError("empty history: similarity explanations unavailable")
    target = embeddings[item_id]
    sims = [(cosine(target, embeddings[h]), h) for h in history]
    sims.sort(key=lambda sh: (-sh[0], sh[1]))
    return [(h, s) for s, h in sims[:k]]


def init_context_params(rng: np.random.Generator, d: int) -> dict:
    return {
        "ctx.time_emb": init_matrix(rng, (8, d)),    # 3-hour time-of-day buckets
        "ctx.trend_emb": init_matrix(rng, (4, d)),   # popularity-velocity buckets
        "ctx.wk": init_matrix(rng, (d, d)),
        "ctx.wv": init_matrix(rng, (d, d)),
    }


def context_rows(
    timestamp: int, trend_bucket: int, params: dict, location: np.ndarray | None = None
) -> tuple[np.ndarray, list[str]]:
    """Stack [h_time; h_location; h_trend]; location defaults to the zero
    substitute when the dataset carries no location signal."""
    d = params["ctx.wk"].shape[0]
    hour_bucket = (int(timestamp) // 3600 % 24) // 3
    h_time = params["ctx.time_emb"][hour_bucket]
    h_loc = np.zeros(d) if location is None else np.asarray(location, dtype=np.float64)
    h_trend = params["ctx.trend_emb"][int(np.clip(trend_bucket, 0, 3))]
    labels = [f"time-of-day bucket {hour_bucket}", "location", f"trend bucket {trend_bucket}"]
    return np.stack([h_time, h_loc, h_trend]), labels


def context_vector(
    h_query: np.ndarray, rows: np.ndarray, params: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Context-aware attention of the query over [time; location; trend].

    Returns (c_t, attention weights); c_t is a convex combination of the
    value-projected rows."""
    keys = rows @ params["ctx.wk"]
    scores = keys @ h_query / np.sqrt(h_query.size)
    weights = softmax(scores)
    values = rows @ params["ctx.wv"]
    return weights @ values, weights


def select_and_render(
    item_title: str,
    alpha_pref: float,
    alpha_sim: float,
    alpha_context: float,
    slots: dict[str, str],
) -> tuple[str, ExplanationDecision]:
    """Pick the dominant explanation type and render its template.

    Missing evidence (weight <= 0 or missing slot) disables a type; if no
    type is available a flagged generic fallback is used. Rendering is
    deterministic and capped at 400 characters."""
    weights = {
        PREFERENCE: alpha_pref if slots.get("aspect") else 0.0,
        SIMILARITY: alpha_sim if slots.get("neighbor") else 0.0,
        CONTEXTUAL: alpha_context if slots.get("descriptor") else 0.0,
    }
    chosen = None
    best = 0.0
    for t in TYPE_ORDER:  # declared tie order
        if weights[t] > best:
            best = weights[t]
            chosen = t
    if chosen is None:
        chosen = FALLBACK
    fill = {"title": item_title, **slots}
    text = TEMPLATES[chosen].format(**{
        k: fill.get(k, "") for k in ("title", "aspect", "neighbor", "descriptor")
    })[:MAX_CHARS]
    decision = ExplanationDecision(
        alpha_pref=alpha_pref, alpha_sim=alpha_sim, alpha_context=alpha_context,
        chosen_type=chosen, template_id=chosen, slots=dict(slots),
    )
    return text, decision


def explain_recommendation(
    user,
    item,
    h_user: np.ndarray,
    head: PreferenceHead,
    aspect_items: dict[str, dict[str, float]],
    item_embeddings: dict[str, np.ndarray],
    ctx_params: dict,
    timestamp: int = 0,
    trend_bucket: int = 0,
) -> tuple[str, ExplanationDecision]:
    """End-to-end explanation for one (user, item) pair.

    Type weights: alpha_pref = max aspect posterior mass; alpha_sim = max
    history cosine clamped to [0,1]; alpha_context = max context attention
    weight."""
    p_u = preference_distribution(h_user, head)
    top_aspect = head.aspect_labels[int(np.argmax(p_u))]
    alpha_pref = float(np.max(p_u))
    if preference_explanation_prob(item.item_id, p_u, head, aspect_items) <= 0.0:
        alpha_pref = 0.0

    slots: dict[str, str] = {}
    if alpha_pref > 0:
        slots["aspect"] = top_aspect

    alpha_sim = 0.0
    history = [h for h in user.history if h in item_embeddings and h != item.item_id]
    if history and item.item_id in item_embeddings:
        neighbors = similar_from_history(item.item_id, history, item_embeddings, k=1)
        if neighbors:
            alpha_sim = max(0.0, neighbors[0][1])
            slots["neighbor"] = neighbors[0][0]

    rows, labels = context_rows(timestamp, trend_bucket, ctx_params)
    _, cw = context_vector(h_user, rows, ctx_params)
    alpha_context = float(np.max(cw))
    slots["descriptor"] = labels[int(np.argmax(cw))]

    return select_and_render(item.title or item.item_id,
                             alpha_pref, alpha_sim, alpha_context, slots)
