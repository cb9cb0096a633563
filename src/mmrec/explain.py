"""Templated explanation generation.

Two explanation families (preference, similarity) and a flagged generic
fallback; the rendered template is picked by the dominant type weight with
the declared tie order preference > similarity. Every slot is filled from
what the request carries: the user's encoding and history, and the item's
categories and embedding. Rendering is a pure function of the decision and
its slot fillers. Callers compute the inputs shared by a request's items
once: the user's preference distribution, and the cosines between the
item and history embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax

PREFERENCE = "preference"
SIMILARITY = "similarity"
FALLBACK = "fallback"

TYPE_ORDER = (PREFERENCE, SIMILARITY)

TEMPLATES = {
    PREFERENCE: "Recommended because you often choose {aspect} titles, and '{title}' matches that interest.",
    SIMILARITY: "Recommended because '{title}' is close to '{neighbor}' from your history.",
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
    chosen_type: str
    template_id: str
    slots: dict[str, str] = field(default_factory=dict)


def preference_distribution(h_u: np.ndarray, head: PreferenceHead) -> np.ndarray:
    """Softmax preference distribution over aspects."""
    return softmax(h_u @ head.w + head.b)


def preference_aspect(
    p_u: np.ndarray,
    head: PreferenceHead,
    categories: frozenset[str],
    top_k: int = 2,
) -> str | None:
    """The first of the user's top-K aspects (by preference mass, ties by
    aspect index) that is among the item's categories, or None when the
    item has none of them and the preference type is unavailable."""
    for k in np.argsort(-p_u, kind="stable")[:top_k]:
        aspect = head.aspect_labels[int(k)]
        if aspect in categories:
            return aspect
    return None


def similar_from_history(
    neighbors: list[tuple[str, float]], k: int,
) -> list[tuple[str, float]]:
    """Top-K of the (history item, cosine to the target) pairs by cosine,
    ties by ascending id."""
    if not neighbors:
        raise ExplainError("empty history: similarity explanations unavailable")
    return sorted(neighbors, key=lambda hs: (-hs[1], hs[0]))[:k]


def select_and_render(
    item_title: str,
    alpha_pref: float,
    alpha_sim: float,
    slots: dict[str, str],
) -> tuple[str, ExplanationDecision]:
    """Pick the dominant explanation type and render its template.

    Missing evidence (weight <= 0 or missing slot) disables a type; if no
    type is available a flagged generic fallback is used. Rendering is
    deterministic and capped at 400 characters."""
    weights = {
        PREFERENCE: alpha_pref if slots.get("aspect") else 0.0,
        SIMILARITY: alpha_sim if slots.get("neighbor") else 0.0,
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
        k: fill.get(k, "") for k in ("title", "aspect", "neighbor")
    })[:MAX_CHARS]
    decision = ExplanationDecision(
        alpha_pref=alpha_pref, alpha_sim=alpha_sim,
        chosen_type=chosen, template_id=chosen, slots=dict(slots),
    )
    return text, decision


def explain_recommendation(
    item,
    p_u: np.ndarray,
    head: PreferenceHead,
    neighbors: list[tuple[str, float]],
) -> tuple[str, ExplanationDecision]:
    """End-to-end explanation for one (user, item) pair, given the user's
    preference distribution ``p_u`` and the (history item, cosine to the
    item) pairs of the user's history without the item itself.

    Type weights: alpha_pref = max aspect posterior mass, when one of the
    user's top aspects is among the item's categories (else 0); alpha_sim =
    max history cosine clamped to [0,1]."""
    aspect = preference_aspect(p_u, head, item.categories)
    alpha_pref = float(np.max(p_u)) if aspect is not None else 0.0

    slots: dict[str, str] = {}
    if aspect is not None:
        slots["aspect"] = aspect

    alpha_sim = 0.0
    if neighbors:
        nearest, sim = similar_from_history(neighbors, k=1)[0]
        alpha_sim = max(0.0, sim)
        slots["neighbor"] = nearest

    return select_and_render(item.title or item.item_id, alpha_pref, alpha_sim, slots)
