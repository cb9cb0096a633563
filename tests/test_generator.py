"""Generation-head oracle tests: exclusion/renormalization contracts,
causality, hand-worked two-item distributions, and finite-difference
checks of the full backward pass."""

import numpy as np
import pytest

from mmrec.generator import (
    ForwardResult,
    GenerationError,
    GenerationRequest,
    generator_backward,
    generator_forward,
    init_generator_params,
    nll_dlogits,
    predictive_entropy,
    rating_loss,
    rating_prediction,
    recommend_top_n,
    special_ids,
)
from mmrec.numerics import finite_diff_grad, make_rng, rel_error

N_ITEMS, D, DK, BLOCKS, MAXSEQ = 7, 6, 3, 2, 12


@pytest.fixture()
def params():
    return init_generator_params(make_rng(0), N_ITEMS, D, DK, BLOCKS, MAXSEQ)


def _request(**kw):
    base = dict(h_user=make_rng(1).standard_normal(D),
                context_embeddings=[], history=[1, 4], exclude=set(), n=5)
    base.update(kw)
    return GenerationRequest(**base)


def test_probs_form_distribution(params):
    fr = generator_forward(_request(), params)
    assert fr.probs.shape == (N_ITEMS,)
    assert np.all(fr.probs >= 0)
    assert fr.probs.sum() == pytest.approx(1.0)


def test_exclusion_masks_and_renormalizes(params):
    full = generator_forward(_request(), params)
    fr = generator_forward(_request(exclude={0, 3}), params)
    assert fr.probs[0] == 0.0 and fr.probs[3] == 0.0
    assert fr.probs.sum() == pytest.approx(1.0)
    # renormalized restriction of the unmasked distribution
    keep = full.probs.copy()
    keep[[0, 3]] = 0.0
    assert np.allclose(fr.probs, keep / keep.sum())


def test_all_excluded_errors(params):
    with pytest.raises(GenerationError, match="all items excluded"):
        generator_forward(_request(exclude=set(range(N_ITEMS))), params)


def test_two_item_hand_distribution():
    # single block, crafted so logits are [1, 0]: p = [e/(1+e), 1/(1+e)]
    p = init_generator_params(make_rng(2), 2, D, DK, 1, MAXSEQ)
    p["gen.wout"] = np.zeros((D, 2))
    p["gen.bout"] = np.array([1.0, 0.0])
    fr = generator_forward(_request(history=[]), p)
    e = np.exp(1.0)
    assert np.allclose(fr.probs, [e / (1 + e), 1 / (1 + e)])
    # uniform logits -> uniform distribution
    p["gen.bout"] = np.zeros(2)
    fr = generator_forward(_request(history=[]), p)
    assert np.allclose(fr.probs, 0.5)


def test_causality_prefix_positions_ignore_future(params):
    # the hidden state at position i must not change when later history
    # items change
    req_a = _request(history=[1, 2, 3])
    req_b = _request(history=[1, 2, 5])
    xa = generator_forward(req_a, params)._cache["x_final"]
    xb = generator_forward(req_b, params)._cache["x_final"]
    # positions before the altered last token are identical
    assert np.allclose(xa[:-1], xb[:-1])
    assert not np.allclose(xa[-1], xb[-1])


def test_history_truncated_to_position_budget(params):
    long_hist = [k % N_ITEMS for k in range(100)]
    fr = generator_forward(_request(history=long_hist), params)
    # sequence = user token + BOS + most recent (MAXSEQ - 2) items
    assert fr._cache["x0_rows"] == MAXSEQ
    assert fr._cache["history"] == long_hist[-(MAXSEQ - 2):]


def test_recommend_top_n_sorted_and_excludes(params):
    req = _request(exclude={2}, n=4)
    ranked = recommend_top_n(req, params)
    assert len(ranked) == 4
    assert 2 not in [i for i, _ in ranked]
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    probs = generator_forward(req, params).probs
    assert ranked[0][1] == pytest.approx(probs.max())


def test_recommend_ties_break_by_ascending_id():
    p = init_generator_params(make_rng(3), 5, D, DK, 1, MAXSEQ)
    p["gen.wout"] = np.zeros((D, 5))
    p["gen.bout"] = np.zeros(5)  # all probabilities equal
    ranked = recommend_top_n(_request(history=[], n=5), p)
    assert [i for i, _ in ranked] == [0, 1, 2, 3, 4]


def test_nll_matches_minus_log_prob(params):
    fr = generator_forward(_request(), params)
    loss, dlogits = nll_dlogits(fr, 2)
    assert loss == pytest.approx(-np.log(fr.probs[2]))
    # softmax CE gradient: p - onehot on allowed coordinates
    expect = fr.probs.copy()
    expect[2] -= 1.0
    assert np.allclose(dlogits, expect)
    with pytest.raises(GenerationError):
        fr2 = generator_forward(_request(exclude={2}), params)
        nll_dlogits(fr2, 2)


def test_generator_backward_matches_finite_diff(params):
    rng = make_rng(5)
    ctx = [rng.standard_normal(D)]
    h_user = rng.standard_normal(D)
    target = 3

    def loss_with(params_override):
        req = GenerationRequest(h_user=h_user, context_embeddings=ctx,
                                history=[1, 4], exclude={0})
        fr = generator_forward(req, params_override)
        l, _ = nll_dlogits(fr, target)
        return l

    req = GenerationRequest(h_user=h_user, context_embeddings=ctx,
                            history=[1, 4], exclude={0})
    fr = generator_forward(req, params)
    loss, dlogits = nll_dlogits(fr, target)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_h_user = generator_backward(fr, dlogits, params, grads)

    for name in ["gen.wout", "gen.bout", "gen.item_emb", "gen.pos",
                 "gen.wsoft", "gen.b0.wq", "gen.b1.wv", "gen.b1.wo"]:
        base = params[name]

        def f(flat, name=name, base=base):
            saved = params[name]
            params[name] = flat.reshape(base.shape)
            try:
                return loss_with(params)
            finally:
                params[name] = saved

        numeric = finite_diff_grad(f, base.ravel().copy())
        err = rel_error(grads[name].ravel(), numeric)
        assert err < 1e-4, f"{name}: {err}"

    # gradient w.r.t. the conditioning user vector
    def f_user(flat):
        req2 = GenerationRequest(h_user=flat, context_embeddings=ctx,
                                 history=[1, 4], exclude={0})
        fr2 = generator_forward(req2, params)
        return nll_dlogits(fr2, target)[0]

    numeric = finite_diff_grad(f_user, h_user.copy())
    assert rel_error(d_h_user, numeric) < 1e-4


def test_predictive_entropy_bounds(params):
    fr = generator_forward(_request(), params)
    assert 0.0 <= predictive_entropy(fr) <= 1.0
    # uniform distribution has normalized entropy exactly 1
    uni = ForwardResult(
        probs=np.full(4, 0.25), logits=np.zeros(4),
        allowed=np.ones(4, dtype=bool), h_t=np.zeros(D),
    )
    assert predictive_entropy(uni) == pytest.approx(1.0)
    # a point mass has entropy 0
    point = ForwardResult(
        probs=np.array([1.0, 0, 0, 0]), logits=np.zeros(4),
        allowed=np.ones(4, dtype=bool), h_t=np.zeros(D),
    )
    assert predictive_entropy(point) == 0.0


def test_rating_loss_matches_finite_diff(params):
    rng = make_rng(6)
    h_user = rng.standard_normal(D)
    rating = 4.0
    req = GenerationRequest(h_user=h_user, history=[2])
    fr = generator_forward(req, params)
    assert rating_prediction(fr, params) == pytest.approx(
        float(fr.h_t @ params["gen.wrate"] + params["gen.brate"][0])
    )
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    loss, _ = rating_loss(fr, rating, params, grads)
    assert loss == pytest.approx((rating_prediction(fr, params) - rating) ** 2)

    for name in ["gen.wrate", "gen.brate", "gen.wsoft", "gen.b0.wv"]:
        base = params[name]

        def f(flat, name=name, base=base):
            saved = params[name]
            params[name] = flat.reshape(base.shape)
            try:
                fr2 = generator_forward(req, params)
                return (rating_prediction(fr2, params) - rating) ** 2
            finally:
                params[name] = saved

        numeric = finite_diff_grad(f, base.ravel().copy())
        err = rel_error(grads[name].ravel(), numeric)
        assert err < 1e-4, f"{name}: {err}"


def test_special_ids_disjoint_from_catalog():
    ids = special_ids(N_ITEMS)
    assert sorted(ids.values()) == [N_ITEMS, N_ITEMS + 1, N_ITEMS + 2]
