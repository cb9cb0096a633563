"""Composed-model tests: end-to-end gradient check through encoders,
mixing, fusion, and the generation head, plus feature handling."""

import numpy as np
import pytest

from mmrec.model import (
    FeatureFlags,
    Model,
    config_from_dataset,
    flatten,
    item_inputs,
    unflatten,
    user_inputs,
)
from mmrec.numerics import finite_diff_grad, make_rng, rel_error


@pytest.fixture()
def setup(tiny_ds):
    cfg = config_from_dataset(tiny_ds, d=6, d_k=3, n_blocks=1, max_seq=16,
                              max_tokens=8, n_aspects=4)
    model = Model(cfg, seed=0)
    return tiny_ds, cfg, model


def _example(ds):
    uid = next(u for u in sorted(ds.users) if len(ds.users[u].history) >= 3)
    user = ds.users[uid]
    history = user.history[:-1]
    target = ds.item_index[user.history[-1]]
    return user, history, target


def test_item_and_user_inputs_shapes(setup):
    ds, cfg, _ = setup
    rec = ds.items[ds.item_ids[0]]
    iin = item_inputs(rec, ds.category_vocab, cfg)
    assert len(iin["text"]) <= cfg.max_tokens
    assert iin["num"].size == cfg.numeric_dim
    assert iin["num_prefix"] == "num"
    user, history, _ = _example(ds)
    uin = user_inputs(user, history, ds, cfg)
    assert uin["num"].size == cfg.user_numeric_dim
    assert uin["num_prefix"] == "unum"
    assert uin["cat"] == sorted(uin["cat"])


def test_example_nll_deterministic(setup):
    ds, _, model = setup
    user, history, target = _example(ds)
    flags = FeatureFlags()
    a = model.example_nll(user, history, target, ds, flags)
    b = model.example_nll(user, history, target, ds, flags)
    assert a.loss == b.loss
    assert np.array_equal(a.forward.probs, b.forward.probs)


def test_end_to_end_gradient_check(setup):
    # the full chain: encoders -> mixing -> fusion -> decoder -> NLL,
    # with fixed retrieved-context embeddings treated as constants
    ds, _, model = setup
    user, history, target = _example(ds)
    flags = FeatureFlags()
    rng = make_rng(2)
    ctx = [rng.standard_normal(6)]

    grads = model.zero_grads()
    model.example_nll(user, history, target, ds, flags,
                      context_embeddings=ctx, grads=grads)

    names = ["text.emb", "text.wq", "cat.emb", "unum.w1", "fus.w", "fus.wc",
             "xm.text.num.v", "gen.wsoft", "gen.item_emb", "gen.b0.wq",
             "gen.wout", "gen.bout", "gen.pos"]
    for name in names:
        base = model.params[name]

        def f(flat, name=name, base=base):
            saved = model.params[name]
            model.params[name] = flat.reshape(base.shape)
            try:
                res = model.example_nll(user, history, target, ds, flags,
                                        context_embeddings=ctx)
            finally:
                model.params[name] = saved
            return res.loss

        numeric = finite_diff_grad(f, base.ravel().copy())
        err = rel_error(grads[name].ravel(), numeric)
        assert err < 1e-4, f"{name}: {err}"


def test_example_rating_loss_gradient_check(setup):
    ds, _, model = setup
    user, history, _ = _example(ds)
    flags = FeatureFlags()
    grads = model.zero_grads()
    loss = model.example_rating_loss(model.encode_user(user, history, ds, flags),
                                     history, 4.5, ds, grads=grads)
    assert loss >= 0.0

    for name in ["gen.wrate", "gen.brate", "unum.w2"]:
        base = model.params[name]

        def f(flat, name=name, base=base):
            saved = model.params[name]
            model.params[name] = flat.reshape(base.shape)
            try:
                return model.example_rating_loss(
                    model.encode_user(user, history, ds, flags), history, 4.5, ds
                )
            finally:
                model.params[name] = saved

        numeric = finite_diff_grad(f, base.ravel().copy())
        err = rel_error(grads[name].ravel(), numeric)
        assert err < 1e-4, f"{name}: {err}"


def test_recommend_excludes_history(setup):
    ds, _, model = setup
    user, history, _ = _example(ds)
    flags = FeatureFlags()
    h_user = model.encode_user(user, history, ds, flags)[0]
    recs = model.recommend(h_user, history, ds, n=10)
    assert not (set(i for i, _ in recs) & set(history))
    scores = [s for _, s in recs]
    assert scores == sorted(scores, reverse=True)


def test_flatten_unflatten_round_trip(setup):
    _, _, model = setup
    vec, names = flatten(model.params)
    back = unflatten(vec, model.params, names)
    for k in model.params:
        assert np.array_equal(back[k], model.params[k])
