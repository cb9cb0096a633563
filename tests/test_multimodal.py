"""Encoder/fusion oracle tests: hand-worked values for trivial inputs,
finite-difference checks of the full hand-derived backward pass, and the
batched item encoder against the per-item forward, bit for bit."""

import numpy as np
import pytest

from mmrec.multimodal import (
    MODALITIES,
    batch_inputs,
    encode_categorical,
    encode_items,
    encode_numeric,
    encode_text,
    fuse,
    fusion_weights,
    init_encoder_params,
    multimodal_backward,
    multimodal_forward,
    zero_grads,
)
from mmrec.numerics import (
    NumericsError,
    attention_forward,
    finite_diff_grad,
    make_rng,
    rel_error,
    softmax,
)

D, DK, VOCAB, NCAT, NUMD, TOKENS = 6, 3, 12, 5, 4, 10


@pytest.fixture()
def params():
    return init_encoder_params(make_rng(0), VOCAB, NCAT, NUMD, NUMD, D, DK, TOKENS)


def test_text_single_token_identity_projections(params):
    # with identity Q/K/V/O a single token must encode exactly to
    # embedding row + first positional row
    p = dict(params)
    p["text.wq"] = np.eye(D)[:, :DK]
    p["text.wk"] = np.eye(D)[:, :DK]
    p["text.wv"] = np.eye(D)
    p["text.wo"] = np.eye(D)
    h, _ = encode_text([3], p)
    assert np.allclose(h, p["text.emb"][3] + p["text.pos"][0])


def test_text_empty_uses_learned_vector(params):
    h, cache = encode_text([], params)
    assert cache["empty"]
    assert np.array_equal(h, params["text.empty"])


def test_text_rejects_out_of_vocab(params):
    with pytest.raises(NumericsError):
        encode_text([VOCAB], params)


def test_categorical_mean_and_empty(params):
    h, _ = encode_categorical([1, 3], params)
    assert np.allclose(h, (params["cat.emb"][1] + params["cat.emb"][3]) / 2)
    h0, _ = encode_categorical([], params)
    assert np.array_equal(h0, np.zeros(D))
    with pytest.raises(NumericsError):
        encode_categorical([NCAT], params)


def test_numeric_hand_value(params):
    # zero weights in layer 2 leave only the bias
    p = dict(params)
    p["num.w2"] = np.zeros((D, D))
    p["num.b2"] = np.arange(D, dtype=float)
    h, _ = encode_numeric(np.ones(NUMD), p, "num")
    assert np.allclose(h, np.arange(D))


def test_numeric_dim_mismatch(params):
    with pytest.raises(NumericsError):
        encode_numeric(np.ones(NUMD + 1), params, "num")


def test_fusion_weights_are_softmax_of_scores(params):
    hs = [np.ones(D), 2 * np.ones(D), -np.ones(D)]
    alpha = fusion_weights(hs, params["fus.w"])
    scores = np.array([params["fus.w"][m] @ hs[m] for m in range(3)])
    assert np.allclose(alpha, softmax(scores))
    assert alpha.sum() == pytest.approx(1.0)


def test_fuse_beta_zero_is_weighted_sum(params):
    hs = [make_rng(1).standard_normal(D) for _ in range(3)]
    alpha = np.array([0.2, 0.3, 0.5])
    p = dict(params)
    p["fus.beta"] = np.zeros(1)
    fused, _ = fuse(hs, alpha, p)
    assert np.allclose(fused, sum(a * h for a, h in zip(alpha, hs)))


def _inputs():
    return {"text": [1, 4, 2], "cat": [0, 2], "num": np.array([0.5, -1.0, 0.2, 0.8]),
            "num_prefix": "num"}


def test_fusion_off_is_plain_mean(params):
    inputs = _inputs()
    h_text, _ = encode_text(inputs["text"], params)
    h_cat, _ = encode_categorical(inputs["cat"], params)
    h_num, _ = encode_numeric(inputs["num"], params, "num")
    fused, _ = multimodal_forward(inputs, params, fusion_on=False)
    assert np.array_equal(fused, (h_text + h_cat + h_num) / 3.0)


def test_forward_deterministic(params):
    a, _ = multimodal_forward(_inputs(), params)
    b, _ = multimodal_forward(_inputs(), params)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("fusion_on", [True, False])
def test_multimodal_backward_matches_finite_diff(params, fusion_on):
    inputs = _inputs()
    rng = make_rng(7)
    dout = rng.standard_normal(D)

    fused, cache = multimodal_forward(inputs, params, fusion_on=fusion_on)
    grads = zero_grads(params)
    multimodal_backward(dout, cache, params, grads)

    beta = params["fus.beta"].copy()
    params["fus.beta"] = beta + 0.3  # make the gated path active
    fused, cache = multimodal_forward(inputs, params, fusion_on=fusion_on)
    grads = zero_grads(params)
    multimodal_backward(dout, cache, params, grads)

    names = [
        "text.emb", "text.pos", "text.wq", "text.wv", "text.wo",
        "cat.emb", "num.w1", "num.b2",
        "fus.w", "fus.beta", "fus.wc", "fus.bc", "xm.cat.num.v",
    ]
    for name in names:
        base = params[name]

        def f(flat, name=name, base=base):
            saved = params[name]
            params[name] = flat.reshape(base.shape)
            try:
                out, _ = multimodal_forward(inputs, params, fusion_on=fusion_on)
            finally:
                params[name] = saved
            return float(out @ dout)

        numeric = finite_diff_grad(f, base.ravel().copy())
        err = rel_error(grads[name].ravel(), numeric)
        assert err < 1e-4, f"{name}: {err}"
    params["fus.beta"] = beta


def test_mixing_equals_pairwise_attention_reference(params):
    # each modality is one pooled vector, so cross-modal attention runs
    # over a single key; the value-projection form must reproduce full
    # pairwise attention bit for bit, whatever the query/key matrices are,
    # and so the model stores none
    assert not [k for k in params if k.startswith("xm.") and k[-2:] in (".q", ".k")]
    qk_rng = make_rng(11)
    inputs = _inputs()
    p = dict(params)
    p["fus.beta"] = np.full(1, 0.3)
    raw = [
        encode_text(inputs["text"], p)[0],
        encode_categorical(inputs["cat"], p)[0],
        encode_numeric(inputs["num"], p, "num")[0],
    ]
    hs = []
    for mi, m in enumerate(MODALITIES):
        acc = np.zeros(D)
        for ni, n in enumerate(MODALITIES):
            if mi != ni:
                out, _ = attention_forward(
                    np.atleast_2d(raw[mi]), np.atleast_2d(raw[ni]),
                    qk_rng.standard_normal((D, DK)), qk_rng.standard_normal((D, DK)),
                    p[f"xm.{m}.{n}.v"],
                )
                acc += out[0]
        hs.append(raw[mi] + acc / (len(MODALITIES) - 1))
    expected, _ = fuse(hs, fusion_weights(hs, p["fus.w"]), p)

    fused, _ = multimodal_forward(inputs, p)
    assert np.array_equal(fused, expected)


def test_backward_accumulates(params):
    # two backward passes accumulate exactly twice the single-pass gradient
    inputs = _inputs()
    dout = np.ones(D)
    _, cache = multimodal_forward(inputs, params)
    g1 = zero_grads(params)
    multimodal_backward(dout, cache, params, g1)
    g2 = zero_grads(params)
    multimodal_backward(dout, cache, params, g2)
    multimodal_backward(dout, cache, params, g2)
    for k in g1:
        assert np.allclose(g2[k], 2 * g1[k])


def test_modalities_fixed_order():
    assert MODALITIES == ("text", "cat", "num")


def _item(rng, n_tokens, n_cats, vocab=VOCAB):
    return {"text": [int(t) for t in rng.integers(0, vocab, n_tokens)],
            "cat": sorted(int(c) for c in rng.choice(NCAT, n_cats, replace=False)),
            "num": rng.standard_normal(NUMD), "num_prefix": "num"}


@pytest.mark.parametrize("fusion_on", [True, False])
def test_encode_items_equals_per_item_forward_bit_for_bit(params, fusion_on):
    # empty text, mixed token lengths (some past the positional table and
    # truncated), empty and multi-category sets; nonzero biases and gate
    rng = make_rng(4)
    p = {k: v.copy() for k, v in params.items()}
    for name in ("num.b1", "num.b2", "fus.bc"):
        p[name] += rng.standard_normal(p[name].shape)
    p["fus.beta"][0] = 0.8
    inputs = [_item(rng, n_tokens, n_cats)
              for n_tokens in (0, 1, 2, 5, TOKENS, TOKENS + 3)
              for n_cats in (0, 1, 3) for _ in range(4)]
    rows = encode_items(batch_inputs(inputs), p, fusion_on)
    assert rows.shape == (len(inputs), D)
    for inp, row in zip(inputs, rows):
        assert np.array_equal(row, multimodal_forward(inp, p, fusion_on)[0])


def test_encode_items_rejects_out_of_range_ids(params):
    rng = make_rng(5)
    good = [_item(rng, 3, 1) for _ in range(3)]
    for bad, match in ((dict(good[0], text=[1, VOCAB]), "vocabulary"),
                       (dict(good[0], text=[-1]), "vocabulary"),
                       (dict(good[0], cat=[NCAT]), "category"),
                       (dict(good[0], cat=[-1, 0]), "category"),
                       (dict(good[0], num=np.zeros(NUMD + 1)), "numeric dim")):
        with pytest.raises(NumericsError, match=match):
            multimodal_forward(bad, params)
        with pytest.raises(NumericsError, match=match):
            encode_items(batch_inputs(good + [bad]), params)
    nonfinite = {k: v.copy() for k, v in params.items()}
    nonfinite["text.emb"][good[1]["text"][0]] = np.inf
    with pytest.raises(NumericsError, match="finite"), np.errstate(invalid="ignore"):
        encode_items(batch_inputs(good), nonfinite)
