"""Harness tests: checkpoint bit-exact round trips, training determinism,
flag-off bit-identity contracts, zero-epoch runs, loss decrease, and
online-update determinism."""

import copy

import numpy as np
import pytest

from mmrec import checkpoint as ckpt_io
from mmrec import harness
from mmrec.adaptive import EwcState, FeedbackWeights, OptimizerState
from mmrec.harness import ExperimentConfig, HarnessError
from mmrec.model import Model
from mmrec.numerics import make_rng
from mmrec.synth import planted_categories


def _config(**kw):
    base = dict(d=8, d_k=4, n_blocks=1, max_seq=16, max_tokens=8,
                epochs=1, batch_size=8, max_prefixes_per_user=2, seed=5,
                retrieval_k=2, n_aspects=4)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def ds():
    return planted_categories(n_users=12, n_items=40, n_categories=4,
                              interactions_per_user=8, seed=7)


def _params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def test_config_hash_stable_and_sensitive():
    a = _config()
    b = _config()
    assert a.config_hash() == b.config_hash()
    c = _config(seed=6)
    assert a.config_hash() != c.config_hash()


def test_config_from_dict_ignores_unknown_keys():
    cfg = ExperimentConfig.from_dict({"d": 4, "not_a_field": 1})
    assert cfg.d == 4


def test_build_examples_last_prefixes(ds):
    examples = harness.build_examples(ds, max_prefixes=2)
    by_user = {}
    for ex in examples:
        by_user.setdefault(ex.user_id, []).append(ex)
    for uid, exs in by_user.items():
        assert len(exs) <= 2
        for ex in exs:
            # the target follows its history in the user's train sequence
            hist = ds.users[uid].history
            assert ex.target_id == hist[len(ex.history)]
            assert ex.history == hist[: len(ex.history)]


def test_train_deterministic(ds):
    cfg = _config()
    c1, t1 = harness.train(cfg, ds)
    c2, t2 = harness.train(cfg, ds)
    assert t1.epoch_losses == t2.epoch_losses
    assert _params_equal(c1.params, c2.params)
    assert _params_equal(c1.adv, c2.adv)


def test_zero_epoch_run_keeps_initial_params(ds):
    cfg = _config(epochs=0, flags={**_config().flags, "explain": False})
    from mmrec.model import config_from_dataset

    labels = harness.aspect_labels(ds, cfg.n_aspects)
    mc = config_from_dataset(ds, d=cfg.d, d_k=cfg.d_k, n_blocks=cfg.n_blocks,
                             max_seq=cfg.max_seq, max_tokens=cfg.max_tokens,
                             n_aspects=len(labels))
    fresh = Model(mc, seed=cfg.seed)
    ckpt, tlog = harness.train(cfg, ds)
    assert tlog.epoch_losses == []
    assert _params_equal(ckpt.params, fresh.params)


def test_loss_decreases_over_epochs(ds):
    cfg = _config(epochs=3, eta0=0.1)
    _, tlog = harness.train(cfg, ds)
    assert len(tlog.epoch_losses) == 3
    assert tlog.epoch_losses[-1] < tlog.epoch_losses[0]


def test_checkpoint_round_trip_bit_exact(ds, tmp_path):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    ckpt.ewc = EwcState(
        fisher={k: np.abs(v) for k, v in list(ckpt.params.items())[:3]},
        anchor={k: v.copy() for k, v in list(ckpt.params.items())[:3]},
        lambda_ewc=10.0,
    )
    path = str(tmp_path / "m.ckpt")
    ckpt_io.save(ckpt, path)
    back = ckpt_io.load(path)
    assert _params_equal(back.params, ckpt.params)
    assert _params_equal(back.adv, ckpt.adv)
    assert _params_equal(back.opt_state.momentum, ckpt.opt_state.momentum)
    assert _params_equal(back.ewc.fisher, ckpt.ewc.fisher)
    assert _params_equal(back.ewc.anchor, ckpt.ewc.anchor)
    assert back.ewc.lambda_ewc == 10.0
    assert back.config_hash == ckpt.config_hash
    assert back.dataset_id == ckpt.dataset_id
    assert back.seed == ckpt.seed
    assert back.step == ckpt.step
    assert back.extra == ckpt.extra
    assert back.opt_state.step_count == ckpt.opt_state.step_count


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ckpt_io.CheckpointError):
        ckpt_io.load(str(path))


def test_retrieval_off_equals_k_zero(ds):
    # turning the retrieval flag off must be bit-identical to K=0
    flags_off = {**_config().flags, "retrieval": False}
    c_off, _ = harness.train(_config(flags=flags_off), ds)
    c_k0, _ = harness.train(_config(retrieval_k=0), ds)
    assert _params_equal(c_off.params, c_k0.params)


def test_debias_off_equals_neutral_debias(ds):
    # debias flag off == debias on with lambda_fair=0 and IPS disabled
    flags_off = {**_config().flags, "debias": False}
    c_off, _ = harness.train(_config(flags=flags_off), ds)
    c_neutral, _ = harness.train(_config(lambda_fair=0.0, use_ips=False), ds)
    assert _params_equal(c_off.params, c_neutral.params)


def test_evaluate_reports_and_baselines(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    reports, aux = harness.evaluate(model, ds, cfg)
    assert set(reports) == {"model", "random", "popularity"}
    for name in ("hr@5", "hr@10", "ndcg@5", "ndcg@10", "mrr",
                 "ild@10", "coverage@100", "novelty@10"):
        for rep in reports.values():
            assert name in rep.metrics
            assert np.isfinite(rep.metrics[name])
    assert "fairness" in reports["model"].metrics
    assert set(aux) == {"scored_lists", "truth", "tau", "groups"}
    # ranked lists exclude seen train items (except the held-out target)
    for u, entries in aux["scored_lists"].items():
        seen = set(ds.users[u].history) - {aux["truth"].get(u)}
        assert not (set(i for i, _ in entries) & seen)


def test_evaluate_fairness_threshold_splits_compared_scores(ds):
    # fairness compares each user's top-10 scores with aux["tau"]; a tau
    # that every compared score exceeds makes every group's rate 1.0
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    _, aux = harness.evaluate(model, ds, cfg)
    pooled = [s for entries in aux["scored_lists"].values() for _, s in entries[:10]]
    share = np.mean(np.array(pooled) > aux["tau"])
    assert 0.0 < share < 1.0


def test_evaluate_deterministic(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    r1, _ = harness.evaluate(model, ds, cfg)
    r2, _ = harness.evaluate(model, ds, cfg)
    assert r1["model"].metrics == r2["model"].metrics


def test_model_from_checkpoint_dataset_mismatch(ds, tmp_path):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    other = planted_categories(n_users=6, n_items=20, n_categories=4,
                               interactions_per_user=6, seed=1)
    with pytest.raises(HarnessError, match="mismatch"):
        harness.model_from_checkpoint(ckpt, cfg, other)


def test_recommend_payload_schema(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    uid = sorted(ds.users)[0]
    payload = harness.recommend_payload(model, ds, cfg, uid, 3,
                                        ckpt.extra["aspect_labels"])
    assert payload["user_id"] == uid
    assert len(payload["recommendations"]) == 3
    for rec in payload["recommendations"]:
        assert {"item_id", "title", "score", "explanation_text",
                "explanation_type", "evidence"} <= set(rec)
        assert len(rec["explanation_text"]) <= 400
    with pytest.raises(HarnessError, match="unknown user"):
        harness.recommend_payload(model, ds, cfg, "ghost", 3,
                                  ckpt.extra["aspect_labels"])


def test_each_call_encodes_catalog_and_user_once(ds, monkeypatch):
    # recommend_payload shares one catalog encode between retrieval and the
    # explanations, and one user encode between retrieval and ranking;
    # evaluate shares one catalog encode between retrieval and ILD
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    counts = {"encode_item": 0, "encode_user": 0}
    for name in counts:
        original = getattr(Model, name)

        def counted(self, *args, name=name, original=original):
            counts[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Model, name, counted)

    uid = sorted(ds.users)[0]
    harness.recommend_payload(model, ds, cfg, uid, 5, ckpt.extra["aspect_labels"])
    assert counts == {"encode_item": ds.n_items, "encode_user": 1}
    counts.update(encode_item=0, encode_user=0)
    _, aux = harness.evaluate(model, ds, cfg)
    assert counts == {"encode_item": ds.n_items,
                      "encode_user": len(aux["scored_lists"])}


def test_online_update_deterministic_and_logged(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    uid = sorted(ds.users)[0]
    events = [
        {"user": uid, "item": ds.item_ids[3], "kind": "implicit",
         "timestamp": 2_000_000},
        {"user": uid, "item": ds.item_ids[4], "kind": "explicit",
         "value": 4.0, "timestamp": 2_001_000},
    ]

    def run():
        model = harness.model_from_checkpoint(copy.deepcopy(ckpt), cfg, ds)
        opt = OptimizerState(gamma_m=cfg.gamma_m, eta0=cfg.eta0,
                             lambda_u=cfg.lambda_u, tau_sel=cfg.tau_sel)
        logs = harness.online_update(model, ds, cfg, list(events), opt,
                                     weights=FeedbackWeights())
        return model.params, logs

    p1, logs1 = run()
    p2, logs2 = run()
    assert _params_equal(p1, p2)
    assert logs1 == logs2
    assert len(logs1) == 2
    for entry in logs1:
        assert {"eta", "uncertainty", "updated_fraction", "loss"} <= set(entry)
        assert 0.0 <= entry["uncertainty"] <= 1.0
    assert logs1[1]["rating_loss"] is not None


def test_online_update_histories_last_for_one_call(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    uid = sorted(ds.users)[0]
    before = {u: list(rec.history) for u, rec in ds.users.items()}
    first, second = ds.item_ids[3], ds.item_ids[4]
    events = [{"user": uid, "item": first, "kind": "implicit"},
              {"user": uid, "item": second, "kind": "implicit"}]

    def updated(evs):
        model = harness.model_from_checkpoint(copy.deepcopy(ckpt), cfg, ds)
        logs = harness.online_update(model, ds, cfg, evs, OptimizerState(),
                                     weights=FeedbackWeights())
        return model, logs

    after_first, _ = updated(events[:1])
    _, logs = updated(events)
    assert {u: rec.history for u, rec in ds.users.items()} == before
    # the second event is scored on the history extended by the first
    flags = cfg.feature_flags()
    user = ds.users[uid]
    target = ds.item_index[second]
    extended = after_first.example_nll(user, before[uid] + [first], target, ds, flags)
    plain = after_first.example_nll(user, before[uid], target, ds, flags)
    assert logs[1]["nll"] == extended.loss
    assert logs[1]["nll"] != plain.loss


def test_online_update_rejects_malformed_event(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    opt = OptimizerState()
    with pytest.raises(HarnessError, match="missing fields"):
        harness.online_update(model, ds, cfg, [{"user_id": "x"}], opt)


def test_fisher_from_dataset_nonnegative(ds):
    cfg = _config()
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    fisher = harness.fisher_from_dataset(model, ds, cfg, max_examples=8)
    assert set(fisher) == set(model.params)
    for v in fisher.values():
        assert np.all(v >= 0.0)


def test_run_ablation_rows(ds):
    cfg = _config()
    rows = harness.run_ablation(cfg, ds)
    assert list(rows) == ["baseline", "+fusion", "+retrieval", "+debias",
                          "+adaptive", "full"]
    for rep in rows.values():
        assert "hr@10" in rep.metrics
