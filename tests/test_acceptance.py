"""Acceptance checks: one test per criterion, each printing a single
pass/fail line with the measured numbers.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete (they are also captured in the normal pytest report).
"""

import json
import math
import time

import numpy as np

from mmrec import checkpoint as ckpt_io
from mmrec import debias, harness, metrics, synth
from mmrec import multimodal as mm
from mmrec.adaptive import EwcState, ewc_penalty
from mmrec.generator import GenerationError
from mmrec.model import FeatureFlags, Model, config_from_dataset, flatten, unflatten
from mmrec.numerics import cosine, finite_diff_grad, make_rng, rel_error
from mmrec.retrieval import (
    RetrievalConfig,
    RetrievalIndex,
    retrieve_top_k,
    temporal_relevance,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------- 1. gradient fidelity

def test_gradient_fidelity():
    """Analytic gradients of the composed objective (weighted NLL +
    adversarial term + quadratic anchor penalty) match central finite
    differences to 1e-4 over every parameter, 20 seeds, under 60 s."""
    t0 = time.time()
    ds = synth.planted_categories(n_users=10, n_items=24, n_categories=4,
                                  interactions_per_user=6, seed=7)
    mc = config_from_dataset(ds, d=4, d_k=2, n_blocks=1, max_seq=8,
                             max_tokens=6, n_aspects=4)
    flags = FeatureFlags()
    examples = harness.build_examples(ds, max_prefixes=1)[:2]
    lam_fair, lam_ewc, rev = 0.5, 0.7, 1.0
    gindex = {g: i for i, g in enumerate(
        sorted({u.group_label for u in ds.users.values()})
    )}

    worst = 0.0
    n_params = 0
    for seed in range(20):
        model = Model(mc, seed=seed)
        n_params = sum(v.size for v in model.params.values())
        rng = make_rng(100 + seed)
        w = 0.5 + rng.random(len(examples))  # fixed exposure weights
        fisher = {k: np.abs(rng.standard_normal(v.shape))
                  for k, v in model.params.items()}
        anchor = {k: v + 0.1 * rng.standard_normal(v.shape)
                  for k, v in model.params.items()}
        ewc = EwcState(fisher=fisher, anchor=anchor, lambda_ewc=lam_ewc)

        def composed(params):
            saved = model.params
            model.params = params
            try:
                total, reps, gids = 0.0, [], []
                for ex, wi in zip(examples, w):
                    user = ds.users[ex.user_id]
                    res = model.example_nll(
                        user, ex.history, ds.item_index[ex.target_id], ds, flags
                    )
                    total += wi * res.loss / len(examples)
                    reps.append(res.h_user)
                    gids.append(gindex[user.group_label])
                adv_l, _, _ = debias.adversary_loss(
                    np.stack(reps), np.array(gids), model.adv
                )
                pl, _ = ewc_penalty(model.params, ewc)
                return total - lam_fair * rev * adv_l + pl
            finally:
                model.params = saved

        grads = model.zero_grads()
        reps, gids, results = [], [], []
        for ex, wi in zip(examples, w):
            user = ds.users[ex.user_id]
            res = model.example_nll(
                user, ex.history, ds.item_index[ex.target_id], ds, flags,
                grads=grads, weight=wi / len(examples),
            )
            reps.append(res.h_user)
            gids.append(gindex[user.group_label])
            results.append(res)
        _, _, d_reps = debias.adversary_loss(
            np.stack(reps), np.array(gids), model.adv, reversal_coeff=rev
        )
        for res, drep in zip(results, d_reps):
            mm.multimodal_backward(lam_fair * drep, res.mm_cache,
                                   model.params, grads)
        _, pgrads = ewc_penalty(model.params, ewc)
        for k, g in pgrads.items():
            grads[k] += g

        vec, names = flatten(model.params)
        gvec, _ = flatten(grads, names)
        numeric = finite_diff_grad(
            lambda v: composed(unflatten(v, model.params, names)), vec
        )
        worst = max(worst, rel_error(gvec, numeric))

    dt = time.time() - t0
    ok = worst <= 1e-4 and n_params <= 5000 and dt < 60.0
    _report("gradient fidelity", ok,
            f"max rel err {worst:.2e} (tol 1e-4), {n_params} params, {dt:.1f}s")


# ------------------------------------------------------- 2. IPS unbiasedness

def test_ips_unbiasedness():
    """Exposure-weighted loss estimate is unbiased (within 2 SE over 100
    exposure resamples) where the naive mean over observed samples is not."""
    rng = make_rng(0)
    n = 400
    z = rng.standard_normal(n) * 1.5
    e = np.clip(1.0 / (1.0 + np.exp(-z)), 0.05, 0.95)
    losses = 3.0 - 2.0 * e + 0.1 * rng.standard_normal(n)
    true_loss = losses.mean()

    ips_est, naive_est = [], []
    for _ in range(100):
        obs = rng.random(n) < e
        ips_est.append(float(np.sum(losses * obs * debias.ips_weights(e))))
        naive_est.append(losses[obs].mean())
    ips_est = np.array(ips_est)
    ips_bias = ips_est.mean() - true_loss
    naive_bias = float(np.mean(naive_est)) - true_loss
    se = ips_est.std(ddof=1) / math.sqrt(len(ips_est))

    ok = abs(ips_bias) <= 2.0 * se and abs(naive_bias) >= 3.0 * abs(ips_bias)
    _report("ips unbiasedness", ok,
            f"ips bias {ips_bias:+.4f} (2se {2*se:.4f}), "
            f"naive bias {naive_bias:+.4f} "
            f"({abs(naive_bias)/max(abs(ips_bias),1e-12):.1f}x)")


# ----------------------------------------------------- 3. retrieval exactness

def test_retrieval_exactness():
    """retrieve_top_k matches an exhaustive-sort oracle on 100 queries over
    1000 entries (duplicates included to force ties) in under 10 s."""
    t0 = time.time()
    rng = make_rng(3)
    cfg = RetrievalConfig(k=10, sigma=50.0)
    rows = []
    for j in range(1000):
        base = j % 800  # every fifth embedding block repeats -> exact ties
        gen = make_rng(10_000 + base)
        rows.append((f"e{j:04d}", gen.standard_normal(16),
                     int(gen.integers(0, 500)), float(gen.uniform())))
    ids, embs, stamps, creds = zip(*rows)
    index = RetrievalIndex(list(ids), np.array(embs), np.array(stamps),
                           np.array(creds))
    entries = list(index)

    mismatches = 0
    for q in range(100):
        query = rng.standard_normal(16)
        t_now = float(rng.integers(0, 500))
        got = retrieve_top_k(query, index, cfg, t_now)
        oracle = sorted(
            ((cfg.lambda_sim * cosine(query, e.embedding)
              + cfg.lambda_temporal * temporal_relevance(t_now, e.timestamp, cfg.sigma)
              + cfg.lambda_credibility * e.credibility, e.entry_id)
             for e in entries),
            key=lambda se: (-se[0], se[1]),
        )
        if [e.entry_id for e, _ in got.entries] != [i for _, i in oracle[:cfg.k]]:
            mismatches += 1

    dt = time.time() - t0
    ok = mismatches == 0 and dt < 10.0
    _report("retrieval exactness", ok,
            f"{mismatches} mismatches over 100 queries x 1000 entries, {dt:.1f}s")


# -------------------------------------------------------- 4. ewc forgetting

def test_ewc_forgetting():
    """After sequential training on two tasks with disjoint planted
    preferences, the anchored penalty (some lambda in {1,10,100}) keeps the
    first task's HR@10 drop at most half the unpenalized drop."""
    t0 = time.time()
    ds_a, ds_b = synth.two_tasks(seed=0)
    cfg = harness.ExperimentConfig(
        d=16, d_k=8, n_blocks=1, max_seq=24, max_tokens=8,
        epochs=3, batch_size=8, max_prefixes_per_user=4, seed=0,
        retrieval_k=0, n_aspects=8, eta0=0.1, use_ips=False, lambda_fair=0.0,
    )
    ckpt_a, _ = harness.train(cfg, ds_a)
    model_a = harness.model_from_checkpoint(ckpt_a, cfg, ds_a)
    hr_a0 = harness.evaluate(model_a, ds_a, cfg)[0]["model"].metrics["hr@10"]
    fisher = harness.fisher_from_dataset(model_a, ds_a, cfg, max_examples=64)
    anchor = {k: v.copy() for k, v in ckpt_a.params.items()}

    drops = {}
    for lam in (0.0, 1.0, 10.0, 100.0):
        ewc = (EwcState(fisher=fisher, anchor=anchor, lambda_ewc=lam)
               if lam > 0 else None)
        ckpt_b, _ = harness.train(cfg, ds_b, init_params=ckpt_a.params,
                                  init_adv=ckpt_a.adv, ewc=ewc)
        model_b = harness.model_from_checkpoint(ckpt_b, cfg, ds_b)
        hr_a = harness.evaluate(model_b, ds_a, cfg)[0]["model"].metrics["hr@10"]
        drops[lam] = hr_a0 - hr_a

    dt = time.time() - t0
    best = min(drops[l] for l in (1.0, 10.0, 100.0))
    ok = best <= 0.5 * drops[0.0] and dt < 180.0
    _report("ewc forgetting", ok,
            f"unpenalized drop {drops[0.0]:.3f}, best anchored drop {best:.3f}, "
            f"{dt:.0f}s")


# ----------------------------------------------------- 5. fairness mechanism

def _rating_parity(model, ds, cfg):
    flags = cfg.feature_flags()
    by_group = {}
    for i in ds.split.test:
        it = ds.interactions[i]
        user = ds.users[it.user_id]
        pred = model.predict_rating(user, user.history, ds, flags)
        by_group.setdefault(user.group_label, []).append(pred)
    sc = {g: np.array(v) for g, v in by_group.items()}
    tau = float(np.median(np.concatenate(list(sc.values()))))
    return debias.parity_gap(sc, tau)


def test_fairness_mechanism():
    """On group-correlated exposure data, the adversarial term at weight 1
    cuts the predicted-score parity gap by at least 30% while NDCG@10 stays
    within 10% of the unconstrained run."""
    t0 = time.time()
    ds = synth.group_biased(seed=0)

    def run(lam_fair):
        cfg = harness.ExperimentConfig(
            d=16, d_k=8, n_blocks=1, max_seq=24, max_tokens=8,
            epochs=6, batch_size=8, max_prefixes_per_user=4, seed=0,
            retrieval_k=2, n_aspects=8, eta0=0.1, use_ips=False,
            lambda_fair=lam_fair, adversary_lr=0.2, adversary_decay=0.01,
            fair_grad_clip=0.5, reversal_coeff=3.0, lambda_rating=0.5,
        )
        ckpt, _ = harness.train(cfg, ds)
        model = harness.model_from_checkpoint(ckpt, cfg, ds)
        gap = _rating_parity(model, ds, cfg)
        ndcg = harness.evaluate(model, ds, cfg)[0]["model"].metrics["ndcg@10"]
        return gap, ndcg

    gap0, ndcg0 = run(0.0)
    gap1, ndcg1 = run(1.0)
    dt = time.time() - t0
    reduction = 1.0 - gap1 / gap0
    ok = reduction >= 0.30 and ndcg1 >= 0.90 * ndcg0 and dt < 180.0
    _report("fairness mechanism", ok,
            f"parity gap {gap0:.3f} -> {gap1:.3f} ({100*reduction:.0f}% cut), "
            f"ndcg@10 {ndcg0:.3f} -> {ndcg1:.3f}, {dt:.0f}s")


# --------------------------------------------------- 6. end-to-end learning

def test_end_to_end_learning():
    """Full model on 200 users x 500 items with planted categories reaches
    HR@10 >= 0.10 (5x the 0.02 random expectation) and beats the popularity
    baseline, in under 5 minutes."""
    t0 = time.time()
    ds = synth.planted_categories(n_users=200, n_items=500, n_categories=10,
                                  interactions_per_user=20, cats_per_user=1,
                                  preference_strength=0.95, zipf_s=0.5, seed=0)
    cfg = harness.ExperimentConfig(
        d=16, d_k=8, n_blocks=1, max_seq=24, max_tokens=8,
        epochs=5, batch_size=8, max_prefixes_per_user=4, seed=0,
        retrieval_k=2, n_aspects=10, eta0=0.1, propensity_clip=0.1,
    )
    ckpt, tlog = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    reports, _ = harness.evaluate(model, ds, cfg)
    hr = reports["model"].metrics["hr@10"]
    hr_pop = reports["popularity"].metrics["hr@10"]
    dt = time.time() - t0
    ok = (not tlog.aborted) and hr >= 0.10 and hr > hr_pop and dt < 300.0
    _report("end-to-end learning", ok,
            f"hr@10 {hr:.3f} (need >= 0.10), popularity {hr_pop:.3f}, {dt:.0f}s")


# ------------------------------------------------- 7. metric oracle equality

def test_metric_oracles():
    """Ranking metrics match independent brute-force references to 1e-12 on
    50 random tiny instances; the rank-2 NDCG case equals 1/log2(3)."""
    rank2 = metrics.ndcg_at_k({"u": ["a", "t"]}, {"u": "t"}, 5)
    ok = abs(rank2 - 1.0 / math.log2(3)) < 1e-12

    rng = make_rng(11)
    worst = 0.0
    for _ in range(50):
        n_items, n_users, k = 8, 4, int(rng.integers(2, 6))
        catalog = [f"i{j}" for j in range(n_items)]
        lists, truth, scored, groups, embs = {}, {}, {}, {}, {}
        for i in catalog:
            embs[i] = rng.standard_normal(3) + 0.05
        pop = {i: float(rng.uniform(0.01, 0.5)) for i in catalog}
        for u in range(n_users):
            uid = f"u{u}"
            perm = list(rng.permutation(catalog))
            lists[uid] = perm[: int(rng.integers(2, n_items))]
            truth[uid] = str(rng.choice(catalog))
            scored[uid] = [(i, float(rng.uniform())) for i in lists[uid]]
            groups[uid] = "a" if u % 2 == 0 else "b"

        # brute-force references
        def rank(u):
            return (lists[u].index(truth[u]) + 1) if truth[u] in lists[u] else None

        hr_ref = np.mean([1.0 if (rank(u) or 99) <= k else 0.0 for u in lists])
        ndcg_ref = np.mean([
            (1.0 / math.log2(1 + rank(u))) if rank(u) and rank(u) <= k else 0.0
            for u in lists
        ])
        mrr_ref = np.mean([(1.0 / rank(u)) if rank(u) else 0.0 for u in lists])
        cov_ref = len({i for u in lists for i in lists[u][:100]}) / len(catalog)
        floor = 1.0 / len(catalog)
        denom = -math.log2(floor)
        pooled = [min(-math.log2(pop[i]), denom) for u in lists for i in lists[u]]
        nov_ref = (np.mean(pooled)) / denom
        ild_vals = []
        for u in lists:
            l = lists[u]
            pairs = [(a, b) for x, a in enumerate(l) for b in l[x + 1:]]
            ild_vals.append(
                np.mean([1.0 - cosine(embs[a], embs[b]) for a, b in pairs])
                if pairs else 0.0
            )
        tau = 0.5
        rates = {}
        for g in ("a", "b"):
            vals = [s for u in scored if groups[u] == g for _, s in scored[u]]
            rates[g] = np.mean([1.0 if s > tau else 0.0 for s in vals])
        fair_ref = 1.0 - abs(rates["a"] - rates["b"])

        worst = max(
            worst,
            abs(metrics.hr_at_k(lists, truth, k) - hr_ref),
            abs(metrics.ndcg_at_k(lists, truth, k) - ndcg_ref),
            abs(metrics.mrr(lists, truth) - mrr_ref),
            abs(metrics.coverage_at_100(lists, len(catalog)) - cov_ref),
            abs(metrics.novelty(lists, pop, len(catalog)) - nov_ref),
            abs(np.mean([metrics.intra_list_diversity([embs[i] for i in lists[u]])
                         for u in lists]) - np.mean(ild_vals)),
            abs(metrics.fairness_score(scored, groups, tau) - fair_ref),
        )
    ok = ok and worst <= 1e-12
    _report("metric oracles", ok,
            f"max deviation {worst:.1e} (tol 1e-12), "
            f"rank-2 ndcg {rank2:.5f} = 1/log2(3)")


# --------------------------------------------------- 8. ablation direction

def test_ablation_direction():
    """Enabling fusion and then retrieval never costs more than 1 absolute
    percentage point of HR@10, averaged over 3 seeds."""
    t0 = time.time()
    d_fusion, d_retrieval = [], []
    for seed in (0, 1, 2):
        ds = synth.planted_categories(
            n_users=200, n_items=500, n_categories=10,
            interactions_per_user=20, cats_per_user=1,
            preference_strength=0.95, zipf_s=0.5, seed=seed,
        )
        hrs = {}
        flags = {k: False for k in FeatureFlags().as_dict()}
        for label, upd in [
            ("baseline", {}),
            ("+fusion", {"fusion": True}),
            ("+retrieval", {"retrieval": True}),
        ]:
            flags.update(upd)
            cfg = harness.ExperimentConfig(
                d=16, d_k=8, n_blocks=1, max_seq=24, max_tokens=8,
                epochs=3, batch_size=8, max_prefixes_per_user=4, seed=seed,
                retrieval_k=2, n_aspects=10, eta0=0.1, flags=dict(flags),
            )
            ckpt, _ = harness.train(cfg, ds)
            model = harness.model_from_checkpoint(ckpt, cfg, ds)
            hrs[label] = harness.evaluate(model, ds, cfg)[0]["model"].metrics["hr@10"]
        d_fusion.append(hrs["+fusion"] - hrs["baseline"])
        d_retrieval.append(hrs["+retrieval"] - hrs["+fusion"])

    dt = time.time() - t0
    mf, mr = float(np.mean(d_fusion)), float(np.mean(d_retrieval))
    ok = mf >= -0.01 and mr >= -0.01
    _report("ablation direction", ok,
            f"mean dHR@10 fusion {mf:+.4f}, retrieval {mr:+.4f} "
            f"(each >= -0.01), {dt:.0f}s")


# --------------------------------------------- 9. determinism & persistence

def test_determinism_persistence(tmp_path):
    """Same-seed runs give bit-identical checkpoint files and recommendation
    JSON; save -> load -> evaluate reproduces the report exactly."""
    ds = synth.planted_categories(n_users=12, n_items=40, n_categories=4,
                                  interactions_per_user=8, seed=7)
    cfg = harness.ExperimentConfig(
        d=8, d_k=4, n_blocks=1, max_seq=16, max_tokens=8,
        epochs=2, batch_size=8, max_prefixes_per_user=2, seed=5,
        retrieval_k=2, n_aspects=4,
    )

    blobs, payloads, reports = [], [], []
    for run in range(2):
        ckpt, _ = harness.train(cfg, ds)
        path = str(tmp_path / f"run{run}.ckpt")
        ckpt_io.save(ckpt, path)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
        model = harness.model_from_checkpoint(ckpt, cfg, ds)
        uid = sorted(ds.users)[0]
        payloads.append(json.dumps(
            harness.recommend_payload(model, ds, cfg, uid, 5,
                                      ckpt.extra["aspect_labels"]),
            sort_keys=True,
        ))
        reports.append(harness.evaluate(model, ds, cfg)[0]["model"].metrics)

    loaded = ckpt_io.load(str(tmp_path / "run0.ckpt"))
    model = harness.model_from_checkpoint(loaded, cfg, ds)
    reloaded = harness.evaluate(model, ds, cfg)[0]["model"].metrics

    ok = (blobs[0] == blobs[1] and payloads[0] == payloads[1]
          and reports[0] == reports[1] and reloaded == reports[0])
    _report("determinism & persistence", ok,
            f"checkpoints identical={blobs[0] == blobs[1]}, "
            f"recommendations identical={payloads[0] == payloads[1]}, "
            f"reloaded report exact={reloaded == reports[0]}")
