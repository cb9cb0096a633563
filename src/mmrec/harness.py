"""Experiment harness: configuration, training loop with feature flags,
propensity fitting, evaluation with baselines, ablation runner, and the
online feedback loop.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import debias, explain, metrics
from . import multimodal as mm
from .adaptive import (
    EwcState,
    FeedbackWeights,
    OptimizerState,
    adaptive_rate,
    clip_grad_norm,
    combined_feedback_loss,
    estimate_fisher,
    ewc_penalty,
    selective_step,
)
from .checkpoint import Checkpoint
from .dataset import EXPLICIT, Dataset, UserRecord
from .generator import (
    GenerationError,
    GenerationRequest,
    predictive_entropy,
    recommend_top_n,
)
from .model import FeatureFlags, ItemTable, Model, config_from_dataset
from .numerics import make_rng, row_cosines, row_norms
from .retrieval import RetrievalConfig, RetrievalIndex, retrieve_top_k

log = logging.getLogger(__name__)


class HarnessError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    # dataset
    interactions_path: str = ""
    items_path: str = ""
    users_path: str = ""
    train_fraction: float = 0.8
    # model dims
    d: int = 16
    d_k: int = 8
    max_tokens: int = 32
    n_blocks: int = 2
    max_seq: int = 48
    n_aspects: int = 16
    # retrieval
    retrieval_k: int = 4
    lambda_sim: float = 0.6
    lambda_temporal: float = 0.2
    lambda_credibility: float = 0.2
    sigma_seconds: float = 2_592_000.0
    # debias
    lambda_fair: float = 1.0
    propensity_clip: float = 0.01
    use_ips: bool = True
    adversary_lr: float = 0.5
    adversary_decay: float = 0.01
    fair_grad_clip: float = 1.0
    grad_clip: float = 10.0
    lambda_rating: float = 0.5
    reversal_coeff: float = 1.0
    negatives_per_positive: int = 4
    # adaptive / optimizer
    eta0: float = 0.15
    gamma_m: float = 0.9
    lambda_u: float = 1.0
    tau_sel: float = 0.0
    gamma_reg: float = 0.0
    # training loop
    epochs: int = 5
    batch_size: int = 8
    max_prefixes_per_user: int = 6
    seed: int = 0
    flags: dict = field(default_factory=lambda: FeatureFlags().as_dict())

    def __post_init__(self):
        unknown = sorted(set(self.flags) - set(FeatureFlags().as_dict()))
        if unknown:
            raise HarnessError(f"unknown flags: {unknown}")

    def feature_flags(self) -> FeatureFlags:
        return FeatureFlags(**self.flags)

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            k=self.retrieval_k if self.flags.get("retrieval", True) else 0,
            lambda_sim=self.lambda_sim,
            lambda_temporal=self.lambda_temporal,
            lambda_credibility=self.lambda_credibility,
            sigma=self.sigma_seconds,
        )

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in obj.items() if k in known})

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def dataset_id(ds: Dataset) -> str:
    blob = json.dumps([ds.item_ids, len(ds.vocab), sorted(ds.category_vocab)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def aspect_labels(ds: Dataset, n_aspects: int) -> list[str]:
    """Top-N most frequent categories over train interactions."""
    counts: dict[str, int] = {}
    for it in ds.train_interactions():
        for c in ds.items[it.item_id].categories:
            counts[c] = counts.get(c, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    labels = [c for c, _ in ordered[:n_aspects]]
    while len(labels) < 2:  # preference head needs at least two aspects
        labels.append(f"aspect{len(labels)}")
    return labels


@dataclass
class TrainExample:
    user_id: str
    history: list[str]       # item ids before the target
    target_id: str
    timestamp: int
    rating: float | None


def build_examples(ds: Dataset, max_prefixes: int) -> list[TrainExample]:
    """Next-item prediction examples from each user's train history
    (the most recent ``max_prefixes`` prefixes per user)."""
    examples = []
    for uid in sorted(ds.users):
        hist = ds.user_train_history(uid)
        if len(hist) < 2:
            continue
        start = max(1, len(hist) - max_prefixes)
        for j in range(start, len(hist)):
            examples.append(TrainExample(
                user_id=uid,
                history=[h.item_id for h in hist[:j]],
                target_id=hist[j].item_id,
                timestamp=hist[j].timestamp,
                rating=hist[j].rating,
            ))
    return examples


def propensity_features(ds: Dataset, user: UserRecord, item_id: str) -> np.ndarray:
    rec = ds.items[item_id]
    return np.concatenate([
        np.asarray(user.profile_features, dtype=np.float64),
        np.asarray(rec.numeric_features, dtype=np.float64),
        [np.log1p(ds.popularity.get(item_id, 0))],
    ])


def fit_dataset_propensity(
    ds: Dataset, config: ExperimentConfig, rng: np.random.Generator
) -> debias.PropensityModel:
    """Fit the exposure model on observed pairs vs uniform negatives."""
    positives = []
    negatives = []
    train = ds.train_interactions()
    for it in train:
        user = ds.users[it.user_id]
        positives.append(propensity_features(ds, user, it.item_id))
        for _ in range(config.negatives_per_positive):
            neg = ds.item_ids[int(rng.integers(ds.n_items))]
            negatives.append(propensity_features(ds, user, neg))
    model, _ = debias.fit_propensity(
        np.asarray(positives), np.asarray(negatives),
        clip_floor=config.propensity_clip,
    )
    return model


def fit_preference_head(
    model: Model, ds: Dataset, labels: list[str], flags: FeatureFlags,
    steps: int = 200, lr: float = 0.5,
) -> None:
    """Fit the aspect-preference head on empirical per-user aspect
    distributions from train histories (user encodings held fixed)."""
    hs = []
    targets = []
    label_idx = {c: i for i, c in enumerate(labels)}
    for uid in sorted(ds.users):
        user = ds.users[uid]
        if not user.history:
            continue
        counts = np.zeros(len(labels))
        for iid in user.history:
            for c in ds.items[iid].categories:
                if c in label_idx:
                    counts[label_idx[c]] += 1
        if counts.sum() == 0:
            continue
        h, _ = model.encode_user(user, user.history, ds, flags)
        hs.append(h)
        targets.append(counts / counts.sum())
    if not hs:
        return
    H = np.asarray(hs)
    T = np.asarray(targets)
    w = model.params["pref.w"]
    b = model.params["pref.b"]
    if w.shape[1] != len(labels):
        w = np.zeros((H.shape[1], len(labels)))
        b = np.zeros(len(labels))
    for _ in range(steps):
        logits = H @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        dlogits = (p - T) / len(H)
        w = w - lr * (H.T @ dlogits)
        b = b - lr * dlogits.sum(axis=0)
    model.params["pref.w"] = w
    model.params["pref.b"] = b


def build_retrieval_index(model: Model, ds: Dataset,
                          flags: FeatureFlags) -> RetrievalIndex:
    """The retrieval index of the model's current item table."""
    return model.item_table(ds, flags).index


def _context(index: RetrievalIndex | None, rconf: RetrievalConfig,
             h_user: np.ndarray, t_now: int) -> list[np.ndarray]:
    """Embeddings of the top-k index entries for one user encoding; none
    when k is 0, which is how the retrieval flag turns retrieval off (the
    callers then pass no index)."""
    if rconf.k == 0:
        return []
    return retrieve_top_k(h_user, index, rconf, t_now).embeddings()


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    adversary_losses: list[float] = field(default_factory=list)
    aborted: bool = False


def train(
    config: ExperimentConfig,
    ds: Dataset,
    init_params: dict | None = None,
    init_adv: dict | None = None,
    ewc: EwcState | None = None,
) -> tuple[Checkpoint, TrainLog]:
    """Mini-batch training of the composed objective under the configured
    feature flags. Deterministic under a fixed seed. Divergence aborts
    with the last good checkpoint."""
    flags = config.feature_flags()
    labels = aspect_labels(ds, config.n_aspects)
    mc = config_from_dataset(
        ds, d=config.d, d_k=config.d_k, n_blocks=config.n_blocks,
        max_seq=config.max_seq, max_tokens=config.max_tokens,
        n_aspects=len(labels),
    )
    model = Model(mc, seed=config.seed)
    if init_params is not None:
        model.params = {k: v.copy() for k, v in init_params.items()}
    if init_adv is not None:
        model.adv = {k: v.copy() for k, v in init_adv.items()}

    opt = OptimizerState(
        gamma_m=config.gamma_m, eta0=config.eta0, lambda_u=config.lambda_u,
        tau_sel=config.tau_sel if flags.adaptive else 0.0,
    )
    rng = make_rng(config.seed)
    rconf = config.retrieval_config()
    gindex = {g: i for i, g in enumerate(
        sorted({u.group_label for u in ds.users.values()})
    )}

    prop_model = None
    if flags.debias and config.use_ips:
        prop_model = fit_dataset_propensity(ds, config, make_rng(config.seed + 101))

    examples = build_examples(ds, config.max_prefixes_per_user)
    tlog = TrainLog()
    last_good = {k: v.copy() for k, v in model.params.items()}
    last_good_adv = {k: v.copy() for k, v in model.adv.items()}

    for _epoch in range(config.epochs):
        # the epoch-start snapshot: steps within the epoch do not change it
        index = build_retrieval_index(model, ds, flags) if rconf.k > 0 else None
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        epoch_adv = 0.0
        n_batches = 0
        diverged = False
        for bstart in range(0, len(order), config.batch_size):
            bidx = order[bstart : bstart + config.batch_size]
            grads = model.zero_grads()
            batch = [examples[int(i)] for i in bidx]
            results = []
            batch_loss = 0.0
            entropies = []
            propensities = np.ones(len(batch))
            if prop_model is not None:
                propensities = np.array([debias.estimate_propensity(
                    propensity_features(ds, ds.users[ex.user_id], ex.target_id),
                    prop_model,
                ) for ex in batch])
            ips = debias.ips_weights(propensities).tolist()
            for ex, w in zip(batch, ips):
                user = ds.users[ex.user_id]
                ustate = model.encode_user(user, ex.history, ds, flags)
                ctx = _context(index, rconf, ustate[0], ex.timestamp)
                target_idx = ds.item_index[ex.target_id]
                try:
                    res = model.example_nll(
                        user, ex.history, target_idx, ds, flags,
                        context_embeddings=ctx, grads=grads,
                        weight=w, user_state=ustate,
                    )
                except GenerationError:
                    # numerically degenerate forward (underflowed target
                    # probability): treat as divergence
                    log.error("divergence: degenerate forward pass, aborting")
                    diverged = True
                    break
                results.append((res, target_idx, gindex[user.group_label]))
                batch_loss += w * res.loss
                entropies.append(predictive_entropy(res.forward))
                if ex.rating is not None and config.lambda_rating > 0.0:
                    rl = model.example_rating_loss(
                        ustate, ex.history, ex.rating, ds,
                        grads=grads, weight=config.lambda_rating / len(batch),
                    )
                    batch_loss += config.lambda_rating * rl / len(batch)

            if diverged:
                break

            if flags.debias and config.lambda_fair > 0.0:
                # adversary predicts the group from the fused user
                # representation; its reversed gradient flows back through
                # the encoders to strip group information
                reps = np.stack([r.h_user for r, _, _ in results])
                gids = np.array([g for _, _, g in results])
                adv_loss, adv_grads, d_reps = debias.adversary_loss(
                    reps, gids, model.adv,
                    reversal_coeff=config.reversal_coeff,
                )
                # apply the reversed pressure only while the adversary
                # actually discriminates (loss below chance level ln G);
                # at the min-max optimum the pressure is zero, and pushing
                # past it lets the encoder blow up representations to
                # "fool" the adversary in the wrong direction
                if adv_loss < np.log(model.adv["adv.b"].size):
                    for (res, _, _), drep in zip(results, d_reps):
                        # per-example norm clip bounds the pressure even
                        # when the adversary grows confident
                        norm = float(np.linalg.norm(drep))
                        if norm > config.fair_grad_clip:
                            drep = drep * (config.fair_grad_clip / norm)
                        mm.multimodal_backward(
                            config.lambda_fair * drep, res.mm_cache,
                            model.params, grads,
                        )
                # alternating adversary update (adversary minimizes); weight
                # decay bounds its strength so the reversed gradient cannot
                # escalate without limit
                for k in model.adv:
                    model.adv[k] -= config.adversary_lr * (
                        adv_grads[k] + config.adversary_decay * model.adv[k]
                    )
                batch_loss += config.lambda_fair * adv_loss
                epoch_adv += adv_loss

            if ewc is not None and ewc.lambda_ewc > 0.0:
                ploss, pgrads = ewc_penalty(model.params, ewc)
                for k, g in pgrads.items():
                    grads[k] += g
                batch_loss += ploss

            if not np.isfinite(batch_loss):
                log.error("divergence: non-finite batch loss, aborting")
                diverged = True
                break

            clip_grad_norm(grads, config.grad_clip)

            eta = adaptive_rate(
                config.eta0, config.lambda_u, float(np.mean(entropies))
            ) if flags.adaptive else config.eta0
            selective_step(model.params, grads, opt, eta)
            epoch_loss += batch_loss
            n_batches += 1

        if diverged:
            tlog.aborted = True
            model.params = last_good
            model.adv = last_good_adv
            break
        tlog.epoch_losses.append(epoch_loss / max(1, n_batches))
        tlog.adversary_losses.append(epoch_adv / max(1, n_batches))
        last_good = {k: v.copy() for k, v in model.params.items()}
        last_good_adv = {k: v.copy() for k, v in model.adv.items()}

    if flags.explain:
        fit_preference_head(model, ds, labels, flags)

    ckpt = Checkpoint(
        params=model.params,
        adv=model.adv,
        opt_state=opt,
        ewc=ewc,
        config_hash=config.config_hash(),
        dataset_id=dataset_id(ds),
        seed=config.seed,
        step=opt.step_count,
        extra={"aspect_labels": labels},
    )
    return ckpt, tlog


def model_from_checkpoint(ckpt: Checkpoint, config: ExperimentConfig,
                          ds: Dataset) -> Model:
    if ckpt.dataset_id and ckpt.dataset_id != dataset_id(ds):
        raise HarnessError("checkpoint/dataset mismatch (vocabulary or catalog)")
    n_aspects = len(ckpt.extra.get("aspect_labels") or []) or len(
        aspect_labels(ds, config.n_aspects)
    )
    mc = config_from_dataset(
        ds, d=config.d, d_k=config.d_k, n_blocks=config.n_blocks,
        max_seq=config.max_seq, max_tokens=config.max_tokens,
        n_aspects=n_aspects,
    )
    return Model(mc, seed=ckpt.seed, params=ckpt.params, adv=ckpt.adv)


def _user_lists(
    model: Model, ds: Dataset, config: ExperimentConfig, table: ItemTable,
) -> dict[str, list[tuple[str, float]]]:
    """Each test user's top-100 list with scores."""
    flags = config.feature_flags()
    rconf = config.retrieval_config()
    index = table.index if rconf.k > 0 else None
    lists = {}
    for uid in sorted(ds.users):
        target = ds.test_target(uid)
        if target is None:
            continue
        user = ds.users[uid]
        hist = user.history
        ustate = model.encode_user(user, hist, ds, flags)
        ctx = _context(index, rconf, ustate[0], ds.last_train_timestamp)
        exclude = {
            ds.item_index[i] for i in hist if i != target.item_id
        }
        req = GenerationRequest(
            h_user=ustate[0], context_embeddings=ctx,
            history=[ds.item_index[i] for i in hist],
            exclude=exclude, n=100,
        )
        ranked = recommend_top_n(req, model.params)
        lists[uid] = [(ds.item_ids[i], s) for i, s in ranked]
    return lists


def evaluate(
    model: Model, ds: Dataset, config: ExperimentConfig,
) -> tuple[dict[str, metrics.EvalReport], dict]:
    """Full-catalog leave-last-out evaluation with random and popularity
    baselines in the same report."""
    if not ds.split.test:
        raise HarnessError("empty test split")
    truth = {}
    for i in ds.split.test:
        it = ds.interactions[i]
        truth[it.user_id] = it.item_id

    table = model.item_table(ds, config.feature_flags())
    scored = _user_lists(model, ds, config, table)
    lists = {u: [i for i, _ in entries] for u, entries in scored.items()}
    users = sorted(scored)
    groups = {u: ds.users[u].group_label for u in users}

    rng = make_rng(config.seed + 777)
    rand_lists = metrics.random_baseline_lists(users, ds.item_ids, 100, rng)
    pop_lists = metrics.popularity_baseline_lists(
        users, ds.item_ids, ds.popularity, 100,
        exclude={u: set(ds.users[u].history) - {truth.get(u)} for u in users},
    )

    # fairness compares each user's top-10 scores against the median of
    # exactly those scores, pooled over users
    top10 = {u: entries[:10] for u, entries in scored.items()}
    pooled = [s for entries in top10.values() for _, s in entries]
    tau = float(np.median(pooled)) if pooled else 0.0

    def report_for(lsts, scored_lists=None) -> metrics.EvalReport:
        rep = metrics.EvalReport(
            cutoffs=[5, 10], dataset_id=dataset_id(ds),
            config_hash=config.config_hash(), seed=config.seed,
        )
        rep.metrics["hr@5"] = metrics.hr_at_k(lsts, truth, 5)
        rep.metrics["hr@10"] = metrics.hr_at_k(lsts, truth, 10)
        rep.metrics["ndcg@5"] = metrics.ndcg_at_k(lsts, truth, 5)
        rep.metrics["ndcg@10"] = metrics.ndcg_at_k(lsts, truth, 10)
        rep.metrics["mrr"] = metrics.mrr(lsts, truth)
        rep.metrics["ild@10"] = float(np.mean([
            metrics.intra_list_diversity(table.rows(l[:10])) for l in lsts.values()
        ])) if lsts else 0.0
        rep.metrics["coverage@100"] = metrics.coverage_at_100(lsts, ds.n_items)
        rep.metrics["novelty@10"] = metrics.novelty(
            {u: l[:10] for u, l in lsts.items()}, ds.pop_freq, ds.n_items
        )
        if scored_lists is not None:
            rep.metrics["fairness"] = metrics.fairness_score(
                scored_lists, groups, tau
            )
        return rep

    reports = {
        "model": report_for(lists, top10),
        "random": report_for(rand_lists),
        "popularity": report_for(pop_lists),
    }
    aux = {"scored_lists": scored, "truth": truth, "tau": tau, "groups": groups}
    return reports, aux


def run_ablation(
    config: ExperimentConfig, ds: Dataset
) -> dict[str, metrics.EvalReport]:
    """Incremental feature-flag ablation rows: baseline, +fusion,
    +retrieval, +debias, +adaptive, full. The ``explain`` flag has no row:
    it only fits the preference head after training, which no ranking
    reads, so its row would equal the one before it."""
    steps = [
        ("baseline", {}),
        ("+fusion", {"fusion": True}),
        ("+retrieval", {"retrieval": True}),
        ("+debias", {"debias": True}),
        ("+adaptive", {"adaptive": True}),
    ]
    rows: dict[str, metrics.EvalReport] = {}
    flags = {k: False for k in FeatureFlags().as_dict()}
    for label, update in steps:
        flags.update(update)
        cfg = copy.deepcopy(config)
        cfg.flags = dict(flags)
        ckpt, _ = train(cfg, ds)
        mdl = model_from_checkpoint(ckpt, cfg, ds)
        rows[label] = evaluate(mdl, ds, cfg)[0]["model"]
    full_cfg = copy.deepcopy(config)
    full_cfg.flags = FeatureFlags().as_dict()
    ckpt, _ = train(full_cfg, ds)
    rows["full"] = evaluate(
        model_from_checkpoint(ckpt, full_cfg, ds), ds, full_cfg
    )[0]["model"]
    return rows


def recommend_payload(
    model: Model, ds: Dataset, config: ExperimentConfig, user_id: str,
    n: int, aspect_names: list[str],
) -> dict:
    """Recommendations plus explanations as a JSON-ready payload."""
    flags = config.feature_flags()
    if user_id not in ds.users:
        raise HarnessError(f"unknown user {user_id!r}")
    user = ds.users[user_id]
    rconf = config.retrieval_config()
    table = model.item_table(ds, flags) if (flags.explain or rconf.k > 0) else None
    h_user = model.encode_user(user, user.history, ds, flags)[0]
    ctx = _context(table.index if rconf.k > 0 else None, rconf, h_user,
                   ds.last_train_timestamp)
    recs = model.recommend(h_user, user.history, ds, n, context_embeddings=ctx)
    out = [{"item_id": iid, "title": ds.items[iid].title, "score": score}
           for iid, score in recs]
    if flags.explain:
        item_ids = [iid for iid, _ in recs]
        explained = explanations(model, ds, user, h_user, item_ids,
                                 table.rows(item_ids), table.rows(user.history),
                                 aspect_names)
        for entry, evidence in zip(out, explained):
            entry.update(evidence)
    return {
        "user_id": user_id,
        "n": n,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "recommendations": out,
    }


def explain_payload(
    model: Model, ds: Dataset, config: ExperimentConfig, user_id: str,
    item_id: str, aspect_names: list[str],
) -> dict:
    """The explanation of one (user, item) pair as a JSON-ready payload."""
    if user_id not in ds.users:
        raise HarnessError(f"unknown user {user_id!r}")
    if item_id not in ds.items:
        raise HarnessError(f"unknown item {item_id!r}")
    flags = config.feature_flags()
    user = ds.users[user_id]
    h_user = model.encode_user(user, user.history, ds, flags)[0]
    # a one-off pair: encode the item and the history alone, not the catalog
    vecs = {iid: model.encode_item(ds.items[iid], ds, flags)[0]
            for iid in dict.fromkeys([item_id, *user.history])}
    history_vecs = np.array([vecs[h] for h in user.history]).reshape(
        len(user.history), model.cfg.d)
    evidence = explanations(model, ds, user, h_user, [item_id],
                            vecs[item_id][None], history_vecs, aspect_names)[0]
    return {"user_id": user_id, "item_id": item_id, **evidence}


def explanations(
    model: Model, ds: Dataset, user: UserRecord, h_user: np.ndarray,
    item_ids: list[str], item_vecs: np.ndarray, history_vecs: np.ndarray,
    aspect_names: list[str],
) -> list[dict]:
    """Explanation text, type and evidence of each item for one user, from
    the preference head and the embeddings of the items (``item_vecs``) and
    of the user's history (``history_vecs``), one row per id."""
    head = explain.PreferenceHead(
        w=model.params["pref.w"], b=model.params["pref.b"],
        aspect_labels=aspect_names,
    )
    p_u = explain.preference_distribution(h_user, head)
    sims = row_cosines(item_vecs[:, None, :], history_vecs[None, :, :],
                       row_norms(item_vecs)[:, None], row_norms(history_vecs)[None, :])
    out = []
    for iid, row in zip(item_ids, sims):
        neighbors = [(h, float(s)) for h, s in zip(user.history, row) if h != iid]
        text, decision = explain.explain_recommendation(
            ds.items[iid], p_u, head, neighbors,
        )
        out.append({"explanation_text": text,
                    "explanation_type": decision.chosen_type,
                    "evidence": decision.slots})
    return out


def fisher_from_dataset(
    model: Model, ds: Dataset, config: ExperimentConfig,
    max_examples: int = 64,
) -> dict[str, np.ndarray]:
    """Diagonal Fisher estimate from per-example NLL gradients."""
    flags = config.feature_flags()
    examples = build_examples(ds, config.max_prefixes_per_user)[:max_examples]
    per_example = []
    for ex in examples:
        grads = model.zero_grads()
        model.example_nll(
            ds.users[ex.user_id], ex.history, ds.item_index[ex.target_id],
            ds, flags, grads=grads,
        )
        per_example.append(grads)
    return estimate_fisher(per_example)


def online_update(
    model: Model,
    ds: Dataset,
    config: ExperimentConfig,
    events: list[dict],
    opt: OptimizerState,
    ewc: EwcState | None = None,
    weights: FeedbackWeights | None = None,
) -> list[dict]:
    """Consume a feedback event stream (dicts with user/item/kind/value/
    timestamp) one event at a time; returns the per-event update log.

    Each event's item is appended to a copy of its user's history, which
    later events of the same call see. The copies last only for the call:
    ``ds.users`` is never changed, and the next call starts from it again.
    """
    flags = config.feature_flags()
    weights = weights or FeedbackWeights(gamma_reg=config.gamma_reg)
    histories: dict[str, list[str]] = {}
    logs = []
    for ev in events:
        missing = {"user", "item", "kind"} - set(ev)
        if missing:
            raise HarnessError(f"event missing fields: {sorted(missing)}")
        uid, iid, kind = ev["user"], ev["item"], ev["kind"]
        if uid not in ds.users or iid not in ds.item_index:
            raise HarnessError(f"unknown user/item in event: {uid}/{iid}")
        user = ds.users[uid]
        hist = histories.setdefault(uid, list(user.history))
        target_idx = ds.item_index[iid]

        g_nll = model.zero_grads()
        nll = model.example_nll(user, hist, target_idx, ds, flags, grads=g_nll)
        uncertainty = predictive_entropy(nll.forward)
        eta = adaptive_rate(opt.eta0, opt.lambda_u, uncertainty) if flags.adaptive \
            else opt.eta0
        agreement = 1.0 if nll.forward.probs[target_idx] > 1.0 / ds.n_items else 0.0
        weights.update("explicit" if kind == EXPLICIT else "implicit", agreement)

        explicit = None
        if kind == EXPLICIT and ev.get("value") is not None:
            g_rate = model.zero_grads()
            rl = model.example_rating_loss(
                (nll.h_user, nll.mm_cache), hist, float(ev["value"]), ds,
                grads=g_rate,
            )
            explicit = (rl, g_rate)
        total, grads = combined_feedback_loss(
            (nll.loss, g_nll), explicit, model.params, weights,
        )
        if ewc is not None and ewc.lambda_ewc > 0:
            ploss, pgrads = ewc_penalty(model.params, ewc)
            total += ploss
            for k, g in pgrads.items():
                grads[k] += g
        # one event's share of train's per-batch bound
        grad_norm = clip_grad_norm(grads, config.grad_clip / config.batch_size)
        frac = selective_step(model.params, grads, opt, eta)
        hist.append(iid)
        logs.append({
            "user": uid, "item": iid, "kind": kind,
            "eta": eta, "uncertainty": uncertainty,
            "updated_fraction": frac, "loss": total,
            "nll": nll.loss, "grad_norm": grad_norm,
            "rating_loss": explicit[0] if explicit else None,
        })
    return logs
