"""mmrec benchmark: one workload, one seed, one run, in one process.

    python3 perfbench/run.py --workload {serve,feedback} --seed N \\
        --seconds S --trace {0,1}

Run from the root of an mmrec checkout. The run trains and evaluates a
model (the offline phase), saves it, loads it into a service on the larger
population of the same catalog, and answers rounds of one read and one
write. Every output is checked. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (METRIC_TOL, beyond, oracle_ranking, params_digest,  # noqa: E402
                    payload_problems, percentile, ranking_metrics,
                    retrieval_mismatch, update_problems)
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workload import (EPOCHS, EVAL_ROUNDS, EWC_LAMBDA,  # noqa: E402
                      FISHER_EXAMPLES, FRESHNESS_EVERY, MAX_PREFIXES,
                      MIN_ROUNDS, N_RECS, RETRIEVAL_SAMPLE, SERVE_USERS,
                      TRAIN_USERS, WORKLOADS, config_dict, feedback_events,
                      population_files, request_users)

END_TO_END = [
    ("setup_s", "s"),
    ("train_examples_per_s", "examples/s"),
    ("eval_users_per_s", "users/s"),
    ("ndcg_at_10", "ratio"),
    ("ild_at_10", "ratio"),
    ("recommend_p50_ms", "ms"),
    ("recommend_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def training_examples(ds, max_prefixes: int) -> int:
    """What harness.build_examples yields: the last ``max_prefixes``
    prefixes of each train history of at least two items."""
    return sum(min(max_prefixes, len(u.history) - 1)
               for u in ds.users.values() if len(u.history) >= 2)


def offline_problems(model, ds, cfg, tlog, reports, aux, rng) -> list[str]:
    """Checks on the trained model and on evaluate's report."""
    from mmrec import harness, retrieval

    problems = []
    losses = tlog.epoch_losses + tlog.adversary_losses
    if tlog.aborted or not all(math.isfinite(x) for x in losses):
        problems.append(f"training aborted or diverged: {tlog}")
    hr, hr_random = (reports[r].metrics["hr@10"] for r in ("model", "random"))
    if not hr > hr_random:
        problems.append(f"model HR@10 {hr} not above the random baseline {hr_random}")

    lists = {u: [i for i, _ in entries] for u, entries in aux["scored_lists"].items()}
    mine = ranking_metrics(lists, aux["truth"], 10)
    for key, name in (("hr", "hr@10"), ("ndcg", "ndcg@10"), ("mrr", "mrr")):
        theirs = reports["model"].metrics[name]
        if abs(mine[key] - theirs) > METRIC_TOL:
            problems.append(f"{name}: evaluate says {theirs!r}, recomputed {mine[key]!r}")

    flags = cfg.feature_flags()
    rconf = cfg.retrieval_config()
    index = harness.build_retrieval_index(model, ds, flags)
    entries = [(e.entry_id, e.embedding, e.timestamp, e.credibility) for e in index]
    t_now = max(ds.interactions[i].timestamp for i in ds.split.train)
    users = sorted(ds.users)
    for j in rng.choice(len(users), size=RETRIEVAL_SAMPLE, replace=False):
        user = ds.users[users[int(j)]]
        query = model.encode_user(user, user.history, ds, flags)[0]
        got = retrieval.retrieve_top_k(query, index, rconf, t_now)
        oracle = oracle_ranking(query, entries, rconf.lambda_sim,
                                rconf.lambda_temporal, rconf.lambda_credibility,
                                rconf.sigma, t_now)
        why = retrieval_mismatch([e.entry_id for e, _ in got.entries], oracle, rconf.k)
        if why:
            problems.append(f"retrieval for {user.user_id}: {why}")
    return problems


def serve_rounds(w, seed: int, seconds: float, model, ckpt, ds, cfg, tracer) -> dict:
    """Rounds of one read and one write until at least MIN_ROUNDS rounds and
    ``seconds`` seconds are done; each output is checked as it comes."""
    from mmrec import harness
    from mmrec.adaptive import FeedbackWeights
    from mmrec.model import Model

    labels = ckpt.extra["aspect_labels"]
    weights = FeedbackWeights(gamma_reg=cfg.gamma_reg)
    users = request_users(seed, sorted(ds.users))
    events = feedback_events(seed, ds)
    if w.writes_to_served:
        learner, opt = model, ckpt.opt_state
    else:
        learner = Model(model.cfg, seed=ckpt.seed,
                        params={k: v.copy() for k, v in model.params.items()},
                        adv={k: v.copy() for k, v in model.adv.items()})
        opt = copy.deepcopy(ckpt.opt_state)

    read_ms: list[float] = []
    update_ms: list[float] = []
    problems: list[str] = []
    failed = 0
    # outputs of the first MIN_ROUNDS rounds, and the learner's parameters
    # after them: equal between traced and untraced runs of one seed
    digest = hashlib.sha256()
    params_sha256 = ""
    read_users: list[str] = []
    explicit = 0

    def read(uid: str) -> dict | None:
        nonlocal failed
        read_users.append(uid)
        t0 = time.perf_counter()
        try:
            payload = harness.recommend_payload(model, ds, cfg, uid, N_RECS, labels)
        except Exception:
            failed += 1
            traceback.print_exc()
            return None
        read_ms.append((time.perf_counter() - t0) * 1e3)
        for p in payload_problems(payload, N_RECS, ds.users[uid].history):
            problems.append(f"read {len(read_ms)} ({uid}): {p}")
        if len(read_ms) <= MIN_ROUNDS:
            digest.update(json.dumps(payload, sort_keys=True).encode())
        return payload

    def write(event: dict) -> None:
        nonlocal failed, params_sha256, explicit
        explicit += event["kind"] == "explicit"
        t0 = time.perf_counter()
        try:
            logs = harness.online_update(learner, ds, cfg, [event], opt,
                                         ewc=ckpt.ewc, weights=weights)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        update_ms.append((time.perf_counter() - t0) * 1e3)
        for p in update_problems(logs[0], opt.eta0, opt.lambda_u):
            problems.append(f"write {len(update_ms)}: {p}")
        if len(update_ms) <= MIN_ROUNDS:
            digest.update(json.dumps(logs, sort_keys=True).encode())
        if len(update_ms) == MIN_ROUNDS:
            params_sha256 = params_digest(learner.params)

    def matches_fresh_model(uid: str, payload: dict) -> bool:
        fresh = Model(model.cfg, seed=ckpt.seed,
                      params={k: v.copy() for k, v in model.params.items()},
                      adv={k: v.copy() for k, v in model.adv.items()})
        return harness.recommend_payload(fresh, ds, cfg, uid, N_RECS, labels) == payload

    freshness_checked = 0
    rounds = 0
    t_start = time.monotonic()
    while rounds < MIN_ROUNDS or time.monotonic() - t_start < seconds:
        if w.writes_to_served:
            event = next(events)
            write(event)
            uid = event["user"]
        else:
            uid = next(users)
        payload = read(uid)
        if not w.writes_to_served:
            write(next(events))
        rounds += 1
        if payload is not None and rounds % FRESHNESS_EVERY == 0:
            freshness_checked += 1
            with tracer.paused() if tracer else contextlib.nullcontext():
                if not matches_fresh_model(uid, payload):
                    problems.append(f"read {rounds} ({uid}) differs from a fresh "
                                    "model on the same parameters")
    if freshness_checked == 0:
        problems.append("no read was compared with a fresh model")
    return {
        "read_ms": read_ms,
        "update_ms": update_ms,
        "failed": failed,
        "problems": problems,
        "repeat_share": 1.0 - len(set(read_users)) / len(read_users),
        "explicit_share": explicit / rounds,
        "outputs_sha256": digest.hexdigest(),
        "params_sha256": params_sha256,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mmrec", "harness.py")):
        print("perfbench: src/mmrec not found; run from the root of an mmrec "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import numpy as np

    from mmrec import checkpoint, dataset, harness
    from mmrec.adaptive import EwcState

    w = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    pop_dir = os.path.join(out_dir, "populations")
    # the populations are written once per checkout; that is not set-up
    t0 = time.perf_counter()
    train_files = population_files(pop_dir, TRAIN_USERS)
    serve_files = population_files(pop_dir, SERVE_USERS)
    populations_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = tempfile.mkdtemp(dir=out_dir, prefix=f"run-{w.name}-")
    try:
        # offline phase: its set-up is the imports and the 200-user load
        ds = dataset.load_dataset(train_files["interactions"], train_files["items"],
                                  train_files["users"])
        offline_setup_s = time.perf_counter() - T_START - populations_s
        cfg = harness.ExperimentConfig.from_dict(config_dict())
        t0 = time.perf_counter()
        ckpt, tlog = harness.train(cfg, ds)
        train_s = time.perf_counter() - t0
        model = harness.model_from_checkpoint(ckpt, cfg, ds)
        eval_s = []
        outcomes = []
        for _ in range(EVAL_ROUNDS):
            t0 = time.perf_counter()
            reports, aux = harness.evaluate(model, ds, cfg)
            eval_s.append(time.perf_counter() - t0)
            outcomes.append(json.dumps({k: r.as_dict() for k, r in reports.items()},
                                       sort_keys=True))
        trained_sha256 = params_digest(ckpt.params)
        fisher = harness.fisher_from_dataset(model, ds, cfg, max_examples=FISHER_EXAMPLES)
        ckpt.ewc = EwcState(fisher=fisher,
                            anchor={k: v.copy() for k, v in ckpt.params.items()},
                            lambda_ewc=EWC_LAMBDA)
        ckpt_path = os.path.join(work, "model.ckpt")
        checkpoint.save(ckpt, ckpt_path)
        with tracer.paused() if tracer else contextlib.nullcontext():
            problems = offline_problems(model, ds, cfg, tlog, reports, aux,
                                        np.random.default_rng([args.seed, 3]))
        if len(set(outcomes)) != 1:
            problems.append("repeated evaluate calls on one model disagree")
        offline = {"examples": training_examples(ds, MAX_PREFIXES) * EPOCHS,
                   "users": len(aux["scored_lists"]), "report": reports["model"],
                   "hr": {k: r.metrics["hr@10"] for k, r in reports.items()}}
        del ds, model, ckpt, aux

        # service phase: its set-up is the 2000-user load and the model load,
        # the first of each in this process
        t0 = time.perf_counter()
        sds = dataset.load_dataset(serve_files["interactions"], serve_files["items"],
                                   serve_files["users"])
        sckpt = checkpoint.load(ckpt_path)
        smodel = harness.model_from_checkpoint(sckpt, cfg, sds)
        service_setup_s = time.perf_counter() - t0
        svc = serve_rounds(w, args.seed, args.seconds, smodel, sckpt, sds, cfg, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems += svc["problems"]
    reads, updates = svc["read_ms"], svc["update_ms"]
    for label, samples in (("reads", reads), ("writes", updates)):
        if beyond(len(samples), 90) < 10:
            problems.append(f"{len(samples)} {label}: fewer than ten beyond the 90th percentile")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    figures = {
        "setup_s": offline_setup_s + service_setup_s,
        "train_examples_per_s": offline["examples"] / train_s,
        "eval_users_per_s": offline["users"] / statistics.median(eval_s),
        "ndcg_at_10": offline["report"].metrics["ndcg@10"],
        "ild_at_10": offline["report"].metrics["ild@10"],
        "recommend_p50_ms": percentile(reads, 50) if reads else float("nan"),
        "recommend_p90_ms": percentile(reads, 90) if reads else float("nan"),
        "update_p50_ms": percentile(updates, 50) if updates else float("nan"),
        "update_p90_ms": percentile(updates, 90) if updates else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        export = tracer.export()
        values = layer_metrics(export)
        values["trace.overhead_est_s"] = values["trace.spans"] * tracer.overhead_per_span()
        for name in ("setup_s", "train_examples_per_s", "eval_users_per_s",
                     "recommend_p50_ms", "update_p50_ms"):
            values[f"traced.{name}"] = figures[name]
        with open(os.path.join(out_dir, f"trace-{w.name}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": w.name, "seed": args.seed, **export}, fh)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END}

    print(f"outputs: trained {trained_sha256[:16]} served {svc['outputs_sha256'][:16]} "
          f"learner {svc['params_sha256'][:16]}; reads {len(reads)} writes "
          f"{len(updates)}; repeated-user share {svc['repeat_share']:.3f}, "
          f"explicit share {svc['explicit_share']:.3f}; HR@10 "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(offline["hr"].items())))
    print(json.dumps({
        "correct": not problems,
        "attempted": offline["examples"] + offline["users"] * EVAL_ROUNDS
        + len(reads) + len(updates) + svc["failed"],
        "failed": svc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
