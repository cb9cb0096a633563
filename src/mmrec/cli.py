"""Command-line interface.

Subcommands: ingest, train, evaluate, ablate, recommend, explain,
online-update, report. Dataset paths in the config file are resolved
against $MMREC_DATA_ROOT when set. Exit codes: 0 success, 1 usage,
2 data, config or checkpoint error, 3 numerical failure (training or an
online update diverged; online-update then writes no checkpoint).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkpoint as ckpt_io
from . import harness, metrics
from .adaptive import FeedbackWeights
from .dataset import DataError, load_dataset
from .generator import GenerationError
from .harness import ExperimentConfig, HarnessError
from .model import FeatureFlags

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _resolve(path: str) -> str:
    root = os.environ.get("MMREC_DATA_ROOT")
    if root and path and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(_resolve(args.config))
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "flags", None):
        for token in args.flags.split(","):
            name, _, value = token.partition("=")
            if name not in FeatureFlags.__dataclass_fields__:
                raise HarnessError(f"unknown flag {name!r}")
            cfg.flags[name] = value.lower() in ("1", "on", "true", "yes")
    return cfg


def _load_ds(cfg: ExperimentConfig):
    return load_dataset(
        _resolve(cfg.interactions_path),
        _resolve(cfg.items_path),
        _resolve(cfg.users_path) or None,
        train_fraction=cfg.train_fraction,
    )


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    summary = {
        "n_interactions": len(ds.interactions),
        "n_items": ds.n_items,
        "n_users": len(ds.users),
        "n_train": len(ds.split.train),
        "n_validation": len(ds.split.validation),
        "n_test": len(ds.split.test),
        "dropped_users": ds.split.dropped_users,
        "vocab_size": len(ds.vocab),
        "dataset_id": harness.dataset_id(ds),
    }
    _emit(summary, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    ckpt, tlog = harness.train(cfg, ds)
    if tlog.aborted:
        print("training aborted on divergence; last good checkpoint saved",
              file=sys.stderr)
    ckpt_io.save(ckpt, args.out)
    _emit({"epoch_losses": tlog.epoch_losses, "aborted": tlog.aborted,
           "checkpoint": args.out}, None)
    return EXIT_NUMERICAL if tlog.aborted else EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    ckpt = ckpt_io.load(args.checkpoint)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    reports, _ = harness.evaluate(model, ds, cfg)
    payload = {k: r.as_dict() for k, r in reports.items()}
    _emit(payload, args.out)
    print(metrics.report_table(reports))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    rows = harness.run_ablation(cfg, ds)
    _emit({k: r.as_dict() for k, r in rows.items()}, args.out)
    print(metrics.report_table(rows))
    return EXIT_OK


def cmd_recommend(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    ckpt = ckpt_io.load(args.checkpoint)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    labels = ckpt.extra.get("aspect_labels") or harness.aspect_labels(
        ds, cfg.n_aspects
    )
    payload = harness.recommend_payload(model, ds, cfg, args.user, args.n, labels)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_explain(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    ckpt = ckpt_io.load(args.checkpoint)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    labels = ckpt.extra.get("aspect_labels") or harness.aspect_labels(
        ds, cfg.n_aspects
    )
    if args.item:
        payload = harness.explain_payload(model, ds, cfg, args.user, args.item,
                                          labels)
    else:
        payload = harness.recommend_payload(model, ds, cfg, args.user, 1, labels)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_online_update(args) -> int:
    cfg = _load_config(args)
    ds = _load_ds(cfg)
    ckpt = ckpt_io.load(args.checkpoint)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    events = []
    path = _resolve(args.events)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(event, dict):
                raise DataError(f"{path}:{lineno}: not a JSON object")
            events.append(event)
    try:
        logs = harness.online_update(
            model, ds, cfg, events, ckpt.opt_state,
            ewc=ckpt.ewc, weights=FeedbackWeights(gamma_reg=cfg.gamma_reg),
        )
    except GenerationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    ckpt.params = model.params
    ckpt.step = ckpt.opt_state.step_count
    ckpt_io.save(ckpt, args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for entry in logs:
                fh.write(json.dumps(entry) + "\n")
    else:
        for entry in logs:
            print(json.dumps(entry))
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    reports = {
        k: metrics.EvalReport(metrics=v["metrics"], cutoffs=v.get("cutoffs", []),
                              dataset_id=v.get("dataset_id", ""),
                              config_hash=v.get("config_hash", ""),
                              seed=v.get("seed", 0))
        for k, v in payload.items()
    }
    print(metrics.report_table(reports))
    return EXIT_OK


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmrec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--flags", default=None,
                        help="comma list of flag=on/off overrides")
        sp.add_argument("--out", default=None, help="output JSON path")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True)

    sp = sub.add_parser("ingest", help="validate and summarize a dataset")
    common(sp)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train", help="train a model")
    common(sp)
    sp.set_defaults(func=cmd_train)
    for a in sp._actions:
        if getattr(a, "dest", "") == "out":
            a.required = True

    sp = sub.add_parser("evaluate", help="evaluate a checkpoint")
    common(sp, checkpoint=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("ablate", help="incremental feature-flag ablation")
    common(sp)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("recommend", help="top-N recommendations for a user")
    common(sp, checkpoint=True)
    sp.add_argument("--user", required=True)
    sp.add_argument("-N", "--n", type=int, default=10)
    sp.set_defaults(func=cmd_recommend)

    sp = sub.add_parser("explain", help="explanation for a (user, item) pair")
    common(sp, checkpoint=True)
    sp.add_argument("--user", required=True)
    sp.add_argument("--item", default=None)
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("online-update", help="consume a feedback event stream")
    common(sp, checkpoint=True)
    sp.add_argument("--events", required=True, help="JSON-lines event file")
    sp.add_argument("--log", default=None, help="per-event update log path")
    for a in sp._actions:
        if getattr(a, "dest", "") == "out":
            a.required = True
    sp.set_defaults(func=cmd_online_update)

    sp = sub.add_parser("report", help="render a report JSON as a table")
    sp.add_argument("--report", required=True)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ckpt_io.CheckpointError, DataError, FileNotFoundError,
            HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, OverflowError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
