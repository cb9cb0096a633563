"""CLI tests: every subcommand end to end on a small on-disk dataset,
exit codes, flag overrides, and the data-root environment variable."""

import json
import os

import pytest

from mmrec import checkpoint as ckpt_io
from mmrec.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from mmrec.synth import planted_categories, write_dataset_files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = planted_categories(n_users=12, n_items=40, n_categories=4,
                            interactions_per_user=8, seed=7)
    paths = write_dataset_files(ds, str(root / "data"))
    config = {
        "interactions_path": paths["interactions"],
        "items_path": paths["items"],
        "users_path": paths["users"],
        "d": 8, "d_k": 4, "n_blocks": 1, "max_seq": 16, "max_tokens": 8,
        "epochs": 1, "batch_size": 8, "max_prefixes_per_user": 2,
        "seed": 5, "retrieval_k": 2, "n_aspects": 4,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    uid = sorted(ds.users)[0]
    events = root / "events.jsonl"
    events.write_text(
        json.dumps({"user": uid, "item": ds.item_ids[3], "kind": "implicit",
                    "timestamp": 2_000_000}) + "\n"
    )
    # the checkpoint that the other subcommands read, trained here so that
    # every test also passes when run alone
    ckpt = str(root / "model.ckpt")
    assert main(["train", "--config", str(cfg_path), "--out", ckpt]) == EXIT_OK
    return {"root": root, "config": str(cfg_path), "user": uid,
            "events": str(events), "ckpt": ckpt,
            "item": ds.item_ids[3], "item_pos": ds.item_index[ds.item_ids[3]]}


def test_ingest(workdir, capsys):
    rc = main(["ingest", "--config", workdir["config"]])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["n_items"] == 40
    assert out["n_users"] == 12
    assert out["n_test"] == 12


def test_train_writes_checkpoint(workdir, tmp_path, capsys):
    out_ckpt = str(tmp_path / "model.ckpt")
    rc = main(["train", "--config", workdir["config"], "--out", out_ckpt])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["epoch_losses"]) == 1
    assert not out["aborted"]
    # training is deterministic: the fixture's checkpoint is byte-identical
    with open(out_ckpt, "rb") as fh, open(workdir["ckpt"], "rb") as ref:
        assert fh.read() == ref.read()


def test_evaluate(workdir, capsys, tmp_path):
    out_path = str(tmp_path / "eval.json")
    rc = main(["evaluate", "--config", workdir["config"],
               "--checkpoint", workdir["ckpt"], "--out", out_path])
    assert rc == EXIT_OK
    with open(out_path) as fh:
        payload = json.load(fh)
    assert set(payload) == {"model", "random", "popularity"}
    table = capsys.readouterr().out
    assert "hr@10" in table

    # report subcommand renders the saved JSON
    rc = main(["report", "--report", out_path])
    assert rc == EXIT_OK
    assert "model" in capsys.readouterr().out


def test_recommend_golden_schema(workdir, capsys):
    rc = main(["recommend", "--config", workdir["config"],
               "--checkpoint", workdir["ckpt"], "--user", workdir["user"],
               "-N", "3"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["user_id"] == workdir["user"]
    assert len(payload["recommendations"]) == 3
    rec = payload["recommendations"][0]
    assert {"item_id", "title", "score", "explanation_text",
            "explanation_type"} <= set(rec)


def test_recommend_deterministic(workdir, capsys):
    args = ["recommend", "--config", workdir["config"],
            "--checkpoint", workdir["ckpt"], "--user", workdir["user"]]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_explain_pair(workdir, capsys):
    rc = main(["explain", "--config", workdir["config"],
               "--checkpoint", workdir["ckpt"], "--user", workdir["user"],
               "--item", workdir["item"]])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["item_id"] == workdir["item"]
    assert 0 < len(payload["explanation_text"]) <= 400


def test_online_update(workdir, tmp_path, capsys):
    out_ckpt = str(tmp_path / "updated.ckpt")
    log_path = str(tmp_path / "updates.jsonl")
    rc = main(["online-update", "--config", workdir["config"],
               "--checkpoint", workdir["ckpt"], "--events", workdir["events"],
               "--out", out_ckpt, "--log", log_path])
    assert rc == EXIT_OK
    assert os.path.exists(out_ckpt)
    with open(log_path) as fh:
        entries = [json.loads(l) for l in fh if l.strip()]
    assert len(entries) == 1
    assert "eta" in entries[0] and "updated_fraction" in entries[0]


def test_flag_override_changes_behavior(workdir, tmp_path, capsys):
    rc = main(["ingest", "--config", workdir["config"],
               "--flags", "retrieval=off,debias=off"])
    assert rc == EXIT_OK
    rc = main(["ingest", "--config", workdir["config"], "--flags", "bogus=on"])
    assert rc == EXIT_DATA
    # an unknown flag in the config file itself, such as the removed
    # cross_modal_mixing, is a config error too
    cfg = json.loads(open(workdir["config"]).read())
    for flag in ("bogus", "cross_modal_mixing"):
        cfg["flags"] = {"fusion": True, flag: True}
        bad = tmp_path / f"{flag}.json"
        bad.write_text(json.dumps(cfg))
        assert main(["ingest", "--config", str(bad)]) == EXIT_DATA
        assert flag in capsys.readouterr().err


def test_flag_override_names_any_feature_flag(workdir, tmp_path):
    # an override is checked against the feature flags, not against the
    # flags that the config file happens to list
    cfg = json.loads(open(workdir["config"]).read())
    cfg["flags"] = {"retrieval": False}
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(cfg))
    assert main(["ingest", "--config", str(partial), "--flags", "debias=off"]) == EXIT_OK
    assert main(["ingest", "--config", str(partial), "--flags", "bogus=off"]) == EXIT_DATA


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["not-a-command"]) == EXIT_USAGE
    assert main(["train", "--config"]) == EXIT_USAGE


def test_data_errors(workdir, capsys):
    assert main(["ingest", "--config", "/nonexistent.json"]) == EXIT_DATA
    assert main(["recommend", "--config", workdir["config"],
                 "--checkpoint", workdir["ckpt"], "--user", "ghost"]) == EXIT_DATA
    assert main(["explain", "--config", workdir["config"],
                 "--checkpoint", workdir["ckpt"], "--user", "ghost",
                 "--item", workdir["item"]]) == EXIT_DATA
    assert main(["explain", "--config", workdir["config"],
                 "--checkpoint", workdir["ckpt"], "--user", workdir["user"],
                 "--item", "ghost"]) == EXIT_DATA


def test_bad_checkpoint_version_exit_code(workdir, tmp_path, capsys):
    # a checkpoint of another format version is a data error, not a traceback
    for version in (1, 2):
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(b"MMRC" + version.to_bytes(4, "little") + bytes(8))
        rc = main(["recommend", "--config", workdir["config"],
                   "--checkpoint", str(old), "--user", workdir["user"]])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")


def test_truncated_checkpoint_and_bad_event_lines(workdir, tmp_path, capsys):
    # a checkpoint cut short and an event line that is not JSON are data
    # errors (exit 2 with an error line), not tracebacks
    with open(workdir["ckpt"], "rb") as fh:
        blob = fh.read()
    for size in (len(blob) // 2, 30):
        cut = tmp_path / f"cut{size}.ckpt"
        cut.write_bytes(blob[:size])
        rc = main(["recommend", "--config", workdir["config"],
                   "--checkpoint", str(cut), "--user", workdir["user"]])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    good = open(workdir["events"]).read()
    for line, message in (("not json", "invalid JSON"),
                          ("[1, 2]", "not a JSON object")):
        events = tmp_path / "events.jsonl"
        events.write_text(good + "\n" + line + "\n")
        out_ckpt = tmp_path / "updated.ckpt"
        rc = main(["online-update", "--config", workdir["config"],
                   "--checkpoint", workdir["ckpt"], "--events", str(events),
                   "--out", str(out_ckpt)])
        assert rc == EXIT_DATA
        assert f"{events}:3: {message}" in capsys.readouterr().err
        assert not out_ckpt.exists()


def test_degenerate_online_update_exits_3(workdir, tmp_path, capsys):
    # an event whose target probability underflows to 0 cannot be learned
    # from: numerical failure, and no updated checkpoint
    ckpt = ckpt_io.load(workdir["ckpt"])
    ckpt.params["gen.bout"][workdir["item_pos"]] = -1e4
    bad = str(tmp_path / "degenerate.ckpt")
    ckpt_io.save(ckpt, bad)
    out_ckpt = tmp_path / "updated.ckpt"
    rc = main(["online-update", "--config", workdir["config"],
               "--checkpoint", bad, "--events", workdir["events"],
               "--out", str(out_ckpt)])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out_ckpt.exists()


def test_data_root_env_var(workdir, monkeypatch, tmp_path, capsys):
    # relative paths in the config resolve against MMREC_DATA_ROOT
    cfg = json.loads(open(workdir["config"]).read())
    root = str(workdir["root"])
    for key in ("interactions_path", "items_path", "users_path"):
        cfg[key] = os.path.relpath(cfg[key], root)
    rel_cfg = tmp_path / "rel_config.json"
    rel_cfg.write_text(json.dumps(cfg))
    monkeypatch.setenv("MMREC_DATA_ROOT", root)
    assert main(["ingest", "--config", str(rel_cfg)]) == EXIT_OK
    monkeypatch.delenv("MMREC_DATA_ROOT")
    assert main(["ingest", "--config", str(rel_cfg)]) == EXIT_DATA
