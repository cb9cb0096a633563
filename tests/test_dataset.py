"""Ingestion oracle tests: TSV/JSONL parsing, temporal splits, popularity
counting against an independent second pass, and tokenization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrec.dataset import (
    EXPLICIT,
    IMPLICIT,
    DataError,
    Interaction,
    ItemRecord,
    assign_group,
    build_dataset,
    build_temporal_split,
    build_vocab,
    load_dataset,
    parse_interactions,
    popularity_table,
    tokenize,
)
from mmrec.numerics import make_rng
from mmrec.synth import planted_categories, write_dataset_files


def _write_tsv(tmp_path, rows, header="user_id\titem_id\trating\ttimestamp"):
    p = tmp_path / "inter.tsv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(p)


def test_parse_interactions_basic(tmp_path):
    path = _write_tsv(tmp_path, [
        "u1\ti1\t4.5\t100",
        "u1\ti2\t-\t200",
    ])
    out = parse_interactions(path)
    assert [it.item_id for it in out] == ["i1", "i2"]  # stable input order
    assert out[0].feedback_kind == EXPLICIT and out[0].rating == 4.5
    assert out[1].feedback_kind == IMPLICIT and out[1].rating is None


def test_parse_interactions_line_numbers_in_errors(tmp_path):
    path = _write_tsv(tmp_path, ["u1\ti1\t4.5\t100", "u1\ti1\tbad\t200"])
    with pytest.raises(DataError, match=":3:"):
        parse_interactions(path)


def test_parse_interactions_duplicate_triple(tmp_path):
    path = _write_tsv(tmp_path, ["u1\ti1\t4.5\t100", "u1\ti1\t3.0\t100"])
    with pytest.raises(DataError, match="duplicate"):
        parse_interactions(path)


def test_parse_interactions_field_count(tmp_path):
    path = _write_tsv(tmp_path, ["u1\ti1\t4.5"])
    with pytest.raises(DataError, match="expected 4 fields"):
        parse_interactions(path)


def test_interaction_invariants():
    with pytest.raises(DataError):
        Interaction("u", "i", None, 10, EXPLICIT)  # explicit needs a rating
    with pytest.raises(DataError):
        Interaction("u", "i", 3.0, 10, IMPLICIT)   # implicit forbids one
    with pytest.raises(DataError):
        Interaction("u", "i", 9.0, 10, EXPLICIT)   # rating outside [0,5]
    with pytest.raises(DataError):
        Interaction("u", "i", 3.0, -1, EXPLICIT)   # negative timestamp


def test_tokenize_unknown_maps_to_zero():
    vocab = {"apple": 1, "pie": 2}
    assert tokenize("Apple PIE crumble", vocab) == [1, 2, 0]


def test_build_vocab_frequency_order():
    vocab = build_vocab(["b b b a a c", "a"])
    # a (3) then b (3) ... frequency ties break alphabetically; id 0 reserved
    assert vocab["a"] == 1 and vocab["b"] == 2 and vocab["c"] == 3
    assert 0 not in vocab.values()


def test_assign_group_deterministic_and_in_range():
    for uid in ("u1", "another", ""):
        g = assign_group(uid, 3)
        assert g == assign_group(uid, 3)
        assert g in {"g0", "g1", "g2"}


def _inter(u, i, ts):
    return Interaction(u, i, None, ts, IMPLICIT)


def test_temporal_split_hand_worked():
    # one user, 5 interactions, f=0.8 -> ceil(4.0)=4 train, but the last one
    # is always held out: min(4, n-1) = 4 train, 1 test, 0 validation
    inter = [_inter("u", f"i{k}", 10 * k) for k in range(5)]
    split = build_temporal_split(inter, 0.8)
    assert split.train == [0, 1, 2, 3]
    assert split.test == [4]
    assert split.validation == []

    # f=0.5, n=5 -> ceil(2.5)=3 train, last test, 1 validation
    split = build_temporal_split(inter, 0.5)
    assert split.train == [0, 1, 2]
    assert split.validation == [3]
    assert split.test == [4]


def test_temporal_split_orders_by_timestamp_not_input_order():
    inter = [_inter("u", "a", 300), _inter("u", "b", 100), _inter("u", "c", 200)]
    split = build_temporal_split(inter, 0.5)
    # timestamps sort to b(100), c(200), a(300); test = latest = index 0
    assert split.test == [0]


def test_temporal_split_drops_short_users():
    inter = [_inter("u", "a", 1), _inter("u", "b", 2),
             _inter("v", "a", 1), _inter("v", "b", 2), _inter("v", "c", 3)]
    split = build_temporal_split(inter, 0.8)
    assert split.dropped_users == 1
    assert all(inter[i].user_id == "v" for i in split.train + split.test)


@given(st.integers(3, 30), st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_temporal_split_partitions(n, frac):
    inter = [_inter("u", f"i{k}", k) for k in range(n)]
    split = build_temporal_split(inter, frac)
    all_idx = sorted(split.train + split.validation + split.test)
    assert all_idx == list(range(n))
    assert len(split.test) == 1
    # every train timestamp precedes the test timestamp
    t_test = inter[split.test[0]].timestamp
    assert all(inter[i].timestamp <= t_test for i in split.train)


def test_popularity_matches_second_pass_counting_oracle():
    # 1k-event log against an independent hash-count
    rng = make_rng(9)
    inter = []
    for k in range(1000):
        iid = f"i{int(rng.integers(50))}"
        inter.append(_inter(f"u{k % 20}", iid, k))
    counts, freqs = popularity_table(inter)
    oracle = {}
    for it in inter:
        oracle[it.item_id] = oracle.get(it.item_id, 0) + 1
    assert counts == oracle
    assert sum(counts.values()) == 1000
    assert abs(sum(freqs.values()) - 1.0) < 1e-12


def test_build_dataset_histories_and_catalog(tiny_ds):
    ds = tiny_ds
    assert ds.item_ids == sorted(ds.items)
    # histories are time-ordered train items
    for uid, user in ds.users.items():
        hist_inter = ds.user_train_history(uid)
        assert user.history == [it.item_id for it in hist_inter]
        ts = [it.timestamp for it in hist_inter]
        assert ts == sorted(ts)
    # popularity counts come from the train split only
    assert sum(ds.popularity.values()) == len(ds.split.train)


def test_histories_follow_split_order_on_tied_timestamps():
    # b and a share timestamp 5; the split orders ties by input line, and
    # the user's history and the training examples must follow it
    rows = [("b", 5), ("a", 5), ("c", 6), ("d", 7), ("e", 8), ("f", 9)]
    inter = [_inter("u", iid, ts) for iid, ts in rows]
    items = {iid: ItemRecord(iid, iid, [1], frozenset({"x"}), np.zeros(1))
             for iid, _ in rows}
    ds = build_dataset(inter, items, {}, {}, train_fraction=0.6)
    assert ds.users["u"].history == ["b", "a", "c", "d"]
    assert [it.item_id for it in ds.user_train_history("u")] == ["b", "a", "c", "d"]
    assert ds.test_target("u").item_id == "f"
    assert ds.last_train_timestamp == 7
    assert ds.item_last_timestamps == {"b": 5, "a": 5, "c": 6, "d": 7}


def test_round_trip_through_files(tmp_path, tiny_ds):
    paths = write_dataset_files(tiny_ds, str(tmp_path))
    ds2 = load_dataset(paths["interactions"], paths["items"], paths["users"])
    assert len(ds2.interactions) == len(tiny_ds.interactions)
    assert ds2.item_ids == tiny_ds.item_ids
    assert ds2.split.train == tiny_ds.split.train
    assert ds2.split.test == tiny_ds.split.test
    for uid in tiny_ds.users:
        assert ds2.users[uid].group_label == tiny_ds.users[uid].group_label
        assert np.allclose(
            ds2.users[uid].profile_features, tiny_ds.users[uid].profile_features
        )


def test_load_dataset_bad_items(tmp_path):
    ipath = _write_tsv(tmp_path, ["u1\ti1\t-\t1", "u1\ti1\t-\t2", "u1\ti1\t-\t3"])
    items = tmp_path / "items.jsonl"
    items.write_text('{"item_id": "i1", "numeric": [1]}\n{not json\n')
    with pytest.raises(DataError, match="invalid JSON"):
        load_dataset(ipath, str(items))


def test_records_without_ids_name_their_line(tmp_path):
    # a record without its id, or a line that is not an object, is a data
    # error at path:line, not a KeyError
    ipath = _write_tsv(tmp_path, ["u1\ti1\t-\t1", "u1\ti1\t-\t2", "u1\ti1\t-\t3"])
    items = tmp_path / "items.jsonl"
    items.write_text('{"item_id": "i1", "numeric": [1]}\n\n{"title": "no id"}\n')
    with pytest.raises(DataError, match=r"items.jsonl:3: missing item_id"):
        load_dataset(ipath, str(items))
    items.write_text('{"item_id": "i1", "numeric": [1]}\n[1, 2]\n')
    with pytest.raises(DataError, match=r"items.jsonl:2: not a JSON object"):
        load_dataset(ipath, str(items))
    items.write_text('{"item_id": "i1", "numeric": [1]}\n')
    users = tmp_path / "users.jsonl"
    users.write_text('{"user_id": "u1"}\n{"group": "g0"}\n')
    with pytest.raises(DataError, match=r"users.jsonl:2: missing user_id"):
        load_dataset(ipath, str(items), str(users))


def test_load_dataset_inconsistent_numeric_dims(tmp_path):
    ipath = _write_tsv(tmp_path, ["u1\ti1\t-\t1", "u1\ti1\t-\t2", "u1\ti1\t-\t3"])
    items = tmp_path / "items.jsonl"
    items.write_text(
        json.dumps({"item_id": "i1", "numeric": [1, 2]}) + "\n"
        + json.dumps({"item_id": "i2", "numeric": [1]}) + "\n"
    )
    with pytest.raises(DataError, match="numeric dim"):
        load_dataset(ipath, str(items))


def test_synthetic_generator_deterministic():
    a = planted_categories(n_users=5, n_items=20, n_categories=4,
                           interactions_per_user=6, seed=1)
    b = planted_categories(n_users=5, n_items=20, n_categories=4,
                           interactions_per_user=6, seed=1)
    assert [it.item_id for it in a.interactions] == [it.item_id for it in b.interactions]
    assert [it.timestamp for it in a.interactions] == [it.timestamp for it in b.interactions]
