"""Dataset ingestion: interaction logs, item/user metadata, temporal splits,
and derived statistics (popularity, tokenizer vocabulary, group labels).

File formats:
  interactions  TSV with header: user_id \\t item_id \\t rating \\t timestamp
                (rating "-" means implicit feedback)
  items         JSON-lines: {item_id, title, description, categories[], numeric[]}
  users         JSON-lines: {user_id, group, profile[]}
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

EXPLICIT = "explicit"
IMPLICIT = "implicit"

UNK_TOKEN_ID = 0


class DataError(ValueError):
    """Malformed input files or violated dataset invariants."""


@dataclass(frozen=True)
class Interaction:
    user_id: str
    item_id: str
    rating: float | None
    timestamp: int
    feedback_kind: str

    def __post_init__(self):
        if self.timestamp < 0:
            raise DataError(f"negative timestamp for {self.user_id}/{self.item_id}")
        if (self.rating is None) != (self.feedback_kind == IMPLICIT):
            raise DataError("rating must be present iff feedback is explicit")
        if self.rating is not None and not (0.0 <= self.rating <= 5.0):
            raise DataError(f"rating {self.rating} outside [0,5]")


@dataclass
class ItemRecord:
    item_id: str
    title: str
    description_tokens: list[int]
    categories: frozenset[str]
    numeric_features: np.ndarray
    popularity_count: int = 0


@dataclass
class UserRecord:
    user_id: str
    history: list[str] = field(default_factory=list)  # train item ids, split order
    group_label: str = "g0"
    profile_features: np.ndarray = field(default_factory=lambda: np.zeros(1))


@dataclass
class TemporalSplit:
    train: list[int]
    validation: list[int]
    test: list[int]
    user_train: dict[str, list[int]]  # each user's train indices, in order
    user_test: dict[str, int]         # each user's held-out index
    dropped_users: int = 0


def tokenize(text: str, vocab: dict[str, int]) -> list[int]:
    """Whitespace-split, lowercase; unknown words map to token id 0."""
    return [vocab.get(w, UNK_TOKEN_ID) for w in text.lower().split()]


def build_vocab(texts: list[str], max_size: int = 4096) -> dict[str, int]:
    """Frequency-ordered vocabulary; id 0 is reserved for unknown words."""
    counts: dict[str, int] = {}
    for t in texts:
        for w in t.lower().split():
            counts[w] = counts.get(w, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {w: i + 1 for i, (w, _) in enumerate(ordered[: max_size - 1])}


def assign_group(user_id: str, n_groups: int) -> str:
    """Deterministic hash of user_id into one of n_groups labels."""
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return f"g{int.from_bytes(digest[:4], 'little') % n_groups}"


def parse_interactions(path: str) -> list[Interaction]:
    """Parse the TSV interaction log, preserving input order.

    Raises DataError naming the line number for malformed rows, and for
    duplicate (user, item, timestamp) triples.
    """
    out: list[Interaction] = []
    seen: set[tuple[str, str, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise DataError(f"{path}: missing header line")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            user, item, rating_s, ts_s = (p.strip() for p in parts)
            try:
                ts = int(ts_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad timestamp {ts_s!r}") from None
            if rating_s == "-":
                rating, kind = None, IMPLICIT
            else:
                try:
                    rating = float(rating_s)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad rating {rating_s!r}") from None
                kind = EXPLICIT
            key = (user, item, ts)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate interaction {key}")
            seen.add(key)
            try:
                out.append(Interaction(user, item, rating, ts, kind))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return out


def parse_items(path: str, vocab: dict[str, int]) -> dict[str, ItemRecord]:
    items: dict[str, ItemRecord] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}:{lineno}: invalid JSON") from None
            numeric = np.asarray(obj.get("numeric", []), dtype=np.float64)
            if dim is None:
                dim = numeric.size
            elif numeric.size != dim:
                raise DataError(
                    f"{path}:{lineno}: numeric dim {numeric.size} != {dim}"
                )
            items[obj["item_id"]] = ItemRecord(
                item_id=obj["item_id"],
                title=obj.get("title", ""),
                description_tokens=tokenize(obj.get("description", ""), vocab),
                categories=frozenset(obj.get("categories", [])),
                numeric_features=numeric,
            )
    return items


def parse_users(path: str, n_groups: int = 2) -> dict[str, UserRecord]:
    users: dict[str, UserRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}:{lineno}: invalid JSON") from None
            uid = obj["user_id"]
            group = obj.get("group") or assign_group(uid, n_groups)
            users[uid] = UserRecord(
                user_id=uid,
                group_label=group,
                profile_features=np.asarray(obj.get("profile", [0.0]), dtype=np.float64),
            )
    return users


def build_temporal_split(
    interactions: list[Interaction], train_fraction: float
) -> TemporalSplit:
    """Per-user temporal split: earliest ceil(f*n) train, last one test,
    remainder validation. A user's interactions are ordered by timestamp,
    ties in input order. Users with fewer than 3 interactions are dropped.
    """
    if not (0.0 < train_fraction < 1.0):
        raise DataError(f"train_fraction {train_fraction} outside (0,1)")
    by_user: dict[str, list[int]] = {}
    for idx, it in enumerate(interactions):
        by_user.setdefault(it.user_id, []).append(idx)
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    user_train: dict[str, list[int]] = {}
    user_test: dict[str, int] = {}
    dropped = 0
    for user in sorted(by_user):
        idxs = sorted(by_user[user], key=lambda i: (interactions[i].timestamp, i))
        n = len(idxs)
        if n < 3:
            dropped += 1
            continue
        n_train = min(math.ceil(train_fraction * n), n - 1)
        user_train[user] = idxs[:n_train]
        user_test[user] = idxs[-1]
        train.extend(idxs[:n_train])
        test.append(idxs[-1])
        val.extend(idxs[n_train:-1])
    if dropped:
        log.info("dropped %d users with < 3 interactions", dropped)
    return TemporalSplit(train=train, validation=val, test=test,
                         user_train=user_train, user_test=user_test,
                         dropped_users=dropped)


def popularity_table(
    interactions: list[Interaction],
) -> tuple[dict[str, int], dict[str, float]]:
    """Per-item interaction counts and empirical frequencies."""
    counts: dict[str, int] = {}
    for it in interactions:
        counts[it.item_id] = counts.get(it.item_id, 0) + 1
    total = sum(counts.values())
    freqs = {k: v / total for k, v in counts.items()} if total else {}
    return counts, freqs


@dataclass
class Dataset:
    """Immutable bundle of everything downstream modules need."""

    interactions: list[Interaction]
    items: dict[str, ItemRecord]
    users: dict[str, UserRecord]
    split: TemporalSplit
    vocab: dict[str, int]
    popularity: dict[str, int]
    pop_freq: dict[str, float]
    item_ids: list[str]          # stable catalog order
    item_index: dict[str, int]   # item_id -> catalog position
    category_vocab: dict[str, int]
    last_train_timestamp: int            # latest train timestamp (0 if none)
    item_last_timestamps: dict[str, int]  # item_id -> its latest train timestamp

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def train_interactions(self) -> list[Interaction]:
        return [self.interactions[i] for i in self.split.train]

    def user_train_history(self, user_id: str) -> list[Interaction]:
        """The user's train interactions in split order."""
        return [self.interactions[i] for i in self.split.user_train.get(user_id, [])]

    def test_target(self, user_id: str) -> Interaction | None:
        i = self.split.user_test.get(user_id)
        return None if i is None else self.interactions[i]


def build_dataset(
    interactions: list[Interaction],
    items: dict[str, ItemRecord],
    users: dict[str, UserRecord],
    vocab: dict[str, int],
    train_fraction: float = 0.8,
    n_groups: int = 2,
) -> Dataset:
    """Assemble the dataset: split, popularity, histories, group labels."""
    known = [it for it in interactions if it.item_id in items]
    if len(known) != len(interactions):
        log.info("dropped %d interactions with unknown items", len(interactions) - len(known))
    split = build_temporal_split(known, train_fraction)
    train = [known[i] for i in split.train]
    counts, freqs = popularity_table(train)
    for item in items.values():
        item.popularity_count = counts.get(item.item_id, 0)
    item_last: dict[str, int] = {}
    for it in train:
        item_last[it.item_id] = max(item_last.get(it.item_id, 0), it.timestamp)

    for it in known:
        if it.user_id not in users:
            users[it.user_id] = UserRecord(
                user_id=it.user_id, group_label=assign_group(it.user_id, n_groups)
            )
    for uid, user in users.items():
        user.history = [known[i].item_id for i in split.user_train.get(uid, [])]

    item_ids = sorted(items)
    cat_vocab = {
        c: i
        for i, c in enumerate(sorted({c for it in items.values() for c in it.categories}))
    }
    return Dataset(
        interactions=known,
        items=items,
        users=users,
        split=split,
        vocab=vocab,
        popularity=counts,
        pop_freq=freqs,
        item_ids=item_ids,
        item_index={iid: i for i, iid in enumerate(item_ids)},
        category_vocab=cat_vocab,
        last_train_timestamp=max((it.timestamp for it in train), default=0),
        item_last_timestamps=item_last,
    )


def load_dataset(
    interactions_path: str,
    items_path: str,
    users_path: str | None = None,
    train_fraction: float = 0.8,
    n_groups: int = 2,
    vocab_size: int = 4096,
) -> Dataset:
    """Load from files. Vocabulary is built from item descriptions only."""
    interactions = parse_interactions(interactions_path)
    # First pass with empty vocab just to read raw descriptions.
    raw_texts = []
    with open(items_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw_texts.append(json.loads(line).get("description", ""))
            except json.JSONDecodeError:
                raise DataError(f"{items_path}:{lineno}: invalid JSON") from None
    vocab = build_vocab(raw_texts, max_size=vocab_size)
    items = parse_items(items_path, vocab)
    users = parse_users(users_path, n_groups) if users_path else {}
    return build_dataset(interactions, items, users, vocab, train_fraction, n_groups)
