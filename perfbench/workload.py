"""The benchmark's workloads and the inputs they are made of.

Both workloads run one life cycle in one process. The offline phase trains
a model on the 200-user planted population with every feature flag on and
evaluates it; the model is saved. The service phase loads the 2000-user
population and the checkpoint, then answers rounds of one read
(``recommend_payload``) and one write (``online_update``). In ``serve`` the
writes go to a shadow copy of the model, so every read sees one snapshot;
in ``feedback`` they go to the served model, so every read follows a write.
See README.md for why.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

# the planted population of tests/test_acceptance.py::test_end_to_end_learning;
# with the same synth seed, every population size shares its catalog
POPULATION = dict(n_items=500, n_categories=10, interactions_per_user=20,
                  cats_per_user=1, preference_strength=0.95, zipf_s=0.5,
                  seed=0)
TRAIN_USERS = 200
SERVE_USERS = 2000

# the model and training settings of test_end_to_end_learning, every
# feature flag on (retrieval k=2, IPS, adversary, rating head, adaptive
# steps, explanation head)
CONFIG = dict(d=16, d_k=8, n_blocks=1, max_seq=24, max_tokens=8,
              batch_size=8, seed=0, retrieval_k=2, n_aspects=10, eta0=0.1,
              propensity_clip=0.1)
EWC_LAMBDA = 1.0
FISHER_EXAMPLES = 64
N_RECS = 10
# the tail rule: at least ten reads and ten writes beyond the 90th percentile
MIN_ROUNDS = 100
EVAL_ROUNDS = 3           # evaluate calls per run; the median call is reported
FRESHNESS_EVERY = 20      # every n-th read is compared with a fresh model
RETRIEVAL_SAMPLE = 10     # queries checked against the retrieval oracle
EPOCHS = 1
MAX_PREFIXES = 4          # 800 training examples


@dataclass(frozen=True)
class Workload:
    name: str
    writes_to_served: bool   # False: writes go to a shadow copy of the model


WORKLOADS = {
    "serve": Workload("serve", writes_to_served=False),
    "feedback": Workload("feedback", writes_to_served=True),
}


def config_dict() -> dict:
    return dict(CONFIG, epochs=EPOCHS, max_prefixes_per_user=MAX_PREFIXES)


def population_files(root: str, n_users: int) -> dict[str, str]:
    """Files of the planted population of ``n_users`` users, written with
    synth once per checkout and reused: the population does not depend on
    the workload seed, and building the 2000-user one takes seconds."""
    from mmrec import synth

    here = os.path.dirname(os.path.abspath(synth.__file__))
    key = hashlib.sha256(json.dumps([POPULATION, n_users]).encode())
    for name in ("synth.py", "dataset.py"):
        with open(os.path.join(here, name), "rb") as fh:
            key.update(fh.read())
    target = os.path.join(root, f"pop-{n_users}-{key.hexdigest()[:12]}")
    files = {k: os.path.join(target, f"{k}.{ext}") for k, ext in
             (("interactions", "tsv"), ("items", "jsonl"), ("users", "jsonl"))}
    if not os.path.isdir(target):
        os.makedirs(root, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=root, prefix=".pop-")
        try:
            ds = synth.planted_categories(n_users=n_users, **POPULATION)
            synth.write_dataset_files(ds, tmp)
            try:
                os.rename(tmp, target)
            except OSError:     # another run finished the same files first
                pass
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return files


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def request_users(seed: int, user_ids: list[str]):
    """Endless seeded stream of request users, drawn uniformly with
    replacement: no request skew is assumed."""
    rng = _stream_rng(seed, 1)
    while True:
        for i in rng.integers(len(user_ids), size=256):
            yield user_ids[int(i)]


def feedback_events(seed: int, ds):
    """Endless seeded stream of feedback events: the population's held-out
    (validation and test) interactions, as synth generated them, replayed in
    a seeded order. Kind and rating are the logged ones, so the explicit
    share and the ratings follow the planted preferences."""
    rng = _stream_rng(seed, 2)
    held_out = sorted(ds.split.validation + ds.split.test)
    while True:
        for j in rng.permutation(len(held_out)):
            it = ds.interactions[held_out[int(j)]]
            event = {"user": it.user_id, "item": it.item_id,
                     "kind": it.feedback_kind, "timestamp": it.timestamp}
            if it.rating is not None:
                event["value"] = it.rating
            yield event
