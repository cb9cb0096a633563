"""The benchmark reads mmrec from outside: its per-layer trace wraps public
functions by name (``perfbench/tracing.py``'s ``TARGETS``), and its
retrieval check reads the entries of ``harness.build_retrieval_index``
(``perfbench/checks.py``). A change to either breaks only
``perfbench/run.py``, so these tests load the benchmark's modules by path
and check both here, and run the benchmark itself once per workload at its
shortest length."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from mmrec import harness, retrieval, synth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _perfbench("tracing")
    assert tracing.TARGETS
    missing = []
    for module_name, class_name, attr in tracing.TARGETS:
        owner = importlib.import_module(f"mmrec.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert not missing, f"trace targets missing from mmrec: {missing}"
    for module_name in tracing.SCANNED:
        importlib.import_module(f"mmrec.{module_name}")


def test_retrieval_matches_benchmark_oracle():
    # the benchmark's check, for every user of a tiny trained model
    checks = _perfbench("checks")
    ds = synth.planted_categories(n_users=12, n_items=40, n_categories=4,
                                  interactions_per_user=8, seed=7)
    cfg = harness.ExperimentConfig(d=8, d_k=4, n_blocks=1, max_seq=16,
                                   max_tokens=8, epochs=1, seed=5,
                                   retrieval_k=3, n_aspects=4)
    ckpt, _ = harness.train(cfg, ds)
    model = harness.model_from_checkpoint(ckpt, cfg, ds)
    flags = cfg.feature_flags()
    rconf = cfg.retrieval_config()
    index = harness.build_retrieval_index(model, ds, flags)
    entries = [(e.entry_id, e.embedding, e.timestamp, e.credibility) for e in index]
    assert len(entries) > rconf.k
    t_now = max(ds.interactions[i].timestamp for i in ds.split.train)
    for uid in sorted(ds.users):
        user = ds.users[uid]
        query = model.encode_user(user, user.history, ds, flags)[0]
        got = retrieval.retrieve_top_k(query, index, rconf, t_now)
        oracle = checks.oracle_ranking(
            query, entries, rconf.lambda_sim, rconf.lambda_temporal,
            rconf.lambda_credibility, rconf.sigma, t_now)
        why = checks.retrieval_mismatch([e.entry_id for e, _ in got.entries],
                                        oracle, rconf.k)
        assert why is None, f"{uid}: {why}"


@pytest.mark.parametrize("workload,trace", [("serve", "1"), ("feedback", "0")])
def test_benchmark_run_is_correct(workload, trace):
    # one run at its minimum of rounds; populations and traces go to the
    # git-ignored perfbench/out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0, proc.stderr[-3000:]
