"""Spans around the calls into mmrec's layers, recorded from outside the
program.

A :class:`Tracer` replaces each traced public function with a wrapper under
every name a caller looks it up by (``mmrec.harness.retrieve_top_k`` as well
as ``mmrec.retrieval.retrieve_top_k``; methods on their class). A wrapper
records one span (name, start, end, parent) in memory. :func:`layer_metrics`
turns the spans of one run into the per-layer metrics.
Per-entry helpers such as ``numerics.cosine`` are deliberately not wrapped:
they run hundreds of thousands of times per epoch.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, class or None, function): the traced public functions, one layer
# per module. The span name is "<module>.<function>".
TARGETS = [
    ("retrieval", None, "retrieve_top_k"),
    ("retrieval", None, "build_index"),
    ("model", "Model", "encode_item"),
    ("model", "Model", "encode_user"),
    ("model", "Model", "item_embeddings"),
    ("model", "Model", "example_nll"),
    ("model", "Model", "example_rating_loss"),
    ("model", "Model", "recommend"),
    ("multimodal", None, "multimodal_forward"),
    ("multimodal", None, "multimodal_backward"),
    ("generator", None, "generator_forward"),
    ("generator", None, "generator_backward"),
    ("generator", None, "recommend_top_n"),
    ("adaptive", None, "selective_step"),
    ("adaptive", None, "ewc_penalty"),
    ("adaptive", None, "estimate_fisher"),
    ("debias", None, "fit_propensity"),
    ("debias", None, "estimate_propensity"),
    ("debias", None, "adversary_loss"),
    ("explain", None, "explain_recommendation"),
    ("metrics", None, "hr_at_k"),
    ("metrics", None, "ndcg_at_k"),
    ("metrics", None, "mrr"),
    ("metrics", None, "intra_list_diversity"),
    ("metrics", None, "coverage_at_100"),
    ("metrics", None, "novelty"),
    ("metrics", None, "fairness_score"),
    ("metrics", None, "random_baseline_lists"),
    ("metrics", None, "popularity_baseline_lists"),
    ("dataset", None, "load_dataset"),
    ("dataset", None, "build_dataset"),
    ("dataset", "Dataset", "user_train_history"),
    ("dataset", "Dataset", "test_target"),
    ("checkpoint", None, "load"),
    ("checkpoint", None, "save"),
    ("harness", None, "train"),
    ("harness", None, "evaluate"),
    ("harness", None, "recommend_payload"),
    ("harness", None, "online_update"),
    ("harness", None, "fisher_from_dataset"),
    ("harness", None, "model_from_checkpoint"),
    ("harness", None, "build_examples"),
    ("harness", None, "build_retrieval_index"),
    ("harness", None, "fit_dataset_propensity"),
    ("harness", None, "fit_preference_head"),
]

# modules whose namespaces may hold a traced function under an imported name
SCANNED = ["harness", "model", "retrieval", "generator", "multimodal",
           "adaptive", "debias", "explain", "metrics", "dataset", "checkpoint"]

REQUEST = "harness.recommend_payload"
UPDATE = "harness.online_update"

# Per-layer metrics, in BENCHMARK.json order: (name, unit, better). Counts
# and self times come from the spans; the rest are derived below.
PER_LAYER = [
    ("retrieval.retrieve_top_k.calls", "count", "lower"),
    ("retrieval.retrieve_top_k.self_s", "s", "lower"),
    ("retrieval.entries_scored", "count", "lower"),
    ("retrieval.build_index.calls", "count", "lower"),
    ("retrieval.build_index.self_s", "s", "lower"),
    ("model.encode_item.calls", "count", "lower"),
    ("model.encode_item.self_s", "s", "lower"),
    ("model.items_encoded_per_request", "items/request", "lower"),
    ("model.item_embeddings.calls", "count", "lower"),
    ("model.item_embeddings.self_s", "s", "lower"),
    ("model.encode_user.calls", "count", "lower"),
    ("model.example_nll.calls", "count", "lower"),
    ("model.example_rating_loss.calls", "count", "lower"),
    ("multimodal.multimodal_forward.calls", "count", "lower"),
    ("multimodal.multimodal_forward.self_s", "s", "lower"),
    ("multimodal.multimodal_backward.calls", "count", "lower"),
    ("multimodal.multimodal_backward.self_s", "s", "lower"),
    ("generator.generator_forward.calls", "count", "lower"),
    ("generator.generator_forward.self_s", "s", "lower"),
    ("generator.generator_backward.calls", "count", "lower"),
    ("generator.generator_backward.self_s", "s", "lower"),
    ("generator.recommend_top_n.self_s", "s", "lower"),
    ("generator.forwards_per_update", "forwards/event", "lower"),
    ("adaptive.selective_step.calls", "count", "lower"),
    ("adaptive.selective_step.self_s", "s", "lower"),
    ("adaptive.ewc_penalty.calls", "count", "lower"),
    ("adaptive.ewc_penalty.self_s", "s", "lower"),
    ("adaptive.updated_fraction_mean", "ratio", "higher"),
    ("debias.fit_propensity.self_s", "s", "lower"),
    ("debias.estimate_propensity.calls", "count", "lower"),
    ("debias.adversary_loss.calls", "count", "lower"),
    ("debias.adversary_loss.self_s", "s", "lower"),
    ("explain.explain_recommendation.calls", "count", "lower"),
    ("explain.explain_recommendation.self_s", "s", "lower"),
    ("metrics.intra_list_diversity.self_s", "s", "lower"),
    ("metrics.hr_at_k.self_s", "s", "lower"),
    ("metrics.ndcg_at_k.self_s", "s", "lower"),
    ("metrics.mrr.self_s", "s", "lower"),
    ("metrics.coverage_at_100.self_s", "s", "lower"),
    ("metrics.novelty.self_s", "s", "lower"),
    ("metrics.fairness_score.self_s", "s", "lower"),
    ("metrics.random_baseline_lists.self_s", "s", "lower"),
    ("metrics.popularity_baseline_lists.self_s", "s", "lower"),
    ("dataset.load_dataset.self_s", "s", "lower"),
    ("dataset.build_dataset.self_s", "s", "lower"),
    ("dataset.user_train_history.calls", "count", "lower"),
    ("dataset.user_train_history.self_s", "s", "lower"),
    ("dataset.test_target.calls", "count", "lower"),
    ("dataset.test_target.self_s", "s", "lower"),
    ("harness.build_examples.self_s", "s", "lower"),
    ("harness.fit_preference_head.self_s", "s", "lower"),
    ("harness.train.self_s", "s", "lower"),
    ("harness.evaluate.self_s", "s", "lower"),
    ("harness.recommend_payload.self_s", "s", "lower"),
    ("harness.online_update.self_s", "s", "lower"),
    ("checkpoint.load.self_s", "s", "lower"),
    ("checkpoint.save.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_est_s", "s", "lower"),
    ("traced.setup_s", "s", "lower"),
    ("traced.train_examples_per_s", "examples/s", "higher"),
    ("traced.eval_users_per_s", "users/s", "higher"),
    ("traced.recommend_p50_ms", "ms", "lower"),
    ("traced.update_p50_ms", "ms", "lower"),
]


class Tracer:
    """In-memory span recorder; install() wraps the targets, uninstall()
    restores the originals."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.entries_scored = 0
        self.updated_fractions: list[float] = []
        self._stack: list[int] = []
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "retrieval.retrieve_top_k":
                self.entries_scored += len(args[1])
            elif name == "adaptive.selective_step":
                self.updated_fractions.append(float(result))
            return result

        return traced

    def install(self) -> None:
        scanned = [importlib.import_module(f"mmrec.{m}") for m in SCANNED]
        for module_name, class_name, attr in TARGETS:
            owner = importlib.import_module(f"mmrec.{module_name}")
            if class_name is not None:
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
            wrapped = self.wrap(f"{module_name}.{attr}", fn)
            if class_name is not None:
                self._patch(owner, attr, wrapped)
                continue
            for mod in scanned:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def export(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "entries_scored": self.entries_scored,
            "updated_fractions": self.updated_fractions,
        }

    def overhead_per_span(self, n: int = 20000) -> float:
        """Seconds a wrapper adds to one call, timed on a no-op."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Spans come
    from one thread, so children nest inside their parent and do not
    overlap; their covered time is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def operation_of(spans: list[list], roots: tuple[str, ...]) -> list[int]:
    """Index of the nearest enclosing span named in ``roots`` (the span
    itself included), or -1. Parents always precede their children."""
    out = [-1] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        out[i] = i if name in roots else (out[parent] if parent >= 0 else -1)
    return out


def layer_metrics(export: dict) -> dict[str, float]:
    """Per-layer counts, self times and ratios over the exported spans of
    one run (the traced end-to-end figures and the overhead estimate are
    added by the caller)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    encodes_in_requests = requests = forwards_in_updates = updates = 0
    spans = [[export["names"][c], s, e, p] for c, s, e, p in export["spans"]]
    for (name, *_), st in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
    ops = operation_of(spans, (REQUEST, UPDATE))
    for (name, *_), op in zip(spans, ops):
        root = spans[op][0] if op >= 0 else None
        if name == REQUEST:
            requests += 1
        elif name == UPDATE:
            updates += 1
        elif name == "model.encode_item" and root == REQUEST:
            encodes_in_requests += 1
        elif name == "generator.generator_forward" and root == UPDATE:
            forwards_in_updates += 1
    fractions = export["updated_fractions"]

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(base, 0.0)
    out["retrieval.entries_scored"] = export["entries_scored"]
    out["model.items_encoded_per_request"] = (
        encodes_in_requests / requests if requests else 0.0)
    out["generator.forwards_per_update"] = (
        forwards_in_updates / updates if updates else 0.0)
    out["adaptive.updated_fraction_mean"] = (
        sum(fractions) / len(fractions) if fractions else 0.0)
    out["trace.spans"] = len(spans)
    return out
