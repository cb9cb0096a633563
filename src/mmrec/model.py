"""The composed model: multimodal encoders + fusion feeding the generation
head, with feature extraction from dataset records and hand-derived
backprop through the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import generator as gen
from . import multimodal as mm
from .dataset import Dataset, ItemRecord, UserRecord
from .debias import init_adversary
from .numerics import init_matrix, make_rng
from .retrieval import RetrievalIndex, build_index, index_source


@dataclass
class ModelConfig:
    d: int = 16
    d_k: int = 8
    max_tokens: int = 64
    n_blocks: int = 2
    max_seq: int = 48
    vocab_size: int = 256
    n_categories: int = 16
    numeric_dim: int = 4
    user_numeric_dim: int = 4
    n_items: int = 100
    n_groups: int = 2
    n_aspects: int = 16
    history_text_items: int = 4   # recent items whose text feeds the user encoder
    history_cat_items: int = 8


@dataclass
class FeatureFlags:
    fusion: bool = True
    retrieval: bool = True
    debias: bool = True
    explain: bool = True
    adaptive: bool = True

    def as_dict(self) -> dict:
        return {
            "fusion": self.fusion, "retrieval": self.retrieval,
            "debias": self.debias, "explain": self.explain,
            "adaptive": self.adaptive,
        }


def config_from_dataset(ds: Dataset, d: int = 16, d_k: int = 8,
                        n_blocks: int = 2, max_seq: int = 48,
                        max_tokens: int = 64, n_aspects: int = 16) -> ModelConfig:
    profile_dims = [u.profile_features.size for u in ds.users.values()] or [1]
    numeric_dims = [it.numeric_features.size for it in ds.items.values()] or [1]
    return ModelConfig(
        d=d, d_k=d_k, max_tokens=max_tokens, n_blocks=n_blocks, max_seq=max_seq,
        vocab_size=max(len(ds.vocab) + 1, 2),
        n_categories=max(len(ds.category_vocab), 1),
        numeric_dim=max(numeric_dims[0], 1),
        user_numeric_dim=max(max(profile_dims), 1),
        n_items=ds.n_items,
        n_groups=max(len({u.group_label for u in ds.users.values()}), 2),
        n_aspects=n_aspects,
    )


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params = mm.init_encoder_params(
        rng, cfg.vocab_size, cfg.n_categories, cfg.numeric_dim,
        cfg.user_numeric_dim, cfg.d, cfg.d_k, cfg.max_tokens,
    )
    params.update(gen.init_generator_params(
        rng, cfg.n_items, cfg.d, cfg.d_k, cfg.n_blocks, cfg.max_seq,
    ))
    params["pref.w"] = init_matrix(rng, (cfg.d, cfg.n_aspects))
    params["pref.b"] = np.zeros(cfg.n_aspects)
    # draws of the removed context-attention tensors (time-of-day, trend,
    # key, value), discarded so that the adversary drawn next from the same
    # generator keeps its initial value
    for shape in ((8, cfg.d), (4, cfg.d), (cfg.d, cfg.d), (cfg.d, cfg.d)):
        init_matrix(rng, shape)
    return params


def item_inputs(rec: ItemRecord, cat_vocab: dict[str, int], cfg: ModelConfig) -> dict:
    return {
        "text": rec.description_tokens[: cfg.max_tokens],
        "cat": sorted(cat_vocab[c] for c in rec.categories if c in cat_vocab),
        "num": _fit_dim(rec.numeric_features, cfg.numeric_dim),
        "num_prefix": "num",
    }


def user_inputs(
    user: UserRecord,
    history_ids: list[str],
    ds: Dataset,
    cfg: ModelConfig,
) -> dict:
    tokens: list[int] = []
    for iid in history_ids[-cfg.history_text_items:]:
        tokens.extend(ds.items[iid].description_tokens)
    cats: set[int] = set()
    for iid in history_ids[-cfg.history_cat_items:]:
        for c in ds.items[iid].categories:
            if c in ds.category_vocab:
                cats.add(ds.category_vocab[c])
    return {
        "text": tokens[: cfg.max_tokens],
        "cat": sorted(cats),
        "num": _fit_dim(user.profile_features, cfg.user_numeric_dim),
        "num_prefix": "unum",
    }


def _fit_dim(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == dim:
        return x
    out = np.zeros(dim)
    out[: min(dim, x.size)] = x[:dim]
    return out


# item encoder tensors: the item table is current while these are unchanged
ITEM_ENCODER_PREFIXES = ("text.", "cat.", "num.", "xm.", "fus.")


@dataclass
class ItemTable:
    """The catalog as one snapshot of the item encoders sees it: the fused
    embedding of every item (rows in ``ds.item_ids`` order) and the
    retrieval index over them. It holds copies of the encoder tensors it
    was built from, so any later change to them, in place or by replacing
    ``Model.params``, is seen."""
    embeddings: np.ndarray
    index: RetrievalIndex
    ds: Dataset
    fusion: bool
    encoder: dict[str, np.ndarray]

    def rows(self, item_ids: list[str]) -> np.ndarray:
        """The embeddings of ``item_ids``, one row each."""
        return self.embeddings[[self.ds.item_index[i] for i in item_ids]]

    def is_current(self, ds: Dataset, fusion: bool, params: dict) -> bool:
        return (ds is self.ds and fusion == self.fusion
                and all(np.array_equal(v, params[k]) for k, v in self.encoder.items()))


@dataclass
class ExampleResult:
    loss: float
    forward: gen.ForwardResult
    mm_cache: dict = field(repr=False, default_factory=dict)
    h_user: np.ndarray | None = None


class Model:
    """Parameter container plus composed forward/backward passes."""

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict | None = None, adv: dict | None = None):
        self.cfg = cfg
        rng = make_rng(seed)
        self.params = params if params is not None else init_params(cfg, rng)
        # the adversary reads the fused user representation
        self.adv = adv if adv is not None else init_adversary(rng, cfg.d, cfg.n_groups)
        self._table: ItemTable | None = None

    # ------------------------------------------------------------ encoding

    def encode_user(self, user: UserRecord, history_ids: list[str],
                    ds: Dataset, flags: FeatureFlags):
        inputs = user_inputs(user, history_ids, ds, self.cfg)
        return mm.multimodal_forward(inputs, self.params, fusion_on=flags.fusion)

    def encode_item(self, rec: ItemRecord, ds: Dataset, flags: FeatureFlags):
        inputs = item_inputs(rec, ds.category_vocab, self.cfg)
        return mm.multimodal_forward(inputs, self.params, fusion_on=flags.fusion)

    def item_embeddings(self, ds: Dataset, flags: FeatureFlags) -> np.ndarray:
        """Fused content embedding of every catalog item (rows in
        ``ds.item_ids`` order) from one batched encode of the current
        parameters, equal bit for bit to ``encode_item`` per item. Not
        cached: readers use :meth:`item_table`."""
        batch = ds.derived(("item_batch", self.cfg.max_tokens, self.cfg.numeric_dim),
                           lambda: mm.batch_inputs([
                               item_inputs(ds.items[i], ds.category_vocab, self.cfg)
                               for i in ds.item_ids]))
        return mm.encode_items(batch, self.params, fusion_on=flags.fusion)

    def item_table(self, ds: Dataset, flags: FeatureFlags) -> ItemTable:
        """The :class:`ItemTable` of the current parameters, built on the
        first read after any change to the item encoders."""
        table = self._table
        if table is None or not table.is_current(ds, flags.fusion, self.params):
            embeddings = self.item_embeddings(ds, flags)
            source = ds.derived("index_source", lambda: index_source(
                ds.items, ds.item_ids, ds.item_last_timestamps, ds.popularity))
            table = self._table = ItemTable(
                embeddings=embeddings, index=build_index(source, embeddings),
                ds=ds, fusion=flags.fusion,
                encoder={k: v.copy() for k, v in self.params.items()
                         if k.startswith(ITEM_ENCODER_PREFIXES)},
            )
        return table

    # ------------------------------------------------------------ training

    def example_nll(
        self,
        user: UserRecord,
        history_ids: list[str],
        target_idx: int,
        ds: Dataset,
        flags: FeatureFlags,
        context_embeddings: list[np.ndarray] | None = None,
        grads: dict | None = None,
        weight: float = 1.0,
        user_state: tuple | None = None,
    ) -> ExampleResult:
        """Sequence NLL of the target item for one example.

        When ``grads`` is given, accumulates weight * d(NLL)/d(theta) for
        every parameter through the generator, fusion, and encoders.
        ``user_state`` lets callers reuse a precomputed (h_user, cache)
        pair (e.g. when retrieval already needed the query vector).
        """
        if user_state is None:
            h_user, mcache = self.encode_user(user, history_ids, ds, flags)
        else:
            h_user, mcache = user_state
        request = gen.GenerationRequest(
            h_user=h_user,
            context_embeddings=list(context_embeddings or []),
            history=[ds.item_index[i] for i in history_ids],
        )
        fr = gen.generator_forward(request, self.params)
        loss, dlogits = gen.nll_dlogits(fr, target_idx)
        if grads is not None:
            d_h_user = gen.generator_backward(fr, weight * dlogits, self.params, grads)
            mm.multimodal_backward(d_h_user, mcache, self.params, grads)
        return ExampleResult(loss=loss, forward=fr, mm_cache=mcache, h_user=h_user)

    def example_rating_loss(
        self,
        user_state: tuple,
        history_ids: list[str],
        rating: float,
        ds: Dataset,
        grads: dict | None = None,
        weight: float = 1.0,
    ) -> float:
        """Squared-error rating loss at the target position (explicit head).

        ``user_state`` is the (h_user, cache) pair of ``encode_user`` for
        this history; the generator runs without retrieved context.
        """
        h_user, mcache = user_state
        request = gen.GenerationRequest(
            h_user=h_user,
            history=[ds.item_index[i] for i in history_ids],
        )
        fr = gen.generator_forward(request, self.params)
        if grads is None:
            pred = gen.rating_prediction(fr, self.params)
            return (pred - rating) ** 2
        scratch = self.zero_grads()
        loss, d_h_user = gen.rating_loss(fr, rating, self.params, scratch)
        for k, v in scratch.items():
            grads[k] += weight * v
        mm.multimodal_backward(weight * d_h_user, mcache, self.params, grads)
        return loss

    # ----------------------------------------------------------- inference

    def predict_rating(
        self,
        user: UserRecord,
        history_ids: list[str],
        ds: Dataset,
        flags: FeatureFlags,
    ) -> float:
        """Predicted explicit rating from the user's current state."""
        h_user, _ = self.encode_user(user, history_ids, ds, flags)
        request = gen.GenerationRequest(
            h_user=h_user,
            history=[ds.item_index[i] for i in history_ids],
        )
        fr = gen.generator_forward(request, self.params)
        return float(gen.rating_prediction(fr, self.params))

    def recommend(
        self,
        h_user: np.ndarray,
        history_ids: list[str],
        ds: Dataset,
        n: int,
        context_embeddings: list[np.ndarray] | None = None,
    ) -> list[tuple[str, float]]:
        """Top-``n`` catalog items for the user encoding ``h_user``, never
        one from ``history_ids``."""
        exclude = {ds.item_index[i] for i in history_ids if i in ds.item_index}
        request = gen.GenerationRequest(
            h_user=h_user,
            context_embeddings=list(context_embeddings or []),
            history=[ds.item_index[i] for i in history_ids],
            exclude=exclude,
            n=n,
        )
        ranked = gen.recommend_top_n(request, self.params)
        return [(ds.item_ids[i], s) for i, s in ranked]

    def zero_grads(self) -> dict[str, np.ndarray]:
        return mm.zero_grads(self.params)


def flatten(params: dict[str, np.ndarray], names: list[str] | None = None):
    """Flatten a param dict to (vector, names) in sorted-name order."""
    if names is None:
        names = sorted(params)
    vec = np.concatenate([params[n].ravel() for n in names])
    return vec, names


def unflatten(vec: np.ndarray, template: dict[str, np.ndarray],
              names: list[str]) -> dict[str, np.ndarray]:
    """Inverse of :func:`flatten`. The arrays are views into one private
    copy of ``vec``, so writing to them never changes ``vec``."""
    vec = np.array(vec, dtype=np.float64)
    out = {}
    pos = 0
    for n in names:
        size = template[n].size
        out[n] = vec[pos : pos + size].reshape(template[n].shape)
        pos += size
    return out
