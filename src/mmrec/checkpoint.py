"""Binary checkpoint persistence.

Format: magic ``MMRC``, u32 format version, u64 header length, JSON header
(tensor manifest per section, provenance), then raw little-endian float64
tensor payloads in manifest order, each length-prefixed with a u64.
Round-trips are bit-exact.

Version 2 stopped storing the cross-modal query/key tensors
(``xm.*.q``/``xm.*.k``), which version 1 carried although they could not
reach any output. Version 3 stops storing the context-attention tensors
(``ctx.time_emb``, ``ctx.trend_emb``, ``ctx.wk``, ``ctx.wv``): no loss
reached them and no request carried a context, and the contextual
explanation that read them is gone. Loading a file of any other version
raises :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .adaptive import EwcState, OptimizerState

MAGIC = b"MMRC"
FORMAT_VERSION = 3

SECTIONS = ("params", "adv", "momentum", "fisher", "anchor")
OPT_FIELDS = ("gamma_m", "eta0", "lambda_u", "tau_sel", "step_count")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    adv: dict[str, np.ndarray]
    opt_state: OptimizerState
    ewc: EwcState | None = None
    config_hash: str = ""
    dataset_id: str = ""
    seed: int = 0
    step: int = 0
    extra: dict = field(default_factory=dict)


def _sections(ckpt: Checkpoint) -> dict[str, dict[str, np.ndarray]]:
    return {
        "params": ckpt.params,
        "adv": ckpt.adv,
        "momentum": ckpt.opt_state.momentum,
        "fisher": ckpt.ewc.fisher if ckpt.ewc else {},
        "anchor": ckpt.ewc.anchor if ckpt.ewc else {},
    }


def save(ckpt: Checkpoint, path: str) -> None:
    sections = _sections(ckpt)
    manifest = {
        s: [{"name": n, "shape": list(t[n].shape)} for n in sorted(t)]
        for s, t in sections.items()
    }
    header = {
        "format_version": FORMAT_VERSION,
        "config_hash": ckpt.config_hash,
        "dataset_id": ckpt.dataset_id,
        "seed": ckpt.seed,
        "step": ckpt.step,
        "opt": {k: getattr(ckpt.opt_state, k) for k in OPT_FIELDS},
        "ewc_lambda": ckpt.ewc.lambda_ewc if ckpt.ewc else None,
        "extra": ckpt.extra,
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for s in SECTIONS:
            tensors = sections[s]
            for entry in manifest[s]:
                raw = np.ascontiguousarray(
                    tensors[entry["name"]], dtype="<f8"
                ).tobytes()
                fh.write(struct.pack("<Q", len(raw)))
                fh.write(raw)


def _read(fh, n: int, path: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated file")
    return data


def load(path: str) -> Checkpoint:
    """Read a checkpoint; a truncated or inconsistent file raises CheckpointError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read(fh, 4, path))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} != {FORMAT_VERSION}"
            )
        (hlen,) = struct.unpack("<Q", _read(fh, 8, path))
        try:
            header = json.loads(_read(fh, hlen, path).decode("utf-8"))
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise CheckpointError(f"{path}: corrupt header") from exc
        try:
            manifest = {s: [(str(e["name"]), [int(n) for n in e["shape"]])
                            for e in header["manifest"][s]] for s in SECTIONS}
            opt_fields = {k: header["opt"][k] for k in OPT_FIELDS}
            meta = {k: header[k] for k in ("config_hash", "dataset_id", "seed",
                                           "step", "ewc_lambda")}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: header lacks a field or has one "
                                  f"of the wrong type ({exc!r})") from exc
        sections: dict[str, dict[str, np.ndarray]] = {}
        for s in SECTIONS:
            tensors = {}
            for name, shape in manifest[s]:
                (blen,) = struct.unpack("<Q", _read(fh, 8, path))
                size = 8 * int(np.prod(shape))
                if blen != size:
                    raise CheckpointError(f"{path}: {s}/{name} has "
                                          f"{blen} payload bytes, not {size}")
                arr = np.frombuffer(_read(fh, blen, path), dtype="<f8").astype(np.float64)
                tensors[name] = arr.reshape(shape).copy()
            sections[s] = tensors
    opt = OptimizerState(momentum=sections["momentum"], **opt_fields)
    ewc = None
    if meta["ewc_lambda"] is not None or sections["fisher"]:
        ewc = EwcState(
            fisher=sections["fisher"],
            anchor=sections["anchor"],
            lambda_ewc=meta["ewc_lambda"] or 0.0,
        )
    return Checkpoint(
        params=sections["params"],
        adv=sections["adv"],
        opt_state=opt,
        ewc=ewc,
        config_hash=meta["config_hash"],
        dataset_id=meta["dataset_id"],
        seed=meta["seed"],
        step=meta["step"],
        extra=header.get("extra", {}),
    )
