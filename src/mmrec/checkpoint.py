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
        "opt": {
            "gamma_m": ckpt.opt_state.gamma_m,
            "eta0": ckpt.opt_state.eta0,
            "lambda_u": ckpt.opt_state.lambda_u,
            "tau_sel": ckpt.opt_state.tau_sel,
            "step_count": ckpt.opt_state.step_count,
        },
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
        sections: dict[str, dict[str, np.ndarray]] = {}
        for s in SECTIONS:
            tensors = {}
            for entry in header["manifest"][s]:
                (blen,) = struct.unpack("<Q", _read(fh, 8, path))
                size = 8 * int(np.prod(entry["shape"]))
                if blen != size:
                    raise CheckpointError(f"{path}: {s}/{entry['name']} has "
                                          f"{blen} payload bytes, not {size}")
                arr = np.frombuffer(_read(fh, blen, path), dtype="<f8").astype(np.float64)
                tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
            sections[s] = tensors
    opt = OptimizerState(
        momentum=sections["momentum"],
        gamma_m=header["opt"]["gamma_m"],
        eta0=header["opt"]["eta0"],
        lambda_u=header["opt"]["lambda_u"],
        tau_sel=header["opt"]["tau_sel"],
        step_count=header["opt"]["step_count"],
    )
    ewc = None
    if header["ewc_lambda"] is not None or sections["fisher"]:
        ewc = EwcState(
            fisher=sections["fisher"],
            anchor=sections["anchor"],
            lambda_ewc=header["ewc_lambda"] or 0.0,
        )
    return Checkpoint(
        params=sections["params"],
        adv=sections["adv"],
        opt_state=opt,
        ewc=ewc,
        config_hash=header["config_hash"],
        dataset_id=header["dataset_id"],
        seed=header["seed"],
        step=header["step"],
        extra=header.get("extra", {}),
    )
