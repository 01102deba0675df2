"""On-disk checkpointing: numpy-archive serialization of module state.

State dicts are flat ``{name: ndarray}`` maps, so ``.npz`` archives are a
natural, dependency-free container.  Optimizer state nests one level
(per-parameter moments) and is flattened with a ``/`` separator.

Integrity: every archive written here embeds a CRC32 over its sorted
contents (``__checksum__``).  Loading verifies the checksum — and wraps
container-level decode failures — so a corrupted checkpoint raises a
clear :class:`CheckpointIntegrityError` instead of silently restoring
wrong weights.

Full trainer snapshots (:func:`save_checkpoint`/:func:`load_checkpoint`)
bundle module + optimizer + loop position + run history in one directory;
a run resumed from one continues bit-identically to an uninterrupted run.
A failed restore (bad metadata, a malformed archive) raises before any
live state is touched.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
import zlib
from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.training.history import History


class CheckpointIntegrityError(RuntimeError):
    """The checkpoint on disk does not match what was written."""


# --------------------------------------------------------------------------- #
# Checksummed npz archives
# --------------------------------------------------------------------------- #
_CHECKSUM_KEY = "__checksum__"


def _state_checksum(state: Dict[str, np.ndarray]) -> int:
    """CRC32 over keys, dtypes, shapes, and raw bytes, in sorted key order."""
    crc = 0
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(str(arr.dtype).encode("utf-8"), crc)
        crc = zlib.crc32(str(arr.shape).encode("utf-8"), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc & 0xFFFFFFFF


def _save_npz(path: str, state: Dict[str, np.ndarray]) -> None:
    """Write a checksummed archive crash-safely: temp file + atomic rename.

    A writer dying mid-save must never leave a truncated archive at the
    final path — a reader would see a corrupt checkpoint where a good one
    (or none) should be.  ``np.savez`` appends ``.npz`` to bare paths, so
    the temp file is passed as an open handle, then renamed over the
    destination in one atomic step.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = dict(state)
    payload[_CHECKSUM_KEY] = np.uint32(_state_checksum(state))
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def _load_npz(path: str) -> Dict[str, np.ndarray]:
    try:
        with np.load(path) as data:
            state = {k: data[k].copy() for k in data.files if k != _CHECKSUM_KEY}
            stored = (
                int(data[_CHECKSUM_KEY]) if _CHECKSUM_KEY in data.files else None
            )
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zlib.error,
        zipfile.BadZipFile,
        struct.error,
    ) as exc:
        raise CheckpointIntegrityError(
            f"checkpoint {path!r} is unreadable or corrupted: {exc}"
        ) from exc
    if stored is not None:
        actual = _state_checksum(state)
        if actual != stored:
            raise CheckpointIntegrityError(
                f"checkpoint {path!r} failed its integrity check "
                f"(stored CRC 0x{stored:08x}, recomputed 0x{actual:08x})"
            )
    return state


def verify_archive(path: str) -> Dict[str, object]:
    """Full integrity check of one checksummed archive, without a module.

    Decodes every array and recomputes the embedded CRC32 (the same check
    loading performs).  Returns ``{"arrays": N, "bytes": M}`` on success;
    raises :class:`CheckpointIntegrityError` on a missing, unreadable, or
    corrupted archive.  ``repro registry verify`` runs this over every
    servable so operators can audit a registry before pointing traffic
    at it.
    """
    state = _load_npz(path)
    return {
        "arrays": len(state),
        "bytes": int(sum(arr.nbytes for arr in state.values())),
    }


# --------------------------------------------------------------------------- #
# Module / optimizer archives
# --------------------------------------------------------------------------- #
def save_module(module: Module, path: str) -> None:
    """Write a module's parameters and buffers to ``path`` (.npz)."""
    _save_npz(path, module.state_dict())


def load_module(module: Module, path: str, strict: bool = True) -> Module:
    """Restore a module's state from ``path``; returns the module.

    Raises :class:`CheckpointIntegrityError` when the archive is corrupted.
    """
    module.load_state_dict(_load_npz(path), strict=strict)
    return module


def save_optimizer(optimizer: Optimizer, path: str) -> None:
    """Write optimizer hyper-state and per-parameter moments to ``path``."""
    state = optimizer.state_dict()
    flat: Dict[str, np.ndarray] = {
        "__lr__": np.float64(state["lr"]),
        "__step_count__": np.int64(state["step_count"]),
    }
    for param_idx, sub in state["state"].items():
        for name, arr in sub.items():
            flat[f"{param_idx}/{name}"] = arr
    _save_npz(path, flat)


def _read_optimizer_state(path: str) -> dict:
    """Decode and validate an archive written by :func:`save_optimizer`."""
    data = _load_npz(path)
    for key in ("__lr__", "__step_count__"):
        if key not in data:
            raise CheckpointIntegrityError(f"optimizer archive {path!r} lacks {key!r}")
    nested: Dict[int, Dict[str, np.ndarray]] = {}
    for key, arr in data.items():
        if key.startswith("__"):
            continue
        param_idx, _, name = key.partition("/")
        if not (param_idx.isdigit() and name):
            raise CheckpointIntegrityError(
                f"optimizer archive {path!r} has malformed key {key!r} "
                "(expected 'index/name')"
            )
        nested.setdefault(int(param_idx), {})[name] = arr
    return {
        "lr": float(data["__lr__"]),
        "step_count": int(data["__step_count__"]),
        "state": nested,
    }


def load_optimizer(optimizer: Optimizer, path: str) -> Optimizer:
    """Restore optimizer state written by :func:`save_optimizer`.

    Raises :class:`CheckpointIntegrityError`, before touching the
    optimizer, on a corrupted archive, a missing ``__lr__`` /
    ``__step_count__``, or a key that is not ``index/name``.
    """
    optimizer.load_state_dict(_read_optimizer_state(path))
    return optimizer


# --------------------------------------------------------------------------- #
# Full trainer snapshots (resume)
# --------------------------------------------------------------------------- #
def _collect_rng_states(module: Module) -> Dict[str, dict]:
    """Snapshot every submodule generator (e.g. dropout masks).

    Without this, a restored-and-retried step would redraw its dropout
    masks from a further-advanced stream and diverge from the healthy run.
    """
    states: Dict[str, dict] = {}
    for name, sub in module.named_modules():
        rng = getattr(sub, "rng", None)
        if isinstance(rng, np.random.Generator):
            states[name] = rng.bit_generator.state
    return states


def _restore_rng_states(module: Module, states: Dict[str, dict]) -> None:
    for name, sub in module.named_modules():
        if name in states:
            rng = getattr(sub, "rng", None)
            if isinstance(rng, np.random.Generator):
                rng.bit_generator.state = states[name]


def save_checkpoint(
    directory: str,
    module: Module,
    optimizer: Optimizer,
    step: int,
    epoch: int = 0,
    history: Optional[History] = None,
) -> str:
    """Write a complete resume point under ``directory``; returns the path.

    Layout: ``model.npz`` + ``optim.npz`` (both checksummed) and
    ``meta.json`` holding loop position and the full history record list.
    """
    os.makedirs(directory, exist_ok=True)
    save_module(module, os.path.join(directory, "model.npz"))
    save_optimizer(optimizer, os.path.join(directory, "optim.npz"))
    meta = {
        "step": int(step),
        "epoch": int(epoch),
        "history": list(history.records) if history is not None else [],
        "rng": _collect_rng_states(module),
    }
    meta_path = os.path.join(directory, "meta.json")
    tmp_path = meta_path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp_path, meta_path)
    return directory


#: Types of the ``meta.json`` fields; only ``step`` is required.
_META_FIELDS = (("step", int), ("epoch", int), ("history", list), ("rng", dict))


def _read_meta(meta_path: str) -> dict:
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointIntegrityError(
            f"checkpoint metadata {meta_path!r} is unreadable: {exc}"
        ) from exc
    if not isinstance(meta, dict) or "step" not in meta:
        raise CheckpointIntegrityError(
            f"checkpoint metadata {meta_path!r} is not an object with a 'step'"
        )
    for key, kind in _META_FIELDS:
        if key in meta and type(meta[key]) is not kind:
            raise CheckpointIntegrityError(
                f"checkpoint metadata {meta_path!r}: {key!r} must be "
                f"{kind.__name__}, got {type(meta[key]).__name__}"
            )
    return meta


def load_checkpoint(
    directory: str,
    module: Module,
    optimizer: Optimizer,
    history: Optional[History] = None,
) -> Dict[str, int]:
    """Restore a resume point written by :func:`save_checkpoint`.

    Restores module and optimizer state in place; when ``history`` is
    given, its records are replaced by the checkpointed ones so the run's
    loss history resumes exactly.  Returns ``{"step": ..., "epoch": ...}``.

    All three files are read and validated first, and the module checks
    every key and shape before assigning any, so a checkpoint that raises
    leaves the module and optimizer as they were.
    """
    meta = _read_meta(os.path.join(directory, "meta.json"))
    model_state = _load_npz(os.path.join(directory, "model.npz"))
    optim_state = _read_optimizer_state(os.path.join(directory, "optim.npz"))
    module.load_state_dict(model_state)
    optimizer.load_state_dict(optim_state)
    if history is not None:
        history.records = list(meta.get("history", []))
    _restore_rng_states(module, meta.get("rng", {}))
    return {"step": meta["step"], "epoch": meta.get("epoch", 0)}
