"""On-disk archives: the one checksummed ``.npz`` format the system writes.

Every array archive the system persists — servable weights, the cached
pretrained encoder — is a flat ``{name: ndarray}`` map written by
:func:`write_archive` and read back by :func:`read_archive`.

Integrity: every archive embeds a CRC32 over its sorted contents
(``__checksum__``).  Reading verifies the checksum — and wraps
container-level decode failures — so a truncated, bit-flipped or
unchecksummed file raises a clear :class:`CheckpointIntegrityError`
naming its path instead of silently restoring wrong weights.
"""

from __future__ import annotations

import os
import struct
import zipfile
import zlib
from typing import Dict

import numpy as np


class CheckpointIntegrityError(RuntimeError):
    """The archive on disk does not match what was written."""


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


def write_archive(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Write a checksummed archive crash-safely: temp file + atomic rename.

    A writer dying mid-save must never leave a truncated archive at the
    final path — a reader would see a corrupt archive where a good one
    (or none) should be.  ``np.savez`` appends ``.npz`` to bare paths, so
    the temp file is passed as an open handle, then renamed over the
    destination in one atomic step.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = dict(arrays)
    payload[_CHECKSUM_KEY] = np.uint32(_state_checksum(arrays))
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def read_archive(path: str) -> Dict[str, np.ndarray]:
    """Read and verify an archive written by :func:`write_archive`.

    Raises :class:`CheckpointIntegrityError` on a missing, unreadable,
    unchecksummed or corrupted archive.
    """
    try:
        # The handle is opened here, not by ``np.load``: numpy leaks the
        # file it opened when the zip directory of a truncated file fails
        # to parse.
        with open(path, "rb") as fh, np.load(fh) as data:
            if _CHECKSUM_KEY not in data.files:
                raise CheckpointIntegrityError(
                    f"archive {path!r} has no {_CHECKSUM_KEY!r}; it was not "
                    "written by write_archive"
                )
            state = {k: data[k].copy() for k in data.files if k != _CHECKSUM_KEY}
            stored = int(data[_CHECKSUM_KEY])
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
            f"archive {path!r} is unreadable or corrupted: {exc}"
        ) from exc
    actual = _state_checksum(state)
    if actual != stored:
        raise CheckpointIntegrityError(
            f"archive {path!r} failed its integrity check "
            f"(stored CRC 0x{stored:08x}, recomputed 0x{actual:08x})"
        )
    return state


def verify_archive(path: str) -> Dict[str, object]:
    """Full integrity check of one archive, without a module.

    Reads it with :func:`read_archive` (decodes every array and recomputes
    the CRC32).  Returns ``{"arrays": N, "bytes": M}`` on success.
    ``repro registry verify`` runs this over every servable so operators
    can audit a registry before pointing traffic at it.
    """
    state = read_archive(path)
    return {
        "arrays": len(state),
        "bytes": int(sum(arr.nbytes for arr in state.values())),
    }
