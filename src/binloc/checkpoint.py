"""Single-file tensor checkpoint format.

Byte layout (all integers little-endian):

    offset 0   : 8-byte magic ``b"BLTENS1\\n"``
    offset 8   : uint32, length M of the JSON manifest
    offset 12  : M bytes of UTF-8 JSON
    offset 12+M: payload of raw little-endian float32 values, row-major

The manifest is ``{"config_hash": str|null, "tensors": {name: {"shape":
[...], "offset": int, "count": int}}}`` with offsets counted in floats
from the start of the payload. Values are always stored as float32;
loading casts back to the requested dtype.
"""

from __future__ import annotations

import numpy as np

from .util import read_tensor_file, write_tensor_file

MAGIC = b"BLTENS1\n"

__all__ = ["save_tensors", "load_tensors", "CheckpointError", "MAGIC"]


class CheckpointError(RuntimeError):
    """Corrupt file or config-hash mismatch."""


def save_tensors(path, tensors: dict[str, np.ndarray],
                 config_hash: str | None = None) -> None:
    """Write ``tensors`` atomically: a failed save leaves the old file intact."""
    entries = {}
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        entries[name] = {"shape": list(arr.shape), "offset": offset,
                         "count": int(arr.size)}
        blobs.append(arr)
        offset += arr.size
    write_tensor_file(path, MAGIC, {"config_hash": config_hash, "tensors": entries},
                      blobs)


def load_tensors(path, expected_config_hash: str | None = None
                 ) -> tuple[dict[str, np.ndarray], str | None]:
    """Read a checkpoint; returns (name -> array, stored config hash).

    If ``expected_config_hash`` is given it must match the stored hash.
    """
    manifest, flat = read_tensor_file(path, MAGIC, "tensor checkpoint",
                                      CheckpointError)
    stored_hash = manifest.get("config_hash")
    if expected_config_hash is not None and stored_hash != expected_config_hash:
        raise CheckpointError(
            f"{path}: checkpoint config hash {stored_hash!r} does not match "
            f"expected {expected_config_hash!r}")
    out = {}
    for name, entry in manifest["tensors"].items():
        start = entry["offset"]
        count = entry["count"]
        if start + count > flat.size:
            raise CheckpointError(f"{path}: truncated payload for {name!r}")
        out[name] = flat[start:start + count].reshape(entry["shape"]).copy()
    return out, stored_hash
