"""Shared test oracles, independent of the library's own gradient path."""

from __future__ import annotations

import json
import struct

import numpy as np

from binloc.rollout import _upsample_index


def central_diff(f, arrays, h=1e-3):
    """Central finite differences of scalar ``f()`` w.r.t. each array.

    ``arrays`` are float64 numpy arrays that ``f`` reads when called; each
    element is perturbed in place. Returns one gradient array per input.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f()
            flat[i] = orig - h
            f_minus = f()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def upsample_grid(grid, height, width, patch, stride):
    """A relevance grid upsampled to pixel size the way ``export_heatmap``
    upsamples its overlay CSVs: each pixel takes its nearest patch center."""
    return grid[np.ix_(*_upsample_index(*grid.shape, height, width, patch, stride))]


def max_rel_err(a, b, floor=1e-6):
    """Largest elementwise relative error, guarded against tiny denominators."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


class _FailingFile:
    """A binary file whose ``write`` raises once ``writes`` calls succeeded."""

    def __init__(self, fh, writes):
        self._fh = fh
        self._writes = writes

    def write(self, data):
        if self._writes == 0:
            raise OSError(28, "No space left on device")
        self._writes -= 1
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_writes_after(monkeypatch, module, writes):
    """Make files opened through ``module.open`` fail after ``writes`` writes,
    as a full disk would halfway through a save."""
    monkeypatch.setattr(module, "open",
                        lambda path, mode: _FailingFile(open(path, mode), writes),
                        raising=False)


# JSON headers a tensor file must not be read with, and what the reader's
# error names: not an object, no tensor table, an entry whose shape does not
# hold its count, an entry before the payload's start
MALFORMED_HEADERS = [
    ([1, 2], "not a JSON object"),
    ({}, "tensor table"),
    ({"tensors": {"a": {"shape": [3], "offset": 0, "count": 2}}},
     "malformed header entry for 'a'"),
    ({"tensors": {"a": {"shape": [2], "offset": -4, "count": 2}}},
     "negative offset"),
]


def tensor_file_bytes(magic: bytes, header, payload: bytes = bytes(16)) -> bytes:
    """A tensor file in the ``util.write_tensor_file`` layout with any JSON
    ``header``."""
    head = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(head)) + head + payload
