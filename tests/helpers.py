"""Shared test oracles, independent of the library's own gradient path."""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from binloc import engine as E
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


def mul(a, b):
    """The elementwise product ``a * b`` as one tape node, with numpy
    broadcasting: a probe that weights an op's output for a scalar loss."""
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (E._unbroadcast(g * bd, sa) if need_a else None,
                E._unbroadcast(g * ad, sb) if need_b else None)

    return E._record_op((a, b), ad * bd, backward)


def tsum(a, axis=None):
    """The sum of ``a`` over ``axis`` (every axis for None) as one tape node:
    a float64 sum cast back to ``a``'s dtype, as ``E.tmean`` takes it, whose
    backward spreads the upstream gradient over the summed axis."""
    shape, dtype = a.shape, a.dtype

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False).copy(),)

    return E._record_op((a,), a.data.sum(axis=axis, dtype=np.float64).astype(dtype),
                        backward)


def attention_reference(q, k, v, heads, g):
    """Multi-head softmax attention over (batch, n, dim) arrays as the split
    -> matmul -> scale -> softmax -> matmul -> merge chain, with each
    primitive's backward for upstream gradient ``g``. Returns the merged
    output, the (batch, heads, n, n) maps and the q, k and v gradients."""
    b, n, d = q.shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(t):
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(b, n, d)

    qs, ks, vs = split(q), split(k), split(v)
    kt = ks.transpose(0, 1, 3, 2)
    logits = np.matmul(qs, kt) * q.dtype.type(c)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(q.dtype)
    y = merge(np.matmul(p, vs))
    gy = split(g)
    gp = np.matmul(gy, np.swapaxes(vs, -1, -2))
    gv = np.matmul(np.swapaxes(p, -1, -2), gy)
    glogits = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
    gq = np.matmul(glogits, np.swapaxes(kt, -1, -2))
    gk = np.matmul(np.swapaxes(qs, -1, -2), glogits).transpose(0, 1, 3, 2)
    return y, p, (merge(gq), merge(gk), merge(gv))


def recorded_attention_reference(q, k, v, heads, capture=None):
    """``attention_reference`` on tensors q, k and v, recorded as one tape
    node; a ``capture`` list receives its maps."""
    qd, kd, vd = q.data, k.data, v.data
    y, p, _ = attention_reference(qd, kd, vd, heads, np.zeros_like(qd))
    if capture is not None:
        capture.append(p)
    return E._record_op((q, k, v), y,
                        lambda g: attention_reference(qd, kd, vd, heads, g)[2])


def qkv_attention(qkv, w, b, heads, capture=None):
    """Attention over a tensor ``qkv`` that holds q, k and v side by side,
    (batch, n, 3 * dim), then its output projection ``y @ w + b``, recorded
    as one tape node: the engine's attention as it was before it took in its
    layer norm and q/k/v maps. It runs the batch in the engine's blocks and
    keeps ``qkv`` for backward, which rebuilds each block's maps and ``y``."""
    batch, n, dim = qkv.data.shape
    dim //= 3
    dh = dim // heads
    c = 1.0 / math.sqrt(dh)
    dtype = qkv.data.dtype

    def split(a):
        return a.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)

    def thirds(a):
        return [split(a[..., lo:lo + dim]) for lo in (0, dim, 2 * dim)]

    qs, ks, vs = thirds(qkv.data)
    step = max(1, min(batch, E._ATTENTION_BLOCK_BYTES // (heads * n * n * dtype.itemsize)))
    blocks = [slice(lo, min(lo + step, batch)) for lo in range(0, batch, step)]
    probs = None if capture is None else np.empty((batch, heads, n, n), dtype)
    shift, norm = np.empty((2, batch, heads, n, 1), dtype)
    y = np.empty((batch, n, dim), dtype)
    ys = split(y)

    def logits(blk, e):
        np.matmul(qs[blk], np.swapaxes(ks[blk], -1, -2), out=e)
        return np.multiply(e, dtype.type(c), out=e)

    buf = np.empty((step, heads, n, n), dtype)
    for blk in blocks:
        e = logits(blk, buf[:blk.stop - blk.start])
        np.subtract(e, e.max(axis=-1, keepdims=True, out=shift[blk]), out=e)
        np.exp(e, out=e)
        norm[blk] = e.sum(axis=-1, keepdims=True, dtype=np.float64)
        p = np.divide(e, norm[blk], out=e if probs is None else probs[blk])
        ys[blk] = p @ vs[blk]
    if capture is not None:
        capture.append(probs)
    out = y.reshape(-1, dim) @ w.data
    out += b.data
    wd = w.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        gy = split(g @ wd.T)
        grad = np.empty((batch, n, 3 * dim), dtype)
        gq, gk, gv = thirds(grad)
        y = np.empty((batch, n, dim), dtype)
        ys = split(y)
        bufs = np.empty((3, step, heads, n, n), dtype)
        for blk in blocks:
            p, glogits, product = bufs[:, :blk.stop - blk.start]
            logits(blk, p)
            np.subtract(p, shift[blk], out=p)
            np.exp(p, out=p)
            np.divide(p, norm[blk], out=p)
            ys[blk] = p @ vs[blk]
            np.matmul(gy[blk], np.swapaxes(vs[blk], -1, -2), out=glogits)
            gv[blk] = np.swapaxes(p, -1, -2) @ gy[blk]
            rowdot = np.multiply(glogits, p, out=product).sum(axis=-1, keepdims=True)
            np.subtract(glogits, rowdot, out=glogits)
            np.multiply(p, glogits, out=glogits)
            np.multiply(glogits, c, out=glogits)
            gq[blk] = glogits @ ks[blk]
            gk[blk] = np.swapaxes(np.swapaxes(qs[blk], -1, -2) @ glogits, -1, -2)
        return grad, y.reshape(-1, dim).T @ g, g.sum(axis=0)

    return E._record_op((qkv, w, b), out.reshape(batch, n, wd.shape[1]), backward)


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
