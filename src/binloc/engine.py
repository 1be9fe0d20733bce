"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 supported for
high-precision checks). Operations executed inside an active ``Graph``
context are recorded on a tape; ``Graph.backward`` replays the tape in
reverse, visiting every recorded operation exactly once. A tape node is a
``(parents, backward)`` pair: the tape positions of its inputs and a closure
holding the arrays that backward reads; backward lets go of each node as
soon as it has run. Outside a graph, ops run as plain numpy computations
with no recording overhead.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Graph",
    "ShapeError",
    "GraphError",
    "ParameterError",
    "parameter",
    "add",
    "sub",
    "gelu",
    "layer_norm",
    "dropout",
    "tmean",
    "concat",
    "linear",
    "norm_linear",
    "attention",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the recording tape (non-scalar loss, repeated backward...)."""


class ParameterError(ValueError):
    """An operation argument is outside its legal range."""


class _Local(threading.local):
    """Per-thread state: the stack of graphs open on this thread."""

    def __init__(self):
        self.graphs: list[Graph] = []


_local = _Local()


class Tensor:
    """A dense array plus grad bookkeeping.

    ``data`` is always a numpy float array. ``Graph.backward`` sets ``grad``
    on leaves only: tensors with ``requires_grad=True`` that no op on the
    tape produced, such as parameters. Op outputs keep ``grad`` None.
    A recorded output's ``_node`` names its producing node: the tape's
    token and the node's index on that tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_node")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._node: tuple[object, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def parameter(data, name: str | None = None, dtype=None) -> Tensor:
    """Wrap raw data as a trainable tensor."""
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


class Graph:
    """Recording tape for one forward pass.

    Usage::

        with Graph() as g:
            loss = ...            # ops executed here are recorded
        g.backward(loss)          # populates .grad on trainable leaves

    Backward walks the tape in reverse execution order, so every recorded
    operation is visited exactly once and a tensor's gradient is complete
    before its producing operation consumes it. Each node, and the
    gradient of its output, is dropped once its backward has run. A second
    ``backward`` on the same graph raises; re-record the forward pass
    instead.
    """

    def __init__(self):
        # outputs name this token, not the graph, so that no output keeps
        # the tape's saved arrays alive
        self._token = object()
        # one (parents, backward) pair per recorded op; each parent is the
        # tape index of the node that produced that input, the input itself
        # for a leaf (a parameter, or an output of another tape), or None
        # where no gradient is wanted
        self._nodes: list[tuple | None] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        _local.graphs.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _local.graphs.pop()

    def _parent(self, t: Tensor) -> int | Tensor | None:
        if not t.requires_grad:
            return None
        node = t._node
        return node[1] if node is not None and node[0] is self._token else t

    def _record(self, inputs: Sequence[Tensor], out_data: np.ndarray,
                backward) -> Tensor:
        out = Tensor(out_data, requires_grad=True)
        out._node = (self._token, len(self._nodes))
        self._nodes.append((tuple(map(self._parent, inputs)), backward))
        return out

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise GraphError(
                "backward was already run on this graph; record a new forward pass")
        if loss.data.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.shape}")
        if loss._node is None or loss._node[0] is not self._token:
            raise GraphError(
                "the loss was not recorded on this graph; compute it inside "
                "the graph's `with` block")
        self._consumed = True

        # Gradients of op outputs on their way down, by tape index: an
        # output's gradient is complete when the walk reaches its node. Leaf
        # gradients collect by tensor id, in the order they are first reached.
        nodes = self._nodes
        grads: list[np.ndarray | None] = [None] * len(nodes)
        grads[loss._node[1]] = np.ones_like(loss.data)
        leaves: dict[int, tuple[Tensor, np.ndarray]] = {}
        for i in range(len(nodes) - 1, -1, -1):
            node, g = nodes[i], grads[i]
            nodes[i] = grads[i] = None
            if g is None:
                continue  # not on a path to the loss
            parents, backward = node
            for parent, pg in zip(parents, backward(g)):
                if pg is None or parent is None:
                    continue
                if type(parent) is int:
                    prev = grads[parent]
                    grads[parent] = pg if prev is None else prev + pg
                else:
                    prev = leaves.get(id(parent))
                    leaves[id(parent)] = (parent, pg if prev is None else prev[1] + pg)

        for leaf, g in leaves.values():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _recording(inputs: Sequence[Tensor]) -> "Graph | None":
    """The graph an op on ``inputs`` records on: the active one, when an
    input needs a gradient, else None."""
    graphs = _local.graphs
    return graphs[-1] if graphs and any(t.requires_grad for t in inputs) else None


def _record_op(inputs: Sequence[Tensor], out_data: np.ndarray, backward) -> Tensor:
    """The op's output, recorded on the active tape when an input needs a
    gradient. ``backward`` must capture only what it reads: arrays, shapes,
    dtypes and flags, never an input or output ``Tensor``."""
    graph = _recording(inputs)
    if graph is None:
        return Tensor(out_data)
    return graph._record(inputs, out_data, backward)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _add_or_sub(a: Tensor, b: Tensor, ufunc) -> Tensor:
    """``ufunc(a, b)`` for ``np.add`` or ``np.subtract``; b's gradient is
    negated for the difference."""
    out = ufunc(a.data, b.data)
    sa, sb = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    negate = ufunc is np.subtract

    def backward(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(-g if negate else g, sb) if need_b else None)

    return _record_op((a, b), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _add_or_sub(a, b, np.add)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _add_or_sub(a, b, np.subtract)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 * x * (1 + erf(x / sqrt(2))).

    A recorded call keeps only its local derivative ``cdf + x * pdf``,
    built in one array, and neither ``x`` nor ``cdf``.
    """
    x = a.data
    half = x.dtype.type(0.5)
    cdf = half * (x.dtype.type(1.0) + erf(x * x.dtype.type(0.7071067811865476)))
    out = x * cdf
    d = None
    if _recording((a,)) is not None:
        d = np.multiply(-half, x)
        np.multiply(d, x, out=d)
        np.exp(d, out=d)
        np.multiply(d, x.dtype.type(0.3989422804014327), out=d)
        np.multiply(d, x, out=d)
        np.add(d, cdf, out=d)
    return _record_op((a,), out, lambda g: (g * d,))


# ---------------------------------------------------------------------------
# normalization and regularization


def _into(ufunc, x: np.ndarray, y: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``ufunc(x, y)`` written into ``buf``, a spent temporary of the
    result's shape, when it also has the result's dtype; mixed-precision
    operands get a fresh array, as without ``out``."""
    same = x.dtype == buf.dtype and y.dtype == buf.dtype
    return ufunc(x, y, out=buf if same or buf.dtype == np.result_type(x, y) else None)


def _norm(a: Tensor, gain: Tensor, bias: Tensor):
    """The layer norm of ``a``'s last axis: its output, ``xhat`` and ``inv``."""
    n = a.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got "
            f"{gain.data.shape} and {bias.data.shape}")
    # moments accumulate in 64-bit; centering/scaling stay in storage precision.
    # Temporaries are reused: the squares become xhat, centered the output.
    # np.add.reduce / n is ndarray.mean without its Python wrapper.
    mean = np.add.reduce(a.data, axis=-1, dtype=np.float64, keepdims=True) / n
    centered = a.data - mean.astype(a.data.dtype)
    squares = np.square(centered)
    var = np.add.reduce(squares, axis=-1, dtype=np.float64, keepdims=True) / n
    inv = (1.0 / np.sqrt(var + 1e-5)).astype(a.data.dtype)
    xhat = np.multiply(centered, inv, out=squares)
    return _affine(xhat, gain.data, bias.data, centered), xhat, inv


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
            buf: np.ndarray) -> np.ndarray:
    """``xhat * gain + bias``, the norm's output, built in ``buf``."""
    return _into(np.add, _into(np.multiply, xhat, gain, buf), bias, buf)


def _norm_backward(g, xhat, inv, gain, need_a, need_gain, need_bias, scratch):
    """The layer norm's input, gain and bias gradients from its output
    gradient ``g``; ``scratch`` is a spent temporary of ``g``'s shape."""
    red = tuple(range(g.ndim - 1))
    scratch = _into(np.multiply, g, xhat, scratch)
    ggain = scratch.sum(axis=red) if need_gain else None
    gbias = g.sum(axis=red) if need_bias else None
    ga = None
    if need_a:
        # ga = inv * (gx - m1 - xhat * m2), built up in gx
        gx = g * gain
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = _into(np.multiply, gx, xhat, scratch).mean(axis=-1, keepdims=True)
        gx = _into(np.subtract, gx, m1, gx)
        gx = _into(np.subtract, gx, _into(np.multiply, xhat, m2, scratch), gx)
        ga = _into(np.multiply, inv, gx, gx)
    return ga, ggain, gbias


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out, xhat, inv = _norm(a, gain, bias)
    needs = a.requires_grad, gain.requires_grad, bias.requires_grad
    gain_data = gain.data

    def backward(g):
        return _norm_backward(g, xhat, inv, gain_data, *needs, np.empty_like(g))

    return _record_op((a, gain, bias), out, backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Zero each element with probability ``rate`` and rescale survivors.

    Runs only when given a generator (training passes a seeded one): with
    ``rng`` None, as at eval time, or ``rate`` 0 it returns ``a`` itself.
    """
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype)
    keep /= a.data.dtype.type(1.0 - rate)
    out = a.data * keep

    def backward(g):
        return (g * keep,)

    return _record_op((a,), out, backward)


# ---------------------------------------------------------------------------
# reductions and shape ops


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    """The mean of ``a`` over ``axis`` (every axis for None): a float64 sum
    divided by the count, cast back to ``a``'s dtype. This is numpy's own
    ``mean``, without its Python wrapper."""
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.sum(axis=axis, dtype=np.float64) / count
    shape, dtype = a.shape, a.dtype

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).astype(dtype, copy=False).copy(),)

    return _record_op((a,), out.astype(dtype), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join along the last axis."""
    if not tensors:
        raise ParameterError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=-1)
    sizes = [t.data.shape[-1] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=-1))

    return _record_op(tuple(tensors), out, backward)


# ---------------------------------------------------------------------------
# fused layers: one tape node each, with a hand-written backward


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of an N-D ``x``.

    ``w`` is (d_in, d_out) and ``b`` is (d_out,); the leading axes of ``x``
    are flattened into the rows of one GEMM.
    """
    if (w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ShapeError(
            f"linear needs x (..., d_in), w (d_in, d_out) and b (d_out,), got "
            f"{x.shape}, {w.shape} and {b.shape}")
    flat = x.data.reshape(-1, x.shape[-1])
    out = flat @ w.data
    out += b.data
    wd, shape = w.data, x.shape
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        gx = (g @ wd.T).reshape(shape) if need_x else None
        gw = flat.T @ g if need_w else None
        gb = g.sum(axis=0) if need_b else None
        return gx, gw, gb

    return _record_op((x, w, b), out.reshape(x.shape[:-1] + (w.shape[1],)), backward)


def _norm_maps(op: str, x: Tensor, gain: Tensor, bias: Tensor,
               pairs: Sequence[tuple[Tensor, Tensor]], taped: bool):
    """``layer_norm(x, gain, bias)`` fed to one affine map per ``(w, b)`` in
    ``pairs``, their outputs side by side in the columns of one (rows,
    width) array: a pre-norm block's q, k and v, or its first MLP layer.

    Each map's GEMM writes its own column slice, so the bits are those of
    ``linear`` on the norm's output. Returns that array and, when ``taped``,
    a backward that keeps only the norm's ``xhat`` and ``inv``. It rebuilds
    the norm's output from them with the forward's own operations and
    returns the gradients of x, gain, bias and each map's w and b. Its
    argument is the output's (rows, width) gradient, or, for an op that
    reads the maps, a function that takes the maps, rebuilt in the same way,
    and returns their gradient. The maps' input gradients are summed last
    map first, as the tape sums separate ``linear`` nodes.
    """
    n = x.data.shape[-1]
    cols, width = [], 0
    for w, b in pairs:
        if w.data.ndim != 2 or w.data.shape[0] != n or b.data.shape != (w.data.shape[1],):
            raise ShapeError(
                f"{op} needs x (..., d_in), w (d_in, d_out) and b (d_out,), "
                f"got {x.shape}, {w.shape} and {b.shape}")
        cols.append(slice(width, width + w.data.shape[1]))
        width += w.data.shape[1]
    weights, biases = [w.data for w, _ in pairs], [b.data for _, b in pairs]

    def maps(flat):
        out = np.empty((len(flat), width), np.result_type(flat, *weights))
        for w, c in zip(weights, cols):
            np.matmul(flat, w, out=out[:, c])
        # one bias add over whole rows: adding into each strided column slice
        # runs about 3x slower per element
        out += np.concatenate(biases)
        return out

    normed, xhat, inv = _norm(x, gain, bias)
    out = maps(normed.reshape(-1, n))
    if not taped:
        return out, None
    gain_data, bias_data, shape = gain.data, bias.data, x.data.shape
    needs = x.requires_grad, gain.requires_grad, bias.requires_grad
    need_w = [w.requires_grad for w, _ in pairs]
    need_b = [b.requires_grad for _, b in pairs]

    def backward(g):
        flat = _affine(xhat, gain_data, bias_data, np.empty_like(xhat)).reshape(-1, n)
        if callable(g):
            g = g(maps(flat))
        gnorm = None
        for wd, c in zip(weights[::-1], cols[::-1]):  # last map first
            part = g[:, c] @ wd.T
            gnorm = part if gnorm is None else _into(np.add, gnorm, part, gnorm)
        # one column sum for every bias: an axis-0 sum adds the rows in the
        # same order over all columns as over one map's
        gb = g.sum(axis=0) if any(need_b) else None
        grads = []
        for c, nw, nb in zip(cols, need_w, need_b):
            grads += (flat.T @ g[:, c] if nw else None, gb[c] if nb else None)
        # the rebuilt norm output is spent last, as the norm backward's scratch
        return (*_norm_backward(gnorm.reshape(shape), xhat, inv, gain_data, *needs,
                                flat.reshape(shape)), *grads)

    return out, backward


def norm_linear(x: Tensor, gain: Tensor, bias: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear(layer_norm(x, gain, bias), w, b)`` as one op: a pre-norm
    block's first MLP layer.

    A recorded call keeps only the norm's ``xhat`` and ``inv``; backward
    rebuilds the norm's output from them with the forward's own operations.
    """
    inputs = (x, gain, bias, w, b)
    out, backward = _norm_maps("norm_linear", x, gain, bias, [(w, b)],
                               _recording(inputs) is not None)
    out = out.reshape(x.data.shape[:-1] + (out.shape[1],))
    if backward is None:
        return Tensor(out)
    return _record_op(inputs, out, lambda g: backward(g.reshape(-1, g.shape[-1])))


# Byte budget of one batch block's (heads, n, n) attention maps. A block's
# maps and the temporaries of the same size then stay in a 2 MiB per-core L2
# cache; a block holds at least one sample.
_ATTENTION_BLOCK_BYTES = 512 * 1024


def attention(x: Tensor, gain: Tensor, bias: Tensor,
              pairs: Sequence[tuple[Tensor, Tensor]], w: Tensor, b: Tensor,
              heads: int, capture: list | None = None) -> Tensor:
    """A pre-norm block's attention sublayer: layer norm, q/k/v maps,
    multi-head scaled dot-product attention and its output projection.

    q, k and v are the maps of ``layer_norm(x, gain, bias)`` through the
    three ``(w, b)`` in ``pairs``, written side by side into one (batch, n,
    3 * dim) array as ``norm_linear`` writes a map. The feature axis splits
    into ``heads`` heads of width dh; each head computes softmax(q k^T /
    sqrt(dh)) v with a max-shifted softmax whose normalizer accumulates in
    64-bit, and the heads merge back into a (batch, n, dim) ``y``, which
    leaves through ``y @ w + b`` as ``linear`` computes it. The batch runs
    in blocks of ``_ATTENTION_BLOCK_BYTES`` worth of maps, forward and
    backward, and each block's softmax (and its backward) runs in place in
    one preallocated block buffer.
    A recorded call keeps the norm's ``xhat`` and ``inv`` and each row's
    softmax max and normalizer, (batch, heads, n, 1) each: no q, k or v, no
    (batch, heads, n, n) array and no ``y``. Backward rebuilds q, k and v,
    then a block's probability maps and its rows of ``y``, with the
    forward's own operations, so they are bit-equal to the forward's.
    Without a tape, the norm's arrays are let go before the attention loop.
    A ``capture`` list receives the maps as one (batch, heads, n, n) array.
    """
    if x.data.ndim != 3 or len(pairs) != 3:
        raise ShapeError(
            f"attention needs x (batch, n, d_in) and three (w, b) maps for q, k "
            f"and v, got {x.shape} and {len(pairs)} maps")
    widths = [m.data.shape[-1] for m, _ in pairs]
    if len(set(widths)) != 1:
        raise ShapeError(f"attention needs q, k and v maps of one width, got {widths}")
    batch, n, _ = x.data.shape
    dim = widths[0]
    if heads < 1 or dim % heads:
        raise ShapeError(f"attention dim {dim} does not split into {heads} heads")
    if w.data.ndim != 2 or w.data.shape[0] != dim or b.data.shape != (w.data.shape[1],):
        raise ShapeError(
            f"attention's output projection needs w ({dim}, d_out) and b (d_out,), "
            f"got {w.shape} and {b.shape}")
    inputs = (x, gain, bias, *(t for pair in pairs for t in pair), w, b)
    qkv, maps_backward = _norm_maps("attention", x, gain, bias, pairs,
                                    _recording(inputs) is not None)
    dh = dim // heads
    c = 1.0 / math.sqrt(dh)
    dtype = qkv.dtype

    def split(a):  # (batch, n, dim) -> (batch, heads, n, dh) view
        return a.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)

    def thirds(a):  # (rows, 3 * dim) -> the heads of its q, k and v columns
        a = a.reshape(batch, n, 3 * dim)
        return [split(a[..., lo:lo + dim]) for lo in (0, dim, 2 * dim)]

    def logits(qs, ks, blk, e):
        """Block ``blk``'s scaled logits ``q k^T * c``, written into ``e``."""
        np.matmul(qs[blk], np.swapaxes(ks[blk], -1, -2), out=e)
        return np.multiply(e, dtype.type(c), out=e)

    qs, ks, vs = thirds(qkv)
    map_bytes = heads * n * n * dtype.itemsize
    step = max(1, min(batch, _ATTENTION_BLOCK_BYTES // map_bytes))
    blocks = [slice(lo, min(lo + step, batch)) for lo in range(0, batch, step)]
    probs = None if capture is None else np.empty((batch, heads, n, n), dtype)
    shift, norm = np.empty((2, batch, heads, n, 1), dtype)
    y = np.empty((batch, n, dim), dtype)
    ys = split(y)

    # one block's logits, turned into its softmax in place; a short last
    # block uses a prefix
    buf = np.empty((step, heads, n, n), dtype)
    for blk in blocks:
        e = logits(qs, ks, blk, buf[:blk.stop - blk.start])
        np.subtract(e, e.max(axis=-1, keepdims=True, out=shift[blk]), out=e)
        np.exp(e, out=e)
        norm[blk] = e.sum(axis=-1, keepdims=True, dtype=np.float64)
        p = np.divide(e, norm[blk], out=e if probs is None else probs[blk])
        ys[blk] = p @ vs[blk]
    if capture is not None:
        capture.append(probs)
    out = y.reshape(-1, dim) @ w.data
    out += b.data
    out = out.reshape(batch, n, w.data.shape[1])
    if maps_backward is None:
        return Tensor(out)
    wd, need_w, need_b = w.data, w.requires_grad, b.requires_grad

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        y = np.empty((batch, n, dim), dtype) if need_w else None

        def qkv_grad(qkv):  # from the forward's q, k and v, rebuilt
            qs, ks, vs = thirds(qkv)
            gy = split(g @ wd.T)
            grad = np.empty((batch, n, 3 * dim), dtype)
            gq, gk, gv = thirds(grad)
            ys = None if y is None else split(y)
            bufs = np.empty((3, step, heads, n, n), dtype)
            for blk in blocks:
                p, glogits, product = bufs[:, :blk.stop - blk.start]
                # the forward's maps, and its y, rebuilt by its own operations
                logits(qs, ks, blk, p)
                np.subtract(p, shift[blk], out=p)
                np.exp(p, out=p)
                np.divide(p, norm[blk], out=p)
                if ys is not None:
                    ys[blk] = p @ vs[blk]
                # glogits = (p * (gp - sum(gp * p))) * c, built up in place from gp
                np.matmul(gy[blk], np.swapaxes(vs[blk], -1, -2), out=glogits)
                gv[blk] = np.swapaxes(p, -1, -2) @ gy[blk]
                rowdot = np.multiply(glogits, p, out=product).sum(axis=-1, keepdims=True)
                np.subtract(glogits, rowdot, out=glogits)
                np.multiply(p, glogits, out=glogits)
                np.multiply(glogits, c, out=glogits)
                gq[blk] = glogits @ ks[blk]
                gk[blk] = np.swapaxes(np.swapaxes(qs[blk], -1, -2) @ glogits, -1, -2)
            return grad.reshape(-1, 3 * dim)

        grads = maps_backward(qkv_grad)
        gw = y.reshape(-1, dim).T @ g if need_w else None
        gb = g.sum(axis=0) if need_b else None
        return (*grads, gw, gb)

    return _record_op(inputs, out, backward)
