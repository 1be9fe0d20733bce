"""Tensor engine: forward contracts and gradient oracles."""

import threading
import weakref
import zlib

import numpy as np
import pytest
from scipy.special import erf

from binloc import engine as E
from binloc.model import EncoderBlock
from binloc.optim import AdamState, OptimizerError, adam_step, cosine_lr

from helpers import (
    attention_reference,
    central_diff,
    linear_reference,
    max_rel_err,
    mul,
    qkv_attention,
    recorded_attention_reference,
    tsum,
)


def _param(rng, shape):
    return E.parameter(rng.standard_normal(shape), dtype=np.float64)


def _zero_bias(n):
    return E.Tensor(np.zeros(n), dtype=np.float64)


def _times(a, c):
    """``a`` times the constant ``c``, held in a tensor of ``a``'s dtype."""
    return mul(a, E.Tensor(c, dtype=a.dtype))


class TestMatmul:
    """The GEMM inside ``linear``, seen with a zero bias."""

    def test_identity(self):
        eye = E.Tensor([[1.0, 0.0], [0.0, 1.0]])
        m = E.Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(E.linear(m, eye, E.Tensor(np.zeros(2))).data, m.data)

    def test_hand_example(self):
        a = E.Tensor([[1.0, 2.0]])
        b = E.Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(E.linear(a, b, E.Tensor([0.0])).data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        a = E.Tensor(np.zeros((2, 3)))
        b = E.Tensor(np.zeros((4, 5)))
        with pytest.raises(E.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            E.linear(a, b, E.Tensor(np.zeros(5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        a = _param(rng, (5, 7))
        b = _param(rng, (7, 3))
        w = rng.standard_normal((5, 3))

        def run():
            with E.Graph() as g:
                out = E.linear(a, b, _zero_bias(3))
                loss = tsum(mul(out, E.Tensor(w, dtype=np.float64)))
            return g, loss

        g, loss = run()
        g.backward(loss)
        fd_a, fd_b = central_diff(lambda: run()[1].item(), [a.data, b.data])
        assert max_rel_err(a.grad, fd_a) <= 1e-4
        assert max_rel_err(b.grad, fd_b) <= 1e-4

    def test_batched_broadcast(self):
        rng = np.random.default_rng(3)
        a = _param(rng, (4, 2, 5, 6))
        b = _param(rng, (6, 3))
        out = E.linear(a, b, _zero_bias(3))
        assert out.shape == (4, 2, 5, 3)
        with E.Graph() as g:
            loss = tsum(E.linear(a, b, _zero_bias(3)))
        g.backward(loss)
        assert b.grad.shape == (6, 3)
        assert a.grad.shape == (4, 2, 5, 6)


def _token_inputs(q, k, v):
    """Arrays for ``attention`` whose q, k and v maps give the (batch, n, d)
    arrays ``q``, ``k`` and ``v`` up to rounding, and whose out-projection
    is the identity: x, the norm's gain and bias, the three maps' w and b,
    and the out-projection's w and b.

    Token j of the flattened batch is +1 and -1 in features 2j and 2j + 1
    and 0 elsewhere, so its layer norm is +s and -s there, and row 2j of
    each map holds the token's q, k or v over s."""
    b, n, d = q.shape
    tokens = b * n
    j = np.arange(tokens)
    x = np.zeros((tokens, 2 * tokens))
    x[j, 2 * j], x[j, 2 * j + 1] = 1.0, -1.0
    s = 1.0 / np.sqrt(1.0 / tokens + 1e-5)  # each row's variance is 1 / tokens

    def weights(t):
        w = np.zeros((2 * tokens, d))
        w[2 * j] = np.reshape(t, (tokens, d)) / s
        return w

    arrays = [x.reshape(b, n, -1), np.ones(2 * tokens), np.zeros(2 * tokens)]
    for t in (q, k, v):
        arrays += [weights(t), np.zeros(d)]
    return [a.astype(q.dtype) for a in arrays + [np.eye(d), np.zeros(d)]]


def _attention_op(heads, capture=None):
    """``attention`` on its 11 operands in order: x, gain, bias, the q, k
    and v maps' w and b, and the out-projection's w and b."""
    def op(x, gain, bias, *wb):
        pairs = list(zip(wb[::2], wb[1::2]))
        return E.attention(x, gain, bias, pairs[:3], *pairs[3], heads, capture)
    return op


def _attend(q, k, v, heads, capture=None):
    """``attention`` whose q, k and v are those of tensors ``q``, ``k`` and
    ``v`` up to rounding (see ``_token_inputs``)."""
    arrays = _token_inputs(q.data, k.data, v.data)
    return _attention_op(heads, capture)(*map(E.Tensor, arrays))


def _attention_maps(q, k, heads=1):
    """The softmax maps of ``attention`` over ``q`` and ``k`` (v = q)."""
    capture = []
    _attend(q, k, q, heads, capture)
    return capture[0]


class TestSoftmax:
    """The softmax inside ``attention``, seen through its captured maps."""

    def test_uniform(self):
        q = E.Tensor(np.zeros((1, 3, 2)))
        out = _attention_maps(q, E.Tensor(np.ones((1, 3, 2))))
        np.testing.assert_allclose(out, 1 / 3, atol=1e-7)

    def test_large_input_stable(self):
        # one head of width 1: the logits are q_i * k_j = [1000, 0] in every row
        q = E.Tensor(np.ones((1, 2, 1)), dtype=np.float64)
        k = E.Tensor([[[1000.0], [0.0]]], dtype=np.float64)
        out = _attention_maps(q, k)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, 0], [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        q = E.Tensor(rng.standard_normal((2, 17, 8)) * 2)
        k = E.Tensor(rng.standard_normal((2, 17, 8)) * 2)
        out = _attention_maps(q, k, heads=2)
        assert out.shape == (2, 2, 17, 17)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out > 0)

    def test_invalid_axis(self):
        # the heads must split the feature axis evenly
        x = E.Tensor(np.zeros((1, 2, 6)))
        with pytest.raises(E.ShapeError, match="6 does not split into 4 heads"):
            _attend(x, x, x, heads=4)

    def test_gradient(self):
        # with v = I (one head as wide as the sequence) the output is the
        # maps; the q and k maps' weights carry the gradient
        rng = np.random.default_rng(6)
        q, k = rng.standard_normal((2, 3, 5, 5))
        v = np.broadcast_to(np.eye(5), (3, 5, 5))
        operands = [E.Tensor(a) for a in _token_inputs(q, k, v)]
        wq, wk = (E.parameter(operands[i].data) for i in (3, 5))
        operands[3], operands[5] = wq, wk
        w = rng.standard_normal((3, 5, 5))

        def run():
            with E.Graph() as g:
                out = _attention_op(heads=1)(*operands)
                loss = tsum(mul(out, E.Tensor(w, dtype=np.float64)))
            return g, loss

        g, loss = run()
        g.backward(loss)
        # the norm scales each weight by about 3.9, so a step of 2.5e-4 in a
        # weight moves q or k by about 1e-3
        fd_q, fd_k = central_diff(lambda: run()[1].item(), [wq.data, wk.data],
                                  h=2.5e-4)
        assert max_rel_err(wq.grad, fd_q) <= 1e-4
        assert max_rel_err(wk.grad, fd_k) <= 1e-4


class TestLayerNorm:
    def test_constant_input_zero_output(self):
        x = E.Tensor(np.full(6, 3.5))
        gain = E.Tensor(np.ones(6))
        bias = E.Tensor(np.zeros(6))
        out = E.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_normalizes_mean_and_variance(self):
        x = E.Tensor([1.0, 2.0, 3.0])
        out = E.layer_norm(x, E.Tensor(np.ones(3)), E.Tensor(np.zeros(3)))
        assert abs(out.data.mean()) <= 1e-5
        assert abs(out.data.var() - 1.0) <= 1e-4

    def test_gain_bias_shape_check(self):
        with pytest.raises(E.ShapeError):
            E.layer_norm(E.Tensor(np.zeros((2, 4))), E.Tensor(np.ones(3)),
                         E.Tensor(np.zeros(3)))

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = _param(rng, (4, 6))
        gain = _param(rng, (6,))
        bias = _param(rng, (6,))
        w = rng.standard_normal((4, 6))

        def run():
            with E.Graph() as g:
                out = E.layer_norm(x, gain, bias)
                loss = tsum(mul(out, E.Tensor(w, dtype=np.float64)))
            return g, loss

        g, loss = run()
        g.backward(loss)
        fds = central_diff(lambda: run()[1].item(), [x.data, gain.data, bias.data])
        assert max_rel_err(x.grad, fds[0]) <= 1e-4
        assert max_rel_err(gain.grad, fds[1]) <= 1e-4
        assert max_rel_err(bias.grad, fds[2]) <= 1e-4


class TestGelu:
    def test_zero(self):
        assert E.gelu(E.Tensor([0.0])).data[0] == 0.0

    def test_matches_erf_formula(self):
        x = np.linspace(-4, 4, 33)
        out = E.gelu(E.Tensor(x, dtype=np.float64)).data
        expected = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = _param(rng, (10,))

        def run():
            with E.Graph() as g:
                loss = tsum(E.gelu(x))
            return g, loss

        g, loss = run()
        g.backward(loss)
        (fd,) = central_diff(lambda: run()[1].item(), [x.data])
        assert max_rel_err(x.grad, fd) <= 1e-4


class TestDropout:
    def test_eval_is_identity_object(self):
        x = E.Tensor(np.arange(5.0))
        assert E.dropout(x, 0.5, None) is x

    def test_rate_zero_identity(self):
        x = E.Tensor(np.arange(5.0))
        assert E.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_survivor_fraction(self):
        rng = np.random.default_rng(9)
        x = E.Tensor(np.ones(1_000_000))
        out = E.dropout(x, 0.2, rng)
        frac = np.count_nonzero(out.data) / x.size
        assert abs(frac - 0.8) <= 0.01
        # survivors rescaled by 1/(1-rate)
        np.testing.assert_allclose(out.data[out.data != 0], 1.0 / 0.8, atol=1e-6)

    def test_rate_one_rejected(self):
        with pytest.raises(E.ParameterError):
            E.dropout(E.Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_backward_passes_mask(self):
        x = E.parameter(np.ones(1000), dtype=np.float64)
        with E.Graph() as g:
            out = E.dropout(x, 0.3, np.random.default_rng(4))
            loss = tsum(out)
        g.backward(loss)
        mask = out.data != 0
        np.testing.assert_allclose(x.grad[mask], 1 / 0.7, atol=1e-9)
        np.testing.assert_allclose(x.grad[~mask], 0.0)


class TestBackward:
    def test_sum_gives_ones(self):
        p = E.parameter(np.arange(6.0).reshape(2, 3))
        with E.Graph() as g:
            loss = tsum(p)
        g.backward(loss)
        np.testing.assert_array_equal(p.grad, np.ones((2, 3), dtype=np.float32))

    def test_sum_of_squares(self):
        p = E.parameter([1.0, 2.0])
        with E.Graph() as g:
            loss = tsum(mul(p, p))
        g.backward(loss)
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_pure_addition_graph_linearity(self):
        ps = [E.parameter(np.ones(3)) for _ in range(4)]
        with E.Graph() as g:
            acc = ps[0]
            for p in ps[1:]:
                acc = E.add(acc, p)
            loss = tsum(acc)
        g.backward(loss)
        for p in ps:
            np.testing.assert_array_equal(p.grad, np.ones(3, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        p = E.parameter(np.ones(3))
        with E.Graph() as g:
            out = E.add(p, p)
        with pytest.raises(E.GraphError):
            g.backward(out)

    def test_second_backward_rejected(self):
        p = E.parameter(np.ones(3))
        with E.Graph() as g:
            loss = tsum(p)
        g.backward(loss)
        with pytest.raises(E.GraphError):
            g.backward(loss)

    def test_reused_parameter_accumulates(self):
        p = E.parameter([2.0])
        with E.Graph() as g:
            loss = tsum(E.add(mul(p, p), p))  # p^2 + p -> 2p + 1
        g.backward(loss)
        np.testing.assert_allclose(p.grad, [5.0])

    def test_grad_set_on_leaves_only(self):
        p = E.parameter([2.0])
        with E.Graph() as g:
            square = mul(p, p)
            total = E.add(square, p)
            loss = tsum(total)
        g.backward(loss)
        np.testing.assert_allclose(p.grad, [5.0])
        for t in (square, total, loss):
            assert t.requires_grad and t.grad is None

    def test_no_recording_outside_graph(self):
        p = E.parameter([1.0])
        out = mul(p, p)
        assert out.requires_grad is False

    def test_loss_from_outside_the_graph_rejected(self):
        p = E.parameter(np.ones(3))
        with E.Graph() as g:
            square = mul(p, p)
        loss = tsum(square)  # computed after the block: not on the tape
        with pytest.raises(E.GraphError, match="not recorded on this graph"):
            g.backward(loss)
        assert p.grad is None

    def test_dropped_residual_sum_freed_before_backward(self):
        # layer_norm's backward reads its xhat, not its input
        p = E.parameter(np.ones((2, 4)))
        q = E.parameter(np.arange(8.0).reshape(2, 4))
        gain, bias = E.parameter(np.ones(4)), E.parameter(np.zeros(4))
        with E.Graph() as g:
            x = E.add(p, q)
            sum_data = weakref.ref(x.data)
            x = E.layer_norm(x, gain, bias)
            loss = tsum(x)
        assert sum_data() is None
        g.backward(loss)
        assert p.grad is not None and q.grad is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_only_its_derivative(self, dtype):
        x = np.linspace(-4.0, 4.0, 17).astype(dtype)
        wt = np.linspace(0.5, 1.5, 17).astype(dtype)
        p = E.parameter(x, dtype=dtype)
        with E.Graph() as g:
            y = _times(p, 2.0)
            gelu_in = weakref.ref(y.data)
            y = E.gelu(y)
            loss = tsum(mul(y, E.Tensor(wt)))
        assert gelu_in() is None
        (kept,) = _closure_arrays(g._nodes[1][1])
        assert kept.shape == x.shape
        g.backward(loss)
        # reference: g * (cdf + x * pdf), computed from the input
        xs = x * dtype(2.0)
        half = dtype(0.5)
        cdf = half * (dtype(1.0) + erf(xs * dtype(0.7071067811865476)))
        pdf = np.exp(-half * xs * xs) * dtype(0.3989422804014327)
        want = (wt * (cdf + xs * pdf)) * 2.0
        assert p.grad.dtype == dtype and np.array_equal(p.grad, want)

    def test_backward_keeps_node_count_and_still_rejects_a_second_run(self):
        p = E.parameter(np.ones(3))
        with E.Graph() as g:
            x = mul(p, p)
            kept = weakref.ref(x.data)  # mul keeps its factors
            loss = tsum(mul(x, x))
        assert len(g) == 3 and kept() is not None
        g.backward(loss)
        assert len(g) == 3 and kept() is x.data
        del x
        assert kept() is None
        with pytest.raises(E.GraphError, match="already run"):
            g.backward(loss)

    def test_output_of_outer_tape_is_a_leaf_on_inner_tape(self):
        p = E.parameter([1.0, 2.0])
        with E.Graph() as outer:
            y = mul(p, p)
            with E.Graph() as inner:
                loss = tsum(_times(y, 3.0))
        assert len(outer) == 1 and len(inner) == 2
        inner.backward(loss)
        np.testing.assert_array_equal(y.grad, np.full(2, 3.0, dtype=np.float32))
        assert p.grad is None

    def test_output_keeps_no_tape_alive(self):
        # a tape that never reaches backward is freed with its graph
        p = E.parameter(np.ones(3))
        with E.Graph() as g:
            x = _times(p, 2.0)
            saved = weakref.ref(x.data)
            loss = tsum(E.gelu(x))
        del x, g
        assert saved() is None and loss.requires_grad

    def test_add_and_sub_skip_inputs_without_grad(self):
        p = E.parameter(np.ones((2, 3)))
        table = E.Tensor(np.ones((1, 3)))
        for op in (E.add, E.sub):
            for a, b in ((p, table), (table, p)):
                with E.Graph() as g:
                    op(a, b)
                ((_parents, backward),) = g._nodes
                grads = backward(np.ones((2, 3), dtype=np.float32))
                assert [x is None for x in grads] == [a is table, b is table]

    def test_tape_is_per_thread(self):
        p = E.parameter(np.ones(3))
        worker_tapes = []

        def worker():
            _times(p, 2.0)  # the main thread's graph is not this thread's
            with E.Graph() as g:
                _times(p, 3.0)
                _times(p, 4.0)
            worker_tapes.append(len(g))

        with E.Graph() as g:
            _times(p, 1.0)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(g) == 1
        assert worker_tapes == [2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [None, 0, 1, -1])
@pytest.mark.parametrize("mean", [False, True])
def test_sum_and_mean_match_numpy_bitwise(dtype, axis, mean):
    # numpy's reduction in float64, cast back; backward spreads the upstream
    # gradient over the reduced axis, divided by the count for the mean
    rng = np.random.default_rng(11)
    x = E.parameter(rng.standard_normal((5, 7, 3)), dtype=dtype)
    op, reference = (E.tmean, np.mean) if mean else (tsum, np.sum)
    with E.Graph() as g:
        out = op(x, axis=axis)
    expected = reference(x.data, axis=axis, dtype=np.float64).astype(dtype)
    assert out.dtype == dtype and np.array_equal(out.data, expected)

    upstream = rng.standard_normal(out.shape).astype(dtype)
    ((_parents, backward),) = g._nodes
    (grad,) = backward(upstream)
    spread = upstream if axis is None else np.expand_dims(upstream, axis)
    if mean:
        spread = spread / (x.size if axis is None else x.shape[axis])
    expected = np.broadcast_to(spread, x.shape)
    assert grad.dtype == dtype and np.array_equal(grad, expected)


@pytest.mark.parametrize("opname", ["add", "sub", "mul", "tmean", "concat",
                                    "linear", "norm_linear", "attention"])
def test_op_gradients_match_finite_differences(opname):
    # str hash() is salted per process; crc32 keeps the inputs fixed
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    a = E.parameter(rng.uniform(0.3, 1.7, (4, 6)), dtype=np.float64)
    b = E.parameter(rng.uniform(0.3, 1.7, (4, 6)), dtype=np.float64)
    # the fused ops take 3-D inputs: (batch, n, features)
    x = E.parameter(rng.uniform(0.3, 1.7, (2, 3, 6)), dtype=np.float64)
    w = E.parameter(rng.uniform(-1.0, 1.0, (6, 5)), dtype=np.float64)
    bias = E.parameter(rng.uniform(-1.0, 1.0, (5,)), dtype=np.float64)
    # the norm's affine, attention's q, k and v maps and its out-projection
    gain, shift = (E.parameter(rng.uniform(-1.0, 1.0, (6,)), dtype=np.float64)
                   for _ in range(2))
    maps = [(E.parameter(rng.uniform(-1.0, 1.0, (6, 4)), dtype=np.float64),
             E.parameter(rng.uniform(-1.0, 1.0, (4,)), dtype=np.float64))
            for _ in range(3)]
    w_out = E.parameter(rng.uniform(-1.0, 1.0, (4, 5)), dtype=np.float64)

    def build():
        if opname == "add":
            return E.add(a, b), [a, b]
        if opname == "sub":
            return E.sub(a, b), [a, b]
        if opname == "mul":
            return mul(a, b), [a, b]
        if opname == "tmean":
            return E.tmean(a, axis=1), [a]
        if opname == "concat":
            return E.concat([a, b]), [a, b]
        if opname == "linear":
            return E.linear(x, w, bias), [x, w, bias]
        if opname == "norm_linear":
            return E.norm_linear(x, gain, shift, w, bias), [x, gain, shift, w, bias]
        if opname == "attention":
            return (E.attention(x, gain, shift, maps, w_out, bias, heads=2, capture=[]),
                    [x, gain, shift, *(t for m in maps for t in m), w_out, bias])
        raise AssertionError(opname)

    def run():
        with E.Graph() as g:
            out, tracked = build()
            wt = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)
            loss = tsum(mul(out, E.Tensor(wt, dtype=np.float64)))
        return g, loss, tracked

    g, loss, tracked = run()
    g.backward(loss)
    fds = central_diff(lambda: run()[1].item(), [t.data for t in tracked])
    for t, fd in zip(tracked, fds):
        assert max_rel_err(t.grad, fd, floor=1e-5) <= 1e-4, opname


def _old_linear_chain(x, w, b, g):
    """The reshape -> matmul -> add -> reshape chain ``linear`` replaced."""
    flat = x.reshape(-1, x.shape[-1])
    y = (np.matmul(flat, w) + b).reshape(x.shape[:-1] + (w.shape[1],))
    g2 = g.reshape(-1, w.shape[1])
    gx = np.matmul(g2, np.swapaxes(w, -1, -2)).reshape(x.shape)
    return y, (gx, np.matmul(np.swapaxes(flat, -1, -2), g2), g2.sum(axis=(0,)))


def _closure_arrays(fn):
    """The arrays a backward closure holds, directly or through the
    functions and sequences it holds."""
    found, todo, seen = [], [fn], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


def _run_fused(op, inputs, out_shape, seed):
    """Forward ``op`` on float32 parameters and backprop sum(out * w)."""
    params = [E.parameter(a) for a in inputs]
    wt = np.random.default_rng(seed).standard_normal(out_shape).astype(np.float32)
    with E.Graph() as g:
        out = op(*params)
        loss = tsum(mul(out, E.Tensor(wt)))
    g.backward(loss)
    return out.data, [p.grad for p in params], wt


def _attention_arrays(rng, b, n, d_in, dim, d_out, dtype):
    """Random operands for ``_attention_op``: x (b, n, d_in), the norm's
    gain and bias, q, k and v maps to ``dim`` features, and an
    out-projection to ``d_out``."""
    arrays = [(rng.standard_normal((b, n, d_in)) * 3 + 1).astype(dtype)]
    arrays += [rng.standard_normal(d_in).astype(dtype) for _ in range(2)]
    for rows, cols in ((d_in, dim),) * 3 + ((dim, d_out),):
        arrays += [(rng.standard_normal((rows, cols)) * 0.2).astype(dtype),
                   rng.standard_normal(cols).astype(dtype)]
    return arrays


def _old_layer_norm(a, gain, bias, g, eps=1e-5):
    """``layer_norm`` and its backward with a fresh array per step."""
    mean = a.mean(axis=-1, keepdims=True, dtype=np.float64)
    centered = a - mean.astype(a.dtype)
    var = np.square(centered).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(a.dtype)
    xhat = centered * inv
    red = tuple(range(g.ndim - 1))
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias,
            (inv * (gx - m1 - xhat * m2), (g * xhat).sum(axis=red), g.sum(axis=red)))


class TestFusedOps:
    @pytest.mark.parametrize("x_dtype,p_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64)])
    def test_layer_norm_matches_fresh_temporaries_bitwise(self, x_dtype, p_dtype):
        rng = np.random.default_rng(26)
        x = (rng.standard_normal((6, 11, 40)) * 3 + 1).astype(x_dtype)
        gain = rng.standard_normal(40).astype(p_dtype)
        bias = rng.standard_normal(40).astype(p_dtype)
        out, grads, wt = _run_fused(E.layer_norm, (x, gain, bias), x.shape, 27)
        ref, ref_grads = _old_layer_norm(x, gain, bias, wt.astype(out.dtype))
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=lambda v: np.dtype(v).name)
    # 3-D and 2-D input, and an empty batch of each
    @pytest.mark.parametrize("shape", [(4, 7, 24), (9, 24), (0, 7, 24), (0, 24)],
                             ids=lambda v: "x".join(map(str, v)))
    # an input without a gradient, as the patches ``embed`` projects
    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
    def test_linear_matches_old_chain_bitwise(self, dtype, shape, x_grad):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(shape).astype(dtype)
        w = (rng.standard_normal((24, 40)) * 0.1).astype(dtype)
        b = rng.standard_normal(40).astype(dtype)
        g = rng.standard_normal(shape[:-1] + (40,)).astype(dtype)
        xt = E.Tensor(x, requires_grad=x_grad)
        wt, bt = E.parameter(w), E.parameter(b)
        with E.Graph() as graph:
            out = E.linear(xt, wt, bt)
            loss = tsum(mul(out, E.Tensor(g)))
        graph.backward(loss)
        ref, (gx, gw, gb) = linear_reference(x, w, b, g)
        assert out.data.dtype == ref.dtype and np.array_equal(out.data, ref)
        assert (xt.grad is None) if not x_grad else np.array_equal(xt.grad, gx)
        for got, want in ((wt.grad, gw), (bt.grad, gb)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("x_dtype,p_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64)])
    @pytest.mark.parametrize("n", [55, 180])
    def test_norm_linear_matches_layer_norm_then_linear_bitwise(
            self, x_dtype, p_dtype, n):
        # the parent's sequence: one layer_norm node, then one linear node
        rng = np.random.default_rng(29)
        x = (rng.standard_normal((2, n, 16)) * 3 + 1).astype(x_dtype)
        arrays = [x] + [rng.standard_normal(16).astype(p_dtype) for _ in range(2)]
        arrays += [(rng.standard_normal((16, 24)) * 0.2).astype(p_dtype),
                   rng.standard_normal(24).astype(p_dtype)]

        def parent(x, gain, bias, w, b):
            return E.linear(E.layer_norm(x, gain, bias), w, b)

        out, grads, _ = _run_fused(E.norm_linear, arrays, (2, n, 24), 30)
        ref, ref_grads, _ = _run_fused(parent, arrays, (2, n, 24), 30)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_norm_linear_keeps_only_xhat_and_inv(self):
        rng = np.random.default_rng(31)
        x, gain, bias = _param(rng, (3, 7, 8)), _param(rng, (8,)), _param(rng, (8,))
        w, b = _param(rng, (8, 16)), _param(rng, (16,))
        with E.Graph() as g:
            E.norm_linear(x, gain, bias, w, b)
        ((_parents, backward),) = g._nodes
        params = {id(t.data) for t in (gain, bias, w, b)}
        kept = [a for a in _closure_arrays(backward) if id(a) not in params]
        assert sorted(a.shape for a in kept) == [(3, 7, 1), (3, 7, 8)]

    @staticmethod
    def _check_attention_against_parent(shape, heads, dtype, capture):
        # the parent's sequence: the layer norm and the q, k and v maps, as
        # one layer_norm node and a linear node per map joined by concat,
        # which is how norm_linear computed them, then attention over the
        # joined q/k/v with its out-projection; shape is (batch, n, d_in,
        # dim, d_out)
        b, n, d_in, d, d_out = shape
        arrays = _attention_arrays(np.random.default_rng(22), b, n, d_in, d, d_out, dtype)

        def parent(x, gain, bias, *wb, maps):
            h = E.layer_norm(x, gain, bias)
            qkv = E.concat([E.linear(h, w, b) for w, b in zip(wb[:6:2], wb[1:6:2])])
            return qkv_attention(qkv, wb[6], wb[7], heads, maps)

        runs = []
        for op in (lambda *t, maps: _attention_op(heads, maps)(*t), parent):
            maps = [] if capture else None
            out, grads, _ = _run_fused(lambda *t: op(*t, maps=maps), arrays,
                                       (b, n, d_out), 23)
            runs.append([out, *(maps or []), *grads])
        assert len(runs[0]) == len(runs[1]) == 12 + capture
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
        # no tape: the norm's arrays are let go, and without a capture list
        # the softmax ends in the block buffer
        plain = _attention_op(heads, [] if capture else None)(*map(E.Tensor, arrays))
        assert np.array_equal(plain.data, runs[1][0])

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("shape,dtype", [
        ((5, 19, 24, 16, 20), np.float32), ((5, 19, 24, 16, 20), np.float64),
        # desk and stride-6 patch counts; at 180 each block is one sample
        ((3, 55, 24, 32, 36), np.float32), ((3, 55, 24, 32, 36), np.float64),
        ((2, 55, 24, 32, 36), np.float64),
        ((3, 180, 24, 32, 36), np.float32), ((3, 180, 24, 32, 36), np.float64),
        ((2, 180, 24, 32, 36), np.float64),
        # the desk model's width at one sample per block: GEMM shapes set the bits
        ((1, 180, 128, 128, 128), np.float32),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else np.dtype(v).name)
    def test_attention_matches_norm_maps_then_qkv_attention_bitwise(
            self, shape, dtype, capture):
        self._check_attention_against_parent(shape, 4, dtype, capture)

    def test_attention_with_a_short_last_block_matches_parent_bitwise(self, monkeypatch):
        # blocks of 2 samples
        monkeypatch.setattr(E, "_ATTENTION_BLOCK_BYTES", 2 * 4 * 19 * 19 * 4)
        self._check_attention_against_parent((5, 19, 24, 16, 20), 4, np.float32, True)

    def test_qkv_attention_matches_old_chain_bitwise(self):
        # the reference itself: softmax attention, then its out-projection
        # as a separate linear
        rng = np.random.default_rng(22)
        b, n, d, heads = 3, 55, 32, 4
        q, k, v = (rng.standard_normal((b, n, d)).astype(np.float32) for _ in range(3))
        w = (rng.standard_normal((d, d + 4)) * 0.2).astype(np.float32)
        bias = rng.standard_normal(d + 4).astype(np.float32)
        y, ref_maps, _ = attention_reference(q, k, v, heads, np.zeros_like(q))
        capture = []
        out, grads, g = _run_fused(lambda *t: qkv_attention(*t, heads, capture),
                                   (np.concatenate([q, k, v], axis=-1), w, bias),
                                   (b, n, d + 4), 23)
        ref, (gy, gw, gb) = _old_linear_chain(y, w, bias, g)
        _, _, qkv_grads = attention_reference(q, k, v, heads, gy)
        assert np.array_equal(out, ref) and np.array_equal(capture[0], ref_maps)
        for got, want in zip(grads, (np.concatenate(qkv_grads, axis=-1), gw, gb)):
            assert np.array_equal(got, want)

    def test_block_size_does_not_change_results(self, monkeypatch):
        arrays = _attention_arrays(np.random.default_rng(24), 5, 23, 10, 12, 12,
                                   np.float32)
        map_bytes = 3 * 23 * 23 * 4
        runs = []
        for samples in (1, 2, 5):
            monkeypatch.setattr(E, "_ATTENTION_BLOCK_BYTES", samples * map_bytes)
            capture = []
            out, grads, _ = _run_fused(_attention_op(3, capture), arrays,
                                       (5, 23, 12), 25)
            runs.append((out, capture[0], *grads))
        for other in runs[1:]:
            for got, want in zip(other, runs[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [55, 180])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_encoder_block_matches_parent_op_sequence_bitwise(
            self, dtype, n, shared, dropout):
        # a shared ear pathway runs both ears through one block on one tape
        rng = np.random.default_rng(32)
        params = []

        def param(name, shape, fill):
            data = rng.standard_normal(shape) * 0.3 + (fill == "ones")
            params.append(E.parameter(data, name=name, dtype=dtype))
            return params[-1]

        block = EncoderBlock(32, 4, 64, dropout, param, "block")
        ears = [rng.standard_normal((2, n, 32)) for _ in range(1 + shared)]
        weights = [rng.standard_normal((2, n, 32)) for _ in ears]

        def parent(x, drop_rng, capture):
            a, m = block.attn, block.mlp
            h = E.layer_norm(x, block.norm1.gain, block.norm1.bias)
            y = recorded_attention_reference(*(E.linear(h, t.w, t.b) for t in (a.q, a.k, a.v)),
                                             a.heads, capture)
            x = E.add(x, E.linear(y, a.out.w, a.out.b))
            h = E.layer_norm(x, block.norm2.gain, block.norm2.bias)
            h = E.dropout(E.gelu(E.linear(h, m.fc1.w, m.fc1.b)), m.dropout, drop_rng)
            return E.add(x, E.dropout(E.linear(h, m.fc2.w, m.fc2.b), m.dropout, drop_rng))

        def run(step):
            xs = [E.parameter(x, dtype=dtype) for x in ears]
            drop_rng, capture = np.random.default_rng(33), []
            with E.Graph() as g:
                outs = [step(x, drop_rng, capture) for x in xs]
                loss = tsum(E.concat([tsum(mul(out, E.Tensor(wt, dtype=dtype)), axis=0)
                                        for out, wt in zip(outs, weights)]))
            g.backward(loss)
            grads = [p.grad for p in params] + [x.grad for x in xs]
            for p in params:
                p.grad = None
            return [out.data for out in outs] + capture + grads

        got, want = run(block), run(parent)
        assert len(got) == len(want) == 3 * len(ears) + len(params)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)

    def test_zero_d_input_is_a_shape_error(self):
        x, ones = E.Tensor(np.float64(2.0)), E.Tensor(np.ones(4))
        w, b = E.Tensor(np.zeros((4, 5))), E.Tensor(np.zeros(5))
        with pytest.raises(E.ShapeError,
                           match=r"layer_norm needs x \(\.\.\., n\), got shape \(\)"):
            E.layer_norm(x, ones, ones)
        with pytest.raises(E.ShapeError, match=r"norm_linear needs .*got \(\), \(4, 5\)"):
            E.norm_linear(x, ones, ones, w, b)
        with pytest.raises(E.ShapeError, match=r"linear needs .*got \(\), \(4, 5\)"):
            E.linear(x, w, b)

    def test_linear_bias_shape_checked(self):
        with pytest.raises(E.ShapeError, match=r"\(4,\)"):
            E.linear(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((3, 5))),
                     E.Tensor(np.zeros(4)))

    def test_norm_linear_shapes_checked(self):
        x, ones = E.Tensor(np.zeros((2, 3, 4))), E.Tensor(np.ones(4))
        w, b = E.Tensor(np.zeros((4, 5))), E.Tensor(np.zeros(5))
        with pytest.raises(E.ShapeError, match=r"\(2, 3, 4\), \(3, 5\) and \(5,\)"):
            E.norm_linear(x, ones, ones, E.Tensor(np.zeros((3, 5))), b)
        with pytest.raises(E.ShapeError, match=r"\(4, 5\) and \(4,\)"):
            E.norm_linear(x, ones, ones, w, ones)
        with pytest.raises(E.ShapeError, match=r"must have shape \(4,\)"):
            E.norm_linear(x, ones, E.Tensor(np.ones(3)), w, b)

    def test_attention_operand_shapes_checked(self):
        x, ones = E.Tensor(np.zeros((2, 3, 6))), E.Tensor(np.ones(6))
        m = (E.Tensor(np.zeros((6, 4))), E.Tensor(np.zeros(4)))
        w, b = E.Tensor(np.zeros((4, 4))), E.Tensor(np.zeros(4))
        with pytest.raises(E.ShapeError, match=r"v, got \(2, 3, 6\) and 2 maps"):
            E.attention(x, ones, ones, [m, m], w, b, heads=2)
        with pytest.raises(E.ShapeError, match=r"v, got \(3, 6\) and 3 maps"):
            E.attention(E.Tensor(np.zeros((3, 6))), ones, ones, [m] * 3, w, b, heads=2)
        wide = (E.Tensor(np.zeros((6, 5))), E.Tensor(np.zeros(5)))
        with pytest.raises(E.ShapeError, match=r"one width, got \[4, 4, 5\]"):
            E.attention(x, ones, ones, [m, m, wide], w, b, heads=2)
        with pytest.raises(E.ShapeError, match="dim 4 does not split into 3 heads"):
            E.attention(x, ones, ones, [m] * 3, w, b, heads=3)
        with pytest.raises(E.ShapeError, match=r"w \(4, d_out\).*\(5, 4\) and \(4,\)"):
            E.attention(x, ones, ones, [m] * 3, E.Tensor(np.zeros((5, 4))), b, heads=2)
        with pytest.raises(E.ShapeError, match=r"\(4, 4\) and \(3,\)"):
            E.attention(x, ones, ones, [m] * 3, w, E.Tensor(np.zeros(3)), heads=2)
        # each map's operands, and the norm's gain and bias
        narrow = (E.Tensor(np.zeros((5, 4))), m[1])
        with pytest.raises(E.ShapeError, match=r"\(2, 3, 6\), \(5, 4\) and \(4,\)"):
            E.attention(x, ones, ones, [m, narrow, m], w, b, heads=2)
        with pytest.raises(E.ShapeError, match=r"\(6, 4\) and \(6,\)"):
            E.attention(x, ones, ones, [m, m, (m[0], ones)], w, b, heads=2)
        with pytest.raises(E.ShapeError, match=r"must have shape \(6,\)"):
            E.attention(x, ones, E.Tensor(np.ones(3)), [m] * 3, w, b, heads=2)

    def test_recorded_attention_keeps_only_norm_and_softmax_statistics(
            self, monkeypatch):
        # backward keeps the norm's xhat and inv and each row's softmax max
        # and normalizer: no q, k or v, no maps, and not the merged heads
        monkeypatch.setattr(E, "_ATTENTION_BLOCK_BYTES", 2 * 2 * 17 * 17 * 8)
        rng = np.random.default_rng(28)
        b, n, d_in, d, heads = 3, 17, 6, 8, 2
        x, gain, bias = _param(rng, (b, n, d_in)), _param(rng, (d_in,)), _param(rng, (d_in,))
        maps = [(_param(rng, (d_in, d)), _param(rng, (d,))) for _ in range(3)]
        w, w_bias = _param(rng, (d, d)), _param(rng, (d,))
        with E.Graph() as g:
            E.attention(x, gain, bias, maps, w, w_bias, heads=heads)
        ((_parents, backward),) = g._nodes
        params = {id(t.data) for t in (gain, bias, w, w_bias, *(t for m in maps for t in m))}
        kept = [a for a in _closure_arrays(backward) if id(a) not in params]
        assert sorted(a.shape for a in kept) == [
            (b, heads, n, 1), (b, heads, n, 1), (b, n, 1), (b, n, d_in)]
        for a in kept:
            storage = a if a.base is None else a.base
            assert storage.size <= max(b * n * d_in, 2 * b * heads * n), a.shape

    def test_eval_attention_keeps_no_maps(self):
        q = E.Tensor(np.ones((1, 3, 4)))
        out = _attend(q, q, q, heads=2)
        assert out.requires_grad is False
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)


def _with_grad(p, grad):
    p.grad = np.asarray(grad, dtype=np.float32)
    return p


class TestAdam:
    def test_zero_gradient_leaves_parameter(self):
        p = _with_grad(E.parameter([1.0, 2.0], name="p"), np.zeros(2))
        state = AdamState(lr=0.1)
        adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.step_count == 1

    def test_missing_gradient_counts_as_zero(self):
        p = E.parameter([1.0, 2.0], name="p")
        assert p.grad is None
        state = AdamState(lr=0.1)
        adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.step_count == 1

    def test_first_step_is_bias_corrected_unit_step(self):
        p = _with_grad(E.parameter([1.0], name="p"), np.ones(1))
        adam_step([p], AdamState(lr=0.1))
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_constant_gradient_decreases_monotonically(self):
        p = _with_grad(E.parameter([1.0], name="p"), np.ones(1))
        state = AdamState(lr=0.1)
        values = [p.data[0]]
        for _ in range(2):
            adam_step([p], state)
            values.append(p.data[0])
        assert values[0] > values[1] > values[2]

    def test_nan_gradient_names_parameter(self):
        p = _with_grad(E.parameter([1.0], name="enc.weight"), [np.nan])
        with pytest.raises(OptimizerError, match="enc.weight"):
            adam_step([p], AdamState())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_fresh_temporaries_bitwise(self, dtype):
        rng = np.random.default_rng(30)
        want = rng.standard_normal((7, 5)).astype(dtype)
        p = E.parameter(want.copy(), name="w", dtype=dtype)
        state = AdamState(lr=1e-3)
        m, v = np.zeros_like(want), np.zeros_like(want)
        for t in range(1, 4):
            g = rng.standard_normal(want.shape).astype(dtype)
            p.grad = g
            adam_step([p], state)
            # the update with a fresh array per step
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * (g * g)
            mhat = m / (1.0 - 0.9 ** t)
            vhat = v / (1.0 - 0.999 ** t)
            want -= (1e-3 * mhat / (np.sqrt(vhat) + 1e-8)).astype(dtype)
            assert p.data.dtype == dtype and np.array_equal(p.data, want)

    def test_moment_shapes_track_parameter(self):
        p = _with_grad(E.parameter(np.ones((3, 4)), name="w"), np.ones((3, 4)))
        state = AdamState()
        adam_step([p], state)
        assert state.m[id(p)].shape == (3, 4)
        assert state.v[id(p)].shape == (3, 4)


class TestCosineLr:
    def test_first_epoch_is_peak(self):
        assert cosine_lr(1e-3, 0, 100) == 1e-3

    def test_strictly_decreasing(self):
        rates = [cosine_lr(1e-3, e, 100) for e in range(100)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_last_epoch_small_but_positive(self):
        assert 0.0 < cosine_lr(1e-3, 99, 100) < 0.01 * 1e-3

    def test_single_epoch_runs_at_peak(self):
        assert cosine_lr(5e-4, 0, 1) == 5e-4

    def test_epoch_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="epoch 3"):
            cosine_lr(1e-3, 3, 3)
