"""Architecture contracts: patch geometry, encoders, integration, budgets."""

import dataclasses
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import engine as E
from binloc import model as model_module
from binloc import util
from binloc.checkpoint import CheckpointError, load_tensors, save_tensors
from binloc.config import desk_profile
from binloc.frontend import FrontendConfig, FrontendError, load_spectrogram_cache
from binloc.losses import make_loss
from binloc.model import (
    BinauralTransformer,
    ConfigError,
    EncoderStack,
    ModelConfig,
    extract_patches,
    integrate,
    patch_counts,
    sincos_position_table,
)
from binloc.util import from_kv, to_kv
from helpers import MALFORMED_HEADERS, fail_writes_after, mul, tensor_file_bytes

TINY = ModelConfig(height=20, width=16, patch=8, stride=6, dim=32, layers=1,
                   heads=2, mlp_dim=32, dropout=0.0, integration="sub")


def _sliding_count(extent, patch, stride):
    """Independent oracle: slide windows until the extent is covered."""
    n = 1
    while (n - 1) * stride + patch < extent:
        n += 1
    return n


class TestPatchCounts:
    def test_canonical_geometry(self):
        grid = patch_counts(129, 61, 16, 6)
        assert (grid.n_h, grid.n_t) == (20, 9)
        assert (grid.pad_top, grid.pad_right) == (1, 3)
        assert grid.n_patches == 180

    def test_single_patch(self):
        for stride in (1, 3, 16):
            grid = patch_counts(16, 16, 16, stride)
            assert (grid.n_h, grid.n_t, grid.pad_top, grid.pad_right) == (1, 1, 0, 0)

    @given(st.integers(16, 64), st.integers(16, 64), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_sliding_window_oracle(self, height, width, stride):
        grid = patch_counts(height, width, 16, stride)
        assert grid.n_h == _sliding_count(height, 16, stride)
        assert grid.n_t == _sliding_count(width, 16, stride)

    def test_padding_is_consistent(self):
        grid = patch_counts(129, 61, 16, 6)
        assert (grid.n_h - 1) * 6 + 16 == 129 + grid.pad_top
        assert (grid.n_t - 1) * 6 + 16 == 61 + grid.pad_right

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            patch_counts(0, 61, 16, 6)
        with pytest.raises(ConfigError):
            patch_counts(129, 61, 16, 0)


class TestExtractPatches:
    def test_shapes(self):
        grid = patch_counts(20, 16, 8, 6)
        out = extract_patches(np.zeros((3, 20, 16)), 8, 6, grid)
        assert out.shape == (3, grid.n_patches, 64)

    def test_patch_content_row_major(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        grid = patch_counts(4, 4, 2, 2)
        out = extract_patches(x, 2, 2, grid)
        np.testing.assert_array_equal(out[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(out[0, 1], [2, 3, 6, 7])

    def test_zero_padding_at_edges(self):
        x = np.ones((1, 5, 5), dtype=np.float32)
        grid = patch_counts(5, 5, 4, 2)
        out = extract_patches(x, 4, 2, grid)
        # last patch along each axis sticks one row/column into the padding
        assert grid.pad_top == 1 and grid.pad_right == 1
        last = out[0, -1].reshape(4, 4)
        np.testing.assert_array_equal(last[:, -1], 0)
        np.testing.assert_array_equal(last[-1, :], 0)

    @pytest.mark.parametrize("height,width,patch,stride",
                             [(5, 5, 4, 2), (129, 61, 16, 6), (20, 16, 8, 6)])
    def test_matches_np_pad(self, height, width, patch, stride):
        grid = patch_counts(height, width, patch, stride)
        assert grid.pad_top + grid.pad_right > 0
        x = np.random.default_rng(3).standard_normal((2, height, width)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, grid.pad_top), (0, grid.pad_right)))
        expected = np.lib.stride_tricks.sliding_window_view(
            padded, (patch, patch), axis=(1, 2))[:, ::stride, ::stride]
        out = extract_patches(x, patch, stride, grid)
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(
            out, expected.reshape(2, grid.n_patches, patch * patch))


class TestPositionTable:
    def test_shape_and_determinism(self):
        grid = patch_counts(129, 61, 16, 6)
        t1 = sincos_position_table(grid, 64)
        t2 = sincos_position_table(grid, 64)
        assert t1.shape == (180, 64)
        np.testing.assert_array_equal(t1, t2)

    def test_distinct_positions_distinct_rows(self):
        grid = patch_counts(40, 30, 8, 4)
        table = sincos_position_table(grid, 32)
        unique = np.unique(table.round(6), axis=0)
        assert unique.shape[0] == table.shape[0]


class TestEncoderStack:
    def test_zero_layers_is_identity(self):
        def param(name, shape, fill):
            raise AssertionError(f"a 0-layer stack made parameter {name}")

        stack = EncoderStack(16, 0, 2, 16, 0.0, param, "e")
        x = E.Tensor(np.random.default_rng(1).standard_normal((2, 5, 16)))
        out = stack(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_attention_rows_sum_to_one(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(2)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        _, cap = model.forward_with_attention(xl, xr)
        for group in (cap.left, cap.right, cap.center):
            assert len(group) == TINY.layers
            for attn in group:
                np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)

    def test_eval_forward_deterministic(self):
        model = BinauralTransformer(dataclasses.replace(TINY, dropout=0.2), seed=0)
        rng = np.random.default_rng(3)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        np.testing.assert_array_equal(model.predict(xl, xr), model.predict(xl, xr))

    def test_dropout_runs_only_with_an_rng(self):
        model = BinauralTransformer(dataclasses.replace(TINY, dropout=0.2), seed=0)
        rng = np.random.default_rng(3)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        eval_pred = model.predict(xl, xr)
        np.testing.assert_array_equal(model.forward(xl, xr).data, eval_pred)
        dropped = model.forward(xl, xr, rng=np.random.default_rng(0)).data
        assert not np.array_equal(dropped, eval_pred)


class TestIntegrate:
    def test_sub_of_equal_maps_is_zero(self):
        z = E.Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(integrate(z, z, "sub").data, 0.0)

    def test_add_commutes(self):
        rng = np.random.default_rng(1)
        a = E.Tensor(rng.standard_normal((2, 5, 8)))
        b = E.Tensor(rng.standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(integrate(a, b, "add").data,
                                      integrate(b, a, "add").data)

    def test_concat_doubles_canonical_width(self):
        rng = np.random.default_rng(2)
        a = E.Tensor(rng.standard_normal((1, 180, 1024)))
        b = E.Tensor(rng.standard_normal((1, 180, 1024)))
        out = integrate(a, b, "concat")
        assert out.shape == (1, 180, 2048)
        np.testing.assert_array_equal(out.data[..., :1024], a.data)
        np.testing.assert_array_equal(out.data[..., 1024:], b.data)


class TestEmbedding:
    def test_zero_input_gives_bias_plus_position(self):
        model = BinauralTransformer(TINY, seed=0)
        out = model.embed(np.zeros((1, 20, 16)), model.proj_left, rng=None)
        expected = model.proj_left.b.data + model.pos_table.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_canonical_sequence_geometry(self):
        cfg = ModelConfig(dim=64, heads=4, mlp_dim=64, layers=0, dropout=0.0)
        model = BinauralTransformer(cfg, seed=0)
        out = model.embed(np.zeros((1, 129, 61)), model.proj_left, rng=None)
        assert out.shape == (1, 180, 64)

    def test_locality_of_patch_embeddings(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(4)
        base = rng.standard_normal((20, 16))
        bumped = base.copy()
        r, c = 9, 7
        bumped[r, c] += 1.0
        a = model.embed(base[None], model.proj_left, None).data[0]
        b = model.embed(bumped[None], model.proj_left, None).data[0]
        changed = set(np.nonzero(np.abs(a - b).max(axis=1) > 1e-7)[0])
        grid = model.grid
        covering = {
            i * grid.n_t + j
            for i in range(grid.n_h) for j in range(grid.n_t)
            if i * 6 <= r < i * 6 + 8 and j * 6 <= c < j * 6 + 8
        }
        assert changed == covering


class TestForward:
    def test_output_shape(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(5)
        out = model.predict(rng.standard_normal((3, 20, 16)),
                            rng.standard_normal((3, 20, 16)))
        assert out.shape == (3, 2)

    def test_shared_sub_equal_ears_collapse_to_constant(self):
        cfg = dataclasses.replace(TINY, shared=True, integration="sub")
        model = BinauralTransformer(cfg, seed=0)
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal((1, 20, 16))
        x2 = rng.standard_normal((1, 20, 16))
        z = model.integrated(x1, x1)
        np.testing.assert_array_equal(z.data, 0.0)
        np.testing.assert_array_equal(model.predict(x1, x1), model.predict(x2, x2))

    def test_shared_sub_swap_negates_integrated_map(self):
        cfg = dataclasses.replace(TINY, shared=True, integration="sub")
        model = BinauralTransformer(cfg, seed=0)
        rng = np.random.default_rng(7)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        z_fwd = model.integrated(xl, xr).data
        z_swp = model.integrated(xr, xl).data
        assert np.max(np.abs(z_fwd + z_swp)) <= 1e-5

    def test_gradients_reach_every_parameter(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(8)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        with E.Graph() as g:
            pred = model.forward(xl, xr, rng=rng)
            loss = E.tmean(mul(pred, pred))
        g.backward(loss)
        for p in model.parameters():
            assert p.grad is not None, p.name
            assert np.any(p.grad != 0), p.name

    def test_backward_sets_grad_on_parameters_only(self, monkeypatch):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(8)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        outputs, record_op = [], E._record_op

        def gathered(inputs, out_data, backward):
            out = record_op(inputs, out_data, backward)
            outputs.append(out)
            return out

        monkeypatch.setattr(E, "_record_op", gathered)
        with E.Graph() as g:
            pred = model.forward(xl, xr, rng=rng)
            loss = E.tmean(mul(pred, pred))
        produced = [t for t in outputs if t.requires_grad]
        assert len(produced) == len(g)
        assert loss in produced and pred in produced
        g.backward(loss)
        for t in produced:
            assert t.grad is None, t
        for p in model.parameters():
            assert p.grad is not None and p.grad.shape == p.shape, p.name

    @pytest.mark.parametrize("integration", ["concat", "add", "sub"])
    def test_shared_parameter_sums_both_ears(self, integration):
        # a non-shared model whose two ears hold the shared model's weights
        # gives each ear's contribution; shared mode sums them, right first
        cfg = dataclasses.replace(TINY, shared=True, integration=integration)
        shared = BinauralTransformer(cfg, seed=3, dtype=np.float64)
        arrays = {p.name: p.data for p in shared.parameters()}

        def init(name, shape, fill):
            scope, rest = name.split(".", 1)
            key = f"ear.{rest}" if scope in ("left", "right") else name
            return arrays[key].copy()

        split = BinauralTransformer(dataclasses.replace(cfg, shared=False),
                                    dtype=np.float64, init=init)
        rng = np.random.default_rng(9)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        for model in (shared, split):
            with E.Graph() as g:
                pred = model.forward(xl, xr)
                loss = E.tmean(mul(pred, pred))
            g.backward(loss)
        grads = {p.name: p.grad for p in split.parameters()}
        for p in shared.parameters():
            scope, rest = p.name.split(".", 1)
            if scope == "ear":
                want = grads[f"right.{rest}"] + grads[f"left.{rest}"]
            else:
                want = grads[p.name]
            assert np.array_equal(p.grad, want), p.name

    def test_shape_mismatch_rejected(self):
        model = BinauralTransformer(TINY, seed=0)
        with pytest.raises(ConfigError, match="shape"):
            model.predict(np.zeros((1, 10, 10)), np.zeros((1, 10, 10)))

    @pytest.mark.parametrize("shared,integration", [(False, "sub"), (True, "concat")])
    def test_empty_batch_gives_empty_predictions_and_maps(self, shared, integration):
        # attention takes its batch in blocks of at least one sample, so an
        # empty batch runs no block instead of stepping by zero
        cfg = dataclasses.replace(desk_profile().model, stride=6, shared=shared,
                                  integration=integration)
        model = BinauralTransformer(cfg, seed=0)
        x = np.zeros((0, cfg.height, cfg.width), np.float32)
        pred, capture = model.forward_with_attention(x, x)
        assert pred.shape == (0, 2)
        maps = [*capture.left, *capture.right, *capture.center]
        assert len(maps) == 9
        assert all(m.shape == (0, 4, 180, 180) for m in maps)
        assert model.predict(x, x).shape == (0, 2)

    def test_desk_step_records_63_tape_nodes(self):
        # one node per attention sublayer (layer norm, q/k/v maps, attention
        # and out-projection), fc1 with its layer norm, other Linear, GELU,
        # residual add, integration and pool op, and one for the loss
        cfg = desk_profile()
        model = BinauralTransformer(cfg.model, seed=0)
        x = np.zeros((2, cfg.model.height, cfg.model.width))
        with E.Graph() as g:
            pred = model.forward(x, x, rng=np.random.default_rng(0))
            make_loss(cfg.loss)(np.ones((2, 2)), pred)
        assert len(g) == 63

    @staticmethod
    def _tape_bytes(model_cfg, loss_cfg, batch):
        """Bytes held after a recorded forward plus loss at ``batch``, and
        the tape's node count."""
        model = BinauralTransformer(model_cfg, seed=0)
        rng = np.random.default_rng(0)
        xl, xr = (rng.standard_normal((batch, model_cfg.height, model_cfg.width))
                  .astype(np.float32) for _ in range(2))
        target = np.tile(np.float32([[0.0, 1.0]]), (batch, 1))
        loss_fn = make_loss(loss_cfg)
        tracemalloc.start()
        try:
            with E.Graph() as g:
                loss_fn(target, model.forward(xl, xr, rng=rng))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept, len(g)

    def test_desk_tape_holds_at_most_28_mib(self):
        # the tape keeps no attention maps, q/k/v, GELU inputs, layer-norm
        # outputs or merged attention heads; keeping each block's q/k/v as
        # well took this forward's tape to 37.3 MiB
        cfg = desk_profile()
        kept, nodes = self._tape_bytes(cfg.model, cfg.loss, 16)
        assert nodes == 63
        assert kept <= 28 * 2**20, kept / 2**20

    def test_stride6_shared_concat_tape_holds_at_most_50_mib(self):
        # the rollout model's train call: 180 patches per ear, and a center
        # encoder twice as wide; keeping each block's q/k/v took this tape
        # to 72.3 MiB
        cfg = desk_profile()
        model_cfg = dataclasses.replace(cfg.model, stride=6, shared=True,
                                        integration="concat")
        kept, nodes = self._tape_bytes(model_cfg, cfg.loss, 8)
        assert nodes == 63
        assert kept <= 50 * 2**20, kept / 2**20

    def test_untaped_stride6_shared_concat_forward_peaks_at_most_41_mib(self):
        # eval's batch of 32 on the rollout model: without a tape the
        # attention sublayer lets go of its layer norm's arrays before the
        # attention loop, so the forward peaks where the separate norm/q/k/v
        # and attention ops peaked (40.1 MiB); keeping the norm's xhat
        # through the loop raises the peak past this bound
        cfg = dataclasses.replace(desk_profile().model, stride=6, shared=True,
                                  integration="concat")
        model = BinauralTransformer(cfg, seed=0)
        rng = np.random.default_rng(0)
        xl, xr = (rng.standard_normal((32, cfg.height, cfg.width)).astype(np.float32)
                  for _ in range(2))
        tracemalloc.start()
        try:
            model.predict(xl, xr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 41.1 * 2**20, peak / 2**20


class TestSharedEarPasses:
    """A shared ear pathway runs one pass per ear, with or without a
    recording tape, and both give equal bits."""

    @staticmethod
    def _count_embeds(model, monkeypatch) -> list[int]:
        """The batch size of every ``model.embed`` call, in call order."""
        sizes, embed = [], model.embed

        def counted(x, proj, rng):
            sizes.append(len(x))
            return embed(x, proj, rng)

        monkeypatch.setattr(model, "embed", counted)
        return sizes

    @pytest.mark.parametrize("integration", ["concat", "sub", "add"])
    @pytest.mark.parametrize("stride", [6, 12])
    def test_matches_per_ear_path_bitwise(self, integration, stride, monkeypatch):
        cfg = ModelConfig(stride=stride, dim=32, layers=2, heads=2, mlp_dim=32,
                          dropout=0.0, integration=integration, shared=True)
        model = BinauralTransformer(cfg, seed=3)
        embedded = self._count_embeds(model, monkeypatch)

        def per_ear(call, xl, xr):
            """``call(xl, xr)``, checking that it embeds each ear on its own."""
            embedded.clear()
            out = call(xl, xr)
            assert embedded == [len(xl), len(xr)]
            return out

        rng = np.random.default_rng(stride)
        for batch in (1, 4, 33):
            xl, xr = (rng.standard_normal((batch, 129, 61)).astype(np.float32)
                      for _ in range(2))
            pred = per_ear(model.predict, xl, xr)
            attn_pred, capture = per_ear(model.forward_with_attention, xl, xr)
            with E.Graph():
                ref = per_ear(model.predict, xl, xr)
                ref_attn_pred, ref_capture = per_ear(model.forward_with_attention, xl, xr)
            assert np.array_equal(pred, ref)
            assert np.array_equal(attn_pred, ref_attn_pred)
            for part in ("left", "right", "center"):
                got, want = getattr(capture, part), getattr(ref_capture, part)
                assert len(got) == len(want) == cfg.layers
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b)

    def test_dropout_rng_keeps_one_pass_per_ear(self, monkeypatch):
        model = BinauralTransformer(
            dataclasses.replace(TINY, shared=True, dropout=0.1), seed=0)
        embedded = self._count_embeds(model, monkeypatch)
        x = np.zeros((2, 20, 16))
        model.forward(x, x, rng=np.random.default_rng(0))
        assert embedded == [2, 2]

    @pytest.mark.parametrize("shared", [True, False])
    def test_mismatched_ear_batches_name_both_shapes(self, shared):
        model = BinauralTransformer(dataclasses.replace(TINY, shared=shared), seed=0)
        with pytest.raises(ConfigError, match=r"\(2, 20, 16\).*\(3, 20, 16\)"):
            model.predict(np.zeros((2, 20, 16)), np.zeros((3, 20, 16)))


class TestParameterBudgets:
    def test_full_scale_counts(self):
        nsp = BinauralTransformer(ModelConfig(integration="sub", shared=False))
        n_nsp = nsp.count_parameters()
        del nsp
        assert abs(n_nsp - 57_000_000) / 57_000_000 <= 0.05
        sp = BinauralTransformer(ModelConfig(integration="sub", shared=True))
        n_sp = sp.count_parameters()
        del sp
        assert abs(n_sp - 38_000_000) / 38_000_000 <= 0.05
        assert n_sp < n_nsp

    @pytest.mark.parametrize("integration", ["concat", "add", "sub"])
    def test_sharing_strictly_removes_parameters(self, integration):
        cfg = dataclasses.replace(TINY, integration=integration)
        n_nsp = BinauralTransformer(cfg).count_parameters()
        n_sp = BinauralTransformer(
            dataclasses.replace(cfg, shared=True)).count_parameters()
        assert n_sp < n_nsp

    def test_add_and_sub_have_identical_counts(self):
        n_add = BinauralTransformer(
            dataclasses.replace(TINY, integration="add")).count_parameters()
        n_sub = BinauralTransformer(
            dataclasses.replace(TINY, integration="sub")).count_parameters()
        assert n_add == n_sub

    def test_position_table_not_counted(self):
        model = BinauralTransformer(TINY)
        names = {p.name for p in model.parameters()}
        assert "pos_table" not in names


def _block_names(prefix):
    names = [f"{prefix}.norm1.gain", f"{prefix}.norm1.bias"]
    names += [f"{prefix}.attn.{m}.{t}" for m in ("q", "k", "v", "out") for t in "wb"]
    names += [f"{prefix}.norm2.gain", f"{prefix}.norm2.bias"]
    names += [f"{prefix}.mlp.{m}.{t}" for m in ("fc1", "fc2") for t in "wb"]
    return names


class TestParameterRegistry:
    @pytest.mark.parametrize("shared", [True, False])
    def test_names_in_creation_order(self, shared):
        cfg = dataclasses.replace(TINY, layers=2, shared=shared)
        params = BinauralTransformer(cfg).parameters()
        ears = ["ear"] if shared else ["left", "right"]
        want = []
        for ear in ears:
            want += [f"{ear}.proj.w", f"{ear}.proj.b"]
            want += _block_names(f"{ear}.enc.block0") + _block_names(f"{ear}.enc.block1")
        want += _block_names("center.enc.block0") + _block_names("center.enc.block1")
        want += ["final_norm.gain", "final_norm.bias", "head.w", "head.b"]
        assert [p.name for p in params] == want
        assert len({id(p) for p in params}) == len(params)


class TestSharedStorage:
    def test_left_weight_mutation_visible_through_right(self):
        model = BinauralTransformer(dataclasses.replace(TINY, shared=True), seed=0)
        w = model.enc_left.blocks[0].attn.q.w
        w.data[0, 0] += 123.0
        assert model.enc_right.blocks[0].attn.q.w.data[0, 0] == w.data[0, 0]
        assert model.enc_left.blocks[0] is model.enc_right.blocks[0]

    def test_nonshared_storages_independent(self):
        model = BinauralTransformer(TINY, seed=0)
        model.enc_left.blocks[0].attn.q.w.data[0, 0] = 7.0
        assert model.enc_right.blocks[0].attn.q.w.data[0, 0] != 7.0


class TestCheckpointing:
    def test_round_trip(self, tmp_path):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(9)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        before = model.predict(xl, xr)
        path = tmp_path / "model.ckpt"
        model.save(path)
        restored = BinauralTransformer.load(path, TINY)
        np.testing.assert_array_equal(restored.predict(xl, xr), before)

    def test_load_restores_saved_bits_without_random_init(self, tmp_path,
                                                          monkeypatch):
        model = BinauralTransformer(dataclasses.replace(TINY, shared=True), seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path)

        def no_random_init(*args):
            raise AssertionError("load drew a random init")

        monkeypatch.setattr(model_module, "_trunc_normal", no_random_init)
        restored = BinauralTransformer.load(path, model.config)
        saved = {p.name: p for p in model.parameters()}
        loaded = {p.name: p for p in restored.parameters()}
        assert list(loaded) == list(saved)
        for name, p in saved.items():
            assert np.array_equal(loaded[name].data, p.data), name
        assert restored.enc_left is restored.enc_right

    def test_missing_or_extra_tensor_rejected(self, tmp_path):
        model = BinauralTransformer(TINY, seed=0)
        arrays = {p.name: p.data for p in model.parameters()}
        path = tmp_path / "model.ckpt"
        save_tensors(path, {k: v for k, v in arrays.items() if k != "head.b"},
                     config_hash=TINY.hash())
        with pytest.raises(ConfigError, match="missing 'head.b'"):
            BinauralTransformer.load(path, TINY)
        save_tensors(path, {**arrays, "head.extra": np.zeros(2)},
                     config_hash=TINY.hash())
        with pytest.raises(ConfigError, match="unexpected \\['head.extra'\\]"):
            BinauralTransformer.load(path, TINY)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_tensors(path, {"w": np.ones(3)}, config_hash="old")
        fail_writes_after(monkeypatch, util, 3)  # magic, length, header
        with pytest.raises(OSError, match="No space"):
            save_tensors(path, {"w": np.zeros(3), "v": np.zeros(4)}, config_hash="new")
        arrays, stored = load_tensors(path)
        assert stored == "old"
        np.testing.assert_array_equal(arrays["w"], np.ones(3))
        assert os.listdir(tmp_path) == ["best.ckpt"]

    def test_checkpoint_layout_is_pinned(self, tmp_path):
        # checkpoints written before the shared tensor-file codec still load
        head = json.dumps({"config_hash": "h", "tensors": {
            "w": {"count": 3, "offset": 0, "shape": [3]},
            "v": {"count": 4, "offset": 3, "shape": [2, 2]}}},
            sort_keys=True).encode("utf-8")
        w = np.arange(3, dtype="<f4")
        v = np.arange(4, dtype="<f4").reshape(2, 2) / 7
        golden = (b"BLTENS1\n" + struct.pack("<I", len(head)) + head
                  + w.tobytes() + v.tobytes())
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"w": w, "v": v.astype(np.float64)}, config_hash="h")
        assert path.read_bytes() == golden
        arrays, stored = load_tensors(path, expected_config_hash="h")
        assert stored == "h" and list(arrays) == ["v", "w"]
        np.testing.assert_array_equal(arrays["v"], v)
        np.testing.assert_array_equal(arrays["w"], w)

    def test_loaded_tensors_are_aligned_writable_and_separate(self, tmp_path):
        rng = np.random.default_rng(4)
        saved = {"w": rng.standard_normal((3, 5)), "v": rng.standard_normal(7),
                 "b": rng.standard_normal((2, 2, 2))}
        path = tmp_path / "model.ckpt"
        save_tensors(path, saved, config_hash="h")
        (head_len,) = struct.unpack_from("<I", path.read_bytes(), 8)
        assert (12 + head_len) % 4 != 0  # the payload starts unaligned on disk
        arrays, _ = load_tensors(path)
        for name, arr in arrays.items():
            assert arr.flags.aligned and arr.flags.writeable, name
            assert arr.dtype == np.float32
            assert np.array_equal(arr, saved[name].astype(np.float32)), name
        arrays["v"][:] = 0.0
        assert np.array_equal(arrays["w"], saved["w"].astype(np.float32))
        assert np.array_equal(arrays["b"], saved["b"].astype(np.float32))

    def test_overlapping_ranges_rejected(self, tmp_path):
        # write_tensor_file never lays two tensors over one range, so a
        # table that does is damaged: both loaders name the file
        header = {"tensors": {"a": {"shape": [3], "offset": 0, "count": 3},
                              "b": {"shape": [2], "offset": 1, "count": 2}}}
        loaders = ((b"BLTENS1\n", load_tensors, CheckpointError),
                   (b"BLSPEC2\n", lambda path: load_spectrogram_cache(
                       path, FrontendConfig()), FrontendError))
        for magic, load, error in loaders:
            path = tmp_path / "tensors.bin"
            path.write_bytes(tensor_file_bytes(magic, header))
            with pytest.raises(error, match="'a' and 'b' overlap") as info:
                load(path)
            assert str(path) in str(info.value)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_tensors(path, {"w": np.ones(3), "v": np.ones(4)})
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(CheckpointError, match="truncated payload for 'v'"):
            load_tensors(path)
        path.write_bytes(data[:14])
        with pytest.raises(CheckpointError, match="truncated header"):
            load_tensors(path)

    @pytest.mark.parametrize("header,match", MALFORMED_HEADERS)
    def test_malformed_checkpoint_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "best.ckpt"
        path.write_bytes(tensor_file_bytes(b"BLTENS1\n", header))
        with pytest.raises(CheckpointError, match=match) as info:
            load_tensors(path)
        assert str(path) in str(info.value)

    def test_config_mismatch_rejected(self, tmp_path):
        model = BinauralTransformer(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        model.save(path)
        other = dataclasses.replace(TINY, integration="add")
        with pytest.raises(CheckpointError, match="hash"):
            BinauralTransformer.load(path, other)


class TestModelConfig:
    def test_center_dim_rule(self):
        assert ModelConfig(integration="concat").center_dim == 2048
        assert ModelConfig(integration="add").center_dim == 1024
        assert ModelConfig(integration="sub").center_dim == 1024

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=30, heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(integration="mix")
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)

    def test_kv_round_trip(self):
        cfg = ModelConfig(dim=128, heads=4, mlp_dim=256, stride=12,
                          integration="add", shared=True, dropout=0.1)
        kv = {k: str(v) for k, v in to_kv(cfg).items()}
        assert from_kv(ModelConfig(), kv) == cfg
        assert from_kv(ModelConfig(), kv).hash() == cfg.hash()
