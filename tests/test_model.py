"""Architecture contracts: patch geometry, encoders, integration, budgets."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import engine as E
from binloc import model as model_module
from binloc import util
from binloc.checkpoint import CheckpointError, load_tensors, save_tensors
from binloc.config import desk_profile
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
from helpers import fail_writes_after

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
        stack = EncoderStack(16, 0, 2, 16, 0.0, np.random.default_rng(0), "e",
                             np.float32)
        x = E.tensor(np.random.default_rng(1).standard_normal((2, 5, 16)))
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


class TestIntegrate:
    def test_sub_of_equal_maps_is_zero(self):
        z = E.tensor(np.random.default_rng(0).standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(integrate(z, z, "sub").data, 0.0)

    def test_add_commutes(self):
        rng = np.random.default_rng(1)
        a = E.tensor(rng.standard_normal((2, 5, 8)))
        b = E.tensor(rng.standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(integrate(a, b, "add").data,
                                      integrate(b, a, "add").data)

    def test_concat_doubles_canonical_width(self):
        rng = np.random.default_rng(2)
        a = E.tensor(rng.standard_normal((1, 180, 1024)))
        b = E.tensor(rng.standard_normal((1, 180, 1024)))
        out = integrate(a, b, "concat")
        assert out.shape == (1, 180, 2048)
        np.testing.assert_array_equal(out.data[..., :1024], a.data)
        np.testing.assert_array_equal(out.data[..., 1024:], b.data)


class TestEmbedding:
    def test_zero_input_gives_bias_plus_position(self):
        model = BinauralTransformer(TINY, seed=0)
        out = model.embed(np.zeros((1, 20, 16)), model.proj_left,
                          training=False, rng=None)
        expected = model.proj_left.b.data + model.pos_table.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_canonical_sequence_geometry(self):
        cfg = ModelConfig(dim=64, heads=4, mlp_dim=64, layers=0, dropout=0.0)
        model = BinauralTransformer(cfg, seed=0)
        out = model.embed(np.zeros((1, 129, 61)), model.proj_left,
                          training=False, rng=None)
        assert out.shape == (1, 180, 64)

    def test_locality_of_patch_embeddings(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(4)
        base = rng.standard_normal((20, 16))
        bumped = base.copy()
        r, c = 9, 7
        bumped[r, c] += 1.0
        a = model.embed(base[None], model.proj_left, False, None).data[0]
        b = model.embed(bumped[None], model.proj_left, False, None).data[0]
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
            pred = model.forward(xl, xr, training=True, rng=rng)
            loss = E.tmean(E.mul(pred, pred))
        g.backward(loss)
        for p in model.parameters():
            assert p.grad is not None, p.name
            assert np.any(p.grad != 0), p.name

    def test_shape_mismatch_rejected(self):
        model = BinauralTransformer(TINY, seed=0)
        with pytest.raises(ConfigError, match="shape"):
            model.predict(np.zeros((1, 10, 10)), np.zeros((1, 10, 10)))

    def test_desk_step_records_124_tape_nodes(self):
        # one node per Linear, attention, layer norm, GELU, residual add,
        # integration, pool and loss op
        cfg = desk_profile()
        model = BinauralTransformer(cfg.model, seed=0)
        x = np.zeros((2, cfg.model.height, cfg.model.width))
        with E.Graph() as g:
            pred = model.forward(x, x, training=True, rng=np.random.default_rng(0))
            make_loss(cfg.loss)(np.ones((2, 2)), pred)
        assert len(g) == 124


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
        saved = model.named_parameters()
        loaded = restored.named_parameters()
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
