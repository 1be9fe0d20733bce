"""Attention rollout: stochasticity, oracle equivalence, export format."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from binloc.model import BinauralTransformer, ModelConfig, patch_counts
from binloc.rollout import (
    RolloutError,
    RolloutRecord,
    bast_rollout,
    export_heatmap,
    layer_rollout,
    relevance_grid,
    rollout_chain,
)

from helpers import upsample_grid

TINY = ModelConfig(height=20, width=16, patch=8, stride=6, dim=32, layers=3,
                   heads=2, mlp_dim=32, dropout=0.0, integration="sub")


def _random_attention(rng, layers, heads, n):
    out = []
    for _ in range(layers):
        logits = rng.standard_normal((heads, n, n))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        out.append(e / e.sum(axis=-1, keepdims=True))
    return out


class TestLayerRollout:
    def test_uniform_attention_two_tokens(self):
        attn = np.full((1, 2, 2), 0.5)
        np.testing.assert_allclose(layer_rollout(attn),
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_identity_attention_is_fixed_point(self):
        attn = np.tile(np.eye(4), (3, 1, 1))
        chain = rollout_chain([attn, attn, attn])
        for r in chain:
            np.testing.assert_allclose(r, np.eye(4), atol=1e-12)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(0)
        chain = rollout_chain(_random_attention(rng, 3, 4, 9))
        for r in chain:
            np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-5)
            assert np.all(r >= 0)

    def test_non_square_rejected(self):
        with pytest.raises(RolloutError):
            layer_rollout(np.zeros((2, 3, 4)))

    def test_matches_explicit_product_oracle(self):
        rng = np.random.default_rng(1)
        layers = _random_attention(rng, 4, 3, 7)
        for init in (None, rng.random((7, 7))):
            chain = rollout_chain(layers, init=init)
            running = np.eye(7, dtype=np.float64) if init is None else init
            for attn, rolled in zip(layers, chain):
                mean = np.asarray(attn, dtype=np.float64).mean(axis=0)
                aug = mean + np.eye(7)
                aug = aug / aug.sum(axis=1, keepdims=True)
                running = aug @ running
                assert np.array_equal(rolled, running)


class TestModelRollout:
    def test_identical_ears_shared_params_give_identical_chains(self):
        cfg = dataclasses.replace(TINY, shared=True)
        model = BinauralTransformer(cfg, seed=0)
        x = np.random.default_rng(2).standard_normal((1, 20, 16))
        record = bast_rollout(model, x, x)
        for a, b in zip(record.rollouts["left"], record.rollouts["right"]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(record.relevance["left"],
                                      record.relevance["right"])

    def test_relevance_shape_and_mass(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(3)
        record = bast_rollout(model, rng.standard_normal((1, 20, 16)),
                              rng.standard_normal((1, 20, 16)))
        for grid in record.relevance.values():
            assert grid.shape == (model.grid.n_h, model.grid.n_t)
            assert np.all(grid >= 0)
            assert grid.sum() == pytest.approx(1.0, abs=1e-4)

    def test_center_chain_rows_stochastic_through_seeding(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(4)
        record = bast_rollout(model, rng.standard_normal((1, 20, 16)),
                              rng.standard_normal((1, 20, 16)))
        for chain in record.rollouts.values():
            for r in chain:
                np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-5)

    def test_batch_element_matches_solo_run(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(5)
        xl = rng.standard_normal((2, 20, 16))
        xr = rng.standard_normal((2, 20, 16))
        _, cap = model.forward_with_attention(xl, xr)
        solo = bast_rollout(model, xl[:1], xr[:1])
        from binloc.rollout import rollout_from_capture
        from binloc.model import AttentionCapture
        first = AttentionCapture(
            left=[a[:1] for a in cap.left],
            right=[a[:1] for a in cap.right],
            center=[a[:1] for a in cap.center])
        sliced = rollout_from_capture(first, model.grid.n_h, model.grid.n_t)
        for key in ("left", "right", "center"):
            np.testing.assert_allclose(sliced.relevance[key],
                                       solo.relevance[key], atol=1e-6)

    def test_batch_capture_rejected_for_rollout(self):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(6)
        with pytest.raises(RolloutError, match="single sample"):
            bast_rollout(model, rng.standard_normal((2, 20, 16)),
                         rng.standard_normal((2, 20, 16)))

    def test_empty_capture_rejected(self):
        from binloc.model import AttentionCapture
        from binloc.rollout import rollout_from_capture
        with pytest.raises(RolloutError, match="capture"):
            rollout_from_capture(AttentionCapture.empty(), 3, 3)


class TestExport:
    def test_constant_relevance_constant_overlay(self):
        grid = np.full((20, 9), 1.0 / 180.0)
        overlay = upsample_grid(grid, 129, 61, 16, 6)
        assert overlay.shape == (129, 61)
        np.testing.assert_allclose(overlay, 1.0 / 180.0)

    def test_argmax_patch_maps_to_overlay_argmax(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0, 1, (20, 9))
        overlay = upsample_grid(grid, 129, 61, 16, 6)
        assert overlay.max() == grid.max()
        r, c = np.unravel_index(np.argmax(overlay), overlay.shape)
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        # the overlay argmax pixel belongs to the argmax patch's cell
        assert abs(r - (i * 6 + 8)) <= 3
        assert abs(c - (j * 6 + 8)) <= 3

    def test_export_files_and_metadata(self, tmp_path):
        model = BinauralTransformer(TINY, seed=0)
        rng = np.random.default_rng(8)
        record = bast_rollout(model, rng.standard_normal((1, 20, 16)),
                              rng.standard_normal((1, 20, 16)))
        meta = {"sample_id": "demo", "azimuth": 40, "environment": "AE"}
        written = export_heatmap(record, meta, tmp_path, height=20, width=16,
                                 patch=8, stride=6)
        names = {p.name for p in written}
        assert "rollout_demo_left.csv" in names
        assert "rollout_demo_right.csv" in names
        assert "rollout_demo_center.csv" in names
        assert "rollout_demo_meta.json" in names
        with open(tmp_path / "rollout_demo_left.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == model.grid.n_h
        assert len(rows[0]) == model.grid.n_t
        with open(tmp_path / "rollout_demo_left_overlay.csv") as fh:
            overlay_rows = list(csv.reader(fh))
        assert (len(overlay_rows), len(overlay_rows[0])) == (20, 16)
        meta_loaded = json.loads((tmp_path / "rollout_demo_meta.json").read_text())
        assert meta_loaded["azimuth"] == 40
        assert meta_loaded["overlay_shape"] == [20, 16]


    @pytest.mark.parametrize("stride", [24, 12, 6])
    def test_csv_bytes_match_csv_writer(self, tmp_path, stride):
        # the 6 x 3 (stride 24), desk (stride 12) and stride-6 patch grids of
        # a 129 x 61 input
        grid = patch_counts(129, 61, 16, stride)
        rng = np.random.default_rng(stride)
        record = RolloutRecord(grid_shape=(grid.n_h, grid.n_t))
        record.relevance = {ear: rng.random((grid.n_h, grid.n_t)) / 7
                            for ear in ("left", "right", "center")}
        record.relevance["left"][0, 0] = 1e-7
        export_heatmap(record, {"sample_id": "s"}, tmp_path, height=129, width=61,
                       patch=16, stride=stride)
        for ear, values in record.relevance.items():
            overlay = upsample_grid(values, 129, 61, 16, stride)
            for suffix, rows in (("", values), ("_overlay", overlay)):
                expected = io.StringIO(newline="")
                csv.writer(expected).writerows(rows.tolist())
                written = (tmp_path / f"rollout_s_{ear}{suffix}.csv").read_bytes()
                assert written == expected.getvalue().encode("utf-8")


class TestRelevanceGrid:
    def test_column_mean_reduction(self):
        rollout = np.array([[0.5, 0.5], [0.1, 0.9]])
        grid = relevance_grid(rollout, 1, 2)
        np.testing.assert_allclose(grid, [[0.3, 0.7]])
