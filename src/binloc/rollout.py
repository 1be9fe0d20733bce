"""Attention rollout: cumulative patch-to-patch relevance through the model.

Per layer, the head-averaged attention matrix is augmented with the
identity (standing in for the residual connection), row-renormalized, and
multiplied onto the running rollout. The center stack's rollout is seeded
by the renormalized sum of both ears' final rollouts, mirroring how the
integration layer merges the two pathways. Per-patch relevance is the
column mean of a rollout matrix: how much every patch attends to a given
patch, which needs no class token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import AttentionCapture, BinauralTransformer

__all__ = ["RolloutRecord", "RolloutError", "layer_rollout", "rollout_chain",
           "bast_rollout", "relevance_grid", "export_heatmap"]


class RolloutError(ValueError):
    """Missing or malformed attention matrices."""


def layer_rollout(attn: np.ndarray) -> np.ndarray:
    """One layer's identity-augmented, row-normalized attention (N x N).

    ``attn`` is (heads, N, N) with softmax-normalized rows. The result is
    rownormalize(mean_over_heads(attn) + I), again row-stochastic.
    """
    attn = np.asarray(attn, dtype=np.float64)
    if attn.ndim != 3 or attn.shape[-1] != attn.shape[-2]:
        raise RolloutError(
            f"expected (heads, N, N) square attention, got {attn.shape}")
    mean = attn.mean(axis=0)
    aug = mean + np.eye(mean.shape[0])
    return aug / aug.sum(axis=1, keepdims=True)


def rollout_chain(attn_layers: list[np.ndarray],
                  init: np.ndarray | None = None) -> list[np.ndarray]:
    """Cumulative rollouts R_k = A_k @ R_{k-1} for each layer, R_0 = init or I.

    Without ``init`` the chain starts at R_1 = A_1: A_1 @ I is A_1 exactly
    for finite maps, so the product with I is skipped.
    """
    if not attn_layers:
        raise RolloutError("attention capture is empty; nothing to roll out")
    running = None if init is None else np.asarray(init, dtype=np.float64)
    chain = []
    for attn in attn_layers:
        step = layer_rollout(attn)
        running = step if running is None else step @ running
        chain.append(running)
    return chain


@dataclass
class RolloutRecord:
    """Raw attention, cumulative rollouts, and relevance grids for one input.

    ``attention`` and ``rollouts`` are keyed by encoder ("left", "right",
    "center"); ``relevance`` holds (n_h, n_t) grids per ear plus the
    center pathway's combined grid.
    """

    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)
    rollouts: dict[str, list[np.ndarray]] = field(default_factory=dict)
    relevance: dict[str, np.ndarray] = field(default_factory=dict)
    grid_shape: tuple[int, int] = (0, 0)


def relevance_grid(rollout: np.ndarray, n_h: int, n_t: int) -> np.ndarray:
    """Column-mean relevance of a rollout matrix, reshaped to the patch grid."""
    return rollout.mean(axis=0).reshape(n_h, n_t)


def bast_rollout(model: BinauralTransformer, x_left: np.ndarray,
                 x_right: np.ndarray) -> RolloutRecord:
    """Full rollout analysis of a single sample in eval mode.

    The center chain starts from rownormalize(R_left + R_right); relevance
    grids are emitted for each ear's final rollout and for the center.
    """
    _, capture = model.forward_with_attention(x_left, x_right)
    return rollout_from_capture(capture, model.grid.n_h, model.grid.n_t)


def rollout_from_capture(capture: AttentionCapture, n_h: int, n_t: int
                         ) -> RolloutRecord:
    if not capture.left or not capture.right or not capture.center:
        raise RolloutError("attention capture is missing matrices; "
                           "run the forward pass with capture enabled")

    def single(attn_layers):
        # capture stores (batch, heads, N, N); analysis is per single sample
        out = []
        for a in attn_layers:
            if a.shape[0] != 1:
                raise RolloutError(
                    f"rollout expects a single sample, got batch {a.shape[0]}")
            out.append(np.asarray(a[0], dtype=np.float64))
        return out

    left_attn = single(capture.left)
    right_attn = single(capture.right)
    center_attn = single(capture.center)

    left_chain = rollout_chain(left_attn)
    right_chain = rollout_chain(right_attn)
    seed = left_chain[-1] + right_chain[-1]
    seed = seed / seed.sum(axis=1, keepdims=True)
    center_chain = rollout_chain(center_attn, init=seed)

    record = RolloutRecord(grid_shape=(n_h, n_t))
    record.attention = {"left": left_attn, "right": right_attn,
                        "center": center_attn}
    record.rollouts = {"left": left_chain, "right": right_chain,
                       "center": center_chain}
    record.relevance = {
        "left": relevance_grid(left_chain[-1], n_h, n_t),
        "right": relevance_grid(right_chain[-1], n_h, n_t),
        "center": relevance_grid(center_chain[-1], n_h, n_t),
    }
    return record


def _upsample_index(n_h: int, n_t: int, height: int, width: int, patch: int,
                    stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid row and column of the nearest patch center for each pixel."""
    rows = np.clip(np.round((np.arange(height) - patch / 2.0) / stride),
                   0, n_h - 1).astype(int)
    cols = np.clip(np.round((np.arange(width) - patch / 2.0) / stride),
                   0, n_t - 1).astype(int)
    return rows, cols


def export_heatmap(record: RolloutRecord, meta: dict, out_dir, *,
                   height: int, width: int, patch: int, stride: int) -> list[Path]:
    """Write per-pathway relevance CSVs plus upsampled overlays and metadata.

    Produces ``rollout_<id>_<ear>.csv`` (patch grid),
    ``rollout_<id>_<ear>_overlay.csv`` (pixel grid), and
    ``rollout_<id>_meta.json``. Values are written as ``repr`` of the float,
    as ``csv.writer`` writes them, with ``\r\n`` line ends (no float's repr
    needs quoting). Each value is formatted once, and each overlay line is
    built once per grid row and repeated by the row index.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sample_id = meta.get("sample_id", "sample")
    rows, cols = (index.tolist() for index in _upsample_index(
        *record.grid_shape, height, width, patch, stride))
    written = []
    for ear, grid in record.relevance.items():
        cells = [[repr(v) for v in row] for row in grid.tolist()]
        overlay = [",".join([row[c] for c in cols]) + "\r\n" for row in cells]
        for suffix, text in (("", "".join(",".join(row) + "\r\n" for row in cells)),
                             ("_overlay", "".join([overlay[r] for r in rows]))):
            path = out_dir / f"rollout_{sample_id}_{ear}{suffix}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            written.append(path)
    meta_path = out_dir / f"rollout_{sample_id}_meta.json"
    meta_path.write_text(json.dumps(
        {**meta, "grid_shape": list(record.grid_shape),
         "overlay_shape": [height, width],
         "pathways": sorted(record.relevance)}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    written.append(meta_path)
    return written
