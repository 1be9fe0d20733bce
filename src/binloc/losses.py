"""Training objectives over predicted vs. true 2-D coordinates.

Three losses: mean squared Euclidean distance, normalized angular
distance (arc between the two coordinate rays, scaled into [0, 1]), and
their convex combination. The angular loss ignores prediction magnitude
entirely, so it is scale invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as E

__all__ = ["LossConfig", "LossError", "mse_loss", "ad_loss", "hybrid_loss",
           "make_loss", "angular_errors_deg"]

COS_CLAMP = 1e-7      # keeps arccos gradients finite at +-1
DEGENERATE_NORM = 1e-8  # below this a prediction is treated as the origin
LOSS_KINDS = ("mse", "ad", "hybrid")


class LossError(ValueError):
    """Invalid loss inputs or configuration."""


@dataclass(frozen=True)
class LossConfig:
    """Which objective to train with; ``alpha`` only matters for hybrid."""

    kind: str = "hybrid"          # mse | ad | hybrid
    alpha: float = 0.5            # hybrid weight on the angular term
    epsilon: float = COS_CLAMP

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise LossError(
                f"loss kind must be {'|'.join(LOSS_KINDS)}, got {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise LossError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.epsilon <= 0:
            raise LossError(f"epsilon must be positive, got {self.epsilon}")


def _check_batch(target: np.ndarray, pred: E.Tensor) -> np.ndarray:
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.ndim != 2 or target.shape[1] != 2:
        raise LossError(f"coordinates must have shape (N, 2), got {target.shape}")
    if target.shape[0] == 0:
        raise LossError("empty batch")
    if target.shape != pred.shape:
        raise LossError(
            f"target shape {target.shape} != prediction shape {pred.shape}")
    return target


def mse_loss(target: np.ndarray, pred: E.Tensor) -> E.Tensor:
    """Mean over the batch of squared Euclidean distances."""
    target = _check_batch(target, pred)
    diff = E.sub(pred, E.tensor(target, dtype=pred.data.dtype))
    return E.tmean(E.tsum(E.mul(diff, diff), axis=1))


def ad_loss(target: np.ndarray, pred: E.Tensor,
            epsilon: float = COS_CLAMP) -> E.Tensor:
    """Mean angle between target and prediction rays, normalized by pi.

    The forward value uses the exact cosine (clipped only into [-1, 1]),
    so identical rays give exactly 0 and antipodal rays exactly 1. For the
    gradient, the cosine is clamped to [-1 + epsilon, 1 - epsilon]; inside
    the clamp region the angular gradient is zero, which keeps it finite
    where arccos' derivative diverges. Rows whose prediction norm is below
    ``DEGENERATE_NORM`` contribute the maximum-angle clamp value with zero
    angular gradient (a companion squared-distance term is what pulls such
    predictions off the origin); a zero-norm target is an input error.
    """
    target = _check_batch(target, pred)
    target_norms = np.linalg.norm(target.astype(np.float64), axis=1)
    if np.any(target_norms <= 0):
        bad = int(np.argmin(target_norms))
        raise LossError(f"target row {bad} has zero norm; angle is undefined")

    x = pred.data.astype(np.float64)
    pred_norms = np.linalg.norm(x, axis=1)
    degenerate = pred_norms < DEGENERATE_NORM
    safe_norms = np.where(degenerate, 1.0, pred_norms)
    tgt = target.astype(np.float64)

    cos = (x * tgt).sum(axis=1) / (safe_norms * target_norms)
    cos = np.where(degenerate, -1.0 + epsilon, cos)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    value = angles.mean() / np.pi

    n = x.shape[0]
    live = (~degenerate) & (np.abs(cos) < 1.0 - epsilon)
    clamped = np.clip(cos, -1.0 + epsilon, 1.0 - epsilon)
    # d(angle)/d(pred) = -1/sqrt(1-cos^2) * d(cos)/d(pred)
    dcos = (tgt / (safe_norms * target_norms)[:, None]
            - x * (cos / np.maximum(safe_norms * safe_norms, 1e-300))[:, None])
    dangle = -dcos / np.sqrt(1.0 - clamped * clamped)[:, None]
    grad_local = np.where(live[:, None], dangle, 0.0) / (np.pi * n)

    dtype = pred.data.dtype
    out_data = np.asarray(value, dtype=dtype)

    def backward(g):
        return ((g * grad_local).astype(dtype),)

    return E._record_op((pred,), out_data, backward)


def hybrid_loss(target: np.ndarray, pred: E.Tensor, alpha: float = 0.5,
                epsilon: float = COS_CLAMP) -> E.Tensor:
    """alpha * angular + (1 - alpha) * squared-distance; boundaries are exact."""
    if not 0.0 <= alpha <= 1.0:
        raise LossError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return mse_loss(target, pred)
    if alpha == 1.0:
        return ad_loss(target, pred, epsilon)
    ad = ad_loss(target, pred, epsilon)
    mse = mse_loss(target, pred)
    return E.add(E.scale(ad, alpha), E.scale(mse, 1.0 - alpha))


def make_loss(cfg: LossConfig):
    """Bind a LossConfig into a ``loss(target, pred)`` callable."""
    if cfg.kind == "mse":
        return mse_loss
    if cfg.kind == "ad":
        return lambda target, pred: ad_loss(target, pred, cfg.epsilon)
    return lambda target, pred: hybrid_loss(target, pred, cfg.alpha, cfg.epsilon)


def angular_errors_deg(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-sample angle between rays, in degrees (no grad, float64)."""
    target = np.asarray(target, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    tn = np.linalg.norm(target, axis=1)
    pn = np.linalg.norm(pred, axis=1)
    if np.any(tn <= 0):
        raise LossError("zero-norm target; angle is undefined")
    degenerate = pn < DEGENERATE_NORM
    cos = (target * pred).sum(axis=1) / (tn * np.where(degenerate, 1.0, pn))
    cos = np.where(degenerate, -1.0 + COS_CLAMP, cos)
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
