"""Training objectives over predicted vs. true 2-D coordinates.

Three losses: mean squared Euclidean distance, normalized angular
distance (arc between the two coordinate rays, scaled into [0, 1]), and
their convex combination, each recorded as one tape node. The angular loss
ignores prediction magnitude entirely, so it is scale invariant.
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
        if not self.epsilon > 0:
            raise LossError(f"epsilon must be positive, got {self.epsilon}")


def _angles(target: np.ndarray, pred: np.ndarray,
            epsilon: float = COS_CLAMP) -> tuple[np.ndarray, np.ndarray]:
    """Each row's angle between the target and prediction rays, in float64
    radians, and its gradient with respect to the prediction row.

    The angle uses the exact cosine, so equal rays give exactly 0 and
    opposite rays exactly pi. The gradient is zero where the cosine is
    within epsilon of +-1, where arccos' derivative diverges, and for a
    prediction row of norm below ``DEGENERATE_NORM``, whose angle is
    ``arccos(epsilon - 1)``. A zero-norm target row is an input error.
    """
    tgt = np.asarray(target, dtype=np.float64)
    x = np.asarray(pred, dtype=np.float64)
    target_norms = np.linalg.norm(tgt, axis=1)
    if np.any(target_norms <= 0):
        bad = int(np.argmin(target_norms))
        raise LossError(f"target row {bad} has zero norm; angle is undefined")
    pred_norms = np.linalg.norm(x, axis=1)
    degenerate = pred_norms < DEGENERATE_NORM
    safe_norms = np.where(degenerate, 1.0, pred_norms)

    cos = (x * tgt).sum(axis=1) / (safe_norms * target_norms)
    cos = np.where(degenerate, -1.0 + epsilon, cos)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))

    live = (~degenerate) & (np.abs(cos) < 1.0 - epsilon)
    clamped = np.clip(cos, -1.0 + epsilon, 1.0 - epsilon)
    # d(angle)/d(pred) = -1/sqrt(1-cos^2) * d(cos)/d(pred)
    dcos = (tgt / (safe_norms * target_norms)[:, None]
            - x * (cos / np.maximum(safe_norms * safe_norms, 1e-300))[:, None])
    dangle = -dcos / np.sqrt(1.0 - clamped * clamped)[:, None]
    return angles, np.where(live[:, None], dangle, 0.0)


def hybrid_loss(target: np.ndarray, pred: E.Tensor, alpha: float = 0.5,
                epsilon: float = COS_CLAMP) -> E.Tensor:
    """alpha * angular + (1 - alpha) * squared distance, as one tape node.

    Each term is a batch mean of per-row sums taken in float64 and cast
    back to the prediction's dtype. A term of weight 0 is not computed, so
    alpha 0 does no angular work and accepts a zero-norm target.
    """
    if not 0.0 <= alpha <= 1.0:
        raise LossError(f"alpha must be in [0, 1], got {alpha}")
    x, dtype = pred.data, pred.data.dtype
    target = np.asarray(target, dtype=dtype)
    if target.ndim != 2 or target.shape[1] != 2:
        raise LossError(f"coordinates must have shape (N, 2), got {target.shape}")
    n = target.shape[0]
    if n == 0:
        raise LossError("empty batch")
    if target.shape != x.shape:
        raise LossError(f"target shape {target.shape} != prediction shape {x.shape}")

    w_ad, w_mse = dtype.type(alpha), dtype.type(1.0 - alpha)
    mse = ad = dtype.type(0.0)  # a term of weight 0 is not computed
    if alpha < 1.0:
        diff = x - target
        rows = (diff * diff).sum(axis=1, dtype=np.float64).astype(dtype)
        mse = (rows.sum(dtype=np.float64) / n).astype(dtype)
    if alpha > 0.0:
        angles, dangle = _angles(target, x, epsilon)
        ad = np.asarray(angles.mean() / np.pi, dtype=dtype)

    def backward(g):
        if alpha < 1.0:
            half = g * w_mse / n * diff  # d(diff * diff) = 2 diff
            grad = half + half
        if alpha > 0.0:
            ad_grad = (g * w_ad * (dangle / (np.pi * n))).astype(dtype)
            grad = ad_grad if alpha == 1.0 else grad + ad_grad
        return (grad,)

    return E._record_op((pred,), ad * w_ad + mse * w_mse, backward)


def mse_loss(target: np.ndarray, pred: E.Tensor) -> E.Tensor:
    """Mean over the batch of squared Euclidean distances."""
    return hybrid_loss(target, pred, 0.0)


def ad_loss(target: np.ndarray, pred: E.Tensor,
            epsilon: float = COS_CLAMP) -> E.Tensor:
    """Mean angle between target and prediction rays, normalized by pi."""
    return hybrid_loss(target, pred, 1.0, epsilon)


def make_loss(cfg: LossConfig):
    """Bind a LossConfig into a ``loss(target, pred)`` callable."""
    alpha = {"mse": 0.0, "ad": 1.0}.get(cfg.kind, cfg.alpha)
    return lambda target, pred: hybrid_loss(target, pred, alpha, cfg.epsilon)


def angular_errors_deg(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-sample angle between rays, in degrees (no grad, float64)."""
    return np.degrees(_angles(target, pred)[0])
