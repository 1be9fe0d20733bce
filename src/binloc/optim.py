"""Adam optimizer over engine tensors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor

__all__ = ["AdamState", "adam_step", "OptimizerError", "cosine_lr",
           "zero_grads"]


class OptimizerError(RuntimeError):
    """Raised when an update cannot be applied (non-finite gradients...)."""


# the standard Adam recipe's moment decays and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """The learning rate plus first/second-moment accumulators; the update
    uses ``BETA1``, ``BETA2`` and ``EPS`` with bias-corrected moments."""

    lr: float = 1e-4
    step_count: int = 0
    m: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)


def cosine_lr(peak: float, epoch: int, epochs: int) -> float:
    """Cosine-annealed rate for ``epoch`` of ``epochs`` (SGDR, no restarts).

    Epoch 0 runs at ``peak`` exactly; the rate falls as
    ``peak * (1 + cos(pi * epoch / epochs)) / 2`` and the last epoch still
    runs at a small positive rate.
    """
    if not 0 <= epoch < epochs:
        raise ValueError(f"epoch {epoch} outside 0..{epochs - 1}")
    return peak * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place from each ``p.grad``.

    A None gradient is treated as zero (the parameter still advances its
    moment decay). Raises ``OptimizerError`` on a gradient of the wrong
    shape or with non-finite values, naming the parameter.
    """
    # validate everything first so a bad gradient cannot half-apply a step
    checked = []
    for i, p in enumerate(params):
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if g.shape != p.data.shape:
            raise OptimizerError(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.name or i} of shape {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise OptimizerError(
                f"non-finite gradient for parameter {p.name or i}")
        checked.append((p, g))

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t

    for p, g in checked:
        key = id(p)
        m = state.m.get(key)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[key] = m
            state.v[key] = np.zeros_like(p.data)
        v = state.v[key]
        # m += (1 - BETA1) * g and v += (1 - BETA2) * g * g, then
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS), through one scratch
        # array and the update itself
        scratch = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        update = np.divide(m, bc1)
        update *= state.lr
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        update /= scratch
        p.data -= update
