"""Dual-encoder spectrogram transformer for azimuth regression.

Each ear's spectrogram is cut into overlapping patches, linearly projected,
tagged with a fixed 2-D sinusoidal position embedding, and run through its
own encoder stack (optionally parameter-shared across ears). The two
feature maps are merged by concatenation, addition, or subtraction, pass
through a central encoder stack, and are average-pooled over patches into
a linear head that emits unbounded (x, y) coordinates. No classification
token is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as E
from .checkpoint import load_tensors, save_tensors
from .util import config_hash, to_kv

__all__ = [
    "ModelConfig",
    "PatchGrid",
    "ConfigError",
    "patch_counts",
    "extract_patches",
    "sincos_position_table",
    "integrate",
    "EncoderStack",
    "BinauralTransformer",
    "AttentionCapture",
]

INTEGRATIONS = ("concat", "add", "sub")


class ConfigError(ValueError):
    """Inconsistent architecture configuration."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; defaults are the full-scale configuration."""

    height: int = 129
    width: int = 61
    patch: int = 16
    stride: int = 6
    dim: int = 1024
    layers: int = 3
    heads: int = 16
    mlp_dim: int = 1024
    dropout: float = 0.2
    integration: str = "sub"
    shared: bool = False

    def __post_init__(self):
        if self.integration not in INTEGRATIONS:
            raise ConfigError(
                f"integration must be one of {INTEGRATIONS}, got {self.integration!r}")
        if self.dim % self.heads != 0:
            raise ConfigError(
                f"dim {self.dim} not divisible by heads {self.heads}")
        if self.dim % 4 != 0:
            raise ConfigError(f"dim must be divisible by 4, got {self.dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("height", "width", "patch", "stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")

    @property
    def center_dim(self) -> int:
        return 2 * self.dim if self.integration == "concat" else self.dim

    @property
    def grid(self) -> "PatchGrid":
        return patch_counts(self.height, self.width, self.patch, self.stride)

    def hash(self) -> str:
        return config_hash(to_kv(self))


@dataclass(frozen=True)
class PatchGrid:
    """Patch counts along frequency/time plus the zero padding they imply."""

    n_h: int
    n_t: int
    pad_top: int
    pad_right: int

    @property
    def n_patches(self) -> int:
        return self.n_h * self.n_t


def patch_counts(height: int, width: int, patch: int, stride: int) -> PatchGrid:
    """Overlapping-patch counts: n = ceil((extent - patch + stride) / stride).

    When stride does not divide extent - patch, the grid is zero-padded at
    the high-frequency and late-time edges so the last window fits.
    """
    if height < 1 or width < 1 or patch < 1 or stride < 1:
        raise ConfigError(
            f"extents/patch/stride must be positive, got "
            f"({height}, {width}, {patch}, {stride})")

    def one(extent):
        n = max(1, math.ceil((extent - patch + stride) / stride))
        pad = (n - 1) * stride + patch - extent
        if pad >= patch:
            raise ConfigError(
                f"patch {patch} cannot tile extent {extent} with stride {stride}")
        return n, pad

    n_h, pad_top = one(height)
    n_t, pad_right = one(width)
    return PatchGrid(n_h, n_t, pad_top, pad_right)


def extract_patches(x: np.ndarray, patch: int, stride: int,
                    grid: PatchGrid) -> np.ndarray:
    """(B, H, T) -> (B, n_patches, patch*patch), row-major within a patch."""
    batch, height, width = x.shape
    # np.pad gives the same array at about twice the cost of zeros + a slice
    padded = np.zeros((batch, height + grid.pad_top, width + grid.pad_right), x.dtype)
    padded[:, :height, :width] = x
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (patch, patch), axis=(1, 2))[:, ::stride, ::stride]
    return windows.reshape(batch, grid.n_patches, patch * patch).copy()


def sincos_position_table(grid: PatchGrid, dim: int) -> np.ndarray:
    """Fixed 2-D sinusoidal table (n_patches, dim): row half + column half."""

    def one_axis(n, d):
        freqs = 1.0 / (10000.0 ** (np.arange(d // 2) / (d // 2)))
        angles = np.outer(np.arange(n), freqs)
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    half = dim // 2
    rows = one_axis(grid.n_h, half)
    cols = one_axis(grid.n_t, half)
    table = np.concatenate([
        np.repeat(rows, grid.n_t, axis=0),
        np.tile(cols, (grid.n_h, 1)),
    ], axis=1)
    return table.astype(np.float32)


def integrate(z_left: E.Tensor, z_right: E.Tensor, mode: str) -> E.Tensor:
    """Merge per-ear feature maps; concat doubles the feature width."""
    if mode == "add":
        return E.add(z_left, z_right)
    if mode == "sub":
        return E.sub(z_right, z_left)  # left subtracted from right
    if mode == "concat":
        return E.concat([z_left, z_right])
    raise ConfigError(f"unknown integration mode {mode!r}")


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


# A parameter initializer maps (name, shape, fill) to the parameter's array;
# fill is "normal", "zeros" or "ones". Layers ask for their parameters in
# construction order, which fixes the random stream's draw order.
Init = Callable[[str, tuple[int, ...], str], np.ndarray]


def _random_init(seed: int) -> Init:
    """Truncated-normal (std 0.02) weights, zero biases and unit gains."""
    rng = np.random.default_rng(seed)

    def init(name, shape, fill):
        if fill == "normal":
            return _trunc_normal(rng, shape, 0.02)
        return np.ones(shape) if fill == "ones" else np.zeros(shape)

    return init


def _checkpoint_init(arrays: dict[str, np.ndarray], path) -> Init:
    """Hand out each checkpoint array once, by name, checking its shape."""

    def init(name, shape, fill):
        if name not in arrays:
            raise ConfigError(f"checkpoint {path} does not match model: "
                              f"missing {name!r}")
        arr = arrays.pop(name)
        if arr.shape != shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {arr.shape}, "
                f"model expects {shape}")
        return arr

    return init


# A layer gets its parameters from a ``Param``: (name, shape, fill) -> the
# trainable tensor, made by the model's initializer and registered by name.
Param = Callable[[str, tuple[int, ...], str], E.Tensor]


class Linear:
    def __init__(self, d_in: int, d_out: int, param: Param, name: str):
        self.w = param(f"{name}.w", (d_in, d_out), "normal")
        self.b = param(f"{name}.b", (d_out,), "zeros")

    def __call__(self, x: E.Tensor) -> E.Tensor:
        return E.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, dim: int, param: Param, name: str):
        self.gain = param(f"{name}.gain", (dim,), "ones")
        self.bias = param(f"{name}.bias", (dim,), "zeros")

    def __call__(self, x: E.Tensor) -> E.Tensor:
        return E.layer_norm(x, self.gain, self.bias)


class SelfAttention:
    def __init__(self, dim: int, heads: int, param: Param, name: str):
        self.heads = heads
        self.q = Linear(dim, dim, param, f"{name}.q")
        self.k = Linear(dim, dim, param, f"{name}.k")
        self.v = Linear(dim, dim, param, f"{name}.v")
        self.out = Linear(dim, dim, param, f"{name}.out")

    def __call__(self, x: E.Tensor, norm: LayerNorm, capture: list | None) -> E.Tensor:
        """Attention over ``norm(x)``, its layer norm and maps fused into one op."""
        return E.attention(x, norm.gain, norm.bias,
                           [(m.w, m.b) for m in (self.q, self.k, self.v)],
                           self.out.w, self.out.b, self.heads, capture)


class Mlp:
    def __init__(self, dim: int, hidden: int, dropout: float, param: Param,
                 name: str):
        self.fc1 = Linear(dim, hidden, param, f"{name}.fc1")
        self.fc2 = Linear(hidden, dim, param, f"{name}.fc2")
        self.dropout = dropout

    def __call__(self, x: E.Tensor, norm: LayerNorm, rng) -> E.Tensor:
        """The MLP of ``norm(x)``."""
        h = E.norm_linear(x, norm.gain, norm.bias, self.fc1.w, self.fc1.b)
        y = E.dropout(E.gelu(h), self.dropout, rng)
        return E.dropout(self.fc2(y), self.dropout, rng)


class EncoderBlock:
    """Pre-norm block: x + MSA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, dim: int, heads: int, mlp_dim: int, dropout: float,
                 param: Param, name: str):
        self.norm1 = LayerNorm(dim, param, f"{name}.norm1")
        self.attn = SelfAttention(dim, heads, param, f"{name}.attn")
        self.norm2 = LayerNorm(dim, param, f"{name}.norm2")
        self.mlp = Mlp(dim, mlp_dim, dropout, param, f"{name}.mlp")

    def __call__(self, x, rng, capture):
        x = E.add(x, self.attn(x, self.norm1, capture))
        return E.add(x, self.mlp(x, self.norm2, rng))


class EncoderStack:
    """K stacked blocks; K = 0 is the identity on the sequence."""

    def __init__(self, dim: int, layers: int, heads: int, mlp_dim: int,
                 dropout: float, param: Param, name: str):
        self.blocks = [
            EncoderBlock(dim, heads, mlp_dim, dropout, param, f"{name}.block{i}")
            for i in range(layers)
        ]

    def __call__(self, x: E.Tensor, rng=None, capture: list | None = None
                 ) -> E.Tensor:
        for block in self.blocks:
            x = block(x, rng, capture)
        return x


@dataclass
class AttentionCapture:
    """Per-call softmax attention maps, one (B, heads, N, N) array per layer."""

    left: list[np.ndarray]
    right: list[np.ndarray]
    center: list[np.ndarray]

    @classmethod
    def empty(cls) -> "AttentionCapture":
        return cls([], [], [])


class BinauralTransformer:
    """The full two-ear model; see the module docstring for the data flow."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32,
                 init: Init | None = None):
        """``init`` overrides the seeded random initializer (see ``load``)."""
        self.config = config
        self.dtype = dtype
        self.grid = config.grid
        init = init or _random_init(seed)
        patch_dim = config.patch * config.patch

        table = sincos_position_table(self.grid, config.dim)
        self.pos_table = E.Tensor(table, requires_grad=False,
                                  name="pos_table", dtype=dtype)

        # every trainable tensor, by name, in creation order; a shared ear
        # pathway is created, and so listed, once
        self._params: dict[str, E.Tensor] = {}

        def param(name, shape, fill):
            p = E.parameter(init(name, shape, fill), name=name, dtype=dtype)
            self._params[name] = p
            return p

        def ear(name):
            return (Linear(patch_dim, config.dim, param, f"{name}.proj"),
                    EncoderStack(config.dim, config.layers, config.heads,
                                 config.mlp_dim, config.dropout, param,
                                 f"{name}.enc"))

        left = ear("ear" if config.shared else "left")
        right = left if config.shared else ear("right")
        (self.proj_left, self.enc_left), (self.proj_right, self.enc_right) = left, right

        self.enc_center = EncoderStack(config.center_dim, config.layers,
                                       config.heads, config.mlp_dim, config.dropout,
                                       param, "center.enc")
        self.final_norm = LayerNorm(config.center_dim, param, "final_norm")
        self.head = Linear(config.center_dim, 2, param, "head")

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[E.Tensor]:
        """Trainable tensors in creation order (shared ears appear once)."""
        return list(self._params.values())

    def count_parameters(self) -> int:
        """Trainable scalar count; the fixed position table is excluded."""
        return sum(p.size for p in self.parameters())

    # -- forward ------------------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        cfg = self.config
        if x.shape[1:] != (cfg.height, cfg.width):
            raise ConfigError(
                f"spectrogram shape {x.shape[1:]} does not match configured "
                f"({cfg.height}, {cfg.width})")
        return x

    def embed(self, x: np.ndarray, proj: Linear, rng) -> E.Tensor:
        cfg = self.config
        patches = extract_patches(self._as_batch(x), cfg.patch, cfg.stride, self.grid)
        tokens = E.add(proj(E.Tensor(patches, dtype=self.dtype)), self.pos_table)
        return E.dropout(tokens, cfg.dropout, rng)

    def integrated(self, x_left: np.ndarray, x_right: np.ndarray, rng=None,
                   capture: AttentionCapture | None = None) -> E.Tensor:
        """Per-ear encoders plus interaural integration (input to the center)."""
        x_left, x_right = self._as_batch(x_left), self._as_batch(x_right)
        if len(x_left) != len(x_right):
            raise ConfigError(f"left batch {x_left.shape} and right batch "
                              f"{x_right.shape} differ in size")
        cap_l = capture.left if capture is not None else None
        cap_r = capture.right if capture is not None else None
        z_l = self.enc_left(self.embed(x_left, self.proj_left, rng), rng, cap_l)
        z_r = self.enc_right(self.embed(x_right, self.proj_right, rng), rng, cap_r)
        return integrate(z_l, z_r, self.config.integration)

    def forward(self, x_left: np.ndarray, x_right: np.ndarray, rng=None,
                capture: AttentionCapture | None = None) -> E.Tensor:
        """Predicted coordinates; dropout runs only when ``rng`` is given."""
        z = self.integrated(x_left, x_right, rng, capture)
        cap_c = capture.center if capture is not None else None
        z = self.enc_center(z, rng, cap_c)
        pooled = E.tmean(self.final_norm(z), axis=1)
        return self.head(pooled)

    def predict(self, x_left: np.ndarray, x_right: np.ndarray) -> np.ndarray:
        """Eval-mode coordinates, shape (batch, 2)."""
        return self.forward(x_left, x_right).data

    def forward_with_attention(self, x_left: np.ndarray, x_right: np.ndarray
                               ) -> tuple[np.ndarray, AttentionCapture]:
        capture = AttentionCapture.empty()
        pred = self.forward(x_left, x_right, capture=capture)
        return pred.data, capture

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        save_tensors(path, {p.name: p.data for p in self.parameters()},
                     config_hash=self.config.hash())

    @classmethod
    def load(cls, path, config: ModelConfig) -> "BinauralTransformer":
        """Build a float32 model from a checkpoint saved under an identical
        configuration."""
        arrays, _ = load_tensors(path, expected_config_hash=config.hash())
        model = cls(config, init=_checkpoint_init(arrays, path))
        if arrays:
            raise ConfigError(f"checkpoint {path} does not match model: "
                              f"unexpected {sorted(arrays)}")
        return model
