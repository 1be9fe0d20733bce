"""Waveform-to-spectrogram frontend.

Converts 500 ms / 16 kHz binaural recordings into a pair of 129x61
magnitude spectrograms: Tukey-windowed frames of 256 samples, hop 128,
one-sided 256-point FFT. Optional log(1+m) compression and joint-ear
standardization prepare the pair for training.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import config_hash, read_tensor_file, to_kv, write_tensor_file

__all__ = [
    "Waveform",
    "FrontendConfig",
    "FrontendError",
    "tukey_window",
    "stft_magnitude",
    "binaural_spectrogram",
    "save_spectrogram_cache",
    "load_spectrogram_cache",
    "CANONICAL",
]


class FrontendError(ValueError):
    """Bad waveform or frontend parameters."""


@dataclass(frozen=True)
class Waveform:
    """PCM audio: ``samples`` is (channels, n), amplitudes dimensionless."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] not in (1, 2):
            raise FrontendError(
                f"waveform must be 1 or 2 channels, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FrontendError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", arr)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class FrontendConfig:
    """STFT geometry plus post-processing switches.

    The default 256/128/256 geometry maps an 8000-sample input to exactly
    129 frequency bins by 61 frames.
    """

    window_length: int = 256
    hop: int = 128
    nfft: int = 256
    tukey_shape: float = 0.25
    log_compress: bool = True
    standardize: bool = True

    def __post_init__(self):
        if self.hop < 1:
            raise FrontendError(f"hop must be >= 1, got {self.hop}")
        if self.window_length < 2:
            raise FrontendError(f"window_length must be >= 2, got {self.window_length}")
        if self.nfft < self.window_length:
            raise FrontendError(
                f"nfft {self.nfft} must be >= window_length {self.window_length}")
        if not 0.0 <= self.tukey_shape <= 1.0:
            raise FrontendError(f"tukey_shape must be in [0, 1], got {self.tukey_shape}")

    def n_frames(self, n_samples: int) -> int:
        return (n_samples - self.window_length) // self.hop + 1

    def hash(self) -> str:
        return config_hash(to_kv(self))


CANONICAL = FrontendConfig()


def tukey_window(length: int, shape: float) -> np.ndarray:
    """Tapered-cosine window; shape 0 is rectangular, shape 1 is Hann."""
    if length < 2:
        raise FrontendError(f"window length must be >= 2, got {length}")
    if not 0.0 <= shape <= 1.0:
        raise FrontendError(f"tukey shape must be in [0, 1], got {shape}")
    if shape == 0.0:
        return np.ones(length)
    n = np.arange(length)
    edge = shape * (length - 1) / 2.0
    w = np.ones(length)
    lo = n < edge
    hi = n > (length - 1) - edge
    w[lo] = 0.5 * (1 + np.cos(np.pi * (n[lo] / edge - 1)))
    w[hi] = 0.5 * (1 + np.cos(np.pi * ((n[hi] - (length - 1)) / edge + 1)))
    return w


@lru_cache(maxsize=16)
def _stft_plan(window_length: int, hop: int, tukey_shape: float, n_frames: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Tukey window and (n_frames, window_length) frame index of
    one STFT geometry, built once and shared by every channel."""
    window = tukey_window(window_length, tukey_shape)
    idx = np.arange(window_length)[None, :] + hop * np.arange(n_frames)[:, None]
    window.flags.writeable = False
    idx.flags.writeable = False
    return window, idx


def stft_magnitude(channel: np.ndarray, cfg: FrontendConfig = CANONICAL) -> np.ndarray:
    """One-sided FFT magnitude grid, shape (n_bins, n_frames)."""
    x = np.asarray(channel, dtype=np.float64).reshape(-1)
    if x.size < cfg.window_length:
        raise FrontendError(
            f"waveform of {x.size} samples is shorter than one "
            f"{cfg.window_length}-sample window")
    window, idx = _stft_plan(cfg.window_length, cfg.hop, cfg.tukey_shape,
                             cfg.n_frames(x.size))
    frames = x[idx] * window
    spec = np.abs(np.fft.rfft(frames, n=cfg.nfft, axis=1))
    return spec.T.astype(np.float32)


def binaural_spectrogram(wave: Waveform, cfg: FrontendConfig = CANONICAL
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-ear magnitude spectrograms for a stereo waveform.

    Log compression is applied per element; standardization removes the
    joint mean/scale of the pair so interaural level differences survive.
    """
    if wave.channels != 2:
        raise FrontendError(f"need a 2-channel waveform, got {wave.channels}")
    left = stft_magnitude(wave.samples[0], cfg)
    right = stft_magnitude(wave.samples[1], cfg)
    if cfg.log_compress:
        left = np.log1p(left)
        right = np.log1p(right)
    if cfg.standardize:
        both = np.stack([left, right])
        mean = both.mean(dtype=np.float64)
        std = both.std(dtype=np.float64)
        if std < 1e-12:
            std = 1.0
        left = ((left - mean) / std).astype(np.float32)
        right = ((right - mean) / std).astype(np.float32)
    return left, right


# ---------------------------------------------------------------------------
# spectrogram cache file: the checkpoint layout (``util.write_tensor_file``)
# with one (2, bins, frames) tensor per sample

_CACHE_MAGIC = b"BLSPEC2\n"


def save_spectrogram_cache(path, entries: dict[str, tuple[np.ndarray, np.ndarray]],
                           cfg: FrontendConfig, *, corpus_hash: str) -> None:
    """Write named (left, right) spectrogram pairs tagged with the frontend
    config hash and the hash of the corpus they came from.

    The write is atomic: a failed save leaves the old file intact.
    """
    write_tensor_file(path, _CACHE_MAGIC,
                      {"config_hash": cfg.hash(), "corpus_hash": corpus_hash},
                      {name: np.stack(pair) for name, pair in entries.items()})


def load_spectrogram_cache(path, cfg: FrontendConfig, *, corpus_hash: str | None = None
                           ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read a cache written by ``save_spectrogram_cache``.

    Raises ``FrontendError`` when the file is not a cache in this layout, is
    cut short or has a malformed header, when an entry is not one (2, bins,
    frames) pair or differs in shape from the first entry, when the stored
    frontend config hash does not match ``cfg``, and, if ``corpus_hash`` is
    given, when the cache was built from another corpus.
    """
    header, pairs = read_tensor_file(path, _CACHE_MAGIC, "spectrogram cache",
                                     FrontendError)
    stored_config = header.get("config_hash")
    if stored_config != cfg.hash():
        raise FrontendError(
            f"{path}: cache was generated under config {stored_config}, "
            f"current config is {cfg.hash()}")
    stored_corpus = header.get("corpus_hash")
    if corpus_hash is not None and stored_corpus != corpus_hash:
        raise FrontendError(
            f"{path}: cache was built from corpus {stored_corpus}, "
            f"current corpus is {corpus_hash}")
    bins = cfg.nfft // 2 + 1
    first = next(iter(pairs), None)
    for name, pair in pairs.items():
        if pair.ndim != 3 or pair.shape[:2] != (2, bins):
            raise FrontendError(f"{path}: entry {name!r} has shape {pair.shape}, "
                                f"expected (2, {bins}, frames)")
        if pair.shape != pairs[first].shape:
            raise FrontendError(f"{path}: entry {name!r} has shape {pair.shape}, "
                                f"entry {first!r} has {pairs[first].shape}")
    return {name: (pair[0], pair[1]) for name, pair in pairs.items()}
