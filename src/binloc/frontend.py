"""Waveform-to-spectrogram frontend.

Converts 500 ms / 16 kHz binaural recordings into a pair of 129x61
magnitude spectrograms: Tukey-windowed frames of 256 samples, hop 128,
one-sided 256-point FFT. Optional log(1+m) compression and joint-ear
standardization prepare the pair for training.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def n_bins(self) -> int:
        return self.nfft // 2 + 1

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


def stft_magnitude(channel: np.ndarray, cfg: FrontendConfig = CANONICAL) -> np.ndarray:
    """One-sided FFT magnitude grid, shape (n_bins, n_frames)."""
    x = np.asarray(channel, dtype=np.float64).reshape(-1)
    if x.size < cfg.window_length:
        raise FrontendError(
            f"waveform of {x.size} samples is shorter than one "
            f"{cfg.window_length}-sample window")
    n_frames = cfg.n_frames(x.size)
    window = tukey_window(cfg.window_length, cfg.tukey_shape)
    idx = np.arange(cfg.window_length)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
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
# spectrogram cache file: manifest + row-major float32 payload

_CACHE_MAGIC = b"BLSPEC1\n"


def save_spectrogram_cache(path, entries: dict[str, tuple[np.ndarray, np.ndarray]],
                           cfg: FrontendConfig, *, corpus_hash: str | None = None
                           ) -> None:
    """Write named (left, right) spectrogram pairs tagged with the frontend
    config hash and the hash of the corpus they came from.

    The write is atomic: a failed save leaves the old file intact.
    """
    manifest = {"config_hash": cfg.hash(), "corpus_hash": corpus_hash, "entries": {}}
    offset = 0
    blobs = []
    for name, (left, right) in entries.items():
        pair = np.stack([left, right])
        manifest["entries"][name] = {"shape": list(pair.shape), "offset": offset}
        blobs.append(pair)
        offset += pair.size
    write_tensor_file(path, _CACHE_MAGIC, manifest, blobs)


def load_spectrogram_cache(path, cfg: FrontendConfig, *, corpus_hash: str | None = None
                           ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read a cache written by ``save_spectrogram_cache``.

    Raises ``FrontendError`` when the file is not a cache or is cut short,
    when the stored frontend config hash does not match ``cfg``, and, if
    ``corpus_hash`` is given, when the cache was built from another corpus.
    """
    manifest, payload = read_tensor_file(path, _CACHE_MAGIC, "spectrogram cache",
                                         FrontendError)
    if manifest["config_hash"] != cfg.hash():
        raise FrontendError(
            f"{path}: cache was generated under config {manifest['config_hash']}, "
            f"current config is {cfg.hash()}")
    stored_corpus = manifest.get("corpus_hash")
    if corpus_hash is not None and stored_corpus != corpus_hash:
        raise FrontendError(
            f"{path}: cache was built from corpus {stored_corpus}, "
            f"current corpus is {corpus_hash}")
    out = {}
    for name, entry in manifest["entries"].items():
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        if entry["offset"] + count > payload.size:
            raise FrontendError(f"{path}: truncated payload for {name!r}")
        pair = payload[entry["offset"]:entry["offset"] + count].reshape(shape)
        out[name] = (pair[0].copy(), pair[1].copy())
    return out
