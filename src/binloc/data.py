"""Corpus loading: manifest records to in-memory spectrogram samples."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frontend import FrontendConfig, FrontendError, binaural_spectrogram, \
    load_spectrogram_cache, save_spectrogram_cache
from .spatial import DatasetManifest, azimuth_to_xy, load_manifest, read_wav

__all__ = ["Sample", "load_samples", "batches"]


@dataclass
class Sample:
    """One training/eval item: spectrogram pair plus ground truth."""

    sample_id: str
    azimuth: int
    environment: str
    split: str
    x_left: np.ndarray
    x_right: np.ndarray
    target: np.ndarray


def load_samples(manifest_path, frontend_cfg: FrontendConfig,
                 splits: tuple[str, ...] | None = None,
                 environments: tuple[str, ...] | None = None,
                 cache_path=None,
                 pool: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
                 ) -> list[Sample]:
    """Read WAVs referenced by a manifest and convert them to spectrograms.

    ``splits``/``environments`` filter records before anything is read, and
    the samples come back in manifest order, so a caller that needs several
    splits loads them in one call and separates them by ``Sample.split``.
    ``cache_path`` points at an optional spectrogram cache that is reused
    when it was built from this corpus under this frontend config; a cache
    that is not, that is cut short, that holds a misshapen entry or that has
    an older layout is rebuilt with one line on stderr naming the cause. The
    cache is written at most once per call, and only when a pair was missing
    from it.

    ``pool`` maps sample id to spectrogram pair for a caller that loads the
    same corpus under the same frontend config several times: a pair comes
    from the cache file first, then from the pool, and is computed only
    when neither has it; every pair used goes into the pool.
    """
    manifest: DatasetManifest = load_manifest(manifest_path)
    root = Path(manifest_path).parent
    records = [r for r in manifest.records
               if (splits is None or r.split in splits)
               and (environments is None or r.environment in environments)]

    cached: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if cache_path is not None and Path(cache_path).exists():
        try:
            cached = load_spectrogram_cache(cache_path, frontend_cfg,
                                            corpus_hash=manifest.config_hash)
        except FrontendError as exc:
            sys.stderr.write(f"rebuilding spectrogram cache: {exc}\n")

    pool = {} if pool is None else pool
    samples = []
    fresh: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for r in records:
        pair = cached.get(r.sample_id)
        if pair is None:
            pair = pool.get(r.sample_id)
            if pair is None:
                pair = binaural_spectrogram(read_wav(root / r.path), frontend_cfg)
            fresh[r.sample_id] = pair
        pool[r.sample_id] = pair
        samples.append(Sample(r.sample_id, r.azimuth, r.environment, r.split,
                              pair[0], pair[1],
                              azimuth_to_xy(r.azimuth).astype(np.float32)))
    if cache_path is not None and fresh:
        cached.update(fresh)
        save_spectrogram_cache(cache_path, cached, frontend_cfg,
                               corpus_hash=manifest.config_hash)
    return samples


def batches(samples: list[Sample], batch_size: int, order=None):
    """Yield (x_left, x_right, target, chunk) per batch in the given order:
    three stacked arrays and the list of the batch's samples."""
    if order is None:
        order = np.arange(len(samples))
    for start in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[start:start + batch_size]]
        yield (np.stack([s.x_left for s in chunk]),
               np.stack([s.x_right for s in chunk]),
               np.stack([s.target for s in chunk]),
               chunk)
