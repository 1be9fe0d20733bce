"""Synthetic binaural corpus: sources, spatial rendering, dataset assembly.

Sounds sit on a 1 m circle around the listener at 10-degree azimuth steps
(0 = dead ahead, clockwise, so 90 = full right). Rendering applies a
Woodworth-style interaural time difference, a first-order head-shadow
level difference, and, for reverberant scenes, an image-source room model
over a rectangular room. Measured HRTFs are out of scope; only relative
interaural cues matter here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io.wavfile
import scipy.signal

from .frontend import Waveform
from .util import config_hash, to_kv

__all__ = [
    "LocalizationTarget",
    "SceneConfig",
    "DatasetManifest",
    "ManifestRecord",
    "GeometryError",
    "SpatialError",
    "AZIMUTH_GRID",
    "azimuth_to_xy",
    "make_source",
    "render_binaural",
    "build_dataset",
    "save_manifest",
    "load_manifest",
    "write_wav",
    "read_wav",
    "anechoic_scene",
    "reverberant_scene",
]

SAMPLE_RATE = 16000
AZIMUTH_GRID = tuple(range(0, 360, 10))
SOURCE_KINDS = ("white-noise", "tone-complex", "am-noise", "chirp")
_WAV_SCALE = 8192.0  # int16 headroom for summed reflections


class SpatialError(ValueError):
    """Bad corpus parameters."""


class GeometryError(ValueError):
    """Listener or source placed outside the room."""


def azimuth_to_xy(azimuth_deg: float) -> np.ndarray:
    """Unit-circle coordinate for an azimuth: x = sin, y = cos (clockwise)."""
    rad = math.radians(azimuth_deg)
    return np.array([math.sin(rad), math.cos(rad)], dtype=np.float64)


@dataclass(frozen=True)
class LocalizationTarget:
    """Ground truth for one sample: azimuth on the 10-degree grid, 1 m out."""

    azimuth: int
    environment: str

    def __post_init__(self):
        if self.azimuth not in AZIMUTH_GRID:
            raise SpatialError(
                f"azimuth must be a multiple of 10 in [0, 350], got {self.azimuth}")
        if self.environment not in ("AE", "RV"):
            raise SpatialError(
                f"environment must be 'AE' or 'RV', got {self.environment!r}")

    @property
    def coordinate(self) -> np.ndarray:
        return azimuth_to_xy(self.azimuth)


@dataclass(frozen=True)
class SceneConfig:
    """Room geometry and rendering controls.

    ``reflection_order`` 0 renders the direct path only (anechoic);
    higher orders add image sources with up to that many wall bounces.
    """

    room: tuple[float, float, float] = (10.0, 14.0, 3.0)
    listener: tuple[float, float, float] = (5.0, 5.0, 1.5)
    head_radius: float = 0.0875
    speed_of_sound: float = 343.0
    absorption: float = 0.3
    reflection_order: int = 0

    def __post_init__(self):
        if not 0.0 < self.absorption <= 1.0:
            raise SpatialError(f"absorption must be in (0, 1], got {self.absorption}")
        if self.reflection_order < 0:
            raise SpatialError("reflection order must be >= 0")
        for axis in range(3):
            if not 0.0 < self.listener[axis] < self.room[axis]:
                raise GeometryError(
                    f"listener {self.listener} outside room {self.room}")

    @property
    def is_anechoic(self) -> bool:
        return self.reflection_order == 0


def anechoic_scene() -> SceneConfig:
    return SceneConfig(reflection_order=0)


def reverberant_scene() -> SceneConfig:
    return SceneConfig(reflection_order=3, absorption=0.3)


# ---------------------------------------------------------------------------
# source synthesis


def make_source(kind: str, duration: float = 0.5, seed: int = 0,
                sample_rate: int = SAMPLE_RATE) -> Waveform:
    """Deterministic mono test sound, peak-normalized to 0.9."""
    if kind not in SOURCE_KINDS:
        raise SpatialError(f"unknown source kind {kind!r}; choose {SOURCE_KINDS}")
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    if kind == "white-noise":
        x = rng.standard_normal(n)
    elif kind == "tone-complex":
        f0 = rng.uniform(150.0, 500.0)
        x = np.zeros(n)
        for k in range(1, 7):
            x += (1.0 / k) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    elif kind == "am-noise":
        fm = rng.uniform(4.0, 16.0)
        env = 1.0 + 0.8 * np.sin(2 * np.pi * fm * t + rng.uniform(0, 2 * np.pi))
        x = rng.standard_normal(n) * env
    else:  # chirp
        f0 = rng.uniform(200.0, 1000.0)
        f1 = rng.uniform(2000.0, 7000.0)
        x = np.sin(2 * np.pi * (f0 * t + 0.5 * (f1 - f0) / duration * t * t))
    x *= 0.9 / np.max(np.abs(x))
    return Waveform(x, sample_rate)


# ---------------------------------------------------------------------------
# binaural rendering

_SINC_TAPS = np.arange(-3, 5)  # 8-tap windowed-sinc interpolation


def _frac_delay_kernel(frac: float) -> np.ndarray:
    u = _SINC_TAPS - frac
    return np.sinc(u) * (0.5 + 0.5 * np.cos(np.pi * u / 4.0))


def _delayed(x: np.ndarray, delay_samples: float, n_out: int) -> np.ndarray:
    """x shifted by a fractional sample delay, truncated to n_out samples."""
    i = int(math.floor(delay_samples))
    frac = delay_samples - i
    y = np.convolve(x, _frac_delay_kernel(frac))
    out = np.zeros(n_out)
    start = i + _SINC_TAPS[0]
    src_lo = max(0, -start)
    dst_lo = max(0, start)
    m = min(n_out - dst_lo, y.size - src_lo)
    if m > 0:
        out[dst_lo:dst_lo + m] = y[src_lo:src_lo + m]
    return out


def _woodworth_itd(lateral_sin: float, head_radius: float, c: float) -> float:
    """Signed interaural delay (s), positive when the left ear lags."""
    phi = math.asin(max(-1.0, min(1.0, lateral_sin)))
    return (head_radius / c) * (phi + math.sin(phi))


def _ear_signal(src: np.ndarray, dist: float, lateral_sin: float,
                front_cos: float, ear: int, amp: float, scene: SceneConfig,
                n_out: int) -> np.ndarray:
    """One image's contribution to one ear (+1 right, -1 left)."""
    itd = _woodworth_itd(lateral_sin, scene.head_radius, scene.speed_of_sound)
    delay = dist / scene.speed_of_sound - ear * itd / 2.0
    ips = ear * lateral_sin  # > 0 when the source is on this ear's side
    gain = 10.0 ** (6.0 * ips / 20.0)
    beta = 0.5 * max(0.0, -ips)  # contralateral first-order head shadow
    y = _delayed(src, delay * SAMPLE_RATE, n_out) * (amp * gain / max(dist, 0.1))
    # zero-phase shadows keep the interaural delay purely Woodworth; the
    # ipsilateral ear has beta 0, an identity filter
    if beta > 0.0:
        y = _zero_phase_pole(y, beta)
    # pinna stand-in: rear sources lose high frequencies on both ears,
    # without it every anechoic azimuth pair (t, 180-t) is inseparable
    beta_fb = 0.35 * max(0.0, -front_cos)
    if beta_fb > 0.0:
        y = _zero_phase_pole(y, beta_fb)
    return y


_PAD = 6  # filtfilt's default odd extension for a two-tap filter


def _zero_phase_pole(y: np.ndarray, beta: float) -> np.ndarray:
    """``scipy.signal.filtfilt([1 - beta], [1, -beta], y)``, bit for bit.

    The same odd extension, steady-state initial conditions and
    forward-backward ``lfilter`` passes, without filtfilt's general-order
    setup; ``zi`` is the closed form of ``lfilter_zi``'s 1x1 solve.
    """
    b = np.array([1.0 - beta])
    a = np.array([1.0, -beta])
    zi = np.array([(0.0 - a[1] * b[0]) / (1.0 - beta)])
    ext = np.concatenate((2 * y[:1] - y[_PAD:0:-1], y,
                          2 * y[-1:] - y[-2:-(_PAD + 2):-1]))
    fwd, _ = scipy.signal.lfilter(b, a, ext, zi=zi * ext[:1])
    back, _ = scipy.signal.lfilter(b, a, fwd[::-1], zi=zi * fwd[-1:])
    return back[::-1][_PAD:-_PAD]


def _axis_images(n: int, length: float, source: float) -> float:
    return n * length + source if n % 2 == 0 else (n + 1) * length - source


def _render(src: np.ndarray, src_pos: np.ndarray, scene: SceneConfig) -> np.ndarray:
    lis = np.asarray(scene.listener)
    order = scene.reflection_order
    refl = math.sqrt(1.0 - scene.absorption)
    n_out = src.size
    out = np.zeros((2, n_out))
    # _ear_signal sees an image only through (dist, lateral, front, amp);
    # images (nx, ny, +nz) and (nx, ny, -nz) share them when the source and
    # listener are level, so each distinct key is rendered once and its
    # signals are added again in loop order, which keeps the sums' bits
    rendered: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for nx in range(-order, order + 1):
        for ny in range(-order, order + 1):
            rem = order - abs(nx) - abs(ny)
            if rem < 0:
                continue
            ix = _axis_images(nx, scene.room[0], src_pos[0])
            iy = _axis_images(ny, scene.room[1], src_pos[1])
            for nz in range(-rem, rem + 1):
                iz = _axis_images(nz, scene.room[2], src_pos[2])
                d = np.array([ix, iy, iz]) - lis
                dist = float(np.linalg.norm(d))
                horiz = math.hypot(d[0], d[1])
                lateral = d[0] / horiz if horiz > 1e-12 else 0.0
                front = d[1] / horiz if horiz > 1e-12 else 1.0
                amp = refl ** (abs(nx) + abs(ny) + abs(nz))
                key = (dist, lateral, front, amp)
                if key not in rendered:
                    rendered[key] = tuple(
                        _ear_signal(src, dist, lateral, front, ear, amp, scene, n_out)
                        for ear in (-1, +1))
                left, right = rendered[key]
                out[0] += left
                out[1] += right
    return out


def render_binaural(source: Waveform, target: LocalizationTarget,
                    scene: SceneConfig) -> Waveform:
    """Spatialize a mono source to a 2-channel (left, right) waveform.

    Rendering is deterministic. Lateral geometry is normalized to the
    right half-plane and mirrored back, so azimuth pairs (t, 360-t) give
    exactly channel-swapped outputs whenever the room is left-right
    symmetric about the listener.
    """
    if source.channels != 1:
        raise SpatialError(f"source must be mono, got {source.channels} channels")
    if source.length <= _PAD:
        raise SpatialError(
            f"source must be longer than {_PAD} samples, got {source.length}")
    lis = np.asarray(scene.listener)
    xy = azimuth_to_xy(target.azimuth)
    src_pos = np.array([lis[0] + xy[0], lis[1] + xy[1], lis[2]])
    for axis in range(3):
        if not 0.0 < src_pos[axis] < scene.room[axis]:
            raise GeometryError(
                f"source at {tuple(src_pos)} outside room {scene.room} "
                f"(azimuth {target.azimuth})")

    symmetric = abs(lis[0] - scene.room[0] / 2.0) < 1e-9
    mirror = src_pos[0] < lis[0] and (scene.is_anechoic or symmetric)
    if mirror:
        src_pos = src_pos.copy()
        src_pos[0] = 2.0 * lis[0] - src_pos[0]
    out = _render(source.samples[0], src_pos, scene)
    if mirror:
        out = out[::-1]
    return Waveform(out, source.sample_rate)


# ---------------------------------------------------------------------------
# corpus on disk


def write_wav(path, wave: Waveform) -> None:
    """Store as little-endian 16-bit PCM with fixed headroom scaling."""
    data = np.clip(np.round(wave.samples.T * _WAV_SCALE), -32768, 32767)
    scipy.io.wavfile.write(path, wave.sample_rate, data.astype("<i2"))


def read_wav(path) -> Waveform:
    rate, data = scipy.io.wavfile.read(path)
    if data.ndim == 1:
        data = data[:, None]
    return Waveform(data.T.astype(np.float64) / _WAV_SCALE, rate)


@dataclass(frozen=True)
class ManifestRecord:
    sample_id: str
    source_id: str
    azimuth: int
    environment: str
    split: str
    path: str


@dataclass
class DatasetManifest:
    records: list[ManifestRecord] = field(default_factory=list)
    config_hash: str = ""

    def split_records(self, split: str, environments: tuple[str, ...] = ("AE", "RV")
                      ) -> list[ManifestRecord]:
        return [r for r in self.records
                if r.split == split and r.environment in environments]


def save_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in manifest.records:
            fh.write(json.dumps({
                "id": r.sample_id, "source": r.source_id, "azimuth": r.azimuth,
                "env": r.environment, "split": r.split, "path": r.path,
                "config_hash": manifest.config_hash,
            }, sort_keys=True) + "\n")


def load_manifest(path) -> DatasetManifest:
    records = []
    hashes = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        records.append(ManifestRecord(row["id"], row["source"], row["azimuth"],
                                      row["env"], row["split"], row["path"]))
        hashes.add(row["config_hash"])
    if len(hashes) > 1:
        raise SpatialError(f"{path}: mixed config hashes {sorted(hashes)}")
    return DatasetManifest(records, hashes.pop() if hashes else "")


def build_dataset(sources: dict[str, Waveform], azimuths, scenes: dict[str, SceneConfig],
                  ratio: float, seed: int, out_dir,
                  test_sources: dict[str, Waveform] | None = None) -> DatasetManifest:
    """Render every (source, azimuth, environment) triple and split it.

    Each (azimuth, environment) stratum is split independently into
    train/val at ``ratio``; ``test_sources`` are rendered separately and
    tagged test, keeping their ids disjoint from the train/val pool.
    """
    if not 0.0 < ratio < 1.0:
        raise SpatialError(f"split ratio must be in (0, 1), got {ratio}")
    if not sources:
        raise SpatialError("need at least one source")
    test_sources = test_sources or {}
    overlap = set(sources) & set(test_sources)
    if overlap:
        raise SpatialError(f"test sources overlap the train/val pool: {sorted(overlap)}")

    out_dir = Path(out_dir)
    gen_hash = config_hash({
        "ratio": ratio, "seed": seed,
        "azimuths": tuple(sorted(azimuths)),
        "sources": tuple(sorted(sources)),
        "test_sources": tuple(sorted(test_sources)),
        **{f"scene_{env}_{k}": v for env, scene in sorted(scenes.items())
           for k, v in to_kv(scene).items()},
    })

    records = []
    pool_ids = sorted(sources)
    for env_ix, (env, scene) in enumerate(sorted(scenes.items())):
        (out_dir / env).mkdir(parents=True, exist_ok=True)
        for azimuth in sorted(azimuths):
            target = LocalizationTarget(azimuth, env)
            stratum_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(env_ix, azimuth)))
            order = stratum_rng.permutation(len(pool_ids))
            n_train = int(round(ratio * len(pool_ids)))
            if len(pool_ids) >= 2:
                n_train = min(max(n_train, 1), len(pool_ids) - 1)
            train_ids = {pool_ids[i] for i in order[:n_train]}
            for sid in pool_ids:
                split = "train" if sid in train_ids else "val"
                records.append(_render_one(sources[sid], sid, target, scene,
                                           split, out_dir, env, gen_hash))
            for sid in sorted(test_sources):
                records.append(_render_one(test_sources[sid], sid, target, scene,
                                           "test", out_dir, env, gen_hash))
    manifest = DatasetManifest(records, gen_hash)
    save_manifest(out_dir / "manifest.jsonl", manifest)
    return manifest


def _render_one(source: Waveform, source_id: str, target: LocalizationTarget,
                scene: SceneConfig, split: str, out_dir: Path, env: str,
                gen_hash: str) -> ManifestRecord:
    sample_id = f"{source_id}_az{target.azimuth:03d}_{env}"
    rel_path = f"{env}/{sample_id}.wav"
    write_wav(out_dir / rel_path, render_binaural(source, target, scene))
    return ManifestRecord(sample_id, source_id, target.azimuth, env, split, rel_path)
