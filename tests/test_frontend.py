"""Spectrogram frontend: window shapes, STFT geometry, cache format."""

import dataclasses
import os

import numpy as np
import pytest
import scipy.signal

from binloc.frontend import (
    CANONICAL,
    FrontendConfig,
    FrontendError,
    Waveform,
    _stft_plan,
    binaural_spectrogram,
    load_spectrogram_cache,
    save_spectrogram_cache,
    stft_magnitude,
    tukey_window,
)
from binloc import util
from helpers import MALFORMED_HEADERS, fail_writes_after, tensor_file_bytes

RAW = dataclasses.replace(CANONICAL, log_compress=False, standardize=False)


def _stereo(rng, n=8000, fs=16000):
    return Waveform(rng.standard_normal((2, n)) * 0.1, fs)


class TestTukeyWindow:
    def test_shape_zero_is_rectangular(self):
        np.testing.assert_array_equal(tukey_window(64, 0.0), np.ones(64))

    def test_shape_one_is_hann(self):
        np.testing.assert_allclose(tukey_window(65, 1.0),
                                   scipy.signal.windows.hann(65, sym=True),
                                   atol=1e-12)

    def test_matches_scipy_for_quarter_taper(self):
        np.testing.assert_allclose(tukey_window(256, 0.25),
                                   scipy.signal.windows.tukey(256, 0.25, sym=True),
                                   atol=1e-12)

    def test_center_flat_and_endpoints_zero(self):
        w = tukey_window(256, 0.25)
        assert w[128] == 1.0
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[-1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_shape_out_of_range(self, bad):
        with pytest.raises(FrontendError):
            tukey_window(64, bad)


class TestStftMagnitude:
    def test_canonical_shape(self):
        rng = np.random.default_rng(0)
        spec = stft_magnitude(rng.standard_normal(8000), CANONICAL)
        assert spec.shape == (129, 61)

    def test_pure_tone_peaks_at_nearest_bin(self):
        fs = 16000
        t = np.arange(8000) / fs
        tone = np.sin(2 * np.pi * 1000.0 * t)
        spec = stft_magnitude(tone, CANONICAL)
        expected_bin = round(1000 / (fs / CANONICAL.nfft))  # 1 kHz -> bin 16
        assert np.all(spec.argmax(axis=0) == expected_bin)

    def test_zero_input_zero_output(self):
        spec = stft_magnitude(np.zeros(8000), CANONICAL)
        assert spec.shape == (129, 61)
        np.testing.assert_array_equal(spec, 0.0)

    def test_too_short_input(self):
        with pytest.raises(FrontendError, match="shorter"):
            stft_magnitude(np.zeros(100), CANONICAL)

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(1)
        spec = stft_magnitude(rng.standard_normal(8000), CANONICAL)
        assert np.all(spec >= 0)
        assert np.all(np.isfinite(spec))

    def test_hop_shift_moves_columns(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8000 + CANONICAL.hop)
        a = stft_magnitude(x[:8000], CANONICAL)
        b = stft_magnitude(x[CANONICAL.hop:CANONICAL.hop + 8000], CANONICAL)
        np.testing.assert_allclose(a[:, 1:], b[:, :-1], atol=1e-5)

    def test_energy_scales_quadratically(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8000)
        e1 = np.sum(stft_magnitude(x, CANONICAL).astype(np.float64) ** 2)
        e3 = np.sum(stft_magnitude(3 * x, CANONICAL).astype(np.float64) ** 2)
        assert e3 == pytest.approx(9 * e1, rel=1e-5)

    @pytest.mark.parametrize("n", [8000, 3001])
    @pytest.mark.parametrize("shape", [0.0, 0.25])
    def test_cached_plan_is_bit_identical_to_a_fresh_one(self, n, shape):
        cfg = dataclasses.replace(CANONICAL, tukey_shape=shape)
        rng = np.random.default_rng(n)
        for _ in range(2):  # the second call reuses the first call's plan
            x = rng.standard_normal(n)
            idx = (np.arange(cfg.window_length)[None, :]
                   + cfg.hop * np.arange(cfg.n_frames(n))[:, None])
            frames = x[idx] * tukey_window(cfg.window_length, shape)
            ref = np.abs(np.fft.rfft(frames, n=cfg.nfft, axis=1)).T.astype(np.float32)
            assert np.array_equal(stft_magnitude(x, cfg), ref)

    def test_cached_plan_is_read_only(self):
        window, idx = _stft_plan(CANONICAL.window_length, CANONICAL.hop,
                                 CANONICAL.tukey_shape, CANONICAL.n_frames(8000))
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 1


class TestBinauralSpectrogram:
    def test_canonical_pair_shape(self):
        rng = np.random.default_rng(4)
        left, right = binaural_spectrogram(_stereo(rng))
        assert left.shape == (129, 61)
        assert right.shape == (129, 61)

    def test_identical_channels_identical_output(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8000)
        left, right = binaural_spectrogram(Waveform(np.stack([x, x]), 16000))
        np.testing.assert_array_equal(left, right)

    def test_halved_channel_halves_raw_magnitudes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8000)
        left, right = binaural_spectrogram(
            Waveform(np.stack([x, 0.5 * x]), 16000), RAW)
        np.testing.assert_allclose(right, 0.5 * left, atol=1e-5)

    def test_mono_rejected(self):
        with pytest.raises(FrontendError, match="2-channel"):
            binaural_spectrogram(Waveform(np.zeros(8000), 16000))

    def test_standardized_pair_is_jointly_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        left, right = binaural_spectrogram(_stereo(rng))
        both = np.stack([left, right]).astype(np.float64)
        assert abs(both.mean()) <= 1e-5
        assert both.std() == pytest.approx(1.0, abs=1e-4)

    def test_standardization_preserves_interaural_ratio_ordering(self):
        # louder ear keeps larger values after the joint transform
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8000)
        left, right = binaural_spectrogram(Waveform(np.stack([x, 0.2 * x]), 16000))
        assert left.mean() > right.mean()


class TestWaveform:
    def test_channel_count_validation(self):
        with pytest.raises(FrontendError):
            Waveform(np.zeros((3, 100)), 16000)

    def test_nonfinite_rejected(self):
        bad = np.zeros(100)
        bad[10] = np.inf
        with pytest.raises(FrontendError):
            Waveform(bad, 16000)

    def test_canonical_duration(self):
        w = Waveform(np.zeros((2, 8000)), 16000)
        assert w.length == 8000
        assert w.length / w.sample_rate == pytest.approx(0.5)


class TestSpectrogramCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        entries = {
            "a": binaural_spectrogram(_stereo(rng)),
            "b": binaural_spectrogram(_stereo(rng)),
        }
        path = tmp_path / "spec.cache"
        save_spectrogram_cache(path, entries, CANONICAL, corpus_hash="c1")
        loaded = load_spectrogram_cache(path, CANONICAL)
        assert set(loaded) == {"a", "b"}
        for name in entries:
            np.testing.assert_array_equal(loaded[name][0], entries[name][0])
            np.testing.assert_array_equal(loaded[name][1], entries[name][1])

    def test_config_hash_guard(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "spec.cache"
        save_spectrogram_cache(path, {"a": binaural_spectrogram(_stereo(rng))},
                               CANONICAL, corpus_hash="c1")
        other = FrontendConfig(log_compress=False)
        with pytest.raises(FrontendError, match="config"):
            load_spectrogram_cache(path, other)

    def test_corpus_hash_guard(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "spec.cache"
        save_spectrogram_cache(path, {"a": binaural_spectrogram(_stereo(rng))},
                               CANONICAL, corpus_hash="c1")
        assert set(load_spectrogram_cache(path, CANONICAL, corpus_hash="c1")) == {"a"}
        assert set(load_spectrogram_cache(path, CANONICAL)) == {"a"}
        with pytest.raises(FrontendError, match="corpus c1"):
            load_spectrogram_cache(path, CANONICAL, corpus_hash="c2")

    @pytest.mark.parametrize("keep,match", [
        (lambda size: size - 1, "truncated payload for 'b'"),
        (lambda size: 10, "truncated header"),
        (lambda size: 20, "truncated header"),
    ])
    def test_truncated_cache_rejected(self, tmp_path, keep, match):
        rng = np.random.default_rng(12)
        path = tmp_path / "spec.cache"
        save_spectrogram_cache(path, {name: binaural_spectrogram(_stereo(rng))
                                      for name in ("a", "b")},
                               CANONICAL, corpus_hash="c1")
        data = path.read_bytes()
        path.write_bytes(data[:keep(len(data))])
        with pytest.raises(FrontendError, match=match):
            load_spectrogram_cache(path, CANONICAL)

    @pytest.mark.parametrize("header,match", MALFORMED_HEADERS)
    def test_malformed_cache_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "spec.cache"
        path.write_bytes(tensor_file_bytes(b"BLSPEC2\n", header))
        with pytest.raises(FrontendError, match=match) as info:
            load_spectrogram_cache(path, CANONICAL)
        assert str(path) in str(info.value)

    def test_failed_save_keeps_previous_cache(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        old = {"a": binaural_spectrogram(_stereo(rng))}
        path = tmp_path / "spec.cache"
        save_spectrogram_cache(path, old, CANONICAL, corpus_hash="c1")
        fail_writes_after(monkeypatch, util, 3)  # magic, length, header
        with pytest.raises(OSError, match="No space"):
            save_spectrogram_cache(path, {"b": binaural_spectrogram(_stereo(rng))},
                                   CANONICAL, corpus_hash="c1")
        loaded = load_spectrogram_cache(path, CANONICAL)
        assert set(loaded) == {"a"}
        np.testing.assert_array_equal(loaded["a"][0], old["a"][0])
        assert os.listdir(tmp_path) == ["spec.cache"]
