"""Synthetic corpus: sources, interaural cues, room reverb, dataset splits."""

import math

import numpy as np
import pytest

from binloc import spatial as S
from binloc.frontend import Waveform


def _xcorr_lag(wave):
    """Interaural lag in samples (positive = left lags), peak-interpolated."""
    left, right = wave.samples
    c = np.correlate(left, right, "full")
    k = int(np.argmax(c))
    if 0 < k < c.size - 1:
        denom = c[k - 1] - 2 * c[k] + c[k + 1]
        if denom != 0:
            k = k + 0.5 * (c[k - 1] - c[k + 1]) / denom
    return k - (left.size - 1)


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


AE = S.anechoic_scene()
RV = S.reverberant_scene()


class TestMakeSource:
    @pytest.mark.parametrize("kind", S.SOURCE_KINDS)
    def test_deterministic_and_canonical_length(self, kind):
        a = S.make_source(kind, seed=42)
        b = S.make_source(kind, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.length == 8000
        assert a.sample_rate == 16000

    @pytest.mark.parametrize("kind", S.SOURCE_KINDS)
    def test_peak_normalized(self, kind):
        w = S.make_source(kind, seed=1)
        assert np.abs(w.samples).max() == pytest.approx(0.9, abs=1e-9)

    def test_white_noise_is_spectrally_flat(self):
        x = S.make_source("white-noise", seed=11).samples[0]
        mag = np.abs(np.fft.rfft(x))[1:-1]
        flatness = np.exp(np.mean(np.log(mag))) / np.mean(mag)
        assert flatness > 0.8

    def test_unknown_kind(self):
        with pytest.raises(S.SpatialError, match="unknown source kind"):
            S.make_source("pink-noise", seed=0)


class TestRenderBinaural:
    def test_midline_has_zero_lag(self):
        src = S.make_source("white-noise", seed=3)
        w = S.render_binaural(src, S.LocalizationTarget(0, "AE"), AE)
        assert abs(_xcorr_lag(w)) <= 0.25

    def test_full_lateral_lag_matches_woodworth(self):
        src = S.make_source("white-noise", seed=3)
        w = S.render_binaural(src, S.LocalizationTarget(90, "AE"), AE)
        expected = 16000 * (AE.head_radius / AE.speed_of_sound) * (math.pi / 2 + 1)
        assert _xcorr_lag(w) == pytest.approx(expected, abs=0.5)
        assert round(expected) == 10

    def test_mirrored_azimuth_swaps_channels_exactly(self):
        src = S.make_source("am-noise", seed=9)
        for scene, env in ((AE, "AE"), (RV, "RV")):
            for azimuth in (30, 90, 140):
                a = S.render_binaural(src, S.LocalizationTarget(azimuth, env), scene)
                b = S.render_binaural(
                    src, S.LocalizationTarget(360 - azimuth, env), scene)
                np.testing.assert_array_equal(a.samples[0], b.samples[1])
                np.testing.assert_array_equal(a.samples[1], b.samples[0])

    def test_itd_nondecreasing_over_front_sweep(self):
        src = S.make_source("white-noise", seed=3)
        sweep = list(range(270, 360, 10)) + list(range(0, 91, 10))
        lags = [_xcorr_lag(S.render_binaural(src, S.LocalizationTarget(a, "AE"), AE))
                for a in sweep]
        assert all(lags[i] <= lags[i + 1] + 1e-9 for i in range(len(lags) - 1))

    def test_ild_sign_by_hemifield(self):
        src = S.make_source("white-noise", seed=7)
        for azimuth in (200, 250, 300, 340):
            w = S.render_binaural(src, S.LocalizationTarget(azimuth, "AE"), AE)
            assert _rms(w.samples[0]) > _rms(w.samples[1])
        for azimuth in (20, 70, 120, 160):
            w = S.render_binaural(src, S.LocalizationTarget(azimuth, "AE"), AE)
            assert _rms(w.samples[1]) > _rms(w.samples[0])

    @pytest.mark.parametrize("azimuth", [0, 180])
    def test_ild_balanced_on_midline(self, azimuth):
        src = S.make_source("white-noise", seed=7)
        w = S.render_binaural(src, S.LocalizationTarget(azimuth, "AE"), AE)
        assert _rms(w.samples[0]) == pytest.approx(_rms(w.samples[1]), rel=0.01)

    @pytest.mark.parametrize("kind", ["white-noise", "chirp"])
    def test_reverb_adds_energy(self, kind):
        src = S.make_source(kind, seed=5)
        e_ae = np.sum(S.render_binaural(
            src, S.LocalizationTarget(40, "AE"), AE).samples ** 2)
        e_rv = np.sum(S.render_binaural(
            src, S.LocalizationTarget(40, "RV"), RV).samples ** 2)
        assert e_rv > e_ae

    def test_render_is_deterministic(self):
        src = S.make_source("tone-complex", seed=2)
        a = S.render_binaural(src, S.LocalizationTarget(50, "RV"), RV)
        b = S.render_binaural(src, S.LocalizationTarget(50, "RV"), RV)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_output_clipped_to_source_length(self):
        src = S.make_source("white-noise", seed=1)
        w = S.render_binaural(src, S.LocalizationTarget(90, "RV"), RV)
        assert w.samples.shape == (2, src.length)

    def test_source_outside_room_rejected(self):
        cramped = S.SceneConfig(room=(10.0, 14.0, 3.0), listener=(0.5, 5.0, 1.5))
        src = S.make_source("white-noise", seed=1)
        with pytest.raises(S.GeometryError, match="outside room"):
            S.render_binaural(src, S.LocalizationTarget(270, "AE"), cramped)

    def test_anechoic_iff_order_zero(self):
        assert AE.is_anechoic
        assert not RV.is_anechoic


class TestLocalizationTarget:
    def test_unit_circle_coordinate(self):
        for azimuth in S.AZIMUTH_GRID:
            c = S.LocalizationTarget(azimuth, "AE").coordinate
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(S.LocalizationTarget(90, "AE").coordinate,
                                   [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(S.LocalizationTarget(0, "AE").coordinate,
                                   [0.0, 1.0], atol=1e-12)

    def test_off_grid_azimuth_rejected(self):
        with pytest.raises(S.SpatialError):
            S.LocalizationTarget(45, "AE")

    def test_bad_environment_rejected(self):
        with pytest.raises(S.SpatialError):
            S.LocalizationTarget(0, "XX")


class TestBuildDataset:
    def _sources(self, n, offset=0):
        kinds = list(S.SOURCE_KINDS)
        return {f"src{offset + i:02d}": S.make_source(kinds[i % 4], seed=100 + offset + i)
                for i in range(n)}

    def test_counts_and_stratification(self, tmp_path):
        azimuths = S.AZIMUTH_GRID
        scenes = {"AE": AE, "RV": RV}
        manifest = S.build_dataset(self._sources(4), azimuths, scenes,
                                   ratio=0.75, seed=0, out_dir=tmp_path)
        train = manifest.split_records("train")
        val = manifest.split_records("val")
        assert len(train) == 216
        assert len(val) == 72
        for env in ("AE", "RV"):
            for azimuth in azimuths:
                stratum_train = [r for r in train
                                 if r.azimuth == azimuth and r.environment == env]
                stratum_val = [r for r in val
                               if r.azimuth == azimuth and r.environment == env]
                assert len(stratum_train) == 3
                assert len(stratum_val) == 1

    def test_deterministic_manifest(self, tmp_path):
        azimuths = (0, 90, 180)
        scenes = {"AE": AE}
        m1 = S.build_dataset(self._sources(3), azimuths, scenes, 0.75, 7,
                             tmp_path / "a")
        m2 = S.build_dataset(self._sources(3), azimuths, scenes, 0.75, 7,
                             tmp_path / "b")
        assert m1.records == m2.records
        assert m1.config_hash == m2.config_hash
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == \
               (tmp_path / "b" / "manifest.jsonl").read_bytes()

    def test_generation_seed_changes_manifest_hash(self, tmp_path):
        # the scenes carry no seed; build_dataset hashes the generation seed
        m1 = S.build_dataset(self._sources(2), (0,), {"AE": AE}, 0.5, 1,
                             tmp_path / "a")
        m2 = S.build_dataset(self._sources(2), (0,), {"AE": AE}, 0.5, 2,
                             tmp_path / "b")
        assert m1.config_hash != m2.config_hash

    def test_test_sources_disjoint(self, tmp_path):
        manifest = S.build_dataset(self._sources(2), (0, 90), {"AE": AE}, 0.5, 1,
                                   tmp_path, test_sources=self._sources(1, offset=10))
        test = manifest.split_records("test")
        assert len(test) == 2
        pool = {r.source_id for r in manifest.records if r.split != "test"}
        held_out = {r.source_id for r in test}
        assert not pool & held_out

    def test_overlapping_test_sources_rejected(self, tmp_path):
        with pytest.raises(S.SpatialError, match="overlap"):
            S.build_dataset(self._sources(2), (0,), {"AE": AE}, 0.5, 1, tmp_path,
                            test_sources=self._sources(1))

    def test_bad_ratio(self, tmp_path):
        with pytest.raises(S.SpatialError, match="ratio"):
            S.build_dataset(self._sources(2), (0,), {"AE": AE}, 1.5, 1, tmp_path)

    def test_manifest_round_trip(self, tmp_path):
        manifest = S.build_dataset(self._sources(2), (0, 10), {"AE": AE}, 0.5, 3,
                                   tmp_path)
        loaded = S.load_manifest(tmp_path / "manifest.jsonl")
        assert loaded.records == manifest.records
        assert loaded.config_hash == manifest.config_hash

    def test_wav_round_trip(self, tmp_path):
        src = S.make_source("white-noise", seed=4)
        rendered = S.render_binaural(src, S.LocalizationTarget(30, "AE"), AE)
        S.write_wav(tmp_path / "x.wav", rendered)
        loaded = S.read_wav(tmp_path / "x.wav")
        assert loaded.sample_rate == rendered.sample_rate
        assert loaded.samples.shape == rendered.samples.shape
        np.testing.assert_allclose(loaded.samples, rendered.samples,
                                   atol=1.0 / S._WAV_SCALE)


class TestWaveformCompat:
    def test_render_rejects_stereo_source(self):
        stereo = Waveform(np.zeros((2, 8000)), 16000)
        with pytest.raises(S.SpatialError, match="mono"):
            S.render_binaural(stereo, S.LocalizationTarget(0, "AE"), AE)
