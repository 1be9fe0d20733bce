"""Synthetic corpus: sources, interaural cues, room reverb, dataset splits."""

import hashlib
import math

import numpy as np
import pytest
import scipy.signal

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


# sha256 of render_binaural(...).samples.tobytes() for make_source(kind,
# seed=20 + index of kind), taken from the scipy.signal.filtfilt renderer
# (numpy 2.4, scipy 1.17, x86-64 glibc). Any change to the rendered float64
# bits, including one a different libm would cause, shows here.
_RENDER_SHA256 = {
    ("AE", "white-noise", 0): "e87c7b24c3906e420796767aeb516fce7127ddb639d462295fefc87e6c8e6a2d",
    ("AE", "white-noise", 70): "85dc7019dfe5dca6de2122acb9ef7125b8830dc8bc9cb0c56fd3ab253c2a51f8",
    ("AE", "white-noise", 160): "ad2fa0ae86ce419d3393f238ea16a582035e554beb3fd64910c9c1393c313f9c",
    ("AE", "white-noise", 250): "6ca37181535f63453fb6827d5c238b280ffb3a5bc97aaa85b33b567aeaba2d68",
    ("AE", "tone-complex", 0): "aed365f864013b07dc95676c6486f2c556d719be51bbca9a9d10a4cd44313265",
    ("AE", "tone-complex", 70): "567774e836fdb14ed4f7588d23bdd90110ea0be0ec045366277854e012392aa0",
    ("AE", "tone-complex", 160): "29c2c032ff0724a4b8254ef73ca6579de509594c665149a0d91c97c7488afdcf",
    ("AE", "tone-complex", 250): "0340f7970cd3f43c06edeae5a6b6bfd816239de475d257326238836e5fe0e3f8",
    ("AE", "am-noise", 0): "1a7b0a61fbd04df7e8052b8a2b1347299cda2d5552e8aedc089d4fae02a748db",
    ("AE", "am-noise", 70): "fbd63a66207088769832389518bd26c4dd84d9b82920bd565a6cf235eb9d0799",
    ("AE", "am-noise", 160): "2dde400842918b432c36279aadb7a0d1037e935222d4935b24dc6983ca8f6ec7",
    ("AE", "am-noise", 250): "a6821698eac382e7ff5d6ed933ad5b0927b4ce21dfa39be494b654e933c400b6",
    ("AE", "chirp", 0): "663165b5134003e35288cf8daa842ca0b2d39ad698ef0b97c1bd7e6fc54b91ac",
    ("AE", "chirp", 70): "54dfd77d66c08d8f4d62072e83313857eb6ab7c7ba21e7173c8b62ed348abe53",
    ("AE", "chirp", 160): "34713e53dbc5508d55e30e1bbbc63aa300b528cd36e4340f0af3b47d7853d7f3",
    ("AE", "chirp", 250): "58eea53cdff0a44cd4235fae2320cfed269fea3b518f21a2e3df3f787fb41f1c",
    ("RV", "white-noise", 0): "fdc1518de2d45a03f3002100faee472808df7cc252146d557e9d21c540d0e4af",
    ("RV", "white-noise", 70): "e69953ca2b78fb410675c99b1d682df1320e9d3ca1b8f0a46e32672526ebd395",
    ("RV", "white-noise", 160): "6e304bde88458913e30781cd5edc26b0ad1698124681617e0825abf8f8281995",
    ("RV", "white-noise", 250): "b2f67586e68d64ebc20e27dbe02be908722c00086c01c2318bf0fceff5e95451",
    ("RV", "tone-complex", 0): "4f623eb504b8385dbdd1e788dbf6bb5e7efb89894719648a44ad773cd15b8dfa",
    ("RV", "tone-complex", 70): "313976d1f0522810bb487d5db4a1d21648c0bdd8d2f1e08f8b745f66c9cb7c28",
    ("RV", "tone-complex", 160): "667c789f0412d767b47f6fc2e2199f6f447704f1c3a4a6b9b6c7149785a6ec25",
    ("RV", "tone-complex", 250): "25c12071acd9454d8066054f77a0577d0aab4071b67d930791a51e666b3bb846",
    ("RV", "am-noise", 0): "599c38c48e1f9087721cc7550d887e319378da64c8b38cdb893bb872b94b3077",
    ("RV", "am-noise", 70): "fc73ab6a9f74a9401c17e800fc91e980c2f9ed672e129dca2644cb54f3e9ec68",
    ("RV", "am-noise", 160): "61e7ea60431f5f7930e653fe4576598547bf9493eccf626f7efd2716d6ee6e86",
    ("RV", "am-noise", 250): "57308d7490fc8a23387133c7ca3ba80e07c7ea0527b3a8195ed4041323c677f2",
    ("RV", "chirp", 0): "4b7d7b0a459dad7357bc63533a2c6e465bde0d7968c4e57b9a6e17f78d40be76",
    ("RV", "chirp", 70): "2e6f2bbdce17ed880abfd68a271d4f3f42347d7a261edd1b5aa6e63b7fd36e33",
    ("RV", "chirp", 160): "b4b3ecc2be756c862584792afd15022181c1e250e1cd13a90e2b4af9cd763e1d",
    ("RV", "chirp", 250): "5163a9b5410724eae32376905a95a4c72aacfcb56ca4e5a128fffa83b4ff4cfa",
}


class TestRenderBits:
    @pytest.mark.parametrize("env,kind,azimuth", sorted(_RENDER_SHA256))
    def test_render_matches_golden_digest(self, env, kind, azimuth):
        src = S.make_source(kind, seed=20 + S.SOURCE_KINDS.index(kind))
        scene = AE if env == "AE" else RV
        w = S.render_binaural(src, S.LocalizationTarget(azimuth, env), scene)
        digest = hashlib.sha256(w.samples.tobytes()).hexdigest()
        assert digest == _RENDER_SHA256[(env, kind, azimuth)]

    @staticmethod
    def _assert_filtfilt_equal(y, beta):
        np.testing.assert_array_equal(
            S._zero_phase_pole(y, beta),
            scipy.signal.filtfilt([1.0 - beta], [1.0, -beta], y))

    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.35, 0.5])
    def test_zero_phase_pole_is_filtfilt(self, beta):
        rng = np.random.default_rng(31)
        rendered = S.render_binaural(S.make_source("chirp", seed=4),
                                     S.LocalizationTarget(130, "RV"), RV)
        for y in (*rendered.samples, rng.standard_normal(8000),
                  rng.uniform(-1e3, 1e3, 7)):
            self._assert_filtfilt_equal(y, beta)

    def test_zero_phase_pole_random_sweep(self):
        # a last-bit change in the initial state reaches the output for only
        # about 1 in 3000 draws, hence the many short signals
        rng = np.random.default_rng(32)
        for _ in range(6000):
            y = rng.standard_normal(int(rng.integers(7, 64))) * rng.uniform(1e-3, 1e3)
            self._assert_filtfilt_equal(y, float(rng.uniform(0.0, 0.5)))

    def test_too_short_source_rejected(self):
        with pytest.raises(S.SpatialError, match="samples"):
            S.render_binaural(Waveform(np.ones(6), 16000),
                              S.LocalizationTarget(0, "AE"), AE)


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
