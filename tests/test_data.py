"""Corpus loading through the spectrogram cache: reuse, staleness, damage."""

import numpy as np
import pytest

from binloc.cli import main
from binloc.data import load_samples
from binloc.frontend import CANONICAL, binaural_spectrogram
from binloc.spatial import read_wav


def _gen_data(out, seed):
    assert main(["gen-data", "--out", str(out), "--seed", str(seed),
                 "--envs", "AE", "--azimuths", "0,90", "--sources", "2"]) == 0
    return out / "manifest.jsonl"


def _assert_fresh(manifest, samples):
    """Every sample's spectrograms equal ones computed from its WAV now."""
    for s in samples:
        wave = read_wav(manifest.parent / s.environment / f"{s.sample_id}.wav")
        left, right = binaural_spectrogram(wave, CANONICAL)
        np.testing.assert_array_equal(s.x_left, left)
        np.testing.assert_array_equal(s.x_right, right)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return _gen_data(tmp_path_factory.mktemp("corpus"), seed=1)


def test_cache_from_another_corpus_is_rebuilt(tmp_path, capsys):
    manifest = _gen_data(tmp_path / "corpus", seed=1)
    cache = tmp_path / "spectrograms.cache"
    first = load_samples(manifest, CANONICAL, cache_path=cache)
    _gen_data(tmp_path / "corpus", seed=2)  # same sample ids, new sounds
    capsys.readouterr()
    second = load_samples(manifest, CANONICAL, cache_path=cache)
    err = capsys.readouterr().err
    assert "rebuilding spectrogram cache" in err and "corpus" in err
    assert [s.sample_id for s in second] == [s.sample_id for s in first]
    assert not np.array_equal(second[0].x_left, first[0].x_left)
    _assert_fresh(manifest, second)
    # the rebuilt cache is reused silently
    third = load_samples(manifest, CANONICAL, cache_path=cache)
    assert capsys.readouterr().err == ""
    for a, b in zip(second, third):
        np.testing.assert_array_equal(a.x_left, b.x_left)


@pytest.mark.parametrize("damage,cause", [
    (lambda data: data[:len(data) // 2], "truncated payload for"),
    (lambda data: b"NOTSPEC\n" + data[8:], "not a spectrogram cache"),
])
def test_damaged_cache_is_rebuilt_with_a_message(manifest, tmp_path, capsys,
                                                damage, cause):
    cache = tmp_path / "spectrograms.cache"
    load_samples(manifest, CANONICAL, cache_path=cache)
    intact = cache.read_bytes()
    cache.write_bytes(damage(intact))
    capsys.readouterr()
    samples = load_samples(manifest, CANONICAL, cache_path=cache)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(cache) in err[0] and cause in err[0]
    _assert_fresh(manifest, samples)
    assert cache.read_bytes() == intact


def test_other_cache_errors_propagate(manifest, tmp_path):
    cache = tmp_path / "spectrograms.cache"
    cache.mkdir()
    with pytest.raises(IsADirectoryError):
        load_samples(manifest, CANONICAL, cache_path=cache)
