"""Corpus loading through the spectrogram cache: reuse, staleness, damage."""

import json
import struct

import numpy as np
import pytest

from binloc.cli import main
from binloc.data import batches, load_samples
from binloc.frontend import CANONICAL, binaural_spectrogram, save_spectrogram_cache
from binloc.spatial import load_manifest, read_wav
from helpers import MALFORMED_HEADERS, tensor_file_bytes


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
] + [((lambda data, h=header: tensor_file_bytes(b"BLSPEC2\n", h)), cause)
     for header, cause in MALFORMED_HEADERS])
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


@pytest.mark.parametrize("shape,expected", [
    ((1, 129, 61), "expected (2, 129, frames)"),
    ((2, 61), "expected (2, 129, frames)"),
    ((2, 128, 61), "expected (2, 129, frames)"),
    # well formed, but one frame short of every other entry
    ((2, 129, 60), "entry {first!r} has (2, 129, 61)"),
], ids=["one-ear", "2-d", "bins", "frames"])
def test_misshapen_cache_entry_is_rebuilt(manifest, tmp_path, capsys, shape, expected):
    cache = tmp_path / "spectrograms.cache"
    samples = load_samples(manifest, CANONICAL, cache_path=cache)
    intact = cache.read_bytes()
    entries = {s.sample_id: (s.x_left, s.x_right) for s in samples}
    bad = samples[1].sample_id
    entries[bad] = np.zeros(shape, dtype=np.float32)
    save_spectrogram_cache(cache, entries, CANONICAL,
                           corpus_hash=load_manifest(manifest).config_hash)
    capsys.readouterr()
    samples = load_samples(manifest, CANONICAL, cache_path=cache)
    err = capsys.readouterr().err.splitlines()
    expected = expected.format(first=samples[0].sample_id)
    assert err == [f"rebuilding spectrogram cache: {cache}: entry {bad!r} has "
                   f"shape {shape}, {expected}"]
    _assert_fresh(manifest, samples)
    assert cache.read_bytes() == intact
    assert sum(len(chunk) for *_, chunk in batches(samples, 4)) == len(samples)


def _write_first_layout(path, samples, corpus_hash):
    """A cache in the first layout: magic ``BLSPEC1``, then an ``entries``
    table of shapes and offsets without counts."""
    entries, blobs, offset = {}, [], 0
    for s in samples:
        pair = np.stack([s.x_left, s.x_right]).astype("<f4")
        entries[s.sample_id] = {"shape": list(pair.shape), "offset": offset}
        blobs.append(pair.tobytes())
        offset += pair.size
    head = json.dumps({"config_hash": CANONICAL.hash(), "corpus_hash": corpus_hash,
                       "entries": entries}, sort_keys=True).encode("utf-8")
    path.write_bytes(b"BLSPEC1\n" + struct.pack("<I", len(head)) + head
                     + b"".join(blobs))


def test_first_layout_cache_is_rebuilt_once(manifest, tmp_path, capsys):
    cache = tmp_path / "spectrograms.cache"
    _write_first_layout(cache, load_samples(manifest, CANONICAL),
                        load_manifest(manifest).config_hash)
    capsys.readouterr()
    samples = load_samples(manifest, CANONICAL, cache_path=cache)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(cache) in err[0] and "BLSPEC1" in err[0]
    _assert_fresh(manifest, samples)
    assert cache.read_bytes().startswith(b"BLSPEC2\n")
    load_samples(manifest, CANONICAL, cache_path=cache)
    assert capsys.readouterr().err == ""


def test_other_cache_errors_propagate(manifest, tmp_path):
    cache = tmp_path / "spectrograms.cache"
    cache.mkdir()
    with pytest.raises(IsADirectoryError):
        load_samples(manifest, CANONICAL, cache_path=cache)
