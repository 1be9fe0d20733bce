"""Trainer: logging, determinism, divergence handling, grid, transfer."""

import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from binloc import data as data_module
from binloc.config import ExperimentConfig, desk_profile, full_profile
from binloc.data import load_samples
from binloc.frontend import binaural_spectrogram, load_spectrogram_cache
from binloc.metrics import evaluate
from binloc.spatial import read_wav
from binloc.train import (
    MISSING_MSE,
    TrainingDiverged,
    load_run,
    run_env_transfer,
    run_grid,
    train,
)

from conftest import micro_config


@pytest.fixture
def spy(monkeypatch):
    """Arguments of every call that ``load_samples`` makes to the WAV reader,
    the frontend and the cache codec; the calls still go through."""
    calls = defaultdict(list)

    def wrap(name):
        real = getattr(data_module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(data_module, name, wrapper)

    for name in ("read_wav", "binaural_spectrogram", "save_spectrogram_cache",
                 "load_spectrogram_cache"):
        wrap(name)
    return calls


def _reads(calls) -> Counter:
    """WAV file name -> times read; every read is also one spectrogram."""
    assert len(calls["binaural_spectrogram"]) == len(calls["read_wav"])
    return Counter(args[0].name for args in calls["read_wav"])


def _held_out_names(corpus) -> list[str]:
    _, manifest = corpus
    return [Path(r.path).name for r in manifest.records if r.split == "test"]


def _each_wav_once(corpus) -> Counter:
    _, manifest = corpus
    return Counter(Path(r.path).name for r in manifest.records)


class TestTrain:
    def test_one_epoch_one_log_entry(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=1, env_filter="AE")
        result = train(cfg, manifest, tmp_path / "run")
        assert len(result.history) == 1
        log_lines = result.log_path.read_text().splitlines()
        assert len(log_lines) == 1
        entry = json.loads(log_lines[0])
        assert entry["epoch"] == 0
        assert {"lr", "train_loss", "val_ad_deg", "val_mse", "wall_clock_s",
                "seed", "config_hash"} <= set(entry)

    def test_lr_annealed_per_epoch(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=3)
        result = train(cfg, manifest, tmp_path / "run")
        rates = [json.loads(line)["lr"]
                 for line in result.log_path.read_text().splitlines()]
        assert len(rates) == 3
        assert rates[0] == cfg.lr
        assert rates[0] > rates[1] > rates[2] > 0.0

    def test_identical_seeds_identical_checkpoints(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=2, seed=21)
        r1 = train(cfg, manifest, tmp_path / "a")
        r2 = train(cfg, manifest, tmp_path / "b")
        assert r1.final_checkpoint.read_bytes() == r2.final_checkpoint.read_bytes()
        assert r1.best_checkpoint.read_bytes() == r2.best_checkpoint.read_bytes()
        assert [h["train_loss"] for h in r1.history] == \
            [h["train_loss"] for h in r2.history]

    def test_different_seed_changes_training(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        r1 = train(micro_config(epochs=1, seed=1), manifest, tmp_path / "a")
        r2 = train(micro_config(epochs=1, seed=2), manifest, tmp_path / "b")
        assert r1.final_checkpoint.read_bytes() != r2.final_checkpoint.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_checkpoint(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=50, lr=1e18)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+ batch \d+"):
            train(cfg, manifest, tmp_path / "run")
        assert (tmp_path / "run" / "final.ckpt").exists()

    def test_checkpoint_round_trip_reproduces_metrics(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=2)
        result = train(cfg, manifest, tmp_path / "run")
        val = load_samples(manifest, cfg.frontend, splits=("val",),
                           environments=cfg.environments)
        _, before = evaluate(result.model, val)
        loaded_cfg, loaded_model = load_run(tmp_path / "run")
        assert loaded_cfg.model == cfg.model
        _, after = evaluate(loaded_model, val)
        # best.ckpt is the best-validation epoch, not necessarily the final
        # weights; compare against the checkpointed model itself
        final_model = type(loaded_model).load(result.final_checkpoint, cfg.model)
        _, after_final = evaluate(final_model, val)
        assert after_final["ad_deg"] == before["ad_deg"]
        assert after_final["mse"] == before["mse"]
        assert after["ad_deg"] == result.best_val_ad

    def test_load_run_final_on_request_or_without_best(self, micro_corpus,
                                                       tmp_path):
        manifest, _ = micro_corpus
        result = train(micro_config(epochs=2), manifest, tmp_path / "run")

        def same_weights(model):  # result.model holds the final weights
            return all(np.array_equal(a.data, b.data) for a, b in
                       zip(model.parameters(), result.model.parameters()))

        assert same_weights(load_run(tmp_path / "run", use_final=True)[1])
        (tmp_path / "run" / "best.ckpt").unlink()
        assert same_weights(load_run(tmp_path / "run")[1])

    def test_env_filter_never_touches_other_environment(self, micro_corpus,
                                                        tmp_path, spy):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=1, env_filter="AE")
        train(cfg, manifest, tmp_path / "run")
        names = _reads(spy)
        assert names
        assert all(name.endswith("_AE.wav") for name in names)

    def test_cold_train_saves_the_cache_once_and_never_reads_it(
            self, micro_corpus, tmp_path, spy):
        manifest, corpus = micro_corpus
        cfg = micro_config(epochs=1, use_cache=True)
        cold = train(cfg, manifest, tmp_path / "run")
        pool = [r for r in corpus.records if r.split in ("train", "val")]
        assert sorted(_reads(spy).values()) == [1] * len(pool)
        assert len(spy["save_spectrogram_cache"]) == 1
        assert spy["load_spectrogram_cache"] == []

        spy.clear()  # a warm rerun reads the cache once and computes nothing
        warm = train(cfg, manifest, tmp_path / "run")
        assert spy["read_wav"] == [] and spy["binaural_spectrogram"] == []
        assert len(spy["load_spectrogram_cache"]) == 1
        assert spy["save_spectrogram_cache"] == []

        uncached = train(micro_config(epochs=1), manifest, tmp_path / "plain")
        for result in (warm, uncached):
            assert result.final_checkpoint.read_bytes() == \
                cold.final_checkpoint.read_bytes()

    def test_early_stop(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=50, early_stop_train_ad=179.9)
        result = train(cfg, manifest, tmp_path / "run")
        assert result.stopped_early
        assert len(result.history) < 50

    def test_best_checkpoint_tracks_val_ad(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=3)
        result = train(cfg, manifest, tmp_path / "run")
        best = min(result.history, key=lambda h: h["val_ad_deg"])
        assert result.best_epoch == best["epoch"]
        assert result.best_val_ad == best["val_ad_deg"]

    def test_config_written_to_run_dir(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cfg = micro_config(epochs=1)
        train(cfg, manifest, tmp_path / "run")
        loaded = ExperimentConfig.load(tmp_path / "run" / "config.kv")
        assert loaded == cfg


class TestGrid:
    def test_full_grid_shape_and_dashes(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cells = run_grid(micro_config(epochs=1), manifest, tmp_path / "grid")
        assert len(cells) == 18
        assert all(not c["error"] for c in cells)

        lines = (tmp_path / "grid" / "grid.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["model", "loss", "ad_concat", "ad_add", "ad_sub",
                          "mse_concat", "mse_add", "mse_sub"]
        assert len(lines) == 1 + 6  # 2 sharing modes x 3 losses
        for line in lines[1:]:
            fields = line.split(",")
            if fields[1] == "ad":
                assert fields[5:8] == [MISSING_MSE] * 3
            else:
                assert all(f not in (MISSING_MSE, "error") for f in fields[5:8])

    def test_grid_hemifield_family_file(self, micro_corpus, tmp_path):
        # micro corpus has only 2 azimuths -> hemifield test cannot run;
        # the grid must still complete and just skip the statistics
        manifest, _ = micro_corpus
        cells = run_grid(micro_config(epochs=1), manifest, tmp_path / "grid",
                         losses=("mse",), integrations=("sub",),
                         sharings=(False,))
        assert len(cells) == 1

    def test_held_out_split_computed_once_for_all_cells(self, micro_corpus,
                                                        tmp_path, spy):
        manifest, _ = micro_corpus
        cells = run_grid(micro_config(epochs=1), manifest, tmp_path / "grid",
                         losses=("mse",), integrations=("add", "sub"),
                         sharings=(False,))
        assert all(not c["error"] for c in cells)
        assert _held_out_names(micro_corpus)
        assert _reads(spy) == _each_wav_once(micro_corpus)

    def test_empty_axes_rejected(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        with pytest.raises(ValueError, match="non-empty"):
            run_grid(micro_config(), manifest, tmp_path / "grid", losses=())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cell_failure_recorded_grid_continues(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        cells = run_grid(micro_config(epochs=3, lr=1e18), manifest,
                         tmp_path / "grid", losses=("mse",),
                         integrations=("add", "sub"), sharings=(False,))
        assert len(cells) == 2
        assert all("TrainingDiverged" in c["error"] for c in cells)


class TestEnvTransfer:
    def test_six_rows_and_csv(self, micro_corpus, tmp_path):
        manifest, _ = micro_corpus
        rows = run_env_transfer(micro_config(epochs=1), manifest,
                                tmp_path / "transfer")
        assert len(rows) == 6
        assert {(r["train_env"], r["test_env"]) for r in rows} == {
            (tr, te) for tr in ("AE", "RV", "AE+RV") for te in ("AE", "RV")}
        csv_lines = (tmp_path / "transfer" / "env_transfer.csv").read_text() \
            .splitlines()
        assert len(csv_lines) == 7

    def test_held_out_split_computed_once(self, micro_corpus, tmp_path, spy):
        manifest, _ = micro_corpus
        run_env_transfer(micro_config(epochs=1), manifest, tmp_path / "transfer")
        held_out = _held_out_names(micro_corpus)
        assert {name.rsplit("_", 1)[1] for name in held_out} == {"AE.wav", "RV.wav"}
        assert _reads(spy) == _each_wav_once(micro_corpus)

    def test_each_run_caches_exactly_its_own_fresh_pairs(self, micro_corpus,
                                                         tmp_path):
        manifest, corpus = micro_corpus
        cfg = micro_config(epochs=1, use_cache=True)
        run_env_transfer(cfg, manifest, tmp_path / "transfer")
        for env_filter in ("AE", "RV", "AE+RV"):
            envs = env_filter.split("+")
            records = [r for r in corpus.records
                       if r.split in ("train", "val") and r.environment in envs]
            cache = tmp_path / "transfer" / f"train_{env_filter}" / "spectrograms.cache"
            entries = load_spectrogram_cache(cache, cfg.frontend,
                                             corpus_hash=corpus.config_hash)
            assert sorted(entries) == sorted(r.sample_id for r in records)
            for r in records:
                fresh = binaural_spectrogram(read_wav(manifest.parent / r.path),
                                             cfg.frontend)
                assert all(np.array_equal(got, want)
                           for got, want in zip(entries[r.sample_id], fresh))


class TestProfiles:
    def test_full_profile_matches_published_settings(self):
        cfg = full_profile()
        assert cfg.lr == 1e-4
        assert cfg.batch == 48
        assert cfg.epochs == 50
        assert cfg.model.dim == 1024
        assert cfg.model.heads == 16
        assert cfg.model.mlp_dim == 1024
        assert cfg.model.dropout == 0.2
        assert cfg.model.grid.n_patches == 180

    def test_desk_profile_is_small(self):
        cfg = desk_profile()
        assert cfg.model.dim == 128
        assert cfg.model.heads == 4
        assert cfg.model.mlp_dim == 256
        assert cfg.batch == 16

    def test_config_kv_round_trip(self, tmp_path):
        cfg = micro_config(env_filter="RV", early_stop_train_ad=3.5, seed=9)
        cfg.save(tmp_path / "config.kv")
        assert ExperimentConfig.load(tmp_path / "config.kv") == cfg
