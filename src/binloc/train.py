"""Training loop, experiment grid, and environment-transfer runs."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import engine as E
from .config import ENV_FILTERS, ENVIRONMENTS, ExperimentConfig
from .data import Sample, batches, load_samples
from .losses import LOSS_KINDS, angular_errors_deg, make_loss
from .metrics import (
    StatsError,
    environment_transfer,
    evaluate,
    fdr_correct,
    hemifield_test,
    write_env_transfer,
    write_hemifield,
)
from .model import INTEGRATIONS, BinauralTransformer
from .optim import AdamState, OptimizerError, adam_step, cosine_lr, zero_grads

__all__ = ["TrainResult", "TrainingDiverged", "train", "run_grid",
           "run_env_transfer", "load_run"]

GRID_LOSSES = LOSS_KINDS
GRID_INTEGRATIONS = INTEGRATIONS
GRID_SHARINGS = (False, True)
MISSING_MSE = "—"  # AD-trained cells have no meaningful MSE column


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; the last good checkpoint was kept."""


@dataclass
class TrainResult:
    model: BinauralTransformer
    final_checkpoint: Path
    best_checkpoint: Path
    log_path: Path
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_ad: float = float("inf")
    stopped_early: bool = False


def _epoch_rng(seed: int, stream: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream, epoch)))


def train(cfg: ExperimentConfig, manifest_path, out_dir, pool=None
          ) -> TrainResult:
    """Adam training with per-epoch validation and best/final checkpoints.

    The train and val splits of the manifest, under ``cfg.environments``,
    are read in one ``load_samples`` call; with ``cfg.use_cache`` their
    spectrograms go through ``out_dir/spectrograms.cache``. ``pool`` is
    ``load_samples``'s in-memory spectrogram pool, shared by the runs of
    one command.

    ``cfg.lr`` is the first epoch's rate; each epoch ``e`` runs at
    ``cosine_lr(cfg.lr, e, cfg.epochs)``, annealed towards zero by the
    last epoch.

    The run is fully reproducible from ``cfg.seed``: model init, epoch
    shuffles, and dropout each draw from their own seeded stream. Dropout
    runs only in the training passes, which get ``rng=drop_rng``;
    validation calls ``predict``, which passes no rng. A non-finite loss
    aborts with the last good parameters saved next to the diagnostics.
    When ``cfg.early_stop_train_ad`` is set, training stops once the
    running training-set angular error (from the epoch's own forward
    passes) drops below the threshold.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(out_dir / "config.kv")

    cache = out_dir / "spectrograms.cache" if cfg.use_cache else None
    samples = load_samples(manifest_path, cfg.frontend, splits=("train", "val"),
                           environments=cfg.environments, cache_path=cache,
                           pool=pool)
    train_samples = [s for s in samples if s.split == "train"]
    val_samples = [s for s in samples if s.split == "val"]
    if not train_samples or not val_samples:
        raise ValueError(
            f"empty train ({len(train_samples)}) or val ({len(val_samples)}) "
            f"split under environment filter {cfg.env_filter}")

    model = BinauralTransformer(cfg.model, seed=cfg.seed)
    params = model.parameters()
    state = AdamState(lr=cfg.lr)
    loss_fn = make_loss(cfg.loss)

    final_path = out_dir / "final.ckpt"
    best_path = out_dir / "best.ckpt"
    log_path = out_dir / "train_log.jsonl"
    result = TrainResult(model, final_path, best_path, log_path)
    run_hash = cfg.hash()
    t_start = time.time()

    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            state.lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
            order = _epoch_rng(cfg.seed, 1, epoch).permutation(len(train_samples))
            drop_rng = _epoch_rng(cfg.seed, 2, epoch)
            losses = []
            train_preds, train_targets = [], []
            for b, (xl, xr, target, _) in enumerate(
                    batches(train_samples, cfg.batch, order)):
                with E.Graph() as graph:
                    pred = model.forward(xl, xr, rng=drop_rng)
                    loss = loss_fn(target, pred)
                if not np.isfinite(loss.item()):
                    model.save(final_path)
                    raise TrainingDiverged(
                        f"non-finite loss in epoch {epoch} batch {b}; "
                        f"last good checkpoint at {final_path}")
                graph.backward(loss)
                try:
                    adam_step(params, state)
                except OptimizerError as exc:
                    model.save(final_path)
                    raise TrainingDiverged(
                        f"aborted in epoch {epoch} batch {b} ({exc}); "
                        f"last good checkpoint at {final_path}") from exc
                zero_grads(params)
                losses.append(loss.item())
                train_preds.append(pred.data.copy())
                train_targets.append(target)

            _, val_agg = evaluate(model, val_samples, batch_size=cfg.batch)
            train_ad = float(np.mean(angular_errors_deg(
                np.concatenate(train_targets), np.concatenate(train_preds))))
            entry = {
                "epoch": epoch,
                "lr": state.lr,
                "train_loss": float(np.mean(losses)),
                "train_ad_deg": train_ad,
                "val_ad_deg": val_agg["ad_deg"],
                "val_mse": val_agg["mse"],
                "wall_clock_s": round(time.time() - t_start, 3),
                "seed": cfg.seed,
                "config_hash": run_hash,
            }
            result.history.append(entry)
            log.write(json.dumps(entry, sort_keys=True) + "\n")
            log.flush()

            if val_agg["ad_deg"] < result.best_val_ad:
                result.best_val_ad = val_agg["ad_deg"]
                result.best_epoch = epoch
                model.save(best_path)
            if (cfg.early_stop_train_ad is not None
                    and train_ad < cfg.early_stop_train_ad):
                result.stopped_early = True
                break

    model.save(final_path)
    if not best_path.exists():
        model.save(best_path)
    return result


def load_run(run_dir, use_final: bool = False
             ) -> tuple[ExperimentConfig, BinauralTransformer]:
    """Rebuild the model of a finished run from its directory.

    Loads ``best.ckpt``, or ``final.ckpt`` when ``use_final`` is set or the
    run has no best checkpoint.
    """
    run_dir = Path(run_dir)
    cfg = ExperimentConfig.load(run_dir / "config.kv")
    ckpt = run_dir / "best.ckpt"
    if use_final or not ckpt.exists():
        ckpt = run_dir / "final.ckpt"
    model = BinauralTransformer.load(ckpt, cfg.model)
    return cfg, model


def _held_out(manifest_path, frontend, pool, environments=None) -> list[Sample]:
    """The test split when the corpus has one under ``environments``, else
    the validation split."""
    return (load_samples(manifest_path, frontend, splits=("test",),
                         environments=environments, pool=pool)
            or load_samples(manifest_path, frontend, splits=("val",),
                            environments=environments, pool=pool))


# ---------------------------------------------------------------------------
# experiment grid (losses x integrations x sharing modes)


def run_grid(base: ExperimentConfig, manifest_path, out_dir,
             losses=GRID_LOSSES, integrations=GRID_INTEGRATIONS,
             sharings=GRID_SHARINGS) -> list[dict]:
    """Train/evaluate one cell per combination and emit a results table.

    Every cell is evaluated on one held-out list, read once: the test split
    when the corpus has one, else the validation split. The cells share one
    in-memory spectrogram pool, so each spectrogram is computed at most
    once per grid; with ``use_cache`` each cell still writes its own cache.
    MSE columns of AD-trained cells are dashes. A failing cell is recorded
    and the grid moves on. Hemifield statistics are FDR-corrected across the whole grid
    (loss x integration x metric per sharing mode).
    """
    if not losses or not integrations or not sharings:
        raise ValueError("grid axes must be non-empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool = {}
    held_out = _held_out(manifest_path, base.frontend, pool, base.environments)
    cells = []
    comparisons = []
    for shared in sharings:
        for loss_kind in losses:
            for integration in integrations:
                label = f"{_mode_name(shared)}/{loss_kind}/{integration}"
                cfg = base.override(
                    model=replace(base.model, shared=shared,
                                  integration=integration),
                    loss=replace(base.loss, kind=loss_kind),
                )
                cell_dir = out_dir / f"{_mode_name(shared)}_{loss_kind}_{integration}"
                try:
                    result = train(cfg, manifest_path, cell_dir, pool)
                    records, agg = evaluate(result.model, held_out)
                    try:
                        comparisons.extend(hemifield_test(records, label=label))
                    except StatsError:
                        pass  # too few mirror pairs in this corpus
                    cells.append({
                        "model": _mode_name(shared), "loss": loss_kind,
                        "integration": integration, "ad_deg": agg["ad_deg"],
                        "mse": agg["mse"], "error": "",
                    })
                except Exception as exc:  # record and continue with the grid
                    cells.append({
                        "model": _mode_name(shared), "loss": loss_kind,
                        "integration": integration, "ad_deg": None,
                        "mse": None, "error": f"{type(exc).__name__}: {exc}",
                    })

    _write_grid_csv(out_dir / "grid.csv", cells, losses, integrations, sharings)
    if comparisons:
        report = fdr_correct(
            comparisons,
            family="loss x integration x metric per sharing mode, one grid run")
        write_hemifield(out_dir, report)
    with open(out_dir / "grid.json", "w", encoding="utf-8") as fh:
        json.dump(cells, fh, indent=2, sort_keys=True)
    return cells


def _mode_name(shared: bool) -> str:
    return "shared" if shared else "non-shared"


def _write_grid_csv(path, cells, losses, integrations, sharings) -> None:
    import csv as _csv

    index = {(c["model"], c["loss"], c["integration"]): c for c in cells}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _csv.writer(fh)
        w.writerow(["model", "loss"]
                   + [f"ad_{i}" for i in integrations]
                   + [f"mse_{i}" for i in integrations])
        for shared in sharings:
            for loss_kind in losses:
                row = [_mode_name(shared), loss_kind]
                for metric in ("ad_deg", "mse"):
                    for integration in integrations:
                        cell = index[(_mode_name(shared), loss_kind, integration)]
                        if cell["error"]:
                            row.append("error")
                        elif metric == "mse" and loss_kind == "ad":
                            row.append(MISSING_MSE)
                        else:
                            row.append(f"{cell[metric]:.4f}")
                w.writerow(row)


# ---------------------------------------------------------------------------
# environment transfer (train on AE / RV / both, test on each)


def run_env_transfer(base: ExperimentConfig, manifest_path, out_dir
                     ) -> list[dict]:
    """Three trainings (AE, RV, AE+RV) evaluated on the AE and RV parts of
    the test split, or of the validation split when the corpus has no test
    split.

    The trainings share one in-memory spectrogram pool, so each spectrogram
    is computed at most once per call; with ``use_cache`` each training still
    writes its own cache."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool = {}
    models = {}
    for env_filter in ENV_FILTERS:
        cfg = base.override(env_filter=env_filter)
        result = train(cfg, manifest_path, out_dir / f"train_{env_filter}", pool)
        models[env_filter] = result.model

    held_out = _held_out(manifest_path, base.frontend, pool)
    test_splits = {env: [s for s in held_out if s.environment == env]
                   for env in ENVIRONMENTS}
    rows = environment_transfer(models, test_splits)
    write_env_transfer(out_dir, rows)
    return rows
