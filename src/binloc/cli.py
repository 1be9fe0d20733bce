"""Command-line surface tying data generation, training, and analysis together.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import ENV_FILTERS, ENVIRONMENTS, PROFILES, ExperimentConfig
from .data import load_samples
from .losses import LOSS_KINDS
from .metrics import (
    StatsError,
    evaluate,
    hemifield_report,
    per_azimuth,
    write_hemifield,
    write_overall,
    write_per_azimuth,
)
from .model import INTEGRATIONS, BinauralTransformer
from .rollout import bast_rollout, export_heatmap
from .spatial import (
    AZIMUTH_GRID,
    SOURCE_KINDS,
    anechoic_scene,
    build_dataset,
    load_manifest,
    make_source,
    read_wav,
    reverberant_scene,
)
from .train import load_run, run_env_transfer, run_grid, train
from .util import from_kv, read_kv, to_kv


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(1)


def _base_config(args) -> ExperimentConfig:
    """The profile, then ``--config``, then flags, then ``--set``; bad keys exit 1.

    Every flag that sets a config key has that key as its ``dest``.
    """
    base = PROFILES[args.profile]()
    try:
        kv = read_kv(args.config) if getattr(args, "config", None) else {}
        for key in to_kv(base):
            value = getattr(args, key, None)
            if value is not None:
                kv[key] = value
        for item in getattr(args, "set", None) or []:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"--set expects key=value, got {item!r}")
            kv[key.strip()] = value.strip()
        return from_kv(base, kv)
    except ValueError as exc:
        raise _usage(str(exc)) from None


def _usage(message: str) -> SystemExit:
    sys.stderr.write(f"error: {message}\n")
    return _UsageError(1)


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--config", help="key=value experiment config file")
    p.add_argument("--loss", dest="loss_kind", choices=LOSS_KINDS)
    p.add_argument("--alpha", dest="loss_alpha", type=float,
                   help="hybrid weight on the angular term")
    p.add_argument("--integration", choices=INTEGRATIONS)
    shared = p.add_mutually_exclusive_group()
    shared.add_argument("--shared", dest="shared", action="store_true",
                        default=None, help="share the two ear pathways")
    shared.add_argument("--non-shared", dest="shared", action="store_false")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--env-filter", dest="env_filter", choices=ENV_FILTERS)
    p.add_argument("--early-stop-ad", dest="early_stop_train_ad", type=float,
                   help="stop once training angular error drops below this")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="binloc",
                     description="binaural sound localization workbench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-data", help="render a synthetic binaural corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--azimuths", default="all",
                   help="'all' or comma-separated degrees on the 10-degree grid")
    p.add_argument("--sources", type=int, default=4,
                   help="train/val pool size per azimuth")
    p.add_argument("--test-sources", type=int, default=0)
    p.add_argument("--envs", default=",".join(ENVIRONMENTS))
    p.add_argument("--ratio", type=float, default=0.75)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a finished run")
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="val")
    p.add_argument("--out", required=True)
    p.add_argument("--use-final", action="store_true",
                   help="evaluate final.ckpt instead of best.ckpt")

    p = sub.add_parser("grid", help="loss x integration x sharing grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("env-transfer",
                       help="train on AE / RV / both and test across")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("rollout", help="attention rollout for one sample")
    p.add_argument("--run", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sample-id", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect-params", help="print the trainable budget")
    p.add_argument("--profile", choices=sorted(PROFILES), default="full")
    p.add_argument("--integration", choices=INTEGRATIONS)
    shared = p.add_mutually_exclusive_group()
    shared.add_argument("--shared", dest="shared", action="store_true",
                        default=None)
    shared.add_argument("--non-shared", dest="shared", action="store_false")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    return parser


def _reject_repeats(flag: str, values) -> None:
    """A usage error naming each value that ``flag`` lists more than once."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise _usage(f"{flag} lists {repeated} more than once")


def _cmd_gen_data(args) -> int:
    if args.azimuths == "all":
        azimuths = AZIMUTH_GRID
    else:
        try:
            azimuths = tuple(int(a) for a in args.azimuths.split(","))
        except ValueError:
            raise _usage(f"--azimuths must be 'all' or comma-separated integers, "
                         f"got {args.azimuths!r}") from None
    off_grid = [a for a in azimuths if a not in AZIMUTH_GRID]
    if off_grid:
        raise _usage(f"--azimuths must be multiples of 10 in [0, 350], got {off_grid}")
    _reject_repeats("--azimuths", azimuths)
    if args.sources < 1:
        raise _usage(f"--sources must be >= 1, got {args.sources}")
    if args.test_sources < 0:
        raise _usage(f"--test-sources must be >= 0, got {args.test_sources}")
    if not 0.0 < args.ratio < 1.0:
        raise _usage(f"--ratio must be in (0, 1), got {args.ratio}")
    scene_of = dict(zip(ENVIRONMENTS, (anechoic_scene, reverberant_scene)))
    envs = args.envs.split(",")
    for env in envs:
        if env not in scene_of:
            raise _usage(f"unknown environment {env!r}; use "
                         f"{' and/or '.join(ENVIRONMENTS)}")
    _reject_repeats("--envs", envs)
    scenes = {env: scene_of[env]() for env in envs}
    kinds = list(SOURCE_KINDS)
    sources = {f"src{i:03d}": make_source(kinds[i % len(kinds)],
                                          seed=args.seed * 10_000 + i)
               for i in range(args.sources)}
    test_sources = {
        f"test{i:03d}": make_source(kinds[i % len(kinds)],
                                    seed=args.seed * 10_000 + 5000 + i)
        for i in range(args.test_sources)}
    manifest = build_dataset(sources, azimuths, scenes, args.ratio, args.seed,
                             args.out, test_sources=test_sources or None)
    print(f"wrote {len(manifest.records)} samples under {args.out} "
          f"(hash {manifest.config_hash})")
    return 0


def _cmd_train(args) -> int:
    cfg = _base_config(args)
    result = train(cfg, args.manifest, args.out)
    last = result.history[-1]
    print(f"trained {len(result.history)} epochs; "
          f"best val AD {result.best_val_ad:.2f} deg (epoch {result.best_epoch}); "
          f"final train AD {last['train_ad_deg']:.2f} deg")
    print(f"checkpoints: {result.best_checkpoint} / {result.final_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    cfg, model = load_run(args.run, use_final=args.use_final)
    samples = load_samples(args.manifest, cfg.frontend, splits=(args.split,),
                           environments=cfg.environments)
    if not samples:
        raise StatsError(f"cannot evaluate an empty split: no {args.split!r} "
                         f"samples in {args.manifest} under environment filter "
                         f"{cfg.env_filter}")
    records, agg = evaluate(model, samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    label = f"{cfg.model.integration}/{cfg.loss.kind}/{args.split}"
    write_overall(out, agg, label=label)
    write_per_azimuth(out, per_azimuth(records))
    try:
        write_hemifield(out, hemifield_report(records, label=label))
    except StatsError as exc:  # too few mirror pairs in this split
        print(f"hemifield statistics skipped: {exc}")
    print(f"{label}: AD {agg['ad_deg']:.2f} deg, MSE {agg['mse']:.4f} "
          f"({len(records)} samples) -> {out}")
    return 0


def _cmd_grid(args) -> int:
    cfg = _base_config(args)
    cells = run_grid(cfg, args.manifest, args.out)
    failed = [c for c in cells if c["error"]]
    print(f"grid finished: {len(cells)} cells, {len(failed)} failed -> {args.out}")
    return 0 if not failed else 2


def _cmd_env_transfer(args) -> int:
    cfg = _base_config(args)
    rows = run_env_transfer(cfg, args.manifest, args.out)
    for row in rows:
        print(f"train {row['train_env']:5s} test {row['test_env']}: "
              f"AD {row['ad_deg']:.2f} deg, MSE {row['mse']:.4f}")
    return 0


def _cmd_rollout(args) -> int:
    cfg, model = load_run(args.run)
    manifest = load_manifest(args.manifest)
    matches = [r for r in manifest.records if r.sample_id == args.sample_id]
    if not matches:
        raise FileNotFoundError(
            f"sample {args.sample_id!r} not found in {args.manifest}")
    record = matches[0]
    from .frontend import binaural_spectrogram
    wave = read_wav(Path(args.manifest).parent / record.path)
    left, right = binaural_spectrogram(wave, cfg.frontend)
    rollout = bast_rollout(model, left[None], right[None])
    written = export_heatmap(
        rollout,
        {"sample_id": record.sample_id, "azimuth": record.azimuth,
         "environment": record.environment},
        args.out, height=cfg.model.height, width=cfg.model.width,
        patch=cfg.model.patch, stride=cfg.model.stride)
    print(f"wrote {len(written)} rollout files to {args.out}")
    return 0


def _cmd_inspect_params(args) -> int:
    cfg = _base_config(args)
    model_cfg = cfg.model
    # counting needs only shapes: every parameter is a zero-stride view
    model = BinauralTransformer(
        model_cfg, init=lambda name, shape, fill: np.broadcast_to(np.float32(0), shape))
    count = model.count_parameters()
    mode = "shared" if model_cfg.shared else "non-shared"
    print(f"{mode} / {model_cfg.integration}: {count:,} trainable parameters "
          f"({count / 1e6:.2f}M)")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "grid": _cmd_grid,
    "env-transfer": _cmd_env_transfer,
    "rollout": _cmd_rollout,
    "inspect-params": _cmd_inspect_params,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        sys.stderr.write(f"binloc {args.command}: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
