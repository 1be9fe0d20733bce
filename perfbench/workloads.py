"""The three benchmark workloads and the output checks of every timed call.

Each workload has a set-up, which renders the inputs it needs from the
workload seed, and an op, a fixed sequence of ``binloc`` CLI invocations
that the run repeats until its time is up. Every op covers each CLI stage
the end-to-end metrics time (gen-data counts in set-up too, and is timed
only there where the op does not render), so every run reports every
end-to-end metric; the stage that gives a workload its name is the one
sized to dominate it.

The CLI runs in-process through ``binloc.cli.main``, with its stdout sent
to a log file in the work directory. Every invocation is one attempted
operation. It fails when it exits non-zero or when a check on its output
fails; checks run outside the timed region with tracing paused.

A call is timed by the CPU time of this process (``time.process_time``).
With one thread of control and one BLAS thread it is the call's wall time
less the time the hypervisor took the CPU away, which on a shared host
makes most of the tail of short calls. Each call's wall time is kept in
the run's record beside it.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import binloc.cli
from binloc.config import ExperimentConfig, desk_profile
from binloc.frontend import binaural_spectrogram, load_spectrogram_cache
from binloc.model import BinauralTransformer
from binloc.spatial import read_wav

# Overrides for every env-transfer call and corpus-transfer's train calls: a
# dim-16, one-layer model, so orchestration, frontend and disk dominate and
# the engine does little.
TINY_MODEL = ("--set", "dim=16", "--set", "layers=1", "--set", "stride=24")
# Four azimuths in both environments, rendered in every set-up: it feeds the
# env-transfer probe of train-desk and infer-rollout and the N=180 train call
# of infer-rollout, and in corpus-transfer it pays first-call costs before
# the timed ops. Its renders count in render_samples_per_s; half its samples
# are RV, as in corpus-transfer's corpus, so the RV render dominates them.
MICRO_CORPUS = ("--envs", "AE,RV", "--azimuths", "0,90,180,270",
                "--sources", "2", "--test-sources", "1")


class OpFailed(RuntimeError):
    """A CLI call exited non-zero or left unreadable output; the op stops."""


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``mini`` is the self-test's minimal run."""

    azimuths: str  # --azimuths of each workload's main corpus
    repeats: int   # how often a train-desk op repeats its short calls
    rounds: int    # rounds of short calls after a corpus-transfer render


SCALES = {
    "full": Scale(azimuths="all", repeats=2, rounds=3),
    "mini": Scale(azimuths="0,90,180,270", repeats=1, rounds=1),
}


def read_manifest(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


class Runner:
    """Runs CLI invocations, times them and books failures."""

    def __init__(self, log_path: Path, tracer=None):
        self.log_path = log_path
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}
        self.samples: dict[str, list] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def cli(self, command: str, *argv) -> tuple[int, float]:
        """Invoke ``binloc <command> <argv>``.

        Returns the invocation's id and its CPU time in seconds.
        """
        self.attempted += 1
        call = self.attempted
        argv = [command, *map(str, argv)]
        # flush earlier calls' writes first, so that their writeback does not
        # land inside this call's timing (it halves the spread of short
        # calls). Collect earlier calls' garbage for the same reason, and
        # freeze what survives: a fresh `binloc` process starts with a small
        # heap, and without the freeze every full collection, before a call
        # or inside it, walks all the objects earlier calls left (50 ms per
        # collection by the end of a corpus-transfer op)
        gc.collect()
        gc.freeze()
        os.sync()
        if self.tracer is not None:
            self.tracer.command = command
        with open(self.log_path, "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            start, start_cpu = time.perf_counter(), time.process_time()
            code = binloc.cli.main(argv)
            cpu = time.process_time() - start_cpu
            wall = time.perf_counter() - start
        self.record("calls", (command, wall, cpu))
        if self.tracer is not None:
            self.tracer.command = ""
        if code != 0:
            self.failures[call] = [f"binloc {command} exited {code}"]
            raise OpFailed(f"binloc {' '.join(argv)} exited {code}")
        return call, cpu

    def check(self, call: int, ok: bool, what: str) -> None:
        if not ok:
            self.failures.setdefault(call, []).append(what)

    def record(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def checking(self, call: int):
        """Read a call's outputs with tracing paused.

        An output that is missing or unreadable fails the call and ends the
        op, since later calls of the op depend on it.
        """
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            self.check(call, False, f"unreadable output: {type(exc).__name__}: {exc}")
            raise OpFailed(f"call {call}: {exc}") from exc
        finally:
            if active:
                self.tracer.active = True


# ---------------------------------------------------------------------------
# stages shared by the workloads


def gen_data(r: Runner, out: Path, seed: int, *args) -> tuple[int, list[dict]]:
    """``binloc gen-data``; returns the invocation's id and the manifest."""
    call, cpu = r.cli("gen-data", "--out", out, "--seed", seed, *args)
    with r.checking(call):
        records = read_manifest(out / "manifest.jsonl")
        r.check(call, len({rec["config_hash"] for rec in records}) == 1,
                f"{out}: manifest mixes config hashes")
    r.record("render", (len(records), cpu))
    return call, records


def train(r: Runner, manifest: Path, out: Path, seed: int, epochs: int,
          records: list[dict], *args: str) -> None:
    """``binloc train``; checks finite losses and that best.ckpt reloads."""
    call, cpu = r.cli("train", "--manifest", manifest, "--out", out,
                      "--profile", "desk", "--epochs", epochs, "--seed", seed, *args)
    with r.checking(call):
        cfg = ExperimentConfig.load(out / "config.kv")
        n_train = sum(1 for rec in records if rec["split"] == "train"
                      and rec["env"] in cfg.environments)
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text().splitlines()]
        r.check(call, len(log) == epochs, f"{out}: {len(log)} of {epochs} epochs logged")
        r.check(call, all(math.isfinite(e["train_loss"]) for e in log),
                f"{out}: non-finite training loss")
        try:
            BinauralTransformer.load(out / "best.ckpt", cfg.model)
        except Exception as exc:  # any load failure is a failed check
            r.check(call, False, f"{out}/best.ckpt does not reload: {exc}")
        val_ad = min(e["val_ad_deg"] for e in log)
        first = r.samples.get("val_ad_deg")
        r.check(call, not first or val_ad == first[0],
                f"val_ad_deg {val_ad!r} differs from the first train call's "
                f"{first and first[0]!r}")
    r.record("train", (n_train * len(log), cpu))
    r.record("val_ad_deg", val_ad)


def evaluate(r: Runner, run: Path, manifest: Path, split: str, out: Path,
             records: list[dict]) -> None:
    call, cpu = r.cli("eval", "--run", run, "--manifest", manifest, "--split", split,
                      "--out", out)
    with r.checking(call):
        envs = ExperimentConfig.load(run / "config.kv").environments
        n = sum(1 for rec in records if rec["split"] == split and rec["env"] in envs)
        overall = json.loads((out / "overall.json").read_text())
        table = json.loads((out / "per_azimuth.json").read_text())["table"]
        finite = [overall["ad_deg"], overall["mse"]] + [
            row["value"] for row in table if row["value"] is not None]
        r.check(call, all(math.isfinite(v) for v in finite),
                f"{out}: non-finite prediction error")
    r.record("eval", (n, cpu))


def rollouts(r: Runner, run: Path, manifest: Path, sample_ids: list[str],
             out: Path, grid: tuple[int, int] | None = None) -> None:
    """One ``binloc rollout`` per sample; checks each relevance grid."""
    for sample_id in sample_ids:
        call, cpu = r.cli("rollout", "--run", run, "--manifest", manifest,
                          "--sample-id", sample_id, "--out", out)
        r.record("rollout_ms", cpu * 1e3)
        with r.checking(call):
            meta = json.loads((out / f"rollout_{sample_id}_meta.json").read_text())
            for pathway in ("left", "right", "center"):
                rel = np.loadtxt(out / f"rollout_{sample_id}_{pathway}.csv",
                                 delimiter=",", ndmin=2)
                shape = tuple(meta["grid_shape"]) if grid is None else grid
                r.check(call, rel.shape == shape,
                        f"{sample_id}/{pathway}: grid {rel.shape}, want {shape}")
                r.check(call, bool(np.all(rel >= 0))
                        and abs(rel.sum() - 1.0) <= 1e-6,
                        f"{sample_id}/{pathway}: relevance not a distribution "
                        f"(sum {rel.sum()!r})")


def env_transfer(r: Runner, manifest: Path, out: Path, seed: int,
                 check_caches: bool = False) -> None:
    call, cpu = r.cli("env-transfer", "--manifest", manifest, "--out", out,
                      "--profile", "desk", "--epochs", 1, "--seed", seed, *TINY_MODEL)
    r.record("transfer_s", cpu)
    with r.checking(call):
        with open(out / "env_transfer.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        r.check(call, len(rows) == 6 and all(
            math.isfinite(float(row[k])) for row in rows for k in ("ad_deg", "mse")),
            f"{out}/env_transfer.csv: want 6 finite rows, got {len(rows)}")
        if check_caches:
            _check_caches(r, call, manifest, out)


def _check_caches(r: Runner, call: int, manifest: Path, out: Path) -> None:
    """Every cached spectrogram equals a fresh one computed from its WAV."""
    paths = {rec["id"]: manifest.parent / rec["path"] for rec in read_manifest(manifest)}
    for cache in sorted(out.glob("*/spectrograms.cache")):
        frontend = ExperimentConfig.load(cache.parent / "config.kv").frontend
        for sample_id, (left, right) in load_spectrogram_cache(cache, frontend).items():
            fresh = binaural_spectrogram(read_wav(paths[sample_id]), frontend)
            if not (np.array_equal(left, fresh[0]) and np.array_equal(right, fresh[1])):
                r.check(call, False, f"{cache}: stale entry {sample_id}")
                return


def check_channel_swap(r: Runner, call: int, corpus: Path, records: list[dict]) -> None:
    """AE azimuths t and 360-t of one source render channel-swapped."""
    by_key = {(rec["source"], rec["azimuth"]): rec for rec in records
              if rec["env"] == "AE"}
    pairs = 0
    for (source, az), rec in by_key.items():
        mirror = by_key.get((source, (360 - az) % 360))
        if mirror is None or az in (0, 180) or az > 180:
            continue
        a = read_wav(corpus / rec["path"]).samples
        b = read_wav(corpus / mirror["path"]).samples
        pairs += 1
        r.check(call, np.array_equal(a, b[::-1]),
                f"{rec['id']} and {mirror['id']} are not channel-swapped")
    r.check(call, pairs > 0, f"{corpus}: no mirror pairs to compare")


def ids(records: list[dict], split: str, env: str | None = None) -> list[str]:
    return [rec["id"] for rec in records
            if rec["split"] == split and (env is None or rec["env"] == env)]


def render_micro(r: Runner, out: Path, seed: int) -> list[dict]:
    """Render the micro corpus."""
    return gen_data(r, out, seed, *MICRO_CORPUS)[1]


# ---------------------------------------------------------------------------
# workloads


class TrainDesk:
    """Desk-profile training: engine, model, losses and optim dominate."""

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale

    def setup(self, r: Runner, work: Path) -> None:
        self.corpus = work / "corpus"
        _, self.records = gen_data(r, self.corpus, self.seed, "--envs", "AE",
                                   "--azimuths", self.scale.azimuths,
                                   "--sources", 4, "--ratio", 0.75)
        self.micro = work / "micro"
        render_micro(r, self.micro, self.seed)

    def op(self, r: Runner, work: Path) -> None:
        manifest = self.corpus / "manifest.jsonl"
        run = work / "run"
        train(r, manifest, run, self.seed, 1, self.records,
              "--loss", "hybrid", "--integration", "sub", "--non-shared")
        val_ids = ids(self.records, "val")
        for k in range(self.scale.repeats):
            evaluate(r, run, manifest, "val", work / f"eval{k}", self.records)
            env_transfer(r, self.micro / "manifest.jsonl", work / f"transfer{k}",
                         self.seed)
            rollouts(r, run, manifest, val_ids[4 * k:4 * (k + 1)], work / "rollout")


class CorpusTransfer:
    """Corpus render plus environment transfer: spatial, frontend and disk."""

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale
        self.hashes: list[str] = []

    def setup(self, r: Runner, work: Path) -> None:
        render_micro(r, work / "micro", self.seed)

    def op(self, r: Runner, work: Path) -> None:
        corpus = work / "corpus"
        call, records = gen_data(r, corpus, self.seed, "--azimuths", self.scale.azimuths,
                                 "--sources", 4, "--test-sources", 1)
        with r.checking(call):
            self.hashes.append(records[0]["config_hash"])
            r.check(call, len(set(self.hashes)) == 1,
                    f"manifest config_hash differs across runs: {sorted(set(self.hashes))}")
            check_channel_swap(r, call, corpus, records)

        manifest = corpus / "manifest.jsonl"
        test_ids = ids(records, "test")
        # rounds of short calls, so that each of their figures rests on
        # several seconds of the op; 72 rollouts, so that the p90 does not
        # rest on one or two calls
        for k in range(self.scale.rounds):
            for j in range(2):
                run = work / f"run{k}{j}"
                train(r, manifest, run, self.seed, 1, records, *TINY_MODEL)
                evaluate(r, run, manifest, "test", work / f"eval{k}{j}", records)
                chunk = [test_ids[(24 * k + 12 * j + i) % len(test_ids)]
                         for i in range(12)]
                rollouts(r, run, manifest, chunk, work / "rollout")
            env_transfer(r, manifest, work / f"transfer{k}", self.seed,
                         check_caches=k == 0)


class InferRollout:
    """Forward-only inference at the paper's stride 6 (180 patches per ear)."""

    GRID = (20, 9)

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale

    def setup(self, r: Runner, work: Path) -> None:
        self.corpus = work / "heldout"
        _, self.records = gen_data(r, self.corpus, self.seed, "--envs", "AE",
                                   "--azimuths", self.scale.azimuths,
                                   "--sources", 3, "--test-sources", 1)
        self.micro = work / "micro"
        self.micro_records = render_micro(r, self.micro, self.seed)
        # a run directory as `binloc train` leaves it, without the training
        base = desk_profile()
        cfg = base.override(seed=self.seed, model=replace(
            base.model, shared=True, integration="concat", stride=6))
        self.run = work / "model"
        self.run.mkdir()
        cfg.save(self.run / "config.kv")
        BinauralTransformer(cfg.model, seed=self.seed).save(self.run / "best.ckpt")

    def op(self, r: Runner, work: Path) -> None:
        manifest = self.corpus / "manifest.jsonl"
        micro = self.micro / "manifest.jsonl"
        test_ids = ids(self.records, "test")
        third = -(-len(test_ids) // 3)

        def rollout_chunk(j):
            rollouts(r, self.run, manifest, test_ids[third * j:third * (j + 1)],
                     work / "rollout", grid=self.GRID)

        # the companion calls between the thirds of the rollouts
        evaluate(r, self.run, manifest, "test", work / "eval", self.records)
        for j in range(3):
            if j == 2:
                train(r, micro, work / "run", self.seed, 1, self.micro_records,
                      "--shared", "--integration", "concat", "--set", "stride=6")
            for i in range(2):
                env_transfer(r, micro, work / f"transfer{j}{i}", self.seed)
            rollout_chunk(j)


WORKLOADS = {
    "train-desk": TrainDesk,
    "corpus-transfer": CorpusTransfer,
    "infer-rollout": InferRollout,
}
