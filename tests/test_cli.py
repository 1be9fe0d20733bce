"""Command-line surface: exit codes, determinism, end-to-end plumbing."""

import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import binloc
from binloc import cli
from binloc.cli import main
from binloc.config import ExperimentConfig, desk_profile
from binloc.model import BinauralTransformer
from binloc.spatial import load_manifest
from helpers import tensor_file_bytes


def _file_hashes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_eval_without_run_is_usage_error(self):
        assert main(["eval", "--manifest", "x", "--out", "y"]) == 1

    def test_runtime_failure_is_exit_2(self, tmp_path):
        assert main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_bad_set_value_is_usage_error(self, tmp_path):
        assert main(["inspect-params", "--profile", "desk",
                     "--set", "malformed"]) == 1

    @pytest.mark.parametrize("setting", [
        "dimm=64", "shared=maybe", "frontend_log_compress=nope",
        "loss_kind=bogus", "dim=abc", "early_stop_train_ad=abc"])
    def test_bad_config_setting_is_usage_error(self, setting, capsys):
        assert main(["inspect-params", "--profile", "desk",
                     "--set", setting]) == 1
        key = setting.split("=")[0]
        assert f"'{key}'" in capsys.readouterr().err

    def test_unknown_key_in_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "exp.kv"
        config.write_text("dim = 16\nlayerz = 1\n")
        assert main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run"), "--config", str(config)]) == 1
        assert "'layerz'; did you mean 'layers'?" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--azimuths", "abc"], ["--azimuths", "5"], ["--sources", "0"],
        ["--ratio", "2"], ["--test-sources", "-1"]])
    def test_bad_gen_data_argument_is_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen-data", "--out", str(out), *args]) == 1
        assert args[0] in capsys.readouterr().err
        assert not out.exists()  # rejected before rendering

    def test_duplicate_azimuths_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen-data", "--out", str(out), "--azimuths", "0,90,90"]) == 1
        assert "--azimuths lists [90] more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_environments_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen-data", "--out", str(out), "--azimuths", "0",
                     "--envs", "AE,RV,AE"]) == 1
        assert "--envs lists ['AE'] more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"],
                                         ["rollout", "--sample-id", "x"]])
    def test_bad_run_config_is_runtime_failure(self, command, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.kv").write_text("dimm = 64\n")
        assert main([*command, "--run", str(run),
                     "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "'dimm'" in capsys.readouterr().err


class TestConfigResolution:
    def test_file_then_flags_then_set(self, tmp_path):
        config = tmp_path / "exp.kv"
        config.write_text("loss_kind = mse\nlr = 0.5\nbatch = 7\n")
        run = tmp_path / "run"
        # the corpus is missing, so train fails after writing config.kv
        assert main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(run), "--config", str(config),
                     "--lr", "0.01", "--set", "lr=0.02", "--alpha", "0.25",
                     "--early-stop-ad", "4.5", "--integration", "add",
                     "--shared", "--env-filter", "AE", "--seed", "9"]) == 2
        cfg = ExperimentConfig.load(run / "config.kv")
        assert (cfg.loss.kind, cfg.batch) == ("mse", 7)
        assert cfg.lr == 0.02
        assert cfg.loss.alpha == 0.25
        assert cfg.early_stop_train_ad == 4.5
        assert (cfg.model.integration, cfg.model.shared) == ("add", True)
        assert (cfg.env_filter, cfg.seed) == ("AE", 9)
        assert cfg.model.dim == 128  # the desk profile underneath

    def test_parser_built_once_and_reusable(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert main(["inspect-params", "--bogus"]) == 1
        first = parser.parse_args(["inspect-params", "--shared", "--set", "dim=16"])
        again = parser.parse_args(["inspect-params"])
        assert (first.shared, first.set) == (True, ["dim=16"])
        assert (again.shared, again.set) == (None, None)


class TestGenData:
    def test_deterministic_across_invocations(self, tmp_path):
        args = ["gen-data", "--seed", "7", "--azimuths", "0,90",
                "--sources", "2", "--envs", "AE", "--ratio", "0.5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert _file_hashes(tmp_path / "a") == _file_hashes(tmp_path / "b")

    def test_manifest_contents(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--seed", "1",
                     "--azimuths", "10,350", "--sources", "2",
                     "--test-sources", "1", "--envs", "AE,RV"]) == 0
        manifest = load_manifest(tmp_path / "manifest.jsonl")
        assert len(manifest.records) == 2 * 2 * 2 + 2 * 2  # pool + test
        assert {r.split for r in manifest.records} == {"train", "val", "test"}

    def test_bad_environment_rejected(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--envs", "XY"]) == 1


class TestInspectParams:
    def test_desk_profile_prints_count(self, capsys):
        assert main(["inspect-params", "--profile", "desk",
                     "--integration", "sub"]) == 0
        out = capsys.readouterr().out
        assert "trainable parameters" in out
        assert "non-shared / sub" in out

    def test_micro_override(self, capsys):
        assert main(["inspect-params", "--profile", "desk", "--set", "dim=16",
                     "--set", "heads=2", "--set", "mlp_dim=16",
                     "--set", "layers=1"]) == 0
        count = int(capsys.readouterr().out.split(":")[1].split()[0]
                    .replace(",", ""))
        assert 0 < count < 100_000

    def test_full_scale_count_draws_no_weights(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("inspect-params drew random weights")

        monkeypatch.setattr("binloc.model._trunc_normal", no_draws)
        assert main(["inspect-params", "--profile", "full", "--integration", "sub",
                     "--non-shared"]) == 0
        assert "non-shared / sub: 57,245,698 trainable parameters" in capsys.readouterr().out


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """gen-data + train once; several commands build on the result."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data), "--seed", "3",
                 "--azimuths", "90,270", "--sources", "2",
                 "--envs", "AE", "--ratio", "0.5"]) == 0
    assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--out", str(run), "--profile", "desk",
                 "--set", "dim=16", "--set", "heads=2", "--set", "mlp_dim=16",
                 "--set", "layers=1", "--set", "stride=24",
                 "--epochs", "2", "--batch", "4", "--seed", "5",
                 "--env-filter", "AE"]) == 0
    return data, run


class TestPipeline:
    def test_train_outputs(self, cli_workspace):
        _, run = cli_workspace
        assert (run / "best.ckpt").exists()
        assert (run / "final.ckpt").exists()
        assert (run / "config.kv").exists()
        log = [json.loads(line)
               for line in (run / "train_log.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in log] == [0, 1]

    def test_eval_writes_metrics(self, cli_workspace, tmp_path):
        data, run = cli_workspace
        out = tmp_path / "eval"
        assert main(["eval", "--run", str(run),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--split", "val", "--out", str(out)]) == 0
        assert (out / "overall.csv").exists()
        assert (out / "per_azimuth.csv").exists()
        payload = json.loads((out / "overall.json").read_text())
        assert "ad_deg" in payload and "mse" in payload

    def test_eval_skips_hemifield_with_too_few_mirror_pairs(self, cli_workspace,
                                                            tmp_path, capsys):
        data, run = cli_workspace  # azimuths 90 and 270: one mirror pair
        out = tmp_path / "eval"
        assert main(["eval", "--run", str(run),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--split", "val", "--out", str(out)]) == 0
        assert "hemifield statistics skipped" in capsys.readouterr().out
        assert not list(out.glob("hemifield.*"))

    def test_eval_hemifield_write_failure_is_runtime_failure(
            self, cli_workspace, tmp_path, monkeypatch, capsys):
        _, run = cli_workspace
        data = tmp_path / "data"  # three mirror pairs: 10/350, 20/340, 30/330
        assert main(["gen-data", "--out", str(data), "--seed", "4",
                     "--azimuths", "10,20,30,330,340,350", "--sources", "2",
                     "--envs", "AE", "--ratio", "0.5"]) == 0
        args = ["eval", "--run", str(run), "--manifest",
                str(data / "manifest.jsonl"), "--split", "val"]
        assert main([*args, "--out", str(tmp_path / "ok")]) == 0
        assert list((tmp_path / "ok").glob("hemifield.*"))

        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_hemifield", disk_full)
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "full")]) == 2
        assert "No space left on device" in capsys.readouterr().err

    def test_rollout_exports_sample(self, cli_workspace, tmp_path):
        data, run = cli_workspace
        manifest = load_manifest(data / "manifest.jsonl")
        sample_id = manifest.records[0].sample_id
        out = tmp_path / "rollout"
        assert main(["rollout", "--run", str(run),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--sample-id", sample_id, "--out", str(out)]) == 0
        assert (out / f"rollout_{sample_id}_left.csv").exists()
        assert (out / f"rollout_{sample_id}_center.csv").exists()
        meta = json.loads((out / f"rollout_{sample_id}_meta.json").read_text())
        assert meta["sample_id"] == sample_id

    def test_eval_of_empty_split_names_manifest_split_and_filter(
            self, cli_workspace, tmp_path, capsys):
        data, run = cli_workspace  # rendered without test sources
        manifest = str(data / "manifest.jsonl")
        assert main(["eval", "--run", str(run), "--manifest", manifest,
                     "--split", "test", "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "no 'test' samples in" in err and manifest in err
        assert "environment filter AE" in err

    def test_malformed_checkpoint_is_checkpoint_error(self, cli_workspace,
                                                      tmp_path, capsys):
        data, run = cli_workspace
        broken = tmp_path / "run"
        shutil.copytree(run, broken)
        (broken / "best.ckpt").write_bytes(tensor_file_bytes(b"BLTENS1\n", {}))
        manifest = str(data / "manifest.jsonl")
        sample_id = load_manifest(manifest).records[0].sample_id
        for args in (["eval", "--split", "val"], ["rollout", "--sample-id", sample_id]):
            capsys.readouterr()
            assert main([*args, "--run", str(broken), "--manifest", manifest,
                         "--out", str(tmp_path / args[0])]) == 2
            err = capsys.readouterr().err
            assert "CheckpointError" in err and str(broken / "best.ckpt") in err

    def test_damaged_manifest_names_file_and_line(self, cli_workspace,
                                                  tmp_path, capsys):
        data, run = cli_workspace
        lines = (data / "manifest.jsonl").read_text().splitlines()
        damaged = tmp_path / "manifest.jsonl"
        damaged.write_text("\n".join([lines[0], lines[1][:14], *lines[2:]]) + "\n")
        sample_id = load_manifest(data / "manifest.jsonl").records[0].sample_id
        for args in (["eval", "--split", "val"], ["rollout", "--sample-id", sample_id]):
            capsys.readouterr()
            assert main([*args, "--run", str(run), "--manifest", str(damaged),
                         "--out", str(tmp_path / args[0])]) == 2
            err = capsys.readouterr().err
            assert f"SpatialError: {damaged}:2: not one JSON record" in err

    def test_repeated_sample_id_is_runtime_failure(self, cli_workspace,
                                                   tmp_path, capsys):
        data, run = cli_workspace
        lines = (data / "manifest.jsonl").read_text().splitlines()
        repeated = tmp_path / "manifest.jsonl"
        repeated.write_text("\n".join([*lines, lines[0]]) + "\n")
        sample_id = load_manifest(data / "manifest.jsonl").records[0].sample_id
        for args in (["eval", "--split", "val"], ["rollout", "--sample-id", sample_id]):
            capsys.readouterr()
            assert main([*args, "--run", str(run), "--manifest", str(repeated),
                         "--out", str(tmp_path / args[0])]) == 2
            err = capsys.readouterr().err
            assert (f"SpatialError: {repeated}:{len(lines) + 1}: sample id "
                    f"{sample_id!r} already on line 1") in err

    def test_rollout_unknown_sample_is_runtime_error(self, cli_workspace,
                                                     tmp_path):
        data, run = cli_workspace
        assert main(["rollout", "--run", str(run),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--sample-id", "nope", "--out", str(tmp_path)]) == 2


_GLIBC_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy applies to glibc only")

# a warm B=1 forward of a stride-6 shared concat desk model, run by a process
# that imports the model but not the CLI; prints the forward's minor faults
_WARM_FORWARD = """
import dataclasses, resource, sys
import numpy as np
from binloc.config import desk_profile
from binloc.model import BinauralTransformer
assert "binloc.cli" not in sys.modules
cfg = dataclasses.replace(desk_profile().model, shared=True, integration="concat",
                          stride=6)
model = BinauralTransformer(cfg, seed=5)
x = np.zeros((1, cfg.height, cfg.width), np.float32)
model.predict(x, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.predict(x, x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    """Importing ``binloc`` keeps freed heap pages (glibc ``mallopt``) so
    that a warm command or forward reuses its activation memory instead of
    faulting it back in."""

    @_GLIBC_ONLY
    def test_warm_eval_reuses_heap_pages(self, tmp_path):
        # a stride-6 shared desk model, untrained, on 12 test samples
        data, run = tmp_path / "data", tmp_path / "run"
        azimuths = ",".join(str(a) for a in range(0, 360, 30))
        assert main(["gen-data", "--out", str(data), "--seed", "3", "--azimuths",
                     azimuths, "--sources", "2", "--test-sources", "1",
                     "--envs", "AE"]) == 0
        base = desk_profile()
        cfg = base.override(seed=5, model=dataclasses.replace(
            base.model, shared=True, integration="concat", stride=6))
        run.mkdir()
        cfg.save(run / "config.kv")
        BinauralTransformer(cfg.model, seed=5).save(run / "best.ckpt")
        args = ["eval", "--run", str(run), "--manifest", str(data / "manifest.jsonl"),
                "--split", "test"]
        assert main([*args, "--out", str(tmp_path / "cold")]) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main([*args, "--out", str(tmp_path / "warm")]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # measured on x86-64 Linux, glibc 2.36: 0-63 with the policy,
        # 5,855-6,443 without it
        assert faults < 1000

    def test_policy_is_a_no_op_without_glibc(self, monkeypatch):
        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))

        def no_libc(*args, **kwargs):
            raise AssertionError("libc loaded without glibc")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert binloc._keep_freed_heap() is None

    @_GLIBC_ONLY
    def test_library_import_sets_the_policy(self):
        src = Path(binloc.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _WARM_FORWARD], env=env,
                              capture_output=True, text=True, check=True)
        # measured on x86-64 Linux, glibc 2.36: 0 with the policy, 1,096-2,031
        # without it
        assert int(done.stdout) < 300
