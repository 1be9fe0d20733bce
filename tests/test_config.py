"""Config codec: the flat key=value form of the config dataclasses."""

import re
from pathlib import Path

import pytest

from binloc.cli import main
from binloc.config import ExperimentConfig, desk_profile, full_profile
from binloc.frontend import FrontendConfig, FrontendError
from binloc.losses import LossConfig
from binloc.model import ModelConfig
from binloc.spatial import SceneConfig
from binloc.util import from_kv, read_kv, to_kv

README = Path(__file__).resolve().parents[1] / "README.md"

# every field set away from its default; early_stop_train_ad holds a value
CUSTOM = ExperimentConfig(
    model=ModelConfig(height=65, width=31, patch=8, stride=4, dim=64, layers=2,
                      heads=2, mlp_dim=96, dropout=0.1, integration="concat",
                      shared=True),
    loss=LossConfig(kind="ad", alpha=0.25, epsilon=1e-6),
    frontend=FrontendConfig(window_length=128, hop=64, nfft=128,
                            tukey_shape=0.5, log_compress=False,
                            standardize=False),
    lr=3e-3, batch=5, epochs=7, seed=11, env_filter="RV",
    early_stop_train_ad=2.5, use_cache=False,
)

# `binloc train --profile desk` wrote exactly this before the codec existed
DESK_CONFIG_KV = """\
height = 129
width = 61
patch = 16
stride = 12
dim = 128
layers = 3
heads = 4
mlp_dim = 256
dropout = 0.0
integration = sub
shared = False
loss_kind = hybrid
loss_alpha = 0.5
loss_epsilon = 1e-07
frontend_window_length = 256
frontend_hop = 128
frontend_nfft = 256
frontend_tukey_shape = 0.25
frontend_log_compress = True
frontend_standardize = True
lr = 0.0005
batch = 16
epochs = 150
seed = 0
env_filter = AE+RV
early_stop_train_ad = None
use_cache = True
"""


class TestToKv:
    def test_nested_configs_flatten_under_prefixes(self):
        kv = to_kv(CUSTOM)
        assert kv["dim"] == 64 and kv["shared"] is True  # empty prefix
        assert kv["loss_kind"] == "ad"
        assert kv["frontend_log_compress"] is False
        assert kv["early_stop_train_ad"] == 2.5
        assert to_kv(LossConfig()) == {"kind": "hybrid", "alpha": 0.5,
                                       "epsilon": 1e-7}

    def test_scene_keys(self):
        assert list(to_kv(SceneConfig())) == [
            "room", "listener", "head_radius", "speed_of_sound", "absorption",
            "reflection_order"]

    def test_desk_config_kv_is_unchanged(self, tmp_path):
        desk_profile().save(tmp_path / "config.kv")
        assert (tmp_path / "config.kv").read_text() == DESK_CONFIG_KV

    @pytest.mark.parametrize("profile, experiment, model, frontend", [
        (desk_profile, "6c940a1f03b2d321", "23dc718ba37e4286", "e159155c4c6b65cb"),
        (full_profile, "9c55e94b9d7d704a", "0fb80eb557ad888d", "e159155c4c6b65cb"),
    ])
    def test_profile_hashes_are_unchanged(self, profile, experiment, model,
                                          frontend):
        # checkpoints carry these hashes; a change would orphan saved runs
        cfg = profile()
        assert cfg.hash() == experiment
        assert cfg.model.hash() == model
        assert cfg.frontend.hash() == frontend

    def test_readme_lists_every_key_in_order(self):
        section = README.read_text().split("### Experiment config files", 1)[1]
        block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
        assert block.split() == list(to_kv(ExperimentConfig()))


class TestFromKv:
    @pytest.mark.parametrize("cfg", [ExperimentConfig(), desk_profile(), CUSTOM],
                             ids=["full", "desk", "custom"])
    def test_round_trip(self, cfg, tmp_path):
        kv = {k: str(v) for k, v in to_kv(cfg).items()}
        assert from_kv(ExperimentConfig(), kv) == cfg
        cfg.save(tmp_path / "config.kv")
        assert ExperimentConfig.load(tmp_path / "config.kv") == cfg
        assert ExperimentConfig.load(tmp_path / "config.kv").hash() == cfg.hash()

    def test_partial_override_keeps_base(self):
        cfg = from_kv(desk_profile(), {"dim": "64", "loss_alpha": "0.25",
                                       "frontend_hop": "64", "epochs": "3"})
        assert cfg.model == ModelConfig(dim=64, heads=4, mlp_dim=256,
                                        stride=12, dropout=0.0)
        assert cfg.loss == LossConfig(alpha=0.25)
        assert cfg.frontend == FrontendConfig(hop=64)
        assert (cfg.epochs, cfg.lr, cfg.batch) == (3, 5e-4, 16)

    def test_empty_mapping_is_identity(self):
        assert from_kv(CUSTOM, {}) == CUSTOM

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("No", False), ("0", False), (" FaLsE ", False)])
    def test_bool_spellings(self, text, value):
        assert from_kv(ModelConfig(), {"shared": text}).shared is value

    @pytest.mark.parametrize("text", ["maybe", "on", "2", ""])
    def test_other_bool_spellings_rejected(self, text):
        with pytest.raises(ValueError, match="'use_cache'"):
            from_kv(ExperimentConfig(), {"use_cache": text})

    @pytest.mark.parametrize("text", ["none", "None", "NONE", ""])
    def test_none_spellings(self, text):
        cfg = from_kv(CUSTOM, {"early_stop_train_ad": text})
        assert cfg.early_stop_train_ad is None

    @pytest.mark.parametrize("key, suggestion", [
        ("dimm", "'dim'"), ("loss_kin", "'loss_kind'"),
        ("early_stop_ad", "'early_stop_train_ad'")])
    def test_unknown_key_names_closest(self, key, suggestion):
        with pytest.raises(ValueError,
                           match=f"unknown config key '{key}'; did you mean "
                                 f"{suggestion}"):
            from_kv(ExperimentConfig(), {key: "1"})

    def test_unknown_key_without_near_match(self):
        with pytest.raises(ValueError, match="unknown config key 'zzz'$"):
            from_kv(ExperimentConfig(), {"zzz": "1"})

    def test_nested_key_is_unknown_to_its_own_config(self):
        with pytest.raises(ValueError, match="unknown config key 'loss_kind'"):
            from_kv(LossConfig(), {"loss_kind": "ad"})

    @pytest.mark.parametrize("key, text", [
        ("dim", "abc"), ("dim", "16.0"), ("lr", "fast"),
        ("early_stop_train_ad", "abc")])
    def test_unparsable_value_names_key(self, key, text):
        with pytest.raises(ValueError, match=f"config key '{key}': expected"):
            from_kv(ExperimentConfig(), {key: text})

    @pytest.mark.parametrize("key, text", [
        ("loss_kind", "bogus"), ("env_filter", "XY"), ("dim", "30"),
        ("batch", "0")])
    def test_rejected_value_names_key(self, key, text):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            from_kv(desk_profile(), {key: text})


# invalid values for every numeric key of the experiment config
INVALID = {
    "height": ["0", "65"], "width": ["0"], "patch": ["0"], "stride": ["0"],
    "dim": ["0", "-4"], "layers": ["-1"], "heads": ["0", "-2"],
    "mlp_dim": ["0", "-1"], "dropout": ["1.0", "nan"],
    "loss_alpha": ["1.5", "nan"], "loss_epsilon": ["0", "nan"],
    "frontend_window_length": ["1"], "frontend_hop": ["0"],
    "frontend_nfft": ["100", "512"], "frontend_tukey_shape": ["2", "-0.5", "nan"],
    "lr": ["nan", "inf", "-1", "0"], "batch": ["0"], "epochs": ["0"],
    "seed": ["-1"], "early_stop_train_ad": ["-1", "0", "nan", "inf"],
}


class TestValidation:
    def test_every_numeric_key_has_invalid_values(self):
        # a new numeric knob needs its invalid values here, and a check
        numeric = [key for key, value in to_kv(desk_profile()).items()
                   if not isinstance(value, (bool, str))]
        assert sorted(INVALID) == sorted(numeric)

    @pytest.mark.parametrize("key, text", [
        (key, text) for key, texts in INVALID.items() for text in texts])
    def test_invalid_value_names_key(self, key, text):
        with pytest.raises(ValueError, match=f"config key '{key}': "):
            from_kv(desk_profile(), {key: text})

    @pytest.mark.parametrize("kv, message", [
        ({"frontend_nfft": "512"}, "height 129 must equal frontend_nfft // 2 + 1 = 257"),
        ({"height": "65"}, "height 65 must equal frontend_nfft // 2 + 1 = 129")])
    def test_height_must_match_frontend_bins(self, kv, message):
        with pytest.raises(ValueError) as info:
            from_kv(desk_profile(), kv)
        assert str(info.value).startswith(f"config key '{next(iter(kv))}': {message}")

    def test_height_and_frontend_bins_change_together(self):
        cfg = from_kv(desk_profile(), {"height": "257", "frontend_nfft": "512"})
        assert (cfg.model.height, cfg.frontend.nfft) == (257, 512)

    @pytest.mark.parametrize("kwargs, message", [
        ({"hop": 0}, "hop must be >= 1, got 0"),
        ({"window_length": 1, "nfft": 1}, "window_length must be >= 2, got 1"),
        ({"nfft": 128}, "nfft 128 must be >= window_length 256"),
        ({"tukey_shape": 1.5}, r"tukey_shape must be in \[0, 1\], got 1.5")])
    def test_frontend_config_checks_itself(self, kwargs, message):
        with pytest.raises(FrontendError, match=message):
            FrontendConfig(**kwargs)


class TestReadKv:
    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "exp.kv"
        path.write_text("dim = 32\n# comment\n\nlr = 0.01\n dim=64  # again\n")
        with pytest.raises(ValueError) as info:
            read_kv(path)
        assert str(info.value) == f"{path}:5: key 'dim' already set on line 1"

    def test_repeated_key_in_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "exp.kv"
        config.write_text("layers = 1\nlayers = 2\n")
        assert main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run"), "--config", str(config)]) == 1
        assert f"{config}:2: key 'layers' already set on line 1" in \
            capsys.readouterr().err
