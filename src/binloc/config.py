"""Experiment configuration: profiles and key=value files."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .frontend import FrontendConfig
from .losses import LossConfig
from .model import ModelConfig
from .util import config_hash, from_kv, read_kv, to_kv, write_kv

__all__ = ["ExperimentConfig", "desk_profile", "full_profile", "PROFILES"]

# the two rendered environments, anechoic and reverberant; a run trains on
# one of them or on both
ENVIRONMENTS = ("AE", "RV")
ENV_FILTERS = ENVIRONMENTS + ("+".join(ENVIRONMENTS),)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one training run needs, in one serializable bundle.

    Its flat keys (``util.to_kv``) are the field names, the model's
    unprefixed and the loss and frontend fields under ``loss_``/``frontend_``.
    """

    model: ModelConfig = field(default_factory=ModelConfig, metadata={"prefix": ""})
    loss: LossConfig = field(default_factory=LossConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    lr: float = 1e-4
    batch: int = 48
    epochs: int = 50
    seed: int = 0
    env_filter: str = "AE+RV"
    early_stop_train_ad: float | None = None
    use_cache: bool = True

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.env_filter not in ENV_FILTERS:
            raise ValueError(
                f"env_filter must be one of {ENV_FILTERS}, got {self.env_filter!r}")

    @property
    def environments(self) -> tuple[str, ...]:
        return tuple(self.env_filter.split("+"))

    def hash(self) -> str:
        return config_hash(to_kv(self))

    def save(self, path) -> None:
        write_kv(path, to_kv(self))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return from_kv(cls(), read_kv(path))

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def full_profile() -> ExperimentConfig:
    """The full-scale training recipe (needs GPU-class hardware)."""
    return ExperimentConfig()


def desk_profile() -> ExperimentConfig:
    """CPU-friendly profile: slim model, coarser patch stride, faster lr."""
    return ExperimentConfig(
        model=ModelConfig(dim=128, heads=4, mlp_dim=256, stride=12, dropout=0.0),
        lr=5e-4, batch=16, epochs=150,
    )


PROFILES = {"full": full_profile, "desk": desk_profile}
