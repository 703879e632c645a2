"""Run configuration: model dimensions plus stage-specific training knobs.

Serialized as JSON; the `model` key nests the model dimensions. Desk-scale
defaults keep a full two-stage run in the minutes range; full-scale values
remain expressible through the same fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .model import ModelConfig
from .util import write_atomic

STAGES = ("pretrain", "adapt")

# ablation axes exposed as ready-made grids
MARGIN_SWEEP = (0.01, 0.05, 0.1, 0.15, 0.2)
LOSS_WEIGHT_SWEEP = ((2.0, 1.0), (1.0, 1.0), (1.0, 2.0))  # (alpha, beta)


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    steps: int = 2000
    batch_size: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    alpha: float = 1.0
    beta: float = 2.0
    margin: float = 0.1
    use_residual: bool = True
    use_text_anchor: bool = True
    seed: int = 0
    grad_clip: float = 1.0
    eval_every: int = 0
    checkpoint_every: int = 0
    augment: bool = True
    fixed_comment: bool = False
    source_size: int = 40
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("weight_decay", "grad_clip"):  # 0 turns either off
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.source_size < self.model.image_size:
            raise ValueError(f"source_size {self.source_size} smaller than model "
                             f"image_size {self.model.image_size}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["model"] = self.model.to_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        model = ModelConfig.from_dict(d.pop("model")) if "model" in d else ModelConfig()
        known = {f.name for f in fields(cls)} - {"model"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(model=model, **d)

    def save(self, path: str) -> None:
        write_atomic(path, (json.dumps(self.to_dict(), indent=2, sort_keys=True)
                            + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
