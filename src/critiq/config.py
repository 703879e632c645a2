"""Run configuration: model dimensions plus stage-specific training knobs.

Serialized as JSON; the `model` key nests the model dimensions. Desk-scale
defaults keep a full two-stage run in the minutes range; full-scale values
remain expressible through the same fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .model import ModelConfig
from .objectives import LossWeights
from .util import check_fields, write_atomic

STAGES = ("pretrain", "adapt")

# field -> (type, op, bound) for util.check_fields. alpha and beta get their
# range from objectives.LossWeights; 0 turns off weight_decay, grad_clip,
# eval_every and checkpoint_every
_RULES = {
    "steps": (int, ">=", 0),
    "batch_size": (int, ">=", 1),
    "learning_rate": (float, ">", 0),
    "weight_decay": (float, ">=", 0),
    "alpha": (float, None, None),
    "beta": (float, None, None),
    "margin": (float, ">=", 0),
    "use_residual": (bool, None, None),
    "use_text_anchor": (bool, None, None),
    "seed": (int, ">=", 0),
    "grad_clip": (float, ">=", 0),
    "eval_every": (int, ">=", 0),
    "checkpoint_every": (int, ">=", 0),
    "augment": (bool, None, None),
    "fixed_comment": (bool, None, None),
    "source_size": (int, ">=", 1),
}


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
        check_fields(self, _RULES)
        LossWeights(alpha=self.alpha, beta=self.beta)
        if not isinstance(self.model, ModelConfig):
            raise ValueError(f"model must be a ModelConfig, got {self.model!r}")
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
