"""The run-config dataclasses: `SynthConfig` (datagen), `PoincareConfig`
(Poincaré training) and `TrainConfig` (the mapper).

Each field's name, type and default is written down here once; `schema`
reads them for the CLI's config sections and the model artifact loader.
Range checks live in each class's `__post_init__`. This module imports only
`errors` and `schema`, so the CLI builds its config schema without loading
any pipeline code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .schema import accepts


@dataclass
class SynthConfig:
    groups: int = 10  # G standard titles
    synonyms: int = 3  # S noisy titles per group
    max_noise_ops: int = 3  # edits per noisy title drawn from {1..max}; 0 = exact copies
    persons: int = 100
    jobs_per_person: int = 5
    self_transition_bias: float = 0.6
    transition_concentration: float = 0.3  # Dirichlet alpha over other groups
    seed: int = 0

    def __post_init__(self):
        if min(self.groups, self.synonyms, self.persons, self.jobs_per_person) < 1:
            raise ConfigError("groups, synonyms, persons and jobs_per_person must be >= 1")
        if not 0.0 <= self.self_transition_bias <= 1.0:
            raise ConfigError("self_transition_bias must lie in [0, 1]")
        if self.transition_concentration <= 0:
            raise ConfigError("transition_concentration must be positive")
        if self.max_noise_ops < 0:
            raise ConfigError("max_noise_ops must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"data seed must be >= 0, got {self.seed}")


@dataclass
class PoincareConfig:
    epochs: int = 50
    lr: float = 0.1
    negatives: int = 10
    burn_in_epochs: int = 10
    burn_in_lr_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.burn_in_epochs) < 0:
            raise ConfigError("poincare epochs and burn_in_epochs must be >= 0")
        if self.negatives < 1:
            # with no negative, a step's softmax holds only the parent: no loss, no gradient
            raise ConfigError(f"poincare negatives must be >= 1, got {self.negatives}")
        if not min(self.lr, self.burn_in_lr_factor) > 0:
            raise ConfigError("poincare lr and burn_in_lr_factor must be positive")
        if self.seed < 0:
            raise ConfigError(f"poincare seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    d_h: int = 128
    d_b: int = 128
    d_r: int = 64
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 20
    split: tuple = (0.64, 0.16, 0.20)
    seed: int = 0
    logic_weight: float = 1.0
    clause_weight: float = 0.1
    # the co-attended features carry a 1/d softmax factor, so the fusion
    # layer needs far larger weights than the rest of the model; a separate
    # Adam group with a scaled lr closes that gap at desk scale
    fusion_lr_multiplier: float = 1.0

    def __post_init__(self):
        if len(self.split) != 3 or not all(accepts(float, f) for f in self.split):
            raise ConfigError(f"split {self.split} must be three finite numbers")
        if not all(0.0 <= f <= 1.0 for f in self.split):
            raise ConfigError(f"split fractions {self.split} must each lie in [0, 1]")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions {self.split} must sum to 1")
        if min(self.d_h, self.d_b, self.d_r) < 1:
            raise ConfigError("dimensions must be positive")
        if min(self.batch_size, self.max_epochs) < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if min(self.logic_weight, self.clause_weight) < 0:
            raise ConfigError("logic_weight and clause_weight must be >= 0")
        if self.fusion_lr_multiplier <= 0:
            raise ConfigError("fusion_lr_multiplier must be positive")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
