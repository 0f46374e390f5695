"""Study configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workloads.generator import GeneratorConfig


@dataclass(frozen=True)
class StudyConfig:
    """Configuration for a full characterization study.

    ``scale`` is the fraction of the real yearly job count to synthesize
    (DESIGN.md §5): counts extrapolate linearly; distributions, ratios,
    and performance contrasts are scale-free. The defaults generate
    ~500K-1M file records per platform in a few seconds.
    """

    seed: int = 20220627  # HPDC '22 opened June 27, 2022
    scale: float = 1e-3
    platforms: tuple[str, ...] = ("summit", "cori")

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        if not self.platforms:
            raise ConfigurationError("at least one platform required")
        for p in self.platforms:
            if p not in ("summit", "cori"):
                raise ConfigurationError(f"unknown platform {p!r}")

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(scale=self.scale)
