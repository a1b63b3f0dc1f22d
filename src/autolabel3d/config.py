"""Run configuration: YAML sections mapped onto the module configs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from .core import InvalidArgument
from .metrics import DEFAULT_DIST_THRESHOLD, DEFAULT_RECALL_GRID
from .pipeline import PipelineConfig
from .providers import NoiseConfig
from .sampling import DEFAULT_MAX_PER_TRACK, DEFAULT_WINDOW
from .simulator import SimConfig

NOISE_PROFILES: dict[str, NoiseConfig] = {
    "noiseless": NoiseConfig.noiseless(),
    "light": NoiseConfig(match_dropout_base=0.05, center_px_sigma=1.0,
                         depth_rel_sigma=0.005, dims_rel_sigma=0.01),
    "medium": NoiseConfig(match_dropout_base=0.2, dropout_occlusion_gain=0.3,
                          center_px_sigma=2.0, depth_rel_sigma=0.01,
                          dims_rel_sigma=0.02, direction_flip_prob=0.01),
    "heavy_dropout": NoiseConfig(match_dropout_base=0.5, confidence_c0=1.0,
                                 confidence_d0=float("inf"),
                                 confidence_k_occ=0.0),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


@dataclass(frozen=True)
class SamplingConfig:
    max_per_track: int = DEFAULT_MAX_PER_TRACK
    seed: int = 0
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.max_per_track < 1:
            raise InvalidArgument("sampling.max_per_track must be >= 1")
        if self.window < 0:
            raise InvalidArgument("sampling.window must be >= 0")


@dataclass(frozen=True)
class MetricsConfig:
    dist_threshold: float = DEFAULT_DIST_THRESHOLD
    recall_grid: tuple[float, ...] = DEFAULT_RECALL_GRID

    def __post_init__(self):
        if self.dist_threshold <= 0:
            raise InvalidArgument("metrics.dist_threshold must be positive")
        if not isinstance(self.recall_grid, tuple) or not all(
                _is_number(r) for r in self.recall_grid):
            raise InvalidArgument(
                f"metrics.recall_grid must be a list of numbers, "
                f"got {self.recall_grid!r}")
        if not self.recall_grid:
            raise InvalidArgument("metrics.recall_grid must not be empty")
        if any(not 0 < r <= 1 for r in self.recall_grid):
            raise InvalidArgument("recall grid values must lie in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig.noiseless)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    heatmap_stride: int = 4

    def __post_init__(self):
        if not _is_int(self.heatmap_stride) or self.heatmap_stride < 1:
            raise InvalidArgument(
                f"heatmap_stride must be an integer >= 1, "
                f"got {self.heatmap_stride!r}")


def _build(cls, data: dict, section: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidArgument(
            f"unknown keys in [{section}]: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    coerced = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        if isinstance(v, list):
            v = tuple(v)
        coerced[f.name] = v
    return cls(**coerced)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise InvalidArgument("config root must be a mapping")
    known = {"sim", "noise", "pipeline", "sampling", "metrics", "heatmap_stride"}
    unknown = set(data) - known
    if unknown:
        raise InvalidArgument(f"unknown config sections: {sorted(unknown)}")
    noise_section = data.get("noise", {})
    if isinstance(noise_section, str):
        if noise_section not in NOISE_PROFILES:
            raise InvalidArgument(
                f"unknown noise profile {noise_section!r}; "
                f"profiles: {sorted(NOISE_PROFILES)}")
        noise = NOISE_PROFILES[noise_section]
    else:
        noise = _build(NoiseConfig, noise_section, "noise")
    return RunConfig(
        sim=_build(SimConfig, data.get("sim", {}), "sim"),
        noise=noise,
        pipeline=_build(PipelineConfig, data.get("pipeline", {}), "pipeline"),
        sampling=_build(SamplingConfig, data.get("sampling", {}), "sampling"),
        metrics=_build(MetricsConfig, data.get("metrics", {}), "metrics"),
        heatmap_stride=data.get("heatmap_stride", RunConfig.heatmap_stride),
    )


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    return run_config_from_dict(data)
