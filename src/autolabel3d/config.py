"""Run configuration: YAML sections mapped onto the module configs."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", tuple: "a list of numbers", dict: "a mapping"}


def _fits(value, default) -> bool:
    """Whether a YAML value may set a field with this default: a float field
    also takes an int, a tuple field a list of numbers, and a bool is never
    a number."""
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, tuple):
        return isinstance(value, list) and all(map(_is_number, value))
    return type(value) is type(default)


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
        if not 0 < self.dist_threshold < math.inf:
            raise InvalidArgument("metrics.dist_threshold must be finite and "
                                  f"positive, got {self.dist_threshold!r}")
        if not self.recall_grid:
            raise InvalidArgument("metrics.recall_grid must not be empty")
        if any(not 0 < r <= 1 for r in self.recall_grid):
            raise InvalidArgument("metrics.recall_grid values must lie in "
                                  f"(0, 1], got {list(self.recall_grid)!r}")


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig.noiseless)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    heatmap_stride: int = 4

    def __post_init__(self):
        if self.heatmap_stride < 1:
            raise InvalidArgument(
                f"heatmap_stride must be >= 1, got {self.heatmap_stride!r}")


def _build(cls, data, section: str = ""):
    """Build a config dataclass from a YAML mapping; a field whose default
    is a dataclass is a nested section."""
    where = section or "config root"
    if not isinstance(data, dict):
        raise InvalidArgument(f"{where} must be a mapping, got {data!r}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidArgument(
            f"unknown keys in {where}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        key = f"{section}.{f.name}" if section else f.name
        default = f.default_factory() if f.default is MISSING else f.default
        if is_dataclass(default):
            v = _build(type(default), v, key)
        elif not _fits(v, default):
            raise InvalidArgument(
                f"{key} must be {_KINDS[type(default)]}, got {v!r}")
        elif isinstance(v, list):
            v = tuple(v)
        values[f.name] = v
    return cls(**values)


def run_config_from_dict(data) -> RunConfig:
    noise = data.get("noise") if isinstance(data, dict) else None
    if isinstance(noise, str):
        if noise not in NOISE_PROFILES:
            raise InvalidArgument(
                f"unknown noise profile {noise!r}; "
                f"profiles: {sorted(NOISE_PROFILES)}")
        data = {**data, "noise": asdict(NOISE_PROFILES[noise])}
    return _build(RunConfig, data)


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    return run_config_from_dict(data)
