"""Run configuration: YAML sections mapped onto the module configs."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from .core import InvalidArgument
from .metrics import DEFAULT_DIST_THRESHOLD, DEFAULT_RECALL_GRID
from .pipeline import PipelineConfig
from .providers import NoiseConfig
from .sampling import DEFAULT_MAX_PER_TRACK, DEFAULT_WINDOW
from .simulator import SimConfig

DEFAULT_NOISE = "noiseless"  # the profile of a run with no noise section
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


def _fits(value, default, args=()) -> bool:
    """Whether a YAML value has the shape ``_shape`` names for a field with
    this default and type arguments; a bool is never a number."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, tuple):
        return (isinstance(value, list) and all(_fits(v, 0.0) for v in value)
                and (Ellipsis in args or len(value) == len(args)))
    if isinstance(default, dict):
        return (isinstance(value, dict) and value.keys() == default.keys()
                and all(_fits(value[k], d) for k, d in default.items()))
    return type(value) is type(default)


def _shape(default, args=()) -> str:
    """What a YAML value must be to set a field with this default and type
    arguments: a float field also takes an int, a ``tuple[float, float]``
    field 2 numbers, a ``tuple[float, ...]`` field any count, and a dict
    field exactly its default's keys, each value of its default's shape."""
    if isinstance(default, tuple):
        return ("a list of numbers" if Ellipsis in args
                else f"a list of {len(args)} numbers")
    if isinstance(default, dict):
        return "a mapping of " + ", ".join(
            f"{k} to {_shape(d)}" for k, d in sorted(default.items()))
    return {bool: "true or false", int: "an integer", float: "a number",
            str: "a string"}[type(default)]


@dataclass(frozen=True)
class SamplingConfig:
    max_per_track: int = DEFAULT_MAX_PER_TRACK
    seed: int = 0
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.max_per_track < 1:
            raise InvalidArgument("sampling.max_per_track must be >= 1")
        if self.seed < 0:
            raise InvalidArgument(
                f"sampling.seed must be >= 0, got {self.seed!r}")
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
    noise: NoiseConfig = field(
        default_factory=lambda: NOISE_PROFILES[DEFAULT_NOISE])
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
    args = {name: get_args(t) for name, t in get_type_hints(cls).items()}
    values = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        key = f"{section}.{f.name}" if section else f.name
        default = f.default_factory() if f.default is MISSING else f.default
        if is_dataclass(default):
            v = _build(type(default), v, key)
        elif not _fits(v, default, args[f.name]):
            raise InvalidArgument(
                f"{key} must be {_shape(default, args[f.name])}, got {v!r}")
        elif isinstance(v, list):
            v = tuple(v)
        values[f.name] = v
    return cls(**values)


def run_config_from_dict(data, overrides=None) -> RunConfig:
    """The run config of a YAML mapping, each override written in as the
    mapping would hold it: ``noise`` takes a profile name, other keys are
    ``section.field``. The profile, named or the default, is expanded
    first, so an override can set ``noise.seed``; a partial ``noise``
    mapping starts from the default profile too."""
    if isinstance(data, dict):  # else _build names the root
        overrides = dict(overrides or {})
        noise = overrides.pop("noise", data.get("noise", DEFAULT_NOISE))
        if isinstance(noise, str):
            if noise not in NOISE_PROFILES:
                raise InvalidArgument(
                    f"unknown noise profile {noise!r}; "
                    f"profiles: {sorted(NOISE_PROFILES)}")
            noise = asdict(NOISE_PROFILES[noise])
        elif isinstance(noise, dict):
            noise = {**asdict(NOISE_PROFILES[DEFAULT_NOISE]), **noise}
        data = {**data, "noise": noise}
        for key, value in overrides.items():
            if key.count(".") != 1:
                raise InvalidArgument(f"override key {key!r} is neither "
                                      "'noise' nor section.field")
            section, name = key.split(".")
            # a section that is no mapping is left for _build to name
            if isinstance(data.setdefault(section, {}), dict):
                data[section] = {**data[section], name: value}
    return _build(RunConfig, data)


def read_yaml(text: str, where: str):
    """What ``yaml.safe_load`` reads from ``text``; bad YAML, such as a
    syntax error or a tag it refuses, is an ``InvalidArgument`` naming
    ``where``."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise InvalidArgument(f"{where}: {e}") from None


def load_run_config(path=None, overrides=None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8") if path else ""
    except UnicodeDecodeError as e:
        raise InvalidArgument(f"{path}: {e}") from None
    return run_config_from_dict(read_yaml(text, path) or {}, overrides)
