"""Any value in any config field, and any value of a value flag, must either
run or exit 1 naming its dotted key: never exit 2, and never an error that
points elsewhere. A run that exits 0 must leave an ``--out`` that the
stages read back: ``evaluate`` run alone on it writes the same report."""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from autolabel3d.cli import main
from autolabel3d.config import NOISE_PROFILES, MetricsConfig, RunConfig
from autolabel3d.pipeline import PipelineConfig
from autolabel3d.providers import NoiseConfig
from autolabel3d.simulator import DEFAULT_INTRINSICS

# one sparse label per track, so every other frame runs the noisy oracle
# and the gates
SCENE = {"sim": {"duration": 8, "object_count": 2},
         "sampling": {"max_per_track": 1}}

# (section, field) for every float or float-tuple field of the three sections
FLOAT_FIELDS = [(section, f.name)
                for section, cls in (("noise", NoiseConfig),
                                     ("metrics", MetricsConfig),
                                     ("pipeline", PipelineConfig))
                for f in dataclasses.fields(cls)
                if isinstance(f.default, float) or f.name == "recall_grid"]

NUMBERS = st.one_of(st.sampled_from([float("nan"), float("inf"),
                                      float("-inf"), -1e-9, -5.0, 1.5, 5.0,
                                      1e300]),
                    st.floats())


def run_e2e(data, *flags, sweep=None):
    """(exit code, stderr) of ``e2e`` on the YAML of ``data``, with
    ``--sweep`` if given; on exit 0, also run ``evaluate`` alone on the same
    ``--out`` and check that it exits 0 and writes the report ``e2e``
    wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.yaml"
        cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = Path(tmp) / "o"
        argv = ["--config", str(cfg), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["e2e", *flags]
                        + (["--sweep", sweep] if sweep else []))
            if code == 0:
                report = (out / "metric_report.txt").read_bytes()
                assert main(argv + ["evaluate", *flags]) == 0, err.getvalue()
                assert (out / "metric_report.txt").read_bytes() == report
    return code, err.getvalue()


def test_every_float_field_is_fuzzed():
    assert len(FLOAT_FIELDS) == 9 + 2 + 3


@pytest.mark.parametrize("field", FLOAT_FIELDS, ids="{0[0]}.{0[1]}".format)
@settings(max_examples=12, deadline=None)
@given(value=NUMBERS)
def test_bad_float_runs_or_names_its_key(field, value):
    section, name = field
    data = dict(SCENE)
    data[section] = {name: [value] if name == "recall_grid" else value}
    code, err = run_e2e(data)
    assert code in (0, 1), (value, err)
    if code == 1:
        assert f"{section}.{name}" in err, (value, err)


@pytest.mark.parametrize("field", [f for f in FLOAT_FIELDS
                                   if f[1] != "recall_grid"],
                         ids="{0[0]}.{0[1]}".format)
@settings(max_examples=12, deadline=None)
@given(value=NUMBERS)
def test_a_sweep_value_is_the_yaml_value(field, value):
    # the value as the YAML file would hold it, e.g. .nan or 1.0e+300
    section, name = field
    text = yaml.safe_dump(value).splitlines()[0]
    code, err = run_e2e(SCENE, sweep=f"{section}.{name}={text}")
    assert code == run_e2e({**SCENE, section: {name: value}})[0], (value, err)
    if code == 1:
        assert f"{section}.{name}" in err, (value, err)


# -- whole configs --------------------------------------------------------

SECTIONS = {f.name: type(f.default_factory())
            for f in dataclasses.fields(RunConfig)
            if f.default is dataclasses.MISSING}

# a value of a type no field has, or a list of a length no field takes
WRONG = st.sampled_from(["a", True, None, [], [1.0], [1.0, 2.0, 3.0],
                         {"x": 1}, {}])
SCALAR = st.one_of(st.integers(-5, 2000), NUMBERS, st.just(1242.0),
                   st.sampled_from(["a", True, None]))
# string fields: each accepted value, and short text that may hold space
CHOICES = {"ego_motion": ["straight", "arc"], "layout": ["random", "grid"],
           "motion_model": ["mixed", "constant-velocity",
                            "constant-turn-rate-velocity"],
           "merge_tie_break": ["forward", "backward"],
           "sequence_id": ["sim", "kitti-0001"]}
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


def good_values(name, default):
    """Values of the field's own type. Ints stay small: they count frames,
    objects, seeds and misses, and the run must stay quick. Intrinsics stay
    below 2000 px so a weight map stays small."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 10)
    if isinstance(default, float):
        return NUMBERS
    if isinstance(default, str):
        return st.one_of(st.sampled_from(CHOICES[name]), TEXT)
    if isinstance(default, tuple):
        return st.lists(st.one_of(NUMBERS, st.integers(-5, 50)),
                        min_size=1 if name == "recall_grid" else 2,
                        max_size=4 if name == "recall_grid" else 2)
    assert name == "intrinsics", name
    return st.builds(lambda changes: {**DEFAULT_INTRINSICS, **changes},
                     st.dictionaries(st.sampled_from(sorted(default)), SCALAR,
                                     max_size=2))


@st.composite
def sections(draw, section, cls):
    """A mapping of a few of the section's fields, or (rarely) something
    that is no mapping, or a noise profile name."""
    whole = [WRONG]
    if section == "noise":
        whole.append(st.sampled_from(sorted(NOISE_PROFILES) + ["extreme"]))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(*whole))
    chosen = draw(st.lists(st.sampled_from(dataclasses.fields(cls)),
                           max_size=3, unique_by=lambda f: f.name))
    return {f.name: draw(st.one_of(
                good_values(f.name, f.default if f.default_factory is
                            dataclasses.MISSING else f.default_factory()),
                WRONG))
            for f in chosen}


FLAGS = {"--seed": ("sim.seed", st.integers(-3, 40)),
         "--max-per-track": ("sampling.max_per_track", st.integers(-1, 5)),
         "--window": ("sampling.window", st.integers(-2, 5)),
         "--dist-threshold": ("metrics.dist_threshold",
                              st.one_of(NUMBERS, st.integers(-2, 5)))}


@st.composite
def runs(draw):
    """(YAML data, flags, the keys an error may name)."""
    data = {"sim": {"duration": 6, "object_count": 3},
            "sampling": {"max_per_track": 1}}
    keys = set()
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)),
                                 max_size=3, unique=True)):
        value = draw(sections(section, SECTIONS[section]))
        names = {f.name for f in dataclasses.fields(SECTIONS[section])}
        keys |= ({f"{section}.{k}" if k in names else
                  f"unknown keys in {section}" for k in value}
                 if isinstance(value, dict) else {section})
        if isinstance(value, dict) and section in data:
            value = {**data[section], **value}
        data[section] = value
    if draw(st.booleans()):
        data["heatmap_stride"] = draw(st.one_of(
            st.integers(-1, 8), st.just(1000), WRONG))
        keys.add("heatmap_stride")
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=2,
                              unique=True)):
        key, values = FLAGS[flag]
        flags += [flag, str(draw(st.one_of(values, st.just("x"))))]
        keys |= {key, flag}
    # a scene that leaves the camera's view names the section
    keys |= {f"{k.partition('.')[0]}: " for k in keys if k.startswith("sim")}
    return data, flags, keys


def known(sim, flags=()):
    """A run that once exited 2, or exited 0 leaving an ``--out`` that no
    stage could read."""
    keys = {f"sim.{k}" for k in sim} | ({"sim.seed"} if flags else set())
    return example(run=({"sim": {"duration": 6, "object_count": 3, **sim}},
                        list(flags), keys))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
@known({"sequence_id": "a b"})
@known({"sequence_id": ""})
@known({"intrinsics": {**DEFAULT_INTRINSICS, "width": 1242.5}})
@known({"intrinsics": {**DEFAULT_INTRINSICS, "width": 1242.0}})
@known({"length_range": [-2, -1]})
@known({"seed": -1})
@known({}, ["--seed", "-1"])
@known({"frame_rate": 2.2250738585072014e-308})
@known({"ego_motion": "arc", "ego_arc_radius": 1e-308})
def test_whole_config_runs_or_names_a_key(run):
    data, flags, keys = run
    code, err = run_e2e(data, *flags)
    assert code in (0, 1), (data, flags, err)
    if code == 1:
        assert any(k in err for k in keys), (data, flags, err)
