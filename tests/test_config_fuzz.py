"""Any number, non-finite or out of range included, in any float field of
the ``noise``, ``metrics`` or ``pipeline`` section must either run or exit 1
naming its dotted key: never exit 2, and never an error that points
elsewhere."""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from autolabel3d.cli import main
from autolabel3d.config import MetricsConfig
from autolabel3d.pipeline import PipelineConfig
from autolabel3d.providers import NoiseConfig

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


def test_every_float_field_is_fuzzed():
    assert len(FLOAT_FIELDS) == 9 + 2 + 3


@pytest.mark.parametrize("field", FLOAT_FIELDS, ids="{0[0]}.{0[1]}".format)
@settings(max_examples=12, deadline=None)
@given(value=NUMBERS)
def test_bad_float_runs_or_names_its_key(field, value):
    section, name = field
    data = dict(SCENE)
    data[section] = {name: [value] if name == "recall_grid" else value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.yaml"
        cfg.write_text(yaml.safe_dump(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out", str(Path(tmp) / "o"),
                         "e2e"])
    assert code in (0, 1), (value, err.getvalue())
    if code == 1:
        assert f"{section}.{name}" in err.getvalue(), (value, err.getvalue())
