import dataclasses

import pytest

from autolabel3d.config import (NOISE_PROFILES, RunConfig, load_run_config,
                                run_config_from_dict)
from autolabel3d.core import InvalidArgument
from autolabel3d.providers import NoiseConfig
from autolabel3d.simulator import DEFAULT_INTRINSICS


class TestOverrides:
    def test_a_dotted_override_is_the_yaml_key(self):
        for key, value in (("sampling.window", 3),
                           ("sampling.max_per_track", 2),
                           ("metrics.dist_threshold", 1.5),
                           ("sim.seed", 7)):
            section, name = key.split(".")
            assert (run_config_from_dict({}, {key: value})
                    == run_config_from_dict({section: {name: value}})), key

    def test_the_profile_is_expanded_before_its_seed_is_set(self):
        def noise(data, overrides):
            return run_config_from_dict(data, overrides).noise

        medium = NOISE_PROFILES["medium"]
        assert noise({"noise": "medium"}, {"noise.seed": 5}) == \
            dataclasses.replace(medium, seed=5)
        assert noise({"noise": "light"}, {"noise": "medium",
                                          "noise.seed": 5}) == \
            dataclasses.replace(medium, seed=5)
        # no noise section: the default profile
        assert noise({}, {"noise.seed": 5}) == NoiseConfig.noiseless(seed=5)
        assert RunConfig().noise == NoiseConfig.noiseless()

    def test_a_partial_noise_section_starts_from_the_default_profile(self):
        # so a YAML key is the same run as the flag or override that sets it
        assert run_config_from_dict({"noise": {"seed": 3}}).noise == \
            NoiseConfig.noiseless(seed=3)
        assert run_config_from_dict({"noise": {"seed": 3}}) == \
            run_config_from_dict({}, {"noise.seed": 3})
        with pytest.raises(InvalidArgument, match="unknown keys in noise"):
            run_config_from_dict({"noise": {"warp": 1}})

    def test_a_bad_override_names_its_key(self):
        for overrides, named in (({"sampling.window": -1}, "sampling.window"),
                                 ({"sampling.window": "3"},
                                  "sampling.window must be an integer"),
                                 ({"noise.seed": -1}, "noise.seed"),
                                 ({"noise": "extreme"}, "unknown noise profile"),
                                 ({"sim.warp": 1}, "unknown keys in sim"),
                                 ({"window": 1}, "'window' is neither"),
                                 ({"sim.seed.x": 1}, "'sim.seed.x' is neither")):
            with pytest.raises(InvalidArgument, match=named):
                run_config_from_dict({}, overrides)

    def test_a_section_that_is_no_mapping_is_named(self):
        with pytest.raises(InvalidArgument, match="sim must be a mapping"):
            run_config_from_dict({"sim": 5}, {"sim.seed": 1})

    def test_the_callers_mapping_is_left_as_it_was(self):
        data = {"sim": {"duration": 5}, "noise": "medium"}
        run_config_from_dict(data, {"sim.seed": 3, "noise.seed": 3})
        assert data == {"sim": {"duration": 5}, "noise": "medium"}

    def test_load_without_a_file(self):
        assert load_run_config() == RunConfig()
        assert load_run_config(None, {"sim.seed": 4}).sim.seed == 4


class TestShapes:
    def test_a_pair_takes_exactly_two_numbers(self):
        for bad in ([1], [1, 2, 3], [1, "a"], [True, 2]):
            with pytest.raises(InvalidArgument,
                               match="sim.spawn_x must be a list of 2 numbers"):
                run_config_from_dict({"sim": {"spawn_x": bad}})
        assert run_config_from_dict(
            {"sim": {"spawn_x": [-1, 2.5]}}).sim.spawn_x == (-1, 2.5)

    def test_the_recall_grid_takes_any_count(self):
        cfg = run_config_from_dict({"metrics": {"recall_grid": [0.5, 1]}})
        assert cfg.metrics.recall_grid == (0.5, 1)
        with pytest.raises(InvalidArgument,
                           match="metrics.recall_grid must be a list of "
                                 "numbers"):
            run_config_from_dict({"metrics": {"recall_grid": 0.5}})

    def test_intrinsics_take_their_keys_each_of_its_type(self):
        for bad in ({"fx": 1}, {**DEFAULT_INTRINSICS, "width": 1242.0},
                    {**DEFAULT_INTRINSICS, "fx": True},
                    {**DEFAULT_INTRINSICS, "skew": 0.0}):
            with pytest.raises(InvalidArgument,
                               match="sim.intrinsics must be a mapping of cx "
                                     "to a number.* width to an integer"):
                run_config_from_dict({"sim": {"intrinsics": bad}})
        ints = {**DEFAULT_INTRINSICS, "fx": 700}
        assert run_config_from_dict(
            {"sim": {"intrinsics": ints}}).sim.intrinsics == ints
