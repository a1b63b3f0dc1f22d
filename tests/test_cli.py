import csv
import hashlib
import tracemalloc
from pathlib import Path

import pytest
import yaml

from autolabel3d import cli, formats
from autolabel3d.cli import main
from autolabel3d.providers import OracleProviderSet

DATA = Path(__file__).parent / "data"
ARTIFACTS = Path(__file__).parent.parent / "artifacts"

SMALL_CONFIG = """\
sim:
  duration: 14
  object_count: 3
  seed: 0
noise: noiseless
"""

# criterion 8's scene, whose sweeps are committed under artifacts/
SWEEP_CONFIG = """\
sim:
  duration: 60
  object_count: 6
noise: medium
"""

# the scene of tests/data/e2e_digests.txt
DIGEST_CONFIG = """\
sim:
  duration: 20
  object_count: 12
  ego_motion: arc
  ego_arc_radius: 60.0
"""

# a long scene like the benchmark's noiseless e2e one: 120 frames of weight maps
LONG_CONFIG = """\
sim:
  duration: 120
  object_count: 6
  layout: grid
noise: noiseless
"""

# as long, with a dozen objects of the random layout and the oracle's noise
LONG_NOISY_CONFIG = """\
sim:
  duration: 120
  object_count: 12
noise: medium
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    p = tmp_path / "run.yaml"
    p.write_text(text)
    return str(p)


def run(*argv):
    return main(list(argv))


class TestE2E:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "e2e") == 0
        for name in ("sequence.txt", "sparse_labels.txt", "pseudolabels.txt",
                     "pseudolabels_forward.txt", "pseudolabels_backward.txt",
                     "weight_maps.txt", "metric_report.txt", "per_recall.csv",
                     "coverage.txt"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "MOTA=1.000000" in stdout

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("--config", cfg, "--out", str(out), "e2e") == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "e2e",
                   "--sweep", "max_per_track=2,4") == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["max_per_track"] for r in rows] == ["2", "4"]
        assert all(0.0 <= float(r["coverage"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("spec", [
        "noise=noiseless,medium", "pipeline.source_update_threshold=0.5,1.0",
        "sim.seed=0,1"])
    def test_a_sweep_row_is_the_run_of_its_value(self, tmp_path, spec):
        # each row scores what e2e scores on the YAML holding that value
        key, _, values = spec.partition("=")
        section, _, name = key.partition(".")
        data = yaml.safe_load(SMALL_CONFIG.replace("noiseless", "medium"))
        out = tmp_path / "sweep"
        assert run("--config", write_config(tmp_path, yaml.safe_dump(data)),
                   "--out", str(out), "e2e", "--sweep", spec) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r[key] for r in rows] == values.split(",")
        for i, (row, v) in enumerate(zip(rows, values.split(","))):
            cell = {**data, section: {**data.get(section, {}),
                                      name: yaml.safe_load(v)} if name else v}
            one = tmp_path / f"one{i}"
            assert run("--config", write_config(tmp_path, yaml.safe_dump(cell)),
                       "--out", str(one), "e2e") == 0
            report = formats.parse_metric_report(
                (one / "metric_report.txt").read_text())
            assert (float(row["mota"]), float(row["idf1"])) == \
                (report.mota, report.idf1), v

    def test_ablation_gates_csv(self, tmp_path):
        # the discard gate swept on criterion 8's scene; the file is this
        # run's sweep.csv, so a change to it is regenerated, not edited
        out = tmp_path / "out"
        assert run("--config", write_config(tmp_path, SWEEP_CONFIG), "--out",
                   str(out), "e2e", "--sweep",
                   "pipeline.discard_threshold=0,0.25,0.5,0.75") == 0
        assert (out / "sweep.csv").read_bytes() == \
            (ARTIFACTS / "ablation_gates.csv").read_bytes()

    def test_e2e_parses_none_of_its_outputs(self, tmp_path, monkeypatch):
        calls = []
        for name in ("parse_sequence", "parse_sparse_labels",
                     "parse_pseudolabels"):
            monkeypatch.setattr(formats, name,
                                lambda text, name=name: calls.append(name))
        cfg = write_config(tmp_path)
        code = run("--config", cfg, "--out", str(tmp_path / "out"), "e2e",
                   "--sweep", "max_per_track=2,4")
        assert calls == []
        assert code == 0

    def test_matches_golden_digests(self, tmp_path):
        # an arc scene with masks and every occlusion level, under noise and
        # noiseless (where most weight-map rows are all ones); the digests
        # were taken from earlier releases of the program
        cfg = write_config(tmp_path, DIGEST_CONFIG)
        for noise, digests in (("medium", "e2e_digests.txt"),
                               ("noiseless", "e2e_digests_noiseless.txt")):
            lines = (DATA / digests).read_text().splitlines()
            want = dict(reversed(line.split()) for line in lines
                        if not line.startswith("#"))
            out = tmp_path / noise
            assert run("--config", cfg, "--out", str(out), "e2e", "--seed",
                       "3", "--noise", noise) == 0
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
            assert got == want, noise

    def test_a_failed_stage_leaves_the_earlier_artifacts(
            self, tmp_path, capsys, monkeypatch):
        # weight_maps.txt is written while its frames are made, so a failure
        # at frame 5 comes after frames 0-4 are on disk
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "e2e") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        objectness = OracleProviderSet.objectness

        def failing(self, frame_index):
            if frame_index == 5:
                raise RuntimeError("no objectness at frame 5")
            return objectness(self, frame_index)

        monkeypatch.setattr(OracleProviderSet, "objectness", failing)
        capsys.readouterr()
        assert run("--config", cfg, "--out", str(out), "e2e") == 2
        assert "no objectness at frame 5" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_fn_weights_holds_one_frame_at_a_time(self, tmp_path,
                                                  monkeypatch):
        # the stage's traced peak above its starting level, against the
        # bytes of every weight grid of the scene held at once
        peaks = []
        stage = cli.cmd_fn_weights

        def traced(*args):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                stage(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "cmd_fn_weights", traced)
        # the noiseless convoy repeats its splats and rows from frame to
        # frame; the noisy random scene's boxes change size, so nearly every
        # splat stamp and row text is new
        for config in (LONG_CONFIG, LONG_NOISY_CONFIG):
            out = tmp_path / "out"
            assert run("--config", write_config(tmp_path, config), "--out",
                       str(out), "e2e") == 0
            with open(out / "weight_maps.txt", encoding="utf-8") as fh:
                grids = [line.split()[2:4] for line in fh
                         if line.startswith("frame ")]
            assert len(grids) == 120
            grid_bytes = sum(8 * int(rows) * int(cols) for rows, cols in grids)
            assert len(peaks) == 1
            peak = peaks.pop()
            assert peak < grid_bytes / 4, (config, peak, grid_bytes)

    # (--sweep spec, the part of it the error must name)
    BAD_SWEEPS = [("window=1,2", "window=1,2"), ("max_per_track=a", "'a'"),
                  ("max_per_track=0", "'0'"), ("max_per_track=2,-1", "'-1'"),
                  ("max_per_track=", "'max_per_track='"),
                  ("sim.seed=0,-1", "sim.seed must be >= 0"),
                  ("sim.seed=[", "--sweep value '['"),
                  ("sim.seed=!!python/object/apply:os.getcwd []",
                   "--sweep value '!!python"),
                  ("pipeline.discard_threshold=0.5,.nan",
                   "pipeline.discard_threshold"),
                  ("pipeline.discard_threshold=0.9",
                   "pipeline.discard_threshold"),
                  ("sim.warp=1", "unknown keys in sim"),
                  ("noise=extreme", "unknown noise profile"),
                  ("noise.seed.x=1", "'noise.seed.x'"),
                  ("heatmap_stride=2", "'heatmap_stride'")]

    def test_bad_sweep_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for i, (spec, named) in enumerate(self.BAD_SWEEPS):
            out = tmp_path / f"o{i}"
            assert run("--config", cfg, "--out", str(out), "e2e",
                       "--sweep", spec) == 1, spec
            err = capsys.readouterr().err
            assert "error:" in err and named in err, (spec, err)
            assert not (out / "sequence.txt").exists(), spec


def repeat_first_ann(lines):
    """Repeat the first ``ann`` record; return its line and the error."""
    i = next(i for i, line in enumerate(lines) if line.startswith("ann "))
    lines.insert(i + 1, lines[i])
    return i + 2, f"frame 0 annotates track {lines[i].split()[1]} twice"


def repeat_first_frame(lines):
    """Give the second ``frame`` record the first one's index."""
    first, second = [i for i, line in enumerate(lines)
                     if line.startswith("frame ")][:2]
    lines[second] = lines[first]
    return second + 1, "frame_index must be strictly increasing"


def repeat_track_0(lines):
    """Follow the ``track 0`` record with another one."""
    i = next(i for i, line in enumerate(lines) if line.startswith("track 0 "))
    lines.insert(i + 1, "track 0 9")
    return i + 2, "repeated track 0"


def omit_track_0(lines):
    """List the selected track 0 as omitted too."""
    lines.append("omitted 0 no-eligible-frames")
    return len(lines), "repeated track 0"


def repeat_first_pl(lines):
    """Repeat the first ``pl`` record, of track 0 at frame 0, at the end."""
    assert lines[1].startswith("pl 0 0 ")
    lines.append(lines[1])
    return len(lines), "repeated prediction for track 0 at frame 0"


def set_frame_rate(rate):
    def edit(lines):
        """Give the ``sequence`` record, on line 2, another frame rate."""
        assert lines[1] == "sequence sim 10"
        lines[1] = f"sequence sim {rate}"
        return 2, f"frame_rate must be positive and finite, got {rate}"
    return edit


def append_field(tag):
    def edit(lines):
        """Append one field to the first ``tag`` record."""
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(f"{tag} "))
        lines[i] += " 0"
        return i + 1, f"too many fields in {tag!r} record"
    return edit


def set_header(tag, value, message):
    def edit(lines):
        """Give the ``tag`` header record another value."""
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(f"{tag} "))
        lines[i] = f"{tag} {value}"
        return i + 1, f"malformed {tag!r} record: {tag} must be {message}"
    return edit


def set_track_0(frames, message):
    def edit(lines):
        """Give the ``track 0`` record other frames."""
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("track 0 "))
        lines[i] = f"track 0 {frames}".rstrip()
        return i + 1, f"malformed 'track' record: track 0: {message}"
    return edit


def set_pose(value):
    def edit(lines):
        """Give frame 0's pose, on line 4, ``value`` as its first entry."""
        fields = lines[3].split()
        assert fields[:2] == ["frame", "0"]
        fields[2] = value
        lines[3] = " ".join(fields)
        return 4, ("malformed 'frame' record: ego pose must be finite, "
                   f"got {value}")
    return edit


def set_last_frame_index(lines):
    """Give the last ``frame`` record the index 2**32."""
    i = max(i for i, line in enumerate(lines) if line.startswith("frame "))
    fields = lines[i].split()
    fields[1] = "4294967296"
    lines[i] = " ".join(fields)
    return i + 1, ("malformed 'frame' record: frame_index must be < 2**32, "
                   "got 4294967296")


def edit_and_run(tmp_path, capsys, name, stage, edit,
                 before=("simulate", "sample", "pseudolabel")):
    """Write the artifacts of the ``before`` stages, ``edit`` the lines of
    ``name`` and check that ``stage`` exits 1 naming the line the edit
    returns, and writes no file."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for cmd in before:
        assert run("--config", cfg, "--out", str(out), cmd) == 0, cmd
    path = out / name
    lines = path.read_text().splitlines()
    bad_line, message = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    written = sorted(out.iterdir())
    capsys.readouterr()
    assert run("--config", cfg, "--out", str(out), stage) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: line {bad_line}: {message}" in err, err
    assert sorted(out.iterdir()) == written


class TestStepwise:
    def test_stages_compose(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        for cmd in ("simulate", "sample", "mine-pairs", "pseudolabel",
                    "fn-weights", "evaluate"):
            assert run("--config", cfg, "--out", out, cmd) == 0, cmd
        assert (tmp_path / "out" / "mining_pairs.txt").exists()

        # e2e writes the same bytes in one process as the stages in turn
        assert run("--config", cfg, "--out", str(tmp_path / "e2e"),
                   "e2e") == 0
        e2e = {p.name: p.read_bytes() for p in (tmp_path / "e2e").iterdir()}
        staged = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert set(e2e) == set(staged) - {"mining_pairs.txt"}
        for name in e2e:
            assert e2e[name] == staged[name], name

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert run("--out", str(tmp_path / "empty"), "evaluate") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sequence.txt" in err

    def test_corrupt_artifact_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for cmd in ("simulate", "sample"):
            assert run("--config", cfg, "--out", str(out), cmd) == 0, cmd
        path = out / "sparse_labels.txt"
        lines = path.read_text().splitlines()
        assert lines[5].startswith("track 0 ")
        lines[5] = "track 0 x13"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("--config", cfg, "--out", str(out), "pseudolabel") == 1
        err = capsys.readouterr().err
        assert f"error: {path}: line 6: " in err and "x13" in err, err
        assert not (out / "pseudolabels.txt").exists()

    @pytest.mark.parametrize("name, stage, edit", [
        ("sequence.txt", "sample", repeat_first_ann),
        ("sequence.txt", "sample", repeat_first_frame),
        ("sparse_labels.txt", "pseudolabel", repeat_track_0),
        ("sparse_labels.txt", "pseudolabel", omit_track_0),
        ("pseudolabels.txt", "fn-weights", repeat_first_pl),
        ("pseudolabels.txt", "evaluate", repeat_first_pl),
        ("sequence.txt", "pseudolabel", set_frame_rate("0")),
        ("sequence.txt", "pseudolabel", set_frame_rate("nan")),
        ("sequence.txt", "pseudolabel", set_frame_rate("inf")),
    ], ids=["ann-twice-in-a-frame", "frame-not-above-the-last",
            "track-twice", "track-selected-and-omitted",
            "pl-twice-fn-weights", "pl-twice-evaluate", "zero-frame-rate",
            "nan-frame-rate", "inf-frame-rate"])
    def test_repeated_record_names_file_and_line(self, tmp_path, capsys,
                                                 name, stage, edit):
        edit_and_run(tmp_path, capsys, name, stage, edit)

    @pytest.mark.parametrize("name, stage, edit", [
        ("sequence.txt", "pseudolabel", append_field("frame")),
        ("sequence.txt", "pseudolabel", append_field("sequence")),
        ("sequence.txt", "pseudolabel", append_field("ann")),
        ("sparse_labels.txt", "pseudolabel", append_field("seed")),
        ("pseudolabels.txt", "evaluate", append_field("pl")),
        ("sparse_labels.txt", "pseudolabel",
         set_track_0("13 5", "frames not increasing")),
        ("sparse_labels.txt", "pseudolabel",
         set_track_0("1 2 3 4 5 6", "over budget")),
        ("sparse_labels.txt", "pseudolabel", set_track_0("", "no frames")),
        ("sparse_labels.txt", "pseudolabel",
         set_header("reduction_ratio", "nan", "in [0.0, 1.0], got nan")),
        ("sparse_labels.txt", "pseudolabel",
         set_header("seed", "-4", ">= 0, got -4")),
        ("sparse_labels.txt", "pseudolabel",
         set_header("max_per_track", "0", ">= 1, got 0")),
    ], ids=["frame-extra-field", "sequence-extra-field", "ann-extra-field",
            "seed-extra-field", "pl-extra-field", "track-not-increasing",
            "track-over-budget", "bare-track", "nan-reduction-ratio",
            "negative-seed", "zero-max-per-track"])
    def test_refused_record_names_file_and_line(self, tmp_path, capsys,
                                                name, stage, edit):
        edit_and_run(tmp_path, capsys, name, stage, edit)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("stage, before", [
        ("pseudolabel", ("simulate", "sample")),
        ("evaluate", ("simulate", "sample", "pseudolabel")),
    ], ids=["pseudolabel", "evaluate"])
    def test_non_finite_pose_names_file_and_line(self, tmp_path, capsys,
                                                 stage, before, value):
        edit_and_run(tmp_path, capsys, "sequence.txt", stage, set_pose(value),
                     before)

    def test_frame_index_past_32_bits_names_file_and_line(self, tmp_path,
                                                          capsys):
        edit_and_run(tmp_path, capsys, "sequence.txt", "pseudolabel",
                     set_last_frame_index, ("simulate", "sample"))

    @pytest.mark.parametrize("label", ["track 9 3", "track 0 99"],
                             ids=["unknown-track", "unannotated-frame"])
    def test_mine_pairs_rejects_a_label_the_sequence_lacks(
            self, tmp_path, capsys, label):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for cmd in ("simulate", "sample"):
            assert run("--config", cfg, "--out", str(out), cmd) == 0, cmd
        path = out / "sparse_labels.txt"
        track, frame = label.split()[1:]
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith(f"track {track} ")]
        path.write_text("\n".join(lines + [label]) + "\n")
        capsys.readouterr()
        assert run("--config", cfg, "--out", str(out), "mine-pairs") == 1
        err = capsys.readouterr().err
        assert (f"error: sparse label of track {track} at frame {frame}: "
                "sequence 'sim' has no such annotation") in err, err
        assert not (out / "mining_pairs.txt").exists()

    def test_off_sequence_prediction_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for cmd in ("simulate", "sample", "pseudolabel"):
            assert run("--config", cfg, "--out", str(out), cmd) == 0, cmd
        path = out / "pseudolabels.txt"
        lines = path.read_text().splitlines()
        assert lines[1].startswith("pl 0 0 ")
        lines[1] = "pl 99 0 " + lines[1][len("pl 0 0 "):]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("--config", cfg, "--out", str(out), "evaluate") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "track 0 at frame 99" in err, err
        assert not (out / "metric_report.txt").exists()
        assert not (out / "per_recall.csv").exists()

    def test_fn_weights_refuses_pseudolabels_of_missing_frames(
            self, tmp_path, capsys):
        # pseudolabels of a 20-frame sequence over one simulated again with
        # 10 frames: fn-weights fails as evaluate does, before writing
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_CONFIG.replace("14", "20"))
        for cmd in ("simulate", "sample", "pseudolabel", "fn-weights"):
            assert run("--config", cfg, "--out", str(out), cmd) == 0, cmd
        before = (out / "weight_maps.txt").read_bytes()
        cfg = write_config(tmp_path, SMALL_CONFIG.replace("14", "10"))
        assert run("--config", cfg, "--out", str(out), "simulate") == 0
        errs = []
        for cmd in ("fn-weights", "evaluate"):
            capsys.readouterr()
            assert run("--config", cfg, "--out", str(out), cmd) == 1, cmd
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "at frame 10: sequence 'sim' has no such frame" in errs[0]
        assert (out / "weight_maps.txt").read_bytes() == before

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        texts = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run("--config", cfg, "--out", str(out), "simulate",
                       "--seed", str(seed)) == 0
            texts.append((out / "sequence.txt").read_text())
        assert texts[0] != texts[1]

    def test_unknown_noise_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("--config", cfg, "--out", str(tmp_path / "o"),
                   "simulate", "--noise", "extreme") == 1
        assert "unknown noise profile" in capsys.readouterr().err

    # (config text, a phrase the error must contain)
    BAD_CONFIGS = [("sim:\n  warp_drive: 9\n", "unknown keys"),
                   ("heatmap_stride: 0\n", "heatmap_stride"),
                   ("heatmap_stride: a\n", "heatmap_stride"),
                   ("heatmap_stride: 2.5\n", "heatmap_stride"),
                   ("heatmap_stride: true\n", "heatmap_stride"),
                   ("metrics:\n  recall_grid: []\n", "recall_grid"),
                   ("metrics:\n  recall_grid: 0.5\n", "metrics.recall_grid"),
                   ("metrics:\n  recall_grid: [a]\n", "metrics.recall_grid"),
                   ("sampling:\n  max_per_track: 2.5\n",
                    "sampling.max_per_track"),
                   ("sim:\n  object_count: 2.5\n", "sim.object_count"),
                   ("sim:\n  duration: a\n", "sim.duration"),
                   ("noise:\n  center_px_sigma: a\n", "noise.center_px_sigma"),
                   ("pipeline:\n  fncomp_floor: a\n", "pipeline.fncomp_floor"),
                   ("metrics:\n  dist_threshold: a\n", "metrics.dist_threshold"),
                   ("sim: 5\n", "sim must be a mapping"),
                   ("sim:\n  with_masks: 3\n", "sim.with_masks"),
                   ("pipeline:\n  max_consecutive_misses: true\n",
                    "pipeline.max_consecutive_misses"),
                   ("sampling:\n  seed: 1.5\n", "sampling.seed"),
                   ("sim:\n  spawn_x: [1]\n", "sim.spawn_x"),
                   ("sim:\n  spawn_x: [1, 2, 3]\n", "sim.spawn_x"),
                   ("sim:\n  turn_rate: [0.1]\n", "sim.turn_rate"),
                   ("sim:\n  intrinsics: {fx: 1}\n", "sim.intrinsics"),
                   ("sim:\n  intrinsics: {fx: 1, fy: 1, cx: 5, cy: 5, "
                    "width: 10, height: a}\n", "sim.intrinsics"),
                   ("sim:\n  intrinsics: {fx: 0, fy: 1, cx: 5, cy: 5, "
                    "width: 10, height: 10}\n", "sim.intrinsics: focal"),
                   ("sim:\n  frame_rate: 0\n", "sim.frame_rate"),
                   ("sim:\n  object_count: 0\n", "sim.object_count"),
                   ("sim:\n  object_count: -3\n", "sim.object_count"),
                   ("sim:\n  ego_motion: arc\n  ego_arc_radius: 0\n",
                    "sim.ego_arc_radius"),
                   ("noise:\n  confidence_d0: 0\n", "noise.confidence_d0"),
                   ("sim:\n  spawn_x: [.nan, 1.0]\n", "sim.spawn_x"),
                   ("sim:\n  spawn_z: [8.0, .inf]\n", "sim.spawn_z"),
                   ("sim:\n  ego_speed: .nan\n", "sim.ego_speed"),
                   ("sim:\n  camera_height: .inf\n", "sim.camera_height"),
                   ("sim:\n  frame_rate: .inf\n", "sim.frame_rate"),
                   ("pipeline:\n  fncomp_floor: 5\n", "pipeline.fncomp_floor"),
                   ("pipeline:\n  fncomp_floor: -3\n",
                    "pipeline.fncomp_floor"),
                   ("sim:\n  camera_height: -100\n", "sim: "),
                   ("sim:\n  spawn_z: [-50, -40]\n  layout: grid\n", "sim: "),
                   ("noise:\n  confidence_c0: .nan\n", "noise.confidence_c0"),
                   ("noise:\n  confidence_c0: 1.5\n", "noise.confidence_c0"),
                   ("noise:\n  confidence_k_occ: -5\n",
                    "noise.confidence_k_occ"),
                   ("noise:\n  center_px_sigma: .nan\n",
                    "noise.center_px_sigma"),
                   ("noise:\n  depth_rel_sigma: .inf\n",
                    "noise.depth_rel_sigma"),
                   ("noise:\n  dropout_occlusion_gain: -1\n",
                    "noise.dropout_occlusion_gain"),
                   ("metrics:\n  dist_threshold: .nan\n",
                    "metrics.dist_threshold"),
                   ("metrics:\n  dist_threshold: .inf\n",
                    "metrics.dist_threshold"),
                   ("metrics:\n  recall_grid: [0.5, 2]\n",
                    "metrics.recall_grid"),
                   ("pipeline:\n  discard_threshold: .nan\n",
                    "pipeline.discard_threshold"),
                   ("pipeline:\n  source_update_threshold: 2\n",
                    "pipeline.source_update_threshold"),
                   ("pipeline:\n  discard_threshold: 0.9\n"
                    "  source_update_threshold: 0.8\n",
                    "pipeline.discard_threshold"),
                   ("pipeline:\n  max_consecutive_misses: 0\n",
                    "pipeline.max_consecutive_misses"),
                   ("pipeline:\n  merge_tie_break: sideways\n",
                    "pipeline.merge_tie_break"),
                   ("sim:\n  seed: -1\n", "sim.seed"),
                   ("noise:\n  seed: -2\n  match_dropout_base: 0.1\n",
                    "noise.seed"),
                   ("noise: medium\nsampling:\n  seed: -1\n",
                    "sampling.seed"),
                   ("sim:\n  sequence_id: a b\n", "sim.sequence_id"),
                   ("sim:\n  sequence_id: ''\n", "sim.sequence_id"),
                   ("sim:\n  intrinsics: {fx: 721.54, fy: 721.54, cx: 609.56, "
                    "cy: 172.85, width: 1242.5, height: 375}\n",
                    "sim.intrinsics"),
                   ("sim:\n  intrinsics: {fx: 721.54, fy: 721.54, cx: 609.56, "
                    "cy: 172.85, width: 1242.0, height: 375}\n",
                    "sim.intrinsics"),
                   ("sim:\n  length_range: [-2, -1]\n", "sim.length_range"),
                   ("sim:\n  width_range: [0, 0]\n", "sim.width_range"),
                   ("sim:\n  layout: hex\n", "sim.layout"),
                   ("sim: [\n", "run.yaml"),
                   ("sim: !!python/object/apply:os.getcwd []\n", "run.yaml")]

    def test_bad_config_file(self, tmp_path, capsys):
        for i, (text, named) in enumerate(self.BAD_CONFIGS):
            cfg = write_config(tmp_path, text)
            out = tmp_path / f"o{i}"
            assert run("--config", cfg, "--out", str(out), "e2e") == 1, text
            assert named in capsys.readouterr().err, text
            assert not out.exists(), text

    @pytest.mark.parametrize("name", ["run.yaml", "labels.txt",
                                      "sequence.txt"])
    def test_a_byte_not_utf8_names_its_file(self, tmp_path, capsys, name):
        cfg, out = write_config(tmp_path), tmp_path / "out"
        labels = tmp_path / "labels.txt"
        labels.write_text(TestParseKitti.GOOD_ROW + "\n")
        assert run("--config", cfg, "--out", str(out), "simulate") == 0
        path = out / name if name == "sequence.txt" else tmp_path / name
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        command = {"run.yaml": ["e2e"], "sequence.txt": ["sample"],
                   "labels.txt": ["parse-kitti", "--labels", str(labels)]}
        capsys.readouterr()
        assert run("--config", cfg, "--out", str(out), *command[name]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: 'utf-8' codec can't decode" in err, err
        assert [p.name for p in out.iterdir()] == ["sequence.txt"]


class TestFlags:
    """A flag acts as the YAML key its ``dest`` names."""

    # (flags, the key the error must name)
    BAD_FLAGS = [(("--window", "-1"), "sampling.window"),
                 (("--max-per-track", "0"), "sampling.max_per_track"),
                 (("--dist-threshold", "nan"), "metrics.dist_threshold"),
                 (("--seed", "-1"), "sim.seed")]

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for i, (flags, named) in enumerate(self.BAD_FLAGS):
            out = tmp_path / f"o{i}"
            assert run("--config", cfg, "--out", str(out), "e2e",
                       *flags) == 1, flags
            assert named in capsys.readouterr().err, flags
            assert not out.exists(), flags
        assert run("--out", str(tmp_path / "l"), "losses-check",
                   "--seed", "-1") == 1
        assert "sim.seed" in capsys.readouterr().err

    USAGE_ERRORS = [("e2e", "--seed", "abc"), ("e2e", "--dist-threshold", "x"),
                    ("e2e", "--unknown"), ("frobnicate",), ()]

    def test_usage_error_exits_1(self, tmp_path, capsys):
        for argv in self.USAGE_ERRORS:
            out = tmp_path / "o"
            assert run("--out", str(out), *argv) == 1, argv
            err = capsys.readouterr().err
            assert "usage:" in err and "error:" in err, (argv, err)
            assert not out.exists(), argv
        assert run("--help") == 0
        assert "usage:" in capsys.readouterr().out

    def test_noise_flag_replaces_the_yaml_section(self, tmp_path):
        # the section is replaced before it is checked, as `noise: noiseless`
        # in the YAML would replace it
        bad = write_config(tmp_path, SMALL_CONFIG.replace(
            "noise: noiseless\n", "noise:\n  confidence_c0: 7\n"))
        assert run("--config", bad, "--out", str(tmp_path / "a"), "e2e",
                   "--noise", "noiseless") == 0
        assert run("--config", write_config(tmp_path), "--out",
                   str(tmp_path / "b"), "e2e") == 0
        for name in ("sequence.txt", "metric_report.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

class TestParseKitti:
    def test_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "parse-kitti",
                   "--labels", str(DATA / "kitti_labels.txt"),
                   "--calib", str(DATA / "kitti_calib.txt")) == 0
        got = (out / "sequence.txt").read_bytes()
        want = (DATA / "kitti_golden_sequence.txt").read_bytes()
        assert got == want
        stdout = capsys.readouterr().out
        assert "parsed 5 annotations" in stdout
        assert "1 DontCare" in stdout

    def test_missing_labels_file(self, tmp_path):
        assert run("--out", str(tmp_path), "parse-kitti",
                   "--labels", str(tmp_path / "nope.txt")) == 1

    GOOD_ROW = "0 0 Car 0 0 -1.57 100 120 200 180 1.5 1.7 4.2 2.0 1.6 15.0 -1.6"

    # (field of a kept row made bad, its value, what the error must say)
    @pytest.mark.parametrize("field, value, named", [
        pytest.param(1, "-1", "track_id must be >= 0, got -1",
                     id="negative-track-id"),
        pytest.param(0, "-1", "frame must be >= 0, got -1",
                     id="negative-frame"),
        pytest.param(1, "4294967296", "track_id must be < 2**32, got "
                     "4294967296", id="track-id-2**32"),
        pytest.param(0, "4294967296", "frame_index must be < 2**32, got "
                     "4294967296", id="frame-2**32"),
        pytest.param(8, "100", "box2d sides must be positive",
                     id="right-at-left"),
        pytest.param(4, "4", "occlusion_level must be in {0,1,2,3}, got 4",
                     id="occluded-4"),
        pytest.param(4, "-1", "occlusion_level must be in {0,1,2,3}, got -1",
                     id="occluded-minus-1"),
        pytest.param(4, "inf", "invalid value 'inf' for field 'occluded'",
                     id="occluded-inf"),
        pytest.param(16, "", "expected 17 or 18 tokens", id="short-row"),
        pytest.param(4, "2.9", "invalid value '2.9' for field 'occluded'",
                     id="occluded-2.9"),
        pytest.param(6, "nan", "box2d must be finite, got nan",
                     id="bbox-nan"),
        pytest.param(9, "inf", "box2d must be finite, got inf",
                     id="bbox-inf"),
        pytest.param(12, "-4.2", "dims must be positive", id="negative-dim"),
        pytest.param(10, "0", "dims must be positive", id="zero-dim"),
        pytest.param(15, "nan", "box3d.center must be finite, got nan",
                     id="location-nan"),
        pytest.param(0, "0", "duplicate (frame, track_id) (0, 0)",
                     id="duplicate"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, field,
                                         value, named):
        row = self.GOOD_ROW.split()
        row[0] = "1"
        row[field] = value
        labels = tmp_path / "labels.txt"
        labels.write_text(f"{self.GOOD_ROW}\n\n{' '.join(row)}\n")
        assert run("--out", str(tmp_path / "out"), "parse-kitti",
                   "--labels", str(labels)) == 1
        err = capsys.readouterr().err
        assert f"error: {labels}: line 3: " in err and named in err, err
        assert not (tmp_path / "out").exists()

    # (line 3 of the labels, what the error must say besides the line)
    @pytest.mark.parametrize("row, named", [
        pytest.param(GOOD_ROW.replace(" Car ", " Pedestrian ")
                     .replace(" 200 ", " 100 "), "", id="pedestrian-degenerate"),
        pytest.param("-1 -1 DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 "
                     "-1000 -10", "frame must be >= 0, got -1",
                     id="dontcare-negative-frame"),
        pytest.param(GOOD_ROW.replace("0 0 Car", "1 0 Car") + " high",
                     "invalid value 'high' for field 'score'",
                     id="non-numeric-score"),
    ])
    def test_any_row_is_checked(self, tmp_path, capsys, row, named):
        labels = tmp_path / "labels.txt"
        labels.write_text(f"{self.GOOD_ROW}\n\n{row}\n")
        assert run("--out", str(tmp_path / "out"), "parse-kitti",
                   "--labels", str(labels)) == 1
        err = capsys.readouterr().err
        assert f"error: {labels}: line 3: {named}" in err, err
        assert not (tmp_path / "out").exists()


    # (P2 field made bad, its value, what the error must say)
    @pytest.mark.parametrize("field, value, named", [
        pytest.param(0, "0", "focal lengths must be positive", id="fx-0"),
        pytest.param(5, "nan", "intrinsics must be finite, got nan",
                     id="fy-nan"),
        pytest.param(2, "5000", "principal point must lie inside the image",
                     id="cx-5000"),
        pytest.param(11, "", "P2 line must carry 12 values, got 11",
                     id="short"),
        pytest.param(6, "x", "could not convert string to float: 'x'",
                     id="non-numeric"),
    ])
    def test_bad_calib_names_file_and_line(self, tmp_path, capsys, field,
                                           value, named):
        lines = (DATA / "kitti_calib.txt").read_text().splitlines()
        p2 = next(i for i, l in enumerate(lines) if l.startswith("P2:"))
        values = lines[p2].split()[1:]
        values[field] = value
        lines[p2] = " ".join(["P2:"] + values)
        calib = tmp_path / "calib.txt"
        calib.write_text("\n".join(lines) + "\n")
        assert run("--out", str(tmp_path / "out"), "parse-kitti",
                   "--labels", str(DATA / "kitti_labels.txt"),
                   "--calib", str(calib)) == 1
        err = capsys.readouterr().err
        assert f"error: {calib}: line {p2 + 1}: {named}" in err, err
        assert not (tmp_path / "out").exists()


class TestLossesCheck:
    def test_passes(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "losses-check") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("pass") >= 5
