"""The benchmark's output checks, on the default 60-frame scene.

They must accept the program's own outputs and reject outputs with a single
count, weight cell or seed label altered.
"""

import dataclasses

import numpy as np
import pytest

import checks
import worker

worker.import_program()

from autolabel3d import cli, formats, metrics, pipeline, sampling  # noqa: E402
from autolabel3d.config import NOISE_PROFILES, RunConfig  # noqa: E402
from autolabel3d.providers import OracleProviderSet  # noqa: E402
from autolabel3d.simulator import simulate  # noqa: E402


def _e2e(out, noise):
    assert cli.main(["--out", str(out), "e2e", "--seed", "0",
                     "--noise", noise]) == 0
    read = lambda name: (out / name).read_text(encoding="utf-8")  # noqa: E731
    return dict(
        seq=formats.parse_sequence(read("sequence.txt")),
        sparse=formats.parse_sparse_labels(read("sparse_labels.txt")),
        preds=formats.parse_pseudolabels(read("pseudolabels.txt")),
        report_text=read("metric_report.txt"),
        recall=checks.read_recall_csv(read("per_recall.csv")),
        weights=checks.read_weight_maps(read("weight_maps.txt")))


@pytest.fixture(scope="module")
def medium(tmp_path_factory):
    return _e2e(tmp_path_factory.mktemp("medium"), "medium")


@pytest.fixture(scope="module")
def noiseless(tmp_path_factory):
    return _e2e(tmp_path_factory.mktemp("noiseless"), "noiseless")


def test_independent_metrics_agree_with_report(medium):
    report = formats.parse_metric_report(medium["report_text"])
    assert len({p.confidence for p in medium["preds"]}) > 20  # a real sweep
    assert checks.check_report(medium["seq"], medium["preds"], report,
                               medium["recall"]) == []


@pytest.mark.parametrize("field", [0, 1, 2, 3])
def test_report_with_one_count_altered_is_rejected(medium, field):
    lines = medium["report_text"].splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("counts "))
    tokens = lines[i].split()
    tokens[1 + field] = str(int(tokens[1 + field]) + 1)
    lines[i] = " ".join(tokens)
    report = formats.parse_metric_report("\n".join(lines) + "\n")
    assert checks.check_report(medium["seq"], medium["preds"], report,
                               medium["recall"])


def test_recall_row_with_one_value_altered_is_rejected(medium):
    report = formats.parse_metric_report(medium["report_text"])
    rows = [dict(r) for r in medium["recall"]]
    rows[3]["fp"] += 1
    assert checks.check_report(medium["seq"], medium["preds"], report, rows)


def test_weight_maps_match_recomputation(medium):
    cfg = RunConfig()
    assert checks.check_weight_maps(
        medium["seq"], medium["preds"], medium["weights"], cfg.heatmap_stride,
        cfg.pipeline.fncomp_floor) == []


def test_weight_map_with_one_cell_altered_is_rejected(medium):
    weights = dict(medium["weights"])
    fi = sorted(weights)[len(weights) // 2]
    stride, grid = weights[fi]
    grid = grid.copy()
    r, c = np.unravel_index(np.argmin(grid), grid.shape)
    grid[r, c] += 0.25 if grid[r, c] <= 0.75 else -0.25
    weights[fi] = (stride, grid)
    cfg = RunConfig()
    errors = checks.check_weight_maps(medium["seq"], medium["preds"], weights,
                                      cfg.heatmap_stride,
                                      cfg.pipeline.fncomp_floor)
    assert len(errors) == 1 and f"frame {fi}" in errors[0]


def test_sparse_labels_and_seeds_pass(medium):
    assert checks.check_sparse_labels(
        medium["seq"], medium["sparse"].selected,
        medium["sparse"].max_per_track, medium["preds"]) == []


def test_label_set_with_one_seed_dropped_is_rejected(medium):
    tid, frames = sorted(medium["sparse"].selected.items())[0]
    preds = [p for p in medium["preds"]
             if (p.track_id, p.frame_index) != (tid, frames[0])]
    errors = checks.check_sparse_labels(
        medium["seq"], medium["sparse"].selected,
        medium["sparse"].max_per_track, preds)
    assert errors == [f"seed ({tid}, {frames[0]}) missing from pseudolabels"]


def test_over_budget_or_ineligible_labels_are_rejected(medium):
    seq, sparse = medium["seq"], medium["sparse"]
    tid, frames = sorted(sparse.selected.items())[0]
    assert checks.check_sparse_labels(seq, {tid: frames}, len(frames) - 1,
                                      medium["preds"])
    ineligible = [a for f in seq.frames for a in f.annotations
                  if not checks.eligible(a)]
    assert ineligible, "the default scene has occluded annotations"
    a = ineligible[0]
    assert checks.check_sparse_labels(seq, {a.track_id: (a.frame_index,)}, 4,
                                      medium["preds"])


def test_noiseless_properties(noiseless):
    report = formats.parse_metric_report(noiseless["report_text"])
    assert checks.check_report(noiseless["seq"], noiseless["preds"], report,
                               noiseless["recall"]) == []
    assert checks.check_noiseless(noiseless["seq"], noiseless["preds"],
                                  noiseless["weights"]) == []


def test_noiseless_check_rejects_a_moved_label(noiseless):
    preds = list(noiseless["preds"])
    p = preds[5]
    moved = dataclasses.replace(p.box3d, center=(p.box3d.center[0] + 1e-3,
                                                 *p.box3d.center[1:]))
    preds[5] = dataclasses.replace(p, box3d=moved)
    assert checks.check_noiseless(noiseless["seq"], preds,
                                  noiseless["weights"])


def test_budget_rows_match_recomputation():
    cfg = RunConfig()
    seq = simulate(cfg.sim)
    noise = NOISE_PROFILES["heavy_dropout"]
    for k in (1, 4):
        sparse = sampling.sample_sparse(seq, k, 0)
        merged, _, _ = pipeline.run_pipeline(
            seq, sparse, OracleProviderSet(seq, noise), cfg.pipeline)
        rep = metrics.evaluate(seq, merged)
        row = dict(coverage=pipeline.coverage_report(seq, merged)
                   .overall_fraction, mota=rep.mota, idf1=rep.idf1)
        assert checks.check_budget_row(seq, k, sparse.selected, merged, row,
                                       2.0) == []
        assert checks.check_budget_row(seq, k, sparse.selected, merged,
                                       dict(row, idf1=row["idf1"] + 1e-6), 2.0)
