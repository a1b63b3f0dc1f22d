import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from autolabel3d import formats
from autolabel3d.core import (Annotation, Box2D, Box3D, CameraIntrinsics,
                              Frame, Mask2D, Provenance,
                              Pseudolabel, Sequence)
from autolabel3d.formats import (ParseError, SchemaVersionError, parse_kitti,
                                 parse_kitti_calib)

LABEL_LINE = "0 2 Car 0 0 -1.57 100 120 200 180 1.5 1.7 4.2 2.0 1.6 15.0 -1.6"
CALIB = ("P0: 700 0 620 0 0 700 187 0 0 0 1 0\n"
         "P2: 700 0 620 0 0 700 187 0 0 0 1 0\n")
K = parse_kitti_calib(CALIB).intrinsics


class TestKittiLabels:
    def test_single_line(self):
        seq, _ = parse_kitti(LABEL_LINE, K)
        assert (seq.id, seq.frame_rate, seq.intrinsics) == ("kitti", 10.0, K)
        [frame] = seq.frames
        [ann] = frame.annotations
        assert frame.frame_index == 0 and ann.frame_index == 0
        assert ann.track_id == 2 and ann.occlusion_level == 0
        assert ann.box3d.center[2] == 15.0

    def test_empty_file(self):
        for text in ("", "\n\n"):
            seq, stats = parse_kitti(text, K)
            assert seq.frames == ()
            assert (stats.kept, stats.dropped_dontcare,
                    stats.dropped_category) == (0, 0, 0)

    def test_wrong_token_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_kitti(" ".join(LABEL_LINE.split()[:16]), K)

    def test_non_numeric_token_names_field(self):
        bad = LABEL_LINE.replace("15.0", "abc")
        with pytest.raises(ParseError, match="loc_z"):
            parse_kitti(bad, K)
        with pytest.raises(ParseError, match="'score'"):
            parse_kitti(LABEL_LINE + " high", K)

    def test_every_named_frame_is_a_frame(self):
        # a frame whose rows are all dropped stays, empty; an index no row
        # names is not filled in, however large the last one is
        dontcare = ("{} -1 DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 "
                    "-1000 -10")
        walker = LABEL_LINE.replace("0 2 Car", "2 7 Pedestrian")
        text = "\n".join([LABEL_LINE, walker, dontcare.format(5),
                          dontcare.format(2 ** 32 - 1)])
        seq, stats = parse_kitti(text, K)
        assert [(f.frame_index, len(f.annotations)) for f in seq.frames] \
            == [(0, 1), (2, 0), (5, 0), (2 ** 32 - 1, 0)]
        assert (stats.kept, stats.dropped_dontcare,
                stats.dropped_category) == (1, 2, 1)

    def test_18_token_score(self):
        seq, _ = parse_kitti(LABEL_LINE + " 0.9", K)
        assert seq.frames[0].annotations == parse_kitti(
            LABEL_LINE, K)[0].frames[0].annotations


class TestKittiCalib:
    def test_basic_extraction(self):
        res = parse_kitti_calib(CALIB)
        K = res.intrinsics
        assert (K.fx, K.fy, K.cx, K.cy) == (700, 700, 620, 187)
        assert (K.width, K.height) == (1242, 375)
        assert not res.translation_ignored

    def test_translation_flagged(self):
        text = CALIB.replace("P2: 700 0 620 0", "P2: 700 0 620 44.8")
        res = parse_kitti_calib(text)
        assert res.intrinsics.fx == 700
        assert res.translation_ignored

    def test_missing_p2(self):
        with pytest.raises(ParseError, match="P2"):
            parse_kitti_calib("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")

    def test_repeated_p2_names_its_line(self):
        with pytest.raises(ParseError, match="^line 3: repeated P2 line$"):
            parse_kitti_calib(CALIB + CALIB.splitlines()[1])


class TestKittiConversion:
    def test_bbox_center_conversion(self):
        seq, _ = parse_kitti(LABEL_LINE, K)
        ann = seq.frames[0].annotations[0]
        assert (ann.box2d.cx, ann.box2d.cy) == (150, 150)
        assert (ann.box2d.w, ann.box2d.h) == (100, 60)

    def test_bottom_center_to_geometric_center(self):
        seq, _ = parse_kitti(LABEL_LINE, K)
        ann = seq.frames[0].annotations[0]
        assert ann.box3d.center == pytest.approx((2.0, 0.85, 15.0))
        assert ann.box3d.dims == pytest.approx((4.2, 1.7, 1.5))

    def test_dontcare_dropped_and_counted(self):
        text = LABEL_LINE + "\n1 -1 DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10"
        seq, stats = parse_kitti(text, K)
        assert stats.dropped_dontcare == 1
        assert stats.kept == 1
        assert stats.kept + stats.dropped_dontcare + stats.dropped_category == 2

    def test_non_vehicle_dropped(self):
        text = LABEL_LINE.replace(" Car ", " Pedestrian ")
        _, stats = parse_kitti(text, K)
        assert stats.dropped_category == 1 and stats.kept == 0

    def test_duplicate_rejected(self):
        text = LABEL_LINE + "\n" + LABEL_LINE
        with pytest.raises(ParseError, match="line 2: duplicate"):
            parse_kitti(text, K)


def make_sequence(seed=0, n_frames=4, n_tracks=3, with_masks=True):
    rng = np.random.default_rng(seed)
    K = CameraIntrinsics(fx=700.0, fy=690.0, cx=620.0, cy=187.0,
                         width=1242, height=375)
    frames = []
    for fi in range(n_frames):
        anns = []
        for tid in range(n_tracks):
            if rng.random() < 0.2:
                continue
            mask = None
            if with_masks and rng.random() < 0.5:
                mask = Mask2D.from_bitmap((int(rng.integers(0, 50)),
                                           int(rng.integers(0, 50))),
                                          rng.random((5, 7)) < 0.5)
            anns.append(Annotation(
                frame_index=fi, track_id=tid,
                box2d=Box2D(*rng.uniform(10, 300, 2), *rng.uniform(5, 60, 2)),
                box3d=Box3D(center=tuple(rng.uniform([-10, -2, 3], [10, 2, 60])),
                            dims=tuple(rng.uniform([3, 1.5, 1.3], [6, 2, 2])),
                            yaw=float(rng.uniform(-math.pi, math.pi)),
                            direction="towards" if rng.random() < 0.5 else "away"),
                occlusion_level=int(rng.integers(0, 4)),
                visibility=(int(rng.integers(1, 5))
                            if rng.random() < 0.5 else None),
                mask=mask))
        frames.append(Frame(frame_index=fi,
                            ego_pose=rng.normal(size=(3, 4)),
                            annotations=tuple(anns)))
    return Sequence(id=f"fixture{seed}", intrinsics=K, frames=tuple(frames),
                    frame_rate=10.0)


class TestSequenceRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip_identity(self, seed):
        seq = make_sequence(seed)
        text = formats.serialize_sequence(seq)
        assert formats.parse_sequence(text) == seq
        # second generation is byte-identical
        assert formats.serialize_sequence(formats.parse_sequence(text)) == text

    def test_version_mismatch(self):
        seq = make_sequence(1)
        text = formats.serialize_sequence(seq).replace("v1", "v9", 1)
        with pytest.raises(SchemaVersionError, match="v1"):
            formats.parse_sequence(text)

    def test_wrong_kind(self):
        text = formats.serialize_sequence(make_sequence(1))
        with pytest.raises(ParseError, match="kind"):
            formats.parse_pseudolabels(text)


def make_pseudolabels(seed=0, n=10):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        mask = None
        if rng.random() < 0.3:
            mask = Mask2D.from_bitmap((1, 2), rng.random((3, 4)) < 0.5)
        out.append(Pseudolabel(
            frame_index=i, track_id=int(rng.integers(0, 5)),
            box2d=Box2D(*rng.uniform(10, 300, 2), *rng.uniform(5, 60, 2)),
            box3d=Box3D(center=tuple(rng.uniform([-10, -2, 3], [10, 2, 60])),
                        dims=(4.0, 1.8, 1.5),
                        yaw=float(rng.uniform(-3, 3)),
                        direction="towards"),
            confidence=float(rng.uniform(0, 1)),
            provenance=Provenance(
                direction="forward" if rng.random() < 0.5 else "backward",
                source_frame_index=int(rng.integers(0, 10))),
            mask=mask))
    return out


class TestOtherDocuments:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_pseudolabels_roundtrip(self, seed):
        labels = make_pseudolabels(seed)
        text = formats.serialize_pseudolabels(labels)
        assert formats.parse_pseudolabels(text) == labels

    def test_sparse_labels_roundtrip(self):
        from autolabel3d.sampling import sample_sparse
        seq = make_sequence(3)
        sparse = sample_sparse(seq, 2, seed=5)
        text = formats.serialize_sparse_labels(sparse)
        assert formats.parse_sparse_labels(text) == sparse

    def test_mining_pairs_roundtrip(self):
        from autolabel3d.sampling import mine_pairs, sample_sparse
        seq = make_sequence(4, n_frames=8)
        sparse = sample_sparse(seq, 3)
        pairs = mine_pairs(seq, sparse, window=4)
        text = formats.serialize_mining_pairs(pairs)
        assert formats.parse_mining_pairs(text) == pairs

    def test_weight_maps_roundtrip(self):
        from autolabel3d.core import Heatmap
        rng = np.random.default_rng(8)
        maps = {i: Heatmap(values=rng.random((6, 9)), stride=4)
                for i in range(3)}
        text = formats.serialize_weight_maps(maps)
        assert formats.parse_weight_maps(text) == maps

    @pytest.mark.parametrize("body, bad_line", [
        (["frame 0 2 3 4", "0.5 0.5 0.5", "0.5 0.5"], 4),
        (["frame 0 2 3 4", "0.5 0.5 0.5 0.5", "0.5 0.5 0.5"], 3),
        (["frame 0 2 3 4", "0.5 0.5 0.5"], 4),
        (["frame 0 2 3 4", "0.5 0.5 0.5", "0.5 x 0.5"], 4),
        (["frame 0 2 3", "0.5 0.5 0.5", "0.5 0.5 0.5"], 2),
        (["frame 0 -1 3 4"], 2),
        (["frame 0 1000000000 1000000000 4", "0.5"], 3),
        (["frame 0 1 1 4", "0.5", "frame 0 1 1 4", "0.25"], 4),
        (["frame -3 1 1 4", "0.5"], 2),
        (["frame 0 1 1 4", "0.5", "frame 1 2 2 4", "0.5 0.5", "0.5 nan"], 4),
        (["frame 0 1 2 4", "0.5 1.5"], 2),
        (["frame 0 1 1 0", "0.5"], 2),
    ], ids=["too-few-values", "too-many-values", "missing-row",
            "non-float-token", "short-frame-record", "negative-size",
            "size-beyond-the-text", "repeated-frame", "negative-frame",
            "nan-weight", "weight-above-one", "zero-stride"])
    def test_weight_maps_parse_error_names_the_line(self, body, bad_line):
        text = "\n".join(["# autolabel3d weightmaps v1"] + body) + "\n"
        with pytest.raises(ParseError, match=rf"^line {bad_line}: "):
            formats.parse_weight_maps(text)

    SEQ = ["# autolabel3d sequence v1", "sequence sim 10",
           "intrinsics 700 700 620 187 1242 375"]
    FRAME = "frame 0 1 0 0 0 0 1 0 0 0 0 1 0"
    ANN = "ann 0 100 100 40 30 1 1.5 20 4 1.8 1.5 0.5 towards 0 -"
    SPARSE = ["# autolabel3d sparselabels v1", "sequence sim",
              "max_per_track 4", "seed 0", "reduction_ratio 0.5"]
    PL = "pl 0 0 100 100 40 30 1 1.5 20 4 1.8 1.5 0.5 towards 0.9 forward 0"
    PLMASK = "plmask 0 1 2 3 4 5 2 5"

    def test_record_fixtures_parse(self):
        seq = formats.parse_sequence("\n".join(self.SEQ + [self.FRAME, self.ANN]))
        assert seq.frames[0].annotations[0].track_id == 0
        assert formats.parse_sparse_labels(
            "\n".join(self.SPARSE + ["track 0 13 21"])).selected == {0: (13, 21)}
        labels = formats.parse_pseudolabels(
            "\n".join(["# autolabel3d pseudolabels v1", self.PL, self.PLMASK]))
        assert labels[0].mask.bitmap.sum() == 2

    @pytest.mark.parametrize("parse, lines, bad_line", [
        ("sequence", SEQ[:1] + ["sequence sim"], 2),
        ("sequence", SEQ + [FRAME, "ann 0 100 100 40"], 5),
        ("sequence", SEQ + [ANN, FRAME], 4),
        ("sparse_labels", SPARSE + ["track 0 x13"], 6),
        ("sparse_labels", SPARSE[:3] + ["seed", "reduction_ratio 0.5"], 4),
        ("sparse_labels", SPARSE + ["", "tracks 0 13"], 7),
        ("mining_pairs", ["# autolabel3d miningpairs v1", "pair 0 adjacent 1 2"],
         2),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 x487 2 3 4 12"], 3),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 1 2 3 4 5 2"], 3),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 1 2 3 4 5 0 2 5"], 3),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 1 2 3 4 0 0 12"], 3),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 1 2 3 4 14 -2"], 3),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL,
                          "plmask 0 1 2 3 4 5 2 6"], 3),
        ("sequence", SEQ + [FRAME, ANN, "mask 0 1 2 3 4 2 0 3 7"], 6),
        ("sequence", SEQ + [FRAME, ANN, "mask 0 1 2 3 4"], 6),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PLMASK, PL], 2),
        ("metric_report", ["# autolabel3d metricreport v1", "mota x"], 2),
        ("sequence", SEQ + [FRAME, ANN.replace("ann 0", "ann -3")], 5),
        ("sequence", SEQ + [FRAME.replace("frame 0", "frame -1")], 4),
        ("sequence", SEQ + [FRAME, ANN, ANN], 6),
        ("sequence", SEQ + [FRAME.replace("frame 0", "frame 5"), FRAME], 5),
        ("sequence", SEQ + [FRAME, FRAME], 5),
        ("sequence", SEQ + [SEQ[1]], 4),
        ("sequence", SEQ + [FRAME, SEQ[2]], 5),
        ("sparse_labels", SPARSE + ["track 0 1 5", "track 0 9"], 7),
        ("sparse_labels", SPARSE + ["seed 1"], 6),
        ("metric_report", ["# autolabel3d metricreport v1", "mota 1",
                           "mota 0.5"], 3),
        ("sequence", [SEQ[0], "sequence sim 0", SEQ[2]], 2),
        ("sequence", [SEQ[0], "sequence sim nan", SEQ[2]], 2),
        ("sequence", [SEQ[0], "sequence sim inf", SEQ[2]], 2),
        ("sparse_labels", SPARSE + ["track 0 13", "omitted 0 no-eligible"], 7),
        ("sparse_labels", SPARSE + ["omitted 0 no-eligible", "track 0 13"], 7),
        ("sparse_labels", SPARSE + ["omitted 0 no-eligible",
                                    "omitted 0 no-eligible"], 7),
        ("pseudolabels", ["# autolabel3d pseudolabels v1", PL, PLMASK, PL],
         4),
        ("sequence", [SEQ[0], "sequence sim 10 0", SEQ[2]], 2),
        ("sequence", SEQ[:2] + [SEQ[2] + " 0"], 3),
        ("sequence", SEQ + [FRAME + " 0"], 4),
        ("sparse_labels", SPARSE + ["omitted 0 no-eligible x"], 6),
        ("metric_report", ["# autolabel3d metricreport v1",
                           "recall 0.1 0 - 0 0 0 0 1 0"], 2),
        ("sparse_labels", SPARSE + ["track 0 13 5"], 6),
        ("sparse_labels", SPARSE + ["track 0 1 2 3 4 5"], 6),
        ("sparse_labels", SPARSE + ["track 0"], 6),
        ("sparse_labels", SPARSE[:2] + ["track 0 13"] + SPARSE[2:], 3),
        ("sparse_labels", SPARSE[:4] + ["reduction_ratio nan"], 5),
        ("sparse_labels", SPARSE[:4] + ["reduction_ratio 1.5"], 5),
        ("sparse_labels", SPARSE[:4] + ["reduction_ratio -0.1"], 5),
        ("sparse_labels", SPARSE[:3] + ["seed -4"] + SPARSE[4:], 4),
        ("sparse_labels", SPARSE[:2] + ["max_per_track 0"] + SPARSE[3:], 3),
        ("sequence", SEQ + [FRAME.replace("frame 0 1", "frame 0 nan")], 4),
        ("sequence", SEQ + [FRAME[:-1] + "inf"], 4),
    ], ids=["short-sequence", "short-ann", "ann-before-frame",
            "non-integer-track", "bare-seed", "unknown-tag", "short-pair",
            "plmask-bad-token", "plmask-bad-rle",
            "plmask-zero-run", "plmask-zero-skip-then-zero-run",
            "plmask-negative-count", "plmask-long-sum",
            "mask-zero-run", "mask-no-counts", "plmask-before-pl",
            "non-numeric-mota", "negative-track", "negative-frame",
            "track-twice-in-a-frame", "frame-below-the-last",
            "frame-at-the-last", "repeated-sequence-record",
            "repeated-intrinsics-record", "repeated-track-record",
            "repeated-seed-record", "repeated-mota-record",
            "zero-frame-rate", "nan-frame-rate", "inf-frame-rate",
            "omitted-after-track", "track-after-omitted",
            "repeated-omitted-record", "repeated-pl-record",
            "sequence-extra-field", "intrinsics-extra-field",
            "frame-extra-field", "omitted-extra-field", "recall-extra-field",
            "track-frames-not-increasing", "track-over-budget", "bare-track",
            "track-before-max-per-track", "nan-reduction-ratio",
            "reduction-ratio-above-one", "negative-reduction-ratio",
            "negative-seed", "zero-max-per-track", "nan-pose", "inf-pose"])
    def test_malformed_record_names_the_line(self, parse, lines, bad_line):
        with pytest.raises(ParseError, match=rf"^line {bad_line}: "):
            getattr(formats, f"parse_{parse}")("\n".join(lines) + "\n")

    @pytest.mark.parametrize("parse, lines", [
        ("sequence", SEQ[:2]),
        ("sparse_labels", SPARSE[:2] + SPARSE[3:]),
        ("metric_report", ["# autolabel3d metricreport v1", "mota 1"]),
    ], ids=["sequence", "sparse-labels", "metric-report"])
    def test_missing_header_records(self, parse, lines):
        with pytest.raises(ParseError, match="missing header records"):
            getattr(formats, f"parse_{parse}")("\n".join(lines) + "\n")

    def test_metric_report_roundtrip(self):
        from autolabel3d import metrics
        seq = make_sequence(5)
        preds = []
        for f in seq.frames:
            for a in f.annotations:
                preds.append(Pseudolabel(
                    frame_index=a.frame_index, track_id=a.track_id + 100,
                    box2d=a.box2d, box3d=a.box3d, confidence=0.9,
                    provenance=Provenance("forward", 0)))
        report = metrics.evaluate(seq, preds)
        text = formats.serialize_metric_report(report)
        assert formats.parse_metric_report(text) == report

    def test_unknown_version_everywhere(self):
        text = formats.serialize_mining_pairs([]).replace("v1", "v2")
        with pytest.raises(SchemaVersionError):
            formats.parse_mining_pairs(text)


def per_cell_weight_maps(weights):
    """Reference: one fmt_float call per cell."""
    out = [formats._header("weightmaps")]
    for frame_index in sorted(weights):
        h = weights[frame_index]
        rows, cols = h.values.shape
        out.append(f"frame {frame_index} {rows} {cols} {h.stride}")
        for row in h.values:
            out.append(formats._floats(*row))
    return "\n".join(out) + "\n"


# in [0, 1] as a Heatmap requires, with subnormals and both zeros
WEIGHT_CELLS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [-0.0, 0.0, 1.0, 5e-324, 2.2e-308, np.nextafter(1.0, 0.0)]))


@st.composite
def repeating_weight_maps(draw):
    """Frames of a few widths whose rows come from a small pool per width,
    so rows repeat within and across frames. Each pool of a nonzero width
    holds one row twice more, with 0.0 and with -0.0 in the same position.
    Widths and row counts include 0; some maps are not C-contiguous."""
    from autolabel3d.core import Heatmap
    pools = {}
    for width in draw(st.sets(st.integers(0, 5), min_size=1, max_size=3)):
        row = st.lists(WEIGHT_CELLS, min_size=width, max_size=width)
        pool = draw(st.lists(row, min_size=1, max_size=4))
        if width:
            at = draw(st.integers(0, width - 1))
            pool += [pool[0][:at] + [z] + pool[0][at + 1:] for z in (0.0, -0.0)]
        pools[width] = pool
    maps = {}
    for frame_index in draw(st.sets(st.integers(0, 40), max_size=5)):
        width = draw(st.sampled_from(sorted(pools)))
        rows = draw(st.lists(st.sampled_from(pools[width]), max_size=6))
        values = np.array(rows, dtype=float).reshape(len(rows), width)
        if draw(st.booleans()):
            values = np.asfortranarray(values)
        maps[frame_index] = Heatmap(values=values,
                                    stride=draw(st.integers(1, 8)))
    return maps


def fixed_weight_maps():
    """Hand-picked cases: none, one cell, every special value in one row,
    specials scattered over a wider map, a transposed (non-C-contiguous)
    map and an all-ones map, in unsorted frame order."""
    from autolabel3d.core import Heatmap
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 0.0, 1.0, 5e-324, 2.2e-308,
                        np.nextafter(1.0, 0.0)])
    mixed = rng.random((7, 11))
    mixed.flat[rng.integers(0, mixed.size, 40)] = rng.choice(special, 40)
    transposed = Heatmap(values=rng.random((9, 5)).T, stride=8)
    assert not transposed.values.flags.c_contiguous
    return [
        {},
        {0: Heatmap(values=np.array([[0.25]]), stride=1)},
        {0: Heatmap(values=special.reshape(1, -1), stride=2)},
        {3: Heatmap(values=mixed, stride=4),
         1: transposed,
         2: Heatmap(values=np.ones((4, 6)), stride=4)},
    ]


FIXED_WEIGHT_MAPS = fixed_weight_maps()


class TestWeightMapSerializer:
    @settings(max_examples=200, deadline=None)
    @given(repeating_weight_maps())
    @example(FIXED_WEIGHT_MAPS[0])
    @example(FIXED_WEIGHT_MAPS[1])
    @example(FIXED_WEIGHT_MAPS[2])
    @example(FIXED_WEIGHT_MAPS[3])
    def test_matches_per_cell_formatting(self, maps):
        # each frame formats its distinct rows once: a conflated entry
        # shows here
        assert formats.serialize_weight_maps(maps) == \
            per_cell_weight_maps(maps)


@st.composite
def bitmaps(draw):
    """All false, all true, only the first pixel, or drawn pixel by pixel;
    1 x n, n x 1 or any shape up to 9 x 9."""
    shape = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 9)),
                           st.tuples(st.integers(1, 9), st.just(1)),
                           st.tuples(st.integers(1, 9), st.integers(1, 9))))
    fill = draw(st.sampled_from(["none", "all", "first", "drawn"]))
    bitmap = np.full(shape, fill == "all")
    if fill == "first":
        bitmap[0, 0] = True
    elif fill == "drawn":
        bitmap.flat[:] = draw(st.lists(st.booleans(), min_size=bitmap.size,
                                       max_size=bitmap.size))
    return bitmap


class TestMaskText:
    @settings(max_examples=100, deadline=None)
    @given(bitmaps(), st.integers(0, 30), st.integers(0, 30))
    def test_records_are_the_rle_counts(self, bitmap, x0, y0):
        from autolabel3d.core import rle_encode
        mask = Mask2D.from_bitmap((x0, y0), bitmap)
        label = make_pseudolabels(0, n=1)[0]
        ann = Annotation(frame_index=0, track_id=label.track_id,
                         box2d=label.box2d, box3d=label.box3d,
                         occlusion_level=0, mask=mask)
        seq = make_sequence(0, n_frames=1, n_tracks=0)
        seq = replace(seq, frames=(replace(seq.frames[0],
                                           annotations=(ann,)),))
        label = replace(label, mask=mask)
        seq_text = formats.serialize_sequence(seq)
        pl_text = formats.serialize_pseudolabels([label])
        head = f"{label.track_id} {x0} {y0} {bitmap.shape[0]} {bitmap.shape[1]}"
        counts = " ".join(map(str, rle_encode(bitmap)))
        for text, tag in ((seq_text, "mask"), (pl_text, "plmask")):
            assert text.splitlines()[-1] == f"{tag} {head} {counts}"
        assert formats.parse_sequence(seq_text) == seq
        assert formats.parse_pseudolabels(pl_text) == [label]

    def test_each_mask_is_encoded_once(self, monkeypatch):
        # a mask is its counts: writing one formats them once per mask
        # object and encodes no pixels, and reading one decodes none
        from functools import cached_property
        from autolabel3d import core
        from autolabel3d.pipeline import PipelineConfig, run_pipeline
        from autolabel3d.providers import NoiseConfig, OracleProviderSet
        from autolabel3d.sampling import sample_sparse
        from autolabel3d.simulator import SimConfig, simulate
        seq = simulate(SimConfig(seed=2, duration=12, object_count=4))
        merged, fwd, bwd = run_pipeline(
            seq, sample_sparse(seq, 2, seed=2),
            OracleProviderSet(seq, NoiseConfig.noiseless()), PipelineConfig())
        documents = [[p for h in fwd for p in h.pseudolabels],
                     [p for h in bwd for p in h.pseudolabels], merged]
        masks = [a.mask for f in seq.frames for a in f.annotations]
        masks += [p.mask for labels in documents for p in labels]
        masks = [m for m in masks if m is not None]
        distinct = {id(m) for m in masks}
        assert len(masks) > 2 * len(distinct)  # the documents share masks

        def no_codec(*args):
            raise AssertionError("a mask was encoded or decoded")

        monkeypatch.setattr(core, "rle_encode", no_codec)
        monkeypatch.setattr(core, "rle_decode", no_codec)
        formatted = []
        text = core.Mask2D.rle_text.func
        counted = cached_property(lambda m: formatted.append(1) or text(m))
        counted.__set_name__(core.Mask2D, "rle_text")
        monkeypatch.setattr(core.Mask2D, "rle_text", counted)
        seq_text = formats.serialize_sequence(seq)
        texts = [formats.serialize_pseudolabels(labels)
                 for labels in documents]
        assert len(formatted) == len(distinct)
        assert formats.parse_sequence(seq_text) == seq
        for labels, pl_text in zip(documents, texts):
            assert formats.parse_pseudolabels(pl_text) == labels
