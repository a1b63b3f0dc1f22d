import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autolabel3d import core
from autolabel3d.core import (Annotation, Box2D, Box3D, CameraIntrinsics,
                              Frame, Heatmap, InvalidArgument, Mask2D,
                              Sequence, _rect_union_area, iou_2d,
                              normalize_yaw, rle_decode, rle_encode)
from autolabel3d.losses import LossValue
from autolabel3d.simulator import SimConfig, simulate


class TestNormalizeYaw:
    def test_identity(self):
        assert normalize_yaw(0.0) == 0.0

    def test_three_pi(self):
        assert normalize_yaw(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_negative_pi_maps_to_pi(self):
        r = normalize_yaw(-math.pi)
        assert r == pytest.approx(math.pi)
        assert -math.pi < r <= math.pi

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidArgument):
                normalize_yaw(bad)

    @given(st.floats(-100.0, 100.0))
    def test_range_and_idempotence(self, theta):
        r = normalize_yaw(theta)
        assert -math.pi < r <= math.pi
        assert normalize_yaw(r) == r
        assert math.isclose(math.cos(r), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(r), math.sin(theta), abs_tol=1e-12)


class TestIou2d:
    def test_identical(self):
        b = Box2D(1, 1, 2, 2)
        assert iou_2d(b, b) == 1.0

    def test_disjoint(self):
        assert iou_2d(Box2D(0, 0, 2, 2), Box2D(10, 10, 2, 2)) == 0.0

    def test_hand_value(self):
        # intersection 2, union 6
        a = Box2D(cx=1, cy=1, w=2, h=2)
        b = Box2D(cx=2, cy=1, w=2, h=2)
        assert iou_2d(a, b) == pytest.approx(1 / 3)

    @given(st.tuples(*[st.floats(-50, 50) for _ in range(2)],
                     *[st.floats(0.1, 20) for _ in range(2)]),
           st.tuples(*[st.floats(-50, 50) for _ in range(2)],
                     *[st.floats(0.1, 20) for _ in range(2)]))
    def test_symmetric(self, ta, tb):
        a, b = Box2D(*ta), Box2D(*tb)
        assert iou_2d(a, b) == iou_2d(b, a)
        assert 0.0 <= iou_2d(a, b) <= 1.0


class TestMaskRle:
    def test_empty_mask(self):
        m = Mask2D.from_bitmap((0, 0), np.zeros((3, 3), dtype=bool))
        assert m.counts == (9,)
        assert Mask2D((0, 0), (3, 3), m.counts) == m
        assert not m.bitmap.any() and m.bitmap.shape == (3, 3)

    def test_full_mask(self):
        m = Mask2D.from_bitmap((2, 5), np.ones((3, 3), dtype=bool))
        assert m.counts == (0, 9)
        assert m.bitmap.all() and m.bitmap.shape == (3, 3)

    def test_random_large_mask(self):
        rng = np.random.default_rng(7)
        bitmap = rng.random((64, 64)) < 0.4
        m = Mask2D.from_bitmap((0, 0), bitmap)
        assert np.array_equal(m.bitmap, bitmap)
        assert Mask2D.from_bitmap(m.origin, m.bitmap) == m
        assert hash(Mask2D((0, 0), (64, 64), m.counts)) == hash(m)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 31))
    def test_roundtrip_property(self, h, w, seed):
        rng = np.random.default_rng(seed)
        bitmap = rng.random((h, w)) < rng.random()
        assert np.array_equal(rle_decode(rle_encode(bitmap), (h, w)), bitmap)
        m = Mask2D.from_bitmap((1, 2), bitmap)
        assert list(m.counts) == rle_encode(m.bitmap)

    def test_bitmap_cannot_change_under_its_cached_text(self):
        # the pixels are decoded afresh on each read: neither the array a
        # mask was built from nor one it returned is the mask
        base = np.zeros((4, 4), dtype=bool)
        m = Mask2D.from_bitmap((0, 0), base[1:3])
        text = m.rle_text
        m.bitmap[0, 0] = True
        base[:] = True
        assert m.counts == (8,) and not m.bitmap.any()
        assert m.rle_text == text == "8"

    @pytest.mark.parametrize("origin, shape, counts", [
        ((0, 0), (2, 2), (2, 0, 2)),
        ((0, 0), (2, 2), (0, 0, 4)),
        ((0, 0), (2, 2), (-1, 5)),
        ((0, 0), (2, 2), (1, 4, -1)),
        ((0, 0), (2, 2), (3,)),
        ((0, 0), (2, 2), (5,)),
        ((0, 0), (0, 0), ()),
        ((-1, 0), (2, 2), (4,)),
        ((0, 0), (-2, -2), (4,)),
    ], ids=["zero-run", "zero-run-after-zero-skip", "negative-skip",
            "negative-last", "short-sum", "long-sum", "no-counts",
            "negative-origin", "negative-shape"])
    def test_rejects_counts_rle_encode_cannot_write(self, origin, shape,
                                                    counts):
        with pytest.raises(InvalidArgument):
            Mask2D(origin, shape, counts)

    def test_holds_no_array(self):
        from dataclasses import fields
        assert [f.name for f in fields(Mask2D)] == ["origin", "shape",
                                                    "counts"]
        m = Mask2D.from_bitmap((3, 4), np.eye(5, dtype=bool))
        assert m.shape == (5, 5) and m.counts == (0, 1, 5, 1, 5, 1, 5, 1, 5,
                                                  1)
        for value in (m.origin, m.shape, m.counts):
            assert all(type(v) is int for v in value)

    def test_malformed_rle(self):
        from autolabel3d.core import DecodeError
        with pytest.raises(DecodeError):
            rle_decode([3, 4], (2, 2))
        with pytest.raises(DecodeError):
            rle_decode([-1, 5], (2, 2))


class TestBox2d:
    def test_rejects_infinite_area(self):
        with pytest.raises(InvalidArgument, match="area must be finite"):
            Box2D(cx=0, cy=0, w=1e300, h=1e300)


def test_every_core_class_is_frozen_or_an_exception():
    # the module docstring's promise: every type is an immutable value
    for cls in vars(core).values():
        if inspect.isclass(cls) and cls.__module__ == core.__name__:
            assert (issubclass(cls, Exception)
                    or dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen), cls.__name__


class TestBox3d:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(InvalidArgument):
            Box3D(center=(0, 0, 10), dims=(0, 1, 1), yaw=0, direction="towards")
        with pytest.raises(InvalidArgument):
            Box3D(center=(0, 0, 10), dims=(4, -1, 1), yaw=0, direction="towards")

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgument):
            Box3D(center=(0, 0, math.nan), dims=(4, 2, 1.5), yaw=0,
                  direction="towards")

    def test_yaw_normalized(self):
        b = Box3D(center=(0, 0, 10), dims=(4, 2, 1.5), yaw=3 * math.pi,
                  direction="away")
        assert b.yaw == pytest.approx(math.pi)


EYE = np.hstack([np.eye(3), np.zeros((3, 1))])


def ann(frame_index, track_id, box2d=Box2D(50, 50, 20, 20), z=10.0):
    return Annotation(frame_index=frame_index, track_id=track_id, box2d=box2d,
                      box3d=Box3D(center=(0, 0, z), dims=(4, 1.8, 1.5), yaw=0.0,
                                  direction="towards"),
                      occlusion_level=0)


@st.composite
def sequences(draw):
    """Frames at increasing indices with gaps, each annotating a few tracks
    in any order; integer boxes and depths, so boxes overlap and depths tie."""
    frames = []
    for fi in draw(st.lists(st.integers(0, 12), unique=True, max_size=6)
                   .map(sorted)):
        tracks = draw(st.lists(st.integers(0, 7), unique=True, max_size=5))
        frames.append(Frame(fi, EYE, [
            ann(fi, tid, Box2D(*draw(st.tuples(
                st.integers(0, 100), st.integers(0, 100),
                st.integers(1, 60), st.integers(1, 60)))),
                z=draw(st.integers(1, 5)))
            for tid in tracks]))
    return Sequence(id="views", intrinsics=CameraIntrinsics(
        700.0, 700.0, 620.0, 187.0, 1242, 375), frames=frames, frame_rate=10.0)


def scan_occlusion(frame):
    """Each track's occluded share, one pair of boxes at a time."""
    out = {}
    for a in frame.annotations:
        b = a.box2d
        rects = []
        for o in frame.annotations:
            if o.box3d.center[2] < a.box3d.center[2]:
                c = o.box2d
                lo = (max(b.left, c.left), max(b.top, c.top))
                hi = (min(b.right, c.right), min(b.bottom, c.bottom))
                if hi[0] > lo[0] and hi[1] > lo[1]:
                    rects.append((*lo, *hi))
        out[a.track_id] = (min(_rect_union_area(rects) / (b.w * b.h), 1.0)
                           if rects else 0.0)
    return out


def assert_views_match_a_scan(seq):
    anns = [a for f in seq.frames for a in f.annotations]
    first_seen = list(dict.fromkeys(a.track_id for a in anns))
    assert seq.track_ids() == first_seen
    assert list(seq.tracks) == first_seen
    for tid in first_seen:
        assert seq.tracks[tid] == tuple(a for a in anns if a.track_id == tid)
    for fi in [f.frame_index for f in seq.frames] + [-1, 13, 10 ** 6]:
        for tid in first_seen + [99]:
            scan = [a for f in seq.frames if f.frame_index == fi
                    for a in f.annotations if a.track_id == tid]
            assert seq.annotation(fi, tid) is (scan[0] if scan else None)
    for f in seq.frames:
        assert list(f.by_track) == [a.track_id for a in f.annotations]
        for a in f.annotations:
            assert f.by_track[a.track_id] is a
        assert f.occlusion == scan_occlusion(f)


class TestSequenceViews:
    @settings(max_examples=150, deadline=None)
    @given(sequences())
    def test_views_match_a_scan_of_the_frames(self, seq):
        assert_views_match_a_scan(seq)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_views_match_a_scan_of_a_simulated_scene(self, seed):
        # a simulated frame holds the fractions simulate computed
        assert_views_match_a_scan(simulate(SimConfig(
            seed=seed, duration=6, object_count=10, spawn_z=(8.0, 25.0))))

    def test_a_frame_annotating_a_track_twice_is_rejected(self):
        a = ann(3, 7)
        with pytest.raises(InvalidArgument, match="frame 3 annotates track 7 "
                                                  "twice"):
            Frame(3, EYE, [ann(3, 1), a, ann(3, 2), a])

    def test_a_frame_holding_another_frames_annotation_is_rejected(self):
        # accepted, Sequence.annotation(0, 1) would answer with frame 3's
        # box and annotation(3, 1) with None
        with pytest.raises(InvalidArgument, match=r"frame 0 holds an "
                                                  r"annotation of frame 3 "
                                                  r"\(track 1\)"):
            Frame(0, EYE, [ann(0, 2), ann(3, 1)])

    def test_ids_are_32_bit(self):
        # each is one 32-bit word of the oracle's noise stream keys
        assert Frame(2 ** 32 - 1, EYE, [ann(2 ** 32 - 1, 2 ** 32 - 1)])
        with pytest.raises(InvalidArgument, match=r"frame_index must be "
                                                  r"< 2\*\*32, got 4294967296"):
            Frame(2 ** 32, EYE, [])
        with pytest.raises(InvalidArgument, match=r"track_id must be "
                                                  r"< 2\*\*32, got 4294967296"):
            ann(0, 2 ** 32)
        with pytest.raises(InvalidArgument, match=r"frame_index must be "
                                                  r"< 2\*\*32, got 4294967296"):
            ann(2 ** 32, 0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_frame_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(InvalidArgument, match="frame_rate must be "
                                                  "positive and finite"):
            Sequence(id="s", intrinsics=CameraIntrinsics(
                700.0, 700.0, 620.0, 187.0, 1242, 375), frames=(),
                frame_rate=rate)


def signed_zeros(n):
    return st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)


def pairs(build, *parts):
    """Two values, each built from its own draw of ``parts``."""
    return st.tuples(st.tuples(*parts), st.tuples(*parts)).map(
        lambda p: (build(*p[0]), build(*p[1])))


VALUE_PAIRS = {
    "frame": pairs(lambda pose: Frame(0, pose, ()), signed_zeros(12)),
    "heatmap": pairs(lambda v: Heatmap(np.reshape(v, (2, 3)), 1),
                     signed_zeros(6)),
    "mask": pairs(lambda bits: Mask2D.from_bitmap((0, 0),
                                                  np.reshape(bits, (2, 3))),
                  st.lists(st.booleans(), min_size=6, max_size=6)),
    "box3d": pairs(lambda c, yaw: Box3D(center=c, dims=(4.0, 1.8, 1.5),
                                        yaw=yaw, direction="towards"),
                   signed_zeros(3), st.sampled_from([0.0, -0.0, math.pi])),
}


class TestValueEquality:
    @pytest.mark.parametrize("kind", sorted(VALUE_PAIRS))
    @given(data=st.data())
    def test_equal_values_hash_equal(self, kind, data):
        a, b = data.draw(VALUE_PAIRS[kind])
        if a == b:
            assert hash(a) == hash(b)

    def test_a_pose_is_its_12_floats(self):
        frame = Frame(0, EYE, ())
        assert frame.ego_pose == tuple(EYE.ravel().tolist())
        assert frame == Frame(0, list(frame.ego_pose), ())
        for bad in ([1.0] * 11, [[1.0] * 4] * 4):
            with pytest.raises(InvalidArgument, match="12 numbers"):
                Frame(0, bad, ())
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidArgument, match="ego pose must be "
                                                      "finite"):
                Frame(0, [bad] + [0.0] * 11, ())

    def test_loss_values_compare_to_a_bool(self):
        a, b = LossValue(1.0, np.zeros(3)), LossValue(1.0, np.zeros(3))
        assert (a == b) is False and (a == a) is True
