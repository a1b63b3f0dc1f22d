import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from autolabel3d.core import (Annotation, Box2D, Box3D, InvalidArgument,
                              _rect_union_area, occlusion_fractions,
                              rle_encode)
from autolabel3d.formats import serialize_sequence
from autolabel3d.geometry import heading_vector
from autolabel3d.simulator import (SimConfig, _convex_hull, _hull_masks,
                                   occlusion_level, simulate,
                                   visibility_from_fraction)


DATA = Path(__file__).parent / "data"

# the perfbench scenes' vehicle sizes
VEHICLES = dict(length_range=(4.0, 5.0), width_range=(1.7, 1.9),
                height_range=(1.5, 1.7))
# the configs of tests/data/sim_digests.txt, by name
SIM_DIGEST_CONFIGS = {
    # mixed CV/CTRV traffic, some of it oncoming, passing the camera
    "random-oncoming": dict(seed=3, duration=40, object_count=10),
    # spawned behind and beside the camera: the min_depth and corner-depth
    # skips fire, and boxes enter the image clipped
    "ctrv-behind-camera": dict(
        seed=5, duration=50, object_count=10,
        motion_model="constant-turn-rate-velocity", turn_rate=(-0.3, 0.3),
        spawn_z=(-15.0, 30.0)),
    # perfbench's crowded e2e scene
    "crowded-arc": dict(
        seed=7919, duration=36, object_count=28, layout="grid",
        ego_motion="arc", ego_arc_radius=40.0, spawn_x=(-12.0, 36.0),
        spawn_z=(12.0, 66.0), **VEHICLES),
    # perfbench's long noiseless e2e scene
    "long-grid": dict(seed=7919, duration=120, object_count=6,
                      layout="grid", **VEHICLES),
    "negative-arc": dict(seed=2, duration=40, object_count=8,
                         ego_motion="arc", ego_arc_radius=-30.0),
    "no-masks": dict(seed=4, duration=30, object_count=8, with_masks=False),
    # a small image: most boxes are clipped at its edges
    "small-image": dict(
        seed=6, duration=30, object_count=8, spawn_z=(3.0, 30.0),
        intrinsics=dict(fx=300.0, fy=300.0, cx=160.0, cy=60.0, width=320,
                        height=120)),
    "default": dict(),
}


def ann(track_id, box2d, z):
    return Annotation(frame_index=0, track_id=track_id, box2d=box2d,
                      box3d=Box3D(center=(0, 0, z), dims=(4, 1.8, 1.5),
                                  yaw=0.0, direction="towards"),
                      occlusion_level=0)


def unique_hull(points):
    """The hull over ``np.unique(points, axis=0)``, as an array."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def full_grid_mask(points, left, top, w, h):
    """Every pixel centre of the window tested against every hull edge."""
    hull = unique_hull(points)
    if len(hull) < 3:
        return None
    uu, vv = np.meshgrid(left + 0.5 + np.arange(w), top + 0.5 + np.arange(h))
    inside = np.ones((h, w), dtype=bool)
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        inside &= (bx - ax) * (vv - ay) - (by - ay) * (uu - ax) >= 0
    return inside if inside.any() else None


@st.composite
def hull_inputs(draw):
    """Up to 10 points and a pixel window. Coordinates come from a small
    pool, so points repeat and share rows, columns and diagonals; pool
    values include pixel centres (k + 0.5), pixel edges and arbitrary
    floats. The window may cut the hull, miss it or be one pixel."""
    value = st.one_of(st.integers(-4, 40).map(lambda k: k + 0.5),
                      st.integers(-4, 40).map(float),
                      st.floats(-4.0, 40.0).map(lambda x: x + 0.0))
    xs = draw(st.lists(value, min_size=1, max_size=5))
    ys = draw(st.lists(value, min_size=1, max_size=5))
    k = draw(st.integers(1, 10))
    if draw(st.booleans()):  # on one line: (x0, y0) + t (dx, dy)
        x0, y0 = draw(st.sampled_from(xs)), draw(st.sampled_from(ys))
        dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ts = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        pts = [(x0 + t * dx, y0 + t * dy) for t in ts]
        pts += [(draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
                for _ in range(draw(st.integers(0, 2)))]
    else:
        pts = [(draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
               for _ in range(k)]
    left, top = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return np.array(pts, dtype=float), left, top, w, h


def hull_mask(points, left, top, w, h):
    """``_hull_masks`` of one hull and window."""
    return _hull_masks([_convex_hull(points)], [(left, top, w, h)])[0]


def assert_full_grid(got, points, left, top, w, h):
    want = full_grid_mask(points, left, top, w, h)
    if want is None:
        assert got is None
    else:
        assert got.origin == (left, top)
        assert np.array_equal(got.bitmap, want)
        assert got.counts == tuple(rle_encode(want))


SQUARE = np.array([[-1.0, -1.0], [9.0, -1.0], [9.0, 9.0], [-1.0, 9.0]])
LOWER = SQUARE + [0.0, 2.0]  # its top edge at y = 1
# a window whose last row is full, then one whose first run starts where
# that run ends: at local row-major offsets (first pair) and at offsets
# running on from one window to the next (second pair)
TOUCHING = [(SQUARE, 0, 0, 5, 1), (LOWER, 0, 0, 5, 3), (SQUARE, 0, 0, 5, 4),
            (SQUARE, 0, 0, 5, 12), (SQUARE, 0, 3, 12, 2)]


class TestHullMask:
    @settings(max_examples=400, deadline=None)
    @given(hull_inputs())
    def test_equals_full_grid_and_unique_hull(self, case):
        points, left, top, w, h = case
        hull = np.array(_convex_hull(points)).reshape(-1, 2)
        want_hull = unique_hull(points)
        assert np.array_equal(hull.view(np.uint64), want_hull.view(np.uint64))
        assert_full_grid(hull_mask(*case), *case)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(hull_inputs(), max_size=8))
    @example(TOUCHING)
    def test_one_call_equals_each_full_grid(self, cases):
        # a frame's masks are rasterised together; each must still be the
        # full-grid test of its own hull and window
        got = _hull_masks([_convex_hull(c[0]) for c in cases],
                          [c[1:] for c in cases])
        assert len(got) == len(cases)
        for mask, case in zip(got, cases):
            assert_full_grid(mask, *case)

    def test_runs_do_not_join_across_masks(self):
        got = _hull_masks([_convex_hull(c[0]) for c in TOUCHING],
                          [c[1:] for c in TOUCHING])
        assert [m.counts for m in got] == [(0, 5), (5, 10), (0, 20),
                                           (0, 45, 15), (0, 9, 3, 9, 3)]
        # masks between an empty one and a degenerate hull keep their place
        line = _convex_hull(np.array([[0.0, 0.0], [5.0, 5.0]]))
        square = _convex_hull(SQUARE)
        got = _hull_masks([line, square, square],
                          [(0, 0, 5, 5), (20, 20, 4, 4), (0, 0, 5, 4)])
        assert got[0] is None and got[1] is None
        assert got[2].counts == (0, 20)

    def test_vertices_on_pixel_centres_are_inside(self):
        # a triangle whose every vertex and edge passes through pixel centres
        points = np.array([[0.5, 0.5], [4.5, 0.5], [0.5, 4.5], [0.5, 0.5]])
        got = hull_mask(points, 0, 0, 5, 5).bitmap
        assert np.array_equal(got, np.add.outer(np.arange(5), np.arange(5))
                              <= 4)
        assert hull_mask(points[[0, 1, 0]], 0, 0, 5, 5) is None

    def test_runs_of_full_rows_are_one_run(self):
        assert hull_mask(SQUARE, 0, 0, 5, 4).counts == (0, 20)
        assert hull_mask(SQUARE, 0, 0, 5, 12).counts == (0, 45, 15)
        assert hull_mask(SQUARE, 0, 3, 12, 2).counts == (0, 9, 3, 9, 3)

    def test_no_hull_gives_no_mask(self):
        assert _hull_masks([], []) == []
        assert _hull_masks([[(0.0, 0.0)], []], [(0, 0, 2, 2)] * 2) == [None,
                                                                        None]


class TestRectUnion:
    def test_disjoint(self):
        assert _rect_union_area([(0, 0, 1, 1), (2, 2, 3, 3)]) == 2.0

    def test_overlapping(self):
        # two 2x2 squares overlapping in a 1x2 strip
        assert _rect_union_area([(0, 0, 2, 2), (1, 0, 3, 2)]) == 6.0

    def test_nested(self):
        assert _rect_union_area([(0, 0, 4, 4), (1, 1, 2, 2)]) == 16.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rects = []
            for _ in range(4):
                x0, y0 = rng.uniform(0, 8, 2)
                rects.append((x0, y0, x0 + rng.uniform(1, 4),
                              y0 + rng.uniform(1, 4)))
            exact = _rect_union_area(rects)
            pts = rng.uniform(0, 12, size=(200_000, 2))
            hits = np.zeros(len(pts), dtype=bool)
            for r in rects:
                hits |= ((pts[:, 0] >= r[0]) & (pts[:, 0] <= r[2])
                         & (pts[:, 1] >= r[1]) & (pts[:, 1] <= r[3]))
            approx = hits.mean() * 144.0
            assert abs(exact - approx) < 0.3


class TestOcclusionFraction:
    def test_no_overlap(self):
        target = ann(0, Box2D(50, 50, 20, 20), z=20)
        other = ann(1, Box2D(200, 50, 20, 20), z=10)
        assert occlusion_fractions([target, other])[0] == 0.0

    def test_half_covered(self):
        target = ann(0, Box2D(50, 50, 20, 20), z=20)  # spans [40, 60]
        # nearer box spanning [30, 50]: covers exactly the left half
        other = ann(1, Box2D(40, 50, 20, 20), z=10)
        assert occlusion_fractions([target, other])[0] == pytest.approx(0.5)

    def test_farther_box_does_not_occlude(self):
        target = ann(0, Box2D(50, 50, 20, 20), z=10)
        other = ann(1, Box2D(50, 50, 20, 20), z=20)
        assert occlusion_fractions([target, other])[0] == 0.0

    def test_union_not_double_counted(self):
        target = ann(0, Box2D(50, 50, 40, 40), z=30)  # spans [30, 70]^2
        # two identical nearer boxes covering the same corner quarter
        a = ann(1, Box2D(40, 40, 20, 20), z=10)
        b = ann(2, Box2D(40, 40, 20, 20), z=15)
        frac = occlusion_fractions([target, a, b])[0]
        assert frac == pytest.approx(400.0 / 1600.0)

    def test_levels_table(self):
        assert occlusion_level(0.0) == 0
        assert occlusion_level(0.0999) == 0
        assert occlusion_level(0.1) == 1
        assert occlusion_level(0.4999) == 1
        assert occlusion_level(0.5) == 2
        assert occlusion_level(1.0) == 2

    def test_visibility_table(self):
        assert visibility_from_fraction(0.0) == 4
        assert visibility_from_fraction(0.2) == 3
        assert visibility_from_fraction(0.4) == 2
        assert visibility_from_fraction(0.6) == 1


class TestBatchedRotation:
    def test_rows_times_transpose_equal_each_product(self):
        # simulate rotates a frame's points as (P - t) @ rot.T, which must
        # give the bits of rot @ (p - t) per row. The two products add their
        # terms in different orders (for a dense matrix they differ on this
        # BLAS), but every row of a rotation about y has a zero in the
        # middle or is (0, 1, 0), so the order cannot change a bit
        rng = np.random.default_rng(0)
        for _ in range(500):
            phi = rng.uniform(-4.0, 4.0)
            cos_e, sin_e = math.cos(phi), math.sin(phi)
            rot = np.array([[cos_e, 0.0, -sin_e], [0.0, 1.0, 0.0],
                            [sin_e, 0.0, cos_e]])
            t = np.array([rng.uniform(-500, 500), 0.0, rng.uniform(-500, 500)])
            P = rng.uniform(-600, 600, size=(int(rng.integers(1, 40)), 3))
            P[rng.random(len(P)) < 0.2, 1] = rng.choice([0.0, -0.0, 1.65])
            want = np.array([rot @ (p - t) for p in P])
            got = (P - t) @ rot.T
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSimulate:
    def test_matches_golden_digests(self):
        # sha256 of serialize_sequence(simulate(SimConfig(**cfg))) per
        # config, so any change to the simulator's output bits shows by name
        lines = (DATA / "sim_digests.txt").read_text().splitlines()
        want = dict(line.split()[::-1] for line in lines
                    if not line.startswith("#"))
        assert set(want) == set(SIM_DIGEST_CONFIGS)
        for name, kw in SIM_DIGEST_CONFIGS.items():
            text = serialize_sequence(simulate(SimConfig(**kw)))
            assert hashlib.sha256(text.encode()).hexdigest() == want[name], \
                name

    def test_byte_determinism(self):
        cfg = SimConfig(seed=7, duration=20, object_count=4)
        a = serialize_sequence(simulate(cfg))
        b = serialize_sequence(simulate(cfg))
        assert a == b

    def test_different_seeds_differ(self):
        base = SimConfig(seed=1, duration=10)
        other = SimConfig(seed=2, duration=10)
        assert serialize_sequence(simulate(base)) != \
            serialize_sequence(simulate(other))

    def test_frame_count_and_rate(self):
        seq = simulate(SimConfig(seed=0, duration=15, frame_rate=5.0))
        assert len(seq.frames) == 15
        assert seq.frame_rate == 5.0

    def test_grid_layout_visible_everywhere(self):
        # the convoy moves with the ego, so every track stays in view for
        # the whole sequence and never drops below the eligibility bar
        cfg = SimConfig(seed=0, duration=60, object_count=8, layout="grid")
        seq = simulate(cfg)
        for frame in seq.frames:
            assert len(frame.annotations) == 8
            for a in frame.annotations:
                assert a.occlusion_level <= 1

    def test_cv_kinematics(self):
        # a pure-CV world: camera-frame center displacement per frame is
        # constant when the ego drives straight
        cfg = SimConfig(seed=3, duration=12, object_count=2,
                        motion_model="constant-velocity",
                        ego_motion="straight", spawn_z=(25.0, 40.0))
        seq = simulate(cfg)
        for tid in seq.track_ids():
            centers = []
            for frame in seq.frames:
                a = seq.annotation(frame.frame_index, tid)
                if a is not None:
                    centers.append((frame.frame_index, np.array(a.box3d.center)))
            runs = [(f1 - f0, c1 - c0) for (f0, c0), (f1, c1)
                    in zip(centers, centers[1:]) if f1 - f0 == 1]
            if len(runs) < 2:
                continue
            deltas = np.array([d for _, d in runs])
            assert np.allclose(deltas, deltas[0], atol=1e-9)

    def test_ctrv_heading_rotates(self):
        cfg = SimConfig(seed=5, duration=10, object_count=3,
                        motion_model="constant-turn-rate-velocity",
                        turn_rate=(0.1, 0.1), ego_motion="straight")
        seq = simulate(cfg)
        dt = 1.0 / cfg.frame_rate
        found = False
        for tid in seq.track_ids():
            yaws = [seq.annotation(f.frame_index, tid).box3d.yaw
                    for f in seq.frames
                    if seq.annotation(f.frame_index, tid) is not None]
            if len(yaws) < 3:
                continue
            found = True
            diffs = np.diff(np.unwrap(yaws))
            # with a straight ego, d(camera yaw)/d(world heading) = 1:
            # yaw = atan2(-cos phi, sin phi) advances in lockstep with phi
            assert np.allclose(diffs, 0.1 * dt, atol=1e-9)
        assert found

    def test_yaw_heading_consistency(self):
        # the stored yaw must reproduce the object's world heading once
        # rotated back out of the camera frame
        cfg = SimConfig(seed=9, duration=8, object_count=5, ego_motion="arc")
        seq = simulate(cfg)
        checked = 0
        for frame in seq.frames:
            rot = np.reshape(frame.ego_pose, (3, 4))[:, :3]
            for a in frame.annotations:
                hv = heading_vector(a.box3d.yaw)
                world = rot.T @ hv
                assert abs(world[1]) < 1e-12
                assert math.isclose(np.linalg.norm(world), 1.0, rel_tol=1e-12)
                checked += 1
        assert checked > 0

    def test_projection_consistency(self):
        # every 3D corner projects inside (or on the clipped edge of) box2d
        from autolabel3d.geometry import box_keypoints, project
        cfg = SimConfig(seed=11, duration=6, object_count=4)
        seq = simulate(cfg)
        for frame in seq.frames:
            for a in frame.annotations:
                kp = box_keypoints(a.box3d)
                u, v = project(np.array(kp.center), seq.intrinsics)
                assert a.box2d.left - 1e-6 <= min(max(u, a.box2d.left),
                                                  a.box2d.right)

    def test_occlusion_fraction_accessor(self):
        seq = simulate(SimConfig(seed=2, duration=5, object_count=6))
        frame = seq.frames[0]
        for a in frame.annotations:
            frac = frame.occlusion[a.track_id]
            assert 0.0 <= frac <= 1.0
            assert occlusion_level(frac) == a.occlusion_level
        with pytest.raises(KeyError):
            frame.occlusion[999]

    def test_masks_inside_box(self):
        seq = simulate(SimConfig(seed=4, duration=4, object_count=4))
        any_mask = False
        for frame in seq.frames:
            for a in frame.annotations:
                if a.mask is None:
                    continue
                any_mask = True
                assert a.mask.bitmap.any()
        assert any_mask

    def test_masks_hold_no_array(self):
        seq = simulate(SimConfig(seed=4, duration=4, object_count=4))
        masks = [a.mask for f in seq.frames for a in f.annotations if a.mask]
        assert masks
        for m in masks:
            assert not any(isinstance(v, np.ndarray)
                           for v in vars(m).values())
            assert all(type(v) is int
                       for v in (*m.origin, *m.shape, *m.counts))

    def test_bad_config(self):
        with pytest.raises(InvalidArgument):
            SimConfig(duration=1)
        with pytest.raises(InvalidArgument):
            SimConfig(layout="hex")
        with pytest.raises(InvalidArgument):
            SimConfig(object_speed=(5.0, 3.0))

    def test_overflowing_motion_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a step of about 1e308 m: refused at the frame it reaches
            with pytest.raises(InvalidArgument, match="sim: frame 1"):
                simulate(SimConfig(duration=6, object_count=3,
                                   frame_rate=2.2250738585072014e-308))
            # steps of 1e307 m stay finite but overflow in the projection
            far = simulate(SimConfig(duration=5, object_speed=(1e308, 1e308)))
        assert far.frames[0].annotations and not far.frames[1].annotations
