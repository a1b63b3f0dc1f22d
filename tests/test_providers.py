import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from autolabel3d import core
from autolabel3d.config import NOISE_PROFILES
from autolabel3d.core import Box2D, InvalidArgument
from autolabel3d.formats import parse_sequence, serialize_sequence
from autolabel3d.geometry import project_keypoints
from autolabel3d.pipeline import PipelineConfig, run_pipeline
from autolabel3d.providers import (NoiseConfig, OracleProviderSet,
                                   gaussian_radius, heatmap_shape,
                                   splat_boxes)
from autolabel3d.sampling import sample_sparse
from autolabel3d.simulator import SimConfig, simulate


@pytest.fixture(scope="module")
def seq():
    return simulate(SimConfig(seed=0, duration=30, object_count=6))


@pytest.fixture(scope="module")
def convoy():
    return simulate(SimConfig(seed=0, duration=30, object_count=4,
                              layout="grid"))


def first_presence(seq, track_id):
    for frame in seq.frames:
        if seq.annotation(frame.frame_index, track_id) is not None:
            return frame.frame_index
    raise AssertionError(f"track {track_id} never appears")


class TestNoiseConfig:
    def test_noiseless_is_exact(self):
        n = NoiseConfig.noiseless()
        assert n.confidence_c0 == 1.0
        assert n.confidence_d0 == math.inf
        assert n.confidence_k_occ == 0.0
        assert n.match_dropout_base == 0.0

    def test_probability_validation(self):
        with pytest.raises(InvalidArgument):
            NoiseConfig(match_dropout_base=1.5)
        with pytest.raises(InvalidArgument):
            NoiseConfig(depth_rel_sigma=-0.1)


class TestMatch:
    def test_noiseless_returns_ground_truth(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        fi = first_presence(seq, 0)
        res = prov.match(fi, 0, fi)
        gt = seq.annotation(fi, 0)
        assert res.box2d == gt.box2d
        assert res.confidence == 1.0

    def test_absent_track_returns_none(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        assert prov.match(0, 999, 0) is None

    def test_full_dropout_returns_none(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig(match_dropout_base=1.0))
        fi = first_presence(seq, 0)
        assert prov.match(fi, 0, fi) is None

    def test_confidence_model(self, seq):
        n = NoiseConfig(confidence_c0=0.9, confidence_d0=50.0,
                        confidence_k_occ=0.5)
        prov = OracleProviderSet(seq, n)
        fi = first_presence(seq, 0)
        res = prov.match(fi, 0, fi)
        ann = seq.annotation(fi, 0)
        occ = seq.frame(fi).occlusion[0]
        want = 0.9 * math.exp(-ann.box3d.center[2] / 50.0) * (1 - 0.5 * occ)
        assert res.confidence == pytest.approx(want, abs=1e-12)

    def test_distance_decay_monotone(self, convoy):
        # convoy tracks sit at strictly increasing depth; confidence must
        # decay with depth when d0 is finite and occlusion is ignored
        n = NoiseConfig(confidence_c0=0.95, confidence_d0=40.0,
                        confidence_k_occ=0.0)
        prov = OracleProviderSet(convoy, n)
        frame = convoy.frames[0]
        by_depth = sorted(frame.annotations, key=lambda a: a.box3d.center[2])
        confs = [prov.match(0, a.track_id, 0).confidence for a in by_depth]
        assert all(a > b for a, b in zip(confs, confs[1:]))

    def test_keyed_streams_are_call_order_independent(self, seq):
        n = NoiseConfig(center_px_sigma=2.0, match_dropout_base=0.3, seed=5)
        fi = first_presence(seq, 0)
        fj = first_presence(seq, 1)
        a = OracleProviderSet(seq, n)
        r1 = a.match(fi, 0, fi)
        r2 = a.match(fj, 1, fj)
        b = OracleProviderSet(seq, n)
        s2 = b.match(fj, 1, fj)   # reversed call order
        s1 = b.match(fi, 0, fi)
        assert r1 == s1 and r2 == s2

    def test_seed_changes_noise(self, seq):
        fi = first_presence(seq, 0)
        boxes = []
        for s in (0, 1):
            prov = OracleProviderSet(seq, NoiseConfig(center_px_sigma=3.0,
                                                      seed=s))
            boxes.append(prov.match(fi, 0, fi).box2d)
        assert boxes[0] != boxes[1]


ids = st.integers(0, 2 ** 32 - 1)
keys = st.tuples(st.integers(1, 5), ids, ids, st.none() | ids).map(
    lambda k: k if k[3] is not None else k[:3])  # (tag, track, frame[, source])
seeds = st.integers(0, 2 ** 72 - 1)


def draw(seq, seed, key):
    """A key's uniform and its first two normals, from a fresh provider."""
    prov = OracleProviderSet(seq, NoiseConfig(seed=seed))
    return prov._uniform(*key), prov._normals(2, *key)


class TestKeyedStreams:
    """Every draw is a function of its key ``(seed, tag, track, frame[,
    source])`` alone, whatever the order of asking."""

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, keys=st.lists(keys, min_size=1, max_size=6))
    def test_same_key_same_draw_in_any_order(self, seq, seed, keys):
        def draws(order):
            prov = OracleProviderSet(seq, NoiseConfig(seed=seed))
            return [(prov._uniform(*key), prov._normals(3, *key))
                    for key in order]

        got = draws(keys)
        assert draws(keys[::-1] + keys) == got[::-1] + got
        for key, (uniform, normals) in zip(keys, got):
            assert draw(seq, seed, key) == (uniform, normals[:2])
            assert 0.0 <= uniform < 1.0
            assert all(math.isfinite(g) for g in normals)
            # numpy integers as ids give the same draw
            assert draw(seq, seed, tuple(map(np.int64, key))) == \
                draw(seq, seed, key)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, key=keys)
    @example(seed=0, key=(1, 0, 0))
    @example(seed=2 ** 64 - 1, key=(2, 2 ** 32 - 1, 2 ** 32 - 1, 0))
    def test_each_key_word_changes_the_draw(self, seq, seed, key):
        tag, track, frame, *source = key
        changed = [
            (seed ^ 1, key),
            (seed ^ 2 ** 64, key),  # a second seed word, or none
            (seed, (tag % 5 + 1, track, frame, *source)),
            (seed, (tag, track ^ 1, frame, *source)),
            (seed, (tag, track, frame ^ 1, *source)),
            # the words' order
            (seed, (tag, frame, track, *source) if track != frame else
             (tag, track, frame + 1, *source)),
            # the source changed, or a source of 0 given for none
            (seed, (tag, track, frame, source[0] ^ 1 if source else 0)),
            # the source dropped, or one given
            (seed, key[:3] if source else key + (1,)),
        ]
        want = draw(seq, seed, key)
        for other in changed:
            got = draw(seq, *other)
            assert got[0] != want[0] and got[1] != want[1], other

    def test_draws_of_structured_keys_look_uniform_and_normal(self, seq):
        # 40,000 match keys and 40,000 estimate keys of consecutive ids, a
        # weak hash's worst case; the bounds are 6 to 9 standard errors of
        # each statistic under true draws, and chi2 with 19 degrees of
        # freedom exceeds 50 with probability 1e-4
        prov = OracleProviderSet(seq, NoiseConfig(seed=7))
        u = np.array([prov._uniform(1, t, f, s) for t in range(20)
                      for f in range(50) for s in range(40)])
        assert abs(u.mean() - 0.5) < 0.01 and abs(u.var() - 1 / 12) < 0.003
        counts = np.bincount((u * 20).astype(int), minlength=20)
        assert ((counts - 2000) ** 2 / 2000).sum() < 50
        flips = np.array([[prov._uniform(tag, t, f) for tag in (3, 5)]
                          for t in range(40) for f in range(1000)])
        assert abs(np.corrcoef(flips.T)[0, 1]) < 0.03
        assert abs(np.corrcoef(flips[:-1, 0], flips[1:, 0])[0, 1]) < 0.03
        g = np.array([prov._normals(3, 4, t, f) for t in range(40)
                      for f in range(1000)])
        assert np.all(np.abs(g.mean(axis=0)) < 0.03)
        assert np.all(np.abs(g.std(axis=0) - 1) < 0.03)

    @pytest.mark.parametrize("profile", ["medium", "heavy_dropout"])
    def test_no_generator_is_built_per_draw(self, seq, monkeypatch, profile):
        sparse = sample_sparse(seq, 2, 0)
        prov = OracleProviderSet(seq, NOISE_PROFILES[profile])

        def run():
            merged = run_pipeline(seq, sparse, prov, PipelineConfig())[0]
            return merged, [prov.estimate(f.frame_index, a.track_id)
                            for f in seq.frames for a in f.annotations]

        want = run()  # mixes the pools of every tag the profile draws

        def refuse(*args, **kwargs):
            raise AssertionError("a Generator built for a draw")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert run() == want
        assert want[0]


class TestOcclusionMemo:
    NOISE = NoiseConfig(match_dropout_base=0.2, dropout_occlusion_gain=0.6,
                        confidence_k_occ=0.6, seed=4)

    def test_second_provider_set_does_not_recompute(self, monkeypatch):
        # a parsed sequence starts with no fractions on its frames
        seq = parse_sequence(serialize_sequence(
            simulate(SimConfig(seed=2, duration=8, object_count=10))))
        real = core.occlusion_fractions
        computed = []
        monkeypatch.setattr(core, "occlusion_fractions",
                            lambda anns: computed.append(anns) or real(anns))
        queries = [(f.frame_index, a.track_id)
                   for f in seq.frames for a in f.annotations]
        first = [OracleProviderSet(seq, self.NOISE).match(fi, t, fi)
                 for fi, t in queries]
        assert len(computed) == len(seq.frames)
        second = [OracleProviderSet(seq, self.NOISE).match(fi, t, fi)
                  for fi, t in queries]
        assert len(computed) == len(seq.frames)
        assert first == second

    def test_simulated_sequence_queries_compute_no_fractions(self,
                                                            monkeypatch):
        # simulate stores the fractions it computed on each frame
        seq = simulate(SimConfig(seed=2, duration=8, object_count=10))
        computed = []
        monkeypatch.setattr(core, "occlusion_fractions",
                            lambda anns: computed.append(anns))
        prov = OracleProviderSet(seq, self.NOISE)
        for f in seq.frames:
            for a in f.annotations:
                prov.match(f.frame_index, a.track_id, f.frame_index)
        assert computed == []
        assert any(any(f.occlusion.values()) for f in seq.frames)

    def test_simulated_fractions_match_a_parsed_copy(self):
        simulated = simulate(SimConfig(seed=2, duration=8, object_count=10))
        parsed = parse_sequence(serialize_sequence(simulated))
        fractions = [f.occlusion[a.track_id]
                     for f in simulated.frames for a in f.annotations]
        assert any(fractions)
        assert fractions == [f.occlusion[a.track_id]
                             for f in parsed.frames for a in f.annotations]


class TestEstimate:
    def test_noiseless_exact(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        fi = first_presence(seq, 2)
        res = prov.estimate(fi, 2)
        ann = seq.annotation(fi, 2)
        want = project_keypoints(ann.box3d, seq.intrinsics)
        assert res.keypoints_px == want
        assert res.dims == ann.box3d.dims

    def test_unknown_track_raises(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        with pytest.raises(KeyError):
            prov.estimate(0, 999)

    def test_direction_flip_certain(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig(direction_flip_prob=1.0))
        fi = first_presence(seq, 0)
        flipped = prov.estimate(fi, 0)
        truth = project_keypoints(seq.annotation(fi, 0).box3d, seq.intrinsics)
        assert flipped.direction != truth.direction

    def test_depth_noise_median(self):
        # log-normal multiplicative noise: |exp(sigma*g) - 1| has median
        # close to sigma for small sigma; with sigma = 0.1 the median
        # relative depth error should land near 0.067 = exp(0.1*z0.5...)
        big = simulate(SimConfig(seed=1, duration=120, object_count=8,
                                 with_masks=False))
        prov = OracleProviderSet(big, NoiseConfig(depth_rel_sigma=0.1, seed=3))
        errs = []
        for frame in big.frames:
            for a in frame.annotations:
                res = prov.estimate(frame.frame_index, a.track_id)
                true = project_keypoints(a.box3d, big.intrinsics)
                for dz, tz in zip(res.keypoints_px.depths, true.depths):
                    errs.append(abs(dz - tz) / tz)
        assert len(errs) >= 1000
        med = float(np.median(errs))
        assert 0.055 <= med <= 0.08


def full_grid_splats(boxes, width, height, stride):
    """Reference: every splat evaluated over the whole grid."""
    rows, cols = heatmap_shape(width, height, stride)
    grid = np.zeros((rows, cols))
    ys, xs = np.mgrid[0:rows, 0:cols]
    for b in boxes:
        ccol = int(b.cx / stride)
        crow = int(b.cy / stride)
        if not (0 <= crow < rows and 0 <= ccol < cols):
            continue
        radius = gaussian_radius(b.h / stride, b.w / stride)
        sigma = max(radius / 3.0, 1e-6)
        splat = np.exp(-((xs - ccol) ** 2 + (ys - crow) ** 2)
                       / (2 * sigma ** 2))
        np.maximum(grid, splat, out=grid)
    return grid


@st.composite
def splat_scenes(draw):
    """Two box lists on one grid, each with a box on every grid edge."""
    width = draw(st.integers(1, 160))
    height = draw(st.integers(1, 160))
    stride = draw(st.integers(1, 8))

    def coord(extent):
        # on, near and off the grid edges, or anywhere in between
        edges = [0.0, extent, extent - 1e-9, -1e-9, float(stride),
                 extent - stride, -stride, extent + stride]
        return st.one_of(st.sampled_from(edges),
                         st.floats(-2.0 * stride, extent + 2.0 * stride))

    # sub-micro boxes hit the sigma floor; the largest exceed the image;
    # a few fixed sizes make sigmas repeat between the lists
    side = st.one_of(st.floats(1e-9, 1e-5), st.floats(0.5, 40.0),
                     st.floats(40.0, 2000.0), st.sampled_from([6.0, 90.0]))

    def boxes():
        inside_x = st.floats(0.0, width - 1e-9)
        inside_y = st.floats(0.0, height - 1e-9)
        # centre cells in the first and last column, first and last row
        edge = [Box2D(cx=cx, cy=cy, w=draw(side), h=draw(side))
                for cx, cy in ((0.0, draw(inside_y)),
                               (width - 1e-9, draw(inside_y)),
                               (draw(inside_x), 0.0),
                               (draw(inside_x), height - 1e-9))]
        return edge + draw(st.lists(st.builds(Box2D, cx=coord(width),
                                              cy=coord(height), w=side,
                                              h=side), max_size=8))

    return (boxes(), boxes()), width, height, stride


class TestObjectness:
    def test_shape(self):
        assert heatmap_shape(1242, 375, 4) == (94, 311)
        assert heatmap_shape(100, 100, 4) == (25, 25)

    def test_gaussian_radius_positive(self):
        for h, w in [(10, 10), (3, 40), (80, 25)]:
            assert gaussian_radius(h, w) > 0

    def test_peak_at_center_cell(self):
        hm = splat_boxes([Box2D(cx=50, cy=50, w=40, h=40)], 100, 100, stride=4)
        assert hm.values[12, 12] == 1.0
        assert hm.values.max() == 1.0

    def test_max_composition(self):
        one = splat_boxes([Box2D(cx=20, cy=20, w=16, h=16)], 100, 100, 4)
        two = splat_boxes([Box2D(cx=80, cy=80, w=16, h=16)], 100, 100, 4)
        both = splat_boxes([Box2D(cx=20, cy=20, w=16, h=16),
                            Box2D(cx=80, cy=80, w=16, h=16)], 100, 100, 4)
        assert np.array_equal(both.values, np.maximum(one.values, two.values))

    @settings(max_examples=150, deadline=None)
    @given(splat_scenes(), splat_scenes())
    def test_window_is_bit_identical_to_full_grid(self, scene, other):
        # both scenes of both grids go through one stamp cache
        stamps = {}
        for lists, width, height, stride in (scene, other):
            for boxes in lists:
                got = splat_boxes(boxes, width, height, stride, stamps).values
                want = full_grid_splats(boxes, width, height, stride)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        assert stamps
        for (rows, cols, _), stamp in stamps.items():
            assert stamp.shape[0] <= 2 * rows - 1
            assert stamp.shape[1] <= 2 * cols - 1

    def test_stamps_hold_one_call_reused_from_the_one_before(self):
        def key(b):  # a 100 x 100 image at stride 4 is a 25 x 25 grid
            return 25, 25, max(gaussian_radius(b.h / 4, b.w / 4) / 3, 1e-6)

        a, b, c = (Box2D(cx=50, cy=50, w=s, h=s) for s in (10.0, 20.0, 30.0))
        off = Box2D(cx=150, cy=50, w=40, h=40)  # centre cell off the grid
        stamps = {}
        splat_boxes([a, b, a], 100, 100, 4, stamps)
        assert stamps.keys() == {key(a), key(b)}
        first = dict(stamps)
        splat_boxes([b, c, off], 100, 100, 4, stamps)
        assert stamps.keys() == {key(b), key(c)}  # a's is gone
        assert stamps[key(b)] is first[key(b)]
        second = dict(stamps)
        splat_boxes([c, c], 100, 100, 4, stamps)
        assert stamps.keys() == {key(c)}
        assert stamps[key(c)] is second[key(c)]

    def test_splat_of_infinite_sigma_is_ones(self):
        box = Box2D(cx=50, cy=50, w=2e300, h=60)
        assert math.isinf(gaussian_radius(box.h / 4, box.w / 4))
        assert (splat_boxes([box], 100, 100, 4).values == 1.0).all()

    def test_each_provider_set_keeps_its_own_stamps(self, seq):
        one = OracleProviderSet(seq, NoiseConfig.noiseless())
        two = OracleProviderSet(seq, NoiseConfig.noiseless())
        one.objectness(0)
        assert one.stamps and not two.stamps
        two.objectness(0)
        assert two.stamps.keys() == one.stamps.keys()
        assert all(two.stamps[k] is not one.stamps[k] for k in one.stamps)

    def test_objectness_peaks_on_annotations(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        hm = prov.objectness(0)
        rows, cols = heatmap_shape(seq.intrinsics.width,
                                   seq.intrinsics.height, 4)
        assert hm.values.shape == (rows, cols)
        for a in seq.frames[0].annotations:
            r, c = int(a.box2d.cy / 4), int(a.box2d.cx / 4)
            if 0 <= r < rows and 0 <= c < cols:
                assert hm.values[r, c] == 1.0
