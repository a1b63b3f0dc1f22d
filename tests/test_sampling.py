import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autolabel3d.core import (Annotation, Box2D, Box3D, CameraIntrinsics,
                              Frame, InvalidArgument, Sequence)
from autolabel3d.sampling import (MiningPair, is_eligible, mine_pairs,
                                  sample_sparse, uniform_positions)


def track_sequence(occlusion_by_frame, seq_id="t"):
    """One-track sequence; occlusion_by_frame maps frame -> occlusion level."""
    K = CameraIntrinsics(fx=700, fy=700, cx=620, cy=187, width=1242, height=375)
    frames = []
    for fi in sorted(occlusion_by_frame):
        ann = Annotation(frame_index=fi, track_id=0,
                         box2d=Box2D(100, 100, 40, 30),
                         box3d=Box3D(center=(0, 0, 10 + fi), dims=(4, 1.8, 1.5),
                                     yaw=0.0, direction="towards"),
                         occlusion_level=occlusion_by_frame[fi])
        frames.append(Frame(frame_index=fi, ego_pose=np.eye(3, 4),
                            annotations=(ann,)))
    return Sequence(id=seq_id, intrinsics=K, frames=tuple(frames),
                    frame_rate=10.0)


class TestUniformPositions:
    def test_six_choose_four(self):
        assert uniform_positions(6, 4) == [0, 2, 3, 5]

    def test_oracle_minimal_max_gap(self):
        # exhaustive oracle: the chosen positions' max gap equals the
        # minimum achievable max gap over all subsets containing 0 and n-1
        from itertools import combinations
        for n in range(2, 10):
            for k in range(2, n + 1):
                chosen = uniform_positions(n, k)
                gap = max(b - a for a, b in zip(chosen, chosen[1:]))
                best = min(
                    max(b - a for a, b in zip((0,) + c + (n - 1,),
                                              c + (n - 1,)))
                    for c in combinations(range(1, n - 1), k - 2)
                ) if k > 2 else n - 1
                assert chosen[0] == 0 and chosen[-1] == n - 1
                assert gap == best

    def test_fewer_than_budget(self):
        assert uniform_positions(3, 4) == [0, 1, 2]


class TestSampleSparse:
    def test_six_eligible_max_four(self):
        seq = track_sequence({i: 0 for i in range(6)})
        sparse = sample_sparse(seq, max_per_track=4)
        assert sparse.selected[0] == (0, 2, 3, 5)

    def test_fewer_than_budget_takes_all(self):
        seq = track_sequence({i: 0 for i in range(3)})
        sparse = sample_sparse(seq, max_per_track=4)
        assert sparse.selected[0] == (0, 1, 2)

    def test_fully_occluded_track_omitted(self):
        seq = track_sequence({i: 2 for i in range(5)})
        sparse = sample_sparse(seq)
        assert 0 not in sparse.selected
        assert sparse.omitted == ((0, "no-eligible-frames"),)

    def test_occlusion_three_ineligible(self):
        seq = track_sequence({0: 3, 1: 0})
        sparse = sample_sparse(seq)
        assert sparse.selected[0] == (1,)

    def test_selected_are_eligible(self):
        seq = track_sequence({0: 0, 1: 2, 2: 0, 3: 2, 4: 1, 5: 0, 6: 2})
        sparse = sample_sparse(seq, max_per_track=3)
        anns = {f.frame_index: f.annotations[0] for f in seq.frames}
        for fi in sparse.selected[0]:
            assert is_eligible(anns[fi])

    def test_reduction_ratio(self):
        seq = track_sequence({i: 0 for i in range(10)})
        sparse = sample_sparse(seq, max_per_track=4)
        assert sparse.reduction_ratio == pytest.approx(0.6)

    def test_deterministic(self):
        seq = track_sequence({i: 0 for i in range(9)})
        a = sample_sparse(seq, 4, seed=1)
        b = sample_sparse(seq, 4, seed=1)
        assert a == b

    def test_bad_budget(self):
        seq = track_sequence({0: 0})
        with pytest.raises(InvalidArgument):
            sample_sparse(seq, max_per_track=0)

    def test_visibility_gate(self):
        seq = track_sequence({0: 0, 1: 0})
        ann0 = seq.frames[0].annotations[0]
        low_vis = Annotation(frame_index=0, track_id=0, box2d=ann0.box2d,
                             box3d=ann0.box3d, occlusion_level=0, visibility=1)
        assert not is_eligible(low_vis)


def sparse_with(seq, labeled):
    from autolabel3d.sampling import SparseLabelSet
    return SparseLabelSet(sequence_id=seq.id, selected={0: tuple(labeled)},
                          omitted=(), max_per_track=len(labeled), seed=0,
                          reduction_ratio=0.0)


def test_a_track_both_selected_and_omitted_is_rejected():
    seq = track_sequence({0: 0, 3: 0})
    with pytest.raises(InvalidArgument, match="track 0 is both selected "
                                              "and omitted"):
        replace(sparse_with(seq, [0, 3]),
                omitted=((2, "no-eligible-frames"),
                         (0, "no-eligible-frames")))


@pytest.mark.parametrize("field, value, message", [
    ("max_per_track", 0, "max_per_track must be >= 1, got 0"),
    ("seed", -4, "seed must be >= 0, got -4"),
    ("reduction_ratio", math.nan, r"reduction_ratio must be in \[0.0, 1.0\], "
                                  "got nan"),
    ("reduction_ratio", 1.5, "reduction_ratio must be in"),
    ("reduction_ratio", -0.25, "reduction_ratio must be in"),
], ids=["zero-budget", "negative-seed", "nan-ratio", "ratio-above-one",
        "negative-ratio"])
def test_header_values_are_checked_with_no_track(field, value, message):
    from autolabel3d.sampling import SparseLabelSet
    fields = dict(sequence_id="sim", selected={}, omitted=(), max_per_track=4,
                  seed=0, reduction_ratio=0.0)
    SparseLabelSet(**fields)
    with pytest.raises(InvalidArgument, match=message):
        SparseLabelSet(**fields | {field: value})


def brute_force_counts(labeled, unlabeled, window):
    L, U = sorted(labeled), sorted(unlabeled)
    self_n = len(L)
    support = sum(1 for a in L for b in L if a != b)
    cycle = sum(1 for a in L for u in U if abs(u - a) <= window)
    step = sum(1 for a in L for u in U if abs(u - a) <= window
               for b in L if b != a)
    return self_n, support, cycle, step


class TestMinePairs:
    def test_no_unlabeled(self):
        seq = track_sequence({0: 0, 10: 0})
        pairs = mine_pairs(seq, sparse_with(seq, [0, 10]), window=3)
        by = {}
        for p in pairs:
            by.setdefault(p.strategy, []).append(p)
        assert len(by.get("self", [])) == 2
        assert len(by.get("support", [])) == 2
        assert "cycle" not in by and "step_support" not in by

    def test_window_limits_waypoints(self):
        frames = {0: 0, 1: 0, 2: 0, 9: 0, 10: 0, 11: 0}
        seq = track_sequence(frames)
        pairs = mine_pairs(seq, sparse_with(seq, [0, 10]), window=2)
        cycles = [p for p in pairs if p.strategy == "cycle"]
        steps = [p for p in pairs if p.strategy == "step_support"]
        assert len(cycles) == 4
        assert len(steps) == 4

    def test_single_label(self):
        seq = track_sequence({5: 0, 6: 0, 7: 0})
        pairs = mine_pairs(seq, sparse_with(seq, [5]), window=3)
        strategies = [p.strategy for p in pairs]
        assert strategies.count("self") == 1
        assert strategies.count("support") == 0
        assert strategies.count("step_support") == 0

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 24), min_size=1, max_size=5),
           st.sets(st.integers(0, 24), min_size=0, max_size=10),
           st.integers(0, 10))
    def test_counts_match_brute_force(self, labeled, unlabeled, window):
        unlabeled = unlabeled - labeled
        all_frames = sorted(labeled | unlabeled)
        seq = track_sequence({fi: 0 for fi in all_frames})
        pairs = mine_pairs(seq, sparse_with(seq, sorted(labeled)), window)
        got = [sum(1 for p in pairs if p.strategy == s)
               for s in ("self", "support", "cycle", "step_support")]
        assert tuple(got) == brute_force_counts(labeled, unlabeled, window)
        # per-strategy invariants enforced by MiningPair construction;
        # also check the deterministic ordering
        assert pairs == sorted(
            pairs, key=lambda p: (p.track_id,
                                  ("self", "support", "cycle",
                                   "step_support").index(p.strategy),
                                  p.source_frame,
                                  -1 if p.waypoint_frame is None
                                  else p.waypoint_frame,
                                  p.target_frame))

    def test_occluded_waypoints_excluded(self):
        seq = track_sequence({0: 0, 1: 2, 2: 0, 4: 0})
        pairs = mine_pairs(seq, sparse_with(seq, [0, 4]), window=4)
        waypoints = {p.waypoint_frame for p in pairs
                     if p.waypoint_frame is not None}
        assert 1 not in waypoints
        assert 2 in waypoints

    @pytest.mark.parametrize("track, frame", [(9, 3), (0, 99)],
                             ids=["unknown-track", "unannotated-frame"])
    def test_label_the_sequence_lacks_is_rejected(self, track, frame):
        seq = track_sequence({0: 0, 3: 0, 5: 0}, seq_id="mp")
        sparse = replace(sparse_with(seq, [0, 5]),
                         selected={0: (0, 5), track: (frame,)})
        with pytest.raises(InvalidArgument, match=(
                f"^sparse label of track {track} at frame {frame}: "
                "sequence 'mp' has no such annotation$")):
            mine_pairs(seq, sparse)

    def test_invariant_enforcement(self):
        with pytest.raises(InvalidArgument):
            MiningPair(0, "self", 1, None, 2)
        with pytest.raises(InvalidArgument):
            MiningPair(0, "support", 1, 3, 2)
        with pytest.raises(InvalidArgument):
            MiningPair(0, "cycle", 1, 2, 3)
        with pytest.raises(InvalidArgument):
            MiningPair(0, "step_support", 1, 2, 1)
