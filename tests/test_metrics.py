import dataclasses
import itertools
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from autolabel3d import metrics
from autolabel3d.core import (Annotation, Box2D, Box3D, CameraIntrinsics,
                              Frame, InvalidArgument, Provenance, Pseudolabel,
                              Sequence, FORWARD)
from autolabel3d.metrics import (DEFAULT_RECALL_GRID, amota_amotp, clear_mot,
                                 evaluate, hungarian, idf1)

K = CameraIntrinsics(fx=721.54, fy=721.54, cx=609.56, cy=172.85,
                     width=1242, height=375)
BOX2D = Box2D(cx=100, cy=100, w=40, h=30)


def box3d(center):
    return Box3D(center=tuple(center), dims=(4.0, 1.8, 1.5), yaw=0.0,
                 direction="towards")


def make_seq(tracks, n_frames):
    """tracks: {track_id: {frame: center}}"""
    frames = []
    for fi in range(n_frames):
        anns = tuple(
            Annotation(frame_index=fi, track_id=tid, box2d=BOX2D,
                       box3d=box3d(traj[fi]), occlusion_level=0)
            for tid, traj in sorted(tracks.items()) if fi in traj)
        frames.append(Frame(frame_index=fi, ego_pose=np.eye(3, 4),
                            annotations=anns))
    return Sequence(id="m", intrinsics=K, frames=tuple(frames),
                    frame_rate=10.0)


def pl(tid, fi, center, conf=1.0, box2d=BOX2D):
    return Pseudolabel(frame_index=fi, track_id=tid, box2d=box2d,
                       box3d=box3d(center), confidence=conf,
                       provenance=Provenance(direction=FORWARD,
                                             source_frame_index=fi))


def perfect_preds(seq, conf=1.0):
    return [pl(a.track_id, f.frame_index, a.box3d.center, conf)
            for f in seq.frames for a in f.annotations]


class TestHungarian:
    def test_known_3x3(self):
        cost = np.array([[4.0, 1.0, 3.0],
                         [2.0, 0.0, 5.0],
                         [3.0, 2.0, 2.0]])
        a = hungarian(cost)
        assert sum(cost[i, j] for i, j in a.items()) == 5.0

    def test_forbidden_pairs_skipped(self):
        cost = np.array([[np.inf, 1.0],
                         [np.inf, np.inf]])
        assert hungarian(cost) == {0: 1}

    def test_rectangular(self):
        cost = np.array([[1.0, 2.0, 0.5]])
        assert hungarian(cost) == {0: 2}

    def test_empty(self):
        assert hungarian(np.zeros((0, 0))) == {}

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgument):
            hungarian(np.array([[np.nan]]))

    def test_brute_force_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            cost = rng.uniform(0, 10, size=(n, n))
            cost[rng.random(size=(n, n)) < 0.3] = np.inf

            best_card, best_cost = -1, np.inf
            for perm in itertools.permutations(range(n)):
                card, total = 0, 0.0
                for i, j in enumerate(perm):
                    if np.isfinite(cost[i, j]):
                        card += 1
                        total += cost[i, j]
                if card > best_card or (card == best_card and total < best_cost):
                    best_card, best_cost = card, total

            got = hungarian(cost)
            got_cost = sum(cost[i, j] for i, j in got.items())
            assert len(got) == best_card
            assert got_cost == pytest.approx(best_cost, abs=1e-9)


def big_substituted(c):
    """``hungarian``'s work matrix: +inf replaced by a cost larger than any
    sum of finite ones."""
    finite = c[np.isfinite(c)]
    big = (float(np.abs(finite).sum()) if finite.size else 0.0) + 1.0
    return np.where(np.isfinite(c), c, big)


def scipy_hungarian(cost):
    """``hungarian`` as it was when it called scipy: the reference the
    pure-Python solver must reproduce exactly."""
    c = np.asarray(cost, dtype=float)
    if c.size == 0:
        return {}
    rows, cols = linear_sum_assignment(big_substituted(c))
    return {int(r): int(col) for r, col in zip(rows, cols)
            if math.isfinite(c[r, col])}


@st.composite
def cost_matrices(draw):
    """Rectangular matrices up to 12 x 12: small integers (many ties),
    arbitrary floats, negative ones included, or decimal fractions, with
    some +inf cells."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    cells = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.floats(-100, 100, allow_nan=False),
        st.sampled_from([0.0, 1.0, 1.5, math.inf]),
        # sums that tie in exact arithmetic but not in floating point, so
        # the order of the dual updates decides
        st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7]),
    ]))
    c = draw(hnp.arrays(float, shape, elements=cells))
    holes = draw(hnp.arrays(bool, shape))
    return np.where(holes & draw(st.booleans()), math.inf, c)


class TestScipyPort:
    @settings(max_examples=500, deadline=None)
    @given(cost_matrices())
    # the dual updates' rounding decides this one (about 1 in 10,000
    # decimal matrices is as sensitive)
    @example(np.array([[0.6, 0.2, 0.3, 0.7, 0.6, 0.6, 0.7],
                       [0.6, 0.7, 0.3, 0.7, 0.2, 0.7, 0.7],
                       [0.7, 0.1, 0.3, 0.1, 0.3, 0.2, 0.7],
                       [0.2, 0.3, 0.6, 0.2, 0.7, 0.7, 0.2],
                       [0.7, 0.2, 0.2, 0.6, 0.7, 0.7, 0.3],
                       [0.3, 0.7, 0.6, 0.3, 0.2, 0.3, 0.7],
                       [0.3, 0.2, 0.1, 0.6, 0.2, 0.2, 0.3],
                       [0.1, 0.2, 0.3, 0.2, 0.1, 0.1, 0.1]]))
    def test_same_assignment_as_scipy(self, c):
        work = big_substituted(c)
        rows, cols = linear_sum_assignment(work)
        assert metrics._lsap(work.tolist()) == (rows.tolist(), cols.tolist())
        assert hungarian(c) == scipy_hungarian(c)

    def test_constant_matrix_solves_to_identity(self):
        assert metrics._lsap([[2.0] * 4] * 3) == ([0, 1, 2], [0, 1, 2])
        assert metrics._lsap([[2.0] * 3] * 4) == ([0, 1, 2], [0, 1, 2])

    def test_cli_does_not_import_scipy(self):
        src = Path(metrics.__file__).resolve().parent.parent
        code = ("import sys, autolabel3d.cli; print(sorted(m for m in "
                "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def solver_assignment(dist, g_ids, p_ids):
    """``metrics._frame_assignment`` as it was when every frame went to
    ``hungarian``."""
    cost = np.full((len(g_ids), len(p_ids)), np.inf)
    for (g, p), d in dist.items():
        if g in g_ids and p in p_ids:
            cost[g_ids.index(g), p_ids.index(p)] = d
    return [(g_ids[i], p_ids[j], float(cost[i, j]))
            for i, j in hungarian(cost).items()]


@st.composite
def open_tracks(draw):
    """A frame's distances and its open gt and pred tracks, as many of
    either: at least two pairs that share no track, at times more that do,
    and pairs of closed tracks."""
    ids = st.lists(st.integers(0, 30), min_size=2, max_size=8, unique=True)
    g_ids, p_ids = draw(ids), draw(ids)
    k = draw(st.integers(2, min(len(g_ids), len(p_ids))))
    pairs = list(zip(draw(st.permutations(g_ids))[:k],
                     draw(st.permutations(p_ids))[:k]))
    pairs += draw(st.lists(st.tuples(st.sampled_from(g_ids),
                                     st.sampled_from(p_ids)), max_size=3))
    pairs += [(31, p_ids[0]), (g_ids[0], 31)]
    ds = st.floats(0.0, 2.0) | st.sampled_from([0.5, 1.0])
    return {pair: draw(ds) for pair in pairs}, g_ids, p_ids


class TestFrameAssignment:
    @settings(max_examples=400, deadline=None)
    @given(open_tracks())
    # more gt rows than pred columns, the pairs in neither track order
    @example(({(1, 8): 0.5, (2, 7): 1.0}, [3, 1, 2], [7, 8]))
    def test_same_pairs_in_the_same_order_as_the_solver(self, frame):
        assert metrics._frame_assignment(*frame) == solver_assignment(*frame)


class TestClearMot:
    def test_perfect_tracking(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(5)}}, 5)
        mota, motp, counts, _ = clear_mot(seq, perfect_preds(seq))
        assert mota == 1.0 and motp == 0.0
        assert counts == counts.__class__(tp=5, fp=0, fn=0, idsw=0, gt_total=5)

    def test_mota_point_six_fixture(self):
        # 2 GT tracks x 5 frames; pred misses track 1 on frames 0-1 (2 FN),
        # switches identity on track 1 at frame 4 (1 IDSW), and adds one
        # far spurious box (1 FP): MOTA = 1 - 4/10
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(5)},
                        1: {f: (5, 0, 10 + f) for f in range(5)}}, 5)
        preds = [pl(100, f, (0, 0, 10 + f)) for f in range(5)]
        preds += [pl(10, f, (5, 0, 10 + f)) for f in (2, 3)]
        preds += [pl(11, 4, (5, 0, 14))]
        preds += [pl(99, 0, (500, 0, 500))]
        mota, motp, counts, _ = clear_mot(seq, preds)
        assert counts.fn == 2 and counts.fp == 1 and counts.idsw == 1
        assert mota == pytest.approx(0.6, abs=1e-12)
        assert motp == pytest.approx(0.0, abs=1e-12)

    def test_motp_is_mean_matched_distance(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(5)}}, 5)
        preds = [pl(0, f, (1.0, 0, 10 + f)) for f in range(5)]
        mota, motp, counts, dist_sum = clear_mot(seq, preds)
        assert mota == 1.0
        assert motp == pytest.approx(1.0, abs=1e-12)
        assert dist_sum == pytest.approx(5.0, abs=1e-12)

    def test_beyond_threshold_counts_fp_and_fn(self):
        seq = make_seq({0: {0: (0, 0, 10)}}, 1)
        preds = [pl(0, 0, (5.0, 0, 10))]
        mota, _, counts, _ = clear_mot(seq, preds, dist_threshold=2.0)
        assert counts.fp == 1 and counts.fn == 1 and counts.tp == 0
        assert mota == -1.0

    def test_far_prediction_is_unmatched_without_a_warning(self):
        # its squared distance overflows to inf: no match, and no warning
        seq = make_seq({0: {0: (0, 0, 10)}}, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate(seq, [pl(0, 0, (0, 0, 1e200))], 2.0, (0.5, 1.0))
        assert (rep.counts.tp, rep.counts.fp, rep.counts.fn) == (0, 1, 1)
        assert rep.mota == -1.0

    def test_carry_over_prevents_flip_flop_switch(self):
        # two GT tracks crossing paths: the carried-over match survives as
        # long as it stays within the threshold, so no spurious switches
        seq = make_seq({0: {f: (0.0 + 0.1 * f, 0, 10) for f in range(5)},
                        1: {f: (0.5 - 0.1 * f, 0, 10) for f in range(5)}}, 5)
        preds = [pl(20, f, (0.0 + 0.1 * f, 0, 10)) for f in range(5)]
        preds += [pl(21, f, (0.5 - 0.1 * f, 0, 10)) for f in range(5)]
        _, _, counts, _ = clear_mot(seq, preds)
        assert counts.idsw == 0 and counts.tp == 10

    def test_carried_match_beats_a_nearer_newcomer(self):
        # frame 1 adds a prediction nearer than the one matched at frame 0;
        # the carried correspondence stays within the threshold and wins
        seq = make_seq({0: {f: (0, 0, 10) for f in range(2)}}, 2)
        preds = [pl(1, f, (0.9, 0, 10)) for f in range(2)]
        preds += [pl(2, 1, (0.1, 0, 10))]
        _, _, counts, dist_sum = clear_mot(seq, preds)
        assert (counts.tp, counts.fp, counts.idsw) == (2, 1, 0)
        assert dist_sum == pytest.approx(1.8, abs=1e-12)

    def test_relabel_invariance(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(4)},
                        1: {f: (6, 0, 10 + f) for f in range(4)}}, 4)
        preds = perfect_preds(seq)
        renamed = [pl(p.track_id + 1000, p.frame_index, p.box3d.center,
                      p.confidence) for p in preds]
        a = clear_mot(seq, preds)
        b = clear_mot(seq, renamed)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_duplicate_prediction_rejected(self):
        seq = make_seq({0: {0: (0, 0, 10)}}, 1)
        preds = [pl(0, 0, (0, 0, 10)), pl(0, 0, (1, 0, 10))]
        with pytest.raises(InvalidArgument):
            clear_mot(seq, preds)


class TestIdf1:
    def test_perfect(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(6)},
                        1: {f: (6, 0, 10 + f) for f in range(6)}}, 6)
        assert idf1(seq, perfect_preds(seq)) == 1.0

    def test_two_thirds_fixture(self):
        # 10 GT frames, 5 covered by one consistent id:
        # IDTP=5, IDFN=5, IDFP=0 -> 2*5 / (2*5 + 5) = 2/3
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)}}, 10)
        preds = [pl(7, f, (0, 0, 10 + f)) for f in range(5)]
        assert idf1(seq, preds) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_identity_split_penalized(self):
        # full coverage but identity changes halfway: the global match can
        # only credit one of the two pred ids
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)}}, 10)
        preds = [pl(1, f, (0, 0, 10 + f)) for f in range(5)]
        preds += [pl(2, f, (0, 0, 10 + f)) for f in range(5, 10)]
        # IDTP=5, IDFN=5, IDFP=5 -> 10/20
        assert idf1(seq, preds) == pytest.approx(0.5, abs=1e-12)

    def test_empty_both(self):
        seq = make_seq({}, 3)
        assert idf1(seq, []) == 1.0

    def test_no_preds(self):
        seq = make_seq({0: {0: (0, 0, 10)}}, 1)
        assert idf1(seq, []) == 0.0


class TestAmota:
    def test_perfect(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)}}, 10)
        amota, amotp, points = amota_amotp(seq, perfect_preds(seq))
        assert amota == 1.0
        assert amotp == 0.0
        assert len(points) == len(DEFAULT_RECALL_GRID)
        assert all(p.achievable for p in points)

    def test_half_coverage_fixture(self):
        # 20 GT boxes, 10 covered perfectly: recalls up to 0.5 achievable
        # with MOTAR 1, the rest score 0 -> AMOTA = 0.5
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)},
                        1: {f: (6, 0, 10 + f) for f in range(10)}}, 10)
        preds = [pl(0, f, (0, 0, 10 + f)) for f in range(10)]
        amota, amotp, points = amota_amotp(seq, preds)
        assert amota == pytest.approx(0.5, abs=1e-12)
        assert amotp == pytest.approx(0.0, abs=1e-12)
        for p in points:
            assert p.achievable == (p.recall <= 0.5)
            assert p.motar == (1.0 if p.achievable else 0.0)

    def test_single_fp_lowers_low_recall_motar(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)},
                        1: {f: (6, 0, 10 + f) for f in range(10)}}, 10)
        clean = perfect_preds(seq)
        dirty = clean + [pl(99, 0, (500, 0, 500), conf=1.0)]
        a_clean, _, _ = amota_amotp(seq, clean)
        a_dirty, _, pts = amota_amotp(seq, dirty)
        assert a_dirty < a_clean
        # at the lowest grid recall the single FP costs 1/(r*P)
        p = pts[0]
        assert p.motar == pytest.approx(1.0 - 1.0 / (0.05 * 20), abs=1e-12)

    def test_confidence_sweep_orders_thresholds(self):
        # half the preds at low confidence: high-recall points must use the
        # lower threshold and absorb its FPs
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)}}, 10)
        preds = [pl(0, f, (0, 0, 10 + f), conf=0.9) for f in range(5)]
        preds += [pl(0, f, (0, 0, 10 + f), conf=0.4) for f in range(5, 10)]
        fp_low = pl(99, 0, (500, 0, 500), conf=0.4)
        amota, _, pts = amota_amotp(seq, preds + [fp_low])
        for p in pts:
            if p.achievable and p.recall <= 0.5:
                assert p.fp == 0
            elif p.achievable:
                assert p.fp == 1

    def test_no_ground_truth_rejected(self):
        seq = make_seq({}, 2)
        with pytest.raises(InvalidArgument):
            amota_amotp(seq, [])

    def test_motar_never_exceeds_one(self):
        rng = np.random.default_rng(21)
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(8)},
                        1: {f: (6, 0, 10 + f) for f in range(8)}}, 8)
        preds = [pl(a.track_id, f.frame_index, a.box3d.center,
                    conf=float(rng.uniform(0.1, 1.0)))
                 for f in seq.frames for a in f.annotations]
        _, _, pts = amota_amotp(seq, preds)
        assert all(0.0 <= p.motar <= 1.0 for p in pts)


class TestEvaluate:
    def test_report_consistency(self):
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(6)},
                        1: {f: (6, 0, 10 + f) for f in range(6)}}, 6)
        rep = evaluate(seq, perfect_preds(seq))
        assert rep.mota == 1.0 and rep.idf1 == 1.0 and rep.amota == 1.0
        assert rep.counts.gt_total == 12
        assert rep.dist_threshold == 2.0
        assert len(rep.per_recall) == 20

    def test_sweep_solves_no_assignment_clear_mot_did_not(self, monkeypatch):
        # one confidence for every prediction: AMOTA's single threshold
        # keeps the same tracks open in every frame as CLEAR-MOT, so with
        # the shared memo it solves nothing new
        rng = np.random.default_rng(5)
        seq = make_seq({t: {f: (3.0 * t, 0, 10 + f) for f in range(12)}
                        for t in range(5)}, 12)
        preds = [pl(a.track_id + 10 * (f.frame_index // 4), f.frame_index,
                    np.add(a.box3d.center, rng.normal(0, 0.8, 3)), conf=0.7)
                 for f in seq.frames for a in f.annotations]
        lsap = metrics._lsap
        calls = []

        def counted(rows):
            calls.append(rows)
            return lsap(rows)

        monkeypatch.setattr(metrics, "_lsap", counted)
        clear_mot(seq, preds)
        idf1(seq, preds)
        alone = len(calls)
        calls.clear()
        evaluate(seq, preds)
        assert 1 < len(calls) <= alone


class TestOffSequencePredictions:
    @pytest.mark.parametrize("fn", [clear_mot, idf1, amota_amotp, evaluate],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("frame", [1, 7])
    def test_rejected_naming_the_frame(self, fn, frame):
        # frames 0, 2, 3: frame 1 is a gap, frame 7 lies past the end
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(4)}}, 4)
        seq = dataclasses.replace(
            seq, frames=tuple(f for f in seq.frames if f.frame_index != 1))
        preds = perfect_preds(seq) + [pl(5, frame, (0, 0, 10 + frame))]
        with pytest.raises(InvalidArgument,
                           match=f"track 5 at frame {frame}: sequence 'm'"):
            fn(seq, preds)


# -- AMOTA by one clear_mot per threshold and IDF1 by a dummy-padded
# assignment: the oracles of the association table the metrics share

def reference_sweep(seq, preds, dist_threshold):
    """(threshold, counts, matched distance sum) of one public ``clear_mot``
    on the predictions at or above each confidence, falling."""
    out = []
    for th in sorted({p.confidence for p in preds}, reverse=True):
        kept = [p for p in preds if p.confidence >= th]
        _, _, c, dist_sum = clear_mot(seq, kept, dist_threshold)
        out.append((th, c, dist_sum))
    return out


def reference_amota(seq, preds, dist_threshold):
    """AMOTA, AMOTP and the per-recall points from one public ``clear_mot``
    per confidence threshold."""
    gt_total = sum(len(f.annotations) for f in seq.frames)
    sweep = [(c.tp / gt_total, c, dist_sum / c.tp if c.tp else None)
             for _, c, dist_sum in reference_sweep(seq, preds, dist_threshold)]
    motars, motps, points = [], [], []
    for r in DEFAULT_RECALL_GRID:
        reached = [s for s in sweep if s[0] >= r]
        if not reached:
            motars.append(0.0)
            points.append(metrics.RecallPoint(r, 0.0, None, 0, 0, gt_total,
                                              0, False))
            continue
        _, c, motp = min(reached, key=lambda s: s[0])
        fn_r = max(c.fn, (1.0 - r) * gt_total)
        motars.append(max(1.0 - (c.idsw + c.fp + fn_r - (1.0 - r) * gt_total)
                          / (r * gt_total), 0.0))
        points.append(metrics.RecallPoint(r, motars[-1], motp, c.tp, c.fp,
                                          c.fn, c.idsw, True))
        if motp is not None:
            motps.append(motp)
    return (float(np.mean(motars)), float(np.mean(motps)) if motps else 0.0,
            points)


def reference_idf1(seq, preds, dist_threshold):
    """IDF1 by min-cost assignment over trajectories padded with dummies:
    pairing g with p costs IDFN + IDFP, leaving a trajectory unmatched
    costs its length."""
    gt, pr = {}, {}  # track -> {frame: center}
    for f in seq.frames:
        for a in f.annotations:
            gt.setdefault(a.track_id, {})[f.frame_index] = np.array(
                a.box3d.center)
    for p in preds:
        pr.setdefault(p.track_id, {})[p.frame_index] = np.array(p.box3d.center)
    total_gt = sum(len(t) for t in gt.values())
    total_pr = sum(len(t) for t in pr.values())
    if total_gt == 0 and total_pr == 0:
        return 1.0
    g_ids, p_ids = sorted(gt), sorted(pr)
    ng, np_ = len(g_ids), len(p_ids)
    cost = np.full((ng + np_, ng + np_), np.inf)
    cost[ng:, np_:] = 0.0
    overlap = np.zeros((ng, np_), dtype=int)
    for i, g in enumerate(g_ids):
        cost[i, np_ + i] = len(gt[g])
        for j, p in enumerate(p_ids):
            overlap[i, j] = sum(
                float(np.linalg.norm(gt[g][fi] - pr[p][fi])) <= dist_threshold
                for fi in gt[g].keys() & pr[p].keys())
            cost[i, j] = len(gt[g]) + len(pr[p]) - 2 * overlap[i, j]
    for j, p in enumerate(p_ids):
        cost[ng + j, j] = len(pr[p])
    idtp = sum(overlap[i, j] for i, j in hungarian(cost).items()
               if i < ng and j < np_)
    return 2.0 * idtp / (2.0 * idtp + (total_gt - idtp) + (total_pr - idtp))


@st.composite
def scenes(draw):
    """A few tracks over frames with index gaps and unannotated frames, and
    predictions in any order with tied confidences, some of them exactly
    ``dist_threshold`` from a gt centre."""
    thr = draw(st.sampled_from([0.5, 2.0]))
    frame_ids = sorted(draw(st.lists(st.integers(0, 12), min_size=1,
                                     max_size=6, unique=True)))
    coord = st.integers(-4, 4).map(lambda v: 0.5 * v)
    tracks = {tid: {fi: (draw(coord), 0.0, 10.0 + draw(coord))
                    for fi in frame_ids if draw(st.booleans())}
              for tid in range(draw(st.integers(0, 3)))}
    seq = make_seq(tracks, frame_ids[-1] + 1)
    seq = dataclasses.replace(seq, frames=tuple(
        f for f in seq.frames if f.frame_index in frame_ids))
    offsets = [(0.0, 0.0, 0.0), (thr, 0.0, 0.0), (0.0, 0.0, -thr),
               (0.25, 0.0, 0.25), (thr, 0.0, thr)]
    preds = []
    for tid in range(10, 10 + draw(st.integers(0, 4))):
        for f in seq.frames:
            kind = draw(st.sampled_from(["none", "near", "free"]))
            if kind == "near" and f.annotations:
                gt = draw(st.sampled_from(f.annotations)).box3d.center
                off = draw(st.sampled_from(offsets))
                center = tuple(c + o for c, o in zip(gt, off))
            elif kind != "none":
                center = (draw(coord), 0.0, 10.0 + draw(coord))
            else:
                continue
            preds.append(pl(tid, f.frame_index, center,
                            conf=draw(st.sampled_from([0.25, 0.5, 1.0]))))
    return seq, draw(st.permutations(preds)), thr


class TestSharedAssociation:
    @settings(max_examples=300, deadline=None)
    @given(scenes())
    def test_matches_per_threshold_clear_mot_and_padded_idf1(self, scene):
        seq, preds, thr = scene
        assert idf1(seq, preds, thr) == reference_idf1(seq, preds, thr)
        if any(f.annotations for f in seq.frames):
            assert (amota_amotp(seq, preds, thr)
                    == reference_amota(seq, preds, thr))


# -- AMOTA's sweep reuses the frames a threshold leaves unchanged

CONF_LEVELS = (0.15, 0.2, 0.3, 0.35, 0.45, 0.6, 0.7, 0.8, 0.85, 1.0)


@st.composite
def sweep_specs(draw):
    """Plain data for up to 5 gt tracks over up to 10 frames on a 1.5 m
    lattice, and up to 5 predicted tracks near them with 10 confidence
    levels: (frames, gts as (track, frame, x, z), preds as (track, frame,
    x, z, confidence)). A gt track stays put; offsets are not dyadic, so
    distance sums round."""
    n_frames = draw(st.integers(1, 10))
    cell = st.integers(-2, 2).map(lambda v: 1.5 * v)
    gts = tuple((t, f, x, z)
                for t, x, z in ((t, draw(cell), draw(cell))
                                for t in range(draw(st.integers(1, 5))))
                for f in range(n_frames) if draw(st.booleans()))
    off = st.sampled_from([0.0, 0.1, -0.3, 0.7, 1.1, -1.3])
    preds = []
    for t in range(10, 10 + draw(st.integers(0, 5))):
        for f in range(n_frames):
            near = [g for g in gts if g[1] == f]
            if near and draw(st.booleans()):
                _, _, x, z = draw(st.sampled_from(near))
                preds.append((t, f, x + draw(off), z + draw(off),
                              draw(st.sampled_from(CONF_LEVELS))))
    return n_frames, gts, tuple(preds)


def sweep_scene(n_frames, gts, preds):
    tracks: dict = {}
    for t, f, x, z in gts:
        tracks.setdefault(t, {})[f] = (x, 0.0, 10.0 + z)
    return make_seq(tracks, n_frames), [pl(t, f, (x, 0.0, 10.0 + z), c)
                                        for t, f, x, z, c in preds]


# At 1.0 frame 0 keeps only track 11, so frame 1 carries gt 1 and assigns
# gt 0, and hands frame 2 [(1, 11), (0, 10)]. At 0.6 frame 0 assigns both
# and frame 2 gets [(0, 10), (1, 11)]: an equal dict in another order,
# which sums frame 2's distances to other bits, so it must be stepped again
CARRIED_IN_ANOTHER_ORDER = (
    3, ((0, 0, 0.0, 0.0), (0, 1, 0.0, 0.0), (0, 2, 0.0, 0.0),
        (1, 0, 3.0, 0.0), (1, 1, 3.0, 0.0), (1, 2, 3.0, 0.0)),
    ((10, 0, 0.0, 0.0, 0.6), (11, 0, 4.1, 0.7, 1.0),
     (10, 1, 0.7, 0.7, 1.0), (11, 1, 4.1, 0.0, 1.0),
     (10, 2, 0.0, 0.7, 1.0), (11, 2, 4.1, 0.7, 1.0)))


class TestSweepReuse:
    @settings(max_examples=300, deadline=None)
    @given(sweep_specs())
    @example(CARRIED_IN_ANOTHER_ORDER)
    def test_each_threshold_is_its_own_clear_mot(self, spec):
        seq, preds = sweep_scene(*spec)
        if not any(f.annotations for f in seq.frames):
            return
        table = metrics._association(seq, preds, 2.0)
        got = [(th, c, s.hex()) for th, c, s in
               metrics._threshold_sweep(table, {})]
        want = [(th, c, s.hex()) for th, c, s in
                reference_sweep(seq, preds, 2.0)]
        assert got == want
        assert amota_amotp(seq, preds) == reference_amota(seq, preds, 2.0)

    def test_a_pass_steps_only_the_frames_it_changes(self, monkeypatch):
        rng = np.random.default_rng(7)
        seq = make_seq({t: {f: (2.5 * t, 0, 10 + f) for f in range(12)}
                        for t in range(5)}, 12)
        preds = [pl(a.track_id, f.frame_index,
                    np.add(a.box3d.center, rng.normal(0, 0.6, 3)),
                    conf=float(rng.uniform(0.1, 1.0)))
                 for f in seq.frames for a in f.annotations]
        levels = len({p.confidence for p in preds})
        assert levels >= 20
        step = metrics._frame_step
        calls = []

        def counted(*args):
            calls.append(args[1])
            return step(*args)

        monkeypatch.setattr(metrics, "_frame_step", counted)
        got = amota_amotp(seq, preds)
        assert len(calls) < 0.5 * levels * len(seq.frames)
        monkeypatch.undo()
        assert got == reference_amota(seq, preds, 2.0)
