"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them inline)."""

import csv
import dataclasses
import itertools
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from autolabel3d import formats, losses, metrics
from autolabel3d.cli import main as cli_main
from autolabel3d.config import NOISE_PROFILES
from autolabel3d.core import (Annotation, Box2D, Box3D, CameraIntrinsics,
                              Frame, Heatmap, Provenance, Pseudolabel,
                              Sequence, FORWARD)
from autolabel3d.geometry import (direction_of, lift_keypoints,
                                  project_keypoints, yaw_from_keypoints)
from autolabel3d.gradcheck import run_gradient_checks
from autolabel3d.metrics import amota_amotp, clear_mot, hungarian, idf1
from autolabel3d.pipeline import (PipelineConfig, propagate, run_pipeline)
from autolabel3d.providers import (MatchResult, NoiseConfig,
                                   OracleProviderSet)
from autolabel3d.sampling import mine_pairs, sample_sparse
from autolabel3d.simulator import SimConfig, simulate

DATA = Path(__file__).parent / "data"
ARTIFACTS = Path(__file__).parent.parent / "artifacts"

K_DEFAULT = CameraIntrinsics(fx=721.54, fy=721.54, cx=609.56, cy=172.85,
                             width=1242, height=375)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


# -- shared metric fixture helpers -----------------------------------------

BOX2D = Box2D(cx=100, cy=100, w=40, h=30)


def box3d(center):
    return Box3D(center=tuple(center), dims=(4.0, 1.8, 1.5), yaw=0.0,
                 direction="towards")


def make_seq(tracks, n_frames):
    frames = []
    for fi in range(n_frames):
        anns = tuple(
            Annotation(frame_index=fi, track_id=tid, box2d=BOX2D,
                       box3d=box3d(traj[fi]), occlusion_level=0)
            for tid, traj in sorted(tracks.items()) if fi in traj)
        frames.append(Frame(frame_index=fi, ego_pose=np.eye(3, 4),
                            annotations=anns))
    return Sequence(id="m", intrinsics=K_DEFAULT, frames=tuple(frames),
                    frame_rate=10.0)


def pl(tid, fi, center, conf=1.0):
    return Pseudolabel(frame_index=fi, track_id=tid, box2d=BOX2D,
                       box3d=box3d(center), confidence=conf,
                       provenance=Provenance(direction=FORWARD,
                                             source_frame_index=fi))


def run_cli(*argv):
    assert cli_main(list(argv)) == 0


def read_report(out: Path):
    return formats.parse_metric_report((out / "metric_report.txt").read_text())


def test_criterion_01_yaw_round_trip():
    with criterion(1, "yaw round trip, 1e4 boxes, < 1 s"):
        rng = np.random.default_rng(0)
        t0 = time.monotonic()
        worst_rt = 0.0
        for _ in range(10_000):
            dims = (float(rng.uniform(3.5, 5.5)), float(rng.uniform(1.6, 2.0)),
                    float(rng.uniform(1.4, 1.8)))
            z = max(float(rng.uniform(2.0, 80.0)), dims[0] / 2 + 0.3)
            b = Box3D(center=(float(rng.uniform(-10, 10)),
                              float(rng.uniform(-1, 2)), z),
                      dims=dims, yaw=float(rng.uniform(-math.pi, math.pi)),
                      direction="towards")
            b = Box3D(center=b.center, dims=b.dims, yaw=b.yaw,
                      direction=direction_of(b))
            pk = project_keypoints(b, K_DEFAULT)
            kp3 = lift_keypoints(pk, K_DEFAULT)
            got = yaw_from_keypoints(kp3, pk.direction)
            err = abs((got - b.yaw + math.pi) % (2 * math.pi) - math.pi)
            worst_rt = max(worst_rt, err)
            # both recovery branches must agree on exact keypoints
            other = "away" if pk.direction == "towards" else "towards"
            flipped = yaw_from_keypoints(kp3, other)
            diff = abs((got - flipped + math.pi) % (2 * math.pi) - math.pi)
            assert diff <= 1e-12
        elapsed = time.monotonic() - t0
        assert worst_rt < 1e-9, worst_rt
        assert elapsed < 1.0, elapsed


def test_criterion_02_hungarian_vs_brute_force():
    with criterion(2, "hungarian vs brute force, 1e3 matrices, < 10 s"):
        t0 = time.monotonic()
        perms = {n: np.array(list(itertools.permutations(range(n))))
                 for n in range(1, 8)}
        for i in range(1000):
            r = np.random.default_rng(i)
            n = int(r.integers(1, 8))
            cost = r.uniform(0, 10, (n, n))
            cost[r.random((n, n)) < 0.25] = np.inf
            got = hungarian(cost)
            got_cost = sum(cost[a, b] for a, b in got.items())
            vals = cost[np.arange(n)[None, :], perms[n]]
            finite = np.isfinite(vals)
            card = finite.sum(axis=1)
            tot = np.where(finite, vals, 0.0).sum(axis=1)
            best_card = card.max()
            best_cost = tot[card == best_card].min()
            assert len(got) == best_card
            assert got_cost == pytest.approx(best_cost, abs=1e-9)
        assert time.monotonic() - t0 < 10.0


def test_criterion_03_metric_fixtures():
    with criterion(3, "hand-computed metric fixtures exact to 1e-12"):
        # MOTA = 1 - (2 FN + 1 FP + 1 IDSW) / 10 = 0.6
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(5)},
                        1: {f: (5, 0, 10 + f) for f in range(5)}}, 5)
        preds = [pl(100, f, (0, 0, 10 + f)) for f in range(5)]
        preds += [pl(10, f, (5, 0, 10 + f)) for f in (2, 3)]
        preds += [pl(11, 4, (5, 0, 14))]
        preds += [pl(99, 0, (500, 0, 500))]
        mota, _, _, _ = clear_mot(seq, preds)
        assert abs(mota - 0.6) <= 1e-12

        # MOTP: every matched prediction offset by exactly 1 m
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(5)}}, 5)
        offset = [pl(0, f, (1.0, 0, 10 + f)) for f in range(5)]
        _, motp, _, _ = clear_mot(seq, offset)
        assert abs(motp - 1.0) <= 1e-12

        # IDF1: 10 GT frames, 5 covered with one id -> 2*5/(2*5+5) = 2/3
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)}}, 10)
        half = [pl(7, f, (0, 0, 10 + f)) for f in range(5)]
        assert abs(idf1(seq, half) - 2.0 / 3.0) <= 1e-12

        # AMOTA: perfect predictions score 1.0
        seq = make_seq({0: {f: (0, 0, 10 + f) for f in range(10)},
                        1: {f: (6, 0, 10 + f) for f in range(10)}}, 10)
        perfect = [pl(a.track_id, f.frame_index, a.box3d.center)
                   for f in seq.frames for a in f.annotations]
        amota, _, _ = amota_amotp(seq, perfect)
        assert abs(amota - 1.0) <= 1e-12

        # AMOTA: half the boxes covered perfectly -> half the recall grid
        # achievable at MOTAR 1 -> 0.5
        half = [pl(0, f, (0, 0, 10 + f)) for f in range(10)]
        amota, _, _ = amota_amotp(seq, half)
        assert abs(amota - 0.5) <= 1e-12


def test_criterion_04_noiseless_end_to_end(tmp_path):
    with criterion(4, "noiseless 200-frame 8-track e2e: MOTA=1, < 30 s"):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim:\n"
            "  duration: 200\n"
            "  object_count: 8\n"
            "  layout: grid\n"
            "  seed: 0\n"
            "noise: noiseless\n"
            "sampling:\n"
            "  max_per_track: 4\n")
        out = tmp_path / "out"
        t0 = time.monotonic()
        run_cli("--config", str(cfg), "--out", str(out), "e2e")
        elapsed = time.monotonic() - t0
        rep = read_report(out)
        assert rep.mota == 1.0
        assert rep.idf1 == 1.0
        assert rep.motp <= 1e-6
        assert elapsed < 30.0, elapsed


class _Scripted:
    """Ground-truth geometry with scripted per-frame match confidence."""

    def __init__(self, seq, conf):
        self.oracle = OracleProviderSet(seq, NoiseConfig.noiseless())
        self.conf = conf
        self.heatmap_stride = 4

    def match(self, source_frame, track_id, target_frame):
        c = self.conf.get((track_id, target_frame), 1.0)
        if c is None:
            return None
        m = self.oracle.match(source_frame, track_id, target_frame)
        if m is None:
            return None
        return MatchResult(box2d=m.box2d, confidence=c, mask=m.mask)

    def estimate(self, target_frame, track_id, box2d=None):
        return self.oracle.estimate(target_frame, track_id, box2d)


def test_criterion_05_gate_semantics():
    with criterion(5, "confidence gates at 0.5/0.75 and 3-miss termination"):
        seq = simulate(SimConfig(seed=0, duration=10, object_count=1,
                                 layout="grid"))
        sparse = sample_sparse(seq, max_per_track=1)
        assert sparse.selected[0] == (4,)  # middle frame seeds
        cfg = PipelineConfig()

        conf = {(0, 5): 0.49, (0, 6): 0.50, (0, 7): 0.749, (0, 8): 0.75}
        hyps = propagate(seq, sparse, _Scripted(seq, conf), cfg, FORWARD)
        by_frame = {p.frame_index: p for p in hyps[0].pseudolabels}
        assert 5 not in by_frame                      # 0.49 discarded
        assert by_frame[6].confidence == 0.50         # 0.50 accepted
        # 0.749 accepted but source still pinned at the seed
        assert by_frame[7].provenance.source_frame_index == 4
        # 0.75 advances the source; the next frame propagates from 8
        assert by_frame[9].provenance.source_frame_index == 8

        # 3 consecutive misses terminate the hypothesis
        misses = {(0, f): None for f in (5, 6, 7)}
        hyps = propagate(seq, sparse, _Scripted(seq, misses), cfg, FORWARD)
        assert hyps[0].status == "terminated"
        assert {p.frame_index for p in hyps[0].pseudolabels} == {4}


def test_criterion_06_merge_dominance():
    with criterion(6, "merged coverage and MOTA dominate single directions"):
        cfg = PipelineConfig()
        for profile in ("light", "medium", "heavy_dropout"):
            for seed in range(5):
                seq = simulate(SimConfig(seed=seed, duration=60,
                                         object_count=6))
                noise = dataclasses.replace(NOISE_PROFILES[profile],
                                            seed=seed)
                prov = OracleProviderSet(seq, noise)
                sparse = sample_sparse(seq, 4, seed)
                merged, fwd, bwd = run_pipeline(seq, sparse, prov, cfg)
                fwd_pl = [p for h in fwd for p in h.pseudolabels]
                bwd_pl = [p for h in bwd for p in h.pseudolabels]
                mcov = {(p.track_id, p.frame_index) for p in merged}
                assert {(p.track_id, p.frame_index) for p in fwd_pl} <= mcov
                assert {(p.track_id, p.frame_index) for p in bwd_pl} <= mcov
                m = clear_mot(seq, merged)[0]
                f = clear_mot(seq, fwd_pl)[0]
                b = clear_mot(seq, bwd_pl)[0]
                assert m >= max(f, b) - 1e-12, (profile, seed, m, f, b)


def test_criterion_07_fncomp_weights():
    with criterion(7, "FN-compensation downweights uncovered GT centers"):
        seq = simulate(SimConfig(seed=3, duration=60, object_count=6))
        noise = dataclasses.replace(NOISE_PROFILES["heavy_dropout"], seed=3)
        prov = OracleProviderSet(seq, noise)
        cfg = PipelineConfig()
        merged, _, _ = run_pipeline(seq, sample_sparse(seq, 4, 3), prov, cfg)
        covered = {(p.track_id, p.frame_index) for p in merged}
        gt = [(a.track_id, f.frame_index, a)
              for f in seq.frames for a in f.annotations]
        uncovered = [g for g in gt if (g[0], g[1]) not in covered]
        assert len(uncovered) >= 0.1 * len(gt)  # precondition of the test

        from autolabel3d.pipeline import emit_fncomp_weights
        weights = emit_fncomp_weights(seq, merged, prov, cfg)
        cov_w, unc_w = [], []
        for tid, fi, a in gt:
            w = weights[fi].values
            r, c = int(a.box2d.cy / 4), int(a.box2d.cx / 4)
            if 0 <= r < w.shape[0] and 0 <= c < w.shape[1]:
                (cov_w if (tid, fi) in covered else unc_w).append(w[r, c])
        assert float(np.mean(unc_w)) <= 0.1
        assert float(np.mean(cov_w)) >= 0.99


def test_criterion_08_annotation_count_sweep(tmp_path):
    with criterion(8, "coverage/MOTA nondecreasing in max_per_track"):
        # noiseless: ordering asserted
        seq = simulate(SimConfig(seed=1, duration=80, object_count=6))
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        cfg = PipelineConfig()
        prev_cov, prev_mota = -1.0, -np.inf
        for k in (2, 4, 8, 16):
            merged, _, _ = run_pipeline(seq, sample_sparse(seq, k, 1), prov,
                                        cfg)
            from autolabel3d.pipeline import coverage_report
            cov = coverage_report(seq, merged).overall_fraction
            mota = clear_mot(seq, merged)[0]
            assert cov >= prev_cov - 1e-12 and mota >= prev_mota - 1e-12
            prev_cov, prev_mota = cov, mota

        # noisy: no ordering asserted; the series must match the archived one
        run_cfg = tmp_path / "run.yaml"
        run_cfg.write_text("sim:\n  duration: 60\n  object_count: 6\n"
                           "noise: medium\n")
        out = tmp_path / "out"
        run_cli("--config", str(run_cfg), "--out", str(out), "e2e",
                "--sweep", "max_per_track=2,4,8,16")
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["max_per_track"] for r in rows] == ["2", "4", "8", "16"]
        assert (out / "sweep.csv").read_bytes() == \
            (ARTIFACTS / "sweep_noisy.csv").read_bytes()


def test_criterion_09_loss_gradients():
    with criterion(9, "analytic gradients within 1e-4 of finite differences"):
        for name, err, n, passed in run_gradient_checks(seed=0, n_points=100):
            assert passed and err < 1e-4, (name, err)
            assert n == 100
        # closed-form spot values
        assert losses.info_nce([1.0, 0.0], [2.0, 0.0], [[-3.0, 0.0]],
                               temperature=1.0).value == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-9)
        assert losses.focal_center_loss(
            np.array([[0.5]]), np.array([[1.0]])).value == pytest.approx(
            0.25 * math.log(2), abs=1e-9)
        assert losses.bce_loss([0.5, 0.5], [0.0, 1.0]).value == pytest.approx(
            math.log(2), abs=1e-9)
        assert losses.bce_loss([0.9], [0.0], weight=[0.5]).value == \
            pytest.approx(0.5 * -math.log(0.1), abs=1e-9)


def test_criterion_10_parser_golden_and_roundtrips(tmp_path):
    with criterion(10, "KITTI golden byte-identity + 1e3 format roundtrips"):
        out = tmp_path / "out"
        run_cli("--out", str(out), "parse-kitti",
                "--labels", str(DATA / "kitti_labels.txt"),
                "--calib", str(DATA / "kitti_calib.txt"))
        assert (out / "sequence.txt").read_bytes() == \
            (DATA / "kitti_golden_sequence.txt").read_bytes()

        import test_formats as tf
        count = 0
        for seed in range(300):
            seq = tf.make_sequence(seed)
            assert formats.parse_sequence(formats.serialize_sequence(seq)) \
                == seq
            count += 1
        for seed in range(300):
            labels = tf.make_pseudolabels(seed)
            text = formats.serialize_pseudolabels(labels)
            assert formats.parse_pseudolabels(text) == labels
            count += 1
        for seed in range(150):
            seq = tf.make_sequence(seed, n_frames=6)
            sparse = sample_sparse(seq, 1 + seed % 4, seed)
            text = formats.serialize_sparse_labels(sparse)
            assert formats.parse_sparse_labels(text) == sparse
            pairs = mine_pairs(seq, sparse, window=seed % 5)
            assert formats.parse_mining_pairs(
                formats.serialize_mining_pairs(pairs)) == pairs
            count += 2
        rng = np.random.default_rng(0)
        for _ in range(100):
            maps = {int(i): Heatmap(values=rng.random((5, 8)), stride=4)
                    for i in range(3)}
            text = formats.serialize_weight_maps(maps)
            got = formats.parse_weight_maps(text)
            assert got.keys() == maps.keys()
            assert all(np.array_equal(got[i].values, maps[i].values)
                       for i in maps)
            count += 1
        assert count >= 1000


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "repeated e2e runs are byte-identical"):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("sim:\n  duration: 60\n  object_count: 6\n"
                       "noise: medium\n")
        snapshots = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli("--config", str(cfg), "--out", str(out), "e2e")
            snapshots.append(sorted(
                (p.name, p.read_bytes()) for p in out.iterdir()))
        assert snapshots[0] == snapshots[1]
