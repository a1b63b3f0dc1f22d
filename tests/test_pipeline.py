import numpy as np
import pytest

from autolabel3d.core import BACKWARD, FORWARD, InvalidArgument
from autolabel3d.pipeline import (PipelineConfig, STATUS_ACTIVE,
                                  STATUS_TERMINATED, coverage_report,
                                  emit_fncomp_weights, merge_bidirectional,
                                  propagate, run_pipeline)
from autolabel3d.providers import (MatchResult, NoiseConfig,
                                   OracleProviderSet)
from autolabel3d.sampling import SparseLabelSet, sample_sparse
from autolabel3d.simulator import SimConfig, simulate


@pytest.fixture(scope="module")
def seq():
    return simulate(SimConfig(seed=0, duration=12, object_count=2,
                              layout="grid"))


def sparse_for(seq, selected):
    return SparseLabelSet(sequence_id=seq.id,
                          selected={t: tuple(f) for t, f in selected.items()},
                          omitted=(), max_per_track=4, seed=0,
                          reduction_ratio=0.0)


class ScriptedProvider:
    """Ground-truth geometry with hand-scripted match confidences.

    ``conf`` maps (track_id, target_frame) to a confidence, or to None for a
    forced dropout; unscripted frames get confidence 1.
    """

    def __init__(self, seq, conf, heatmap_stride=4):
        self.oracle = OracleProviderSet(seq, NoiseConfig.noiseless(),
                                        heatmap_stride)
        self.conf = conf
        self.heatmap_stride = heatmap_stride
        self.match_calls = []

    def match(self, source_frame, track_id, target_frame):
        self.match_calls.append((source_frame, track_id, target_frame))
        c = self.conf.get((track_id, target_frame), 1.0)
        if c is None:
            return None
        m = self.oracle.match(source_frame, track_id, target_frame)
        if m is None:
            return None
        return MatchResult(box2d=m.box2d, confidence=c, mask=m.mask)

    def estimate(self, target_frame, track_id, box2d=None):
        return self.oracle.estimate(target_frame, track_id, box2d)

    def objectness(self, frame_index):
        return self.oracle.objectness(frame_index)


def labeled_frames(hyps, track_id):
    out = set()
    for h in hyps:
        if h.track_id == track_id:
            out |= {p.frame_index for p in h.pseudolabels}
    return out


class TestPropagate:
    def test_seed_has_confidence_one(self, seq):
        prov = ScriptedProvider(seq, {})
        hyps = propagate(seq, sparse_for(seq, {0: [3]}), prov,
                         PipelineConfig(), FORWARD)
        seed = hyps[0].pseudolabels[0]
        assert seed.frame_index == 3
        assert seed.confidence == 1.0
        assert seed.provenance.direction == FORWARD
        assert seed.provenance.source_frame_index == 3

    def test_discard_gate_is_strict(self, seq):
        cfg = PipelineConfig()
        below = ScriptedProvider(seq, {(0, 1): 0.49999})
        at = ScriptedProvider(seq, {(0, 1): 0.5})
        h_below = propagate(seq, sparse_for(seq, {0: [0]}), below, cfg, FORWARD)
        h_at = propagate(seq, sparse_for(seq, {0: [0]}), at, cfg, FORWARD)
        assert 1 not in labeled_frames(h_below, 0)
        assert 1 in labeled_frames(h_at, 0)

    def test_source_update_gate(self, seq):
        # confidence in [0.5, 0.75) accepts the frame but keeps the source
        # pinned; >= 0.75 advances it
        cfg = PipelineConfig()
        prov = ScriptedProvider(seq, {(0, 1): 0.6, (0, 2): 0.8, (0, 3): 0.9})
        hyps = propagate(seq, sparse_for(seq, {0: [0]}), prov, cfg, FORWARD)
        by_frame = {p.frame_index: p for p in hyps[0].pseudolabels}
        assert by_frame[1].provenance.source_frame_index == 0
        assert by_frame[2].provenance.source_frame_index == 0  # pinned at seed
        assert by_frame[3].provenance.source_frame_index == 2  # 0.8 advanced

    def test_three_misses_terminate(self, seq):
        cfg = PipelineConfig(max_consecutive_misses=3)
        prov = ScriptedProvider(seq, {(0, 1): None, (0, 2): 0.1,
                                      (0, 3): None})
        hyps = propagate(seq, sparse_for(seq, {0: [0]}), prov, cfg, FORWARD)
        assert hyps[0].status == STATUS_TERMINATED
        # frame 4 onwards must never be queried after termination
        assert all(t <= 3 for _, _, t in prov.match_calls)
        assert labeled_frames(hyps, 0) == {0}

    def test_miss_counter_resets_on_accept(self, seq):
        cfg = PipelineConfig(max_consecutive_misses=3)
        conf = {(0, f): None for f in (1, 2, 4, 5, 7, 8)}
        prov = ScriptedProvider(seq, conf)
        hyps = propagate(seq, sparse_for(seq, {0: [0]}), prov, cfg, FORWARD)
        assert hyps[0].status == STATUS_ACTIVE
        assert {3, 6, 9, 10, 11} <= labeled_frames(hyps, 0)

    def test_segment_bounded_by_next_seed(self, seq):
        prov = ScriptedProvider(seq, {})
        hyps = propagate(seq, sparse_for(seq, {0: [0, 5]}), prov,
                         PipelineConfig(), FORWARD)
        first = next(h for h in hyps if h.seed_frame == 0)
        assert {p.frame_index for p in first.pseudolabels} == {0, 1, 2, 3, 4}
        second = next(h for h in hyps if h.seed_frame == 5)
        assert {p.frame_index for p in second.pseudolabels} == set(range(5, 12))

    def test_backward_direction(self, seq):
        prov = ScriptedProvider(seq, {})
        hyps = propagate(seq, sparse_for(seq, {0: [5]}), prov,
                         PipelineConfig(), BACKWARD)
        assert {p.frame_index for p in hyps[0].pseudolabels} == set(range(6))
        targets = [t for _, _, t in prov.match_calls]
        assert targets == sorted(targets, reverse=True)

    def test_discard_threshold_monotone_subset(self, seq):
        # raising the discard threshold can only shrink the labeled set
        rng = np.random.default_rng(7)
        conf = {(t, f): float(rng.uniform(0.2, 1.0))
                for t in (0, 1) for f in range(12)}
        sparse = sparse_for(seq, {0: [0, 6], 1: [2, 9]})
        prev = None
        for thr in (0.3, 0.5, 0.7):
            prov = ScriptedProvider(seq, conf)
            cfg = PipelineConfig(discard_threshold=thr,
                                 source_update_threshold=max(thr, 0.75))
            merged, _, _ = run_pipeline(seq, sparse, prov, cfg)
            cur = {(p.track_id, p.frame_index) for p in merged}
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_provider_error_counts_as_miss(self, seq):
        class Exploding(ScriptedProvider):
            def estimate(self, target_frame, track_id, box2d=None):
                if target_frame == 1:
                    raise KeyError("scripted failure")
                return super().estimate(target_frame, track_id, box2d)

        prov = Exploding(seq, {})
        hyps = propagate(seq, sparse_for(seq, {0: [0]}), prov,
                         PipelineConfig(), FORWARD)
        # the failed frame is skipped like a dropout, and the segment goes on
        assert labeled_frames(hyps, 0) == set(range(12)) - {1}
        assert hyps[0].status == STATUS_ACTIVE

    def test_bad_direction(self, seq):
        with pytest.raises(InvalidArgument):
            propagate(seq, sparse_for(seq, {0: [0]}),
                      ScriptedProvider(seq, {}), PipelineConfig(), "sideways")

    @pytest.mark.parametrize("track_id, frame", [(0, 999), (77, 0)],
                             ids=["frame-absent", "track-absent"])
    def test_unannotated_sparse_label_is_rejected(self, seq, track_id, frame):
        with pytest.raises(InvalidArgument,
                           match=rf"track {track_id} at frame {frame}: "
                                 rf"sequence 'sim'"):
            propagate(seq, sparse_for(seq, {track_id: [frame]}),
                      ScriptedProvider(seq, {}), PipelineConfig(), FORWARD)

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            PipelineConfig(discard_threshold=0.8, source_update_threshold=0.5)
        with pytest.raises(InvalidArgument):
            PipelineConfig(max_consecutive_misses=0)


class TestMerge:
    def test_higher_confidence_wins(self, seq):
        sparse = sparse_for(seq, {0: [0]})
        fwd_prov = ScriptedProvider(seq, {(0, 5): 0.6})
        fwd = propagate(seq, sparse, fwd_prov, PipelineConfig(), FORWARD)
        sparse_b = sparse_for(seq, {0: [11]})
        bwd_prov = ScriptedProvider(seq, {(0, 5): 0.9})
        bwd = propagate(seq, sparse_b, bwd_prov, PipelineConfig(), BACKWARD)
        merged = merge_bidirectional(fwd, bwd, PipelineConfig())
        at5 = next(p for p in merged if p.frame_index == 5)
        assert at5.confidence == 0.9
        assert at5.provenance.direction == BACKWARD

    def test_tie_break_prefers_forward(self, seq):
        fwd = propagate(seq, sparse_for(seq, {0: [0]}),
                        ScriptedProvider(seq, {}), PipelineConfig(), FORWARD)
        bwd = propagate(seq, sparse_for(seq, {0: [11]}),
                        ScriptedProvider(seq, {}), PipelineConfig(), BACKWARD)
        merged = merge_bidirectional(fwd, bwd, PipelineConfig())
        for p in merged:
            if 0 < p.frame_index < 11:  # both directions offer confidence 1
                assert p.provenance.direction == FORWARD

    def test_tie_break_backward_option(self, seq):
        fwd = propagate(seq, sparse_for(seq, {0: [0]}),
                        ScriptedProvider(seq, {}), PipelineConfig(), FORWARD)
        bwd = propagate(seq, sparse_for(seq, {0: [11]}),
                        ScriptedProvider(seq, {}), PipelineConfig(), BACKWARD)
        cfg = PipelineConfig(merge_tie_break=BACKWARD)
        merged = merge_bidirectional(fwd, bwd, cfg)
        at5 = next(p for p in merged if p.frame_index == 5)
        assert at5.provenance.direction == BACKWARD

    def test_direction_lists_validated(self, seq):
        fwd = propagate(seq, sparse_for(seq, {0: [0]}),
                        ScriptedProvider(seq, {}), PipelineConfig(), FORWARD)
        with pytest.raises(InvalidArgument):
            merge_bidirectional(fwd, fwd, PipelineConfig())

    def test_one_label_per_track_frame(self, seq):
        sparse = sparse_for(seq, {0: [0, 6], 1: [3, 9]})
        merged, _, _ = run_pipeline(seq, sparse, ScriptedProvider(seq, {}),
                                    PipelineConfig())
        keys = [(p.track_id, p.frame_index) for p in merged]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


class TestFnCompWeights:
    def test_full_coverage_weights_near_one(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        sparse = sample_sparse(seq, max_per_track=4)
        merged, _, _ = run_pipeline(seq, sparse, prov, PipelineConfig())
        weights = emit_fncomp_weights(seq, merged, prov, PipelineConfig())
        for f in seq.frames:
            w = weights[f.frame_index].values
            for a in f.annotations:
                r, c = int(a.box2d.cy / 4), int(a.box2d.cx / 4)
                assert w[r, c] >= 0.99

    def test_uncovered_objects_downweighted(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        weights = emit_fncomp_weights(seq, [], prov, PipelineConfig())
        frame = seq.frames[0]
        w = weights[0].values
        for a in frame.annotations:
            r, c = int(a.box2d.cy / 4), int(a.box2d.cx / 4)
            assert w[r, c] <= 1e-9  # objectness peak 1, zero coverage

    def test_floor_applies(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        cfg = PipelineConfig(fncomp_floor=0.3)
        weights = emit_fncomp_weights(seq, [], prov, cfg)
        assert weights[0].values.min() >= 0.3

    def test_background_weight_is_one(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        weights = emit_fncomp_weights(seq, [], prov, PipelineConfig())
        assert weights[0].values[0, 0] == 1.0  # sky corner


class TestCoverageReport:
    def test_full_coverage(self, seq):
        prov = OracleProviderSet(seq, NoiseConfig.noiseless())
        sparse = sample_sparse(seq, max_per_track=4)
        merged, fwd, bwd = run_pipeline(seq, sparse, prov, PipelineConfig())
        rep = coverage_report(seq, merged, fwd + bwd)
        assert rep.overall_fraction == 1.0
        assert all(t.fraction == 1.0 for t in rep.per_track)
        assert all(t.mean_confidence > 0 for t in rep.per_track)
        assert rep.terminations == ()

    def test_termination_recorded(self, seq):
        prov = ScriptedProvider(seq, {(0, f): None for f in range(1, 12)})
        merged, fwd, bwd = run_pipeline(seq, sparse_for(seq, {0: [0]}), prov,
                                        PipelineConfig())
        rep = coverage_report(seq, merged, fwd + bwd)
        assert any(t == (0, FORWARD, 0) for t in rep.terminations)
        frac = next(t for t in rep.per_track if t.track_id == 0).fraction
        assert frac == pytest.approx(1.0 / 12.0)
