"""Pseudolabel generation: bidirectional propagation, confidence gating,
merge, and false-negative compensation weight maps.

Each sparse label seeds a propagation segment that steps frame-by-frame in
one direction until it reaches the next sparse label of the same track, the
end of the sequence, or the consecutive-miss budget. Predictions below the
discard threshold are dropped; the source frame advances only on
high-confidence matches. Forward and backward outputs are merged per frame
by confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .core import (BACKWARD, FORWARD, Box3D, Heatmap, InvalidArgument,
                   Provenance, Pseudolabel, Sequence, TwoFrameCache,
                   no_such_frame)
from .geometry import (BehindCameraError, DegenerateKeypointsError,
                       lift_keypoints, yaw_from_keypoints)
from .providers import splat_boxes
from .sampling import SparseLabelSet, labeled_annotation

STATUS_ACTIVE = "active"
STATUS_TERMINATED = "terminated"


@dataclass(frozen=True)
class PipelineConfig:
    discard_threshold: float = 0.5
    source_update_threshold: float = 0.75
    max_consecutive_misses: int = 3
    merge_tie_break: str = FORWARD
    fncomp_floor: float = 0.0  # w_min

    def __post_init__(self):
        for name in ("discard_threshold", "source_update_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgument(
                    f"pipeline.{name} must lie in [0, 1], got {v!r}")
        if self.discard_threshold > self.source_update_threshold:
            raise InvalidArgument(
                "pipeline.discard_threshold must be <= "
                f"pipeline.source_update_threshold, got "
                f"{self.discard_threshold!r} > "
                f"{self.source_update_threshold!r}")
        if self.max_consecutive_misses < 1:
            raise InvalidArgument(
                "pipeline.max_consecutive_misses must be >= 1, got "
                f"{self.max_consecutive_misses!r}")
        if self.merge_tie_break not in (FORWARD, BACKWARD):
            raise InvalidArgument(
                f"pipeline.merge_tie_break must be {FORWARD!r} or "
                f"{BACKWARD!r}, got {self.merge_tie_break!r}")
        if not 0.0 <= self.fncomp_floor <= 1.0:
            raise InvalidArgument("pipeline.fncomp_floor must lie in [0, 1], "
                                  f"got {self.fncomp_floor!r}")


@dataclass
class TrackHypothesis:
    track_id: int
    direction: str
    seed_frame: int
    pseudolabels: list[Pseudolabel] = field(default_factory=list)
    source_frame: int = -1
    consecutive_misses: int = 0
    status: str = STATUS_ACTIVE


def propagate(seq: Sequence, sparse: SparseLabelSet, providers,
              cfg: PipelineConfig, direction: str) -> list[TrackHypothesis]:
    """Propagate every sparse seed of every track in one direction."""
    if direction not in (FORWARD, BACKWARD):
        raise InvalidArgument(f"unknown direction {direction!r}")
    all_frames = [f.frame_index for f in seq.frames]
    hypotheses: list[TrackHypothesis] = []

    for track_id in sorted(sparse.selected):
        seeds = list(sparse.selected[track_id])
        seed_set = set(seeds)
        for seed in seeds:
            hyp = TrackHypothesis(track_id=track_id, direction=direction,
                                  seed_frame=seed, source_frame=seed)
            ann = labeled_annotation(seq, track_id, seed)
            hyp.pseudolabels.append(Pseudolabel(
                frame_index=seed, track_id=track_id, box2d=ann.box2d,
                box3d=ann.box3d, confidence=1.0,
                provenance=Provenance(direction=direction,
                                      source_frame_index=seed),
                mask=ann.mask))

            if direction == FORWARD:
                targets = [f for f in all_frames if f > seed]
            else:
                targets = [f for f in reversed(all_frames) if f < seed]

            for target in targets:
                if target in seed_set:
                    break  # segment bounded by the next sparse label
                accepted = None
                try:
                    m = providers.match(hyp.source_frame, track_id, target)
                    if m is not None and m.confidence >= cfg.discard_threshold:
                        g = providers.estimate(target, track_id, m.box2d)
                        kp3 = lift_keypoints(g.keypoints_px, seq.intrinsics)
                        yaw = yaw_from_keypoints(kp3, g.direction)
                        box3d = Box3D(center=kp3.center, dims=g.dims, yaw=yaw,
                                      direction=g.direction)
                        accepted = Pseudolabel(
                            frame_index=target, track_id=track_id,
                            box2d=m.box2d, box3d=box3d,
                            confidence=m.confidence,
                            provenance=Provenance(
                                direction=direction,
                                source_frame_index=hyp.source_frame),
                            mask=m.mask)
                except (KeyError, BehindCameraError, DegenerateKeypointsError,
                        InvalidArgument):
                    pass  # a failed query is a miss

                if accepted is None:
                    hyp.consecutive_misses += 1
                    if hyp.consecutive_misses >= cfg.max_consecutive_misses:
                        hyp.status = STATUS_TERMINATED
                        break
                    continue
                hyp.consecutive_misses = 0
                hyp.pseudolabels.append(accepted)
                if accepted.confidence >= cfg.source_update_threshold:
                    hyp.source_frame = target
            hypotheses.append(hyp)
    return hypotheses


def merge_bidirectional(fwd: list[TrackHypothesis], bwd: list[TrackHypothesis],
                        cfg: PipelineConfig) -> list[Pseudolabel]:
    """Keep the higher-confidence pseudolabel per (track, frame)."""
    for h in fwd:
        if h.direction != FORWARD:
            raise InvalidArgument("forward list contains a backward hypothesis")
    for h in bwd:
        if h.direction != BACKWARD:
            raise InvalidArgument("backward list contains a forward hypothesis")

    ordered = (fwd + bwd) if cfg.merge_tie_break == FORWARD else (bwd + fwd)
    best: dict[tuple[int, int], Pseudolabel] = {}
    for hyp in ordered:
        for p in hyp.pseudolabels:
            key = (p.track_id, p.frame_index)
            cur = best.get(key)
            if cur is None or p.confidence > cur.confidence:
                best[key] = p
    return [best[k] for k in sorted(best)]


def run_pipeline(seq: Sequence, sparse: SparseLabelSet, providers,
                 cfg: PipelineConfig) -> tuple[list[Pseudolabel],
                                               list[TrackHypothesis],
                                               list[TrackHypothesis]]:
    fwd = propagate(seq, sparse, providers, cfg, FORWARD)
    bwd = propagate(seq, sparse, providers, cfg, BACKWARD)
    return merge_bidirectional(fwd, bwd, cfg), fwd, bwd


def emit_fncomp_weights(seq: Sequence, pseudolabels: list[Pseudolabel],
                        fn_provider, cfg: PipelineConfig) -> dict[int, Heatmap]:
    """Per-frame loss-weight maps: downweight likely-false-negative regions."""
    return dict(iter_fncomp_weights(seq, pseudolabels, fn_provider, cfg))


def iter_fncomp_weights(seq: Sequence, pseudolabels: list[Pseudolabel],
                        fn_provider, cfg: PipelineConfig,
                        ) -> Iterator[tuple[int, Heatmap]]:
    """``(frame_index, weight map)`` for each frame of ``seq`` in order,
    each map made only when the caller asks for it. A pseudolabel of a
    frame ``seq`` lacks fails the first request, before any map is made."""
    by_frame: dict[int, list[Pseudolabel]] = {}
    for p in pseudolabels:
        if p.frame_index not in seq.frame_map:
            raise no_such_frame(seq, p)
        by_frame.setdefault(p.frame_index, []).append(p)
    K = seq.intrinsics
    stride = fn_provider.heatmap_stride
    # the coverage splats share the objectness splats' stamps, which a
    # frame's boxes of both mostly have in common
    stamps = getattr(fn_provider, "stamps", TwoFrameCache())
    for f in seq.frames:
        objectness = fn_provider.objectness(f.frame_index)
        stamps.start_frame(f.frame_index)  # as objectness may have done
        coverage = splat_boxes([p.box2d for p in by_frame.get(f.frame_index, [])],
                               K.width, K.height, stride, stamps)
        # w = clip(1 - max(objectness - coverage, 0), floor, 1), in place
        w = objectness.values - coverage.values
        np.maximum(w, 0.0, out=w)
        np.subtract(1.0, w, out=w)
        np.clip(w, cfg.fncomp_floor, 1.0, out=w)
        yield f.frame_index, Heatmap(values=w, stride=stride)


@dataclass(frozen=True)
class TrackCoverage:
    track_id: int
    covered: int
    total: int
    mean_confidence: float

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total else 0.0


@dataclass(frozen=True)
class CoverageReport:
    per_track: tuple[TrackCoverage, ...]
    terminations: tuple[tuple[int, str, int], ...]  # (track, direction, frame)

    @property
    def overall_fraction(self) -> float:
        covered = sum(t.covered for t in self.per_track)
        total = sum(t.total for t in self.per_track)
        return covered / total if total else 0.0


def coverage_report(seq: Sequence, pseudolabels: list[Pseudolabel],
                    hypotheses: Optional[list[TrackHypothesis]] = None,
                    ) -> CoverageReport:
    labeled: dict[int, set[int]] = {}
    confs: dict[int, list[float]] = {}
    for p in pseudolabels:
        labeled.setdefault(p.track_id, set()).add(p.frame_index)
        confs.setdefault(p.track_id, []).append(p.confidence)
    per_track = []
    for tid in sorted(seq.tracks):
        gt_frames = {a.frame_index for a in seq.tracks[tid]}
        covered = gt_frames & labeled.get(tid, set())
        cs = confs.get(tid, [])
        per_track.append(TrackCoverage(
            track_id=tid, covered=len(covered), total=len(gt_frames),
            mean_confidence=float(np.mean(cs)) if cs else 0.0))
    terms = []
    for h in hypotheses or []:
        if h.status == STATUS_TERMINATED:
            last = (h.pseudolabels[-1].frame_index if h.pseudolabels
                    else h.seed_frame)
            terms.append((h.track_id, h.direction, last))
    return CoverageReport(per_track=tuple(per_track), terminations=tuple(terms))
