"""Sparse annotation sampling and mining-pair enumeration.

Sampling keeps at most `max_per_track` annotations per track, drawn at
uniform temporal spacing from the eligible (not heavily occluded) frames.
Mining enumerates four pair strategies: self, support, cycle, and
step-support; the latter two route through an unlabeled waypoint frame
within a window of the labeled source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Annotation, InvalidArgument, Sequence

STRATEGIES = ("self", "support", "cycle", "step_support")

DEFAULT_MAX_PER_TRACK = 4
DEFAULT_WINDOW = 8


def is_eligible(ann: Annotation) -> bool:
    """Annotation can seed or waypoint: not heavily occluded.

    KITTI occlusion levels 0 and 1 qualify; level 3 ("unknown") does not.
    When a nuScenes-style visibility value is present it must be 2, 3 or 4.
    """
    if ann.occlusion_level not in (0, 1):
        return False
    if ann.visibility is not None and ann.visibility not in (2, 3, 4):
        return False
    return True


def check_selected_track(track_id: int, frames: tuple[int, ...],
                         max_per_track: int) -> None:
    """A selected track has one to ``max_per_track`` frames, strictly
    increasing."""
    if not frames:
        raise InvalidArgument(f"track {track_id}: no frames")
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise InvalidArgument(f"track {track_id}: frames not increasing")
    if len(frames) > max_per_track:
        raise InvalidArgument(f"track {track_id}: over budget")


_LABEL_HEADER_RANGES = {"max_per_track": (1, math.inf), "seed": (0, math.inf),
                        "reduction_ratio": (0.0, 1.0)}


def check_label_header(name: str, value: float) -> None:
    """A sparse label set's header value lies in its range (NaN does not):
    ``max_per_track`` >= 1, ``seed`` >= 0, ``reduction_ratio`` in [0, 1]."""
    lo, hi = _LABEL_HEADER_RANGES[name]
    if not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise InvalidArgument(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class SparseLabelSet:
    sequence_id: str
    selected: dict[int, tuple[int, ...]]  # track_id -> selected frame indices
    omitted: tuple[tuple[int, str], ...]  # (track_id, reason) diagnostics
    max_per_track: int
    seed: int
    reduction_ratio: float

    def __post_init__(self):
        for name in _LABEL_HEADER_RANGES:
            check_label_header(name, getattr(self, name))
        both = self.selected.keys() & {t for t, _ in self.omitted}
        if both:
            raise InvalidArgument(f"track {min(both)} is both selected and "
                                  "omitted")
        for tid, frames in self.selected.items():
            check_selected_track(tid, frames, self.max_per_track)


def labeled_annotation(seq: Sequence, track_id: int,
                       frame: int) -> Annotation:
    """The annotation a sparse label names, which the sequence must hold."""
    ann = seq.annotation(frame, track_id)
    if ann is None:
        raise InvalidArgument(f"sparse label of track {track_id} at frame "
                              f"{frame}: sequence {seq.id!r} has no such "
                              "annotation")
    return ann


def _round_half_down(x: float) -> int:
    return math.ceil(x - 0.5)


def uniform_positions(n: int, k: int) -> list[int]:
    """k index positions spread uniformly over [0, n); ties toward earlier."""
    if k >= n:
        return list(range(n))
    if k == 1:
        return [_round_half_down((n - 1) / 2.0)]
    return [_round_half_down(i * (n - 1) / (k - 1)) for i in range(k)]


def sample_sparse(seq: Sequence, max_per_track: int = DEFAULT_MAX_PER_TRACK,
                  seed: int = 0) -> SparseLabelSet:
    """Select the sparse label subset from dense ground truth.

    The uniform-spacing rule is fully deterministic; `seed` is recorded so
    downstream artifacts echo the run configuration.
    """
    selected: dict[int, tuple[int, ...]] = {}
    omitted: list[tuple[int, str]] = []
    kept = 0
    for tid in sorted(seq.tracks):
        eligible = [a.frame_index for a in seq.tracks[tid] if is_eligible(a)]
        if not eligible:
            omitted.append((tid, "no-eligible-frames"))
            continue
        k = min(max_per_track, len(eligible))
        frames = tuple(eligible[p] for p in uniform_positions(len(eligible), k))
        selected[tid] = frames
        kept += len(frames)
    total = sum(map(len, seq.tracks.values()))
    ratio = 1.0 - kept / total if total else 0.0
    return SparseLabelSet(sequence_id=seq.id, selected=selected,
                          omitted=tuple(omitted), max_per_track=max_per_track,
                          seed=seed, reduction_ratio=ratio)


@dataclass(frozen=True)
class MiningPair:
    track_id: int
    strategy: str
    source_frame: int
    waypoint_frame: Optional[int]
    target_frame: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidArgument(f"unknown strategy {self.strategy!r}")
        s, w, t = self.source_frame, self.waypoint_frame, self.target_frame
        ok = {
            "self": s == t and w is None,
            "support": s != t and w is None,
            "cycle": w is not None and t == s,
            "step_support": w is not None and t != s,
        }[self.strategy]
        if not ok:
            raise InvalidArgument(
                f"{self.strategy} pair violates its frame constraints: "
                f"source={s} waypoint={w} target={t}")


def mine_pairs(seq: Sequence, sparse: SparseLabelSet,
               window: int = DEFAULT_WINDOW) -> list[MiningPair]:
    """Enumerate all mining pairs; deterministic order by
    (track, strategy, source, waypoint, target)."""
    if window < 0:
        raise InvalidArgument("window must be >= 0")
    pairs: list[MiningPair] = []
    for tid in sorted(sparse.selected):
        labeled = sparse.selected[tid]
        unlabeled = [a.frame_index for a in seq.tracks.get(tid, ())
                     if is_eligible(a) and a.frame_index not in labeled]
        for s in labeled:
            labeled_annotation(seq, tid, s)  # the sequence must hold it
            others = [t for t in labeled if t != s]
            pairs.append(MiningPair(tid, "self", s, None, s))
            pairs += [MiningPair(tid, "support", s, None, t) for t in others]
            for u in unlabeled:
                if abs(u - s) <= window:
                    pairs.append(MiningPair(tid, "cycle", s, u, s))
                    pairs += [MiningPair(tid, "step_support", s, u, t)
                              for t in others]
    key = {s: i for i, s in enumerate(STRATEGIES)}
    pairs.sort(key=lambda p: (p.track_id, key[p.strategy], p.source_frame,
                              -1 if p.waypoint_frame is None else p.waypoint_frame,
                              p.target_frame))
    return pairs
