"""Tracking evaluation: Hungarian assignment, CLEAR-MOT, IDF1, AMOTA/AMOTP.

Association uses 3D center distance with a configurable threshold
(default 2 m). CLEAR-MOT keeps the previous frame's correspondence alive
while it stays within the threshold, so identity switches are well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import InvalidArgument, Pseudolabel, Sequence

DEFAULT_DIST_THRESHOLD = 2.0
DEFAULT_RECALL_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))


def hungarian(cost: np.ndarray) -> dict[int, int]:
    """Min-cost max-cardinality assignment; +inf marks forbidden pairs."""
    c = np.asarray(cost, dtype=float)
    if c.size == 0:
        return {}
    if np.any(np.isnan(c)) or np.any(np.isneginf(c)):
        raise InvalidArgument("costs must be finite or +inf")
    finite = c[np.isfinite(c)]
    big = (float(np.abs(finite).sum()) if finite.size else 0.0) + 1.0
    work = np.where(np.isfinite(c), c, big)
    rows, cols = linear_sum_assignment(work)
    return {int(r): int(col) for r, col in zip(rows, cols)
            if math.isfinite(c[r, col])}


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    fn: int
    idsw: int
    gt_total: int


@dataclass(frozen=True)
class RecallPoint:
    recall: float
    motar: float
    motp: Optional[float]
    tp: int
    fp: int
    fn: int
    idsw: int
    achievable: bool


@dataclass(frozen=True)
class MetricReport:
    mota: float
    motp: float
    idf1: float
    amota: float
    amotp: float
    counts: Counts
    dist_threshold: float
    recall_grid: tuple[float, ...]
    per_recall: tuple[RecallPoint, ...]


def _gt_by_frame(seq: Sequence):
    return {f.frame_index: {a.track_id: np.array(a.box3d.center)
                            for a in f.annotations}
            for f in seq.frames}


def _pred_by_frame(preds: list[Pseudolabel]):
    out: dict[int, dict] = {}
    for p in preds:
        frame = out.setdefault(p.frame_index, {})
        if p.track_id in frame:
            raise InvalidArgument(
                f"duplicate prediction for track {p.track_id} "
                f"frame {p.frame_index}")
        frame[p.track_id] = np.array(p.box3d.center)
    return out


def clear_mot(seq: Sequence, preds: list[Pseudolabel],
              dist_threshold: float = DEFAULT_DIST_THRESHOLD,
              ) -> tuple[float, float, Counts, float]:
    """Returns (mota, motp, counts, total matched distance)."""
    gt = _gt_by_frame(seq)
    pr = _pred_by_frame(preds)
    frames = sorted(set(gt) | set(pr))

    tp = fp = fn = idsw = gt_total = 0
    dist_sum = 0.0
    prev: dict[int, int] = {}        # gt track -> pred track, last frame
    last_match: dict[int, int] = {}  # gt track -> pred track, ever

    for fi in frames:
        gts = gt.get(fi, {})
        prs = pr.get(fi, {})
        gt_total += len(gts)
        matched: dict[int, int] = {}

        # keep surviving correspondences first (original CLEAR-MOT)
        for g, p in prev.items():
            if g in gts and p in prs:
                d = float(np.linalg.norm(gts[g] - prs[p]))
                if d <= dist_threshold:
                    matched[g] = p
                    dist_sum += d
        rest_g = [g for g in gts if g not in matched]
        used = set(matched.values())
        rest_p = [p for p in prs if p not in used]
        if rest_g and rest_p:
            cost = np.full((len(rest_g), len(rest_p)), np.inf)
            for i, g in enumerate(rest_g):
                for j, p in enumerate(rest_p):
                    d = float(np.linalg.norm(gts[g] - prs[p]))
                    if d <= dist_threshold:
                        cost[i, j] = d
            for i, j in hungarian(cost).items():
                g, p = rest_g[i], rest_p[j]
                matched[g] = p
                dist_sum += float(cost[i, j])
                if g in last_match and last_match[g] != p:
                    idsw += 1

        tp += len(matched)
        fp += len(prs) - len(matched)
        fn += len(gts) - len(matched)
        prev = matched
        last_match.update(matched)

    mota = 1.0 - (fp + fn + idsw) / gt_total if gt_total else 1.0
    motp = dist_sum / tp if tp else 0.0
    return mota, motp, Counts(tp, fp, fn, idsw, gt_total), dist_sum


def idf1(seq: Sequence, preds: list[Pseudolabel],
         dist_threshold: float = DEFAULT_DIST_THRESHOLD) -> float:
    """F1 over identity-consistent detections under a global trajectory match."""
    gt = _gt_by_frame(seq)
    pr = _pred_by_frame(preds)
    gt_traj: dict[int, dict[int, np.ndarray]] = {}
    for fi, objs in gt.items():
        for tid, c in objs.items():
            gt_traj.setdefault(tid, {})[fi] = c
    pr_traj: dict[int, dict[int, np.ndarray]] = {}
    for fi, objs in pr.items():
        for tid, c in objs.items():
            pr_traj.setdefault(tid, {})[fi] = c

    g_ids = sorted(gt_traj)
    p_ids = sorted(pr_traj)
    total_gt = sum(len(t) for t in gt_traj.values())
    total_pr = sum(len(t) for t in pr_traj.values())
    if total_gt == 0 and total_pr == 0:
        return 1.0

    ng, np_ = len(g_ids), len(p_ids)
    size = ng + np_
    # cost(g, p) = IDFN + IDFP induced by the pairing; dummies carry the
    # cost of leaving a trajectory unmatched
    cost = np.zeros((size, size))
    overlap = np.zeros((ng, np_), dtype=int)
    for i, g in enumerate(g_ids):
        for j, p in enumerate(p_ids):
            ov = 0
            gt_t = gt_traj[g]
            pr_t = pr_traj[p]
            for fi in gt_t.keys() & pr_t.keys():
                if float(np.linalg.norm(gt_t[fi] - pr_t[fi])) <= dist_threshold:
                    ov += 1
            overlap[i, j] = ov
            cost[i, j] = len(gt_t) + len(pr_t) - 2 * ov
    for i, g in enumerate(g_ids):
        cost[i, np_:] = np.inf
        cost[i, np_ + i] = len(gt_traj[g])
    for j, p in enumerate(p_ids):
        cost[ng:, j] = np.inf
        cost[ng + j, j] = len(pr_traj[p])
    cost[ng:, np_:] = 0.0

    assignment = hungarian(cost)
    idtp = sum(overlap[i, j] for i, j in assignment.items()
               if i < ng and j < np_)
    idfn = total_gt - idtp
    idfp = total_pr - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def amota_amotp(seq: Sequence, preds: list[Pseudolabel],
                dist_threshold: float = DEFAULT_DIST_THRESHOLD,
                recall_grid: tuple[float, ...] = DEFAULT_RECALL_GRID,
                ) -> tuple[float, float, list[RecallPoint]]:
    """MOTAR and MOTP averaged over a recall sweep (nuScenes convention).

    For each grid recall the threshold achieving the smallest recall >= r is
    used; unreachable recalls score MOTAR 0 and are excluded from AMOTP.
    """
    gt_total = sum(len(f.annotations) for f in seq.frames)
    if gt_total == 0:
        raise InvalidArgument("cannot sweep recall with no ground truth")

    thresholds = sorted({p.confidence for p in preds}, reverse=True)
    sweep = []  # (recall, counts, mean matched distance)
    for th in thresholds:
        kept = [p for p in preds if p.confidence >= th]
        _, _, counts, dist_sum = clear_mot(seq, kept, dist_threshold)
        recall = counts.tp / gt_total
        motp = dist_sum / counts.tp if counts.tp else None
        sweep.append((recall, counts, motp))

    points: list[RecallPoint] = []
    motars = []
    motps = []
    for r in recall_grid:
        best = None
        for recall, counts, motp in sweep:
            if recall >= r and (best is None or recall < best[0]):
                best = (recall, counts, motp)
        if best is None:
            points.append(RecallPoint(recall=r, motar=0.0, motp=None,
                                      tp=0, fp=0, fn=gt_total, idsw=0,
                                      achievable=False))
            motars.append(0.0)
            continue
        _, counts, motp = best
        # the chosen threshold may overshoot the grid recall; floor FN at
        # (1-r)*P so surplus matches cannot push MOTAR above 1
        fn_r = max(counts.fn, (1.0 - r) * gt_total)
        motar = 1.0 - (counts.idsw + counts.fp + fn_r
                       - (1.0 - r) * gt_total) / (r * gt_total)
        motar = max(motar, 0.0)
        points.append(RecallPoint(recall=r, motar=motar, motp=motp,
                                  tp=counts.tp, fp=counts.fp, fn=counts.fn,
                                  idsw=counts.idsw, achievable=True))
        motars.append(motar)
        if motp is not None:
            motps.append(motp)
    amota = float(np.mean(motars)) if motars else 0.0
    amotp = float(np.mean(motps)) if motps else 0.0
    return amota, amotp, points


def evaluate(seq: Sequence, preds: list[Pseudolabel],
             dist_threshold: float = DEFAULT_DIST_THRESHOLD,
             recall_grid: tuple[float, ...] = DEFAULT_RECALL_GRID,
             ) -> MetricReport:
    mota, motp, counts, _ = clear_mot(seq, preds, dist_threshold)
    id_f1 = idf1(seq, preds, dist_threshold)
    amota, amotp, points = amota_amotp(seq, preds, dist_threshold, recall_grid)
    return MetricReport(mota=mota, motp=motp, idf1=id_f1, amota=amota,
                        amotp=amotp, counts=counts,
                        dist_threshold=dist_threshold,
                        recall_grid=tuple(recall_grid),
                        per_recall=tuple(points))
