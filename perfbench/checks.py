"""Output checks computed apart from the program.

Every metric here is recomputed from the ground-truth sequence and the
pseudolabels, using only numpy and scipy's assignment solver; nothing calls
into ``autolabel3d.metrics``, ``autolabel3d.pipeline`` or
``autolabel3d.providers``. Each ``check_*`` function returns a list of
error strings, empty when the output is correct.

Definitions followed:

- CLEAR-MOT (Bernardin & Stiefelhagen 2008): association by 3D centre
  distance ``<= dist_threshold``; a correspondence from the previous frame
  is kept while it stays within the threshold; the remaining objects are
  paired by a maximum-cardinality, minimum-distance matching; an identity
  switch is a new pairing of a ground-truth track with a prediction other
  than the one it was last paired with.
- IDF1 (Ristani et al. 2016): a one-to-one matching of ground-truth and
  predicted trajectories that maximises the identity true positives.
- AMOTA/AMOTP (Weng et al. 2020, nuScenes): a brute-force sweep over every
  distinct confidence threshold. Each grid recall ``r`` takes the threshold
  whose recall is the smallest at or above ``r`` (the highest such
  threshold on ties); ``MOTAR = max(0, 1 - (IDSW + FP + FN_r - (1-r)P) /
  (rP))`` with ``FN_r = max(FN, (1-r)P)``; an unreachable recall scores 0
  and is left out of AMOTP.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Per-frame arrays

class FrameObjects:
    """Track ids, 3D centres and confidences of one frame's objects."""

    __slots__ = ("ids", "centers", "conf")

    def __init__(self, ids, centers, conf):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        self.conf = np.asarray(conf, dtype=float)


def gt_frames(seq) -> dict[int, FrameObjects]:
    return {f.frame_index: FrameObjects(
        [a.track_id for a in f.annotations],
        [a.box3d.center for a in f.annotations],
        np.ones(len(f.annotations))) for f in seq.frames}


def pred_frames(preds) -> dict[int, FrameObjects]:
    grouped: dict[int, list] = {}
    for p in preds:
        grouped.setdefault(p.frame_index, []).append(p)
    out = {}
    for fi, ps in grouped.items():
        ids = [p.track_id for p in ps]
        if len(set(ids)) != len(ids):
            raise ValueError(f"frame {fi}: two predictions share a track id")
        out[fi] = FrameObjects(ids, [p.box3d.center for p in ps],
                               [p.confidence for p in ps])
    return out


def _distances(a: FrameObjects, b: FrameObjects) -> np.ndarray:
    diff = a.centers[:, None, :] - b.centers[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _max_matching(dist: np.ndarray, allowed: np.ndarray):
    """Maximum-cardinality matching of allowed pairs, minimum total distance
    among those. Returns (row indices, column indices)."""
    if not allowed.any():
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    # each allowed pair earns a reward larger than any sum of distances, so
    # the solver first maximises the number of pairs, then minimises distance
    reward = float(dist[allowed].sum()) + 1.0
    cost = np.where(allowed, dist - reward, 0.0)
    rows, cols = linear_sum_assignment(cost)
    keep = allowed[rows, cols]
    return rows[keep], cols[keep]


# ---------------------------------------------------------------------------
# CLEAR-MOT, IDF1, AMOTA

@dataclass(frozen=True)
class Clear:
    tp: int
    fp: int
    fn: int
    idsw: int
    gt_total: int
    dist_sum: float

    @property
    def mota(self) -> float:
        if not self.gt_total:
            return 1.0
        return 1.0 - (self.fp + self.fn + self.idsw) / self.gt_total

    @property
    def motp(self) -> float:
        return self.dist_sum / self.tp if self.tp else 0.0


def clear_mot(gt: dict[int, FrameObjects], pr: dict[int, FrameObjects],
              dist_threshold: float, min_conf: float = -math.inf) -> Clear:
    tp = fp = fn = idsw = gt_total = 0
    dist_sum = 0.0
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    empty = FrameObjects([], [], [])
    for fi in sorted(gt.keys() | pr.keys()):
        g = gt.get(fi, empty)
        p = pr.get(fi, empty)
        if len(p.ids) and min_conf > -math.inf:
            keep = p.conf >= min_conf
            p = FrameObjects(p.ids[keep], p.centers[keep], p.conf[keep])
        n_g, n_p = len(g.ids), len(p.ids)
        gt_total += n_g
        matched: dict[int, int] = {}
        if n_g and n_p:
            dist = _distances(g, p)
            within = dist <= dist_threshold
            g_pos = {int(t): i for i, t in enumerate(g.ids)}
            p_pos = {int(t): j for j, t in enumerate(p.ids)}
            free_g = np.ones(n_g, dtype=bool)
            free_p = np.ones(n_p, dtype=bool)
            for gid, pid in prev.items():
                i, j = g_pos.get(gid), p_pos.get(pid)
                if i is not None and j is not None and within[i, j]:
                    matched[gid] = pid
                    dist_sum += float(dist[i, j])
                    free_g[i] = free_p[j] = False
            gi = np.flatnonzero(free_g)
            pj = np.flatnonzero(free_p)
            if len(gi) and len(pj):
                sub = np.ix_(gi, pj)
                rows, cols = _max_matching(dist[sub], within[sub])
                for r, c in zip(rows, cols):
                    gid, pid = int(g.ids[gi[r]]), int(p.ids[pj[c]])
                    matched[gid] = pid
                    dist_sum += float(dist[gi[r], pj[c]])
                    if gid in last and last[gid] != pid:
                        idsw += 1
        tp += len(matched)
        fp += n_p - len(matched)
        fn += n_g - len(matched)
        prev = matched
        last.update(matched)
    return Clear(tp, fp, fn, idsw, gt_total, dist_sum)


def idf1(gt: dict[int, FrameObjects], pr: dict[int, FrameObjects],
         dist_threshold: float) -> float:
    g_ids = sorted({int(t) for f in gt.values() for t in f.ids})
    p_ids = sorted({int(t) for f in pr.values() for t in f.ids})
    total_gt = sum(len(f.ids) for f in gt.values())
    total_pr = sum(len(f.ids) for f in pr.values())
    if total_gt == 0 and total_pr == 0:
        return 1.0
    if not g_ids or not p_ids:
        return 0.0
    g_row = {t: i for i, t in enumerate(g_ids)}
    p_col = {t: j for j, t in enumerate(p_ids)}
    overlap = np.zeros((len(g_ids), len(p_ids)))
    for fi, g in gt.items():
        p = pr.get(fi)
        if p is None or not len(g.ids) or not len(p.ids):
            continue
        ii, jj = np.nonzero(_distances(g, p) <= dist_threshold)
        rows = [g_row[int(t)] for t in g.ids[ii]]
        cols = [p_col[int(t)] for t in p.ids[jj]]
        np.add.at(overlap, (rows, cols), 1.0)
    r, c = linear_sum_assignment(overlap, maximize=True)
    idtp = float(overlap[r, c].sum())
    return 2.0 * idtp / (total_gt + total_pr)


@dataclass(frozen=True)
class RecallRow:
    recall: float
    motar: float
    motp: Optional[float]
    tp: int
    fp: int
    fn: int
    idsw: int
    achievable: bool


def amota(gt: dict[int, FrameObjects], pr: dict[int, FrameObjects],
          dist_threshold: float, recall_grid) -> tuple[float, float, list]:
    """Brute-force AMOTA/AMOTP: one CLEAR-MOT pass per distinct confidence."""
    total = sum(len(f.ids) for f in gt.values())
    confs = sorted({float(c) for f in pr.values() for c in f.conf},
                   reverse=True)
    sweep = [clear_mot(gt, pr, dist_threshold, th) for th in confs]
    rows, motars, motps = [], [], []
    for r in recall_grid:
        reach = [c for c in sweep if c.tp / total >= r]
        if not reach:
            rows.append(RecallRow(r, 0.0, None, 0, 0, total, 0, False))
            motars.append(0.0)
            continue
        lowest = min(c.tp for c in reach)
        c = next(c for c in reach if c.tp == lowest)  # highest threshold
        fn_r = max(c.fn, (1.0 - r) * total)
        motar = max(0.0, 1.0 - (c.idsw + c.fp + fn_r - (1.0 - r) * total)
                    / (r * total))
        motp = c.dist_sum / c.tp if c.tp else None
        rows.append(RecallRow(r, motar, motp, c.tp, c.fp, c.fn, c.idsw, True))
        motars.append(motar)
        if motp is not None:
            motps.append(motp)
    return (float(np.mean(motars)) if motars else 0.0,
            float(np.mean(motps)) if motps else 0.0, rows)


# ---------------------------------------------------------------------------
# Checks

def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= FLOAT_TOL * max(1.0, abs(float(b)))


def check_report(seq, preds, report, recall_rows) -> list[str]:
    """Compare a metric report and its per-recall rows with recomputation.

    ``recall_rows`` are dicts with the ``per_recall.csv`` columns.
    """
    errors = []
    th = report.dist_threshold
    gt, pr = gt_frames(seq), pred_frames(preds)
    c = clear_mot(gt, pr, th)
    got = report.counts
    for name in ("tp", "fp", "fn", "idsw", "gt_total"):
        if getattr(got, name) != getattr(c, name):
            errors.append(f"report {name} {getattr(got, name)} != "
                          f"independent {getattr(c, name)}")
    want = {"mota": c.mota, "motp": c.motp, "idf1": idf1(gt, pr, th)}
    a, ap, rows = amota(gt, pr, th, report.recall_grid)
    want.update(amota=a, amotp=ap)
    for name, value in want.items():
        if not _close(getattr(report, name), value):
            errors.append(f"report {name} {getattr(report, name)!r} != "
                          f"independent {value!r}")
    if len(recall_rows) != len(rows):
        errors.append(f"{len(recall_rows)} per-recall rows, expected "
                      f"{len(rows)}")
        return errors
    for got_row, row in zip(recall_rows, rows):
        for f, w in zip(fields(RecallRow), astuple(row)):
            g = got_row[f.name]
            ok = _close(g, w) if w is None or isinstance(w, float) else g == w
            if not ok:
                errors.append(f"recall {row.recall}: {f.name} {g!r} != "
                              f"independent {w!r}")
    return errors


def read_recall_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    if header != ["recall", "motar", "motp", "tp", "fp", "fn", "idsw",
                  "achievable"]:
        raise ValueError(f"unexpected per-recall header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        v = line.split(",")
        rows.append(dict(recall=float(v[0]), motar=float(v[1]),
                         motp=None if v[2] == "" else float(v[2]),
                         tp=int(v[3]), fp=int(v[4]), fn=int(v[5]),
                         idsw=int(v[6]), achievable=v[7] == "1"))
    return rows


def cornernet_radius(height: float, width: float,
                     min_overlap: float = 0.7) -> float:
    """Gaussian radius of CornerNet (Law & Deng 2018), with the two first
    roots halved as in the CenterNet reference code rather than divided
    by 2a."""
    area = height * width
    roots = []
    for a, b, c, halve in (
            (1.0, -(height + width),
             area * (1 - min_overlap) / (1 + min_overlap), True),
            (4.0, -2 * (height + width), (1 - min_overlap) * area, True),
            (4.0 * min_overlap, 2 * min_overlap * (height + width),
             (min_overlap - 1) * area, False)):
        disc = math.sqrt(b * b - 4 * a * c)
        roots.append((-b + disc) / 2 if halve else (-b + disc) / (2 * a))
    return min(roots)


def splat(boxes, width: int, height: int, stride: int) -> np.ndarray:
    """Max of unit-peak Gaussians centred on each box's stride cell (the
    centre coordinate divided by the stride, truncated toward zero); a box
    whose cell falls outside the grid adds nothing."""
    rows, cols = -(-height // stride), -(-width // stride)
    grid = np.zeros((rows, cols))
    y = np.arange(rows, dtype=float)[:, None]
    x = np.arange(cols, dtype=float)[None, :]
    for b in boxes:
        col, row = int(b.cx / stride), int(b.cy / stride)
        if not (0 <= row < rows and 0 <= col < cols):
            continue
        sigma = max(cornernet_radius(b.h / stride, b.w / stride) / 3.0, 1e-6)
        g = np.exp(-((x - col) ** 2 + (y - row) ** 2) / (2 * sigma ** 2))
        np.maximum(grid, g, out=grid)
    return grid


def expected_weights(seq, preds, stride: int, floor: float) -> dict:
    """FN-compensation weights: 1 - max(objectness - coverage, 0), clipped
    to [floor, 1], where objectness splats every ground-truth box and
    coverage splats the pseudolabel boxes of the frame."""
    K = seq.intrinsics
    by_frame: dict[int, list] = {}
    for p in preds:
        by_frame.setdefault(p.frame_index, []).append(p.box2d)
    out = {}
    for f in seq.frames:
        obj = splat([a.box2d for a in f.annotations], K.width, K.height, stride)
        cov = splat(by_frame.get(f.frame_index, []), K.width, K.height, stride)
        out[f.frame_index] = np.clip(1.0 - np.maximum(obj - cov, 0.0),
                                     floor, 1.0)
    return out


def read_weight_maps(text: str) -> dict[int, tuple[int, np.ndarray]]:
    """frame -> (stride, grid) from a ``weight_maps.txt`` document."""
    lines = text.splitlines()
    if not lines or lines[0].split()[:3] != ["#", "autolabel3d", "weightmaps"]:
        raise ValueError("not a weight-map document")
    out = {}
    i = 1
    while i < len(lines):
        head = lines[i].split()
        i += 1
        if not head:
            continue
        if head[0] != "frame":
            raise ValueError(f"line {i}: expected a frame record")
        fi, rows, cols, stride = (int(t) for t in head[1:5])
        grid = np.array(" ".join(lines[i:i + rows]).split(), dtype=float)
        i += rows
        out[fi] = (stride, grid.reshape(rows, cols))
    return out


def check_weight_maps(seq, preds, weights: dict, stride: int,
                      floor: float) -> list[str]:
    """``weights`` maps frame -> (stride, grid)."""
    errors = []
    want = expected_weights(seq, preds, stride, floor)
    if sorted(weights) != sorted(want):
        return [f"weight maps cover frames {sorted(weights)[:5]}..., "
                f"expected {sorted(want)[:5]}..."]
    for fi, grid in want.items():
        s, got = weights[fi]
        if s != stride or got.shape != grid.shape:
            errors.append(f"frame {fi}: stride/shape {s} {got.shape}, "
                          f"expected {stride} {grid.shape}")
            continue
        bad = np.abs(got - grid) > FLOAT_TOL
        if bad.any():
            r, c = np.argwhere(bad)[0]
            errors.append(f"frame {fi}: {int(bad.sum())} weight cells differ, "
                          f"first at ({r}, {c}): {float(got[r, c])!r} != "
                          f"{float(grid[r, c])!r}")
    return errors


def eligible(ann) -> bool:
    """Seed-eligible: KITTI occlusion level 0 or 1, and a nuScenes
    visibility bucket of 2-4 when one is recorded."""
    return (ann.occlusion_level in (0, 1)
            and (ann.visibility is None or ann.visibility in (2, 3, 4)))


def eligible_frames(seq) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for f in seq.frames:
        for a in f.annotations:
            if eligible(a):
                out.setdefault(a.track_id, []).append(f.frame_index)
    return out


def check_sparse_labels(seq, selected: dict, k: int, preds,
                        exact_count: bool = False) -> list[str]:
    """Sparse-label properties, and every seed reproduced in the
    pseudolabels with confidence 1 and its ground-truth box.

    With ``exact_count`` every track must carry min(k, eligible frames)
    seeds."""
    errors = []
    elig = eligible_frames(seq)
    pl = {(p.track_id, p.frame_index): p for p in preds}
    for tid, frames in selected.items():
        frames = list(frames)
        if len(frames) > k:
            errors.append(f"track {tid}: {len(frames)} labels over budget {k}")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            errors.append(f"track {tid}: frames not increasing {frames}")
        ok = set(elig.get(tid, ()))
        for fi in frames:
            if fi not in ok:
                errors.append(f"track {tid}: label on ineligible frame {fi}")
                continue
            ann = seq.annotation(fi, tid)
            p = pl.get((tid, fi))
            if p is None:
                errors.append(f"seed ({tid}, {fi}) missing from pseudolabels")
            elif p.confidence != 1.0 or p.box3d != ann.box3d \
                    or p.box2d != ann.box2d:
                errors.append(f"seed ({tid}, {fi}) pseudolabel differs from "
                              "its ground truth")
    if exact_count:
        for tid, frames in elig.items():
            want = min(k, len(frames))
            got = len(selected.get(tid, ()))
            if got != want:
                errors.append(f"track {tid}: {got} seeds, expected {want}")
    return errors


def check_noiseless(seq, preds, weights: dict) -> list[str]:
    """Exact-oracle properties: no FP or ID switch at 2 m, every label on
    its ground-truth centre, and weight 1 wherever all boxes are labeled."""
    errors = []
    gt, pr = gt_frames(seq), pred_frames(preds)
    c = clear_mot(gt, pr, 2.0)
    if c.fp or c.idsw:
        errors.append(f"noiseless run has fp={c.fp} idsw={c.idsw}")
    labeled: dict[int, set] = {}
    for p in preds:
        ann = seq.annotation(p.frame_index, p.track_id)
        if ann is None:
            errors.append(f"pseudolabel ({p.track_id}, {p.frame_index}) has "
                          "no ground truth")
            continue
        off = math.dist(p.box3d.center, ann.box3d.center)
        if off > 1e-6:
            errors.append(f"pseudolabel ({p.track_id}, {p.frame_index}) is "
                          f"{off:.3g} m from its ground truth")
        labeled.setdefault(p.frame_index, set()).add(p.track_id)
    for f in seq.frames:
        if {a.track_id for a in f.annotations} <= labeled.get(f.frame_index,
                                                              set()):
            _, grid = weights[f.frame_index]
            if not (grid == 1.0).all():
                errors.append(f"frame {f.frame_index}: fully labeled but "
                              "some weight is not 1")
    return errors


def check_budget_row(seq, k: int, selected: dict, preds, row: dict,
                     dist_threshold: float) -> list[str]:
    """One budget of the sweep: MOTA <= recall <= coverage, the seed count
    per track, and MOTA/IDF1 against recomputation. ``row`` holds the
    table's coverage, mota, idf1 and amota."""
    errors = [f"k={k}: {e}" for e in
              check_sparse_labels(seq, selected, k, preds, exact_count=True)]
    gt, pr = gt_frames(seq), pred_frames(preds)
    c = clear_mot(gt, pr, dist_threshold)
    recall = c.tp / c.gt_total
    gt_keys = {(int(t), fi) for fi, f in gt.items() for t in f.ids}
    covered = len(gt_keys & {(p.track_id, p.frame_index) for p in preds})
    coverage = covered / len(gt_keys)
    if not _close(row["coverage"], coverage):
        errors.append(f"k={k}: coverage {row['coverage']!r} != "
                      f"independent {coverage!r}")
    if not row["mota"] <= recall + FLOAT_TOL <= row["coverage"] + 2 * FLOAT_TOL:
        errors.append(f"k={k}: need MOTA {row['mota']} <= recall {recall} "
                      f"<= coverage {row['coverage']}")
    for name, value in (("mota", c.mota), ("idf1", idf1(gt, pr, dist_threshold))):
        if not _close(row[name], value):
            errors.append(f"k={k}: {name} {row[name]!r} != independent "
                          f"{value!r}")
    return errors
