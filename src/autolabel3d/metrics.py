"""Tracking evaluation: Hungarian assignment, CLEAR-MOT, IDF1, AMOTA/AMOTP.

Association uses 3D center distance with a configurable threshold
(default 2 m). Every metric reads one per-frame table of the (gt, pred)
pairs within it and their distances: AMOTA runs a CLEAR-MOT pass per
confidence threshold over that table, and IDF1 counts trajectory overlaps
from its pairs. CLEAR-MOT keeps the previous frame's correspondence alive
while it stays within the threshold, so identity switches are well defined.
A frame's assignment depends only on which of its gt and pred tracks are
still open, so passes that share a memo solve each distinct one once.
AMOTA's pass at each lower threshold steps only the frames holding a
prediction of that confidence or whose carried-in correspondences differ
in order (their order is the order their distances are summed in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidArgument, Pseudolabel, Sequence, no_such_frame

DEFAULT_DIST_THRESHOLD = 2.0
DEFAULT_RECALL_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))


def _lsap(rows: list[list[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of a finite cost matrix by shortest
    augmenting paths (Crouse 2016): a step-for-step port of the reference
    C++ ``rectangular_lsap``, with its transposition, column order, tie rule
    and dual-update order, so it returns the reference's (rows, cols), ties
    included; ``tests/test_metrics.py`` compares the two."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    cost = [list(col) for col in zip(*rows)] if transpose else rows
    if transpose:
        nr, nc = nc, nr
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row ``cur``; filling ``remaining``
        # in reverse makes a constant matrix solve to the identity
        remaining = list(range(nc - 1, -1, -1))
        n_rem = nc
        in_sr = [False] * nr
        in_sc = [False] * nc
        spc = [math.inf] * nc
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            in_sr[i] = True
            c_i, u_i = cost[i], u[i]
            for it in range(n_rem):
                j = remaining[it]
                r = min_val + c_i[j] - u_i - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                # on a tie prefer a column that ends the path
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise InvalidArgument("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            n_rem -= 1
            remaining[index] = remaining[n_rem]
        # update the duals, then augment along the path
        u[cur] += min_val
        for i in range(nr):
            if in_sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if in_sc[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


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
    rows, cols = _lsap(work.tolist())
    return {r: col for r, col in zip(rows, cols) if math.isfinite(c[r, col])}


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


def _association(seq: Sequence, preds: list[Pseudolabel],
                 dist_threshold: float):
    """One entry per frame of ``seq``, in order: its gt track ids, each
    prediction's track id -> confidence (in input order), and the distance
    of every (gt, pred) pair within ``dist_threshold``. This is the only
    place a (gt, pred) distance is computed."""
    index = {f.frame_index: i for i, f in enumerate(seq.frames)}
    by_frame: list[dict[int, Pseudolabel]] = [{} for _ in seq.frames]
    for p in preds:
        i = index.get(p.frame_index)
        if i is None:
            raise no_such_frame(seq, p)
        if p.track_id in by_frame[i]:
            raise InvalidArgument(
                f"duplicate prediction for track {p.track_id} "
                f"frame {p.frame_index}")
        by_frame[i][p.track_id] = p
    # a vectorised squared distance, with a margin far above its rounding,
    # picks the candidates; the scalar norm decides and is the distance.
    # A product, unlike ``** 2``, saturates to inf on a huge threshold
    margin = dist_threshold * (1.0 + 1e-6)
    bound = margin * margin
    table = []
    for f, prs in zip(seq.frames, by_frame):
        gts = {a.track_id: a.box3d.center for a in f.annotations}
        dist: dict[tuple[int, int], float] = {}
        if gts and prs:
            g_ids, p_ids = list(gts), list(prs)
            g_xyz = np.array(list(gts.values()))
            p_xyz = np.array([p.box3d.center for p in prs.values()])
            with np.errstate(over="ignore"):  # a far one is inf: unmatched
                sq = ((g_xyz[:, None, :] - p_xyz[None, :, :]) ** 2).sum(-1)
            for i, j in zip(*np.nonzero(sq <= bound)):
                d = float(np.linalg.norm(g_xyz[i] - p_xyz[j]))
                if d <= dist_threshold:
                    dist[g_ids[i], p_ids[j]] = d
        table.append((list(gts), {t: p.confidence for t, p in prs.items()},
                      dist))
    return table


def _frame_assignment(dist, g_ids, p_ids) -> list[tuple[int, int, float]]:
    """The (gt, pred, distance) pairs of a minimum-distance assignment of
    the open gt tracks ``g_ids`` to the open pred tracks ``p_ids``."""
    free = [(g, p, d) for (g, p), d in dist.items()
            if g in g_ids and p in p_ids]
    if not free:
        return []
    # pairs that share no track form a matching, which every optimum of
    # ``hungarian`` uses whole (a forbidden cell costs more than all the
    # finite ones): its pairs, in its row order
    if len({g for g, _, _ in free}) == len({p for _, p, _ in free}) == len(free):
        return sorted([(g, p, float(d)) for g, p, d in free],
                      key=lambda pair: g_ids.index(pair[0]))
    cost = np.full((len(g_ids), len(p_ids)), np.inf)
    for g, p, d in free:
        cost[g_ids.index(g), p_ids.index(p)] = d
    return [(g_ids[i], p_ids[j], float(cost[i, j]))
            for i, j in hungarian(cost).items()]


def _frame_step(frame, pos, prev, floor, memo):
    """One frame of a CLEAR-MOT pass at ``floor`` after ``prev``: ``prev``,
    the frame's correspondences, its new (gt, pred, distance) pairs, its
    distances in summing order and how many predictions it keeps."""
    gts, confs, dist = frame
    prs = [p for p, c in confs.items() if c >= floor]
    matched: dict[int, int] = {}
    dists = []
    for g, p in prev.items():
        d = dist.get((g, p))
        if d is not None and confs[p] >= floor:
            matched[g] = p
            dists.append(d)
    pairs = []
    # each match closes one gt and one kept pred; none open, none to assign
    if dist and len(matched) < min(len(gts), len(prs)):
        used = set(matched.values())
        key = (pos, tuple([g for g in gts if g not in matched]),
               tuple([p for p in prs if p not in used]))
        pairs = memo.get(key)
        if pairs is None:
            pairs = memo[key] = _frame_assignment(dist, *key[1:])
        for g, p, d in pairs:
            matched[g] = p
            dists.append(d)
    return prev, matched, pairs, dists, len(prs)


def _clear_mot_pass(table, floor: float, memo: dict,
                    kept: list) -> tuple[Counts, float]:
    """CLEAR-MOT over the predictions with confidence >= ``floor``: the
    previous frame's correspondences are kept while they stay within the
    threshold, the rest are matched by minimum total distance. ``memo``
    keeps each frame's assignment by the tracks left open in it, which
    fix its cost matrix; passes over one table may share it. ``kept`` holds
    each frame's ``_frame_step`` from the pass at the next higher of the
    table's confidences, reused unless the frame holds one equal to
    ``floor`` or gets other correspondences carried in (a dict is never
    changed once built, so the very same object is the same input)."""
    tp = n_prs = idsw = 0
    dist_sum = 0.0
    prev: dict[int, int] = {}        # gt track -> pred track, last frame
    last_match: dict[int, int] = {}  # gt track -> pred track, ever

    for pos, frame in enumerate(table):
        step = kept[pos]
        if (step is None or floor in frame[1].values() or (step[0] is not prev
                and list(step[0].items()) != list(prev.items()))):
            step = kept[pos] = _frame_step(frame, pos, prev, floor, memo)
        _, matched, pairs, dists, n = step
        for d in dists:
            dist_sum += d
        for g, p, _ in pairs:
            if last_match.get(g, p) != p:
                idsw += 1
        tp += len(matched)
        n_prs += n
        prev = matched
        last_match.update(matched)
    gt_total = sum(len(gts) for gts, _, _ in table)
    return Counts(tp, n_prs - tp, gt_total - tp, idsw, gt_total), dist_sum


def _threshold_sweep(table, memo: dict) -> list[tuple[float, Counts, float]]:
    """(threshold, counts, matched distance sum) of a CLEAR-MOT pass at each
    distinct confidence, falling; each pass reuses the frames of the last."""
    confs = {c for _, cs, _ in table for c in cs.values()}
    kept: list = [None] * len(table)
    return [(th, *_clear_mot_pass(table, th, memo, kept))
            for th in sorted(confs, reverse=True)]


def clear_mot(seq: Sequence, preds: list[Pseudolabel],
              dist_threshold: float = DEFAULT_DIST_THRESHOLD, *,
              table=None, memo: Optional[dict] = None,
              ) -> tuple[float, float, Counts, float]:
    """Returns (mota, motp, counts, total matched distance). ``table``
    (from ``_association``) and ``memo`` let ``evaluate`` share them."""
    if table is None:
        table = _association(seq, preds, dist_threshold)
    c, dist_sum = _clear_mot_pass(table, -math.inf, {} if memo is None
                                  else memo, [None] * len(table))
    mota = 1.0 - (c.fp + c.fn + c.idsw) / c.gt_total if c.gt_total else 1.0
    motp = dist_sum / c.tp if c.tp else 0.0
    return mota, motp, c, dist_sum


def idf1(seq: Sequence, preds: list[Pseudolabel],
         dist_threshold: float = DEFAULT_DIST_THRESHOLD, *,
         table=None) -> float:
    """F1 over identity-consistent detections under a global trajectory
    match: IDTP is the largest total overlap (frames within the threshold)
    of a one-to-one pairing of gt and predicted tracks."""
    if table is None:
        table = _association(seq, preds, dist_threshold)
    overlap: dict[tuple[int, int], int] = {}
    total_gt = 0
    for gts, _, dist in table:
        total_gt += len(gts)
        for pair in dist:
            overlap[pair] = overlap.get(pair, 0) + 1
    total_pr = len(preds)
    if total_gt == 0 and total_pr == 0:
        return 1.0
    g_ids = {g: i for i, g in enumerate(sorted({g for g, _ in overlap}))}
    p_ids = {p: j for j, p in enumerate(sorted({p for _, p in overlap}))}
    ov = np.zeros((len(g_ids), len(p_ids)))
    for (g, p), n in overlap.items():
        ov[g_ids[g], p_ids[p]] = n
    idtp = sum(ov[i, j] for i, j in hungarian(-ov).items())
    # 2 IDTP / (2 IDTP + IDFP + IDFN), with IDFP + IDFN = totals - 2 IDTP
    return 2.0 * idtp / (total_gt + total_pr)


def amota_amotp(seq: Sequence, preds: list[Pseudolabel],
                dist_threshold: float = DEFAULT_DIST_THRESHOLD,
                recall_grid: tuple[float, ...] = DEFAULT_RECALL_GRID, *,
                table=None, memo: Optional[dict] = None,
                ) -> tuple[float, float, list[RecallPoint]]:
    """MOTAR and MOTP averaged over a recall sweep (nuScenes convention).

    For each grid recall the threshold achieving the smallest recall >= r is
    used; unreachable recalls score MOTAR 0 and are excluded from AMOTP.
    Each threshold's pass is ``clear_mot`` on the predictions at or above
    it, bit for bit, reusing the frames it leaves unchanged (see module).
    """
    gt_total = sum(len(f.annotations) for f in seq.frames)
    if gt_total == 0:
        raise InvalidArgument("cannot sweep recall with no ground truth")

    if table is None:
        table = _association(seq, preds, dist_threshold)
    # (recall, counts, mean matched distance) per threshold
    sweep = [(c.tp / gt_total, c, dist_sum / c.tp if c.tp else None)
             for _, c, dist_sum in
             _threshold_sweep(table, {} if memo is None else memo)]

    points: list[RecallPoint] = []
    motars = []
    motps = []
    for r in recall_grid:
        best = min((s for s in sweep if s[0] >= r), key=lambda s: s[0],
                   default=None)
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
    table = _association(seq, preds, dist_threshold)
    memo: dict = {}
    mota, motp, counts, _ = clear_mot(seq, preds, dist_threshold,
                                      table=table, memo=memo)
    id_f1 = idf1(seq, preds, dist_threshold, table=table)
    amota, amotp, points = amota_amotp(seq, preds, dist_threshold, recall_grid,
                                       table=table, memo=memo)
    return MetricReport(mota=mota, motp=motp, idf1=id_f1, amota=amota,
                        amotp=amotp, counts=counts,
                        dist_threshold=dist_threshold,
                        recall_grid=tuple(recall_grid),
                        per_recall=tuple(points))
