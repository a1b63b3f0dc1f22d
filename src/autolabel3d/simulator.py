"""Deterministic synthetic driving-world generator.

Produces camera sequences with full 3D ground truth (tracks, projected 2D
boxes, coarse masks, occlusion levels) so the propagation pipeline and the
metrics can be verified end to end at desk scale.

World frame: X right, Y down (gravity), Z forward, with the camera at
Y = 0 and the ground plane at Y = camera_height. Planar headings are given
by an angle phi with direction vector (sin phi, 0, cos phi), so phi = 0
means driving along +Z.

A frame is built in a few array passes over its objects and has the bits
that one object at a time gives. Its camera-frame centres and headings are
one ``(N, 3) @ rot.T`` each, where one object needs ``rot @ v``. numpy's
kernels for the two differ only in which of the first two products of a
row they add first, and adding it is exact here: each row of a rotation
about Y is (c, 0, -s), (0, 1, 0) or (s, 0, c), so one of those products is
zero or a factor itself (``TestBatchedRotation`` pins this). Corners,
projections and clipped box edges are elementwise ``*``, ``+``, ``/``,
``min`` and ``max`` in ``geometry.project``'s order, which round each
element alike in any array shape. Angles go through ``math`` one object at
a time, since numpy's ``sin``, ``cos`` and ``arctan2`` can round otherwise.
A frame's masks are rasterised in one pass (``_hull_masks``), and each
annotation is built once, its occlusion computed from its boxes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import (Annotation, Box2D, Box3D, CameraIntrinsics, Frame,
                   InvalidArgument, Mask2D, Sequence, covered_fractions,
                   normalize_yaw)
from .geometry import direction_at

DEFAULT_INTRINSICS = dict(fx=721.54, fy=721.54, cx=609.56, cy=172.85,
                          width=1242, height=375)

MOTION_CV = "constant-velocity"
MOTION_CTRV = "constant-turn-rate-velocity"

_SIZES = ("length_range", "width_range", "height_range")

# (sx, sy, sz) of the 8 box corners along (heading, lateral, up)
_SIGNS = np.array([(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
                   for sz in (-1.0, 1.0)])


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration: int = 60                 # frames
    frame_rate: float = 10.0
    ego_motion: str = "straight"       # "straight" | "arc"
    ego_arc_radius: float = 200.0      # meters; used when ego_motion == "arc"
    ego_speed: float = 8.0             # m/s
    object_count: int = 6
    layout: str = "random"             # "random" | "grid" (static convoy)
    motion_model: str = "mixed"        # "mixed" | MOTION_CV | MOTION_CTRV
    object_speed: tuple[float, float] = (4.0, 12.0)
    turn_rate: tuple[float, float] = (-0.15, 0.15)  # rad/s, CTRV objects
    length_range: tuple[float, float] = (3.5, 5.5)
    width_range: tuple[float, float] = (1.6, 2.0)
    height_range: tuple[float, float] = (1.4, 1.8)
    spawn_x: tuple[float, float] = (-8.0, 8.0)
    spawn_z: tuple[float, float] = (8.0, 45.0)
    camera_height: float = 1.65
    intrinsics: dict = field(default_factory=lambda: dict(DEFAULT_INTRINSICS))
    with_masks: bool = True
    min_depth: float = 0.5
    sequence_id: str = "sim"

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidArgument(f"sim.seed must be >= 0, got {self.seed!r}")
        if self.duration < 2:
            raise InvalidArgument("sim.duration must be >= 2 frames")
        if not self.frame_rate > 0:
            raise InvalidArgument(
                f"sim.frame_rate must be positive, got {self.frame_rate!r}")
        if self.object_count < 1:
            raise InvalidArgument(
                f"sim.object_count must be >= 1, got {self.object_count!r}")
        for f in fields(self):  # every tuple field is a (low, high) range
            v = getattr(self, f.name)
            pair = isinstance(f.default, tuple)
            if (pair or isinstance(f.default, float)) and not all(
                    map(math.isfinite, v if pair else [v])):
                raise InvalidArgument(f"sim.{f.name} must be finite, got {v!r}")
            if pair and v[1] < v[0]:
                raise InvalidArgument(f"sim.{f.name}: empty range {v!r}")
            if f.name in _SIZES and v[0] <= 0:
                raise InvalidArgument(
                    f"sim.{f.name} must be positive, got {v!r}")
        if self.ego_speed < 0 or self.object_speed[0] < 0:
            raise InvalidArgument("sim.ego_speed and sim.object_speed must "
                                  "be >= 0")
        if self.ego_motion == "arc" and self.ego_arc_radius == 0:
            raise InvalidArgument("sim.ego_arc_radius must be nonzero")
        try:
            CameraIntrinsics(**self.intrinsics)
        except InvalidArgument as e:
            raise InvalidArgument(f"sim.intrinsics: {e}") from None
        if self.sequence_id.split() != [self.sequence_id]:
            raise InvalidArgument("sim.sequence_id must be one token without "
                                  f"whitespace, got {self.sequence_id!r}")
        for name, allowed in (("ego_motion", ("straight", "arc")),
                              ("layout", ("random", "grid")),
                              ("motion_model", ("mixed", MOTION_CV,
                                                MOTION_CTRV))):
            if getattr(self, name) not in allowed:
                raise InvalidArgument(f"sim.{name} must be one of {allowed}, "
                                      f"got {getattr(self, name)!r}")


def _convex_hull(points: np.ndarray) -> list[tuple[float, float]]:
    """Monotone-chain hull of 2D points, counterclockwise, from the
    lexicographically sorted distinct points (all of them when at most 2)."""
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for chain, ordered in ((lower, pts), (upper, reversed(pts))):
        for p in ordered:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                # pop while o -> a -> p does not turn left
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
    return lower[:-1] + upper[:-1]


def _hull_masks(hulls: list[list[tuple[float, float]]],
                windows: list[tuple[int, int, int, int]]
                ) -> list[Optional[Mask2D]]:
    """The mask of each hull in its ``(left, top, w, h)`` window: the pixels
    whose centre ``(u, v) = (left + 0.5 + col, top + 0.5 + row)`` passes the
    test ``(bx-ax)*(v-ay) - (by-ay)*(u-ax) >= 0`` of every hull edge
    a -> b, bit for bit (None for a hull of fewer than 3 points, or for no
    such pixel).

    With ``A = (bx-ax)*(v-ay)`` and ``B(col) = (by-ay)*(u-ax)``, each
    rounded exactly as that expression rounds it (``u`` and ``v`` are exact
    half-integers), the test ``fl(A - B) >= 0`` holds iff ``B <= A``:
    rounding keeps the sign of a difference, and with gradual underflow
    ``A - B`` rounds to 0 only when ``A == B``. Correctly rounded ``-`` and
    ``*`` by a constant are monotone, so ``B`` is monotone in the column:
    a horizontal edge (``by-ay == 0``) keeps all of a row or none of it, and
    any other edge a prefix of the row (``by-ay > 0``) or a suffix. Every
    (edge, row) pair of every window is one array element. The prefix or
    suffix length is estimated by division, then the exact ``B <= A`` test
    at the boundary column and at the one before it moves the boundary by
    one column, until no boundary moves: each move goes toward the unique
    boundary of a monotone test, so what is left is that boundary. A row's
    span ``[lo, hi)`` is its prefixes and suffixes intersected.

    Row ``r``'s span is the row-major run ``[r*w + lo, r*w + hi)``, so a
    mask's run bounds increase, except that a run ending at column ``w``
    ends where the next row's run starting at column 0 starts. That bound
    is dropped twice, joining the runs, only within one mask. The bounds'
    differences from 0 are then a first skip >= 0 and counts > 0, a last
    skip is added only when > 0, and the counts are ``rle_encode`` of the
    full-grid bitmap.
    """
    masks: list[Optional[Mask2D]] = [None] * len(hulls)
    live = [i for i, hull in enumerate(hulls) if len(hull) >= 3]
    if not live:
        return masks
    win = np.array([windows[i] for i in live])
    lo, hi = _row_spans([hulls[i] for i in live], win)
    kept = np.flatnonzero(hi > lo)
    if not len(kept):
        return masks
    rows0 = np.array(list(accumulate(win[:, 3].tolist(), initial=0)))
    j = np.repeat(np.arange(len(live)), win[:, 3])[kept]
    base = (kept - rows0[j]) * win[j, 2]
    bounds = np.empty(2 * len(kept), dtype=np.intp)
    bounds[0::2], bounds[1::2] = base + lo[kept], base + hi[kept]
    j = np.repeat(j, 2)
    keep = np.ones(len(bounds), dtype=bool)  # drop each end a start shares
    keep[1:-1:2] = keep[2::2] = ((bounds[1:-1:2] != bounds[2::2])
                                 | (j[1:-1:2] != j[2::2]))
    bounds, j = bounds[keep], j[keep]
    starts = np.flatnonzero(np.append(True, j[1:] != j[:-1]))
    counts = np.append(bounds[0], np.diff(bounds))
    counts[starts] = bounds[starts]
    ends = np.append(starts[1:], len(bounds))
    tails = (win[:, 2] * win[:, 3])[j[starts]] - bounds[ends - 1]
    counts = counts.tolist()
    for m, s, e, tail in zip(j[starts].tolist(), starts.tolist(),
                             ends.tolist(), tails.tolist()):
        run = counts[s:e]
        if tail:
            run.append(tail)
        il, it, iw, ih = windows[live[m]]
        masks[live[m]] = Mask2D(origin=(il, it), shape=(ih, iw),
                                counts=tuple(run))
    return masks


def _row_spans(hulls: list[list[tuple[float, float]]],
               win: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` of each row of the ``(left, top, w, h)`` windows,
    one window's rows after another's: the columns ``[lo, hi)`` whose pixel
    passes every edge of the window's hull (at least 3 points), as
    ``_hull_masks`` says."""
    # edge k of a hull runs from a = hull[k] to b = hull[k + 1], wrapping
    n = [len(hull) for hull in hulls]
    first = np.array(list(accumulate(n, initial=0)))
    a = np.array([p for hull in hulls for p in hull])
    nxt = np.arange(1, len(a) + 1)
    nxt[first[1:] - 1] = first[:-1]
    d = a[nxt] - a                                       # (bx-ax, by-ay)
    # the horizontal edges, then the other prefix edges, then the suffix
    # edges, each with its window
    kind = np.where(d[:, 1] < 0, 2, d[:, 1] != 0)
    order = np.argsort(kind, kind="stable")
    owner = np.repeat(np.arange(len(hulls)), n)[order]
    ax, ay = a[order].T
    dx, dy = d[order].T
    left, top, w, he = win[owner].T
    # one element per (edge, row of its window), an edge's rows together
    pstart = np.array(list(accumulate(he.tolist(), initial=0)))
    nflat, nprefix = np.searchsorted(kind[order], [1, 2])
    flat, split, npair = pstart[[nflat, nprefix, -1]]
    rowid = np.arange(npair) - np.repeat(pstart[:-1], he)  # in its window
    A = np.repeat(top + 0.5, he) + rowid
    A -= np.repeat(ay, he)
    A *= np.repeat(dx, he)
    col = np.empty(npair)  # the prefix or suffix boundary
    col[:flat] = np.where(A[:flat] >= 0, np.repeat(w[:nflat], he[:nflat]), 0)
    u0, bx, by, bw = (np.repeat(v[nflat:], he[nflat:])
                      for v in (left + 0.5, ax, dy, w.astype(float)))
    bA, prefix, c = A[flat:], np.arange(flat, npair) < split, col[flat:]
    np.divide(bA, by, out=c)
    c += bx
    c -= u0
    np.minimum(np.maximum(np.ceil(c, out=c), 0.0, out=c), bw, out=c)
    todo = np.s_[:]  # all pairs (as views), then the pairs that moved
    while True:
        cc, p = c[todo], prefix[todo]
        u = u0[todo] + cc
        up = (by[todo] * (u - bx[todo]) <= bA[todo]) == p
        down = (by[todo] * ((u - 1.0) - bx[todo]) <= bA[todo]) != p
        step = np.minimum(np.maximum(cc + up - down, 0.0), bw[todo]) - cc
        c[todo] += step
        todo = np.arange(len(c))[todo][step != 0]
        if not len(todo):
            break
    col = col.astype(np.intp)
    rows0 = np.array(list(accumulate(win[:, 3].tolist(), initial=0)))
    rowid += np.repeat(rows0[owner], he)  # in all windows' rows
    hi = np.repeat(win[:, 2], win[:, 3])
    np.minimum.at(hi, rowid[:split], col[:split])
    lo = np.zeros(len(hi), dtype=np.intp)
    np.maximum.at(lo, rowid[split:], col[split:])
    return lo, hi


def _spawn_objects(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One row ``(x, z, phi, speed, omega, l, w, h)`` per object, the row
    index being its track id: world position, heading angle, speed, turn
    rate (0 for CV) and dimensions."""
    objects = []
    for i in range(cfg.object_count):
        dims = (float(rng.uniform(*cfg.length_range)),
                float(rng.uniform(*cfg.width_range)),
                float(rng.uniform(*cfg.height_range)))
        if cfg.layout == "grid":
            # diagonal formation moving with the ego: unique lateral offset
            # per object, so everything stays in view and unoccluded
            f = i / max(cfg.object_count - 1, 1)
            x = cfg.spawn_x[0] + f * (cfg.spawn_x[1] - cfg.spawn_x[0])
            z = cfg.spawn_z[0] + f * (cfg.spawn_z[1] - cfg.spawn_z[0])
            objects.append((x, z, 0.0, cfg.ego_speed, 0.0, *dims))
            continue
        x = float(rng.uniform(*cfg.spawn_x))
        z = float(rng.uniform(*cfg.spawn_z))
        phi = float(rng.uniform(-0.25, 0.25))  # roughly along the road
        if rng.random() < 0.3:
            phi += math.pi  # oncoming traffic
        speed = float(rng.uniform(*cfg.object_speed))
        if cfg.motion_model == MOTION_CV:
            ctrv = False
        elif cfg.motion_model == MOTION_CTRV:
            ctrv = True
        else:
            ctrv = bool(rng.random() < 0.5)
        omega = float(rng.uniform(*cfg.turn_rate)) if ctrv else 0.0
        objects.append((x, z, phi, speed, omega, *dims))
    return np.array(objects, dtype=float)


def _require_finite_motion(t: int, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidArgument(
            f"sim: frame {t}: the motion leaves the float range; see "
            "sim.frame_rate, sim.ego_speed, sim.object_speed, sim.turn_rate "
            "and sim.ego_arc_radius")


def simulate(cfg: SimConfig) -> Sequence:
    rng = np.random.default_rng(cfg.seed)
    K = CameraIntrinsics(**cfg.intrinsics)
    dt = 1.0 / cfg.frame_rate
    objects = _spawn_objects(cfg, rng)
    x, z, phi, speed, omega = objects[:, :5].T
    dims = objects[:, 5:]
    half = dims / 2                                     # (l/2, w/2, h/2)
    y = cfg.camera_height - dims[:, 2] / 2.0
    zero = np.zeros_like(x)
    up = np.array([0.0, 1.0, 0.0])

    ego_x, ego_z, ego_phi = 0.0, 0.0, 0.0
    ego_omega = (cfg.ego_speed / cfg.ego_arc_radius
                 if cfg.ego_motion == "arc" else 0.0)

    frames = []
    for t in range(cfg.duration):
        _require_finite_motion(t, [ego_x, ego_z, ego_phi], x, z, phi)
        cos_e, sin_e = math.cos(ego_phi), math.sin(ego_phi)
        # world->camera rotation, its rows the camera axes in world
        # coordinates (see the module docstring for the batched products)
        rot = np.array([[cos_e, 0.0, -sin_e], [0.0, 1.0, 0.0],
                        [sin_e, 0.0, cos_e]])
        ego_t = np.array([ego_x, 0.0, ego_z])
        pose = np.hstack([rot, (-rot @ ego_t).reshape(3, 1)])

        sin_p = np.array([math.sin(p) for p in phi.tolist()])
        cos_p = np.array([math.cos(p) for p in phi.tolist()])
        centers = (np.stack([x, y, z], axis=1) - ego_t) @ rot.T
        _require_finite_motion(t, pose, centers)
        ids = np.flatnonzero(centers[:, 2] > cfg.min_depth)
        hc = np.stack([sin_p[ids], zero[ids], cos_p[ids]], axis=1) @ rot.T
        yaws = [math.atan2(-hz, hx) for hx, hz in hc[:, ::2].tolist()]
        cos_y = np.array([math.cos(v) for v in yaws])
        sin_y = np.array([math.sin(v) for v in yaws])
        heading = np.stack([cos_y, zero[ids], -sin_y], axis=1)[:, None]
        lateral = np.stack([sin_y, zero[ids], cos_y], axis=1)[:, None]
        hl, hw, hh = half[ids].T[:, :, None, None]
        corners = (centers[ids, None] + _SIGNS[:, :1] * hl * heading
                   + _SIGNS[:, 1:2] * hw * lateral + _SIGNS[:, 2:] * hh * up)
        # geometry.project of every corner (one behind the camera may divide
        # by a depth of 0); boxes with a corner at depth <= 0.1 or clipped
        # to 1 px or less are not annotated
        front = corners[:, :, 2].min(axis=1) > 0.1
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = np.stack([K.fx * corners[..., 0] / corners[..., 2] + K.cx,
                           K.fy * corners[..., 1] / corners[..., 2] + K.cy],
                          axis=2)
            lt = np.maximum(uv.min(axis=1), 0.0)
            rb = np.minimum(uv.max(axis=1), [float(K.width), float(K.height)])
            sel = np.flatnonzero(front & ((rb - lt) > 1.0).all(axis=1))
        edges = np.concatenate([lt[sel], rb[sel]], axis=1)

        boxes, box3ds, tracks = [], [], ids[sel].tolist()
        for (left, top, right, bottom), i, k in zip(edges.tolist(), tracks,
                                                    sel.tolist()):
            boxes.append(Box2D.from_corners(left, top, right, bottom))
            # the center and yaw Box3D stores, which direction_at must see
            center = tuple(centers[i].tolist())
            yaw = normalize_yaw(yaws[k])
            box3ds.append(Box3D(center=center, dims=tuple(dims[i].tolist()),
                                yaw=yaw, direction=direction_at(center, yaw)))
        masks = [None] * len(boxes)
        if cfg.with_masks:
            windows = np.concatenate([np.floor(edges[:, :2]),
                                      np.ceil(edges[:, 2:])], axis=1)
            windows[:, 2:] = np.maximum(windows[:, 2:] - windows[:, :2], 1)
            masks = _hull_masks([_convex_hull(uv[k]) for k in sel],
                                [tuple(r) for r in
                                 windows.astype(int).tolist()])
        fractions = covered_fractions(boxes, [b.center[2] for b in box3ds])
        frame = Frame(frame_index=t, ego_pose=pose, annotations=tuple(
            Annotation(frame_index=t, track_id=i, box2d=b2, box3d=b3,
                       occlusion_level=occlusion_level(f), mask=m,
                       visibility=visibility_from_fraction(f))
            for i, b2, b3, m, f in zip(tracks, boxes, box3ds, masks,
                                       fractions)))
        # the fractions of the same boxes and depths: store them in the
        # slot of the cached property rather than compute them again
        frame.__dict__["occlusion"] = dict(zip(tracks, fractions))
        frames.append(frame)

        # step kinematics
        ego_x += cfg.ego_speed * math.sin(ego_phi) * dt
        ego_z += cfg.ego_speed * math.cos(ego_phi) * dt
        ego_phi += ego_omega * dt
        x = x + speed * sin_p * dt
        z = z + speed * cos_p * dt
        phi = phi + omega * dt

    if not any(f.annotations for f in frames):
        raise InvalidArgument(
            f"sim: the scene has no annotation: none of its {cfg.object_count}"
            f" objects is in view in any of its {cfg.duration} frames")
    return Sequence(id=cfg.sequence_id, intrinsics=K, frames=tuple(frames),
                    frame_rate=cfg.frame_rate)


def occlusion_level(fraction: float) -> int:
    if fraction < 0.1:
        return 0
    if fraction < 0.5:
        return 1
    return 2


def visibility_from_fraction(fraction: float) -> int:
    # simulator convention for nuScenes-style visibility buckets
    if fraction < 0.2:
        return 4
    if fraction < 0.4:
        return 3
    if fraction < 0.6:
        return 2
    return 1
