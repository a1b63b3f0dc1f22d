"""Deterministic synthetic driving-world generator.

Produces camera sequences with full 3D ground truth (tracks, projected 2D
boxes, coarse masks, occlusion levels) so the propagation pipeline and the
metrics can be verified end to end at desk scale.

World frame: X right, Y down (gravity), Z forward, with the camera at
Y = 0 and the ground plane at Y = camera_height. Planar headings are given
by an angle phi with direction vector (sin phi, 0, cos phi), so phi = 0
means driving along +Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .core import (Annotation, Box2D, Box3D, CameraIntrinsics, Frame,
                   InvalidArgument, Mask2D, Sequence, normalize_yaw,
                   occlusion_fractions)
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


@dataclass
class _ObjectState:
    track_id: int
    x: float
    z: float
    phi: float        # world heading angle
    speed: float
    omega: float      # turn rate (0 for CV)
    dims: tuple[float, float, float]  # (l, w, h)


def _convex_hull(points: np.ndarray) -> list[tuple[float, float]]:
    """Monotone-chain hull of 2D points, counterclockwise, from the
    lexicographically sorted distinct points (all of them when at most 2)."""
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_mask(corners_uv: np.ndarray, left: int, top: int,
               w: int, h: int) -> Optional[Mask2D]:
    """Pixels of the ``w x h`` window at (left, top) whose centre
    ``(u, v) = (left + 0.5 + col, top + 0.5 + row)`` passes the test
    ``(bx-ax)*(v-ay) - (by-ay)*(u-ax) >= 0`` of every hull edge a -> b.

    Each row is filled as one column span ``[lo, hi)``, with one
    ``searchsorted`` per edge, and the mask is the full-grid test's bit for
    bit. With ``A[row] = (bx-ax)*(v-ay)`` and ``B[col] = (by-ay)*(u-ax)``,
    rounded exactly as the full-grid expression rounds them, the test is
    ``fl(A - B) >= 0``, which for finite doubles holds iff ``A >= B``:
    rounding keeps the sign of a difference, and with gradual underflow
    ``A - B`` rounds to 0 only when ``A == B``. Correctly rounded ``-`` and
    ``*`` by a constant are monotone, so ``B`` is non-decreasing in the
    column when ``by-ay >= 0`` and the edge keeps the prefix of the row where
    ``B <= A``, and it is non-increasing otherwise and the edge keeps a
    suffix.

    The counts follow with no bitmap. Row ``r``'s span is the row-major
    run ``[r*w + lo, r*w + hi)``, so the runs' bounds increase, except that
    a run ending at column ``w`` ends where the next row's run starting at
    column 0 starts. Dropping that bound twice joins the two runs. From 0
    through the rest of the bounds, the differences are then a first skip
    >= 0 and counts > 0, a last skip is added only when > 0, and the counts
    are ``rle_encode`` of the full-grid bitmap.
    """
    hull = _convex_hull(corners_uv)
    if len(hull) < 3:
        return None
    # edge k runs from a = hull[k] to b = hull[k + 1], wrapping around
    a = np.array(hull)
    d = np.array(hull[1:] + hull[:1]) - a                     # (bx-ax, by-ay)
    rows = d[:, :1] * (top + 0.5 + np.arange(h) - a[:, 1:])   # A of each edge
    cols = d[:, 1:] * (left + 0.5 + np.arange(w) - a[:, :1])  # B of each edge
    lo = np.zeros(h, dtype=np.intp)
    hi = np.full(h, w, dtype=np.intp)
    for k, dy in enumerate(d[:, 1].tolist()):
        if dy >= 0:
            np.minimum(hi, cols[k].searchsorted(rows[k], "right"), out=hi)
        else:
            np.maximum(lo, w - cols[k, ::-1].searchsorted(rows[k], "right"),
                       out=lo)
    r = np.flatnonzero(hi > lo)
    if not len(r):
        return None
    bounds = np.zeros(2 * len(r) + 1, dtype=np.intp)
    bounds[1::2], bounds[2::2] = r * w + lo[r], r * w + hi[r]
    keep = np.ones(len(bounds), dtype=bool)  # drop each end a start shares
    keep[2:-1:2] = keep[3::2] = bounds[2:-1:2] != bounds[3::2]
    counts = np.diff(bounds[keep]).tolist()
    if bounds[-1] < w * h:
        counts.append(w * h - int(bounds[-1]))
    return Mask2D(origin=(left, top), shape=(h, w), counts=tuple(counts))


def _spawn_objects(cfg: SimConfig, rng: np.random.Generator) -> list[_ObjectState]:
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
            objects.append(_ObjectState(i, x, z, phi=0.0, speed=cfg.ego_speed,
                                        omega=0.0, dims=dims))
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
        objects.append(_ObjectState(i, x, z, phi, speed, omega, dims))
    return objects


def simulate(cfg: SimConfig) -> Sequence:
    rng = np.random.default_rng(cfg.seed)
    K = CameraIntrinsics(**cfg.intrinsics)
    dt = 1.0 / cfg.frame_rate
    objects = _spawn_objects(cfg, rng)

    ego_x, ego_z, ego_phi = 0.0, 0.0, 0.0
    ego_omega = (cfg.ego_speed / cfg.ego_arc_radius
                 if cfg.ego_motion == "arc" else 0.0)

    frames = []
    for t in range(cfg.duration):
        cos_e, sin_e = math.cos(ego_phi), math.sin(ego_phi)
        # camera axes in world coordinates
        x_axis = np.array([cos_e, 0.0, -sin_e])
        y_axis = np.array([0.0, 1.0, 0.0])
        z_axis = np.array([sin_e, 0.0, cos_e])
        rot = np.stack([x_axis, y_axis, z_axis])  # world->camera rotation
        ego_t = np.array([ego_x, 0.0, ego_z])
        pose = np.hstack([rot, (-rot @ ego_t).reshape(3, 1)])

        anns: list[Annotation] = []
        for obj in objects:
            l, w, h = obj.dims
            center_w = np.array([obj.x, cfg.camera_height - h / 2.0, obj.z])
            center_c = rot @ (center_w - ego_t)
            if center_c[2] <= cfg.min_depth:
                continue
            head_w = np.array([math.sin(obj.phi), 0.0, math.cos(obj.phi)])
            hc = rot @ head_w
            yaw = math.atan2(-hc[2], hc[0])
            heading = np.array([math.cos(yaw), 0.0, -math.sin(yaw)])
            lateral = np.array([math.sin(yaw), 0.0, math.cos(yaw)])
            up = np.array([0.0, 1.0, 0.0])
            corners = (center_c + _SIGNS[:, :1] * (l / 2) * heading
                       + _SIGNS[:, 1:2] * (w / 2) * lateral
                       + _SIGNS[:, 2:] * (h / 2) * up)
            if corners[:, 2].min() <= 0.1:
                continue
            # geometry.project, one corner per row
            uv = np.stack([K.fx * corners[:, 0] / corners[:, 2] + K.cx,
                           K.fy * corners[:, 1] / corners[:, 2] + K.cy],
                          axis=1)
            left = max(uv[:, 0].min(), 0.0)
            right = min(uv[:, 0].max(), float(K.width))
            top = max(uv[:, 1].min(), 0.0)
            bottom = min(uv[:, 1].max(), float(K.height))
            if right - left <= 1.0 or bottom - top <= 1.0:
                continue
            box2d = Box2D.from_corners(left, top, right, bottom)

            # the center and yaw Box3D stores, which direction_at must see
            center = tuple(float(c) for c in center_c)
            yaw = normalize_yaw(yaw)
            box3d = Box3D(center=center, dims=(l, w, h), yaw=yaw,
                          direction=direction_at(center, yaw))

            mask = None
            if cfg.with_masks:
                il, it = int(math.floor(left)), int(math.floor(top))
                iw = max(int(math.ceil(right)) - il, 1)
                ih = max(int(math.ceil(bottom)) - it, 1)
                mask = _hull_mask(uv, il, it, iw, ih)
            anns.append(Annotation(frame_index=t, track_id=obj.track_id,
                                   box2d=box2d, box3d=box3d,
                                   occlusion_level=0, mask=mask))

        # occlusion needs every annotation in the frame
        fractions = occlusion_fractions(anns)
        final = tuple(replace(
            a, occlusion_level=occlusion_level(fractions[a.track_id]),
            visibility=visibility_from_fraction(fractions[a.track_id]))
            for a in anns)
        frame = Frame(frame_index=t, ego_pose=pose, annotations=final)
        # the fractions of the same boxes and depths: store them in the
        # slot of the cached property rather than compute them again
        frame.__dict__["occlusion"] = fractions
        frames.append(frame)

        # step kinematics
        ego_x += cfg.ego_speed * math.sin(ego_phi) * dt
        ego_z += cfg.ego_speed * math.cos(ego_phi) * dt
        ego_phi += ego_omega * dt
        for obj in objects:
            obj.x += obj.speed * math.sin(obj.phi) * dt
            obj.z += obj.speed * math.cos(obj.phi) * dt
            obj.phi += obj.omega * dt

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
