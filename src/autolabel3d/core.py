"""Shared domain types for the 3D track auto-labeling engine.

All types are immutable value objects: construction validates invariants and
instances are safe to share across threads. A mask is its run lengths, the
form the artifacts write and read; its pixels are decoded only on request.
The lookups derived from a frame or a sequence (``Frame.by_track``,
``Frame.occlusion``, ``Sequence.frame_map``, ``Sequence.tracks``) are built
once, on first read, and shared by every reader, which must not change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

TOWARDS = "towards"
AWAY = "away"
FORWARD = "forward"
BACKWARD = "backward"


class InvalidArgument(ValueError):
    """Raised when a value violates a documented precondition."""


class DecodeError(ValueError):
    """Raised when a serialized payload cannot be decoded."""


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise InvalidArgument(f"{name} must be finite, got {v!r}")


def _require_id(name, value):
    """Ids are one 32-bit word each of the oracle's noise keys."""
    if not 0 <= value < 2 ** 32:
        bound = ">= 0" if value < 0 else "< 2**32"
        raise InvalidArgument(f"{name} must be {bound}, got {value}")


def normalize_yaw(theta: float) -> float:
    """Map an angle to the canonical range (-pi, pi], keeping pi (not -pi)."""
    if not math.isfinite(theta):
        raise InvalidArgument(f"yaw must be finite, got {theta!r}")
    r = theta % (2.0 * math.pi)
    if r > math.pi:
        r -= 2.0 * math.pi
    # float rounding in the modulo can land exactly on -pi
    if r <= -math.pi:
        r = math.pi
    return r


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _require_finite("intrinsics", self.fx, self.fy, self.cx, self.cy)
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidArgument("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise InvalidArgument("principal point must lie inside the image")


@dataclass(frozen=True)
class Box2D:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        _require_finite("box2d", self.cx, self.cy, self.w, self.h)
        if self.w <= 0 or self.h <= 0:
            raise InvalidArgument("box2d sides must be positive")
        if not math.isfinite(self.w * self.h):
            raise InvalidArgument(
                f"box2d area must be finite, got {self.w!r} x {self.h!r}")

    @property
    def left(self):
        return self.cx - self.w / 2.0

    @property
    def right(self):
        return self.cx + self.w / 2.0

    @property
    def top(self):
        return self.cy - self.h / 2.0

    @property
    def bottom(self):
        return self.cy + self.h / 2.0

    @classmethod
    def from_corners(cls, left, top, right, bottom) -> "Box2D":
        return cls(cx=(left + right) / 2.0, cy=(top + bottom) / 2.0,
                   w=right - left, h=bottom - top)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two axis-aligned boxes, in [0, 1]."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    # corner reconstruction can round the overlap above the box areas
    inter = min(iw * ih, a.w * a.h, b.w * b.h)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def _rect_union_area(rects: list[tuple[float, float, float, float]]) -> float:
    """Exact union area of axis-aligned rectangles via coordinate compression."""
    if not rects:
        return 0.0
    xs = sorted({r[0] for r in rects} | {r[2] for r in rects})
    ys = sorted({r[1] for r in rects} | {r[3] for r in rects})
    area = 0.0
    for i in range(len(xs) - 1):
        cx = (xs[i] + xs[i + 1]) / 2.0
        for j in range(len(ys) - 1):
            cy = (ys[j] + ys[j + 1]) / 2.0
            if any(r[0] <= cx <= r[2] and r[1] <= cy <= r[3] for r in rects):
                area += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return area


def occlusion_fractions(annotations) -> dict[int, float]:
    """``covered_fractions`` of the annotations' 2D boxes at their centres'
    depths, for annotations of distinct tracks as a ``Frame`` holds. Keyed
    by track id."""
    return dict(zip([a.track_id for a in annotations], covered_fractions(
        [a.box2d for a in annotations],
        [a.box3d.center[2] for a in annotations])))


def covered_fractions(boxes: list[Box2D], depths: list[float]) -> list[float]:
    """Fraction of each 2D box covered by the boxes of strictly nearer ones:
    the union area of those boxes clipped to it, over its area, capped at 1."""
    if not boxes:
        return []
    edges = np.array([(b.left, b.top, b.right, b.bottom) for b in boxes])
    depth = np.array(depths)
    # row i: every box clipped to box i
    lo = np.maximum(edges[:, None, :2], edges[None, :, :2])
    hi = np.minimum(edges[:, None, 2:], edges[None, :, 2:])
    covers = (depth[None, :] < depth[:, None]) & (hi > lo).all(axis=2)
    fractions = []
    for i, b in enumerate(boxes):
        js = np.flatnonzero(covers[i])
        if not len(js):
            fractions.append(0.0)
            continue
        rects = np.concatenate([lo[i, js], hi[i, js]], axis=1).tolist()
        fractions.append(min(_rect_union_area(rects) / (b.w * b.h), 1.0))
    return fractions


def rle_encode(bitmap: np.ndarray) -> list[int]:
    """Row-major alternating (skip, run) counts; always starts with a skip."""
    flat = np.asarray(bitmap, dtype=bool).ravel()
    # where a run of either value starts, counting from a run of false
    starts = np.flatnonzero(np.diff(flat, prepend=False))
    return np.diff(np.concatenate(([0], starts, [flat.size]))).tolist()


def rle_decode(counts: list[int], shape: tuple[int, int]) -> np.ndarray:
    total = int(shape[0]) * int(shape[1])
    if any(c < 0 for c in counts):
        raise DecodeError("rle counts must be nonnegative")
    if sum(counts) != total:
        raise DecodeError(
            f"rle counts sum to {sum(counts)}, expected {total} for shape {shape}")
    # the counts alternate between false and true pixels, false first
    return np.repeat(np.arange(len(counts)) % 2 == 1, counts).reshape(shape)


@dataclass(frozen=True)
class Mask2D:
    """Binary mask of a pixel window at an integer origin, stored as the
    window's row-major run lengths as ``rle_encode`` writes them (COCO's)."""

    origin: tuple[int, int]  # (x0, y0) pixel offset of the window's (0, 0)
    shape: tuple[int, int]   # (rows, cols)
    counts: tuple[int, ...]  # canonical: a skip >= 0, then counts > 0

    def __post_init__(self):
        c, (rows, cols) = self.counts, self.shape
        if min(self.origin) < 0 or rows < 0 or cols < 0:
            raise InvalidArgument("mask origin and shape must be nonnegative")
        if (not c or c[0] < 0 or min(c[1:], default=1) <= 0
                or sum(c) != rows * cols):
            raise InvalidArgument("mask counts must be a skip >= 0 and then "
                                  f"counts > 0 that sum to {rows * cols}")

    @cached_property
    def rle_text(self) -> str:
        """The counts space-separated, formatted once per mask."""
        return " ".join(map(str, self.counts))

    @property
    def bitmap(self) -> np.ndarray:
        """The window's pixels, decoded on each read."""
        return rle_decode(self.counts, self.shape)

    @classmethod
    def from_bitmap(cls, origin, bitmap) -> "Mask2D":
        return cls(tuple(origin), np.shape(bitmap), tuple(rle_encode(bitmap)))


@dataclass(frozen=True)
class Box3D:
    """3D box in the camera frame: x right, y down, z forward.

    yaw is the rotation about the camera y-axis in (-pi, pi], with yaw 0
    meaning heading along +x and heading vector (cos yaw, 0, -sin yaw).
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]  # (length, width, height) meters
    yaw: float
    direction: str  # TOWARDS or AWAY

    def __post_init__(self):
        _require_finite("box3d.center", *self.center)
        _require_finite("box3d.dims", *self.dims)
        _require_finite("box3d.yaw", self.yaw)
        if any(d <= 0 for d in self.dims):
            raise InvalidArgument(f"box3d dims must be positive, got {self.dims}")
        if self.direction not in (TOWARDS, AWAY):
            raise InvalidArgument(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "dims", tuple(float(d) for d in self.dims))
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))


@dataclass(frozen=True)
class Keypoints3D:
    """Front, center, and back points of a box, each (x, y, z) meters."""

    front: tuple[float, float, float]
    center: tuple[float, float, float]
    back: tuple[float, float, float]

    def __post_init__(self):
        for name, p in (("front", self.front), ("center", self.center),
                        ("back", self.back)):
            _require_finite(f"keypoints.{name}", *p)


@dataclass(frozen=True)
class Annotation:
    frame_index: int
    track_id: int
    box2d: Box2D
    box3d: Box3D
    occlusion_level: int  # KITTI convention, {0,1,2,3}
    mask: Optional[Mask2D] = None
    visibility: Optional[int] = None  # nuScenes convention, {1,2,3,4}

    def __post_init__(self):
        _require_id("frame_index", self.frame_index)
        _require_id("track_id", self.track_id)
        if self.occlusion_level not in (0, 1, 2, 3):
            raise InvalidArgument(
                f"occlusion_level must be in {{0,1,2,3}}, got {self.occlusion_level}")
        if self.visibility is not None and self.visibility not in (1, 2, 3, 4):
            raise InvalidArgument(
                f"visibility must be in {{1,2,3,4}}, got {self.visibility}")


@dataclass(frozen=True)
class Frame:
    frame_index: int
    ego_pose: tuple[float, ...]  # world->camera [R | t], 12 floats row-major
    annotations: tuple[Annotation, ...]

    def __post_init__(self):
        _require_id("frame_index", self.frame_index)
        pose = tuple(np.asarray(self.ego_pose, dtype=float).ravel().tolist())
        if len(pose) != 12:
            raise InvalidArgument(f"ego pose must be 12 numbers, got {len(pose)}")
        _require_finite("ego pose", *pose)
        object.__setattr__(self, "ego_pose", pose)
        object.__setattr__(self, "annotations", tuple(self.annotations))
        for a in self.annotations:
            if a.frame_index != self.frame_index:
                raise InvalidArgument(
                    f"frame {self.frame_index} holds an annotation of frame "
                    f"{a.frame_index} (track {a.track_id})")
        if len(self.by_track) < len(self.annotations):
            tracks = [a.track_id for a in self.annotations]
            twice = next(t for i, t in enumerate(tracks) if t in tracks[:i])
            raise InvalidArgument(f"frame {self.frame_index} annotates "
                                  f"track {twice} twice")

    @cached_property
    def by_track(self) -> dict[int, Annotation]:
        """Each annotated track's annotation."""
        return {a.track_id: a for a in self.annotations}

    @cached_property
    def occlusion(self) -> dict[int, float]:
        """Each annotated track's ``occlusion_fractions``, computed on the
        first read (``simulate`` stores the ones it computed)."""
        return occlusion_fractions(self.annotations)


@dataclass(frozen=True)
class Sequence:
    id: str
    intrinsics: CameraIntrinsics
    frames: tuple[Frame, ...]
    frame_rate: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        indices = [f.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise InvalidArgument("frame_index must be strictly increasing")
        if not 0 < self.frame_rate < math.inf:
            raise InvalidArgument("frame_rate must be positive and finite, "
                                  f"got {self.frame_rate!r}")

    def frame(self, frame_index: int) -> Frame:
        f = self.frame_map.get(frame_index)
        if f is None:
            raise KeyError(f"no frame {frame_index} in sequence {self.id!r}")
        return f

    @cached_property
    def frame_map(self) -> dict[int, Frame]:
        return {f.frame_index: f for f in self.frames}

    @cached_property
    def tracks(self) -> dict[int, tuple[Annotation, ...]]:
        """Each track's annotations in frame order, the tracks in order of
        first appearance."""
        tracks: dict[int, list[Annotation]] = {}
        for f in self.frames:
            for a in f.annotations:
                tracks.setdefault(a.track_id, []).append(a)
        return {tid: tuple(anns) for tid, anns in tracks.items()}

    def annotation(self, frame_index: int, track_id: int) -> Optional[Annotation]:
        f = self.frame_map.get(frame_index)
        return None if f is None else f.by_track.get(track_id)

    def track_ids(self) -> list[int]:
        return list(self.tracks)


@dataclass(frozen=True)
class Provenance:
    direction: str  # FORWARD or BACKWARD
    source_frame_index: int

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise InvalidArgument(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class Pseudolabel:
    frame_index: int
    track_id: int
    box2d: Box2D
    box3d: Box3D
    confidence: float
    provenance: Provenance
    mask: Optional[Mask2D] = None

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise InvalidArgument(
                f"confidence must be in [0,1], got {self.confidence}")


def no_such_frame(seq: "Sequence", p: "Pseudolabel") -> InvalidArgument:
    """The error for a prediction at a frame ``seq`` lacks."""
    return InvalidArgument(f"prediction for track {p.track_id} at frame "
                           f"{p.frame_index}: sequence {seq.id!r} has no "
                           "such frame")


@dataclass(frozen=True)
class Heatmap:
    """Grid of values in [0, 1] at a stated stride relative to the image.

    Grid shape is (ceil(height/stride), ceil(width/stride)); the image is
    conceptually padded on the right/bottom to the next stride multiple.
    """

    values: np.ndarray
    stride: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InvalidArgument("heatmap must be 2D")
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails
            raise InvalidArgument("heatmap values must lie in [0,1]")
        if self.stride < 1:
            raise InvalidArgument("stride must be >= 1")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Heatmap):
            return NotImplemented
        return (self.stride == other.stride
                and self.values.shape == other.values.shape
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self):
        # equal grids can differ in bytes (0.0 and -0.0), so hash no values
        return hash((self.stride, self.values.shape))
