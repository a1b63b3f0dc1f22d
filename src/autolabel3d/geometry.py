"""Pinhole camera math and yaw recovery from front/center/back keypoints.

Conventions: camera frame is x right, y down, z forward. Yaw is measured
about the y-axis with yaw 0 heading along +x, i.e. the heading vector of a
box with yaw t is (cos t, 0, -sin t). Under this convention the yaw of a
box facing the camera is recovered exactly as
-atan2(z_f - z_c, x_f - x_c), and as pi - atan2(z_b - z_c, x_b - x_c) when
facing away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (AWAY, TOWARDS, Box3D, CameraIntrinsics, InvalidArgument,
                   Keypoints3D, normalize_yaw)

DEGENERATE_EPS = 1e-9


class BehindCameraError(ValueError):
    """Raised when projecting or lifting a point with nonpositive depth."""


class DegenerateKeypointsError(ValueError):
    """Raised when the keypoint pair selected for yaw recovery is degenerate."""


@dataclass(frozen=True)
class PixelKeypoints:
    """Pixel projections of the front/center/back points plus their depths."""

    front: tuple[float, float]
    center: tuple[float, float]
    back: tuple[float, float]
    depths: tuple[float, float, float]  # (z_front, z_center, z_back) meters
    direction: str

    def __post_init__(self):
        if any(d <= 0 for d in self.depths):
            raise InvalidArgument(f"keypoint depths must be positive: {self.depths}")
        if self.direction not in (TOWARDS, AWAY):
            raise InvalidArgument(f"unknown direction {self.direction!r}")


def project(p, K: CameraIntrinsics) -> tuple[float, float]:
    x, y, z = p
    if z <= 0:
        raise BehindCameraError(f"cannot project point with z={z}")
    return (K.fx * x / z + K.cx, K.fy * y / z + K.cy)


def backproject(u: float, v: float, depth: float, K: CameraIntrinsics):
    if depth <= 0:
        raise BehindCameraError(f"cannot lift pixel with depth={depth}")
    return ((u - K.cx) * depth / K.fx, (v - K.cy) * depth / K.fy, depth)


def heading_vector(yaw: float) -> tuple[float, float, float]:
    return (math.cos(yaw), 0.0, -math.sin(yaw))


def box_keypoints(b: Box3D) -> Keypoints3D:
    """Front/back points at +-length/2 along the heading, on the mid-plane."""
    hx, _, hz = heading_vector(b.yaw)
    half = b.dims[0] / 2.0
    cx, cy, cz = b.center
    return Keypoints3D(
        front=(cx + half * hx, cy, cz + half * hz),
        center=(cx, cy, cz),
        back=(cx - half * hx, cy, cz - half * hz),
    )


def yaw_from_keypoints(k: Keypoints3D, d: str) -> float:
    """Recover yaw from the keypoint pair selected by the direction flag."""
    if d == TOWARDS:
        dx = k.front[0] - k.center[0]
        dz = k.front[2] - k.center[2]
        if max(abs(dx), abs(dz)) <= DEGENERATE_EPS:
            raise DegenerateKeypointsError("front and center keypoints coincide")
        return normalize_yaw(-math.atan2(dz, dx))
    if d == AWAY:
        dx = k.back[0] - k.center[0]
        dz = k.back[2] - k.center[2]
        if max(abs(dx), abs(dz)) <= DEGENERATE_EPS:
            raise DegenerateKeypointsError("back and center keypoints coincide")
        return normalize_yaw(math.pi - math.atan2(dz, dx))
    raise InvalidArgument(f"unknown direction {d!r}")


def direction_at(center, yaw: float) -> str:
    """Towards iff a heading of ``yaw`` at ``center`` points back at the
    camera; ties -> towards."""
    hx, _, hz = heading_vector(yaw)
    cx, _, cz = center
    dot = hx * (-cx) + hz * (-cz)
    return TOWARDS if dot >= 0 else AWAY


def direction_of(b: Box3D) -> str:
    """The direction of a box (``direction_at`` its centre and yaw)."""
    return direction_at(b.center, b.yaw)


def lift_keypoints(pk: PixelKeypoints, K: CameraIntrinsics) -> Keypoints3D:
    return Keypoints3D(
        front=backproject(*pk.front, pk.depths[0], K),
        center=backproject(*pk.center, pk.depths[1], K),
        back=backproject(*pk.back, pk.depths[2], K),
    )


def project_keypoints(b: Box3D, K: CameraIntrinsics) -> PixelKeypoints:
    """Exact pixel keypoints of a box: projections plus true depths."""
    k = box_keypoints(b)
    return PixelKeypoints(
        front=project(k.front, K),
        center=project(k.center, K),
        back=project(k.back, K),
        depths=(k.front[2], k.center[2], k.back[2]),
        direction=b.direction,
    )
