"""Pluggable providers standing in for the learned networks.

The oracle implementations answer queries from simulator ground truth plus
parameterized noise, so the propagation pipeline and ablations can run at
desk scale. Each noise draw comes from a keyed counter hash (Salmon et al.
2011, "Parallel Random Numbers: As Easy as 1, 2, 3"): SplitMix64 over the
words of ``(seed, purpose, track, frame[, source])``. A draw depends on its
key alone, never on the order of the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from statistics import NormalDist
from typing import Optional

import numpy as np

from .core import (AWAY, TOWARDS, Box2D, Heatmap, InvalidArgument, Mask2D,
                   Sequence)
from .geometry import PixelKeypoints, project_keypoints

_TAG_DROPOUT = 1
_TAG_CENTER = 2
_TAG_DEPTH = 3
_TAG_DIMS = 4
_TAG_DIRECTION = 5

_M64 = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / golden ratio
_NORMAL = NormalDist()


def _mix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood 2014): a bijection of
    64-bit words in which every output bit depends on every input bit."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def _absorb(h: int, word: int) -> int:
    """The hash ``h`` with one more 64-bit word mixed in."""
    return _mix64((h + _GOLDEN ^ word) & _M64)


def _exp_or_inf(x: float) -> float:
    """``math.exp``, but inf where it would overflow: a noise factor past
    the float range gives an estimate that fails to lift, i.e. a miss."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NoiseConfig:
    match_dropout_base: float = 0.0
    dropout_occlusion_gain: float = 0.0
    center_px_sigma: float = 0.0
    depth_rel_sigma: float = 0.0
    dims_rel_sigma: float = 0.0
    direction_flip_prob: float = 0.0
    confidence_c0: float = 0.98
    confidence_d0: float = 120.0   # meters; math.inf disables distance decay
    confidence_k_occ: float = 0.6
    seed: int = 0

    def __post_init__(self):
        # a probability, or a confidence factor: c0 and k_occ in [0, 1]
        # keep every oracle confidence in [0, 1]
        for name in ("match_dropout_base", "direction_flip_prob",
                     "confidence_c0", "confidence_k_occ"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgument(
                    f"noise.{name} must lie in [0, 1], got {v!r}")
        for name in ("center_px_sigma", "depth_rel_sigma", "dims_rel_sigma",
                     "dropout_occlusion_gain"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise InvalidArgument(
                    f"noise.{name} must be finite and >= 0, got {v!r}")
        if not self.confidence_d0 > 0:
            raise InvalidArgument(
                "noise.confidence_d0 must be positive (inf disables the "
                f"distance decay), got {self.confidence_d0!r}")
        if self.seed < 0:
            raise InvalidArgument(f"noise.seed must be >= 0, got {self.seed!r}")

    @classmethod
    def noiseless(cls, seed: int = 0) -> "NoiseConfig":
        """Exact ground-truth oracle: no dropout, no noise, confidence 1."""
        return cls(confidence_c0=1.0, confidence_d0=math.inf,
                   confidence_k_occ=0.0, seed=seed)


@dataclass(frozen=True)
class MatchResult:
    box2d: Box2D
    confidence: float
    mask: Optional[Mask2D] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidArgument(f"confidence out of range: {self.confidence}")


@dataclass(frozen=True)
class GeomResult:
    keypoints_px: PixelKeypoints
    dims: tuple[float, float, float]

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise InvalidArgument(f"dims must be positive: {self.dims}")

    @property
    def direction(self) -> str:
        return self.keypoints_px.direction


def gaussian_radius(height: float, width: float, min_overlap: float = 0.7) -> float:
    """CornerNet-style radius so any center within it keeps IoU >= min_overlap."""
    a1, b1 = 1.0, height + width
    c1 = width * height * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 + math.sqrt(b1 * b1 - 4 * a1 * c1)) / 2

    a2, b2 = 4.0, 2 * (height + width)
    c2 = (1 - min_overlap) * width * height
    r2 = (b2 + math.sqrt(b2 * b2 - 4 * a2 * c2)) / 2

    a3, b3 = 4.0 * min_overlap, -2 * min_overlap * (height + width)
    c3 = (min_overlap - 1) * width * height
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)
    return min(r1, r2, r3)


def heatmap_shape(width: int, height: int, stride: int) -> tuple[int, int]:
    return (math.ceil(height / stride), math.ceil(width / stride))


# exp(-x) is exactly 0.0 in float64 for every x > 745.14 (below half the
# smallest subnormal); 746 leaves margin for the rounding of d^2 / (2 sigma^2).
_EXP_UNDERFLOW = 746.0


def splat_boxes(boxes: list[Box2D], width: int, height: int, stride: int,
                stamps: Optional[dict] = None) -> Heatmap:
    """Max-composed Gaussian splats at box centers; peak cell value is 1.

    A splat depends only on sigma and the integer offsets (dx, dy) from its
    center cell, and is exactly 0.0 beyond |dx|, |dy| <= ceil(sigma *
    sqrt(2 * 746)), where exp(-d^2 / (2 sigma^2)) underflows. So each sigma
    gets one stamp of the full-grid formula over the offsets the grid can
    hold, at most (2 rows - 1, 2 cols - 1), and a splat is its slice on the
    grid: copies of the same floats, so the heatmap is bit-identical to
    every splat evaluated over the whole grid (an infinite sigma's stamp is
    ones). ``stamps``, keyed by (rows, cols, sigma), may be shared by calls:
    it comes in holding the previous call's stamps and goes out holding just
    this call's, each reused from the previous call's where it was there.
    """
    rows, cols = heatmap_shape(width, height, stride)
    grid = np.zeros((rows, cols))
    stamps = {} if stamps is None else stamps
    previous = stamps.copy()
    stamps.clear()
    for b in boxes:
        ccol = int(b.cx / stride)
        crow = int(b.cy / stride)
        if not (0 <= crow < rows and 0 <= ccol < cols):
            continue
        radius = gaussian_radius(b.h / stride, b.w / stride)
        sigma = max(radius / 3.0, 1e-6)
        key = rows, cols, sigma
        stamp = stamps.get(key, previous.get(key))
        if stamp is None:
            reach = math.ceil(min(rows + cols,
                                  sigma * math.sqrt(2 * _EXP_UNDERFLOW)))
            sr, sc = min(reach, rows - 1), min(reach, cols - 1)
            ys, xs = np.ogrid[-sr:sr + 1, -sc:sc + 1]
            stamp = np.exp(-(xs ** 2 + ys ** 2) / (2 * sigma ** 2))
        stamps[key] = stamp
        sr, sc = stamp.shape[0] // 2, stamp.shape[1] // 2  # its centre cell
        r0, r1 = max(crow - sr, 0), min(crow + sr + 1, rows)
        c0, c1 = max(ccol - sc, 0), min(ccol + sc + 1, cols)
        window = grid[r0:r1, c0:c1]
        np.maximum(window, stamp[r0 - crow + sr:r1 - crow + sr,
                                 c0 - ccol + sc:c1 - ccol + sc], out=window)
    return Heatmap(values=grid, stride=stride)


class OracleProviderSet:
    """Matcher, geometry, and objectness providers over one sequence."""

    def __init__(self, seq: Sequence, noise: Optional[NoiseConfig] = None,
                 heatmap_stride: int = 4):
        self.seq = seq
        self.noise = noise if noise is not None else NoiseConfig.noiseless()
        self.heatmap_stride = heatmap_stride
        self.stamps = {}  # splat stamps, see ``splat_boxes``
        seed = self.noise.seed  # its 64-bit words, lowest first
        words = [seed >> b & _M64 for b in range(0, seed.bit_length() or 1, 64)]
        self._seed_hash = reduce(_absorb, words, len(words))

    def _hash(self, tag: int, *key: int) -> int:
        """The key's hash: the seed's, then ``tag`` and each word of ``key``
        (track, frame and, for a match, source) absorbed one word each."""
        # int(): a numpy integer would overflow
        return reduce(_absorb, map(int, (tag, *key)), self._seed_hash)

    def _uniform(self, tag: int, *key: int) -> float:
        """A draw in [0, 1): the top 53 bits of the key's hash."""
        return (self._hash(tag, *key) >> 11) * 2.0 ** -53

    def _normals(self, n: int, tag: int, *key: int) -> list[float]:
        """``n`` standard normal draws: the inverse normal CDF of SplitMix64's
        first ``n`` outputs from the key's hash, each taken as the centre of
        one of 2**52 equal cells of (0, 1), so never 0 or 1. A tag is drawn
        either always with a source or always without one, so one key's
        outputs are never another key's hash."""
        h = self._hash(tag, *key)
        return [_NORMAL.inv_cdf(
                    ((_mix64((h + i * _GOLDEN) & _M64) >> 12) + 0.5) * 2.0 ** -52)
                for i in range(1, n + 1)]

    # -- 2D query matching ----------------------------------------------

    def match(self, source_frame: int, track_id: int,
              target_frame: int) -> Optional[MatchResult]:
        """Locate the track in the target frame; None when lost or dropped."""
        self.seq.frame(source_frame)
        frame = self.seq.frame(target_frame)
        ann = frame.by_track.get(track_id)
        if ann is None:
            return None
        occ = frame.occlusion[track_id]

        n = self.noise
        p_drop = min(max(n.match_dropout_base + n.dropout_occlusion_gain * occ,
                         0.0), 1.0)
        if p_drop > 0:
            if self._uniform(_TAG_DROPOUT, track_id, target_frame,
                             source_frame) < p_drop:
                return None

        box = ann.box2d
        if n.center_px_sigma > 0:
            gu, gv = self._normals(2, _TAG_CENTER, track_id, target_frame,
                                   source_frame)
            box = Box2D(cx=box.cx + n.center_px_sigma * gu,
                        cy=box.cy + n.center_px_sigma * gv, w=box.w, h=box.h)

        z = ann.box3d.center[2]
        decay = math.exp(-z / n.confidence_d0) if math.isfinite(n.confidence_d0) else 1.0
        conf = n.confidence_c0 * decay * (1.0 - n.confidence_k_occ * occ)
        conf = min(max(conf, 0.0), 1.0)
        return MatchResult(box2d=box, confidence=conf, mask=ann.mask)

    # -- 3D geometry estimation -----------------------------------------

    def estimate(self, target_frame: int, track_id: int,
                 box2d: Optional[Box2D] = None) -> GeomResult:
        """Keypoint/dims/direction estimate for a matched object."""
        ann = self.seq.annotation(target_frame, track_id)
        if ann is None:
            raise KeyError(f"track {track_id} not in frame {target_frame}")
        pk = project_keypoints(ann.box3d, self.seq.intrinsics)

        n = self.noise
        depths = list(pk.depths)
        if n.depth_rel_sigma > 0:
            depths = [d * _exp_or_inf(n.depth_rel_sigma * g) for d, g in
                      zip(depths, self._normals(3, _TAG_DEPTH, track_id,
                                                target_frame))]
        dims = ann.box3d.dims
        if n.dims_rel_sigma > 0:
            dims = tuple(max(d * (1.0 + n.dims_rel_sigma * g), 1e-3)
                         for d, g in zip(dims, self._normals(
                             3, _TAG_DIMS, track_id, target_frame)))
        direction = pk.direction
        if n.direction_flip_prob > 0:
            if self._uniform(_TAG_DIRECTION, track_id,
                             target_frame) < n.direction_flip_prob:
                direction = AWAY if direction == TOWARDS else TOWARDS

        pk = PixelKeypoints(front=pk.front, center=pk.center, back=pk.back,
                            depths=tuple(depths), direction=direction)
        return GeomResult(keypoints_px=pk, dims=dims)

    # -- false-negative objectness ----------------------------------------

    def objectness(self, frame_index: int) -> Heatmap:
        """Max-composed Gaussian splats over every visible GT object."""
        frame = self.seq.frame(frame_index)
        K = self.seq.intrinsics
        return splat_boxes([a.box2d for a in frame.annotations],
                           K.width, K.height, self.heatmap_stride, self.stamps)
