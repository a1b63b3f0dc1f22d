"""KITTI label/calib parsing and the canonical internal text formats.

A KITTI labels row becomes its ``Annotation`` on the line it is read, so
the core types' own checks name the line. Internal documents are
line-delimited whitespace-separated text with a versioned header line, so
golden files diff cleanly and round-trip bit-exactly; a record with more
fields than its tag carries is refused. Floats are written with 17
significant digits (lossless for doubles). A weight-map row is formatted
once per distinct row of its frame and the RLE counts a ``Mask2D`` stores
once per mask; the bytes are those of formatting every cell and record
afresh. No mask pixel is read or written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .core import (Annotation, Box2D, Box3D, CameraIntrinsics, Frame,
                   Heatmap, InvalidArgument, Mask2D, Provenance, Pseudolabel,
                   Sequence, normalize_yaw)
from .geometry import direction_at
from .simulator import DEFAULT_INTRINSICS

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Raised on malformed input text; message names the offending line."""


class SchemaVersionError(ParseError):
    """Raised when a document declares an unsupported schema version."""


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _floats(*xs) -> str:
    return " ".join(fmt_float(x) for x in xs)


# ---------------------------------------------------------------------------
# KITTI tracking labels

VEHICLE_CATEGORIES = frozenset({"Car", "Van"})

_KITTI_FIELDS = ("frame", "track_id", "type", "truncated", "occluded", "alpha",
                 "bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
                 "dim_h", "dim_w", "dim_l", "loc_x", "loc_y", "loc_z",
                 "rotation_y", "score")
_KITTI_INTS = frozenset({"frame", "track_id", "occluded"})
# a KITTI sequence is labelled in its camera frame: every pose is [I | 0]
_IDENTITY_POSE = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class CalibResult:
    intrinsics: CameraIntrinsics
    translation_ignored: bool  # fourth projection column was nonzero


def parse_kitti_calib(text: str) -> CalibResult:
    """Extract pinhole intrinsics from the P2 projection matrix, for an
    image of ``simulator.DEFAULT_INTRINSICS``'s size; a bad, refused or
    repeated P2 line raises a ``ParseError`` naming it."""
    result = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip().startswith("P2:"):
            continue
        values = line.split(":", 1)[1].split()
        try:
            if result is not None:
                raise ValueError("repeated P2 line")
            if len(values) != 12:
                raise ValueError(f"P2 line must carry 12 values, got "
                                 f"{len(values)}")
            p = [float(v) for v in values]  # row-major 3 x 4
            intr = CameraIntrinsics(fx=p[0], fy=p[5], cx=p[2], cy=p[6],
                                    width=DEFAULT_INTRINSICS["width"],
                                    height=DEFAULT_INTRINSICS["height"])
        except ValueError as e:  # InvalidArgument too
            raise ParseError(f"line {lineno}: {e}") from None
        result = CalibResult(intr, translation_ignored=any(p[3::4]))
    if result is None:
        raise ParseError("calibration file has no P2 line")
    return result


@dataclass
class ConversionStats:
    dropped_dontcare: int = 0
    dropped_category: int = 0
    kept: int = 0


def parse_kitti(text: str, intrinsics: CameraIntrinsics
                ) -> tuple[Sequence, ConversionStats]:
    """Build the sequence ``kitti`` (10 Hz) of the Car and Van rows of a
    KITTI tracking label file (17 or 18 tokens a row).

    Each row but DontCare becomes its ``Annotation`` as it is read, so a
    row that is malformed, that a core type refuses, that has a negative
    frame, or that repeats the (frame, track id) of an earlier row other
    than DontCare raises a ``ParseError`` naming its line. Rows of other
    categories are checked, then counted and dropped. Every frame index a
    row names, DontCare included, is a frame of the sequence, with no
    annotations if none of its rows is kept; no other index is.

    KITTI locations are bottom-center; Box3D uses the geometric center, so y
    is shifted up by h/2 (camera y points down). KITTI dims come as (h, w, l)
    and are reordered to (l, w, h).
    """
    stats = ConversionStats()
    frames: dict[int, Frame] = {}
    per_frame: dict[int, list[Annotation]] = {}
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in (17, 18):
            raise ParseError(
                f"line {lineno}: expected 17 or 18 tokens, got {len(tokens)}")
        values = []
        for name, token in zip(_KITTI_FIELDS, tokens):
            try:
                values.append(token if name == "type" else
                              (int if name in _KITTI_INTS else float)(token))
            except ValueError:
                raise ParseError(f"line {lineno}: invalid value {token!r} "
                                 f"for field {name!r}") from None
        (frame, track_id, kind, _, occluded, _, left, top, right, bottom,
         h, w, l, x, y, z, rotation_y) = values[:17]
        try:
            if frame < 0:
                raise InvalidArgument(f"frame must be >= 0, got {frame}")
            if frame not in frames:  # Frame checks the index
                frames[frame] = Frame(frame_index=frame, annotations=(),
                                      ego_pose=_IDENTITY_POSE)
            if kind == "DontCare":  # KITTI writes -1 for its id and occlusion
                stats.dropped_dontcare += 1
                continue
            center = (x, y - h / 2.0, z)
            yaw = normalize_yaw(rotation_y)
            ann = Annotation(
                frame_index=frame, track_id=track_id,
                box2d=Box2D.from_corners(left, top, right, bottom),
                box3d=Box3D(center=center, dims=(l, w, h), yaw=yaw,
                            direction=direction_at(center, yaw)),
                occlusion_level=occluded)
            if (frame, track_id) in seen:
                raise InvalidArgument(
                    f"duplicate (frame, track_id) {(frame, track_id)}")
        except InvalidArgument as e:
            raise ParseError(f"line {lineno}: {e}") from None
        seen.add((frame, track_id))
        if kind not in VEHICLE_CATEGORIES:
            stats.dropped_category += 1
            continue
        per_frame.setdefault(frame, []).append(ann)
        stats.kept += 1

    return Sequence(id="kitti", intrinsics=intrinsics, frames=tuple(
        replace(f, annotations=tuple(per_frame.get(i, ())))
        for i, f in sorted(frames.items())), frame_rate=10.0), stats


# ---------------------------------------------------------------------------
# Internal documents

def _header(kind: str) -> str:
    return f"# autolabel3d {kind} v{SCHEMA_VERSION}"


def _check_header(text: str, kind: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"empty document, expected a {kind} header")
    parts = lines[0].split()
    if len(parts) != 4 or parts[:2] != ["#", "autolabel3d"]:
        raise ParseError(f"line 1: malformed header {lines[0]!r}")
    if parts[2] != kind:
        raise ParseError(f"line 1: expected kind {kind!r}, got {parts[2]!r}")
    if parts[3] != f"v{SCHEMA_VERSION}":
        raise SchemaVersionError(
            f"unsupported {kind} schema {parts[3]}; supported: v{SCHEMA_VERSION}")
    return lines[1:]


def _records(text: str, kind: str, headers, sizes, on_record) -> None:
    """Check the header of a tagged document, then call
    ``on_record(tag, fields)`` for each non-blank line. A second record of
    a tag in ``headers``, or a record with more fields than ``sizes`` gives
    its tag, raises a ``ParseError`` naming its line, and so does an
    ``IndexError`` or ``ValueError`` from the handler (a short record, a bad
    number, bad mask counts, a record out of place)."""
    seen: set[str] = set()
    for lineno, line in enumerate(_check_header(text, kind), start=2):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] in headers and tokens[0] in seen:
            raise ParseError(f"line {lineno}: repeated {tokens[0]!r} record")
        if len(tokens) - 1 > sizes.get(tokens[0], math.inf):
            raise ParseError(f"line {lineno}: too many fields in "
                             f"{tokens[0]!r} record")
        seen.add(tokens[0])
        try:
            on_record(tokens[0], tokens[1:])
        except IndexError:
            raise ParseError(f"line {lineno}: too few fields in "
                             f"{tokens[0]!r} record") from None
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
        except ValueError as e:
            raise ParseError(f"line {lineno}: malformed {tokens[0]!r} "
                             f"record: {e}") from None


def _last(items: list, what: str):
    if not items:
        raise ParseError(f"no {what} record before this one")
    return items[-1]


def _boxes_text(box2d: Box2D, box3d: Box3D) -> str:
    return (f"{_floats(box2d.cx, box2d.cy, box2d.w, box2d.h)} "
            f"{_floats(*box3d.center)} {_floats(*box3d.dims)} "
            f"{fmt_float(box3d.yaw)} {box3d.direction}")


def _parse_boxes(fields: list[str]) -> tuple[Box2D, Box3D]:
    """Read the 12 fields ``_boxes_text`` writes."""
    direction = fields[11]
    v = [float(t) for t in fields[:11]]
    return Box2D(*v[:4]), Box3D(center=tuple(v[4:7]), dims=tuple(v[7:10]),
                                yaw=v[10], direction=direction)


def _mask_line(tag: str, track_id: int, m: Mask2D) -> str:
    rows, cols = m.shape
    return (f"{tag} {track_id} {m.origin[0]} {m.origin[1]} {rows} {cols} "
            f"{m.rle_text}")


def _with_mask(items: list, fields: list[str]) -> None:
    """Attach a ``mask``/``plmask`` record to the record before it."""
    track_id, x0, y0, rows, cols, *counts = map(int, fields)
    last = _last(items, "ann/pl")
    if last.track_id != track_id:
        raise ParseError("mask track mismatch")
    items[-1] = replace(last, mask=Mask2D((x0, y0), (rows, cols),
                                          tuple(counts)))


def serialize_sequence(seq: Sequence) -> str:
    out = [_header("sequence")]
    out.append(f"sequence {seq.id} {fmt_float(seq.frame_rate)}")
    K = seq.intrinsics
    out.append(f"intrinsics {_floats(K.fx, K.fy, K.cx, K.cy)} {K.width} {K.height}")
    for f in seq.frames:
        out.append(f"frame {f.frame_index} {_floats(*f.ego_pose)}")
        for a in f.annotations:
            vis = str(a.visibility) if a.visibility is not None else "-"
            out.append(f"ann {a.track_id} {_boxes_text(a.box2d, a.box3d)} "
                       f"{a.occlusion_level} {vis}")
            if a.mask is not None:
                out.append(_mask_line("mask", a.track_id, a.mask))
    return "\n".join(out) + "\n"


def parse_sequence(text: str) -> Sequence:
    head: dict = {}
    frames: list[tuple[Frame, list[Annotation]]] = []

    def on_record(tag, f):
        if tag == "sequence":
            head["id"], head["frame_rate"] = f[0], float(f[1])
            if not 0 < head["frame_rate"] < math.inf:
                raise ParseError("frame_rate must be positive and finite, "
                                 f"got {f[1]}")
        elif tag == "intrinsics":
            head["intrinsics"] = CameraIntrinsics(
                fx=float(f[0]), fy=float(f[1]), cx=float(f[2]), cy=float(f[3]),
                width=int(f[4]), height=int(f[5]))
        elif tag == "frame":
            if frames and int(f[0]) <= frames[-1][0].frame_index:
                raise ParseError("frame_index must be strictly increasing")
            frames.append((Frame(int(f[0]), [float(v) for v in f[1:13]], ()),
                           []))
        elif tag == "ann":
            frame, anns = _last(frames, "frame")
            track_id = int(f[0])
            if any(a.track_id == track_id for a in anns):
                raise ParseError(f"frame {frame.frame_index} annotates track "
                                 f"{track_id} twice")
            box2d, box3d = _parse_boxes(f[1:13])
            anns.append(Annotation(
                frame_index=frame.frame_index, track_id=track_id, box2d=box2d,
                box3d=box3d, occlusion_level=int(f[13]),
                visibility=None if f[14] == "-" else int(f[14])))
        elif tag == "mask":
            _with_mask(_last(frames, "frame")[1], f)
        else:
            raise ParseError(f"unknown record {tag!r}")

    _records(text, "sequence", ("sequence", "intrinsics"),
             {"sequence": 2, "intrinsics": 6, "frame": 13, "ann": 15},
             on_record)
    if "id" not in head or "intrinsics" not in head:
        raise ParseError("sequence document missing header records")
    return Sequence(frames=tuple(replace(frame, annotations=tuple(anns))
                                 for frame, anns in frames), **head)


def serialize_sparse_labels(sparse) -> str:
    out = [_header("sparselabels")]
    out.append(f"sequence {sparse.sequence_id}")
    out.append(f"max_per_track {sparse.max_per_track}")
    out.append(f"seed {sparse.seed}")
    out.append(f"reduction_ratio {fmt_float(sparse.reduction_ratio)}")
    for tid in sorted(sparse.selected):
        idx = " ".join(str(i) for i in sparse.selected[tid])
        out.append(f"track {tid} {idx}")
    for tid, reason in sparse.omitted:
        out.append(f"omitted {tid} {reason}")
    return "\n".join(out) + "\n"


def parse_sparse_labels(text: str):
    from .sampling import (SparseLabelSet, check_label_header,
                           check_selected_track)

    head: dict = {}
    selected: dict[int, tuple[int, ...]] = {}
    omitted: dict[int, str] = {}

    def on_record(tag, f):
        if tag == "sequence":
            head["sequence_id"] = f[0]
        elif tag in ("max_per_track", "seed", "reduction_ratio"):
            head[tag] = (float if tag == "reduction_ratio" else int)(f[0])
            check_label_header(tag, head[tag])
        elif tag in ("track", "omitted"):
            track_id = int(f[0])
            if track_id in selected or track_id in omitted:
                raise ParseError(f"repeated track {track_id}")
            if tag == "track":
                if "max_per_track" not in head:
                    raise ParseError("no max_per_track record before this one")
                frames = tuple(int(v) for v in f[1:])
                check_selected_track(track_id, frames, head["max_per_track"])
                selected[track_id] = frames
            else:
                omitted[track_id] = f[1]
        else:
            raise ParseError(f"unknown record {tag!r}")

    headers = ("sequence", "max_per_track", "seed", "reduction_ratio")
    _records(text, "sparselabels", headers,
             dict.fromkeys(headers, 1) | {"omitted": 2}, on_record)
    if len(head) != 4:
        raise ParseError("sparse labels document missing header records")
    return SparseLabelSet(selected=selected, omitted=tuple(omitted.items()),
                          **head)


def serialize_mining_pairs(pairs) -> str:
    out = [_header("miningpairs")]
    for p in pairs:
        wp = str(p.waypoint_frame) if p.waypoint_frame is not None else "-"
        out.append(f"pair {p.track_id} {p.strategy} {p.source_frame} {wp} "
                   f"{p.target_frame}")
    return "\n".join(out) + "\n"


def parse_mining_pairs(text: str):
    from .sampling import MiningPair

    pairs = []

    def on_record(tag, f):
        if tag != "pair":
            raise ParseError(f"unknown record {tag!r}")
        track_id, strategy, source, waypoint, target = f
        pairs.append(MiningPair(
            track_id=int(track_id), strategy=strategy, source_frame=int(source),
            waypoint_frame=None if waypoint == "-" else int(waypoint),
            target_frame=int(target)))

    _records(text, "miningpairs", (), {"pair": 5}, on_record)
    return pairs


def serialize_pseudolabels(labels) -> str:
    out = [_header("pseudolabels")]
    for p in labels:
        out.append(f"pl {p.frame_index} {p.track_id} "
                   f"{_boxes_text(p.box2d, p.box3d)} "
                   f"{fmt_float(p.confidence)} {p.provenance.direction} "
                   f"{p.provenance.source_frame_index}")
        if p.mask is not None:
            out.append(_mask_line("plmask", p.track_id, p.mask))
    return "\n".join(out) + "\n"


def parse_pseudolabels(text: str) -> list[Pseudolabel]:
    labels: list[Pseudolabel] = []
    seen: set[tuple[int, int]] = set()

    def on_record(tag, f):
        if tag == "pl":
            key = (int(f[0]), int(f[1]))
            if key in seen:
                raise ParseError(f"repeated prediction for track {key[1]} "
                                 f"at frame {key[0]}")
            seen.add(key)
            box2d, box3d = _parse_boxes(f[2:14])
            labels.append(Pseudolabel(
                frame_index=int(f[0]), track_id=int(f[1]), box2d=box2d,
                box3d=box3d, confidence=float(f[14]),
                provenance=Provenance(direction=f[15],
                                      source_frame_index=int(f[16]))))
        elif tag == "plmask":
            _with_mask(labels, f)
        else:
            raise ParseError(f"unknown record {tag!r}")

    _records(text, "pseudolabels", (), {"pl": 17}, on_record)
    return labels


def serialize_weight_maps(weights: dict[int, Heatmap]) -> str:
    return "".join(iter_weight_maps_text((i, weights[i])
                                         for i in sorted(weights)))


def iter_weight_maps_text(weights: Iterable[tuple[int, Heatmap]],
                          ) -> Iterator[str]:
    """The text of a weight-maps document, chunk by chunk: the header line,
    then one chunk per ``(frame_index, map)`` pair, in the order given."""
    yield _header("weightmaps") + "\n"
    # A frame's distinct rows, keyed by their bits (which keep -0.0 apart
    # from 0.0), are formatted once each, from its distinct values.
    for frame_index, h in weights:
        rows, cols = h.values.shape
        bits = np.ascontiguousarray(h.values).view(np.uint64)
        keys = [row.tobytes() for row in bits]
        distinct = {k: r for r, k in enumerate(keys)}
        values, index = np.unique(bits[list(distinct.values())],
                                  return_inverse=True)
        texts = [fmt_float(v) for v in values.view(np.float64)]
        lines = {k: " ".join([texts[i] for i in row]) for k, row in
                 zip(distinct, index.reshape(len(distinct), cols).tolist())}
        yield "\n".join([f"frame {frame_index} {rows} {cols} {h.stride}",
                         *[lines[k] for k in keys]]) + "\n"


def parse_weight_maps(text: str) -> dict[int, Heatmap]:
    lines = _check_header(text, "weightmaps")
    weights: dict[int, Heatmap] = {}
    i = 0
    while i < len(lines):
        tokens = lines[i].split()
        i += 1
        if not tokens:
            continue
        lineno = i + 1  # the header is line 1
        if tokens[0] != "frame":
            raise ParseError(
                f"line {lineno}: unexpected record {tokens[0]!r} in weight maps")
        try:
            frame_index, rows, cols, stride = (int(t) for t in tokens[1:])
        except ValueError as e:
            raise ParseError(f"line {lineno}: malformed frame record: {e}") from None
        if rows < 0 or cols < 0:
            raise ParseError(f"line {lineno}: negative frame size {rows}x{cols}")
        if frame_index < 0:
            raise ParseError(f"line {lineno}: negative frame {frame_index}")
        if frame_index in weights:
            raise ParseError(f"line {lineno}: repeated frame {frame_index}")
        head_line = lineno
        values = []
        for r in range(rows):
            lineno = i + 2
            if i >= len(lines):
                raise ParseError(f"line {lineno}: frame {frame_index} expects "
                                 f"{rows} rows, got {r}")
            try:
                row = [float(v) for v in lines[i].split()]
            except ValueError as e:
                raise ParseError(f"line {lineno}: {e}") from None
            if len(row) != cols:
                raise ParseError(f"line {lineno}: expected {cols} values, "
                                 f"got {len(row)}")
            values.append(row)
            i += 1
        grid = np.array(values, dtype=float).reshape(rows, cols)
        try:
            weights[frame_index] = Heatmap(values=grid, stride=stride)
        except InvalidArgument as e:
            raise ParseError(f"line {head_line}: frame {frame_index}: {e}") \
                from None
    return weights


def serialize_metric_report(report) -> str:
    out = [_header("metricreport")]
    out.append(f"mota {fmt_float(report.mota)}")
    out.append(f"motp {fmt_float(report.motp)}")
    out.append(f"idf1 {fmt_float(report.idf1)}")
    out.append(f"amota {fmt_float(report.amota)}")
    out.append(f"amotp {fmt_float(report.amotp)}")
    c = report.counts
    out.append(f"counts {c.tp} {c.fp} {c.fn} {c.idsw} {c.gt_total}")
    out.append(f"config {fmt_float(report.dist_threshold)} "
               + " ".join(fmt_float(r) for r in report.recall_grid))
    for row in report.per_recall:
        motp = fmt_float(row.motp) if row.motp is not None else "-"
        out.append(f"recall {fmt_float(row.recall)} {fmt_float(row.motar)} {motp} "
                   f"{row.tp} {row.fp} {row.fn} {row.idsw} "
                   f"{1 if row.achievable else 0}")
    return "\n".join(out) + "\n"


def parse_metric_report(text: str):
    from .metrics import Counts, MetricReport, RecallPoint

    scalars = ("mota", "motp", "idf1", "amota", "amotp")
    fields: dict = {}
    per_recall: list = []

    def on_record(tag, f):
        if tag in scalars:
            fields[tag] = float(f[0])
        elif tag == "counts":
            tp, fp, fn, idsw, gt_total = (int(v) for v in f)
            fields["counts"] = Counts(tp, fp, fn, idsw, gt_total)
        elif tag == "config":
            fields["dist_threshold"] = float(f[0])
            fields["recall_grid"] = tuple(float(v) for v in f[1:])
        elif tag == "recall":
            per_recall.append(RecallPoint(
                recall=float(f[0]), motar=float(f[1]),
                motp=None if f[2] == "-" else float(f[2]),
                tp=int(f[3]), fp=int(f[4]), fn=int(f[5]),
                idsw=int(f[6]), achievable=f[7] == "1"))
        else:
            raise ParseError(f"unknown record {tag!r}")

    _records(text, "metricreport", scalars + ("counts", "config"),
             dict.fromkeys(scalars, 1) | {"counts": 5, "recall": 8},
             on_record)
    if len(fields) != 8:
        raise ParseError("metric report missing header records")
    return MetricReport(per_recall=tuple(per_recall), **fields)
