"""Frame annotation data model: parsing, validation, classification, rasterization.

Annotations arrive as UTF-8 JSON lines, one frame per line. Every frame
carries bounding boxes for sounding objects; a sound with no visible source
is represented by a dummy full-frame box tagged out_of_view.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np


class AnnotationError(ValueError):
    pass


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    sounding: bool
    out_of_view: bool
    category: str

    @property
    def in_view_sounding(self) -> bool:
        return self.sounding and not self.out_of_view


@dataclass(frozen=True)
class FrameAnnotation:
    video_id: str
    frame_index: int  # 10 fps timeline
    width: int
    height: int
    boxes: tuple[BoundingBox, ...]

    def in_view_sounding_boxes(self):
        return [b for b in self.boxes if b.in_view_sounding]


class FrameClass(Enum):
    AVE_SINGLE = "ave_single"
    AVE_MULTI = "ave_multi"
    NON_AVE_VISIBLE = "non_ave_visible"
    NON_AVE_AUDIBLE = "non_ave_audible"
    NON_AVE_NOISE = "non_ave_noise"

    @property
    def is_ave(self) -> bool:
        return self in (FrameClass.AVE_SINGLE, FrameClass.AVE_MULTI)


@dataclass(frozen=True)
class DatasetIndex:
    """Frames sorted by (video_id, frame_index); j = 1..J in that order."""

    frames: tuple[FrameAnnotation, ...]

    @staticmethod
    def from_frames(frames) -> "DatasetIndex":
        ordered = tuple(sorted(frames, key=lambda f: (f.video_id, f.frame_index)))
        return DatasetIndex(frames=ordered)


def classify_frame(frame: FrameAnnotation) -> FrameClass:
    """Exhaustive, mutually exclusive class from boxes and tags alone.

    An out-of-view box marks an audible event, so its presence (absent any
    in-view sounding box) classifies the frame as audible even when silent
    visible objects share the frame.
    """
    n_sounding = len(frame.in_view_sounding_boxes())
    if n_sounding == 1:
        return FrameClass.AVE_SINGLE
    if n_sounding >= 2:
        return FrameClass.AVE_MULTI
    if any(b.out_of_view for b in frame.boxes):
        return FrameClass.NON_AVE_AUDIBLE
    if frame.boxes:
        return FrameClass.NON_AVE_VISIBLE
    return FrameClass.NON_AVE_NOISE


def rasterize_boxes(frame: FrameAnnotation, grid_w: int, grid_h: int) -> np.ndarray:
    """Binary foreground mask of shape (grid_h, grid_w).

    A cell is foreground iff its center, mapped to frame pixel coordinates,
    falls inside an in-view sounding box (half-open containment:
    x_min <= cx < x_max). Non-sounding and out-of-view boxes never contribute.
    """
    if grid_w < 1 or grid_h < 1:
        raise AnnotationError(f"grid dimensions must be >= 1, got {grid_w}x{grid_h}")
    cx = (np.arange(grid_w) + 0.5) * frame.width / grid_w
    cy = (np.arange(grid_h) + 0.5) * frame.height / grid_h
    mask = np.zeros((grid_h, grid_w), dtype=np.uint8)
    for box in frame.in_view_sounding_boxes():
        in_x = (cx >= box.x_min) & (cx < box.x_max)
        in_y = (cy >= box.y_min) & (cy < box.y_max)
        mask |= np.outer(in_y, in_x).astype(np.uint8)
    return mask


def validate(index: DatasetIndex) -> list[str]:
    """All invariant violations, each naming the frame and the broken rule."""
    problems = []
    seen = set()
    for frame in index.frames:
        tag = f"{frame.video_id}@{frame.frame_index}"
        if (frame.video_id, frame.frame_index) in seen:
            problems.append(f"{tag}: duplicate frame")
        seen.add((frame.video_id, frame.frame_index))
        if frame.frame_index < 0:
            problems.append(f"{tag}: frame_index must be >= 0")
        if frame.width < 1 or frame.height < 1:
            problems.append(f"{tag}: frame size must be >= 1x1")
        out_of_view_count = 0
        for k, box in enumerate(frame.boxes):
            if not (0 <= box.x_min < box.x_max <= frame.width):
                problems.append(f"{tag}: box {k} degenerate or outside frame on x "
                                f"({box.x_min}, {box.x_max})")
            if not (0 <= box.y_min < box.y_max <= frame.height):
                problems.append(f"{tag}: box {k} degenerate or outside frame on y "
                                f"({box.y_min}, {box.y_max})")
            if box.out_of_view:
                out_of_view_count += 1
                if not box.sounding:
                    problems.append(f"{tag}: box {k} is out_of_view but not sounding")
                if (box.x_min, box.y_min, box.x_max, box.y_max) != (
                        0, 0, frame.width, frame.height):
                    problems.append(f"{tag}: box {k} is out_of_view but not the "
                                    "full-frame dummy box")
        if out_of_view_count > 1:
            problems.append(f"{tag}: more than one out_of_view box")
    return problems


_FRAME_KEYS = {"video_id", "frame_index", "width", "height", "boxes"}
_BOX_KEYS = {"x_min", "y_min", "x_max", "y_max", "sounding", "out_of_view", "category"}


def _parse_box(obj, line_no):
    if not isinstance(obj, dict):
        raise AnnotationError(f"line {line_no}: box entry is not an object")
    _check_keys(obj, _BOX_KEYS, line_no, "box")
    try:
        return BoundingBox(
            x_min=_coordinate(obj["x_min"], line_no, "x_min"),
            y_min=_coordinate(obj["y_min"], line_no, "y_min"),
            x_max=_coordinate(obj["x_max"], line_no, "x_max"),
            y_max=_coordinate(obj["y_max"], line_no, "y_max"),
            sounding=_typed(obj["sounding"], _BOOLEAN, line_no, "sounding"),
            out_of_view=_typed(obj["out_of_view"], _BOOLEAN, line_no, "out_of_view"),
            category=_typed(obj["category"], _STRING, line_no, "category"),
        )
    except KeyError as exc:
        raise AnnotationError(f"line {line_no}: box missing field {exc}") from None


def _coordinate(value, line_no, field):
    try:
        return float(_typed(value, _NUMBER, line_no, field))
    except OverflowError:  # an integer literal beyond the float range
        raise AnnotationError(f"line {line_no}: field '{field}' is beyond the "
                              f"float range") from None


# JSON value types, matched exactly: Python's bool is an int, but true is no number
_BOOLEAN, _INTEGER, _NUMBER, _STRING = (bool,), (int,), (int, float), (str,)
_TYPE_NAMES = {_BOOLEAN: "a boolean", _INTEGER: "an integer", _NUMBER: "a number",
               _STRING: "a string"}


def _typed(value, kind, line_no, field):
    if type(value) not in kind:
        raise AnnotationError(f"line {line_no}: field '{field}' must be "
                              f"{_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _check_keys(obj, allowed, line_no, what):
    unknown = set(obj) - allowed
    if unknown:
        raise AnnotationError(f"line {line_no}: unknown {what} fields {sorted(unknown)}")


def parse_annotations(data: bytes) -> DatasetIndex:
    """Parse JSON-lines annotation content and validate every invariant."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AnnotationError(f"not UTF-8 text ({exc})") from None
    frames = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"line {line_no}: malformed JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
            raise AnnotationError(f"line {line_no}: unreadable JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise AnnotationError(f"line {line_no}: record is not an object")
        _check_keys(obj, _FRAME_KEYS, line_no, "record")
        missing = _FRAME_KEYS - set(obj)
        if missing:
            raise AnnotationError(f"line {line_no}: missing fields {sorted(missing)}")
        if not isinstance(obj["boxes"], list):
            raise AnnotationError(f"line {line_no}: 'boxes' must be a list")
        frames.append(FrameAnnotation(
            video_id=_typed(obj["video_id"], _STRING, line_no, "video_id"),
            frame_index=_typed(obj["frame_index"], _INTEGER, line_no, "frame_index"),
            width=_typed(obj["width"], _INTEGER, line_no, "width"),
            height=_typed(obj["height"], _INTEGER, line_no, "height"),
            boxes=tuple(_parse_box(b, line_no) for b in obj["boxes"]),
        ))
    index = DatasetIndex.from_frames(frames)
    problems = validate(index)
    if problems:
        raise AnnotationError("invalid annotations: " + "; ".join(problems))
    return index


def serialize_annotations(index: DatasetIndex) -> bytes:
    """Inverse of parse_annotations; parse(serialize(x)) == x."""
    lines = []
    for frame in index.frames:
        lines.append(json.dumps({
            "video_id": frame.video_id,
            "frame_index": frame.frame_index,
            "width": frame.width,
            "height": frame.height,
            "boxes": [{
                "x_min": b.x_min, "y_min": b.y_min,
                "x_max": b.x_max, "y_max": b.y_max,
                "sounding": b.sounding, "out_of_view": b.out_of_view,
                "category": b.category,
            } for b in frame.boxes],
        }, sort_keys=True))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
