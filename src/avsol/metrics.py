"""Heatmap localization metrics: HmBoxAUC, PiBR and PNSR, with report assembly.

HmBoxAUC sweeps exactly the distinct heatmap values as thresholds, so the
result is deterministic and invariant under strictly increasing transforms
of the map. PiBR counts a frame as correct if any maximal cell lies in a
sounding box. PNSR compares raw peak levels between non-AVE and AVE frames;
heatmaps must not be per-frame normalized before it.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .annotation import DatasetIndex, FrameAnnotation, FrameClass, classify_frame, rasterize_boxes
from .binfile import FormatError, Reader, Writer


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class Heatmap:
    """Grid of real scores, shape (height, width), row-major."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise MetricError(f"heatmap must be 2D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise MetricError("heatmap values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EvalFrame:
    heatmap: Heatmap
    annotation: FrameAnnotation
    frame_class: FrameClass

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """Boolean sounding-box mask on the heatmap's grid, rasterized on first use."""
        return rasterize_boxes(self.annotation, self.heatmap.width,
                               self.heatmap.height).astype(bool)


def _check_mask(heatmap: Heatmap, mask: np.ndarray):
    mask = np.asarray(mask)
    if mask.shape != heatmap.values.shape:
        raise MetricError(f"mask shape {mask.shape} != heatmap shape {heatmap.values.shape}")
    mask = mask.astype(bool)
    if not mask.any():
        raise MetricError("mask has no foreground cells")
    return mask


def hmbox_auc(heatmap: Heatmap, mask: np.ndarray) -> float:
    """Area under the precision-recall sweep over all distinct heatmap values.

    Thresholds run in strictly decreasing order; the recall before the first
    threshold is 0. The highest threshold always selects at least one cell,
    so no empty-selection term arises (it would contribute 0).
    """
    mask = _check_mask(heatmap, mask)
    h = heatmap.values.ravel()
    m = mask.ravel()
    fg = int(m.sum())

    order = np.argsort(-h, kind="stable")
    sorted_vals = h[order]
    tp_cum = np.cumsum(m[order])
    # last position of each run of equal values = selection size at that threshold
    last = np.nonzero(np.diff(sorted_vals, append=-np.inf))[0]
    n_sel = last + 1
    tp = tp_cum[last]
    precision = tp / n_sel
    recall = tp / fg
    steps = np.diff(recall, prepend=0.0)
    return float(np.sum(precision * steps))


def pibr(frames) -> float:
    """Fraction of AVE frames whose heatmap peak lands inside a sounding box."""
    frames = list(frames)
    if not frames:
        raise MetricError("pibr: empty frame list")
    hits = 0
    for frame in frames:
        if not frame.frame_class.is_ave:
            raise MetricError(f"pibr: frame {frame.annotation.video_id}@"
                              f"{frame.annotation.frame_index} is not an AVE frame")
        values = frame.heatmap.values
        if ((values == values.max()) & frame.mask).any():
            hits += 1
    return hits / len(frames)


def pnsr(frames) -> float:
    """Mean non-AVE heatmap peak over mean AVE in-box peak; 0 is ideal."""
    noise_peaks = []
    signal_peaks = []
    for frame in frames:
        if frame.frame_class.is_ave:
            if not frame.mask.any():
                raise MetricError(f"pnsr: AVE frame {frame.annotation.video_id}@"
                                  f"{frame.annotation.frame_index} rasterizes to an empty mask")
            signal_peaks.append(float(frame.heatmap.values[frame.mask].max()))
        else:
            noise_peaks.append(float(frame.heatmap.values.max()))
    if not signal_peaks:
        raise MetricError("pnsr: no AVE frames")
    if not noise_peaks:
        raise MetricError("pnsr: no non-AVE frames")
    denom = float(np.mean(signal_peaks))
    if denom == 0.0:
        raise MetricError("pnsr: zero mean in-box signal peak")
    return float(np.mean(noise_peaks)) / denom


def minmax_normalize(heatmap: Heatmap) -> Heatmap:
    """(h - min) / (max - min); a constant map becomes all zeros."""
    lo = heatmap.values.min()
    hi = heatmap.values.max()
    if hi == lo:
        return Heatmap(np.zeros_like(heatmap.values))
    return Heatmap((heatmap.values - lo) / (hi - lo))


@dataclass(frozen=True)
class MetricsReport:
    """Metric values per bucket; a bucket key is absent when it has no frames."""

    hmbox_auc: dict = field(default_factory=dict)  # all / single / multi
    pibr: dict = field(default_factory=dict)       # all / single / multi
    pnsr: dict = field(default_factory=dict)       # all / visible / audible / noise
    counts: dict = field(default_factory=dict)     # per FrameClass value + total

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        def cell(bucket, key):
            return f"{bucket[key]:.4f}" if key in bucket else "   -  "

        lines = [
            "metric     " + "".join(f"{c:>10}" for c in
                                    ("all", "single", "multi", "visible", "audible", "noise")),
            "HmBoxAUC   " + "".join(f"{cell(self.hmbox_auc, k):>10}" for k in
                                    ("all", "single", "multi")) + " " * 30,
            "PiBR       " + "".join(f"{cell(self.pibr, k):>10}" for k in
                                    ("all", "single", "multi")) + " " * 30,
            "PNSR       " + f"{cell(self.pnsr, 'all'):>10}" + " " * 20 +
            "".join(f"{cell(self.pnsr, k):>10}" for k in ("visible", "audible", "noise")),
            "frames     " + "".join(f"{self.counts.get(k, 0):>10}" for k in (
                "total", "ave_single", "ave_multi", "non_ave_visible",
                "non_ave_audible", "non_ave_noise")),
        ]
        return "\n".join(lines) + "\n"


def evaluate(index: DatasetIndex, heatmaps, grid_w: int, grid_h: int) -> MetricsReport:
    """Full report over a dataset.

    heatmaps: mapping (video_id, frame_index) -> Heatmap, one per annotated
    frame, all on the same (grid_h, grid_w) grid. HmBoxAUC and PiBR are
    per-frame means over AVE frames; each PNSR subclass uses that subclass's
    frames as numerator against the global AVE denominator. Each AVE frame's
    mask is rasterized and its HmBoxAUC swept once, and every bucket averages
    those per-frame values.
    """
    missing = [(f.video_id, f.frame_index) for f in index.frames
               if (f.video_id, f.frame_index) not in heatmaps]
    if missing:
        names = ", ".join(f"{v}@{i}" for v, i in missing)
        raise MetricError(f"missing heatmaps for frames: {names}")

    frames = []
    by_class = {cls: [] for cls in FrameClass}
    for ann in index.frames:  # already sorted; reduction order is deterministic
        hm = heatmaps[(ann.video_id, ann.frame_index)]
        if hm.values.shape != (grid_h, grid_w):
            raise MetricError(f"heatmap for {ann.video_id}@{ann.frame_index} has shape "
                              f"{hm.values.shape}, expected {(grid_h, grid_w)}")
        frame = EvalFrame(heatmap=hm, annotation=ann, frame_class=classify_frame(ann))
        frames.append(frame)
        by_class[frame.frame_class].append(frame)
    counts = {cls.value: len(group) for cls, group in by_class.items()}
    counts["total"] = len(frames)

    ave = [f for f in frames if f.frame_class.is_ave]
    auc = {id(f): hmbox_auc(f.heatmap, f.mask) for f in ave}
    report_auc = {}
    report_pibr = {}
    for key, bucket in (("all", ave), ("single", by_class[FrameClass.AVE_SINGLE]),
                        ("multi", by_class[FrameClass.AVE_MULTI])):
        if bucket:
            report_auc[key] = float(np.mean([auc[id(f)] for f in bucket]))
            report_pibr[key] = pibr(bucket)

    report_pnsr = {}
    if ave and len(ave) < len(frames):
        report_pnsr["all"] = pnsr(frames)
        for cls, subset in by_class.items():
            if subset and not cls.is_ave:
                report_pnsr[cls.value.removeprefix("non_ave_")] = pnsr(ave + subset)

    return MetricsReport(hmbox_auc=report_auc, pibr=report_pibr,
                         pnsr=report_pnsr, counts=counts)


# ---------------------------------------------------------------------------
# heatmap file (AVHM): frame count, then per frame its id, index, size, values

HEATMAP_MAGIC = b"AVHM"
HEATMAP_VERSION = 1


def write_heatmaps(path, entries):
    """entries: iterable of (video_id, frame_index, Heatmap)."""
    entries = list(entries)
    with Writer(path, HEATMAP_MAGIC, HEATMAP_VERSION) as out:
        out.pack("I", len(entries))
        for video_id, frame_index, hm in entries:
            out.text(video_id)
            out.pack("IHH", frame_index, hm.width, hm.height)
            out.array(hm.values, "<f4")


def read_heatmaps(path):
    """Mapping (video_id, frame_index) -> Heatmap; a defect raises FormatError."""
    reader = Reader(path, HEATMAP_MAGIC, HEATMAP_VERSION, "heatmap file")
    out = {}
    for _ in range(reader.unpack("I")[0]):
        start = reader.offset
        video_id = reader.text("video id")
        frame_index, width, height = reader.unpack("IHH")
        if (video_id, frame_index) in out:
            raise FormatError(f"{path}: second heatmap for {video_id!r} frame {frame_index} "
                              f"at byte {start}")
        out[(video_id, frame_index)] = Heatmap(reader.array(
            "<f4", (height, width), f"heatmap value in {video_id!r} frame {frame_index}"))
    reader.end("the last frame")
    return out
