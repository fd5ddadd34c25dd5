"""Heatmap localization metrics: HmBoxAUC, PiBR and PNSR, with report assembly.

HmBoxAUC sweeps exactly the distinct heatmap values as thresholds, so the
result is deterministic and invariant under strictly increasing transforms
of the map. PiBR counts a frame as correct if any maximal cell lies in a
sounding box. PNSR compares raw peak levels between non-AVE and AVE frames;
heatmaps must not be per-frame normalized before it.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .annotation import DatasetIndex, FrameAnnotation, FrameClass, classify_frame, rasterize_boxes


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
        if not np.all(np.isfinite(arr)):
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


def _check_mask(heatmap: Heatmap, mask: np.ndarray, require_foreground=True):
    mask = np.asarray(mask)
    if mask.shape != heatmap.values.shape:
        raise MetricError(f"mask shape {mask.shape} != heatmap shape {heatmap.values.shape}")
    mask = mask.astype(bool)
    if require_foreground and not mask.any():
        raise MetricError("mask has no foreground cells")
    return mask


def precision_recall_at(heatmap: Heatmap, mask: np.ndarray, tau: float):
    """(precision, recall) at one threshold; precision is None when nothing is selected."""
    mask = _check_mask(heatmap, mask)
    selected = heatmap.values >= tau
    n_sel = int(selected.sum())
    tp = int((selected & mask).sum())
    recall = tp / int(mask.sum())
    if n_sel == 0:
        return None, 0.0
    return tp / n_sel, recall


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


def peak_cells(heatmap: Heatmap) -> np.ndarray:
    """Boolean grid marking every cell attaining the maximum value."""
    return heatmap.values == heatmap.values.max()


def _frame_mask(frame: EvalFrame) -> np.ndarray:
    return rasterize_boxes(frame.annotation, frame.heatmap.width, frame.heatmap.height)


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
        mask = _frame_mask(frame).astype(bool)
        if (peak_cells(frame.heatmap) & mask).any():
            hits += 1
    return hits / len(frames)


def pnsr(frames) -> float:
    """Mean non-AVE heatmap peak over mean AVE in-box peak; 0 is ideal."""
    noise_peaks = []
    signal_peaks = []
    for frame in frames:
        if frame.frame_class.is_ave:
            mask = _frame_mask(frame).astype(bool)
            if not mask.any():
                raise MetricError(f"pnsr: AVE frame {frame.annotation.video_id}@"
                                  f"{frame.annotation.frame_index} rasterizes to an empty mask")
            signal_peaks.append(float(frame.heatmap.values[mask].max()))
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


_PNSR_BUCKET = {
    FrameClass.NON_AVE_VISIBLE: "visible",
    FrameClass.NON_AVE_AUDIBLE: "audible",
    FrameClass.NON_AVE_NOISE: "noise",
}


@dataclass(frozen=True)
class MetricsReport:
    """Metric values per bucket; a bucket key is absent when it has no frames."""

    hmbox_auc: dict = field(default_factory=dict)  # all / single / multi
    pibr: dict = field(default_factory=dict)       # all / single / multi
    pnsr: dict = field(default_factory=dict)       # all / visible / audible / noise
    counts: dict = field(default_factory=dict)     # per FrameClass value + total

    def to_json(self) -> str:
        return json.dumps({
            "hmbox_auc": self.hmbox_auc,
            "pibr": self.pibr,
            "pnsr": self.pnsr,
            "counts": self.counts,
        }, sort_keys=True, indent=2) + "\n"

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
    frames as numerator against the global AVE denominator.
    """
    missing = [(f.video_id, f.frame_index) for f in index.frames
               if (f.video_id, f.frame_index) not in heatmaps]
    if missing:
        names = ", ".join(f"{v}@{i}" for v, i in missing)
        raise MetricError(f"missing heatmaps for frames: {names}")

    frames = []
    for ann in index.frames:  # already sorted; reduction order is deterministic
        hm = heatmaps[(ann.video_id, ann.frame_index)]
        if hm.values.shape != (grid_h, grid_w):
            raise MetricError(f"heatmap for {ann.video_id}@{ann.frame_index} has shape "
                              f"{hm.values.shape}, expected {(grid_h, grid_w)}")
        frames.append(EvalFrame(heatmap=hm, annotation=ann, frame_class=classify_frame(ann)))

    counts = {cls.value: 0 for cls in FrameClass}
    for f in frames:
        counts[f.frame_class.value] += 1
    counts["total"] = len(frames)

    ave = [f for f in frames if f.frame_class.is_ave]
    single = [f for f in ave if f.frame_class is FrameClass.AVE_SINGLE]
    multi = [f for f in ave if f.frame_class is FrameClass.AVE_MULTI]

    report_auc = {}
    report_pibr = {}
    for key, bucket in (("all", ave), ("single", single), ("multi", multi)):
        if bucket:
            report_auc[key] = float(np.mean([hmbox_auc(f.heatmap, _frame_mask(f))
                                             for f in bucket]))
            report_pibr[key] = pibr(bucket)

    report_pnsr = {}
    non_ave = [f for f in frames if not f.frame_class.is_ave]
    if ave and non_ave:
        report_pnsr["all"] = pnsr(frames)
        for cls, key in _PNSR_BUCKET.items():
            subset = [f for f in non_ave if f.frame_class is cls]
            if subset:
                report_pnsr[key] = pnsr(ave + subset)

    return MetricsReport(hmbox_auc=report_auc, pibr=report_pibr,
                         pnsr=report_pnsr, counts=counts)


# ---------------------------------------------------------------------------
# heatmap file: magic "AVHM", version u16, frame count u32, then per frame
# video_id length u16 + UTF-8, frame_index u32, width u16, height u16,
# width*height float32 row-major. All little-endian.

HEATMAP_MAGIC = b"AVHM"
HEATMAP_VERSION = 1


def write_heatmaps(path, entries):
    """entries: iterable of (video_id, frame_index, Heatmap)."""
    entries = list(entries)
    with open(path, "wb") as fh:
        fh.write(HEATMAP_MAGIC)
        fh.write(struct.pack("<HI", HEATMAP_VERSION, len(entries)))
        for video_id, frame_index, hm in entries:
            vid = video_id.encode("utf-8")
            fh.write(struct.pack("<H", len(vid)))
            fh.write(vid)
            fh.write(struct.pack("<IHH", frame_index, hm.width, hm.height))
            fh.write(np.ascontiguousarray(hm.values, dtype="<f4").tobytes())


def read_heatmaps(path):
    """Returns mapping (video_id, frame_index) -> Heatmap.

    Every read is length-checked, every value must be finite and the file
    must end after its last frame; a defect raises MetricError naming the
    file and the byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != HEATMAP_MAGIC:
        raise MetricError(f"{path}: not a heatmap file")
    off = 4

    def take(size):
        nonlocal off
        if len(raw) - off < size:
            raise MetricError(f"{path}: truncated at byte {off}: "
                              f"{size} bytes needed, {len(raw) - off} left")
        off += size
        return off - size

    version, count = struct.unpack_from("<HI", raw, take(6))
    if version != HEATMAP_VERSION:
        raise MetricError(f"{path}: unsupported heatmap file version {version}")
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, take(2))
        start = take(nlen)
        try:
            video_id = raw[start:start + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise MetricError(f"{path}: video id at byte {start} is not UTF-8") from None
        frame_index, width, height = struct.unpack_from("<IHH", raw, take(8))
        values_at = take(4 * width * height)
        vals = np.frombuffer(raw, dtype="<f4", count=width * height, offset=values_at)
        finite = np.isfinite(vals)
        if not finite.all():
            raise MetricError(f"{path}: non-finite heatmap value in {video_id!r} frame "
                              f"{frame_index} at byte {values_at + 4 * int(np.argmin(finite))}")
        out[(video_id, frame_index)] = Heatmap(vals.reshape(height, width).astype(np.float64))
    if off != len(raw):
        raise MetricError(f"{path}: {len(raw) - off} unexpected bytes after the last "
                          f"frame, at byte {off}")
    return out
