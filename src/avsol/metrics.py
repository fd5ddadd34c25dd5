"""Heatmap localization metrics: HmBoxAUC, PiBR and PNSR, with report assembly.

HmBoxAUC sweeps exactly the distinct heatmap values as thresholds, so the
result is deterministic and invariant under strictly increasing transforms
of the map. PiBR counts a frame as correct if any maximal cell lies in a
sounding box. PNSR compares raw peak levels between non-AVE and AVE frames;
heatmaps must not be per-frame normalized before it.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

# rasterize_boxes stays a name of this module: the benchmark tracer wraps it here
from .annotation import (DatasetIndex, FrameAnnotation, FrameClass, classify_frame,  # noqa: F401
                         rasterize_boxes, rasterize_frames)
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


class EmptyMaskError(MetricError):
    """An AVE frame whose sounding boxes cover no cell centre of the grid."""


# AVE frames scored per block: at 24x24 a block's arrays are about 1 MB each
BLOCK_FRAMES = 256


def _auc_rows(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """HmBoxAUC of each row of values (F, cells) against its mask row (F, cells).

    Every mask row must have a foreground cell. See hmbox_auc for the sweep.
    """
    order = np.argsort(-values, axis=1)
    sorted_vals = np.take_along_axis(values, order, axis=1)
    tp_cum = np.cumsum(np.take_along_axis(masks, order, axis=1), axis=1)
    # last position of each run of equal values = selection size at that threshold
    run_end = np.empty(values.shape, dtype=bool)
    np.not_equal(sorted_vals[:, 1:], sorted_vals[:, :-1], out=run_end[:, :-1])
    run_end[:, -1] = True
    rows, last = np.nonzero(run_end)
    tp = tp_cum[run_end]
    precision = tp / (last + 1)
    recall = tp / masks.sum(axis=1)[rows]
    runs = np.bincount(rows, minlength=len(values))
    first = np.cumsum(runs) - runs
    steps = np.diff(recall, prepend=0.0)
    steps[first] = recall[first]  # each row's recall starts from 0
    terms = precision * steps
    # rows with the same number of runs are summed as rows of one contiguous
    # array, which gives each row the pairwise summation of a 1-D np.sum
    auc = np.empty(len(values))
    for n in np.unique(runs):
        same = np.flatnonzero(runs == n)
        auc[same] = terms[first[same, None] + np.arange(n)].sum(axis=1)
    return auc


def _peak_hits(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row: does any cell at the row's maximum lie in the mask?"""
    return ((values == values.max(axis=1, keepdims=True)) & masks).any(axis=1)


def _in_box_peaks(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row: the maximum over the mask's cells; every row needs one."""
    return np.where(masks, values, -np.inf).max(axis=1)


def _frame_rows(frame: EvalFrame):
    """One frame's heatmap and sounding-box mask, each as a one-row block."""
    height, width = frame.heatmap.values.shape
    mask = rasterize_frames([frame.annotation], width, height)
    return frame.heatmap.values.reshape(1, -1), mask.reshape(1, -1)


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
    so no empty-selection term arises (it would contribute 0). Cells are
    sorted by value, and the sweep reads the true-positive count only at the
    last cell of each run of equal values. That count covers every cell at
    or above the threshold, whatever order the sort left inside the run, so
    an unstable sort gives the same bits as a stable one.
    """
    mask = _check_mask(heatmap, mask)
    return float(_auc_rows(heatmap.values.reshape(1, -1), mask.reshape(1, -1))[0])


def _hit_rate(hits: np.ndarray) -> float:
    return int(np.count_nonzero(hits)) / len(hits)


def pibr(frames) -> float:
    """Fraction of AVE frames whose heatmap peak lands inside a sounding box."""
    frames = list(frames)
    if not frames:
        raise MetricError("pibr: empty frame list")
    for frame in frames:
        if not frame.frame_class.is_ave:
            raise MetricError(f"pibr: frame {frame.annotation.video_id}@"
                              f"{frame.annotation.frame_index} is not an AVE frame")
    return _hit_rate(np.concatenate([_peak_hits(*_frame_rows(f)) for f in frames]))


def _peak_ratio(signal_peaks: np.ndarray, noise_peaks: np.ndarray) -> float:
    """PNSR from the AVE in-box peaks and the non-AVE peaks."""
    if not len(signal_peaks):
        raise MetricError("pnsr: no AVE frames")
    if not len(noise_peaks):
        raise MetricError("pnsr: no non-AVE frames")
    denom = float(np.mean(signal_peaks))
    if denom == 0.0:
        raise MetricError("pnsr: zero mean in-box signal peak")
    return float(np.mean(noise_peaks)) / denom


def pnsr(frames) -> float:
    """Mean non-AVE heatmap peak over mean AVE in-box peak; 0 is ideal."""
    noise_peaks = []
    signal_peaks = []
    for frame in frames:
        if frame.frame_class.is_ave:
            values, mask = _frame_rows(frame)
            if not mask.any():
                raise MetricError(f"pnsr: AVE frame {frame.annotation.video_id}@"
                                  f"{frame.annotation.frame_index} rasterizes to an empty mask")
            signal_peaks.append(_in_box_peaks(values, mask)[0])
        else:
            noise_peaks.append(frame.heatmap.values.max())
    return _peak_ratio(np.array(signal_peaks), np.array(noise_peaks))


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


def _score_block(annotations, heatmaps, grid_w: int, grid_h: int):
    """HmBoxAUC, PiBR hit and in-box peak of each AVE frame of one block."""
    values = np.stack([hm.values.ravel() for hm in heatmaps])
    masks = rasterize_frames(annotations, grid_w, grid_h).reshape(len(values), -1)
    empty = np.flatnonzero(~masks.any(axis=1))
    if len(empty):
        ann = annotations[empty[0]]
        raise EmptyMaskError(f"AVE frame {ann.video_id}@{ann.frame_index}: no sounding box "
                             f"covers a cell centre of the {grid_w}x{grid_h} grid")
    return _auc_rows(values, masks), _peak_hits(values, masks), _in_box_peaks(values, masks)


def evaluate(index: DatasetIndex, heatmaps, grid_w: int, grid_h: int) -> MetricsReport:
    """Full report over a dataset.

    heatmaps: mapping (video_id, frame_index) -> Heatmap, one per annotated
    frame, all on the same (grid_h, grid_w) grid. HmBoxAUC and PiBR are
    per-frame means over AVE frames; each PNSR subclass uses that subclass's
    frames as numerator against the global AVE denominator. AVE frames are
    scored in blocks of BLOCK_FRAMES, each frame once, and every bucket
    averages those per-frame values.
    """
    missing = [(f.video_id, f.frame_index) for f in index.frames
               if (f.video_id, f.frame_index) not in heatmaps]
    if missing:
        names = ", ".join(f"{v}@{i}" for v, i in missing)
        raise MetricError(f"missing heatmaps for frames: {names}")

    maps, classes = [], []
    for ann in index.frames:  # already sorted; reduction order is deterministic
        hm = heatmaps[(ann.video_id, ann.frame_index)]
        if hm.values.shape != (grid_h, grid_w):
            raise MetricError(f"heatmap for {ann.video_id}@{ann.frame_index} has shape "
                              f"{hm.values.shape}, expected {(grid_h, grid_w)}")
        maps.append(hm)
        classes.append(classify_frame(ann))
    counts = {cls.value: classes.count(cls) for cls in FrameClass}
    counts["total"] = len(classes)

    report_auc, report_pibr, report_pnsr = {}, {}, {}
    ave = [k for k, cls in enumerate(classes) if cls.is_ave]
    if not ave:
        return MetricsReport(counts=counts)
    blocks = (ave[k:k + BLOCK_FRAMES] for k in range(0, len(ave), BLOCK_FRAMES))
    scores = [_score_block([index.frames[k] for k in block], [maps[k] for k in block],
                           grid_w, grid_h) for block in blocks]
    auc, hits, signal = (np.concatenate(parts) for parts in zip(*scores))
    single = np.array([classes[k] is FrameClass.AVE_SINGLE for k in ave])
    for key, bucket in (("all", np.ones_like(single)), ("single", single), ("multi", ~single)):
        if bucket.any():
            report_auc[key] = float(np.mean(auc[bucket]))
            report_pibr[key] = _hit_rate(hits[bucket])

    noise = [(cls, hm.values.max()) for hm, cls in zip(maps, classes) if not cls.is_ave]
    if noise:
        report_pnsr["all"] = _peak_ratio(signal, np.array([peak for _, peak in noise]))
        for cls in FrameClass:
            subset = [peak for c, peak in noise if c is cls]
            if subset:
                key = cls.value.removeprefix("non_ave_")
                report_pnsr[key] = _peak_ratio(signal, np.array(subset))

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
