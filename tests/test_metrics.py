import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avsol import metrics
from avsol.annotation import (BoundingBox, DatasetIndex, FrameAnnotation,
                              FrameClass, classify_frame, rasterize_boxes)
from avsol.binfile import FormatError
from avsol.metrics import (EvalFrame, Heatmap, MetricError, MetricsReport, evaluate,
                           hmbox_auc, minmax_normalize, pibr, pnsr,
                           read_heatmaps, write_heatmaps)

# ---------------------------------------------------------------------------
# independent oracles, written before the implementations they check


def riemann_auc(h: np.ndarray, m: np.ndarray, n_thresholds: int = 1001) -> float:
    """Precision-recall area by dense threshold sweep from max(h) down to min(h).

    With a finite threshold grid, two distinct heatmap values can land in the
    same threshold gap and their recall steps then share one precision value,
    so per-frame discretization error shrinks only as the grid refines.
    """
    m = m.astype(bool)
    area = 0.0
    prev_recall = 0.0
    for tau in np.linspace(h.max(), h.min(), n_thresholds):
        selected = h >= tau
        tp = float((selected & m).sum())
        precision = tp / selected.sum() if selected.any() else 0.0
        recall = tp / m.sum()
        area += precision * (recall - prev_recall)
        prev_recall = recall
    return area


def sweep_auc_oracle(h: np.ndarray, m: np.ndarray) -> float:
    """Limit of the Riemann sweep: one precision-recall point per distinct value.

    Built from set logic and broadcasting only, with no sorting-cumsum
    machinery, so it is an independent reimplementation of the exact sweep.
    """
    values = np.array(sorted(set(h.ravel().tolist()), reverse=True))
    selected = h.ravel()[None, :] >= values[:, None]
    tp = (selected & m.ravel()[None, :].astype(bool)).sum(axis=1)
    precision = tp / selected.sum(axis=1)
    recall = tp / m.sum()
    return float(np.sum(precision * np.diff(recall, prepend=0.0)))


def riemann_auc_fast(h: np.ndarray, m: np.ndarray, n_thresholds: int) -> float:
    """Same sweep as riemann_auc, vectorized so dense grids stay affordable."""
    vals = np.sort(h.ravel())
    mask_by_val = m.ravel().astype(float)[np.argsort(h.ravel(), kind="stable")]
    suffix_tp = np.concatenate([np.cumsum(mask_by_val[::-1])[::-1], [0.0]])
    taus = np.linspace(h.max(), h.min(), n_thresholds)
    idx = np.searchsorted(vals, taus, side="left")
    n_sel = vals.size - idx
    tp = suffix_tp[idx]
    precision = np.where(n_sel > 0, tp / np.maximum(n_sel, 1), 0.0)
    recall = tp / m.sum()
    return float(np.sum(precision * np.diff(recall, prepend=0.0)))


def stable_sweep_auc(h: np.ndarray, m: np.ndarray) -> float:
    """The one-frame sweep with a stable sort and a 1-D np.sum, step by step.

    The block kernel must give these bits: it sorts without stability and
    sums rows of a 2-D array.
    """
    h, m = h.ravel(), m.ravel().astype(bool)
    order = np.argsort(-h, kind="stable")
    tp_cum = np.cumsum(m[order])
    last = np.nonzero(np.diff(h[order], append=-np.inf))[0]
    tp = tp_cum[last]
    recall = tp / int(m.sum())
    return float(np.sum(tp / (last + 1) * np.diff(recall, prepend=0.0)))


def brute_force_auc(h: np.ndarray, m: np.ndarray) -> float:
    """One precision-recall point per distinct value, counted cell by cell."""
    cells = list(zip(h.ravel().tolist(), m.ravel().astype(bool).tolist()))
    fg = sum(inside for _, inside in cells)
    area, prev_recall = 0.0, 0.0
    for tau in sorted({v for v, _ in cells}, reverse=True):
        selected = [inside for v, inside in cells if v >= tau]
        recall = sum(selected) / fg
        area += sum(selected) / len(selected) * (recall - prev_recall)
        prev_recall = recall
    return area


def brute_force_pibr(frames) -> float:
    hits = 0
    for f in frames:
        h = f.heatmap.values
        mask = rasterize_boxes(f.annotation, h.shape[1], h.shape[0])
        hit = False
        for r in range(h.shape[0]):
            for c in range(h.shape[1]):
                if h[r, c] == h.max() and mask[r, c]:
                    hit = True
        hits += hit
    return hits / len(frames)


def brute_force_pnsr(frames) -> float:
    noise, signal = [], []
    for f in frames:
        h = f.heatmap.values
        if classify_frame(f.annotation).is_ave:
            mask = rasterize_boxes(f.annotation, h.shape[1], h.shape[0])
            best = max(h[r, c] for r in range(h.shape[0]) for c in range(h.shape[1])
                       if mask[r, c])
            signal.append(best)
        else:
            noise.append(h.max())
    return (sum(noise) / len(noise)) / (sum(signal) / len(signal))


# ---------------------------------------------------------------------------
# fixture helpers

def box(x0, y0, x1, y1, sounding=True, out_of_view=False):
    return BoundingBox(x_min=x0, y_min=y0, x_max=x1, y_max=y1,
                       sounding=sounding, out_of_view=out_of_view, category="c")


def frame(vid, idx, boxes=()):
    return FrameAnnotation(video_id=vid, frame_index=idx, width=100, height=100,
                           boxes=tuple(boxes))


def eval_frame(ann, values):
    return EvalFrame(heatmap=Heatmap(np.asarray(values, dtype=np.float64)),
                     annotation=ann, frame_class=classify_frame(ann))


def random_eval_frame(rng, size, ave=True):
    """Random heatmap over a random single-box annotation on a size x size grid."""
    while True:
        x0, y0 = rng.uniform(0, 60, 2)
        ann = frame("v", 0, [box(x0, y0, x0 + rng.uniform(20, 39),
                                 y0 + rng.uniform(20, 39), sounding=ave)])
        if not ave or rasterize_boxes(ann, size, size).any():
            break
    return eval_frame(ann, rng.random((size, size)))


class TestHmBoxAuc:
    def test_indicator_heatmap_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mask = rng.random((6, 6)) < 0.4
            if not mask.any():
                continue
            assert hmbox_auc(Heatmap(mask.astype(float)), mask) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_heatmap_equals_foreground_fraction(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = True
        assert hmbox_auc(Heatmap(np.full((8, 8), 0.7)), mask) == pytest.approx(0.25, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(MetricError, match="no foreground"):
            hmbox_auc(Heatmap(np.ones((3, 3))), np.zeros((3, 3)))

    def test_matches_riemann_oracle_on_random_maps(self):
        # the coarse grid carries collision noise, so it is held to the mean;
        # the dense grid resolves every value and is held per frame
        rng = np.random.default_rng(11)
        coarse = []
        for _ in range(30):
            h = rng.random((8, 8))
            mask = rng.random((8, 8)) < 0.3
            if not mask.any():
                mask.ravel()[int(rng.integers(64))] = True
            exact = hmbox_auc(Heatmap(h), mask)
            coarse.append(abs(exact - riemann_auc(h, mask)))
            assert abs(exact - riemann_auc_fast(h, mask, 1_000_001)) <= 2e-3
            assert abs(exact - sweep_auc_oracle(h, mask)) <= 1e-12
        assert np.mean(coarse) <= 2e-3

    def test_fast_and_loop_oracles_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            h = rng.random((8, 8))
            mask = rng.random((8, 8)) < 0.4
            if not mask.any():
                mask[0, 0] = True
            assert riemann_auc_fast(h, mask, 1001) == pytest.approx(
                riemann_auc(h, mask, 1001), abs=1e-12)

    def test_monotone_transform_is_bit_identical(self):
        rng = np.random.default_rng(12)
        transforms = [np.exp, np.arctan, lambda x: 3 * x - 7, np.cbrt,
                      lambda x: x ** 3 + x]
        for _ in range(10):
            h = rng.normal(size=(7, 7))
            mask = rng.random((7, 7)) < 0.3
            if not mask.any():
                mask[0, 0] = True
            base = hmbox_auc(Heatmap(h), mask)
            for t in transforms:
                assert hmbox_auc(Heatmap(t(h)), mask) == base

    def test_heavy_ties_against_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = rng.integers(0, 3, size=(6, 6)).astype(float)
            mask = rng.random((6, 6)) < 0.4
            if not mask.any():
                mask[2, 2] = True
            assert abs(hmbox_auc(Heatmap(h), mask) - riemann_auc(h, mask)) <= 2e-3


    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           levels=st.integers(1, 3), data=st.data())
    def test_heavy_ties_against_brute_force_sweep(self, shape, levels, data):
        n = shape[0] * shape[1]
        h = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=n,
                                        max_size=n)), dtype=float).reshape(shape)
        m = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(shape)
        assume(m.any())
        assert hmbox_auc(Heatmap(h), m) == pytest.approx(brute_force_auc(h, m), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
           cells=st.integers(1, 900), levels=st.sampled_from([2, 5, 50, None]))
    def test_block_rows_equal_the_stable_one_dimensional_sweep(self, seed, rows, cells,
                                                              levels):
        # rows of one block differ in their number of distinct values
        rng = np.random.default_rng(seed)
        values = rng.random((rows, cells))
        values = (np.floor(values * levels) if levels
                  else values.astype(np.float32).astype(np.float64))
        masks = rng.random((rows, cells)) < rng.uniform(0.05, 0.9)
        masks[:, 0] |= ~masks.any(axis=1)
        assert metrics._auc_rows(values, masks).tolist() == [
            stable_sweep_auc(v, m) for v, m in zip(values, masks)]


class TestPibr:
    def ave_frame(self, peak_rc, size=5):
        # box covering grid cols 1..2, rows 1..2 of a 5x5 grid over 100px
        ann = frame("v", 0, [box(20, 20, 60, 60)])
        h = np.zeros((size, size))
        h[peak_rc] = 1.0
        return eval_frame(ann, h)

    def test_all_in_and_all_out(self):
        assert pibr([self.ave_frame((1, 1)), self.ave_frame((2, 2))]) == 1.0
        assert pibr([self.ave_frame((0, 0)), self.ave_frame((4, 4))]) == 0.0

    def test_two_in_one_out(self):
        frames = [self.ave_frame((1, 2)), self.ave_frame((2, 1)), self.ave_frame((0, 4))]
        assert pibr(frames) == pytest.approx(2 / 3)

    def test_tie_counts_as_hit_when_any_tied_cell_is_in_a_box(self):
        ann = frame("v", 0, [box(20, 20, 60, 60)])
        h = np.zeros((5, 5))
        h[0, 0] = h[1, 1] = 1.0  # one tied peak outside, one inside
        assert pibr([eval_frame(ann, h)]) == 1.0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(21)
        for size in (3, 4, 5):
            frames = [random_eval_frame(rng, size) for _ in range(12)]
            assert pibr(frames) == brute_force_pibr(frames)

    def test_rejects_non_ave_frames_and_empty_input(self):
        with pytest.raises(MetricError):
            pibr([])
        noise = eval_frame(frame("v", 0, []), np.ones((3, 3)))
        with pytest.raises(MetricError):
            pibr([noise])


class TestPnsr:
    def test_zero_noise_is_zero(self):
        ave = eval_frame(frame("v", 0, [box(20, 20, 60, 60)]), np.full((5, 5), 0.9))
        silent = eval_frame(frame("v", 1, []), np.zeros((5, 5)))
        assert pnsr([ave, silent]) == 0.0

    def test_identical_constant_heatmaps_give_one(self):
        ave = eval_frame(frame("v", 0, [box(20, 20, 60, 60)]), np.full((5, 5), 0.4))
        other = eval_frame(frame("v", 1, []), np.full((5, 5), 0.4))
        assert pnsr([ave, other]) == 1.0

    def test_hand_computed_ratio(self):
        ann = frame("v", 0, [box(20, 20, 60, 60)])
        frames = []
        for peak in (0.9, 0.8, 0.7):
            h = np.zeros((5, 5))
            h[1, 1] = peak
            frames.append(eval_frame(ann, h))
        for i, peak in enumerate((0.2, 0.4)):
            h = np.zeros((5, 5))
            h[0, 0] = peak
            frames.append(eval_frame(frame("v", 10 + i, []), h))
        assert pnsr(frames) == pytest.approx(0.3 / 0.8)

    def test_in_box_peak_not_global_peak_in_denominator(self):
        ann = frame("v", 0, [box(20, 20, 60, 60)])
        h = np.zeros((5, 5))
        h[0, 4] = 1.0   # global peak outside the box
        h[1, 1] = 0.5   # in-box peak
        noise = eval_frame(frame("v", 1, []), np.full((5, 5), 0.25))
        assert pnsr([eval_frame(ann, h), noise]) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(22)
        for size in (3, 4, 5):
            frames = [random_eval_frame(rng, size, ave=True) for _ in range(8)]
            frames += [random_eval_frame(rng, size, ave=False) for _ in range(5)]
            assert pnsr(frames) == pytest.approx(brute_force_pnsr(frames), rel=1e-12)

    def test_errors(self):
        ave = eval_frame(frame("v", 0, [box(20, 20, 60, 60)]), np.ones((5, 5)))
        noise = eval_frame(frame("v", 1, []), np.ones((5, 5)))
        with pytest.raises(MetricError, match="no non-AVE"):
            pnsr([ave])
        with pytest.raises(MetricError, match="no AVE"):
            pnsr([noise])
        silent_ave = eval_frame(frame("v", 0, [box(20, 20, 60, 60)]), np.zeros((5, 5)))
        with pytest.raises(MetricError, match="zero mean"):
            pnsr([silent_ave, noise])


class TestMinMax:
    def test_two_values(self):
        out = minmax_normalize(Heatmap(np.array([[0.2, 0.7]])))
        assert np.array_equal(out.values, [[0.0, 1.0]])

    def test_constant_becomes_zero(self):
        out = minmax_normalize(Heatmap(np.full((3, 3), 5.0)))
        assert not out.values.any()

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = rng.normal(size=(5, 5))
            a, b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            base = minmax_normalize(Heatmap(h)).values
            scaled = minmax_normalize(Heatmap(a * h + b)).values
            assert np.allclose(base, scaled, atol=1e-12)


def mixed_fixture():
    """Ten frames of one video with hand-computable metrics on a 4x4 grid."""
    full = box(0, 0, 100, 100, sounding=True, out_of_view=True)
    lo = box(0, 0, 50, 50)             # grid rows 0-1, cols 0-1
    hi = box(50, 50, 100, 100)         # grid rows 2-3, cols 2-3
    quiet = box(10, 10, 40, 40, sounding=False)

    def peak_map(r, c, value=1.0):
        h = np.zeros((4, 4))
        h[r, c] = value
        return h

    mask_lo = np.zeros((4, 4))
    mask_lo[:2, :2] = 1.0

    annotations = [
        frame("v", 0, [lo]),            # single, indicator map
        frame("v", 1, [lo]),            # single, uniform map
        frame("v", 2, [lo, hi]),        # multi, peak inside hi
        frame("v", 3, [lo, hi]),        # multi, peak outside both
        frame("v", 4, [quiet]),         # visible
        frame("v", 5, [quiet]),         # visible
        frame("v", 6, [full]),          # audible
        frame("v", 7, [full]),          # audible
        frame("v", 8, []),              # noise
        frame("v", 9, []),              # noise
    ]
    heatmaps = {
        ("v", 0): Heatmap(mask_lo),
        ("v", 1): Heatmap(np.full((4, 4), 0.5)),
        ("v", 2): Heatmap(peak_map(3, 3)),
        ("v", 3): Heatmap(peak_map(0, 3)),
        ("v", 4): Heatmap(peak_map(2, 0, 0.2)),
        ("v", 5): Heatmap(peak_map(2, 0, 0.4)),
        ("v", 6): Heatmap(peak_map(1, 1, 0.6)),
        ("v", 7): Heatmap(peak_map(1, 1, 0.2)),
        ("v", 8): Heatmap(peak_map(0, 0, 0.1)),
        ("v", 9): Heatmap(peak_map(0, 0, 0.3)),
    }
    return DatasetIndex.from_frames(annotations), heatmaps


def seeded_fixture(seed, grid, n_frames=40):
    """Frames cycling through all five classes, random boxes and heatmaps.

    Every box side is at least a quarter of the frame, so a sounding box
    covers a cell centre on any grid of 4 or more cells a side. Every other
    heatmap is rounded to one decimal, so ties occur.
    """
    rng = np.random.default_rng(seed)

    def random_box(sounding=True):
        w, h = rng.uniform(25, 50, 2)
        x0, y0 = rng.uniform(0, 100 - w), rng.uniform(0, 100 - h)
        return box(x0, y0, x0 + w, y0 + h, sounding=sounding)

    annotations, heatmaps = [], {}
    for k in range(n_frames):
        silent = [random_box(sounding=False)] if rng.random() < 0.5 else []
        boxes = [[random_box()] + silent,
                 [random_box(), random_box()] + silent,
                 [random_box(sounding=False)] + silent,
                 [box(0, 0, 100, 100, out_of_view=True)] + silent,
                 []][k % 5]
        ann = frame(f"v{k // 8}", k % 8, boxes)
        values = rng.random((grid, grid))
        annotations.append(ann)
        heatmaps[(ann.video_id, ann.frame_index)] = Heatmap(values.round(1) if k % 2 else values)
    return DatasetIndex.from_frames(annotations), heatmaps


def bucket_by_bucket_report(index, heatmaps, grid_w, grid_h=None):
    """The report with every metric called on its own bucket's frames.

    A bucket with no frames is absent, as is PNSR without both AVE and
    non-AVE frames.
    """
    grid_h = grid_w if grid_h is None else grid_h
    frames = [eval_frame(ann, heatmaps[(ann.video_id, ann.frame_index)].values)
              for ann in index.frames]
    ave = [f for f in frames if f.frame_class.is_ave]
    buckets = {"all": ave,
               "single": [f for f in ave if f.frame_class is FrameClass.AVE_SINGLE],
               "multi": [f for f in ave if f.frame_class is FrameClass.AVE_MULTI]}
    buckets = {key: bucket for key, bucket in buckets.items() if bucket}
    noise = {cls.value.removeprefix("non_ave_"): [f for f in frames if f.frame_class is cls]
             for cls in FrameClass if not cls.is_ave}
    has_pnsr = ave and len(ave) < len(frames)
    return MetricsReport(
        hmbox_auc={key: float(np.mean([hmbox_auc(f.heatmap,
                                                 rasterize_boxes(f.annotation, grid_w, grid_h))
                                       for f in bucket]))
                   for key, bucket in buckets.items()},
        pibr={key: pibr(bucket) for key, bucket in buckets.items()},
        pnsr={**({"all": pnsr(frames)} if has_pnsr else {}),
              **{key: pnsr(ave + subset) for key, subset in noise.items()
                 if has_pnsr and subset}},
        counts={**{cls.value: sum(f.frame_class is cls for f in frames) for cls in FrameClass},
                "total": len(frames)})


@st.composite
def eval_cases(draw):
    """A dataset of every frame class on a 1x1 to 30x30 grid, its heatmaps and a
    block size. Each AVE frame has a sounding box around one cell centre, so
    its mask is never empty; heatmaps are float32-rounded or coarse, so ties
    occur."""
    grid_w, grid_h = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    width, height = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    n_frames = draw(st.integers(1, 40))
    values_kind = draw(st.sampled_from(["float32", "tenths", "levels", "constant"]))
    block = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random_box(sounding):
        x0, y0 = rng.uniform(0, width), rng.uniform(0, height)
        return box(x0, y0, rng.uniform(x0, width), rng.uniform(y0, height), sounding=sounding)

    def box_around_a_cell_centre():
        cx = (rng.integers(grid_w) + 0.5) * width / grid_w
        cy = (rng.integers(grid_h) + 0.5) * height / grid_h
        return box(rng.uniform(0, cx), rng.uniform(0, cy),
                   min(width, cx + rng.uniform(1e-3, width)),
                   min(height, cy + rng.uniform(1e-3, height)))

    out_of_view = box(0, 0, width, height, out_of_view=True)
    annotations, heatmaps = [], {}
    for k in range(n_frames):
        silent = [random_box(False) for _ in range(rng.integers(3))]
        boxes = [[box_around_a_cell_centre()],
                 [box_around_a_cell_centre(), random_box(True)],
                 [box_around_a_cell_centre(), out_of_view],
                 [],
                 [out_of_view]][rng.integers(5)] + silent
        ann = FrameAnnotation(video_id=f"v{k // 8}", frame_index=k % 8, width=width,
                              height=height, boxes=tuple(boxes))
        values = rng.random((grid_h, grid_w))
        values = {"float32": values.astype(np.float32).astype(np.float64),
                  "tenths": values.round(1), "levels": np.floor(values * 3),
                  "constant": np.full_like(values, rng.random())}[values_kind]
        annotations.append(ann)
        heatmaps[(ann.video_id, ann.frame_index)] = Heatmap(values)
    return DatasetIndex.from_frames(annotations), heatmaps, grid_w, grid_h, block


class TestEvaluate:
    @settings(max_examples=80, deadline=None)
    @given(case=eval_cases())
    def test_blocks_equal_the_bucket_by_bucket_reference(self, case):
        index, heatmaps, grid_w, grid_h, block = case
        try:
            expected = bucket_by_bucket_report(index, heatmaps, grid_w, grid_h)
        except MetricError as exc:  # a zero mean in-box peak
            with pytest.raises(MetricError, match=re.escape(str(exc))):
                with mock.patch.object(metrics, "BLOCK_FRAMES", block):
                    evaluate(index, heatmaps, grid_w, grid_h)
            return
        with mock.patch.object(metrics, "BLOCK_FRAMES", block):
            assert evaluate(index, heatmaps, grid_w, grid_h) == expected

    @pytest.mark.parametrize("grid", [4, 7, 24])
    def test_report_equals_bucket_by_bucket_metrics(self, grid):
        index, heatmaps = seeded_fixture(grid, grid)
        assert evaluate(index, heatmaps, grid, grid) == bucket_by_bucket_report(
            index, heatmaps, grid)

    def test_each_ave_frame_is_rasterized_and_swept_once(self, monkeypatch):
        # evaluate scores AVE frames in blocks: each AVE frame lies in exactly
        # one block, is rasterized and swept there once, and no other frame is
        index, heatmaps = seeded_fixture(3, 7)
        monkeypatch.setattr(metrics, "BLOCK_FRAMES", 5)
        blocks, rasterized, swept = [], Counter(), []

        def spy(fn, record):
            def wrapper(*args):
                record(*args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(metrics, "_score_block", spy(
            metrics._score_block, lambda anns, maps, w, h: blocks.append(
                [(a.video_id, a.frame_index) for a in anns])))
        monkeypatch.setattr(metrics, "rasterize_frames", spy(
            metrics.rasterize_frames, lambda anns, w, h: rasterized.update(
                (a.video_id, a.frame_index) for a in anns)))
        monkeypatch.setattr(metrics, "_auc_rows", spy(
            metrics._auc_rows, lambda values, masks: swept.append(len(values))))
        evaluate(index, heatmaps, 7, 7)
        ave = [(f.video_id, f.frame_index) for f in index.frames if classify_frame(f).is_ave]
        assert [len(block) for block in blocks] == [5, 5, 5, 1]
        assert Counter(key for block in blocks for key in block) == Counter(ave)
        assert rasterized == Counter(ave)
        assert swept == [len(block) for block in blocks]

    def test_hand_computed_report(self):
        index, heatmaps = mixed_fixture()
        report = evaluate(index, heatmaps, 4, 4)
        # per-frame AUC: indicator 1.0; uniform = fg fraction 0.25;
        # one-hot inside (prec 1 at rec 1/8, then prec 1/2 to rec 1) 0.5625;
        # one-hot outside (prec 0, then 1/2 to rec 1) 0.5
        assert report.hmbox_auc["all"] == pytest.approx((1 + 0.25 + 0.5625 + 0.5) / 4)
        assert report.hmbox_auc["single"] == pytest.approx(0.625)
        assert report.hmbox_auc["multi"] == pytest.approx(0.53125)
        assert report.pibr == {"all": 0.75, "single": 1.0, "multi": 0.5}
        # AVE in-box peaks (1, 0.5, 1, 0) -> mean 0.625
        assert report.pnsr["all"] == pytest.approx(0.3 / 0.625)
        assert report.pnsr["visible"] == pytest.approx(0.3 / 0.625)
        assert report.pnsr["audible"] == pytest.approx(0.4 / 0.625)
        assert report.pnsr["noise"] == pytest.approx(0.2 / 0.625)
        assert report.counts == {"total": 10, "ave_single": 2, "ave_multi": 2,
                                 "non_ave_visible": 2, "non_ave_audible": 2,
                                 "non_ave_noise": 2}

    def test_ave_only_dataset_omits_pnsr(self):
        index, heatmaps = mixed_fixture()
        ave_only = DatasetIndex.from_frames(index.frames[:4])
        report = evaluate(ave_only, heatmaps, 4, 4)
        assert report.pnsr == {}
        assert "all" in report.hmbox_auc and "all" in report.pibr

    def test_missing_heatmap_names_every_absent_frame(self):
        index, heatmaps = mixed_fixture()
        del heatmaps[("v", 3)]
        del heatmaps[("v", 7)]
        with pytest.raises(MetricError, match="v@3.*v@7"):
            evaluate(index, heatmaps, 4, 4)

    def test_deterministic_serialization(self):
        index, heatmaps = mixed_fixture()
        a = evaluate(index, heatmaps, 4, 4)
        b = evaluate(index, heatmaps, 4, 4)
        assert a.to_json() == b.to_json()
        assert a.to_table() == b.to_table()


class TestHeatmapFile:
    def test_round_trip_preserves_float32_values(self, tmp_path):
        rng = np.random.default_rng(41)
        entries = [("clip_a", 0, Heatmap(rng.random((6, 6)).astype(np.float32))),
                   ("clip_b", 3, Heatmap(rng.random((6, 6)).astype(np.float32)))]
        path = tmp_path / "maps.avhm"
        write_heatmaps(path, entries)
        loaded = read_heatmaps(path)
        assert set(loaded) == {("clip_a", 0), ("clip_b", 3)}
        for vid, idx, hm in entries:
            assert np.array_equal(loaded[(vid, idx)].values, hm.values)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.avhm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="not a heatmap file"):
            read_heatmaps(path)
