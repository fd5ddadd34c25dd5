import json

import numpy as np
import pytest

from avsol.annotation import (AnnotationError, BoundingBox, DatasetIndex,
                              FrameAnnotation, FrameClass, classify_frame,
                              parse_annotations, rasterize_boxes, rasterize_frames,
                              serialize_annotations, validate)


def box(x0, y0, x1, y1, sounding=True, out_of_view=False, category="cat"):
    return BoundingBox(x_min=x0, y_min=y0, x_max=x1, y_max=y1,
                       sounding=sounding, out_of_view=out_of_view,
                       category=category)


def frame(vid, idx, boxes=(), w=100, h=100):
    return FrameAnnotation(video_id=vid, frame_index=idx, width=w, height=h,
                           boxes=tuple(boxes))


def ten_frame_fixture():
    """Ten frames covering every frame class.

    By construction: 2 single, 2 multi, 3 visible-only, 2 audible-only,
    1 pure noise.
    """
    full = box(0, 0, 100, 100, sounding=True, out_of_view=True)
    return DatasetIndex.from_frames([
        frame("v0", 0, [box(10, 10, 40, 40)]),
        frame("v0", 1, [box(10, 10, 40, 40), box(60, 60, 90, 90)]),
        frame("v0", 2, [box(5, 5, 20, 20, sounding=False)]),
        frame("v0", 3, [full]),
        frame("v0", 4, []),
        frame("v1", 0, [box(30, 30, 70, 70), box(0, 0, 25, 25, sounding=False)]),
        frame("v1", 1, [box(0, 0, 50, 50), box(50, 0, 100, 50), box(0, 50, 50, 100)]),
        frame("v1", 2, [box(40, 40, 60, 60, sounding=False),
                        box(70, 70, 95, 95, sounding=False)]),
        frame("v1", 3, [full, box(10, 10, 30, 30, sounding=False)]),
        frame("v1", 4, [box(80, 0, 100, 30, sounding=False)]),
    ])


class TestClassify:
    def test_fixture_class_counts(self):
        counts = {}
        for f in ten_frame_fixture().frames:
            c = classify_frame(f)
            counts[c] = counts.get(c, 0) + 1
        assert counts == {
            FrameClass.AVE_SINGLE: 2,
            FrameClass.AVE_MULTI: 2,
            FrameClass.NON_AVE_VISIBLE: 3,
            FrameClass.NON_AVE_AUDIBLE: 2,
            FrameClass.NON_AVE_NOISE: 1,
        }

    def test_is_ave_flag(self):
        assert FrameClass.AVE_SINGLE.is_ave
        assert FrameClass.AVE_MULTI.is_ave
        assert not FrameClass.NON_AVE_AUDIBLE.is_ave


class TestRasterize:
    def test_no_sounding_boxes_gives_zero_mask(self):
        f = frame("v", 0, [box(10, 10, 50, 50, sounding=False)])
        assert not rasterize_boxes(f, 8, 8).any()

    def test_full_frame_box_gives_all_ones(self):
        f = frame("v", 0, [box(0, 0, 100, 100)])
        assert rasterize_boxes(f, 8, 6).all()

    def test_centered_box_covers_exact_center_block(self):
        # cell centers land at 5, 15, ..., 95; [25, 75) catches five of them
        f = frame("v", 0, [box(25, 25, 75, 75)])
        mask = rasterize_boxes(f, 10, 10)
        assert int(mask.sum()) == 25
        expected = np.zeros((10, 10), dtype=np.uint8)
        expected[2:7, 2:7] = 1
        assert np.array_equal(mask, expected)

    def test_matches_per_cell_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x0, y0 = rng.uniform(0, 60, 2)
            x1, y1 = x0 + rng.uniform(5, 39), y0 + rng.uniform(5, 39)
            f = frame("v", 0, [box(x0, y0, x1, y1)])
            mask = rasterize_boxes(f, 9, 7)
            for r in range(7):
                for c in range(9):
                    cx = (c + 0.5) * 100 / 9
                    cy = (r + 0.5) * 100 / 7
                    inside = (x0 <= cx < x1) and (y0 <= cy < y1)
                    assert bool(mask[r, c]) == inside


    def test_block_matches_per_cell_enumeration(self):
        # frames of different sizes with zero to three boxes of every kind, in one block
        rng = np.random.default_rng(6)
        frames = []
        for k in range(30):
            w, h = (int(v) for v in rng.integers(10, 120, 2))
            boxes = []
            for _ in range(rng.integers(4)):
                x0, y0 = rng.uniform(0, w), rng.uniform(0, h)
                boxes.append(box(x0, y0, rng.uniform(x0, w), rng.uniform(y0, h),
                                 sounding=bool(rng.random() < 0.7)))
            if rng.random() < 0.2:
                boxes.append(box(0, 0, w, h, out_of_view=True))
            frames.append(frame("v", k, boxes, w=w, h=h))
        masks = rasterize_frames(frames, 9, 7)
        assert masks.shape == (30, 7, 9) and masks.dtype == bool
        for f, mask in zip(frames, masks):
            assert np.array_equal(mask, rasterize_boxes(f, 9, 7))
            for r in range(7):
                for c in range(9):
                    cx, cy = (c + 0.5) * f.width / 9, (r + 0.5) * f.height / 7
                    inside = any(b.x_min <= cx < b.x_max and b.y_min <= cy < b.y_max
                                 for b in f.in_view_sounding_boxes())
                    assert bool(mask[r, c]) == inside

    def test_empty_block_and_bad_grid(self):
        assert rasterize_frames([], 4, 3).shape == (0, 3, 4)
        with pytest.raises(AnnotationError, match="grid dimensions"):
            rasterize_frames([frame("v", 0)], 0, 3)


class TestValidate:
    def test_valid_index_is_clean(self):
        assert validate(ten_frame_fixture()) == []

    def test_degenerate_box_reported(self):
        bad = DatasetIndex.from_frames([frame("v", 0, [box(30, 10, 30, 40)])])
        problems = validate(bad)
        assert len(problems) == 1
        assert "v@0" in problems[0] and "degenerate" in problems[0]

    def test_two_out_of_view_boxes_reported(self):
        full = box(0, 0, 100, 100, sounding=True, out_of_view=True)
        bad = DatasetIndex.from_frames([frame("v", 0, [full, full])])
        problems = validate(bad)
        assert any("more than one out_of_view" in p for p in problems)

    def test_out_of_view_must_be_full_frame_and_sounding(self):
        bad = DatasetIndex.from_frames([
            frame("v", 0, [box(10, 10, 40, 40, sounding=True, out_of_view=True)]),
            frame("v", 1, [box(0, 0, 100, 100, sounding=False, out_of_view=True)]),
        ])
        problems = validate(bad)
        assert any("full-frame" in p for p in problems)
        assert any("not sounding" in p for p in problems)


class TestParse:
    def test_round_trip(self):
        index = ten_frame_fixture()
        assert parse_annotations(serialize_annotations(index)) == index

    def test_malformed_json_names_line(self):
        good = serialize_annotations(ten_frame_fixture()).decode().splitlines()
        data = "\n".join(good[:3] + ["{not json"] + good[3:]).encode()
        with pytest.raises(AnnotationError, match="line 4"):
            parse_annotations(data)

    def test_unknown_field_rejected(self):
        record = json.loads(serialize_annotations(ten_frame_fixture()).decode()
                            .splitlines()[0])
        record["extra"] = 1
        data = (json.dumps(record) + "\n").encode()
        with pytest.raises(AnnotationError, match="unknown"):
            parse_annotations(data)

    def test_missing_field_rejected(self):
        record = json.loads(serialize_annotations(ten_frame_fixture()).decode()
                            .splitlines()[0])
        del record["width"]
        with pytest.raises(AnnotationError, match="missing"):
            parse_annotations((json.dumps(record) + "\n").encode())

    def test_invalid_geometry_rejected_at_parse_time(self):
        bad = DatasetIndex(frames=(frame("v", 0, [box(-5, 0, 50, 50)]),))
        with pytest.raises(AnnotationError, match="outside frame"):
            parse_annotations(serialize_annotations(bad))
