import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avsol.annotation import (BoundingBox, DatasetIndex, FrameAnnotation, FrameClass,
                              classify_frame, parse_annotations, rasterize_boxes,
                              serialize_annotations)
from avsol import tensor as T
from avsol.binfile import FormatError
from avsol.cli import main
from avsol.dnm import DnmModel
from avsol.metrics import Heatmap, read_heatmaps, write_heatmaps
from avsol.synth import ClipSample, read_clip, write_clip


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    config = {"clips_per_split": {"train": 6, "val": 2, "test": 3}, "seed": 5}
    (root / "gen.json").write_text(json.dumps(config))
    code = main(["gen", "--config", str(root / "gen.json"), "--out", str(root / "ds")])
    assert code == 0
    return root / "ds"


def perfect_heatmaps(annotations_path, out_path, grid=6):
    index = parse_annotations(Path(annotations_path).read_bytes())
    entries = []
    for frame in index.frames:
        mask = rasterize_boxes(frame, grid, grid).astype(float)
        if not classify_frame(frame).is_ave:
            mask = np.zeros((grid, grid))
        entries.append((frame.video_id, frame.frame_index, Heatmap(mask)))
    write_heatmaps(out_path, entries)
    return index


class TestGen:
    def test_creates_missing_directory_and_manifest(self, dataset):
        assert (dataset / "manifest.json").exists()
        assert (dataset / "resolved_config.json").exists()
        assert len(list((dataset / "clips" / "train").glob("*.avcl"))) == 6

    def test_rerun_with_same_seed_is_identical(self, dataset, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--config",
                         str(dataset.parent / "gen.json"), "--out", str(tmp_path / "ds2"))
        assert code == 0
        a = hashlib.sha256((dataset / "manifest.json").read_bytes()).hexdigest()
        b = hashlib.sha256((tmp_path / "ds2" / "manifest.json").read_bytes()).hexdigest()
        assert a == b

    def test_flag_overrides_config_file(self, dataset, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--config", str(dataset.parent / "gen.json"),
                         "--seed", "6", "--out", str(tmp_path / "ds3"))
        assert code == 0
        resolved = json.loads((tmp_path / "ds3" / "resolved_config.json").read_text())
        assert resolved["seed"] == 6
        assert resolved["clips_per_split"]["train"] == 6


class TestTrain:
    def test_artifacts_and_log(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "train", "--dataset", str(dataset),
                              "--mode", "dnm", "--fusion", "static",
                              "--epochs", "1", "--seed", "0", "--out", str(out))
        assert code == 0
        assert (out / "checkpoint.avwt").exists()
        assert (out / "heatmaps_test.avhm").exists()
        assert (out / "resolved_config.json").exists()
        records = [json.loads(line) for line in
                   (out / "train_log.jsonl").read_text().splitlines()]
        epochs = [r for r in records if r["epoch"] != "final"]
        assert len(epochs) == 1
        assert "train_loss" in epochs[0] and "val_avc_accuracy" in epochs[0]
        assert "test_metrics" in records[-1]
        assert "HmBoxAUC" in stdout

    def test_same_seed_gives_identical_checkpoints(self, dataset, tmp_path, capsys):
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run(capsys, "train", "--dataset", str(dataset),
                             "--mode", "avc", "--fusion", "static",
                             "--epochs", "1", "--seed", "7", "--out", str(out))
            assert code == 0
            digests.append(hashlib.sha256((out / "checkpoint.avwt").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_logged_metrics_match_separate_eval(self, dataset, tmp_path, capsys):
        out = tmp_path / "run_eval"
        code, _, _ = run(capsys, "train", "--dataset", str(dataset),
                         "--mode", "dnm", "--fusion", "static",
                         "--epochs", "1", "--seed", "1", "--out", str(out))
        assert code == 0
        logged = [json.loads(line) for line in
                  (out / "train_log.jsonl").read_text().splitlines()][-1]["test_metrics"]
        code, _, _ = run(capsys, "eval",
                         "--annotations", str(dataset / "annotations_test.jsonl"),
                         "--heatmaps", str(out / "heatmaps_test.avhm"),
                         "--grid-w", "6", "--grid-h", "6",
                         "--out", str(tmp_path / "rep"))
        assert code == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report == logged


class TestEval:
    def test_perfect_heatmaps_reach_the_ideal_scores(self, dataset, tmp_path, capsys):
        maps = tmp_path / "perfect.avhm"
        perfect_heatmaps(dataset / "annotations_test.jsonl", maps)
        code, _, _ = run(capsys, "eval",
                         "--annotations", str(dataset / "annotations_test.jsonl"),
                         "--heatmaps", str(maps), "--grid-w", "6", "--grid-h", "6",
                         "--out", str(tmp_path / "rep"))
        assert code == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["hmbox_auc"]["all"] == pytest.approx(1.0, abs=1e-9)
        assert report["pibr"]["all"] == 1.0
        if "all" in report["pnsr"]:
            assert report["pnsr"]["all"] == 0.0

    def test_uniform_heatmaps_give_unit_pnsr(self, dataset, tmp_path, capsys):
        index = parse_annotations((dataset / "annotations_test.jsonl").read_bytes())
        entries = [(f.video_id, f.frame_index, Heatmap(np.full((6, 6), 0.5)))
                   for f in index.frames]
        maps = tmp_path / "uniform.avhm"
        write_heatmaps(maps, entries)
        code, _, _ = run(capsys, "eval",
                         "--annotations", str(dataset / "annotations_test.jsonl"),
                         "--heatmaps", str(maps), "--grid-w", "6", "--grid-h", "6",
                         "--out", str(tmp_path / "rep2"))
        assert code == 0
        report = json.loads((tmp_path / "rep2" / "report.json").read_text())
        if "all" in report["pnsr"]:
            assert report["pnsr"]["all"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_annotation_file_is_a_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--annotations", str(tmp_path / "nope.jsonl"),
                           "--heatmaps", str(tmp_path / "nope.avhm"),
                           "--grid-w", "6", "--grid-h", "6")
        assert code == 2
        assert "error" in err


def small_eval_files(root):
    """One annotated frame and its 2x2 heatmap: a 37-byte AVHM file."""
    frame = FrameAnnotation(video_id="v", frame_index=0, width=20, height=20, boxes=(
        BoundingBox(x_min=0, y_min=0, x_max=10, y_max=10, sounding=True,
                    out_of_view=False, category="c"),))
    annotations = Path(root) / "ann.jsonl"
    annotations.write_bytes(serialize_annotations(DatasetIndex.from_frames([frame])))
    maps = Path(root) / "maps.avhm"
    write_heatmaps(maps, [("v", 0, Heatmap(np.array([[0.9, 0.1], [0.2, 0.3]])))])
    return annotations, maps


def eval_exit_code(annotations, maps):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--annotations", str(annotations), "--heatmaps", str(maps),
                     "--grid-w", "2", "--grid-h", "2"])
    return code, err.getvalue()


class TestHeatmapFileDefects:
    def test_intact_small_file_evaluates(self, tmp_path):
        assert eval_exit_code(*small_eval_files(tmp_path))[0] == 0

    def test_every_truncation_is_a_data_error_naming_the_file(self, tmp_path):
        annotations, maps = small_eval_files(tmp_path)
        blob = maps.read_bytes()
        cut_path = tmp_path / "cut.avhm"
        for cut in range(len(blob)):
            cut_path.write_bytes(blob[:cut])
            code, err = eval_exit_code(annotations, cut_path)
            assert code == 2, cut
            assert str(cut_path) in err, cut

    @settings(max_examples=50, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_appended_bytes_are_a_data_error(self, tail):
        with tempfile.TemporaryDirectory() as root:
            annotations, maps = small_eval_files(root)
            maps.write_bytes(maps.read_bytes() + tail)
            code, err = eval_exit_code(annotations, maps)
        assert code == 2
        assert "unexpected bytes after the last frame" in err

    def test_non_finite_value_is_a_data_error_naming_the_frame(self, tmp_path):
        annotations, maps = small_eval_files(tmp_path)
        blob = bytearray(maps.read_bytes())
        offset = len(blob) - 8  # the third of the four float32 values
        blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        maps.write_bytes(bytes(blob))
        code, err = eval_exit_code(annotations, maps)
        assert code == 2
        assert (f"{maps}: non-finite heatmap value in 'v' frame 0 at byte {offset}"
                in err)

    def test_repeated_frame_is_a_data_error_at_its_offset(self, tmp_path):
        annotations, maps = small_eval_files(tmp_path)
        heatmap = Heatmap(np.array([[0.9, 0.1], [0.2, 0.3]]))
        write_heatmaps(maps, [("v", 0, heatmap), ("v", 0, heatmap)])
        code, err = eval_exit_code(annotations, maps)
        assert code == 2
        # the second 27-byte entry follows the 10-byte header and the first
        assert f"{maps}: second heatmap for 'v' frame 0 at byte 37" in err


NAMES_AN_OFFSET = re.compile(r" at byte \d+")


def small_render_files(root):
    """A 2-frame 4x4 clip "c" (a 162-byte AVCL file), its annotations and
    2x2 heatmaps."""
    root = Path(root)
    rng = np.random.default_rng(3)
    frames = tuple(FrameAnnotation(video_id="c", frame_index=t, width=4, height=4, boxes=(
        BoundingBox(x_min=0, y_min=0, x_max=2, y_max=2, sounding=True,
                    out_of_view=False, category="c"),)) for t in range(2))
    clip = root / "c.avcl"
    write_clip(clip, ClipSample(clip_id="c", video=rng.random((2, 4, 4, 1)),
                                logmel=rng.random((2, 2)), labels=(0,), frames=frames,
                                pattern=FrameClass.AVE_SINGLE))
    annotations = root / "ann.jsonl"
    annotations.write_bytes(serialize_annotations(DatasetIndex.from_frames(frames)))
    maps = root / "maps.avhm"
    write_heatmaps(maps, [("c", t, Heatmap(rng.random((2, 2)))) for t in range(2)])
    return clip, annotations, maps


def render_exit_code(clip, annotations, maps):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["render", "--clip", str(clip), "--heatmaps", str(maps),
                     "--annotations", str(annotations),
                     "--out", str(Path(clip).parent / "frames")])
    return code, err.getvalue()


class TestClipFileDefects:
    """Every defect of a clip file exits 2 naming the file and a byte offset."""

    def assert_data_error(self, clip, code, err):
        assert code == 2
        assert f"{clip}: " in err
        assert NAMES_AN_OFFSET.search(err), err

    def test_intact_small_file_renders(self, tmp_path):
        clip, annotations, maps = small_render_files(tmp_path)
        assert len(clip.read_bytes()) == 162
        assert render_exit_code(clip, annotations, maps)[0] == 0
        assert len(list((tmp_path / "frames").glob("*.ppm"))) == 2

    def test_every_truncation(self, tmp_path):
        clip, annotations, maps = small_render_files(tmp_path)
        blob = clip.read_bytes()
        for cut in range(len(blob)):
            clip.write_bytes(blob[:cut])
            self.assert_data_error(clip, *render_exit_code(clip, annotations, maps))

    @settings(max_examples=50, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_appended_bytes(self, tail):
        with tempfile.TemporaryDirectory() as root:
            clip, annotations, maps = small_render_files(root)
            clip.write_bytes(clip.read_bytes() + tail)
            code, err = render_exit_code(clip, annotations, maps)
        self.assert_data_error(clip, code, err)
        assert "unexpected bytes after the log-mel grid" in err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, data):
        with tempfile.TemporaryDirectory() as root:
            clip, annotations, maps = small_render_files(root)
            blob = bytearray(clip.read_bytes())
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= data.draw(st.integers(1, 255))
            clip.write_bytes(bytes(blob))
            code, err = render_exit_code(clip, annotations, maps)
        if code != 0:  # a flipped video or log-mel value may still be a finite float
            self.assert_data_error(clip, code, err)

    def test_non_finite_value_names_its_offset(self, tmp_path):
        clip, annotations, maps = small_render_files(tmp_path)
        blob = bytearray(clip.read_bytes())
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        clip.write_bytes(bytes(blob))
        code, err = render_exit_code(clip, annotations, maps)
        assert code == 2
        assert f"{clip}: non-finite log-mel value at byte 158" in err


class TestRenderMismatches:
    """Well-formed files that do not fit together exit 2 naming the file,
    the frame and the shapes."""

    def test_annotated_frame_outside_the_clip(self, tmp_path):
        clip, annotations, maps = small_render_files(tmp_path)
        frames = tuple(FrameAnnotation(video_id="c", frame_index=t, width=4, height=4, boxes=())
                       for t in range(4))
        annotations.write_bytes(serialize_annotations(DatasetIndex.from_frames(frames)))
        write_heatmaps(maps, [("c", t, Heatmap(np.zeros((2, 2)))) for t in range(4)])
        code, err = render_exit_code(clip, annotations, maps)
        assert code == 2
        assert f"{annotations}: frame c@2 is outside clip {clip} of shape (2, 4, 4, 1)" in err
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("grid", [(3, 3), (8, 8), (2, 0)])
    def test_heatmap_grid_that_does_not_tile_the_frame(self, tmp_path, grid):
        clip, annotations, maps = small_render_files(tmp_path)
        write_heatmaps(maps, [("c", t, Heatmap(np.zeros(grid))) for t in range(2)])
        code, err = render_exit_code(clip, annotations, maps)
        assert code == 2
        assert (f"{maps}: heatmap c@0 of shape {grid} does not tile "
                f"the 4x4 frames of clip {clip}") in err
        assert not (tmp_path / "frames").exists()


class TestHeatmapFileByteFlips:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, data):
        """A malformed file exits 2 naming it and a byte offset. A flip that
        leaves the file well-formed (a frame index, a video id or a value
        changed) exits 0, or 2 naming the file when its frames no longer
        match the annotations."""
        with tempfile.TemporaryDirectory() as root:
            annotations, maps = small_eval_files(root)
            blob = bytearray(maps.read_bytes())
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= data.draw(st.integers(1, 255))
            maps.write_bytes(bytes(blob))
            code, err = eval_exit_code(annotations, maps)
            try:
                read_heatmaps(maps)
                well_formed = True
            except FormatError:
                well_formed = False
        assert code in (0, 2)
        if code == 2:
            assert f"{maps}: " in err
        if not well_formed:
            assert code == 2 and NAMES_AN_OFFSET.search(err), err

    def test_frames_that_miss_the_annotations_name_the_file(self, tmp_path):
        annotations, maps = small_eval_files(tmp_path)
        write_heatmaps(maps, [("w", 0, Heatmap(np.zeros((2, 2))))])
        code, err = eval_exit_code(annotations, maps)
        assert code == 2
        assert f"{maps}: missing heatmaps for frames: v@0" in err


class TestClassLabels:
    @pytest.mark.parametrize("label", [4, -1])
    def test_label_outside_the_model_categories_is_a_data_error(
            self, dataset, tmp_path, capsys, label):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["splits"]["train"][0]["labels"] = [label]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"class label {label} outside the model's [0, 4)" in err

    def test_forty_categories_train(self, tmp_path, capsys):
        config = tmp_path / "forty.json"
        config.write_text(json.dumps({"num_categories": 40, "clips_per_split":
                                      {"train": 4, "val": 2, "test": 2}}))
        assert run(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "ds"))[0] == 0
        labels = [label for r in json.loads((tmp_path / "ds" / "manifest.json").read_text())
                  ["splits"]["train"] for label in r["labels"]]
        assert max(labels) >= 32
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"num_categories": 40, "fusion": "static"}))
        code, _, _ = run(capsys, "train", "--dataset", str(tmp_path / "ds"), "--model-config",
                         str(model), "--epochs", "1", "--out", str(tmp_path / "run"))
        assert code == 0


class TestSplitSizes:
    @pytest.mark.parametrize("split, keep, defect", [
        ("train", 1, "split 'train' has 1 clip(s), training needs at least 2 "
                     "to form negative pairs"),
        ("val", 1, "split 'val' has 1 clip, validation needs 0 or at least 2 "
                   "to form negative pairs"),
    ], ids=["one-train-clip", "one-val-clip"])
    def test_too_small_split_is_a_data_error_before_training(
            self, dataset, tmp_path, capsys, monkeypatch, split, keep, defect):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["splits"][split] = manifest["splits"][split][:keep]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr("avsol.cli.train", lambda *a, **k: pytest.fail("trained"))
        code, stdout, err = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                                "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"error: {copy / 'manifest.json'}: {defect}" in err
        assert stdout == ""
        assert not (tmp_path / "run").exists()

    def test_empty_validation_split_trains(self, dataset, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["splits"]["val"] = []
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code, _, _ = run(capsys, "train", "--dataset", str(copy), "--fusion", "static",
                         "--epochs", "1", "--out", str(tmp_path / "run"))
        assert code == 0


class TestManifestRecords:
    @pytest.mark.parametrize("edit,defect", [
        (lambda r: r.pop("labels"), "'labels' must be a list of integers, got None"),
        (lambda r: r.pop("id"), "'id' must be a string, got None"),
        (lambda r: r.update(pattern="ave_triple"), "unknown 'pattern' 'ave_triple'"),
        (lambda r: r.update(labels=1), "'labels' must be a list of integers, got 1"),
    ], ids=["missing-labels", "missing-id", "unknown-pattern", "labels-not-a-list"])
    def test_bad_record_is_a_data_error_naming_the_manifest(
            self, dataset, tmp_path, capsys, edit, defect):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest["splits"]["train"][1])
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{copy / 'manifest.json'}: split 'train' record 1: {defect}" in err

    def test_manifest_that_is_not_json_is_a_data_error_naming_it(
            self, dataset, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        (copy / "manifest.json").write_text("{splits: []}")
        code, _, err = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{copy / 'manifest.json'}: not a JSON manifest: Expecting property name" in err


def corrupt(monkeypatch, op):
    """Wrap `tensor.<op>` so every node it builds passes on its incoming
    gradient x1.01: a gradient check over that op must then fail."""
    raw = getattr(T, op)

    def wrapped(*args, **kwargs):
        out = raw(*args, **kwargs)
        rule = out._backward_rule
        if rule is not None:
            out._backward_rule = lambda g: rule(g * 1.01)
        return out

    monkeypatch.setattr(T, op, wrapped)


class TestGradcheck:
    def test_passes_and_prints_per_op_lines(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "2")
        assert code == 0
        assert "conv2d" in out and "end_to_end" in out
        assert "FAIL" not in out

    def test_corrupted_op_is_detected_and_named(self, capsys, monkeypatch):
        corrupt(monkeypatch, "matmul")
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "2")
        assert code == 3
        assert "matmul" in out and "FAIL" in out

    def test_corrupted_gru_cell_is_detected_and_named(self, capsys, monkeypatch):
        corrupt(monkeypatch, "gru_cell")
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "1")
        assert code == 3
        assert "gradient check failed for: gru_cell" in out

    @pytest.mark.parametrize("draws", [0, -3])
    def test_fewer_than_one_draw_is_a_data_error(self, capsys, draws):
        code, out, err = run(capsys, "gradcheck", "--seed", "0", "--draws", str(draws))
        assert code == 2
        assert f"error: draws must be >= 1, got {draws}" in err
        assert out == ""


class TestExitCodes:
    def test_grid_that_does_not_divide_the_frame_is_a_data_error(
            self, dataset, tmp_path, capsys):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"grid_w": 5}))
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--model-config",
                           str(config), "--epochs", "1", "--out", str(tmp_path / "run"))
        assert code == 2
        assert ("clip shape (8, 24, 24, 1) and log-mel shape (16, 8) do not fit the "
                "model's 6x5 grid") in err

    def test_log_mel_steps_other_than_frames_are_a_data_error(
            self, dataset, tmp_path, capsys):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        path = copy / "clips" / "train" / "train0001.avcl"
        video, logmel = read_clip(path)
        write_clip(path, SimpleNamespace(video=video, logmel=logmel[:, :4]))
        code, _, err = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert "clip shape (8, 24, 24, 1) and log-mel shape (16, 4) do not fit" in err

    def test_smaller_frames_train_with_the_default_model_config(
            self, dataset, tmp_path, capsys):
        # 12x12 frames and 8 mel bins: each clip averaged over 2x2 pixels and
        # over pairs of mel bins; the annotations keep their 24x24 frame size
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        for path in (copy / "clips").glob("*/*.avcl"):
            video, logmel = read_clip(path)
            write_clip(path, SimpleNamespace(
                video=video.reshape(8, 12, 2, 12, 2, 1).mean(axis=(2, 4)),
                logmel=logmel.reshape(8, 2, 8).mean(axis=1)))
        code, _, _ = run(capsys, "train", "--dataset", str(copy), "--epochs", "1",
                         "--out", str(tmp_path / "run"))
        assert code == 0
        maps = read_heatmaps(tmp_path / "run" / "heatmaps_test.avhm")
        assert {hm.values.shape for hm in maps.values()} == {(6, 6)}

    def test_shape_bug_in_model_code_is_an_internal_error(self, dataset, tmp_path, capsys,
                                                          monkeypatch):
        def broken_dynamic_fusion(self, v_seq, a):
            return T.Tensor(np.ones(3))

        monkeypatch.setattr(DnmModel, "dynamic_fusion", broken_dynamic_fusion)
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--epochs", "1",
                           "--out", str(tmp_path / "run"))
        assert code == 3
        assert "internal error: mul: incompatible shapes (36,) and (3,)" in err


class TestRender:
    def render_args(self, dataset, tmp_path, out_name):
        clip = sorted((dataset / "clips" / "test").glob("*.avcl"))[0]
        index = parse_annotations((dataset / "annotations_test.jsonl").read_bytes())
        maps = tmp_path / "flat.avhm"
        write_heatmaps(maps, [(f.video_id, f.frame_index, Heatmap(np.full((6, 6), 0.3)))
                              for f in index.frames])
        return ["render", "--clip", str(clip), "--heatmaps", str(maps),
                "--annotations", str(dataset / "annotations_test.jsonl"),
                "--out", str(tmp_path / out_name)]

    def test_one_image_per_frame_and_byte_stable(self, dataset, tmp_path, capsys):
        args = self.render_args(dataset, tmp_path, "imgs")
        assert run(capsys, *args)[0] == 0
        images = sorted((tmp_path / "imgs").glob("*.ppm"))
        assert len(images) == 8
        for img in images:
            assert img.read_bytes().startswith(b"P6 24 24 255\n")
        first = {p.name: p.read_bytes() for p in images}
        args2 = self.render_args(dataset, tmp_path, "imgs2")
        assert run(capsys, *args2)[0] == 0
        second = {p.name: p.read_bytes() for p in sorted((tmp_path / "imgs2").glob("*.ppm"))}
        assert first == second


class TestConfigFiles:
    @pytest.mark.parametrize("command, content, defect", [
        ("train", {"grid_size": 6}, "unknown key 'grid_size'"),
        ("train", {"frame_height": 24}, "unknown key 'frame_height'"),
        ("train", {"visual_kernel": 3}, "unknown key 'visual_kernel'"),
        ("train", {"grid_w": "6"}, "key 'grid_w' has a value of the wrong type, '6'"),
        ("train", {"fusion": True}, "key 'fusion' has a value of the wrong type, True"),
        ("train", [1, 2], "a config must be a JSON object, got list"),
        ("train", {"grid_w": 0}, "grid_w must be >= 1"),
        ("gen", {"seeds": 1}, "unknown key 'seeds'"),
        ("gen", {"distractor_fraction": "x"},
         "key 'distractor_fraction' has a value of the wrong type, 'x'"),
        ("gen", {"clips_per_split": {"train": "2"}},
         "key 'clips_per_split' has a value of the wrong type, {'train': '2'}"),
        ("gen", {"frame_height": 12}, "frame_height and frame_width must be >= 13"),
        ("gen", {"audio_steps": 8}, "unknown key 'audio_steps'"),
        ("gen", {"clips_per_split": {"trian": 4}}, "clips_per_split: unknown split 'trian'"),
        ("gen", {"clips_per_split": {"train": -3}}, "clips_per_split: 'train' must be >= 0, got -3"),
        ("gen", {"class_probs": {"ave_single": 0.5, "ave_triple": 0.5}},
         "class_probs: unknown frame class 'ave_triple'"),
        ("gen", {"class_probs": {"ave_single": 1.5, "ave_multi": -0.5}},
         "class_probs: 'ave_multi' must be >= 0, got -0.5"),
        ("gen", {"seed": -1}, "seed must be >= 0, got -1"),
        ("gen", b"{bad", "cannot read config: Expecting property name"),
        ("gen", b'{"seed": "\xff"}', "cannot read config: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["unknown-model-key", "removed-model-key", "removed-kernel-key", "string-for-int", "bool-for-str",
            "not-an-object", "model-field-out-of-range", "unknown-gen-key",
            "string-for-float", "string-in-dict", "frame-too-small", "removed-gen-key",
            "misspelt-split", "negative-count", "unknown-frame-class", "negative-probability",
            "negative-seed", "not-json", "not-utf-8"])
    def test_bad_config_is_a_data_error_naming_the_file_and_key(
            self, tmp_path, capsys, command, content, defect):
        # bytes are written as they are, anything else as JSON
        config = tmp_path / "config.json"
        config.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        flag = "--model-config" if command == "train" else "--config"
        extra = ["--dataset", str(tmp_path / "ds")] if command == "train" else []
        code, _, err = run(capsys, command, flag, str(config), *extra,
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"error: {config}: {defect}" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("as_int, as_float", [
        ({"distractor_fraction": 1}, {"distractor_fraction": 1.0}),
        ({"class_probs": {"ave_single": 1}}, {"class_probs": {"ave_single": 1.0}}),
    ], ids=["float-field", "class-probs-value"])
    def test_an_int_for_a_float_gives_the_same_config_hash(
            self, tmp_path, capsys, as_int, as_float):
        written = []
        for name, content in (("int", as_int), ("float", as_float)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(
                {"clips_per_split": {"train": 1, "val": 1, "test": 1}, **content}))
            out = tmp_path / name
            assert run(capsys, "gen", "--config", str(config), "--out", str(out))[0] == 0
            manifest = json.loads((out / "manifest.json").read_text())
            written.append((manifest["config_sha256"],
                            (out / "resolved_config.json").read_bytes()))
        assert written[0] == written[1]


class TestFlagValues:
    @pytest.mark.parametrize("command, flag, value, defect", [
        ("gen", "--seed", "-1", ">= 0, got -1"),
        ("train", "--seed", "-1", ">= 0, got -1"),
        ("train", "--epochs", "-2", ">= 0, got -2"),
        ("train", "--lr", "-1", "a finite number > 0, got -1.0"),
        ("train", "--lr", "0", "a finite number > 0, got 0.0"),
        ("train", "--lr", "nan", "a finite number > 0, got nan"),
        ("gradcheck", "--seed", "-1", ">= 0, got -1"),
    ], ids=["gen-seed", "train-seed", "train-epochs", "train-lr-negative", "train-lr-zero",
            "train-lr-nan", "gradcheck-seed"])
    def test_out_of_range_flag_is_a_data_error_naming_it(
            self, dataset, tmp_path, capsys, command, flag, value, defect):
        out = tmp_path / "out"
        extra = {"gen": ["--out", str(out)],
                 "train": ["--dataset", str(dataset), "--epochs", "1", "--out", str(out)],
                 "gradcheck": ["--draws", "1"]}[command]
        code, stdout, err = run(capsys, command, *extra, flag, value)
        assert code == 2
        assert f"error: {flag} must be {defect}" in err
        assert stdout == ""
        assert not out.exists()


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "explode")
        assert code == 1

    def test_unreadable_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--config", str(tmp_path / "none.json"),
                           "--out", str(tmp_path / "ds"))
        assert code == 2
        assert f"error: {tmp_path / 'none.json'}: cannot read config" in err
