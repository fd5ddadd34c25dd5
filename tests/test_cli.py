import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avsol.annotation import (BoundingBox, DatasetIndex, FrameAnnotation, classify_frame,
                              parse_annotations, rasterize_boxes, serialize_annotations)
from avsol import tensor as T
from avsol.cli import main
from avsol.dnm import DnmModel
from avsol.metrics import Heatmap, write_heatmaps


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


class TestGradcheck:
    def test_passes_and_prints_per_op_lines(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "2")
        assert code == 0
        assert "conv2d" in out and "end_to_end" in out
        assert "FAIL" not in out

    def test_corrupted_op_is_detected_and_named(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "2",
                           "--corrupt-op", "matmul")
        assert code == 3
        assert "matmul" in out and "FAIL" in out

    def test_corrupted_gru_cell_is_detected_and_named(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--draws", "1",
                           "--corrupt-op", "gru_cell")
        assert code == 3
        assert "gradient check failed for: gru_cell" in out


class TestExitCodes:
    @pytest.mark.parametrize("override, message", [
        ({"frame_height": 12, "frame_width": 12},
         "clip shape (8, 24, 24, 1) does not match the model config, "
         "which expects (8, 12, 12, 1)"),
        ({"mel_bins": 8},
         "log-mel shape (16, 8) does not match the model config, which expects (8, 8)"),
    ])
    def test_data_that_does_not_fit_the_model_config_is_a_data_error(
            self, dataset, tmp_path, capsys, override, message):
        config = tmp_path / "model.json"
        config.write_text(json.dumps(override))
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--model-config",
                           str(config), "--epochs", "1", "--out", str(tmp_path / "run"))
        assert code == 2
        assert message in err

    def test_shape_bug_in_model_code_is_an_internal_error(self, dataset, tmp_path, capsys,
                                                          monkeypatch):
        def broken_cdf(m_static, m_dynamic):
            return T.mul(m_static, T.Tensor(np.ones(3)))

        monkeypatch.setattr(DnmModel, "cdf", staticmethod(broken_cdf))
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
        assert code == 1
        assert "cannot read config" in err
