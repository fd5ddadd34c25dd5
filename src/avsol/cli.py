"""Command line surface: avsol gen | train | eval | gradcheck | render.

Options come from an optional JSON config file with command line flags
winning field by field; every run writes a resolved-config snapshot next to
its outputs. Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from . import tensor as T
from .annotation import AnnotationError, parse_annotations
from .dnm import ConfigError, DnmModel, ModelConfig, predict_heatmaps, train
from .metrics import (MetricError, evaluate, minmax_normalize, read_heatmaps,
                      write_heatmaps)
from .synth import (GeneratorConfig, GeneratorError, generate_dataset, load_split,
                    read_clip)

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path):
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None


def _merge(file_values: dict, flag_values: dict) -> dict:
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _snapshot(out_dir: Path, resolved: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def cmd_gen(args) -> int:
    values = _merge(_load_config_file(args.config), {"seed": args.seed})
    config = GeneratorConfig.from_dict(values)
    out = Path(args.out)
    _snapshot(out, config.to_dict())
    generate_dataset(config, out)
    print(f"dataset written to {out}")
    return 0


def cmd_train(args) -> int:
    values = _merge(_load_config_file(args.model_config),
                    {"mode": args.mode, "fusion": args.fusion})
    config = ModelConfig.from_dict(values)
    out = Path(args.out)
    _snapshot(out, {"model": json.loads(config.to_json()), "dataset": str(args.dataset),
                    "epochs": args.epochs, "seed": args.seed, "lr": args.lr})

    train_clips = load_split(args.dataset, "train")
    val_clips = load_split(args.dataset, "val")
    test_clips = load_split(args.dataset, "test")

    model = DnmModel(config, seed=args.seed)
    result = train(model, train_clips, epochs=args.epochs, seed=args.seed,
                   lr=args.lr, val_clips=val_clips)

    T.save_checkpoint(out / "checkpoint.avwt", model.parameters())
    heatmaps = predict_heatmaps(model, test_clips)
    entries = sorted(heatmaps.items())
    write_heatmaps(out / "heatmaps_test.avhm",
                   [(vid, idx, hm) for (vid, idx), hm in entries])

    # final metrics are computed from the written file so train and eval agree
    index = parse_annotations(
        (Path(args.dataset) / "annotations_test.jsonl").read_bytes())
    report = evaluate(index, read_heatmaps(out / "heatmaps_test.avhm"),
                      config.grid_w, config.grid_h)
    summary = {"epoch": "final", "test_metrics": json.loads(report.to_json())}
    with open(out / "train_log.jsonl", "w") as fh:
        for record in result.log + [summary]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(report.to_table(), end="")
    return 0


def cmd_eval(args) -> int:
    index = parse_annotations(Path(args.annotations).read_bytes())
    heatmaps = read_heatmaps(args.heatmaps)
    report = evaluate(index, heatmaps, args.grid_w, args.grid_h)
    print(report.to_table(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        (out / "report.txt").write_text(report.to_table())
    return 0


def cmd_gradcheck(args) -> int:
    if args.corrupt_op:
        T.set_grad_tamper(args.corrupt_op, 1.01)
    try:
        report = gc.run_report(args.seed, draws=args.draws)
    finally:
        T.set_grad_tamper(None, 1.0)
    failed = [name for name, err in report.items() if err > gc.TOLERANCE]
    for name, err in report.items():
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<20} {err:.3e}  {status}")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}")
        return INTERNAL_ERROR
    return 0


def _draw_box(rgb, box, channel):
    x0, y0 = int(round(box.x_min)), int(round(box.y_min))
    x1, y1 = int(round(box.x_max)) - 1, int(round(box.y_max)) - 1
    h, w, _ = rgb.shape
    x0, x1 = max(0, x0), min(w - 1, x1)
    y0, y1 = max(0, y0), min(h - 1, y1)
    rgb[y0, x0:x1 + 1, channel] = 255
    rgb[y1, x0:x1 + 1, channel] = 255
    rgb[y0:y1 + 1, x0, channel] = 255
    rgb[y0:y1 + 1, x1, channel] = 255


def cmd_render(args) -> int:
    video, _, _ = read_clip(args.clip)
    clip_id = Path(args.clip).stem
    heatmaps = read_heatmaps(args.heatmaps)
    index = parse_annotations(Path(args.annotations).read_bytes())
    frames = [f for f in index.frames if f.video_id == clip_id]
    if not frames:
        raise MetricError(f"no annotations for clip id {clip_id!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        key = (frame.video_id, frame.frame_index)
        if key not in heatmaps:
            raise MetricError(f"no heatmap for frame {frame.video_id}@{frame.frame_index}")
        gray = (255 * video[frame.frame_index, :, :, 0]).astype(np.uint8)
        rgb = np.stack([gray, gray, gray], axis=-1)
        # min-max normalization here is display-only
        hm = minmax_normalize(heatmaps[key]).values
        ry = gray.shape[0] // hm.shape[0]
        rx = gray.shape[1] // hm.shape[1]
        overlay = np.kron(hm, np.ones((ry, rx)))
        rgb[:, :, 0] = np.clip(rgb[:, :, 0] + 128 * overlay, 0, 255).astype(np.uint8)
        for box in frame.boxes:
            _draw_box(rgb, box, 1 if box.sounding else 2)
        path = out / f"{clip_id}_{frame.frame_index:03d}.ppm"
        with open(path, "wb") as fh:
            fh.write(f"P6 {rgb.shape[1]} {rgb.shape[0]} 255\n".encode())
            fh.write(rgb.astype(np.uint8).tobytes())
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def build_parser():
    parser = _Parser(prog="avsol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model and emit test heatmaps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-config", help="model config JSON")
    p.add_argument("--mode", choices=("avc", "cls", "dnm"))
    p.add_argument("--fusion", choices=("static", "cdf"))
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate heatmaps against annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--grid-w", type=int, required=True)
    p.add_argument("--grid-h", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--corrupt-op", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("render", help="overlay heatmaps and boxes on clip frames")
    p.add_argument("--clip", required=True, help="clip tensor file (.avcl)")
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AnnotationError, MetricError, GeneratorError, ConfigError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (T.ShapeError, T.GraphError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
