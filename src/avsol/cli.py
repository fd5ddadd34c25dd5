"""Command line surface: avsol gen | train | eval | gradcheck | render.

Options come from an optional JSON config file with command line flags
winning field by field; every run writes a resolved-config snapshot next to
its outputs. Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from . import tensor as T
from .annotation import parse_annotations
from .dnm import (FUSIONS, MODES, ConfigError, DnmModel, ModelConfig, predict_heatmaps,
                  train)
from .metrics import (MetricError, evaluate, minmax_normalize, read_heatmaps,
                      write_heatmaps)
from .synth import GeneratorConfig, generate_dataset, load_split, read_clip

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(cls, path, flag_values: dict):
    """`cls` built from the JSON object in `path`, flags winning field by field.

    Each key the file sets must name a field of `cls` and hold a value of its
    default's type; a defect names the file and the key.
    """
    values = {}
    if path is not None:
        try:
            values = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # missing, not UTF-8, or not JSON
            raise ConfigError(f"{path}: cannot read config: {exc}") from None
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: a config must be a JSON object, "
                              f"got {type(values).__name__}")
        defaults = dataclasses.asdict(cls())
        for key, value in values.items():
            if key not in defaults:
                raise ConfigError(f"{path}: unknown key {key!r}")
            try:
                values[key] = _conform(value, defaults[key])
            except TypeError:
                raise ConfigError(f"{path}: key {key!r} has a value of the wrong type, "
                                  f"{value!r}") from None
    values.update({k: v for k, v in flag_values.items() if v is not None})
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def _conform(value, default):
    # `value` with the exact JSON type of `default`, else TypeError: true is no
    # number, but an int stands for a float and is stored as one, so 1 and 1.0
    # hash equal; a dict's values must conform to the default's first value
    if isinstance(default, dict) and isinstance(value, dict):
        sample = next(iter(default.values()))
        return {k: _conform(v, sample) for k, v in value.items()}
    if type(value) is type(default):
        return value
    if (type(default), type(value)) == (float, int):
        return float(value)
    raise TypeError


def _require(ok: bool, flag: str, value, want: str):
    # checked before anything is written under --out
    if not ok:
        raise ConfigError(f"{flag} must be {want}, got {value}")


def _snapshot(out_dir: Path, resolved: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def cmd_gen(args) -> int:
    _require(args.seed is None or args.seed >= 0, "--seed", args.seed, ">= 0")
    config = _load_config(GeneratorConfig, args.config, {"seed": args.seed})
    out = Path(args.out)
    _snapshot(out, dataclasses.asdict(config))
    generate_dataset(config, out)
    print(f"dataset written to {out}")
    return 0


def cmd_train(args) -> int:
    _require(args.seed >= 0, "--seed", args.seed, ">= 0")
    _require(args.epochs >= 0, "--epochs", args.epochs, ">= 0")
    _require(math.isfinite(args.lr) and args.lr > 0, "--lr", args.lr, "a finite number > 0")
    config = _load_config(ModelConfig, args.model_config,
                          {"mode": args.mode, "fusion": args.fusion})
    train_clips = load_split(args.dataset, "train")
    val_clips = load_split(args.dataset, "val")
    test_clips = load_split(args.dataset, "test")
    # negative pairs are drawn within a split, so a lone clip has none
    manifest = Path(args.dataset) / "manifest.json"
    if len(train_clips) < 2:
        raise ConfigError(f"{manifest}: split 'train' has {len(train_clips)} clip(s), "
                          f"training needs at least 2 to form negative pairs")
    if len(val_clips) == 1:
        raise ConfigError(f"{manifest}: split 'val' has 1 clip, validation needs 0 or "
                          f"at least 2 to form negative pairs")
    out = Path(args.out)
    _snapshot(out, {"model": dataclasses.asdict(config), "dataset": str(args.dataset),
                    "epochs": args.epochs, "seed": args.seed, "lr": args.lr})

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
    try:
        report = evaluate(index, heatmaps, args.grid_w, args.grid_h)
    except MetricError as exc:  # a well-formed file that does not fit the annotations
        raise MetricError(f"{args.heatmaps}: {exc}") from None
    print(report.to_table(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        (out / "report.txt").write_text(report.to_table())
    return 0


def cmd_gradcheck(args) -> int:
    _require(args.seed >= 0, "--seed", args.seed, ">= 0")
    report = gc.run_report(args.seed, draws=args.draws)
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
    video, _ = read_clip(args.clip)
    clip_id = Path(args.clip).stem
    heatmaps = read_heatmaps(args.heatmaps)
    index = parse_annotations(Path(args.annotations).read_bytes())
    frames = [f for f in index.frames if f.video_id == clip_id]
    if not frames:
        raise MetricError(f"no annotations for clip id {clip_id!r}")
    height, width = video.shape[1:3]
    for frame in frames:
        key, tag = (frame.video_id, frame.frame_index), f"{frame.video_id}@{frame.frame_index}"
        if frame.frame_index >= video.shape[0]:
            raise MetricError(f"{args.annotations}: frame {tag} is outside clip {args.clip} "
                              f"of shape {video.shape}")
        if key not in heatmaps:
            raise MetricError(f"no heatmap for frame {tag}")
        grid = heatmaps[key].values.shape
        if 0 in grid or height % grid[0] or width % grid[1]:
            raise MetricError(f"{args.heatmaps}: heatmap {tag} of shape {grid} does not tile "
                              f"the {height}x{width} frames of clip {args.clip}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        gray = (255 * np.clip(video[frame.frame_index, :, :, 0], 0.0, 1.0)).astype(np.uint8)
        rgb = np.stack([gray, gray, gray], axis=-1)
        # min-max normalization here is display-only
        hm = minmax_normalize(heatmaps[(frame.video_id, frame.frame_index)]).values
        ry = height // hm.shape[0]
        rx = width // hm.shape[1]
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
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--fusion", choices=FUSIONS)
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
    except (ValueError, OSError) as exc:  # every data error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (T.ShapeError, T.GraphError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
