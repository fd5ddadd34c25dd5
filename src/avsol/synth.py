"""Deterministic synthetic audio-visual scene generator.

Each clip is one second: a grayscale video of moving blobs and a log-mel
style grid generated directly in the feature domain (template spectrum x
temporal envelope + noise). When a blob is sounding, its pixel intensity
follows the same envelope as the audio, so the blob region is learnable
from audio-visual correlation by construction. All randomness flows from
per-clip streams derived from (master seed, split, clip index).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .annotation import (AnnotationError, BoundingBox, DatasetIndex, FrameAnnotation,
                         FrameClass, parse_annotations, serialize_annotations)
from .binfile import Reader, Writer


class GeneratorError(ValueError):
    pass


DEFAULT_CLASS_PROBS = {
    "ave_single": 0.66,
    "ave_multi": 0.25,
    "non_ave_visible": 0.04,
    "non_ave_audible": 0.02,
    "non_ave_noise": 0.03,
}

SPLITS = ("train", "val", "test")

MULTI_SAME_CATEGORY_FRACTION = 0.5  # AVE_MULTI clips whose two blobs share a category
AMBIENT_FRACTION = 0.75  # distractors that also sound off screen, in their own category
AMBIENT_AMPLITUDE = 0.55  # loudness of that off-screen sound
NOISE_AMPLITUDE = 0.08  # uniform noise under every log-mel cell


@dataclass(frozen=True)
class GeneratorConfig:
    frame_height: int = 24
    frame_width: int = 24
    frames_per_clip: int = 8
    mel_bins: int = 16
    num_categories: int = 4
    clips_per_split: dict = field(default_factory=lambda: {"train": 200, "val": 50, "test": 50})
    class_probs: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_PROBS))
    distractor_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for name in ("frame_height", "frame_width", "frames_per_clip",
                     "mel_bins", "num_categories"):
            if getattr(self, name) < 1:
                raise GeneratorError(f"{name} must be >= 1")
        if min(self.frame_height, self.frame_width) < 13:
            raise GeneratorError("frame_height and frame_width must be >= 13: "
                                 "blob centres keep 6 pixels from the border")
        for split, count in self.clips_per_split.items():
            if split not in SPLITS:
                raise GeneratorError(f"clips_per_split: unknown split {split!r}, "
                                     f"expected one of {SPLITS}")
            if count < 0:
                raise GeneratorError(f"clips_per_split: {split!r} must be >= 0, got {count}")
        if abs(sum(self.class_probs.values()) - 1.0) > 1e-9:
            raise GeneratorError("class probabilities must sum to 1")
        names = [c.value for c in FrameClass]
        for name, prob in self.class_probs.items():
            if name not in names:
                raise GeneratorError(f"class_probs: unknown frame class {name!r}, "
                                     f"expected one of {names}")
            if prob < 0:
                raise GeneratorError(f"class_probs: {name!r} must be >= 0, got {prob}")
        if not 0.0 <= self.distractor_fraction <= 1.0:
            raise GeneratorError("distractor_fraction must lie in [0, 1]")
        if self.seed < 0:
            raise GeneratorError(f"seed must be >= 0, got {self.seed}")

    def content_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClipSample:
    clip_id: str
    video: np.ndarray      # (frames, H, W, 1), values in [0, 1]
    logmel: np.ndarray     # (mel_bins, frames)
    labels: tuple          # sounding in-view event categories
    frames: tuple          # FrameAnnotation per video frame
    pattern: FrameClass
    avc_positive: bool = True


def _envelope(rng, n):
    # smooth positive modulation in [0.15, 1.0]; drives both pixels and audio.
    # The deep modulation makes the shared motion/loudness profile the dominant
    # cue for deciding whether a blob and a soundtrack belong together.
    freq = float(rng.choice([1.0, 2.0, 3.0]))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    u = np.arange(n) / n
    return 0.15 + 0.85 * 0.5 * (1.0 + np.sin(2 * np.pi * freq * u + phase))


def _blob_mask(category, height, width, cy, cx):
    yy, xx = np.mgrid[0:height, 0:width]
    dy, dx = yy - cy, xx - cx
    if category % 4 == 0:
        return (np.abs(dy) <= 2) & (np.abs(dx) <= 2)
    if category % 4 == 1:
        return dy * dy + dx * dx <= 11
    if category % 4 == 2:
        return np.abs(dy) + np.abs(dx) <= 4
    return ((np.abs(dy) <= 1) & (np.abs(dx) <= 4)) | ((np.abs(dx) <= 1) & (np.abs(dy) <= 4))


def _blob_track(category, rng, config, avoid=()):
    # per-category motion style; kept inside a margin so boxes stay in frame,
    # and away from already-placed blobs so objects never overlap
    h, w, n = config.frame_height, config.frame_width, config.frames_per_clip
    margin = 6
    # crowded frames get a slightly smaller exclusion radius, otherwise three
    # centers rarely fit inside the margin box; 10 px still keeps the largest
    # blob pair from touching
    min_dist = 12 if len(avoid) <= 1 else 10
    for _ in range(40):
        cy = int(rng.integers(margin, h - margin))
        cx = int(rng.integers(margin, w - margin))
        if all((cy - oy) ** 2 + (cx - ox) ** 2 >= min_dist ** 2 for oy, ox in avoid):
            break
    t = np.arange(n)
    # keep the wander under half a heatmap cell: localization targets are
    # per-frame boxes while models emit one map per clip, so larger motion
    # just misaligns the shared map from the early-frame masks
    amp = 1.0
    if category % 4 == 0:
        dy, dx = np.zeros(n), amp * np.sin(2 * np.pi * t / n)
    elif category % 4 == 1:
        dy, dx = amp * np.sin(2 * np.pi * t / n), np.zeros(n)
    elif category % 4 == 2:
        dy, dx = amp * np.sin(2 * np.pi * t / n), amp * np.cos(2 * np.pi * t / n)
    else:
        dy, dx = np.zeros(n), np.zeros(n)
    ys = np.clip(np.round(cy + dy), margin, h - margin).astype(int)
    xs = np.clip(np.round(cx + dx), margin, w - margin).astype(int)
    return ys, xs


def audio_template(category, mel_bins):
    """Fixed spectral signature per category.

    Signatures differ in bump count, width, and level -- not merely in which
    bins they occupy. A mel-translation-invariant listener (e.g. a conv
    encoder that mean-pools the mel axis) can therefore still tell them
    apart by the distribution of spectral values, where translated copies
    of one bump shape would be indistinguishable.
    """
    bins = np.arange(mel_bins)
    bump = lambda c, a, w: a * np.exp(-0.5 * ((bins - c) / w) ** 2)
    k = category % 4
    shift = 2 * (category // 4)  # extra categories reuse the shapes, shifted
    if k == 0:      # one tall narrow peak
        return bump((3 + shift) % mel_bins, 1.0, 0.8)
    if k == 1:      # two medium peaks
        return (bump((6 + shift) % mel_bins, 0.7, 0.8)
                + bump((12 + shift) % mel_bins, 0.7, 0.8))
    if k == 2:      # comb of four small peaks
        return sum(bump((1 + 4 * j + shift) % mel_bins, 0.5, 0.6) for j in range(4))
    # broadband hum
    return bump((8 + shift) % mel_bins, 0.45, 4.0)


def _render_blob(video, mask, frame_idx, intensity):
    frame = video[frame_idx, :, :, 0]
    frame[mask] = np.maximum(frame[mask], intensity)


def _box_from_mask(mask, width, height, sounding, category, pad=1.0):
    ys, xs = np.nonzero(mask)
    return BoundingBox(
        x_min=float(max(0, xs.min() - pad)),
        y_min=float(max(0, ys.min() - pad)),
        x_max=float(min(width, xs.max() + 1 + pad)),
        y_max=float(min(height, ys.max() + 1 + pad)),
        sounding=sounding, out_of_view=False, category=f"cat{category}",
    )


def generate_clip(category: int, pattern: FrameClass, rng, config: GeneratorConfig,
                  clip_id: str = "clip") -> ClipSample:
    """One synthetic clip realizing the requested frame-class scenario."""
    if not 0 <= category < config.num_categories:
        raise GeneratorError(f"category {category} out of range")
    h, w = config.frame_height, config.frame_width
    n_frames = config.frames_per_clip
    video = 0.05 * rng.random((n_frames, h, w, 1))
    logmel = NOISE_AMPLITUDE * rng.random((config.mel_bins, n_frames))
    frames = []
    labels: tuple = ()

    blobs = []  # (category, ys, xs, envelope | None, sounding)
    is_ave = pattern in (FrameClass.AVE_SINGLE, FrameClass.AVE_MULTI)
    if is_ave or pattern is FrameClass.NON_AVE_VISIBLE:
        env = _envelope(rng, n_frames) if is_ave else None
        blobs.append((category, *_blob_track(category, rng, config), env, is_ave))
    if pattern is FrameClass.AVE_MULTI:
        if rng.random() < MULTI_SAME_CATEGORY_FRACTION:
            cat2 = category
        else:
            cat2 = int((category + 1 + rng.integers(config.num_categories - 1))
                       % config.num_categories)
        taken = [(ys[0], xs[0]) for _, ys, xs, _, _ in blobs]
        blobs.append((cat2, *_blob_track(cat2, rng, config, avoid=taken),
                      _envelope(rng, n_frames), True))
    ambient = None  # (category, amplitude): off-screen sound source
    if is_ave:
        # silent clutter objects of unrelated categories that pulse in sync
        # with the soundtrack: saliency and motion-envelope matching both tie
        # between them and the sounding blob, so telling them apart requires
        # associating the spectral signature with the right object category
        sounding_cats = {cat for cat, _, _, _, snd in blobs if snd}
        free = [k for k in range(config.num_categories) if k not in sounding_cats]
        if rng.random() < config.distractor_fraction:
            # an unused draw, kept: without it every later draw of the
            # stream would shift, and so would every dataset
            rng.random()
            if free:
                cat_d = free[int(rng.integers(len(free)))]
                taken = [(ys[0], xs[0]) for _, ys, xs, _, _ in blobs]
                blobs.append((cat_d, *_blob_track(cat_d, rng, config, avoid=taken),
                              blobs[0][3], False))
                if rng.random() < AMBIENT_FRACTION:
                    # a quieter off-screen source in the clutter object's
                    # category: the soundtrack now carries that category's
                    # signature even though the visible blob of the category
                    # is not the source, so raw correspondence points at the
                    # wrong object and only the in-view event labels resolve
                    # the ambiguity
                    ambient = (cat_d, AMBIENT_AMPLITUDE)

    def sound(cat, env, amp=1.0):
        logmel[...] += amp * np.outer(audio_template(cat, config.mel_bins), env)

    for cat, ys, xs, env, snd in blobs:
        if env is not None and snd:
            sound(cat, env)
    if ambient is not None:
        sound(ambient[0], blobs[0][3], ambient[1])
    if pattern is FrameClass.NON_AVE_AUDIBLE:
        sound(category, _envelope(rng, n_frames))

    for t in range(n_frames):
        boxes = []
        for cat, ys, xs, env, snd in blobs:
            mask = _blob_mask(cat, h, w, ys[t], xs[t])
            intensity = 0.7 if env is None else float(0.9 * env[t])
            _render_blob(video, mask, t, intensity)
            boxes.append(_box_from_mask(mask, w, h, snd, cat))
        if pattern is FrameClass.NON_AVE_AUDIBLE:
            boxes.append(BoundingBox(0.0, 0.0, float(w), float(h), sounding=True,
                                     out_of_view=True, category=f"cat{category}"))
        frames.append(FrameAnnotation(video_id=clip_id, frame_index=t,
                                      width=w, height=h, boxes=tuple(boxes)))

    if is_ave:
        labels = tuple(sorted({cat for cat, _, _, _, snd in blobs if snd}))
    video = np.clip(video, 0.0, 1.0)
    return ClipSample(clip_id=clip_id, video=video, logmel=logmel, labels=labels,
                      frames=tuple(frames), pattern=pattern, avc_positive=True)


def _clip_rng(seed, split, clip_index):
    return np.random.default_rng(np.random.SeedSequence((seed, SPLITS.index(split), clip_index)))


def make_negative_pair(positive: ClipSample, pool, rng) -> ClipSample:
    """Same video, the audio of a uniformly drawn different clip, AVC label no."""
    donors = [c for c in pool if c.clip_id != positive.clip_id]
    if not donors:
        raise GeneratorError("pool too small to form a negative pair")
    donor = donors[int(rng.integers(len(donors)))]
    return replace(positive, logmel=donor.logmel, avc_positive=False)


# ---------------------------------------------------------------------------
# on-disk dataset: clip tensors (AVCL), JSON-lines annotations, JSON manifest.
# A clip's labels live only in the manifest.

CLIP_MAGIC = b"AVCL"
CLIP_VERSION = 2


def write_clip(path, clip: ClipSample):
    with Writer(path, CLIP_MAGIC, CLIP_VERSION) as out:
        out.pack("4H", *clip.video.shape)
        out.array(clip.video, "<f4")
        out.pack("2H", *clip.logmel.shape)
        out.array(clip.logmel, "<f4")


def read_clip(path):
    """Returns (video, logmel) as float64 arrays."""
    reader = Reader(path, CLIP_MAGIC, CLIP_VERSION, "clip file")
    video = reader.array("<f4", reader.unpack("4H"), "video value")
    logmel = reader.array("<f4", reader.unpack("2H"), "log-mel value")
    reader.end("the log-mel grid")
    return video, logmel


def generate_dataset(config: GeneratorConfig, out_dir) -> dict:
    """Write all splits plus manifest; returns the manifest dict."""
    out = Path(out_dir)
    (out / "clips").mkdir(parents=True, exist_ok=True)
    patterns = list(FrameClass)  # fixed draw order
    probs = np.array([config.class_probs.get(p.value, 0.0) for p in patterns])

    manifest = {
        "config": asdict(config),
        "config_sha256": config.content_hash(),
        "seed": config.seed,
        "splits": {},
        "class_counts": {},
    }
    for split in SPLITS:
        n_clips = config.clips_per_split.get(split, 0)
        (out / "clips" / split).mkdir(parents=True, exist_ok=True)
        clip_records = []
        counts = {p.value: 0 for p in patterns}
        frames = []
        for k in range(n_clips):
            rng = _clip_rng(config.seed, split, k)
            pattern = patterns[int(rng.choice(len(patterns), p=probs))]
            category = int(rng.integers(config.num_categories))
            clip_id = f"{split}{k:04d}"
            clip = generate_clip(category, pattern, rng, config, clip_id=clip_id)
            write_clip(out / "clips" / split / f"{clip_id}.avcl", clip)
            frames.extend(clip.frames)
            counts[pattern.value] += 1
            clip_records.append({"id": clip_id, "pattern": pattern.value,
                                 "labels": list(clip.labels)})
        index = DatasetIndex.from_frames(frames)
        (out / f"annotations_{split}.jsonl").write_bytes(serialize_annotations(index))
        manifest["splits"][split] = clip_records
        manifest["class_counts"][split] = counts

    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _clip_record(record, where):
    """(id, pattern, labels) of one manifest clip record; `where` names it in errors."""
    if not isinstance(record, dict):
        raise GeneratorError(f"{where} is not an object")
    clip_id, pattern, labels = (record.get(key) for key in ("id", "pattern", "labels"))
    if not isinstance(clip_id, str):
        raise GeneratorError(f"{where}: 'id' must be a string, got {clip_id!r}")
    if pattern not in [p.value for p in FrameClass]:  # a list: the value may be unhashable
        raise GeneratorError(f"{where}: unknown 'pattern' {pattern!r}")
    if not (isinstance(labels, list)
            and all(isinstance(k, int) and not isinstance(k, bool) for k in labels)):
        raise GeneratorError(f"{where}: 'labels' must be a list of integers, got {labels!r}")
    return clip_id, FrameClass(pattern), tuple(labels)


def load_split(dataset_dir, split) -> list:
    """Reconstruct ClipSamples for one split from the files on disk."""
    root = Path(dataset_dir)
    path = root / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise GeneratorError(f"{path}: not a JSON manifest: {exc}") from None
    splits = manifest.get("splits") if isinstance(manifest, dict) else None
    if not isinstance(splits, dict):
        raise GeneratorError(f"{path}: 'splits' must be an object")
    if split not in splits:
        raise GeneratorError(f"{path}: split {split!r} not present in manifest")
    if not isinstance(splits[split], list):
        raise GeneratorError(f"{path}: split {split!r} must be a list of clip records")
    annotations = root / f"annotations_{split}.jsonl"
    try:
        index = parse_annotations(annotations.read_bytes())
    except AnnotationError as exc:
        raise AnnotationError(f"{annotations}: {exc}") from None
    by_video = {}
    for frame in index.frames:
        by_video.setdefault(frame.video_id, []).append(frame)
    clips = []
    for k, record in enumerate(splits[split]):
        clip_id, pattern, labels = _clip_record(record, f"{path}: split {split!r} record {k}")
        video, logmel = read_clip(root / "clips" / split / f"{clip_id}.avcl")
        clips.append(ClipSample(
            clip_id=clip_id, video=video, logmel=logmel, labels=labels,
            frames=tuple(by_video.get(clip_id, ())), pattern=pattern, avc_positive=True))
    return clips
