import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from avsol.annotation import FrameClass, classify_frame, parse_annotations
from avsol.binfile import FormatError
from avsol.synth import (GeneratorConfig, GeneratorError, generate_clip,
                         generate_dataset, load_split, make_negative_pair,
                         read_clip, write_clip)


def clip_rng(seed, split_index, clip_index):
    return np.random.default_rng(np.random.SeedSequence((seed, split_index, clip_index)))


class TestConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(GeneratorError, match="sum to 1"):
            GeneratorConfig(class_probs={"ave_single": 0.5})

    def test_distractor_fraction_bounds(self):
        with pytest.raises(GeneratorError, match=r"distractor_fraction must lie in \[0, 1\]"):
            GeneratorConfig(distractor_fraction=1.5)

    def test_dict_round_trip_and_stable_hash(self):
        config = GeneratorConfig(seed=7, num_categories=3)
        again = GeneratorConfig(**json.loads(json.dumps(asdict(config))))
        assert again == config
        assert again.content_hash() == config.content_hash()
        assert GeneratorConfig(seed=8).content_hash() != config.content_hash()


class TestGenerateClip:
    # clutter-free so blob geometry assertions see a single object
    config = GeneratorConfig(distractor_fraction=0.0)

    def test_noise_clip_has_no_boxes(self):
        clip = generate_clip(0, FrameClass.NON_AVE_NOISE, clip_rng(0, 0, 0), self.config)
        assert all(len(f.boxes) == 0 for f in clip.frames)
        assert clip.labels == ()

    def test_single_clip_box_tightly_bounds_blob(self):
        clip = generate_clip(1, FrameClass.AVE_SINGLE, clip_rng(0, 0, 1), self.config)
        for t, frame in enumerate(clip.frames):
            assert len(frame.boxes) == 1
            box = frame.boxes[0]
            assert box.sounding and not box.out_of_view
            ys, xs = np.nonzero(clip.video[t, :, :, 0] > 0.1)
            assert box.x_min == max(0, xs.min() - 1)
            assert box.y_min == max(0, ys.min() - 1)
            assert box.x_max == min(self.config.frame_width, xs.max() + 2)
            assert box.y_max == min(self.config.frame_height, ys.max() + 2)

    def test_same_stream_is_bit_identical(self):
        a = generate_clip(2, FrameClass.AVE_MULTI, clip_rng(3, 1, 5), self.config)
        b = generate_clip(2, FrameClass.AVE_MULTI, clip_rng(3, 1, 5), self.config)
        assert np.array_equal(a.video, b.video)
        assert np.array_equal(a.logmel, b.logmel)
        assert a.frames == b.frames
        assert a.labels == b.labels

    @pytest.mark.parametrize("pattern", list(FrameClass))
    def test_frames_classify_as_requested(self, pattern):
        # clutter on: silent distractor blobs must not change the frame class
        config = GeneratorConfig(distractor_fraction=0.75)
        for k in range(5):
            clip = generate_clip(k % 4, pattern, clip_rng(1, 0, k), config)
            assert clip.pattern is pattern
            for frame in clip.frames:
                assert classify_frame(frame) is pattern

    def test_distractor_blob_is_silent_and_unlabeled(self):
        config = GeneratorConfig(distractor_fraction=1.0)
        clip = generate_clip(1, FrameClass.AVE_SINGLE, clip_rng(4, 0, 0), config)
        assert clip.labels == (1,)
        for frame in clip.frames:
            sounding = [b for b in frame.boxes if b.sounding]
            silent = [b for b in frame.boxes if not b.sounding]
            assert len(sounding) == 1 and len(silent) == 1
            assert silent[0].category != sounding[0].category

    def test_audible_clip_has_dark_frames_and_loud_audio(self):
        clip = generate_clip(3, FrameClass.NON_AVE_AUDIBLE, clip_rng(0, 0, 9), self.config)
        assert clip.video.max() <= 0.05
        quiet = generate_clip(3, FrameClass.NON_AVE_NOISE, clip_rng(0, 0, 9), self.config)
        assert clip.logmel.max() > 4 * quiet.logmel.max()

    def test_blob_region_correlates_with_audio_energy(self):
        # sounding blob pixels must be the only region tracking the audio
        # envelope, otherwise localization could not be learned from pairing
        config = self.config
        for k in range(6):
            clip = generate_clip(k % 4, FrameClass.AVE_SINGLE, clip_rng(2, 0, k), config)
            energy = clip.logmel.sum(axis=0)
            pixels = clip.video[:, :, :, 0].reshape(config.frames_per_clip, -1)
            centered = pixels - pixels.mean(axis=0)
            e = energy - energy.mean()
            denom = np.sqrt((centered ** 2).sum(axis=0) * (e ** 2).sum()) + 1e-12
            corr = (centered * e[:, None]).sum(axis=0) / denom

            union = np.zeros((config.frame_height, config.frame_width), dtype=bool)
            core = np.ones_like(union)
            for t, frame in enumerate(clip.frames):
                blob = clip.video[t, :, :, 0] > 0.1
                union |= blob
                core &= blob
            assert core.any()
            corr = corr.reshape(config.frame_height, config.frame_width)
            assert (corr[core] > 0.9).all()
            assert (corr[~union] > 0.9).mean() < 0.05


class TestNegativePair:
    def make_pool(self, n):
        config = GeneratorConfig()
        return [generate_clip(k % 4, FrameClass.AVE_SINGLE, clip_rng(5, 0, k),
                              config, clip_id=f"c{k}") for k in range(n)]

    def test_two_clip_pool_forces_the_other_donor(self):
        pool = self.make_pool(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            neg = make_negative_pair(pool[0], pool, rng)
            assert np.array_equal(neg.logmel, pool[1].logmel)
            assert not neg.avc_positive

    def test_video_is_untouched(self):
        pool = self.make_pool(3)
        neg = make_negative_pair(pool[0], pool, np.random.default_rng(1))
        assert np.array_equal(neg.video, pool[0].video)
        assert neg.clip_id == pool[0].clip_id

    def test_donor_frequency_is_uniform(self):
        pool = self.make_pool(10)
        rng = np.random.default_rng(2)
        counts = {}
        for _ in range(1000):
            neg = make_negative_pair(pool[0], pool, rng)
            donor = next(c.clip_id for c in pool if np.array_equal(c.logmel, neg.logmel))
            counts[donor] = counts.get(donor, 0) + 1
        assert set(counts) == {c.clip_id for c in pool[1:]}
        for n in counts.values():
            assert abs(n / 1000 - 1 / 9) <= 0.05

    def test_singleton_pool_rejected(self):
        pool = self.make_pool(1)
        with pytest.raises(GeneratorError):
            make_negative_pair(pool[0], pool, np.random.default_rng(0))


class TestClipFile:
    def test_round_trip(self, tmp_path):
        clip = generate_clip(2, FrameClass.AVE_MULTI, clip_rng(0, 0, 3), GeneratorConfig())
        path = tmp_path / "clip.avcl"
        write_clip(path, clip)
        video, logmel = read_clip(path)
        assert np.array_equal(video, clip.video.astype(np.float32).astype(np.float64))
        assert np.array_equal(logmel, clip.logmel.astype(np.float32).astype(np.float64))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.avcl"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="not a clip file"):
            read_clip(path)


def tree_hashes(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestDataset:
    small = GeneratorConfig(clips_per_split={"train": 12, "val": 4, "test": 4}, seed=3)

    def test_layout_annotations_and_manifest(self, tmp_path):
        manifest = generate_dataset(self.small, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        for split, n in self.small.clips_per_split.items():
            files = list((tmp_path / "clips" / split).glob("*.avcl"))
            assert len(files) == n
            index = parse_annotations((tmp_path / f"annotations_{split}.jsonl").read_bytes())
            assert len({f.video_id for f in index.frames}) <= n
        assert manifest["config_sha256"] == self.small.content_hash()

    def test_identical_regeneration(self, tmp_path):
        generate_dataset(self.small, tmp_path / "a")
        generate_dataset(self.small, tmp_path / "b")
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")

    def test_class_counts_match_clip_records_and_annotations(self, tmp_path):
        probs = {"ave_single": 0.5, "ave_multi": 0.1, "non_ave_visible": 0.2,
                 "non_ave_audible": 0.1, "non_ave_noise": 0.1}
        config = GeneratorConfig(clips_per_split={"train": 100, "val": 0, "test": 0},
                                 class_probs=probs, seed=11)
        manifest = generate_dataset(config, tmp_path)
        counts = manifest["class_counts"]["train"]
        assert sum(counts.values()) == 100
        # the mix should be near the requested probabilities
        assert abs(counts["ave_single"] / 100 - 0.5) < 0.2
        # recount from the per-clip records and from the annotations themselves
        from_records = {c.value: 0 for c in FrameClass}
        for record in manifest["splits"]["train"]:
            from_records[record["pattern"]] += 1
        assert from_records == counts
        index = parse_annotations((tmp_path / "annotations_train.jsonl").read_bytes())
        by_video = {}
        for frame in index.frames:
            by_video.setdefault(frame.video_id, []).append(frame)
        from_frames = {c.value: 0 for c in FrameClass}
        for frames in by_video.values():
            classes = {classify_frame(f) for f in frames}
            assert len(classes) == 1
            from_frames[classes.pop().value] += 1
        # noise/audible clips have no boxes but still appear in the annotations
        assert sum(from_frames.values()) == 100
        assert from_frames == counts

    def test_load_split_reconstructs_clips(self, tmp_path):
        manifest = generate_dataset(self.small, tmp_path)
        clips = load_split(tmp_path, "val")
        assert len(clips) == 4
        for clip, record in zip(clips, manifest["splits"]["val"]):
            assert clip.clip_id == record["id"]
            assert list(clip.labels) == record["labels"]
            assert clip.pattern.value == record["pattern"]
            assert clip.video.shape == (8, 24, 24, 1)
            assert len(clip.frames) == 8

    def test_unknown_split_rejected(self, tmp_path):
        generate_dataset(self.small, tmp_path)
        with pytest.raises(GeneratorError, match="split"):
            load_split(tmp_path, "extra")
