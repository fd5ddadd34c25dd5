import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from avsol import gradcheck as gc
from avsol import tensor as T
from avsol.annotation import FrameClass
from avsol import dnm
from avsol.dnm import (ConfigError, DnmModel, ModelConfig, ModelOutput,
                       avc_target, classification_loss, label_vector, multitask_loss,
                       predict_heatmaps, train)
from avsol.synth import GeneratorConfig, generate_clip, make_negative_pair


def tiny(**overrides):
    return dataclasses.replace(gc.tiny_config(), **overrides)


random_inputs = gc.random_inputs


class TestConfig:
    def test_divisibility_enforced(self):
        # the grid must tile the frame, checked when the model sees a clip
        rng = np.random.default_rng(0)
        model = DnmModel(tiny(grid_w=4), seed=0)
        with pytest.raises(ConfigError, match=r"clip shape \(2, 6, 6, 1\) and log-mel shape "
                                              r"\(6, 2\) do not fit the model's 3x4 grid"):
            model.forward(*random_inputs(rng))
        # 12x12 frames fit the same 3x3 grid
        out = DnmModel(tiny(), seed=0).forward(*random_inputs(rng, size=12))
        assert out.m_loc.shape == (9,)

    def test_log_mel_needs_one_step_per_frame(self):
        rng = np.random.default_rng(1)
        clip, _ = random_inputs(rng, frames=2)
        model = DnmModel(tiny(), seed=0)
        for logmel in (rng.random((6, 3)), rng.random((6, 1)), rng.random(6)):
            with pytest.raises(ConfigError, match=r"log-mel shape \(6"):
                model.forward(clip, logmel)

    @pytest.mark.parametrize("clip_shape", [(2, 6, 6), (2, 6, 6, 3), (0, 6, 6, 1),
                                            (2, 0, 6, 1), (2, 6, 7, 1)])
    def test_clip_must_be_frames_of_one_channel_tiled_by_the_grid(self, clip_shape):
        model = DnmModel(tiny(), seed=0)
        with pytest.raises(ConfigError, match=r"it needs a clip \(T, H, W, 1\)"):
            model.forward(np.zeros(clip_shape), np.zeros((6, clip_shape[0])))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigError, match="fusion"):
            tiny(fusion="other")
        with pytest.raises(ConfigError, match="grid_w must be >= 1"):
            tiny(grid_w=0)

    def test_nine_architecture_fields(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "grid_w", "grid_h", "feature_dim", "cls_feature_dim", "num_categories",
            "visual_channels", "audio_channels", "fusion", "mode"]

    def test_json_round_trip(self):
        import json
        config = tiny(fusion="static", mode="avc")
        assert ModelConfig(**json.loads(json.dumps(dataclasses.asdict(config)))) == config


class TestEncoders:
    def test_zero_spectrogram_gives_zero_audio_features(self):
        model = DnmModel(tiny(), seed=0)
        a = model.encode_audio(np.zeros((6, 2)))
        # zero biases plus odd nonlinearity keep the zero fixed point
        assert np.array_equal(a.data, np.zeros((2, 4)))

    def test_horizontal_flip_equivariance_with_mirror_symmetric_kernels(self):
        model = DnmModel(tiny(), seed=1)
        for w in (model.v_conv1_w, model.v_conv2_w):  # 3x3 over space
            w.data = w.data + w.data[..., ::-1]
        rng = np.random.default_rng(1)
        clip, _ = random_inputs(rng)
        v, _ = model.encode_visual(clip)
        v_flip, _ = model.encode_visual(clip[:, :, ::-1, :].copy())
        assert np.allclose(v_flip.data, v.data[:, :, :, ::-1], atol=1e-12)

    def test_time_shift_equivariance_with_pointwise_kernels(self):
        # the default kernels span mel bins, never time: along time they are
        # pointwise, so a circular shift of the steps commutes with the encoder
        model = DnmModel(tiny(), seed=2)
        assert model.a_conv1_w.shape[3] == model.a_conv2_w.shape[3] == 1
        rng = np.random.default_rng(2)
        _, logmel = random_inputs(rng, frames=4)
        a = model.encode_audio(logmel)
        a_shift = model.encode_audio(np.roll(logmel, 1, axis=1))
        assert np.allclose(a_shift.data, np.roll(a.data, 1, axis=0), atol=1e-12)

    def test_feature_shapes(self):
        config = tiny()
        model = DnmModel(config, seed=3)
        rng = np.random.default_rng(3)
        clip, logmel = random_inputs(rng)
        v, v_cls = model.encode_visual(clip)
        a = model.encode_audio(logmel)
        assert v.shape == (2, 4, 3, 3)
        assert v_cls.shape == (9, 3)
        assert a.shape == (2, 4)


class TestFusion:
    def test_zero_audio_gives_zero_static_map(self):
        config = tiny()
        model = DnmModel(config, seed=4)
        rng = np.random.default_rng(4)
        clip, _ = random_inputs(rng)
        v, _ = model.encode_visual(clip)
        m = model.static_fusion(v, T.Tensor(np.zeros((2, 4))))
        assert np.array_equal(m.data, np.zeros(9))

    def test_static_fusion_matches_triple_loop(self):
        config = tiny(grid_w=2, grid_h=2, feature_dim=2, fusion="static")
        model = DnmModel(config, seed=5)
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 2, 2, 2))
        a = rng.normal(size=(3, 2))
        got = model.static_fusion(T.Tensor(v), T.Tensor(a)).data
        a_c = [[a[t, d] - sum(a[u, d] for u in range(3)) / 3 for d in range(2)]
               for t in range(3)]
        a_norm = sum(x * x for row in a_c for x in row) ** 0.5
        for i in range(4):
            r, c = divmod(i, 2)
            v_c = [[v[t, d, r, c] - sum(v[u, d, r, c] for u in range(3)) / 3
                    for d in range(2)] for t in range(3)]
            v_norm = sum(x * x for row in v_c for x in row) ** 0.5
            dot = 0.0
            for t in range(3):
                for d in range(2):
                    dot += v_c[t][d] * a_c[t][d]
            assert got[i] == pytest.approx(dot / (v_norm * a_norm), rel=1e-12)

    def test_static_map_ignores_audio_gain_and_offset(self):
        config = tiny()
        model = DnmModel(config, seed=10)
        rng = np.random.default_rng(10)
        v = T.Tensor(rng.normal(size=(2, 4, 3, 3)))
        a = rng.normal(size=(2, 4))
        base = model.static_fusion(v, T.Tensor(a)).data
        moved = model.static_fusion(v, T.Tensor(3.0 * a + rng.normal(size=4))).data
        assert np.allclose(moved, base, atol=1e-12)
        assert np.all(np.abs(base) <= 1.0 + 1e-12)

    def test_single_step_recurrence_matches_hand_composed_cell(self):
        model = DnmModel(tiny(), seed=6)
        rng = np.random.default_rng(6)
        v = rng.normal(size=(1, 4, 3, 3))
        a = rng.normal(size=(1, 4))
        got = model.dynamic_fusion(T.Tensor(v), T.Tensor(a)).data

        # zero initial state: reset has no effect and h1 = update * candidate,
        # with each gate seeing only the input half of its kernel; the audio
        # GRU's 1x1 kernels act as (D, D) matrices
        def half(w):
            return T.Tensor(w.data[:, :4])

        def half_matrix(w):
            return T.Tensor(w.data[:, :4, 0, 0])

        x = T.Tensor(v[0])
        zc = T.sigmoid(T.conv2d(x, half(model.cgru_update_w), model.cgru_update_b))
        nc = T.tanh(T.conv2d(x, half(model.cgru_cand_w), model.cgru_cand_b))
        hv = (zc.data * nc.data).reshape(4, 9)

        xa = T.Tensor(a[0])
        za = T.sigmoid(T.matmul(half_matrix(model.gru_update_w), xa) + model.gru_update_b)
        na = T.tanh(T.matmul(half_matrix(model.gru_cand_w), xa) + model.gru_cand_b)
        ha = za.data * na.data

        expected = (hv.T @ ha) / (np.linalg.norm(hv, axis=0) * np.linalg.norm(ha))
        assert np.allclose(got, expected, atol=1e-12)

    def test_recurrent_parameter_gradients(self):
        config = tiny()
        model = DnmModel(config, seed=7)
        rng = np.random.default_rng(7)
        v = rng.normal(size=(2, 4, 3, 3))
        a = rng.normal(size=(2, 4))
        w = T.Tensor(rng.uniform(0.5, 1.5, size=9))
        gru_params = [p for p in model.parameters() if "gru" in p.name]
        for p in gru_params:
            p.data = p.data + rng.uniform(-0.05, 0.05, size=p.data.shape)

        def fn(_):
            return T.mean(model.dynamic_fusion(T.Tensor(v), T.Tensor(a)) * w)

        assert T.grad_check(fn, gru_params) <= 1e-4

    def test_cdf_is_the_elementwise_product(self):
        config = tiny()
        model = DnmModel(config, seed=8)
        model.sim_bias.data = np.array([0.3])
        out = model.forward(*random_inputs(np.random.default_rng(8)))
        product = out.m_static.data * out.m_dynamic.data
        expected = model.sim_scale.data * product + model.sim_bias.data
        assert np.array_equal(out.similarity.data, expected)

    def test_all_ones_dynamic_path_reduces_cdf_to_static(self, monkeypatch):
        config = tiny()
        model = DnmModel(config, seed=9)
        model.sim_bias.data = np.array([0.3])
        monkeypatch.setattr(model, "dynamic_fusion",
                            lambda v, a: T.Tensor(np.ones(9)))
        out = model.forward(*random_inputs(np.random.default_rng(9)))
        expected = model.sim_scale.data * out.m_static.data + model.sim_bias.data
        assert np.array_equal(out.similarity.data, expected)


class TestHeads:
    def test_zero_similarity_gives_half_everywhere(self):
        m_loc, z = DnmModel.local_normalize(T.Tensor(np.zeros(9)))
        assert np.array_equal(m_loc.data, np.full(9, 0.5))
        assert z.item() == 0.5

    def test_avc_score_gradient_flows_through_the_peak_cell_only(self):
        s = T.Tensor(np.array([0.1, -0.4, 0.9, 0.3]), requires_grad=True)
        _, z = DnmModel.local_normalize(s)
        T.backward(z)
        sig = 1 / (1 + np.exp(-0.9))
        expected = np.zeros(4)
        expected[2] = sig * (1 - sig)
        assert np.allclose(s.grad, expected, atol=1e-12)

    def test_constant_similarity_gives_uniform_attention(self):
        model = DnmModel(tiny(), seed=10)
        rng = np.random.default_rng(10)
        v_cls = T.Tensor(rng.normal(size=(9, 3)))
        w_att, v_att, _ = model.global_attend(T.Tensor(np.full(9, 1.7)), v_cls)
        assert np.allclose(w_att.data, 1 / 9, atol=1e-12)
        assert np.allclose(v_att.data, v_cls.data.mean(axis=0), atol=1e-12)

    def test_shift_invariance_of_class_logits(self):
        model = DnmModel(tiny(), seed=11)
        rng = np.random.default_rng(11)
        s = rng.normal(size=9)
        v_cls = T.Tensor(rng.normal(size=(9, 3)))
        _, _, logits = model.global_attend(T.Tensor(s), v_cls)
        _, _, shifted = model.global_attend(T.Tensor(s + 3.7), v_cls)
        assert np.allclose(shifted.data, logits.data, atol=1e-9)

    def test_forward_shape_contract_default_config(self):
        model = DnmModel(ModelConfig(), seed=12)
        rng = np.random.default_rng(12)
        out = model.forward(*random_inputs(rng, frames=8, size=24, mel_bins=16))
        assert out.m_loc.shape == (36,)
        assert out.w_att.shape == (36,)
        assert out.class_logits.shape == (4,)
        assert out.z_avc.item() == out.m_loc.data.max()

    def test_heatmap_source_depends_on_mode(self):
        rng = np.random.default_rng(13)
        for mode, attr in (("dnm", "m_loc"), ("avc", "m_loc"), ("cls", "w_att")):
            config = tiny(mode=mode)
            model = DnmModel(config, seed=14)
            out = model.forward(*random_inputs(rng))
            hm = model.localization_heatmap(out)
            assert hm.values.shape == (3, 3)
            assert np.array_equal(hm.values.ravel(), getattr(out, attr).data)


class TestLoss:
    @staticmethod
    def fake_output(z, probs):
        def logit(p):
            p = np.asarray(p, dtype=np.float64)
            return np.log(p / (1 - p))

        t = T.Tensor(np.float64(z))
        return ModelOutput(similarity=T.Tensor(logit([z])), m_static=t, m_dynamic=None,
                           m_loc=t, z_avc=T.Tensor(np.float64(z)),
                           w_att=t, v_att=t, class_logits=T.Tensor(logit(probs)))

    def test_hand_computed_fixture(self):
        out = self.fake_output(0.8, [0.9, 0.2])
        loss = multitask_loss(out, 1, np.array([1.0, 0.0]))
        expected = -np.log(0.8) - np.log(0.9) - np.log(0.8)
        assert loss.item() == pytest.approx(expected, rel=1e-9)
        assert loss.item() == pytest.approx(0.5516, abs=5e-5)

    def test_perfect_predictions_drive_loss_to_zero(self):
        out = self.fake_output(1 - 1e-9, [1 - 1e-9, 1e-9])
        loss = multitask_loss(out, 1, np.array([1.0, 0.0]))
        assert loss.item() < 1e-6

    def test_negative_pair_uses_only_the_avc_term(self):
        out = self.fake_output(0.3, [0.9, 0.2])
        loss = multitask_loss(out, 0)
        assert loss.item() == pytest.approx(-np.log(0.7), rel=1e-9)

    def test_invalid_labels_rejected(self):
        out = self.fake_output(0.5, [0.5, 0.5])
        with pytest.raises(ValueError):
            multitask_loss(out, 2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="class_label"):
            multitask_loss(out, 1)

    def test_negative_pair_gives_zero_classification_gradients(self):
        config = tiny()
        model = DnmModel(config, seed=15)
        rng = np.random.default_rng(15)
        loss = multitask_loss(model.forward(*random_inputs(rng)), 0)
        T.backward(loss)
        for p in model.classification_parameters():
            assert p.grad is None or not p.grad.any()
        # the correspondence path did receive gradient
        assert model.v_conv1_w.grad is not None
        assert model.v_conv1_w.grad.any()

    def test_saturated_similarity_trains(self):
        # with the scale at 1e3 some cells' sigmoid is exactly 1.0 in float64
        config = tiny()
        model = DnmModel(config, seed=16)
        model.sim_scale.data = np.full(1, 1e3)
        rng = np.random.default_rng(16)
        for avc_label in (1, 0):
            out = model.forward(*random_inputs(rng))
            assert np.abs(out.similarity.data).max() > 40.0
            assert out.m_loc.data.max() == 1.0 or out.m_loc.data.min() == 0.0
            loss = multitask_loss(out, avc_label, np.array([1.0, 0.0]))
            T.backward(loss)
            assert np.isfinite(loss.item())
            for p in model.parameters():
                assert p.grad is None or np.all(np.isfinite(p.grad)), p.name

    def test_label_vector(self):
        assert np.array_equal(label_vector((0, 2), 4), [1, 0, 1, 0])

    @pytest.mark.parametrize("label", [4, -1, 1.0, "1"])
    def test_label_outside_the_categories_is_a_config_error(self, label):
        with pytest.raises(ConfigError, match=f"class label {label!r} outside the model's"):
            label_vector((0, label), 4)


def tiny_default(**overrides):
    """The default model shape with the smallest encoders, for training tests."""
    base = dict(feature_dim=4, cls_feature_dim=3, visual_channels=2, audio_channels=2)
    base.update(overrides)
    return ModelConfig(**base)


def small_clip_set(n, seed=21):
    config = GeneratorConfig()
    patterns = [FrameClass.AVE_SINGLE, FrameClass.AVE_SINGLE, FrameClass.AVE_MULTI,
                FrameClass.NON_AVE_VISIBLE]
    clips = []
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, k)))
        clips.append(generate_clip(k % 4, patterns[k % len(patterns)], rng,
                                   config, clip_id=f"clip{k:03d}"))
    return clips


class TestAvcTarget:
    @staticmethod
    def clip_of(pattern, k=0):
        rng = np.random.default_rng(np.random.SeedSequence((31, k)))
        return generate_clip(1, pattern, rng, GeneratorConfig(), clip_id=f"c{k}")

    def test_only_an_event_clip_with_its_own_audio_is_positive(self):
        events = [self.clip_of(FrameClass.AVE_SINGLE, 0), self.clip_of(FrameClass.AVE_MULTI, 1)]
        non_events = [self.clip_of(p, 2 + i) for i, p in enumerate(
            (FrameClass.NON_AVE_VISIBLE, FrameClass.NON_AVE_AUDIBLE, FrameClass.NON_AVE_NOISE))]
        rng = np.random.default_rng(0)
        for clip in events:
            assert avc_target(clip) == 1
            assert avc_target(make_negative_pair(clip, events + non_events, rng)) == 0
        for clip in non_events:
            assert clip.avc_positive  # the loader's flag is unchanged
            assert avc_target(clip) == 0

    @pytest.mark.parametrize("pattern,target", [(FrameClass.AVE_SINGLE, 1),
                                                (FrameClass.NON_AVE_NOISE, 0)])
    def test_training_loss_fits_the_target(self, pattern, target):
        clip = self.clip_of(pattern)
        model = DnmModel(tiny_default(fusion="static", mode="avc"), seed=0)
        out, loss = dnm._sample_loss(model, clip, 4)
        z = out.z_avc.item()
        expected = -np.log(z) if target else -np.log1p(-z)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_validation_scores_against_the_training_target(self):
        class Silent:  # predicts "no correspondence" for every pair
            def forward(self, video, logmel):
                return SimpleNamespace(z_avc=T.Tensor(np.array(0.0)),
                                       class_logits=T.Tensor(np.zeros(4)))

        clips = [self.clip_of(FrameClass.AVE_SINGLE, 0), self.clip_of(FrameClass.NON_AVE_NOISE, 1)]
        # only the event clip's own audio is a positive, as in training; the
        # non-event clip's own audio is a negative the silent model gets right
        assert dnm._accuracy(Silent(), clips, np.random.default_rng(0), 4)[0] == 0.75


class TestTraining:
    def test_loss_decreases_on_small_set(self):
        clips = small_clip_set(12)
        decreased = 0
        for seed in range(3):
            model = DnmModel(ModelConfig(fusion="static"), seed=seed)
            result = train(model, clips, epochs=3, seed=seed)
            losses = [r["train_loss"] for r in result.log]
            decreased += losses[-1] < losses[0]
        assert decreased >= 2

    def test_training_is_deterministic(self):
        clips = small_clip_set(6)

        def run():
            model = DnmModel(ModelConfig(fusion="static"), seed=3)
            train(model, clips, epochs=1, seed=3)
            return [p.data.copy() for p in model.parameters()]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_best_epoch_selection_restores_parameters(self):
        clips = small_clip_set(8)
        model = DnmModel(ModelConfig(fusion="static"), seed=4)
        result = train(model, clips, epochs=2, seed=4, val_clips=small_clip_set(4, seed=9))
        assert result.best_epoch in (0, 1)
        assert all("val_avc_accuracy" in r for r in result.log)

    def test_negative_step_leaves_classification_state_untouched(self, monkeypatch):
        # two event clips: the epoch runs positive, negative, positive, negative
        clips = [c for c in small_clip_set(4) if c.pattern.is_ave][:2]
        model = DnmModel(tiny_default(), seed=7)
        cls_params = model.classification_parameters()
        snapshots = []
        real_step = T.adam_step

        def recording_step(params, **kwargs):
            real_step(params, **kwargs)
            snapshots.append([(p.data.copy(), p.m.copy(), p.v.copy(), p.step_count)
                              for p in cls_params])

        monkeypatch.setattr(T, "adam_step", recording_step)
        train(model, clips, epochs=1, seed=7)
        assert len(snapshots) == 4
        after_positive, after_negative = snapshots[0], snapshots[1]
        for (d0, m0, v0, n0), (d1, m1, v1, n1) in zip(after_positive, after_negative):
            assert n0 == n1 == 1
            assert np.array_equal(d0, d1)
            assert np.array_equal(m0, m1)
            assert np.array_equal(v0, v1)

    def test_cls_mode_trains_without_negatives(self):
        clips = small_clip_set(6)
        model = DnmModel(ModelConfig(fusion="static", mode="cls"), seed=5)
        result = train(model, clips, epochs=1, seed=5)
        assert len(result.log) == 1

    def test_predict_heatmaps_covers_every_frame(self):
        clips = small_clip_set(4)
        model = DnmModel(ModelConfig(fusion="static"), seed=6)
        heatmaps = predict_heatmaps(model, clips)
        expected_keys = {(f.video_id, f.frame_index) for c in clips for f in c.frames}
        assert set(heatmaps) == expected_keys
        for hm in heatmaps.values():
            assert hm.values.shape == (6, 6)

    def test_too_few_clips_rejected(self):
        with pytest.raises(ValueError, match="two clips"):
            train(DnmModel(tiny(), seed=0), small_clip_set(1), epochs=1, seed=0)
