"""Dual-headed audio-visual localization model with static or combined dynamic fusion.

Small frame-wise conv encoders produce per-cell visual features and per-step
audio features; their per-cell correlations form one score grid that both
heads read: per-cell sigmoid + global max pooling for the correspondence (MIL)
head, and global softmax attention over a classification feature grid for
the event head. Combined dynamic fusion (cdf) multiplies that grid by the
cosine of the final states of a ConvGRU over the visual grid and a GRU over
the audio features, one `tensor.gru_cell` node per modality and time step.
Everything is built from the tensor module's registered ops, so the whole
forward pass is gradient-checkable.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .metrics import Heatmap
from .synth import make_negative_pair


class ConfigError(ValueError):
    pass


FUSIONS = ("static", "cdf")
MODES = ("avc", "cls", "dnm")


@dataclass
class ModelConfig:
    grid_w: int = 6
    grid_h: int = 6
    time_steps: int = 8
    feature_dim: int = 16
    cls_feature_dim: int = 8
    num_categories: int = 4
    visual_channels: int = 6
    audio_channels: int = 8
    visual_kernel: int = 3
    audio_kernel: int = 3
    frames_per_clip: int = 8
    frame_height: int = 24
    frame_width: int = 24
    mel_bins: int = 16
    audio_steps: int = 8
    fusion: str = "cdf"
    mode: str = "dnm"

    def __post_init__(self):
        for name in ("grid_w", "grid_h", "time_steps", "feature_dim", "cls_feature_dim",
                     "num_categories", "visual_channels", "audio_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.visual_kernel % 2 == 0 or self.audio_kernel % 2 == 0:
            raise ConfigError("kernel sizes must be odd")
        if self.frames_per_clip % self.time_steps or self.audio_steps % self.time_steps:
            raise ConfigError("time_steps must divide frames_per_clip and audio_steps")
        if self.frame_height % self.grid_h or self.frame_width % self.grid_w:
            raise ConfigError("grid must divide the frame size")

    @property
    def cells(self) -> int:
        return self.grid_w * self.grid_h

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


@dataclass
class ModelOutput:
    """Forward results; every field is a Tensor in the live graph."""
    similarity: T.Tensor        # score per cell, both heads read this
    m_static: T.Tensor
    m_dynamic: T.Tensor | None  # None in static fusion
    m_loc: T.Tensor             # sigmoid per cell
    z_avc: T.Tensor             # global max of m_loc
    w_att: T.Tensor             # softmax over cells
    v_att: T.Tensor
    class_logits: T.Tensor


class DnmModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self._params: list[T.Parameter] = []

        cfg = config
        # frame-wise kernels: visual_kernel and audio_kernel span space and mel
        # bins, never time. The clip's loudness envelope, the cue that ties a
        # soundtrack to its object, can cycle in under three frames, and two
        # stacked 3-frame convolutions would smear it over five
        kv, ka = cfg.visual_kernel, cfg.audio_kernel
        self.v_conv1_w = self._weight(rng, "v_conv1_w",
                                      (cfg.visual_channels, 1, 1, kv, kv), kv ** 2)
        self.v_conv1_b = self._zeros("v_conv1_b", (cfg.visual_channels,))
        self.v_conv2_w = self._weight(rng, "v_conv2_w",
                                      (cfg.feature_dim, cfg.visual_channels, 1, kv, kv),
                                      cfg.visual_channels * kv ** 2)
        self.v_conv2_b = self._zeros("v_conv2_b", (cfg.feature_dim,))
        # pointwise classification branch off the first visual layer. It
        # shares v_conv1 with the similarity pathway, so the classification
        # gradient does reach the encoder; only v_conv2 is kept off it
        self.cls_conv_w = self._weight(rng, "cls_conv_w",
                                       (cfg.cls_feature_dim, cfg.visual_channels, 1, 1, 1),
                                       cfg.visual_channels)
        self.cls_conv_b = self._zeros("cls_conv_b", (cfg.cls_feature_dim,))

        self.a_conv1_w = self._weight(rng, "a_conv1_w",
                                      (cfg.audio_channels, 1, ka, 1), ka)
        self.a_conv1_b = self._zeros("a_conv1_b", (cfg.audio_channels,))
        self.a_conv2_w = self._weight(rng, "a_conv2_w",
                                      (cfg.feature_dim, cfg.audio_channels, ka, 1),
                                      cfg.audio_channels * ka)
        self.a_conv2_b = self._zeros("a_conv2_b", (cfg.feature_dim,))

        self.fc_w = self._weight(rng, "fc_w", (cfg.cls_feature_dim, cfg.num_categories),
                                 cfg.cls_feature_dim)
        self.fc_b = self._zeros("fc_b", (cfg.num_categories,))

        if cfg.fusion == "cdf":
            d = cfg.feature_dim
            for gate in ("update", "reset", "cand"):
                setattr(self, f"cgru_{gate}_w",
                        self._weight(rng, f"cgru_{gate}_w", (d, 2 * d, 3, 3), 2 * d * 9))
                setattr(self, f"cgru_{gate}_b", self._zeros(f"cgru_{gate}_b", (d,)))
                setattr(self, f"gru_{gate}_w",
                        self._weight(rng, f"gru_{gate}_w", (d, 2 * d), 2 * d))
                setattr(self, f"gru_{gate}_b", self._zeros(f"gru_{gate}_b", (d,)))

        # affine calibration of the fused correlation into the score both heads
        # read: correlations lie in [-1, 1], so the scale starts at 10 to let a
        # strong match reach a confident sigmoid
        self.sim_scale = T.Parameter("sim_scale", np.full(1, 10.0))
        self._params.append(self.sim_scale)
        self.sim_bias = self._zeros("sim_bias", (1,))

    def _weight(self, rng, name, shape, fan_in):
        # uniform in +-4/sqrt(fan_in), seeded.  The fused maps are
        # correlations, so this scale does not set their size; it sets how far
        # the tanh layers start into saturation on the low-intensity inputs.
        # A gain of 2 trained to slightly lower correspondence accuracy.
        bound = 4.0 / np.sqrt(fan_in)
        p = T.Parameter(name, rng.uniform(-bound, bound, size=shape))
        self._params.append(p)
        return p

    def _zeros(self, name, shape):
        p = T.Parameter(name, np.zeros(shape))
        self._params.append(p)
        return p

    def parameters(self) -> list[T.Parameter]:
        return list(self._params)

    def classification_parameters(self) -> list[T.Parameter]:
        names = {"cls_conv_w", "cls_conv_b", "fc_w", "fc_b"}
        return [p for p in self._params if p.name in names]

    # ------------------------------------------------------------------
    # encoders

    def encode_visual(self, clip: np.ndarray):
        """clip: (frames, H, W, 1) in [0, 1] -> (v_seq, v_cls).

        v_seq: (T, D, grid_h, grid_w) preserving time; v_cls: (cells, D')
        time-pooled output of the classification branch.
        """
        cfg = self.config
        expected = (cfg.frames_per_clip, cfg.frame_height, cfg.frame_width, 1)
        if clip.shape != expected:
            raise ConfigError(f"clip shape {clip.shape} does not match the model config, "
                              f"which expects {expected}")
        x = T.Tensor(np.transpose(clip, (3, 0, 1, 2)))  # (1, frames, H, W)
        h1 = T.tanh(T.conv3d(x, self.v_conv1_w.tensor, self.v_conv1_b.tensor))
        h2 = T.tanh(T.conv3d(h1, self.v_conv2_w.tensor, self.v_conv2_b.tensor))
        tpool = cfg.frames_per_clip // cfg.time_steps
        sy = cfg.frame_height // cfg.grid_h
        sx = cfg.frame_width // cfg.grid_w
        v4 = T.avg_pool(h2, (1, tpool, sy, sx))          # (D, T, gh, gw)
        v_seq = T.transpose(v4, (1, 0, 2, 3))            # (T, D, gh, gw)

        c1 = T.tanh(T.conv3d(h1, self.cls_conv_w.tensor, self.cls_conv_b.tensor))
        c2 = T.avg_pool(c1, (1, cfg.frames_per_clip, sy, sx))   # (D', 1, gh, gw)
        v_cls = T.transpose(T.reshape(c2, (cfg.cls_feature_dim, cfg.cells)), (1, 0))
        return v_seq, v_cls

    def encode_audio(self, logmel: np.ndarray):
        """logmel: (mel_bins, audio_steps) -> (T, D), temporal dimension preserved.

        Each mel bin's mean over the clip is subtracted first. That mean
        carries no timing; left in, it dominates the early audio features and
        training sat at chance correspondence accuracy for epochs.
        """
        cfg = self.config
        expected = (cfg.mel_bins, cfg.audio_steps)
        if logmel.shape != expected:
            raise ConfigError(f"log-mel shape {logmel.shape} does not match the model "
                              f"config, which expects {expected}")
        x = T.Tensor((logmel - logmel.mean(axis=1, keepdims=True))[None])  # (1, mel, steps)
        h1 = T.tanh(T.conv2d(x, self.a_conv1_w.tensor, self.a_conv1_b.tensor))
        h2 = T.tanh(T.conv2d(h1, self.a_conv2_w.tensor, self.a_conv2_b.tensor))
        pooled = T.mean(h2, axis=1)                      # (D, steps)
        spool = cfg.audio_steps // cfg.time_steps
        return T.transpose(T.avg_pool(pooled, (1, spool)), (1, 0))

    # ------------------------------------------------------------------
    # fusion

    def static_fusion(self, v_seq, a):
        """Per cell: correlation of the cell's visual feature sequence with the
        audio feature sequence, both centred over time, in [-1, 1].

        A plain dot product also grows with loudness and brightness; the
        correlation compares only how the two sequences move together, which
        on the default data tells matched from mismatched soundtracks better.
        """
        cfg = self.config
        t, d = cfg.time_steps, cfg.feature_dim
        center = T.Tensor(np.eye(t) - 1.0 / t)
        v = T.matmul(center, T.reshape(v_seq, (t, d * cfg.cells)))
        v = T.reshape(T.transpose(T.reshape(v, (t, d, cfg.cells)), (2, 0, 1)), (cfg.cells, t * d))
        a = T.reshape(T.matmul(center, a), (t * d,))
        return T.matmul(T.l2_normalize(v, axis=1), T.l2_normalize(a, axis=0))

    def _gates(self, prefix):
        return [getattr(self, f"{prefix}_{gate}_{part}").tensor
                for gate in ("update", "reset", "cand") for part in ("w", "b")]

    def dynamic_fusion(self, v_seq, a):
        """Per-cell cosine of the final states of a ConvGRU over the visual
        grid features and a GRU over the audio features."""
        cfg = self.config
        hv = T.Tensor(np.zeros((cfg.feature_dim, cfg.grid_h, cfg.grid_w)))
        ha = T.Tensor(np.zeros(cfg.feature_dim))
        visual_gates, audio_gates = self._gates("cgru"), self._gates("gru")
        for t in range(cfg.time_steps):
            hv = T.gru_cell(T.take(v_seq, t), hv, *visual_gates)
            ha = T.gru_cell(T.take(a, t), ha, *audio_gates)
        v_final = T.transpose(T.reshape(hv, (cfg.feature_dim, cfg.cells)), (1, 0))
        return T.matmul(T.l2_normalize(v_final, axis=1), T.l2_normalize(ha, axis=0))

    @staticmethod
    def cdf(m_static, m_dynamic):
        return m_static * m_dynamic

    # ------------------------------------------------------------------
    # heads

    @staticmethod
    def local_normalize(similarity):
        m_loc = T.sigmoid(similarity)
        return m_loc, T.max_global(m_loc)

    def global_attend(self, similarity, v_cls):
        w_att = T.softmax(similarity, axis=0)
        v_att = T.matmul(w_att, v_cls)
        logits = T.matmul(v_att, self.fc_w.tensor) + self.fc_b.tensor
        return w_att, v_att, logits

    def forward(self, clip: np.ndarray, logmel: np.ndarray) -> ModelOutput:
        v_seq, v_cls = self.encode_visual(clip)
        a = self.encode_audio(logmel)
        m_static = self.static_fusion(v_seq, a)
        m_dynamic = None
        if self.config.fusion == "cdf":
            m_dynamic = self.dynamic_fusion(v_seq, a)
            similarity = self.cdf(m_static, m_dynamic)
        else:
            similarity = m_static
        similarity = self.sim_scale.tensor * similarity + self.sim_bias.tensor
        m_loc, z_avc = self.local_normalize(similarity)
        w_att, v_att, logits = self.global_attend(similarity, v_cls)
        return ModelOutput(similarity=similarity, m_static=m_static, m_dynamic=m_dynamic,
                           m_loc=m_loc, z_avc=z_avc, w_att=w_att, v_att=v_att,
                           class_logits=logits)

    def localization_heatmap(self, output: ModelOutput) -> Heatmap:
        """M_loc for correspondence-trained heads, attention weights for cls-only."""
        source = output.w_att if self.config.mode == "cls" else output.m_loc
        cfg = self.config
        return Heatmap(source.data.reshape(cfg.grid_h, cfg.grid_w).copy())


def multitask_loss(output: ModelOutput, avc_label: int, class_label=None) -> T.Tensor:
    """BCE on the correspondence score plus, for positives only, per-class BCE.

    avc_label is the pair's ``avc_target``: 1 for an event clip with its own
    audio, 0 for a mismatched pair or a non-event clip. The classification
    term is omitted entirely for label 0, so its parameters receive exactly
    zero gradient from such a pair.
    """
    if avc_label not in (0, 1):
        raise ValueError(f"avc_label must be 0 or 1, got {avc_label}")
    avc_term = T.bce_loss(output.z_avc, np.float64(avc_label))
    if avc_label == 0:
        return avc_term
    if class_label is None:
        raise ValueError("class_label required for a positive pair")
    return avc_term + T.bce_loss(T.sigmoid(output.class_logits), class_label)


def classification_loss(output: ModelOutput, class_label) -> T.Tensor:
    return T.bce_loss(T.sigmoid(output.class_logits), class_label)


def label_vector(labels, num_categories) -> np.ndarray:
    vec = np.zeros(num_categories)
    for k in labels:
        vec[k] = 1.0
    return vec


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: DnmModel
    log: list = field(default_factory=list)
    best_epoch: int | None = None


def _epoch_pairs(clips, rng, mode):
    """Shuffled positives, each followed by one freshly drawn negative (1:1)."""
    order = rng.permutation(len(clips))
    pairs = []
    for idx in order:
        clip = clips[int(idx)]
        pairs.append(clip)
        if mode != "cls":  # classification-only training never sees negatives
            pairs.append(make_negative_pair(clip, clips, rng))
    return pairs


def avc_target(clip) -> int:
    """AVC label a training pair is fitted to: 1 only for a clip's own audio on
    an audio-visual event clip.

    A non-AVE clip (silent object, off-screen sound or noise) has no visible
    sounding object, so its own soundtrack corresponds to nothing on screen:
    its same-clip pair is fitted to 0 like a mismatched one.
    """
    return int(clip.avc_positive and clip.pattern.is_ave)


def _sample_loss(model, clip, num_categories):
    out = model.forward(clip.video, clip.logmel)
    avc_label = avc_target(clip)
    mode = model.config.mode
    if mode == "avc":
        loss = T.bce_loss(out.z_avc, np.float64(avc_label))
    elif mode == "cls":
        loss = classification_loss(out, label_vector(clip.labels, num_categories))
    else:
        loss = multitask_loss(out, avc_label,
                              label_vector(clip.labels, num_categories))
    return out, loss


def _accuracy(model, clips, rng, num_categories, target=lambda pair: pair.avc_positive):
    """(avc accuracy over pos+neg pairs, cls accuracy over positives).

    A pair's prediction ``z_avc > 0.5`` is scored against ``target(pair)``.
    By default that is the loader's flag, which counts every clip with its
    own audio as a positive, a non-AVE clip too; ``train`` scores against
    ``avc_target``, the label it fits.
    """
    avc_hits = avc_total = 0
    cls_hits = cls_total = 0
    for clip in clips:
        for sample in (clip, make_negative_pair(clip, clips, rng)):
            out = model.forward(sample.video, sample.logmel)
            pred = out.z_avc.item() > 0.5
            avc_hits += int(pred == bool(target(sample)))
            avc_total += 1
            if sample.avc_positive and sample.labels:
                cls_hits += int(int(np.argmax(out.class_logits.data)) in sample.labels)
                cls_total += 1
    return avc_hits / max(1, avc_total), cls_hits / max(1, cls_total)


def train(model: DnmModel, train_clips, epochs: int, seed: int, lr: float = 3e-3,
          val_clips=None, select_best: bool = True) -> TrainResult:
    """Seeded training loop: fresh negatives each epoch, Adam updates.

    Each clip is seen with its own audio and, except in cls-only mode, with a
    freshly drawn other clip's audio. The correspondence head is fitted to
    ``avc_target``: 1 only for an event clip with its own audio. Every
    parameter's gradient is cleared before each backward, so a parameter the
    sample's loss does not reach gets no Adam update from that sample.

    With a validation split, the parameters achieving the best validation
    accuracy are restored at the end: correspondence accuracy (against
    ``avc_target``) in avc-only mode, classification accuracy in cls-only
    mode, and the mean of the two when both heads are trained
    (correspondence accuracy alone saturates within a few epochs and its
    noise would then pick a snapshot before the classification head has
    converged). Fully deterministic per seed.
    """
    if len(train_clips) < 2:
        raise ValueError("need at least two clips to form negative pairs")
    num_categories = model.config.num_categories
    params = model.parameters()
    result = TrainResult(model=model)
    best_score = -1.0
    best_state = None

    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, epoch)))
        losses = []
        for clip in _epoch_pairs(train_clips, rng, model.config.mode):
            _, loss = _sample_loss(model, clip, num_categories)
            # backward only resets the gradients it reaches; a head the loss
            # leaves out must not replay the previous sample's gradient
            for p in params:
                p.tensor.grad = None
            T.backward(loss)
            T.adam_step(params, lr=lr)
            losses.append(loss.item())

        record = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if val_clips:
            val_rng = np.random.default_rng(np.random.SeedSequence((seed, epoch, 1)))
            avc_acc, cls_acc = _accuracy(model, val_clips, val_rng, num_categories,
                                         target=avc_target)
            record["val_avc_accuracy"] = avc_acc
            record["val_cls_accuracy"] = cls_acc
            if model.config.mode == "cls":
                score = cls_acc
            elif model.config.mode == "avc":
                score = avc_acc
            else:
                score = 0.5 * (avc_acc + cls_acc)
            if select_best and score > best_score:
                best_score = score
                best_state = [p.data.copy() for p in model.parameters()]
                result.best_epoch = epoch
        result.log.append(record)

    if best_state is not None:
        for p, data in zip(model.parameters(), best_state):
            p.tensor.data = data
    return result


def predict_heatmaps(model: DnmModel, clips) -> dict:
    """One localization heatmap per annotated frame, shared within each clip."""
    out = {}
    for clip in clips:
        hm = model.localization_heatmap(model.forward(clip.video, clip.logmel))
        for frame in clip.frames:
            out[(frame.video_id, frame.frame_index)] = hm
    return out
