"""Dual-headed audio-visual localization model with static or combined dynamic fusion.

Small frame-wise conv encoders produce per-cell visual features and per-step
audio features; their per-cell correlations form one score grid that both
heads read: per-cell sigmoid + global max pooling for the correspondence (MIL)
head, and global softmax attention over a classification feature grid for
the event head. Combined dynamic fusion (cdf) multiplies that grid by the
cosine of the final states of a ConvGRU over the visual grid and a GRU over
the audio features, one `tensor.gru` node per modality for the whole clip;
the audio GRU runs as a ConvGRU with 1x1 kernels over a (D, 1, 1) state.
Everything is built from the tensor module's registered ops, so the whole
forward pass is gradient-checkable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .metrics import Heatmap
from .synth import make_negative_pair


class ConfigError(ValueError):
    pass


FUSIONS = ("static", "cdf")
MODES = ("avc", "cls", "dnm")
KERNEL = 3  # size of every encoder and ConvGRU kernel along space and mel bins


@dataclass
class ModelConfig:
    grid_w: int = 6
    grid_h: int = 6
    feature_dim: int = 16
    cls_feature_dim: int = 8
    num_categories: int = 4
    visual_channels: int = 6
    audio_channels: int = 8
    fusion: str = "cdf"
    mode: str = "dnm"

    def __post_init__(self):
        for name in ("grid_w", "grid_h", "feature_dim", "cls_feature_dim",
                     "num_categories", "visual_channels", "audio_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def cells(self) -> int:
        return self.grid_w * self.grid_h


@dataclass
class ModelOutput:
    """Forward results; every field is a Tensor in the live graph."""
    similarity: T.Tensor        # score per cell, both heads read this
    m_static: T.Tensor
    m_dynamic: T.Tensor | None  # None in static fusion
    m_loc: T.Tensor             # sigmoid per cell
    z_avc: T.Tensor             # global max of m_loc: sigmoid of the correspondence logit
    w_att: T.Tensor             # softmax over cells
    v_att: T.Tensor
    class_logits: T.Tensor


class DnmModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self._params: list[T.Parameter] = []

        cfg = config
        # frame-wise kernels: they span space and mel bins, never time. The
        # clip's loudness envelope, the cue that ties a soundtrack to its
        # object, can cycle in under three frames, and two stacked 3-frame
        # convolutions would smear it over five
        k = KERNEL
        self.v_conv1_w = self._weight(rng, "v_conv1_w",
                                      (cfg.visual_channels, 1, 1, k, k), k * k)
        self.v_conv1_b = self._zeros("v_conv1_b", (cfg.visual_channels,))
        self.v_conv2_w = self._weight(rng, "v_conv2_w",
                                      (cfg.feature_dim, cfg.visual_channels, 1, k, k),
                                      cfg.visual_channels * k * k)
        self.v_conv2_b = self._zeros("v_conv2_b", (cfg.feature_dim,))
        # pointwise classification branch off the first visual layer. It
        # shares v_conv1 with the similarity pathway, so the classification
        # gradient does reach the encoder; only v_conv2 is kept off it
        self.cls_conv_w = self._weight(rng, "cls_conv_w",
                                       (cfg.cls_feature_dim, cfg.visual_channels, 1, 1, 1),
                                       cfg.visual_channels)
        self.cls_conv_b = self._zeros("cls_conv_b", (cfg.cls_feature_dim,))

        self.a_conv1_w = self._weight(rng, "a_conv1_w",
                                      (cfg.audio_channels, 1, k, 1), k)
        self.a_conv1_b = self._zeros("a_conv1_b", (cfg.audio_channels,))
        self.a_conv2_w = self._weight(rng, "a_conv2_w",
                                      (cfg.feature_dim, cfg.audio_channels, k, 1),
                                      cfg.audio_channels * k)
        self.a_conv2_b = self._zeros("a_conv2_b", (cfg.feature_dim,))

        self.fc_w = self._weight(rng, "fc_w", (cfg.cls_feature_dim, cfg.num_categories),
                                 cfg.cls_feature_dim)
        self.fc_b = self._zeros("fc_b", (cfg.num_categories,))

        if cfg.fusion == "cdf":
            d = cfg.feature_dim
            for gate in ("update", "reset", "cand"):
                setattr(self, f"cgru_{gate}_w",
                        self._weight(rng, f"cgru_{gate}_w", (d, 2 * d, k, k), 2 * d * k * k))
                setattr(self, f"cgru_{gate}_b", self._zeros(f"cgru_{gate}_b", (d,)))
                # the audio GRU: 1x1 kernels over a (D, 1, 1) state
                setattr(self, f"gru_{gate}_w",
                        self._weight(rng, f"gru_{gate}_w", (d, 2 * d, 1, 1), 2 * d))
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
        """clip: (T, H, W, 1) in [0, 1] -> (v_seq, v_cls).

        v_seq: (T, D, grid_h, grid_w) preserving time; v_cls: (cells, D')
        time-pooled output of the classification branch.
        """
        cfg = self.config
        t, h, w, _ = clip.shape
        x = T.Tensor(np.transpose(clip, (3, 0, 1, 2)))  # (1, T, H, W)
        h1 = T.tanh(T.conv3d(x, self.v_conv1_w, self.v_conv1_b))
        h2 = T.tanh(T.conv3d(h1, self.v_conv2_w, self.v_conv2_b))
        sy, sx = h // cfg.grid_h, w // cfg.grid_w
        v4 = T.avg_pool(h2, (1, 1, sy, sx))              # (D, T, gh, gw)
        v_seq = T.transpose(v4, (1, 0, 2, 3))            # (T, D, gh, gw)

        c1 = T.tanh(T.conv3d(h1, self.cls_conv_w, self.cls_conv_b))
        c2 = T.avg_pool(c1, (1, t, sy, sx))              # (D', 1, gh, gw)
        v_cls = T.transpose(T.reshape(c2, (cfg.cls_feature_dim, cfg.cells)), (1, 0))
        return v_seq, v_cls

    def encode_audio(self, logmel: np.ndarray):
        """logmel: (mel_bins, T) -> (T, D), temporal dimension preserved.

        Each mel bin's mean over the clip is subtracted first. That mean
        carries no timing; left in, it dominates the early audio features and
        training sat at chance correspondence accuracy for epochs.
        """
        x = T.Tensor((logmel - logmel.mean(axis=1, keepdims=True))[None])  # (1, mel, T)
        h1 = T.tanh(T.conv2d(x, self.a_conv1_w, self.a_conv1_b))
        h2 = T.tanh(T.conv2d(h1, self.a_conv2_w, self.a_conv2_b))
        return T.transpose(T.mean(h2, axis=1), (1, 0))

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
        t, d = v_seq.shape[0], cfg.feature_dim
        center = T.Tensor(np.eye(t) - 1.0 / t)
        v = T.matmul(center, T.reshape(v_seq, (t, d * cfg.cells)))
        v = T.reshape(T.transpose(T.reshape(v, (t, d, cfg.cells)), (2, 0, 1)), (cfg.cells, t * d))
        a = T.reshape(T.matmul(center, a), (t * d,))
        return T.matmul(T.l2_normalize(v, axis=1), T.l2_normalize(a, axis=0))

    def _gates(self, prefix):
        return [getattr(self, f"{prefix}_{gate}_{part}")
                for gate in ("update", "reset", "cand") for part in ("w", "b")]

    def dynamic_fusion(self, v_seq, a):
        """Per-cell cosine of the final states of a ConvGRU over the visual
        grid features and a GRU over the audio features."""
        cfg = self.config
        hv = T.gru(v_seq, *self._gates("cgru"))
        # each step's (D,) audio input as a (D, 1, 1) grid
        ha = T.gru(T.reshape(a, a.shape + (1, 1)), *self._gates("gru"))
        v_final = T.transpose(T.reshape(hv, (cfg.feature_dim, cfg.cells)), (1, 0))
        a_final = T.reshape(ha, (cfg.feature_dim,))
        return T.matmul(T.l2_normalize(v_final, axis=1), T.l2_normalize(a_final, axis=0))

    # ------------------------------------------------------------------
    # heads

    @staticmethod
    def local_normalize(similarity):
        m_loc = T.sigmoid(similarity)
        return m_loc, T.max_global(m_loc)

    def global_attend(self, similarity, v_cls):
        w_att = T.softmax(similarity, axis=0)
        v_att = T.matmul(w_att, v_cls)
        logits = T.matmul(v_att, self.fc_w) + self.fc_b
        return w_att, v_att, logits

    def forward(self, clip: np.ndarray, logmel: np.ndarray) -> ModelOutput:
        # the model takes its sizes from a clip (T, H, W, 1) whose frame the
        # grid tiles and a log-mel (mel_bins, T) with one step per frame
        gh, gw = self.config.grid_h, self.config.grid_w
        if not (clip.ndim == 4 and clip.shape[3] == 1 and min(clip.shape) >= 1
                and clip.shape[1] % gh == 0 and clip.shape[2] % gw == 0
                and logmel.ndim == 2 and logmel.shape[0] >= 1
                and logmel.shape[1] == clip.shape[0]):
            raise ConfigError(
                f"clip shape {clip.shape} and log-mel shape {logmel.shape} do not fit "
                f"the model's {gh}x{gw} grid: it needs a clip (T, H, W, 1) with H a "
                f"multiple of grid_h={gh} and W of grid_w={gw}, and a log-mel (mel_bins, T)")
        v_seq, v_cls = self.encode_visual(clip)
        a = self.encode_audio(logmel)
        m_static = self.static_fusion(v_seq, a)
        m_dynamic = None
        if self.config.fusion == "cdf":
            m_dynamic = self.dynamic_fusion(v_seq, a)
            similarity = m_static * m_dynamic
        else:
            similarity = m_static
        similarity = self.sim_scale * similarity + self.sim_bias
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
    """BCE on the correspondence logit max(similarity), whose sigmoid is
    z_avc, plus, for positives only, per-class BCE on the class logits.

    avc_label is the pair's ``avc_target``: 1 for an event clip with its own
    audio, 0 for a mismatched pair or a non-event clip. The classification
    term is omitted entirely for label 0, so its parameters receive exactly
    zero gradient from such a pair.
    """
    avc_term = T.bce_loss(T.max_global(output.similarity), np.float64(avc_label))
    if avc_label == 0:
        return avc_term
    if class_label is None:
        raise ValueError("class_label required for a positive pair")
    return avc_term + T.bce_loss(output.class_logits, class_label)


def classification_loss(output: ModelOutput, class_label) -> T.Tensor:
    return T.bce_loss(output.class_logits, class_label)


def label_vector(labels, num_categories) -> np.ndarray:
    vec = np.zeros(num_categories)
    for k in labels:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < num_categories):
            raise ConfigError(f"class label {k!r} outside the model's [0, {num_categories})")
        vec[k] = 1.0
    return vec


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
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
        loss = T.bce_loss(T.max_global(out.similarity), np.float64(avc_label))
    elif mode == "cls":
        loss = classification_loss(out, label_vector(clip.labels, num_categories))
    else:
        loss = multitask_loss(out, avc_label,
                              label_vector(clip.labels, num_categories))
    return out, loss


def _accuracy(model, clips, rng, num_categories):
    """(avc accuracy over pos+neg pairs, cls accuracy over positives).

    A pair's prediction ``z_avc > 0.5`` is scored against ``avc_target``,
    the label training fits: a non-AVE clip's own audio counts as a negative.
    """
    avc_hits = avc_total = 0
    cls_hits = cls_total = 0
    for clip in clips:
        for sample in (clip, make_negative_pair(clip, clips, rng)):
            out = model.forward(sample.video, sample.logmel)
            pred = out.z_avc.item() > 0.5
            avc_hits += int(pred == bool(avc_target(sample)))
            avc_total += 1
            if sample.avc_positive and sample.labels:
                cls_hits += int(int(np.argmax(out.class_logits.data)) in sample.labels)
                cls_total += 1
    return avc_hits / max(1, avc_total), cls_hits / max(1, cls_total)


def train(model: DnmModel, train_clips, epochs: int, seed: int, lr: float = 3e-3,
          val_clips=None) -> TrainResult:
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
    result = TrainResult()
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
                p.grad = None
            T.backward(loss)
            T.adam_step(params, lr=lr)
            losses.append(loss.item())

        record = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if val_clips:
            val_rng = np.random.default_rng(np.random.SeedSequence((seed, epoch, 1)))
            avc_acc, cls_acc = _accuracy(model, val_clips, val_rng, num_categories)
            record["val_avc_accuracy"] = avc_acc
            record["val_cls_accuracy"] = cls_acc
            if model.config.mode == "cls":
                score = cls_acc
            elif model.config.mode == "avc":
                score = avc_acc
            else:
                score = 0.5 * (avc_acc + cls_acc)
            if score > best_score:
                best_score = score
                best_state = [p.data.copy() for p in model.parameters()]
                result.best_epoch = epoch
        result.log.append(record)

    if best_state is not None:
        for p, data in zip(model.parameters(), best_state):
            p.data = data
    return result


def predict_heatmaps(model: DnmModel, clips) -> dict:
    """One localization heatmap per annotated frame, shared within each clip."""
    out = {}
    for clip in clips:
        hm = model.localization_heatmap(model.forward(clip.video, clip.logmel))
        for frame in clip.frames:
            out[(frame.video_id, frame.frame_index)] = hm
    return out
