"""Finite-difference verification of every registered op and the full model loss."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .dnm import DnmModel, ModelConfig, multitask_loss

TOLERANCE = 1e-4


def _rand(rng, *shape):
    return T.Tensor(rng.uniform(-1.0, 1.0, size=shape))


def _scalarizer(rng, shape):
    # frozen random weights make the scalar sensitive to every component
    w = T.Tensor(rng.uniform(0.5, 1.5, size=shape))
    return lambda y: T.mean(y * w)


def op_check_cases(rng):
    """op name -> (fn, inputs); fn maps the input list to a scalar Tensor."""
    cases = {}

    def case(name, out_shape, inputs, build):
        s = _scalarizer(rng, out_shape)
        cases[name] = ((lambda ts: s(build(ts))), inputs)

    case("add", (3, 4), [_rand(rng, 3, 4), _rand(rng, 3, 4)],
         lambda ts: T.add(ts[0], ts[1]))
    case("mul", (3, 4), [_rand(rng, 3, 4), _rand(rng, 3, 4)],
         lambda ts: T.mul(ts[0], ts[1]))
    case("matmul", (3, 2), [_rand(rng, 3, 5), _rand(rng, 5, 2)],
         lambda ts: T.matmul(ts[0], ts[1]))

    case("conv2d", (3, 5, 5), [_rand(rng, 2, 5, 5), _rand(rng, 3, 2, 3, 3), _rand(rng, 3)],
         lambda ts: T.conv2d(ts[0], ts[1], ts[2]))
    case("conv3d", (2, 3, 4, 4),
         [_rand(rng, 2, 3, 4, 4), _rand(rng, 2, 2, 3, 3, 3), _rand(rng, 2)],
         lambda ts: T.conv3d(ts[0], ts[1], ts[2]))
    case("avg_pool", (2, 2), [_rand(rng, 4, 6)],
         lambda ts: T.avg_pool(ts[0], (2, 3)))

    case("sigmoid", (3, 4), [_rand(rng, 3, 4)], lambda ts: T.sigmoid(ts[0]))
    case("tanh", (3, 4), [_rand(rng, 3, 4)], lambda ts: T.tanh(ts[0]))
    case("l2_normalize", (3, 4), [_rand(rng, 3, 4)], lambda ts: T.l2_normalize(ts[0], axis=1))
    case("softmax", (7,), [_rand(rng, 7)], lambda ts: T.softmax(ts[0], axis=0))
    case("mean", (4,), [_rand(rng, 4, 5)], lambda ts: T.mean(ts[0], axis=1))
    cases["max_global"] = (lambda ts: T.max_global(ts[0]), [_rand(rng, 3, 3)])
    target = rng.integers(0, 2, size=5).astype(np.float64)
    cases["bce_loss"] = (lambda ts: T.bce_loss(ts[0], target), [_rand(rng, 5)])

    case("reshape", (2, 6), [_rand(rng, 3, 4)], lambda ts: T.reshape(ts[0], (2, 6)))
    case("transpose", (2, 3, 4), [_rand(rng, 3, 4, 2)],
         lambda ts: T.transpose(ts[0], (2, 0, 1)))

    # a 1-channel ConvGRU over two steps of a 2x3 grid with 3x3 kernels
    case("gru", (1, 2, 3),
         [_rand(rng, 2, 1, 2, 3)] + [t for _ in range(3)
                                     for t in (_rand(rng, 1, 2, 3, 3), _rand(rng, 1))],
         lambda ts: T.gru(*ts))
    return cases


def check_ops(seed: int, draws: int = 20) -> dict:
    """Max relative finite-difference error per registered op over seeded draws."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    worst = {name: 0.0 for name in T.OP_REGISTRY}
    for draw in range(draws):
        rng = np.random.default_rng(np.random.SeedSequence((seed, draw)))
        cases = op_check_cases(rng)
        missing = set(T.OP_REGISTRY) - set(cases)
        if missing:
            raise RuntimeError(f"ops without a gradient-check case: {sorted(missing)}")
        for name, (fn, inputs) in cases.items():
            worst[name] = max(worst[name], T.grad_check(fn, inputs))
    return worst


def tiny_config() -> ModelConfig:
    """The cdf-dnm model on a 3x3 grid with the smallest encoders."""
    return ModelConfig(grid_w=3, grid_h=3, feature_dim=4, cls_feature_dim=3,
                       num_categories=2, visual_channels=2, audio_channels=2)


def random_inputs(rng, frames=2, size=6, mel_bins=6):
    """A clip (frames, size, size, 1) and a log-mel (mel_bins, frames), uniform in [0, 1)."""
    return rng.random((frames, size, size, 1)), rng.random((mel_bins, frames))


def check_model(seed: int, draws: int = 20, components_per_param: int = 12) -> float:
    """Finite-difference check of the tiny model's forward + multitask loss.

    All parameters participate; within each draw a seeded subset of
    components per parameter is probed to keep the check fast.
    """
    config = tiny_config()
    worst = 0.0
    for draw in range(draws):
        rng = np.random.default_rng(np.random.SeedSequence((seed, draw, 2)))
        model = DnmModel(config, seed=seed + draw)
        # biases start at zero; nudge them so their gradients are generic
        for p in model.parameters():
            p.data = p.data + rng.uniform(-0.05, 0.05, size=p.data.shape)
        clip, logmel = random_inputs(rng)
        label = np.zeros(config.num_categories)
        label[int(rng.integers(config.num_categories))] = 1.0

        params = model.parameters()

        def fn(_):
            return multitask_loss(model.forward(clip, logmel), 1, label)

        indices = [sorted(rng.choice(t.data.size,
                                     size=min(components_per_param, t.data.size),
                                     replace=False).tolist())
                   for t in params]
        worst = max(worst, T.grad_check(fn, params, component_indices=indices))
    return worst


def run_report(seed: int, draws: int = 20) -> dict:
    """Per-op and end-to-end errors, as printed by the CLI."""
    report = dict(sorted(check_ops(seed, draws=draws).items()))
    report["end_to_end"] = check_model(seed, draws=max(1, draws // 4))
    return report
