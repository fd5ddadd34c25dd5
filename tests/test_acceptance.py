"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion. The directional
training comparison and the trained-quality floor share one session-scoped
fixture that trains four model configurations over three seeds on the
default synthetic dataset; that fixture dominates the suite's runtime, and
the tests that use it are marked ``slow`` (``pytest -m "not slow"`` skips them).
"""
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from avsol import gradcheck as gc
from avsol import tensor as T
from avsol.annotation import (BoundingBox, FrameAnnotation, classify_frame,
                              parse_annotations, rasterize_boxes)
from avsol.cli import main as cli_main
from avsol.dnm import DnmModel, ModelConfig, multitask_loss, predict_heatmaps, train
from avsol.metrics import (EvalFrame, Heatmap, evaluate, hmbox_auc, pibr, pnsr,
                           read_heatmaps)
from avsol.synth import GeneratorConfig, generate_dataset, load_split

from test_metrics import (brute_force_pibr, brute_force_pnsr, riemann_auc_fast,
                          sweep_auc_oracle, box, frame, eval_frame,
                          random_eval_frame)


def verdict(criterion: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(1001)
    ok = True
    mean_errors = []
    for _ in range(200):
        h = rng.random((16, 16))
        mask = rng.random((16, 16)) < 0.5
        if not mask.any():
            mask[0, 0] = True
        exact = hmbox_auc(Heatmap(h), mask)
        mean_errors.append(abs(exact - riemann_auc_fast(h, mask, 1001)))
        ok &= abs(exact - sweep_auc_oracle(h, mask)) <= 2e-3
    # collision noise of the coarse threshold grid is held to the mean
    ok &= float(np.mean(mean_errors)) <= 2e-3

    for size in (2, 3, 4, 5):
        ave = [random_eval_frame(rng, size, ave=True) for _ in range(20)]
        non_ave = [random_eval_frame(rng, size, ave=False) for _ in range(10)]
        ok &= pibr(ave) == brute_force_pibr(ave)
        ok &= pnsr(ave + non_ave) == pytest.approx(
            brute_force_pnsr(ave + non_ave), rel=1e-12)

    elapsed = time.time() - start
    ok &= elapsed < 10
    verdict(f"criterion 1: metric oracle equivalence ({elapsed:.1f}s)", ok)


def test_criterion_2_trivial_identities():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(20):
        mask = rng.random((8, 8)) < 0.35
        if not mask.any():
            mask[3, 3] = True
        ok &= abs(hmbox_auc(Heatmap(mask.astype(float)), mask) - 1.0) <= 1e-9
        fraction = mask.mean()
        ok &= abs(hmbox_auc(Heatmap(np.full((8, 8), 0.4)), mask) - fraction) <= 1e-9

    ave = eval_frame(frame("v", 0, [box(20, 20, 60, 60)]), np.full((5, 5), 0.8))
    silent = eval_frame(frame("v", 1, []), np.zeros((5, 5)))
    ok &= pnsr([ave, silent]) == 0.0
    verdict("criterion 2: trivial metric identities", ok)


def test_criterion_3_monotone_invariance():
    rng = np.random.default_rng(1003)
    transforms = [np.exp, np.arctan, lambda x: 3.0 * x - 7.0, np.cbrt,
                  lambda x: x ** 3 + x]
    ok = True
    for _ in range(50):
        ev = random_eval_frame(rng, 6)
        mask = rasterize_boxes(ev.annotation, 6, 6)
        base_auc = hmbox_auc(ev.heatmap, mask)
        base_pibr = pibr([ev])
        for t in transforms:
            mapped = EvalFrame(heatmap=Heatmap(t(ev.heatmap.values)),
                               annotation=ev.annotation, frame_class=ev.frame_class)
            ok &= hmbox_auc(mapped.heatmap, mask) == base_auc
            ok &= pibr([mapped]) == base_pibr
    verdict("criterion 3: monotone invariance is bit-identical", ok)


def test_criterion_4_gradient_checks():
    start = time.time()
    op_errors = gc.check_ops(1004, draws=20)
    # every parameter is probed in every draw; each draw uses a fresh seeded
    # component subset, so coverage accumulates across the 20 draws
    model_error = gc.check_model(1004, draws=20, components_per_param=4)
    elapsed = time.time() - start
    ok = all(err <= 1e-4 for err in op_errors.values()) and model_error <= 1e-4
    ok &= elapsed < 60
    worst_op = max(op_errors, key=op_errors.get)
    verdict(f"criterion 4: gradient checks (worst op {worst_op} "
            f"{op_errors[worst_op]:.2e}, model {model_error:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_5_head_contracts():
    config = gc.tiny_config()
    ok = True
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((1005, i)))
        model = DnmModel(config, seed=i)
        clip, logmel = gc.random_inputs(rng)
        out = model.forward(clip, logmel)
        ok &= out.z_avc.item() == out.m_loc.data.max()
        ok &= abs(out.w_att.data.sum() - 1.0) <= 1e-9
        _, _, shifted = model.global_attend(
            out.similarity + T.Tensor(np.full(config.cells, 2.5)),
            T.Tensor(out.v_att.data[None].repeat(config.cells, axis=0)))
        _, _, base = model.global_attend(
            out.similarity, T.Tensor(out.v_att.data[None].repeat(config.cells, axis=0)))
        ok &= np.all(np.abs(shifted.data - base.data) <= 1e-9)

    for i in range(5):
        rng = np.random.default_rng(np.random.SeedSequence((1005, i, 2)))
        model = DnmModel(config, seed=i)
        clip, logmel = gc.random_inputs(rng)
        loss = multitask_loss(model.forward(clip, logmel), 0)
        T.backward(loss)
        for p in model.classification_parameters():
            ok &= p.grad is None or not p.grad.any()
    verdict("criterion 5: head contracts on 100 random forwards", ok)


# ---------------------------------------------------------------------------
# trained-model criteria

TRAIN_SEEDS = (0, 1, 2)
TRAIN_EPOCHS = 8

TRAIN_CONFIGS = {
    "avc": ModelConfig(fusion="static", mode="avc"),
    "cls": ModelConfig(fusion="static", mode="cls"),
    "static-dnm": ModelConfig(fusion="static", mode="dnm"),
    "cdf-dnm": ModelConfig(fusion="cdf", mode="dnm"),
}


@pytest.fixture(scope="session")
def trained_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_ds")
    start = time.time()
    generate_dataset(GeneratorConfig(), root)
    train_clips = load_split(root, "train")
    val_clips = load_split(root, "val")
    test_clips = load_split(root, "test")
    index = parse_annotations((root / "annotations_test.jsonl").read_bytes())

    results = {name: [] for name in TRAIN_CONFIGS}
    for seed in TRAIN_SEEDS:
        for name, config in TRAIN_CONFIGS.items():
            model = DnmModel(config, seed=seed)
            outcome = train(model, train_clips, epochs=TRAIN_EPOCHS, seed=seed,
                            val_clips=val_clips)
            report = evaluate(index, predict_heatmaps(model, test_clips), 6, 6)
            from avsol.dnm import _accuracy
            acc_rng = np.random.default_rng(np.random.SeedSequence((seed, 999)))
            avc_acc, cls_acc = _accuracy(model, test_clips, acc_rng,
                                         config.num_categories)
            results[name].append({
                "seed": seed,
                "auc": report.hmbox_auc["all"],
                "pibr": report.pibr["all"],
                "pnsr": report.pnsr["all"],
                "avc_accuracy": avc_acc,
                "cls_accuracy": cls_acc,
                "loss_log": [r["train_loss"] for r in outcome.log],
            })
    results["elapsed"] = time.time() - start
    return results


def _mean(results, name, key):
    return float(np.mean([r[key] for r in results[name]]))


@pytest.mark.slow
def test_criterion_6_directional_ordering(trained_results):
    dnm_auc = _mean(trained_results, "cdf-dnm", "auc")
    avc_auc = _mean(trained_results, "avc", "auc")
    cls_auc = _mean(trained_results, "cls", "auc")
    cdf_pibr = _mean(trained_results, "cdf-dnm", "pibr")
    static_pibr = _mean(trained_results, "static-dnm", "pibr")
    elapsed = trained_results["elapsed"]
    ok = (dnm_auc >= avc_auc + 0.05 and dnm_auc >= cls_auc + 0.05
          and cdf_pibr >= static_pibr - 0.02 and elapsed <= 45 * 60)
    verdict(
        "criterion 6: directional ordering "
        f"(AUC dnm {dnm_auc:.3f} vs avc {avc_auc:.3f} / cls {cls_auc:.3f}; "
        f"PiBR cdf {cdf_pibr:.3f} vs static {static_pibr:.3f}; "
        f"{elapsed / 60:.1f} min)", ok)


@pytest.mark.slow
def test_criterion_7_quality_floor(trained_results):
    acc = _mean(trained_results, "cdf-dnm", "avc_accuracy")
    pibr_mean = _mean(trained_results, "cdf-dnm", "pibr")
    pnsr_mean = _mean(trained_results, "cdf-dnm", "pnsr")
    ok = acc >= 0.90 and pibr_mean >= 0.70 and pnsr_mean <= 0.50
    verdict(
        "criterion 7: trained quality floor "
        f"(avc acc {acc:.3f} >= 0.90, PiBR {pibr_mean:.3f} >= 0.70, "
        f"PNSR {pnsr_mean:.3f} <= 0.50)", ok)


@pytest.mark.slow
def test_training_loss_decreases_early(trained_results):
    # majority of seeds show strictly decreasing loss over the first 5 epochs
    wins = 0
    for record in trained_results["cdf-dnm"]:
        first = record["loss_log"][:5]
        wins += all(b < a for a, b in zip(first, first[1:]))
    verdict(f"supplementary: early training loss decreases ({wins}/3 seeds)",
            wins >= 2)


def _sha_tree(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_criterion_8_reproducibility(tmp_path):
    gen_config = tmp_path / "gen.json"
    gen_config.write_text(json.dumps(
        {"clips_per_split": {"train": 6, "val": 2, "test": 2}, "seed": 9}))
    ok = True
    # two generations, compared file by file (manifest, clips, annotations)
    datasets = []
    for run in ("a", "b"):
        ds = tmp_path / f"ds_{run}"
        assert cli_main(["gen", "--config", str(gen_config), "--out", str(ds)]) == 0
        datasets.append(_sha_tree(ds))
    ok &= datasets[0] == datasets[1]

    # two trainings and evaluations against the same dataset
    ds = tmp_path / "ds_a"
    runs, reports = [], []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        assert cli_main(["train", "--dataset", str(ds), "--mode", "dnm",
                         "--fusion", "static", "--epochs", "1", "--seed", "4",
                         "--out", str(out)]) == 0
        runs.append(_sha_tree(out))
        rep = tmp_path / f"rep_{run}"
        assert cli_main(["eval", "--annotations", str(ds / "annotations_test.jsonl"),
                         "--heatmaps", str(out / "heatmaps_test.avhm"),
                         "--grid-w", "6", "--grid-h", "6", "--out", str(rep)]) == 0
        reports.append(_sha_tree(rep))
    ok &= runs[0] == runs[1] and reports[0] == reports[1]
    verdict("criterion 8: byte-identical reruns of gen/train/eval", ok)
