#!/usr/bin/env python3
"""avsol benchmark: three workloads driven through ``avsol.cli.main`` in one process.

    python3 perfbench/run.py --workload train-cdf --seed 0 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``./src``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of one traced pass. See perfbench/README.md for what
each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread: with two vCPUs shared with other tenants, a second BLAS
# thread only adds run-to-run spread. Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("train-cdf", "eval-grid24", "gradcheck")
OPS = ("add", "mul", "matmul", "dot_along_channel", "conv2d", "conv3d", "avg_pool",
       "sigmoid", "tanh", "softmax", "mean", "max_global", "bce_loss", "concat",
       "reshape", "transpose", "take")
GRADCHECK_TOLERANCE = 1e-4

# Clips per split and heatmap grid. Evaluation cost depends on the seed's
# mix of frame classes, so every evaluated split has enough clips for that
# mix to vary little by seed. train-cdf trains on the default 200/50 clips;
# its test split is 100, not 50, clips: at 50, about one seed in a hundred
# draws no non-AVE clip and the test report then has no PNSR.
SIZES = {
    "full": {"data": {"train": 200, "val": 50, "test": 100},
             "tiny": {"train": 8, "val": 4, "test": 16},
             "grid": {"train-cdf": (400, 6), "eval-grid24": (1000, 24), "gradcheck": (400, 6)},
             "main_draws": None, "class_probs": None},
    # toy splits are too small for the default mix to hold non-AVE frames
    "toy": {"data": {"train": 4, "val": 2, "test": 8}, "tiny": {"train": 3, "val": 2, "test": 6},
            "grid": {"train-cdf": (20, 6), "eval-grid24": (40, 24), "gradcheck": (20, 6)},
            "main_draws": 1,
            "class_probs": {"ave_single": 0.3, "ave_multi": 0.2, "non_ave_visible": 0.2,
                            "non_ave_audible": 0.15, "non_ave_noise": 0.15}},
}

# Heatmap recipe for evaluation without a model: a Gaussian bump plus
# uniform noise. On this share of AVE frames the bump sits on a sounding
# box, elsewhere on a random cell, so HmBoxAUC and PiBR stay strictly
# between 0 and 1.
BUMP_ON_BOX_SHARE = 0.7
BUMP_WIDTH_24 = 2.0  # cells of a 24x24 grid; scaled with the grid
NOISE_LEVEL = 0.3


def import_avsol():
    """Import the program under test from ./src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "avsol" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {src / 'avsol'} not found; "
                         "run from the root of an avsol checkout")
    sys.path.insert(0, str(src))
    import avsol.cli  # noqa: F401  (loads every module)
    import avsol
    if Path(avsol.__file__).resolve().parent != (src / "avsol").resolve():
        raise SystemExit(f"perfbench: imported avsol from {avsol.__file__}, not {src}")
    return avsol


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Ledger:
    """Commands attempted and failed; a failed check counts as a failure."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        self.problems.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)


class Runner:
    def __init__(self, avsol, ledger: Ledger):
        self.avsol = avsol
        self.ledger = ledger
        self.tracer: spans.Tracer | None = None

    def cli(self, argv) -> tuple[bool, float, str]:
        """Run one avsol command; returns (exit code was 0, wall seconds, stdout)."""
        argv = [str(a) for a in argv]
        self.ledger.attempted += 1
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.avsol.cli.main(argv)
                else:
                    with self.tracer.span(f"cli.{argv[0]}"):
                        rc = self.avsol.cli.main(argv)
        except Exception:  # an uncaught error is a failed command, not a crash
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        if rc != 0:
            print(err.getvalue(), file=sys.stderr)
            self.ledger.fail(f"avsol {' '.join(argv)} exited {rc}")
        return rc == 0, wall, out.getvalue()

    @contextlib.contextmanager
    def tracing(self, tracer: spans.Tracer):
        """Record spans of every command run inside the block."""
        spans.install(tracer, self.avsol)
        self.tracer = tracer
        try:
            yield tracer
        finally:
            tracer.uninstall()
            self.tracer = None


# ---------------------------------------------------------------------------
# inputs


def gen(runner: Runner, out: Path, seed: int, clips, class_probs):
    cfg = {"clips_per_split": clips}
    if class_probs is not None:
        cfg["class_probs"] = class_probs
    config = out.with_suffix(".json")
    config.write_text(json.dumps(cfg, sort_keys=True))
    runner.cli(["gen", "--config", config, "--seed", seed, "--out", out])
    return out


def seeded_heatmaps(avsol, index, seed: int, grid: int):
    """One seeded grid x grid heatmap per annotated frame (see the recipe above)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, grid)))
    yy, xx = np.mgrid[0:grid, 0:grid] + 0.5
    width = BUMP_WIDTH_24 * grid / 24
    entries = []
    for frame in index.frames:
        sounding = frame.in_view_sounding_boxes()
        if sounding and rng.random() < BUMP_ON_BOX_SHARE:
            box = sounding[int(rng.integers(len(sounding)))]
            cx = 0.5 * (box.x_min + box.x_max) * grid / frame.width
            cy = 0.5 * (box.y_min + box.y_max) * grid / frame.height
        else:
            cx, cy = rng.uniform(0.0, grid, size=2)
        bump = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width ** 2))
        values = bump + NOISE_LEVEL * rng.random((grid, grid))
        entries.append((frame.video_id, frame.frame_index, avsol.metrics.Heatmap(values)))
    return entries


def setup(runner: Runner, workload: str, where: Path, seed: int, size: dict) -> dict:
    """Generate every input of one workload under ``where``; returns their paths."""
    avsol = runner.avsol
    where.mkdir(parents=True, exist_ok=True)
    mix = size["class_probs"]
    inputs = {"tiny": gen(runner, where / "tiny", seed, size["tiny"], mix)}
    if workload == "train-cdf":
        inputs["data"] = gen(runner, where / "data", seed, size["data"], mix)
    clips, grid = size["grid"][workload]
    data = inputs["grid"] = gen(runner, where / "grid", seed,
                                {"train": 0, "val": 0, "test": clips}, mix)
    # module-attribute lookups, so a traced set-up records them
    index = avsol.annotation.parse_annotations((data / "annotations_test.jsonl").read_bytes())
    avsol.metrics.write_heatmaps(data / "heatmaps.avhm",
                                 seeded_heatmaps(avsol, index, seed, grid))
    return inputs


# ---------------------------------------------------------------------------
# stages: the commands a workload times, each with its correctness check


@dataclass
class Stage:
    command: str          # train | eval | gradcheck
    argv: list
    per_round: int        # runs per round; small stages repeat to steady their median
    work: int = 0         # training samples or evaluated frames per run
    check: Callable[[str], list] = None  # stdout -> problems
    walls: list = field(default_factory=list)


def count_frames(annotations: Path) -> int:
    return sum(1 for line in annotations.read_bytes().splitlines() if line.strip())


class Checks:
    """Correctness checks; they call the original functions, never traced ones."""

    def __init__(self, avsol):
        self.parse_annotations = avsol.annotation.parse_annotations
        self.read_heatmaps = avsol.metrics.read_heatmaps
        self.op_names = set(avsol.tensor.OP_REGISTRY)
        self.first = {}   # key -> first observed bytes, for repeat identity

    def same_as_first(self, key, value: bytes) -> list:
        if self.first.setdefault(key, value) != value:
            return [f"{key} differs between repeats"]
        return []

    def train(self, dataset: Path, out: Path, full_report: bool):
        def check(_stdout):
            problems = []
            index = self.parse_annotations((dataset / "annotations_test.jsonl").read_bytes())
            try:
                heatmaps = self.read_heatmaps(out / "heatmaps_test.avhm")
            except ValueError as exc:  # MetricError: unreadable or non-finite values
                return [f"{out}/heatmaps_test.avhm: {exc}"]
            missing = [f for f in index.frames if (f.video_id, f.frame_index) not in heatmaps]
            if missing:
                problems.append(f"{out}: {len(missing)} test frames without a heatmap")
            lines = (out / "train_log.jsonl").read_text().splitlines()
            final = json.loads(lines[-1])["test_metrics"]
            if full_report:
                for metric in ("hmbox_auc", "pibr", "pnsr"):
                    if "all" not in final.get(metric, {}):
                        problems.append(f"{out}: test report lacks {metric}")
            problems += self.same_as_first(("train", str(out)),
                                           json.dumps(final, sort_keys=True).encode())
            return problems
        return check

    def eval(self, out: Path):
        def check(_stdout):
            return self.same_as_first(("eval", str(out)), (out / "report.json").read_bytes())
        return check

    def gradcheck(self):
        def check(stdout):
            errors = {}
            for line in stdout.splitlines():
                parts = line.split()
                if len(parts) == 3 and parts[2] in ("ok", "FAIL"):
                    errors[parts[0]] = float(parts[1])
            problems = [f"gradcheck: no result for {name}"
                        for name in sorted(self.op_names | {"end_to_end"}) if name not in errors]
            problems += [f"gradcheck: {name} error {err:.3e} > {GRADCHECK_TOLERANCE}"
                         for name, err in errors.items() if not err <= GRADCHECK_TOLERANCE]
            return problems
        return check


def stages_for(workload: str, inputs: dict, run_dir: Path, seed: int, size: dict,
               checks: Checks) -> list:
    def train_stage(dataset, out, per_round, full_report):
        clips = len(json.loads((dataset / "manifest.json").read_text())["splits"]["train"])
        return Stage("train", ["train", "--dataset", dataset, "--mode", "dnm", "--fusion",
                               "cdf", "--epochs", 1, "--seed", seed, "--out", out],
                     per_round, work=2 * clips,  # each positive plus one negative
                     check=checks.train(dataset, out, full_report))

    def eval_stage(annotations, heatmaps, grid, out, per_round):
        return Stage("eval", ["eval", "--annotations", annotations, "--heatmaps", heatmaps,
                              "--grid-w", grid, "--grid-h", grid, "--out", out],
                     per_round, work=count_frames(annotations), check=checks.eval(out))

    def gradcheck_stage(draws, per_round):
        argv = ["gradcheck", "--seed", seed]
        if draws is not None:
            argv += ["--draws", draws]
        return Stage("gradcheck", argv, per_round, check=checks.gradcheck())

    grid = inputs["grid"]
    evaluate = eval_stage(grid / "annotations_test.jsonl", grid / "heatmaps.avhm",
                          size["grid"][workload][1], run_dir / "eval",
                          1 if workload == "eval-grid24" else 2)
    tiny_train = train_stage(inputs["tiny"], run_dir / "tiny_train", 2, full_report=False)
    if workload == "train-cdf":
        return [train_stage(inputs["data"], run_dir / "train", 1, full_report=True),
                evaluate, gradcheck_stage(1, 2)]
    if workload == "eval-grid24":
        return [evaluate, tiny_train, gradcheck_stage(1, 1)]
    return [gradcheck_stage(size["main_draws"], 1), tiny_train, evaluate]


def run_round(runner: Runner, stages: list, record=True):
    """Run each stage per_round times. The machine's speed drifts over
    seconds, so the small stages run half before and half after the main
    one, and their samples span the round as the main one's do."""
    main, small = stages[0], stages[1:]
    schedule = ([s for s in small for _ in range(s.per_round // 2)]
                + [main] * main.per_round
                + [s for s in small for _ in range(s.per_round - s.per_round // 2)])
    for stage in schedule:
        ok, wall, stdout = runner.cli(stage.argv)
        if not ok:
            continue
        try:
            problems = stage.check(stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"check of avsol {stage.command} raised {exc!r}"]
        for problem in problems:
            runner.ledger.fail(problem)
        if record:
            stage.walls.append(wall)


def stage_metrics(stages: list) -> dict:
    """The three throughput/time metrics, each a median over its stage's runs."""
    out = {}
    for stage in stages:
        # a stage without one successful run has already failed the run; 0 marks it
        wall = statistics.median(stage.walls) if stage.walls else 0.0
        if stage.command == "gradcheck":
            out["gradcheck_s"] = {"value": wall, "unit": "s"}
        else:
            name = "train_samples_per_s" if stage.command == "train" else "eval_frames_per_s"
            out[name] = {"value": stage.work / wall if wall else 0.0, "unit": "1/s"}
    return out


def quality_metrics(stages: list) -> dict:
    """HmBoxAUC, PiBR and PNSR of the trained model when training is the
    workload's main command, else of the evaluated seeded heatmaps."""
    if stages[0].command == "train":
        log = Path(stages[0].argv[-1]) / "train_log.jsonl"
        report = json.loads(log.read_text().splitlines()[-1])["test_metrics"]
    else:
        out_dir = Path(next(s for s in stages if s.command == "eval").argv[-1])
        report = json.loads((out_dir / "report.json").read_text())
    return {"test_hmbox_auc": {"value": report["hmbox_auc"]["all"], "unit": "ratio"},
            "test_pibr": {"value": report["pibr"]["all"], "unit": "ratio"},
            "test_pnsr": {"value": report["pnsr"]["all"], "unit": "ratio"}}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass (set-up plus one round)


def layer_metrics(tracer: spans.Tracer, overhead_s: float, untraced_s: float) -> dict:
    table = tracer.table()

    def total(name, scale):
        return table.get(name, {}).get("total_s", 0.0) * scale

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_ms(name):
        return table.get(name, {}).get("self_s", 0.0) * 1e3

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for op in OPS:
        put(f"tensor.{op}.fwd_ms", total(f"tensor.{op}", 1e3), "ms")
        put(f"tensor.{op}.bwd_ms", total(f"tensor.{op}.bwd", 1e3), "ms")
        put(f"tensor.{op}.calls", calls(f"tensor.{op}"), "count")
    put("tensor.backward_ms", total("tensor.backward", 1e3), "ms")
    put("tensor.adam_step_ms", total("tensor.adam_step", 1e3), "ms")
    steps = tracer.steps()
    nodes = tracer.spans_within([f"tensor.{op}" for op in OPS], steps)
    put("tensor.nodes_per_sample", nodes / max(1, len(steps)), "count")
    put("tensor.unused_graph_share",
        1.0 - tracer.nodes_backpropagated / max(1, tracer.nodes_built), "ratio")
    put("tensor.save_checkpoint_ms", total("tensor.save_checkpoint", 1e3), "ms")

    put("dnm.forward_ms", total("dnm.forward", 1e3), "ms")
    put("dnm.forward.calls", calls("dnm.forward"), "count")
    for part in ("encode_visual", "encode_audio", "static_fusion", "dynamic_fusion",
                 "heads", "loss"):
        put(f"dnm.{part}_ms", total(f"dnm.{part}", 1e3), "ms")
    put("dnm.predict_heatmaps_s", total("dnm.predict_heatmaps", 1.0), "s")
    step_ms = (steps[:, 1] - steps[:, 0]) * 1e3 if len(steps) else np.zeros(1)
    put("dnm.step_ms.p50", np.percentile(step_ms, 50), "ms")
    put("dnm.step_ms.p95", np.percentile(step_ms, 95), "ms")

    put("synth.generate_dataset_s", total("synth.generate_dataset", 1.0), "s")
    for fn in ("generate_clip", "write_clip", "read_clip", "load_split"):
        put(f"synth.{fn}_ms", total(f"synth.{fn}", 1e3), "ms")
    put("synth.make_negative_pair_us", total("synth.make_negative_pair", 1e6), "us")

    put("annotation.parse_annotations_ms", total("annotation.parse_annotations", 1e3), "ms")
    put("annotation.serialize_annotations_ms",
        total("annotation.serialize_annotations", 1e3), "ms")
    put("annotation.rasterize_boxes_us", total("annotation.rasterize_boxes", 1e6), "us")
    put("annotation.classify_frame_us", total("annotation.classify_frame", 1e6), "us")
    put("annotation.rasterize_per_frame",
        calls("annotation.rasterize_boxes") / max(1, tracer.ave_frames), "calls/frame")

    put("metrics.evaluate_ms", total("metrics.evaluate", 1e3), "ms")
    put("metrics.hmbox_auc_us", total("metrics.hmbox_auc", 1e6), "us")
    for fn in ("pibr", "pnsr", "read_heatmaps", "write_heatmaps"):
        put(f"metrics.{fn}_ms", total(f"metrics.{fn}", 1e3), "ms")

    put("gradcheck.check_ops_s", total("gradcheck.check_ops", 1.0), "s")
    put("gradcheck.check_model_s", total("gradcheck.check_model", 1.0), "s")
    put("gradcheck.grad_check.calls", calls("gradcheck.grad_check"), "count")

    for command in ("gen", "train", "eval", "gradcheck"):
        put(f"cli.{command}.self_ms", self_ms(f"cli.{command}"), "ms")

    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_share", overhead_s / untraced_s, "ratio")
    return m


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library (Linux only)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, seconds, trace) -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):  # no git installed
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_commit": commit}


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(runner: Runner, workload, seed, seconds, size, work_dir: Path):
    """Untraced run: (end-to-end metrics, wall time of every timed run)."""
    setup_walls = []
    while len(setup_walls) < 3 or (sum(setup_walls) < 1.0 and len(setup_walls) < 20):
        where = work_dir / f"setup{len(setup_walls)}"
        if setup_walls:
            shutil.rmtree(work_dir / f"setup{len(setup_walls) - 1}")
        t0 = time.perf_counter()
        inputs = setup(runner, workload, where, seed, size)
        setup_walls.append(time.perf_counter() - t0)
    checks = Checks(runner.avsol)
    stages = stages_for(workload, inputs, work_dir / "run", seed, size, checks)
    warm_up(runner, inputs, work_dir, seed)

    t0 = time.perf_counter()
    rounds = 0
    while rounds < 2 or (time.perf_counter() - t0 < seconds and rounds < 50):
        run_round(runner, stages)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    metrics.update(stage_metrics(stages))
    walls = {"setup": setup_walls, **{f"{i}-{s.command}": s.walls for i, s in enumerate(stages)}}
    return metrics, {"walls": walls}


def measure_traced(runner: Runner, workload, seed, size, work_dir: Path):
    """One untraced and one traced pass: (per-layer metrics of the traced
    one, their wall times). Every span's totals go to trace.json."""
    t0 = time.perf_counter()
    setup(runner, workload, work_dir / "setup0", seed, size)
    untraced_setup = time.perf_counter() - t0

    tracer = spans.Tracer()
    with runner.tracing(tracer):
        t0 = time.perf_counter()
        inputs = setup(runner, workload, work_dir / "setup1", seed, size)
        traced_setup = time.perf_counter() - t0

    checks = Checks(runner.avsol)
    stages = stages_for(workload, inputs, work_dir / "run", seed, size, checks)
    warm_up(runner, inputs, work_dir, seed)
    t0 = time.perf_counter()
    run_round(runner, stages, record=False)
    untraced_round = time.perf_counter() - t0

    with runner.tracing(tracer):
        t0 = time.perf_counter()
        run_round(runner, stages, record=False)
        traced_round = time.perf_counter() - t0

    untraced = untraced_setup + untraced_round
    overhead = traced_setup + traced_round - untraced
    metrics = layer_metrics(tracer, overhead, untraced)
    try:
        metrics.update(quality_metrics(stages))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        runner.ledger.fail(f"no quality report: {exc!r}")
        metrics.update({name: {"value": 0.0, "unit": "ratio"}
                        for name in ("test_hmbox_auc", "test_pibr", "test_pnsr")})
    (work_dir / "trace.json").write_text(json.dumps(tracer.table(), sort_keys=True, indent=1))
    return metrics, {"untraced_s": untraced, "traced_s": untraced + overhead,
                     "spans": len(tracer.start)}


def warm_up(runner: Runner, inputs: dict, work_dir: Path, seed: int):
    """A discarded training on the tiny split: the first model run in a
    process is slower than the rest."""
    runner.cli(["train", "--dataset", inputs["tiny"], "--mode", "dnm", "--fusion", "cdf",
                "--epochs", 1, "--seed", seed, "--out", work_dir / "run" / "tiny_train"])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for the smoke check only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    avsol = import_avsol()
    size = SIZES["toy" if args.toy else "full"]
    work_dir = ROOT / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = environment(args.workload, args.seed, args.seconds, args.trace)

    ledger = Ledger()
    runner = Runner(avsol, ledger)
    try:
        if args.trace:
            metrics, details = measure_traced(runner, args.workload, args.seed, size, work_dir)
        else:
            metrics, details = measure(runner, args.workload, args.seed, args.seconds, size,
                                       work_dir)
    finally:  # generated data only; results stay
        for child in work_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (work_dir / "result.json").write_text(json.dumps(
        {"environment": env, "problems": ledger.problems, **details, **result}, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
