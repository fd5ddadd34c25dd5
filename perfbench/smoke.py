#!/usr/bin/env python3
"""Smoke check of the benchmark at toy size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced on toy
inputs and checks that the last output line names exactly the metrics of
BENCHMARK.json, each with its declared unit and a finite value, that every
metric declares a direction, and that the run is correct. It then checks
that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exit code 0 when everything holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(cwd: Path, workload: str, trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_result(spec: dict, workload: str, trace: int, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: run not correct: {proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result.get("metrics", {})
    for name in sorted(set(declared) ^ set(emitted)):
        problems.append(f"{where}: metric {name} is "
                        f"{'not emitted' if name in declared else 'not declared'}")
    for name in sorted(set(declared) & set(emitted)):
        value, unit = emitted[name].get("value"), emitted[name].get("unit")
        if unit != declared[name]["unit"]:
            problems.append(f"{where}: {name} unit {unit!r} != {declared[name]['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_spec(spec: dict) -> list:
    problems = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if metric.get("better") not in ("higher", "lower"):
                problems.append(f"{metric['name']}: direction {metric.get('better')!r}")
    for metric in spec["end_to_end"]:
        if not 0 < metric.get("bound", 0) <= 0.25:
            problems.append(f"{metric['name']}: bound {metric.get('bound')!r}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s end-to-end metric")
    return problems


def check_bare_directory(spec: dict) -> list:
    """Without the program's sources the benchmark must fail without a result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{\"correct\""):
        return [f"bare directory: exit code {proc.returncode}, output {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = check_bare_directory(spec)
    print(f"bare directory refused: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
