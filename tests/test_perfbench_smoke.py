"""Runs the benchmark's smoke check, perfbench/smoke.py, from the repository
root. A removed CLI flag or traced name then fails the unit suite, not only
the benchmark. Nothing under perfbench/ is changed."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"


def test_benchmark_smoke_check_passes():
    before = set(WORK.glob("*"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                              capture_output=True, text=True, timeout=900, check=False)
    finally:  # each benchmark run leaves a result folder; keep none of the smoke's
        for path in set(WORK.glob("*")) - before:
            shutil.rmtree(path, ignore_errors=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
