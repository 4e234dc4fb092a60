"""The benchmark harness runs on this tree: a workload that calls a name
the package no longer has fails here, not only in the benchmark."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_passes():
    # tiny inputs through every workload, traced and untraced; the harness
    # writes only under perfbench/out, which is not tracked
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
