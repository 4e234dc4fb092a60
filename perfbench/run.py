#!/usr/bin/env python3
"""Benchmark of geolens: end-to-end and per-layer metrics of three workloads.

Run from the root of a source checkout (no build step; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload profile_h21 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30     # table of every workload
    python3 perfbench/run.py --smoke                          # tiny inputs, names check

Workloads (see ``workloads.py`` for why each was chosen): ``profile_h21``,
``verify_s2`` and ``surface_bump``.  Each run starts fresh single-threaded
worker processes (``worker.py``).  The inputs follow from ``--seed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh-process set-ups), ``wall_s`` (mean over the body repeats
made in ``--seconds``), ``peak_rss_mb`` (``ru_maxrss`` of the worker) and
``pass_ratio`` (checks passed / checks attempted).  ``wall_s`` is a mean
because on a shared machine the speed drifts over seconds: the mean covers
the whole measured stretch, where the median of a few repeats drops half of
it, and it varied less between runs (IQR/median 0.07 against 0.10 over five
seeds of profile_h21).  ``--trace 1`` reports
the per-layer metrics of ``tracer.py`` from one extra traced repeat, plus
``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the kernel backend, the fingerprint and any failed checks.  The run
exits with code 2, printing no result, when the checkout holds no geolens
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ["profile_h21", "verify_s2", "surface_bump"]
SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


class RunFailed(Exception):
    """A worker crashed, timed out or printed no result."""


def _worker(args, extra, deadline):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ] + (["--smoke"] if args.smoke else []) + extra
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if "error" in result:
        raise RunFailed(result["error"])
    if "geolens_file" in result and not result["geolens_file"].startswith(src + os.sep):
        raise RunFailed(f"imported geolens from {result['geolens_file']}, not {src}")
    return result


def measure(args):
    """One run: returns (summary line, result line)."""
    deadline = perf_counter() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
        res = _worker(args, [], deadline)
    except RunFailed as exc:
        # an exception counts every check as failed
        detail = {"workload": args.workload, "error": str(exc)}
        return detail, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = max(res["attempted"], 1)
    failed = len(res["failures"])
    if args.trace:
        units = dict(layer_metric_names())
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in res["layers"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "wall_s": statistics.mean(res["wall_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel_backend": res["kernel_backend"],
        "repeats": len(res["wall_s"]),
        "wall_s_repeats": res["wall_s"],
        "setup_s_samples": setups + [res["setup_s"]],
        "fingerprint": res["fingerprint"],
        "failures": res["failures"],
        "missing": res.get("missing", []),
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, line


def _table(rows):
    for workload, detail, line in rows:
        print(f"{workload}  backend={detail.get('kernel_backend', '?')}  "
              f"fail_ratio={line['failed'] / line['attempted']:.4g} "
              f"({line['failed']}/{line['attempted']} checks failed)")
        for name, metric in line["metrics"].items():
            value = metric["value"]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {metric['unit']}")
        for failure in detail.get("failures", []) + [detail.get("error", "")]:
            if failure:
                print(f"  FAILED {failure}")


def smoke(args):
    """Tiny inputs; check every metric name of BENCHMARK.json is emitted."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run_args = argparse.Namespace(**vars(args), workload=workload, trace=trace)
            detail, line = measure(run_args)
            _table([(f"{workload} (trace {trace})", detail, line)])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {trace}: names or units differ from {key}")
            problems += [f"{workload}: {name} missing" for name, m in line["metrics"].items()
                         if m["value"] is None]
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: checks failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, check metric names")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "geolens", "__init__.py")):
        print(f"no geolens sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        del args.workload, args.all, args.trace
        return smoke(args)
    if args.all:
        rows = []
        for workload in WORKLOADS:
            run_args = argparse.Namespace(**dict(vars(args), workload=workload))
            rows.append((workload, *measure(run_args)))
        _table(rows)
        return 0
    if args.workload is None:
        parser.error("give --workload, --all or --smoke")
    detail, line = measure(args)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
