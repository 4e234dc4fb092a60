"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``run.py``, never by hand.  Prints one JSON object as its last
line of standard output:

* ``--setup-only``: ``{"setup_s": ...}``, the time to import geolens and
  build the workload's config, manifold and ball pair.
* otherwise: set-up time, the wall time of each body repeat (run until
  ``--seconds`` have passed), peak RSS, the result fingerprint, the checks,
  and with ``--trace 1`` the per-layer metrics of one extra traced repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter


def _setup(name, seed, out_dir, smoke):
    start = perf_counter()
    import geolens  # noqa: F401  (timed: part of the set-up cost)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, out_dir, smoke)
    workload.setup()
    return workload, perf_counter() - start


class Checks:
    """Counts checks attempted and keeps the message of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")


def _ascent_audit(tracer, lens_diameter):
    """Ascent gain per traced ``lens_diameter`` call, with refine=False."""
    gains = []
    for arguments, refined in tracer.diameter_calls:
        if not arguments.get("refine", True):
            continue
        plain = dict(arguments, refine=False)
        gains.append(refined - lens_diameter(**plain).value)
    if not gains:
        return {"gain_max": 0.0, "useful_ratio": 0.0}
    return {
        "gain_max": max(gains),
        "useful_ratio": sum(g > 0.0 for g in gains) / len(gains),
    }


def run(args):
    workload, setup_s = _setup(args.workload, args.seed, args.out_dir, args.smoke)
    import geolens
    from tracer import Tracer

    checks = Checks()
    result = {
        "kernel_backend": geolens.kernel_backend,
        "geolens_file": geolens.__file__,
        "setup_s": setup_s,
        "wall_s": [],
    }
    first = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out = workload.body()
        result["wall_s"].append(perf_counter() - t0)
        fp = workload.fingerprint(out)
        if first is None:
            first, first_out = fp, out
        else:
            checks.add("fingerprint_repeat", fp == first, f"{fp} != {first}")
        if perf_counter() - start >= args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["fingerprint"] = first
    for name, passed, detail in workload.oracles(first_out):
        checks.add(name, bool(passed), detail)

    if args.trace:
        tracer = Tracer()
        tracer.install(type(workload.manifold))
        try:
            traced = type(workload)(args.seed, args.out_dir, args.smoke)
            traced.setup()
            t0 = perf_counter()
            out = traced.body()
            traced_wall = perf_counter() - t0
        finally:
            tracer.restore()
        fp = traced.fingerprint(out)
        checks.add("fingerprint_traced", fp == first, f"{fp} != {first}")
        wall = statistics.median(result["wall_s"])
        audit = (
            {"gain_max": None, "useful_ratio": None}
            if "lens.ascent" in tracer.missing or "lens.lens_diameter" in tracer.missing
            else _ascent_audit(tracer, geolens.lens.lens_diameter)
        )
        result["layers"] = tracer.layer_metrics(audit, traced_wall / wall - 1.0)
        result["missing"] = sorted(tracer.missing)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    if os.path.exists(workload.out):
        os.remove(workload.out)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    try:
        if args.setup_only:
            result = {"setup_s": _setup(args.workload, args.seed, args.out_dir, args.smoke)[1]}
        else:
            result = run(args)
    except Exception:  # reported as a failed run, not as a crash of the harness
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
