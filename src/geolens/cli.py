"""Command-line front end.

Subcommands: profile, verify, radii.  ``verify`` runs every claim, the
report-only probes among them; with ``--expect-counterexample`` it runs the
large-ball sphere scenario instead.
Exit codes: 0 success, 1 claim failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

from geolens.config import RunConfig, atomic_write, convexity_bound_for, load_config
from geolens.errors import ConfigError, GeolensError
from geolens.lens import BallPair, w_profile
from geolens.radii import radii_report
from geolens.suite import run_counterexample, run_verification_suite

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geolens",
        description="Geodesic-ball overlap widths and supporting geometry on model manifolds.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, doc in [
        ("profile", "sample the overlap width profile and write it as CSV"),
        ("verify", "run the verification suite (exit 1 on claim failure)"),
        ("radii", "print the radii report of the configured manifold"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--grid", type=int, default=None, help="override [run] grid")
        p.add_argument("--budget", type=int, default=None, help="override [run] budget")
        p.add_argument("--out", default=None, help="override [run] out path")
        p.add_argument(
            "--expect-counterexample",
            action="store_true",
            help="admit radii at or beyond the convexity radius; verify then "
            "runs the large-ball sphere scenario",
        )
    return parser


def _resolve(args) -> RunConfig:
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "grid", "budget", "out")
        if getattr(args, key) is not None
    }
    if args.expect_counterexample:
        overrides["expect_counterexample"] = True
    return load_config(args.config, overrides)


def _cmd_profile(config: RunConfig) -> int:
    manifold = config.manifold.build()
    conv = math.inf if config.expect_counterexample else convexity_bound_for(config, manifold)
    R, r = config.pairs[0]
    bp = BallPair.create(manifold, R, r, convexity_bound=conv)
    profile = w_profile(bp, grid=config.grid, budget=config.budget, seed=config.seed)
    out = config.out or "profile.csv"
    profile.to_csv(out, config_lines=config.resolved_lines())
    print(f"wrote {out} ({config.grid} rows)")
    print(profile.summary())
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    if config.expect_counterexample:
        report = run_counterexample(config)
    else:
        report = run_verification_suite(config)
    print(report.to_text())
    if config.out:
        _write_records(config.out, report)
        print(f"wrote {config.out}")
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILURE


def _cmd_radii(config: RunConfig) -> int:
    manifold = config.manifold.build()
    report = radii_report(
        manifold,
        certified_injectivity=config.manifold.injectivity_bound,
        certified_loop_length=config.manifold.loop_length,
    )
    width = max(len(name) for name, _ in report.fields())
    print(f"radii report for {report.manifold_label}")
    for name, value in report.fields():
        print(f"  {name:<{width}}  {value.render():>14}  [{value.provenance}]")
    residuals = report.identity_residuals()
    for name, res in residuals.items():
        shown = "skipped" if math.isnan(res) else f"{res:.3e}"
        print(f"  identity {name:<18} residual {shown}")
    if config.out:
        lines = ["field,value,lower_bound_only,provenance"]
        for name, value in report.fields():
            lines.append(
                f"{name},{value.value!r},{int(value.lower_bound_only)},{value.provenance}"
            )
        atomic_write(config.out, "\n".join(lines) + "\n")
        print(f"wrote {config.out}")
    return EXIT_OK


def _write_records(path, report) -> None:
    lines = ["claim,status,margin,summary"]
    for rec in report.to_records():
        summary = rec["summary"].replace('"', "'")
        lines.append(f'{rec["claim"]},{rec["status"]},{rec["margin"]},"{summary}"')
    atomic_write(path, "\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG_ERROR
    try:
        config = _resolve(args)
        handler = {
            "profile": _cmd_profile,
            "verify": _cmd_verify,
            "radii": _cmd_radii,
        }[args.command]
        return handler(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GeolensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAILURE


if __name__ == "__main__":
    sys.exit(main())
