"""Run configuration: plain-text INI with sections, resolved and validated.

Sections:

    [manifold]  kind, dimension, curvature; surface models add either
                profile = bump (built-in f(u) = offset + cos u) with
                u_min/u_max/offset, or profile_file = CSV with columns
                u, f[, df, d2f]; numeric models also take
                injectivity_bound and optional loop_length.
    [lens]      R, r, and optionally pairs = "R1,r1; R2,r2; ..." for verify.
    [run]       grid, budget, seed, out, expect_counterexample.
    [tolerances] optional overrides, see Tolerances fields.

Every parsed value is checked against the module preconditions before any
computation starts; violations raise :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import functools
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from geolens.errors import ConfigError
from geolens.manifolds import (
    Euclidean,
    Hyperbolic,
    Manifold,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
)


def atomic_write(path, text: str):
    """Write text to path via a temp file and rename (no partial outputs)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".geolens-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Tolerances:
    on_manifold: float = 1e-10
    roundtrip: float = 1e-8
    boundary: float = 1e-9
    nesting: float = 1e-9
    radii: float = 1e-6
    width_threshold: float = 1e-7
    monotone_slack: float = 1e-7


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    dimension: int = 2
    curvature: float = 0.0
    profile_name: str | None = None
    profile_file: str | None = None
    u_min: float = -0.6
    u_max: float = 0.6
    offset: float = 2.0
    step: float = 2e-3
    injectivity_bound: float | None = None
    loop_length: float | None = None

    def build(self) -> Manifold:
        if self.kind == "euclidean":
            return Euclidean(self.dimension)
        if self.kind == "sphere":
            if self.curvature <= 0:
                raise ConfigError("sphere needs curvature > 0")
            return Sphere(self.dimension, self.curvature)
        if self.kind == "hyperbolic":
            if self.curvature >= 0:
                raise ConfigError("hyperbolic needs curvature < 0")
            return Hyperbolic(self.dimension, self.curvature)
        if self.kind == "surface_of_revolution":
            if self.dimension != 2:
                raise ConfigError("surface_of_revolution requires dimension = 2")
            if self.profile_file:
                table = np.loadtxt(self.profile_file, delimiter=",", skiprows=1, ndmin=2)
                cols = table.shape[1]
                profile = RevolutionProfile.from_table(
                    table[:, 0],
                    table[:, 1],
                    table[:, 2] if cols > 2 else None,
                    table[:, 3] if cols > 3 else None,
                )
            elif self.profile_name in (None, "bump"):
                profile = RevolutionProfile.cosine_bump(self.u_min, self.u_max, self.offset)
            else:
                raise ConfigError(f"unknown built-in profile '{self.profile_name}'")
            return SurfaceOfRevolution(profile, step=self.step)
        raise ConfigError(f"unknown manifold kind '{self.kind}'")


@dataclass(frozen=True)
class RunConfig:
    manifold: ManifoldSpec
    R: float = 1.0
    r: float = 1.0
    pairs: tuple = ()
    grid: int = 200
    budget: int = 4096
    seed: int = 0
    out: str | None = None
    expect_counterexample: bool = False
    tolerances: Tolerances = field(default_factory=Tolerances)

    def all_pairs(self):
        return self.pairs if self.pairs else ((self.R, self.r),)

    def resolved_lines(self):
        """Deterministic ``section.key=value`` echo embedded in reports.

        Written back as an INI file with one ``[section]`` per prefix, it
        loads as this config, ``out`` aside.  Unset keys are left empty.
        """
        ms = self.manifold
        lines = [
            f"manifold.kind={ms.kind}",
            f"manifold.dimension={ms.dimension}",
            f"manifold.curvature={_num(ms.curvature)}",
        ]
        if ms.kind == "surface_of_revolution":
            lines += [
                f"manifold.profile={ms.profile_name or ''}",
                f"manifold.profile_file={ms.profile_file or ''}",
                f"manifold.u_min={_num(ms.u_min)}",
                f"manifold.u_max={_num(ms.u_max)}",
                f"manifold.offset={_num(ms.offset)}",
                f"manifold.step={_num(ms.step)}",
                f"manifold.injectivity_bound={_opt(ms.injectivity_bound)}",
                f"manifold.loop_length={_opt(ms.loop_length)}",
            ]
        lines += [
            "lens.pairs=" + ";".join(f"{_num(R)},{_num(r)}" for R, r in self.all_pairs()),
            f"run.grid={self.grid}",
            f"run.budget={self.budget}",
            f"run.seed={self.seed}",
        ]
        if self.expect_counterexample:
            lines.append("run.expect_counterexample=1")
        tol = self.tolerances
        lines += [f"tolerances.{f.name}={_num(getattr(tol, f.name))}" for f in fields(tol)]
        return lines


def _num(x: float) -> str:
    """``:g`` where it reads back as the same float, else ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _opt(x) -> str:
    return "" if x is None else str(x)


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad radius pair '{chunk}' (expected 'R,r')")
        pairs.append((float(parts[0]), float(parts[1])))
    return tuple(pairs)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration.

    ``overrides`` (e.g. from CLI flags) are applied before validation so a
    flag like --expect-counterexample can admit large radii.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys R and r must stay distinct
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    try:
        man = parser["manifold"] if parser.has_section("manifold") else {}
        spec = ManifoldSpec(
            kind=man.get("kind", "euclidean").strip().lower(),
            dimension=int(man.get("dimension", 2)),
            curvature=float(man.get("curvature", _default_curvature(man.get("kind", "euclidean")))),
            profile_name=man.get("profile") or None,
            profile_file=man.get("profile_file") or None,
            u_min=float(man.get("u_min", -0.6)),
            u_max=float(man.get("u_max", 0.6)),
            offset=float(man.get("offset", 2.0)),
            step=float(man.get("step", 2e-3)),
            injectivity_bound=_opt_float(man.get("injectivity_bound")),
            loop_length=_opt_float(man.get("loop_length")),
        )
        lens_sec = parser["lens"] if parser.has_section("lens") else {}
        run_sec = parser["run"] if parser.has_section("run") else {}
        tol_sec = parser["tolerances"] if parser.has_section("tolerances") else {}
        tol_kwargs = {
            f.name: float(tol_sec[f.name]) if f.name in tol_sec else f.default
            for f in fields(Tolerances)
        }
        pairs = _parse_pairs(lens_sec.get("pairs", ""))
        default_R, default_r = pairs[0] if pairs else (1.0, 1.0)
        R = float(lens_sec.get("R", default_R))
        r = float(lens_sec.get("r", default_r))
        config = RunConfig(
            manifold=spec,
            R=R,
            r=r,
            pairs=pairs or ((R, r),),
            grid=int(run_sec.get("grid", 200)),
            budget=int(run_sec.get("budget", 4096)),
            seed=int(run_sec.get("seed", 0)),
            out=run_sec.get("out", None),
            expect_counterexample=str(run_sec.get("expect_counterexample", "0")).strip()
            in ("1", "true", "yes"),
            tolerances=Tolerances(**tol_kwargs),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    validate_config(config)
    return config


def _default_curvature(kind):
    kind = (kind or "euclidean").strip().lower()
    if kind == "sphere":
        return 1.0
    if kind == "hyperbolic":
        return -1.0
    return 0.0


def _opt_float(value):
    return None if value is None or str(value).strip() == "" else float(value)


def validate_config(config: RunConfig):
    """Check module preconditions up front; raises ConfigError."""
    spec = config.manifold
    if spec.dimension < 2:
        raise ConfigError("dimension must be at least 2")
    manifold = spec.build()  # raises on malformed manifold blocks
    if config.grid < 2:
        raise ConfigError("grid must be >= 2")
    if config.budget < 1:
        raise ConfigError("budget must be >= 1")
    conv = convexity_bound_for(config, manifold)
    for R, r in config.all_pairs():
        if not (0 < r <= R):
            raise ConfigError(f"radii must satisfy 0 < r <= R (got {R}, {r})")
        if not config.expect_counterexample and not R < conv:
            raise ConfigError(
                f"R={R:g} is not below the convexity radius {conv:g}; "
                "pass --expect-counterexample to study that regime"
            )


def convexity_bound_for(config: RunConfig, manifold: Manifold) -> float:
    """Radius below which the configured model's balls are convex.

    A closed-form model gives its convexity radius.  The numeric surface
    gives a bound from its focal radius and the configured injectivity
    bound; that focal scan is computed once per manifold spec.
    """
    if not manifold.closed_form:
        return _surface_convexity_bound(config.manifold)
    return manifold.convexity_radius()


@functools.lru_cache(maxsize=16)
def _surface_convexity_bound(spec: ManifoldSpec) -> float:
    inj = spec.injectivity_bound
    if inj is None:
        raise ConfigError("surface_of_revolution requires injectivity_bound in [manifold]")
    from geolens.radii import focal_radius

    foc = focal_radius(spec.build(), directions=16)
    if foc.lower_bound_only and foc.value < inj / 2:
        return foc.value  # conservative: at least this much is convex
    return min(foc.value, inj / 2)
