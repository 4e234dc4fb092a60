"""Run configuration: plain-text INI with sections, resolved and validated.

Sections and the keys each one reads:

    [manifold]   kind, dimension, curvature; surface models add either
                 profile = bump (built-in f(u) = offset + cos u) with
                 u_min, u_max, offset, or profile_file = CSV with columns
                 u, f[, df, d2f]; then step, the grid of every integration
                 on the surface (exp and shooting, the geodesic line, the
                 Jacobi radii scans), whose DOP853 steps span at most 20
                 grid steps in exp, shooting and the line and 20 to 40 in
                 the radii scans, where each direction's error estimate
                 sizes them, injectivity_bound (required on the surface; > 0, and
                 the focal scan of the convexity bound stops at half of it
                 once that decides the bound) and loop_length (> 0).  Every float of [manifold] must be
                 finite.
    [lens]       pairs = "R1,r1; R2,r2; ..."; R and r name the first pair
                 (profile runs it, verify runs every pair).
    [run]        grid, budget, seed, out, expect_counterexample.

Any other section or key raises :class:`ConfigError` naming it, and so
does a surface-only ``[manifold]`` key on another kind.  A key left
out takes the default of its ``ManifoldSpec``/``RunConfig`` field.  Every
parsed value is checked against the module preconditions before any
computation starts; violations raise :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from geolens.errors import ConfigError
from geolens.lens import DEFAULT_BUDGET, DEFAULT_GRID
from geolens.manifolds import (
    BUMP_OFFSET,
    BUMP_U_MAX,
    BUMP_U_MIN,
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
class ManifoldSpec:
    kind: str = "euclidean"
    dimension: int = 2
    curvature: float = 0.0
    profile: str | None = None
    profile_file: str | None = None
    u_min: float = BUMP_U_MIN
    u_max: float = BUMP_U_MAX
    offset: float = BUMP_OFFSET
    step: float = Manifold.step
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
            if not self.profile_file and self.profile not in (None, "bump"):
                raise ConfigError(f"unknown built-in profile '{self.profile}'")
            # a ValueError of the model, or an OSError of the file, leaves as a
            # ConfigError naming the keys the failing step read
            keys = (
                "manifold.profile_file"
                if self.profile_file
                else "manifold.u_min, manifold.u_max, manifold.offset"
            )
            try:
                if self.profile_file:
                    table = np.loadtxt(self.profile_file, delimiter=",", skiprows=1, ndmin=2)
                    cols = table.shape[1]
                    profile = RevolutionProfile.from_table(
                        table[:, 0],
                        table[:, 1],
                        table[:, 2] if cols > 2 else None,
                        table[:, 3] if cols > 3 else None,
                    )
                else:
                    profile = RevolutionProfile.cosine_bump(self.u_min, self.u_max, self.offset)
                keys = "manifold.step"
                return SurfaceOfRevolution(profile, step=self.step)
            except (ValueError, OSError) as exc:
                raise ConfigError(f"{keys}: {exc}") from exc
        raise ConfigError(f"unknown manifold kind '{self.kind}'")


@dataclass(frozen=True)
class RunConfig:
    manifold: ManifoldSpec
    # the (R, r) lenses; profile runs the first
    pairs: tuple = ((1.0, 1.0),)
    grid: int = DEFAULT_GRID
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    out: str | None = None
    expect_counterexample: bool = False

    def all_pairs(self):
        return self.pairs

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
                f"manifold.profile={ms.profile or ''}",
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


# the parser of a setting, by the annotation of its field (a string, as this
# module postpones annotations)
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "str | None": lambda text: text or None,
    "float | None": lambda text: float(text) if text.strip() else None,
    "bool": lambda text: text.strip() in ("1", "true", "yes"),
}


def _parsers(cls, names=None) -> dict:
    return {f.name: _PARSERS[f.type] for f in fields(cls) if names is None or f.name in names}


# The keys each section understands, with their parsers.  A key names the
# field it sets, of ManifoldSpec or of RunConfig; lens.R and lens.r set the
# first of the pairs.
_KEYS = {
    "manifold": {**_parsers(ManifoldSpec), "kind": str.lower},
    "lens": {"R": float, "r": float, "pairs": _parse_pairs},
    "run": _parsers(RunConfig, ("grid", "budget", "seed", "out", "expect_counterexample")),
}

# the [manifold] keys only the surface reads; the other kinds reject them
_SURFACE_KEYS = frozenset(_KEYS["manifold"]) - {"kind", "dimension", "curvature"}

# curvature of a model whose [manifold] sets none
_DEFAULT_CURVATURE = {"sphere": 1.0, "hyperbolic": -1.0}
# kinds that read no curvature: they reject one by name, but accept the 0
# their echo writes for the unread field
_UNCURVED_KINDS = ("euclidean", "surface_of_revolution")


def _read_sections(parser: configparser.ConfigParser) -> dict:
    """``{section: {key: value}}`` for every section of ``_KEYS``, holding
    the keys the file sets; raises ConfigError naming an unknown section or
    key, or a value its parser rejects."""
    values = {section: {} for section in _KEYS}
    for section in parser.sections():
        known = _KEYS.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(_KEYS)}")
        for key, text in parser[section].items():
            if key not in known:
                raise ConfigError(
                    f"unknown key {section}.{key}; [{section}] reads {', '.join(known)}"
                )
            try:
                values[section][key] = known[key](text)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {section}.{key}: {exc}") from exc
    return values


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
    sections = _read_sections(parser)

    man = sections["manifold"]
    kind = man.get("kind", ManifoldSpec.kind)
    surface_only = [f"manifold.{key}" for key in man if key in _SURFACE_KEYS]
    if surface_only and kind != "surface_of_revolution":
        raise ConfigError(
            f"{', '.join(surface_only)}: only kind = surface_of_revolution reads "
            f"{'this key' if len(surface_only) == 1 else 'these keys'}, not kind = {kind}"
        )
    if kind in _UNCURVED_KINDS and man.get("curvature", 0.0) != 0.0:
        raise ConfigError(
            f"manifold.curvature = {man['curvature']:g}: kind = {kind} reads no "
            "curvature; only kind = sphere or hyperbolic reads this key"
        )
    man.setdefault("curvature", _DEFAULT_CURVATURE.get(kind, ManifoldSpec.curvature))
    lens = sections["lens"]
    pairs = lens.get("pairs")
    R, r = pairs[0] if pairs else RunConfig.pairs[0]
    R, r = lens.get("R", R), lens.get("r", r)
    if pairs and (R, r) != pairs[0]:
        raise ConfigError(
            f"lens.R, lens.r = ({R:g}, {r:g}) disagree with the first of "
            f"lens.pairs ({pairs[0][0]:g}, {pairs[0][1]:g})"
        )
    config = RunConfig(
        manifold=ManifoldSpec(**man), pairs=pairs or ((R, r),), **sections["run"]
    )
    if overrides:
        config = replace(config, **overrides)
    validate_config(config)
    return config


def validate_config(config: RunConfig):
    """Check module preconditions up front; raises ConfigError."""
    if not config.pairs:
        raise ConfigError("no lens: lens.pairs is empty")
    spec = config.manifold
    if spec.dimension < 2:
        raise ConfigError("dimension must be at least 2")
    for field in fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"manifold.{field.name} = {value} must be finite")
    for key in ("injectivity_bound", "loop_length"):
        value = getattr(spec, key)
        if value is not None and not value > 0:
            raise ConfigError(f"manifold.{key} = {value:g} must be > 0")
    manifold = spec.build()  # raises on malformed manifold blocks
    if config.grid < 2:
        raise ConfigError("grid must be >= 2")
    if config.budget < 1:
        raise ConfigError("budget must be >= 1")
    if config.seed < 0:
        raise ConfigError(f"run.seed = {config.seed} must be >= 0")
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
    gives min(focal, injectivity_bound / 2), from a 16-direction focal scan
    computed once per manifold spec (a focal lower bound below
    injectivity_bound / 2 is returned as it is).  The scan stops at the
    start of its first step at or past injectivity_bound / 2 when no
    direction has a focal zero or has left the chart by then, as no later
    outcome can change the bound; the bound has the bits of the full scan's.
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

    # a focal zero past inj/2 cannot lower the bound, so the scan may stop there
    foc = focal_radius(spec.build(), directions=16, cap=inj / 2)
    if foc.lower_bound_only and foc.value < inj / 2:
        return foc.value  # conservative: at least this much is convex
    return min(foc.value, inj / 2)
