"""Layer timing from outside the program: wrap public entry points in spans.

A :class:`Tracer` replaces each traced function with a wrapper that records
a span (calls, total seconds, self seconds) and per-layer counts.  Spans
nest through a stack, so a layer's self time is its duration minus the time
covered by the traced calls it made.  Spans are aggregated per name as they
close instead of being stored one by one: a profile makes about 100k
traced manifold calls.

Every binding of a wrapped object is patched, not only the defining module:
``suite`` and ``cli`` import ``w_profile`` and friends by name, the package
re-exports them, and ``lens``/``sets`` reach the kernels through the
``_kernels`` module attribute.  :meth:`Tracer.restore` puts every original
back.  A traced name that no longer exists is reported as missing.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute) of the free functions that are traced.
FUNCTIONS = [
    ("lens.w_profile", "geolens.lens", "w_profile"),
    ("lens.sample_intersection", "geolens.lens", "sample_intersection"),
    ("lens.lens_diameter", "geolens.lens", "lens_diameter"),
    ("lens.ascent", "geolens.lens", "_ascend_pair"),
    ("lens.nesting_onset", "geolens.lens", "estimate_nesting_onset"),
    ("lens.full_width_end", "geolens.lens", "estimate_full_width_end"),
    ("kernels.pairwise_max", "geolens._kernels", "pairwise_max"),
    ("kernels.min_dist_to", "geolens._kernels", "min_dist_to"),
    ("sets.hausdorff", "geolens.sets", "hausdorff"),
    ("sets.diameter", "geolens.sets", "diameter"),
    ("radii.radii_report", "geolens.radii", "radii_report"),
    ("radii.focal_radius", "geolens.radii", "focal_radius"),
    ("geodesics.integrate_jacobi", "geolens.geodesics", "integrate_jacobi"),
    ("suite.run_verification_suite", "geolens.suite", "run_verification_suite"),
    ("config.load_config", "geolens.config", "load_config"),
]

# Methods traced on the workload's model class.
METHODS = ["exp_many", "dist_many", "dist_coords", "log_coords"]

# Per-layer metrics the traced run reports, with units.  "calls" and the
# counters are counts; "self_s" is span time minus child span time, and
# "total_s" the whole span time.  The manifold methods are spans of their
# own, so the time of a stage built from them (the ascent calls them about
# 60k times per profile) shows in its total_s, not its self_s.  A layer
# that made no call reports 0 throughout, ns_per_pair included; a layer
# whose function no longer exists reports None.
LAYER_METRICS = {
    "lens.w_profile": ["self_s"],
    "lens.sample_intersection": ["calls", "self_s", "total_s", "points", "repeat_ratio"],
    "lens.lens_diameter": ["calls", "self_s"],
    "lens.ascent": ["calls", "self_s", "total_s", "gain_max", "useful_ratio"],
    "lens.nesting_onset": ["calls", "self_s", "total_s"],
    "lens.full_width_end": ["calls", "self_s", "total_s"],
    "kernels.pairwise_max": ["calls", "self_s", "pairs", "ns_per_pair"],
    "kernels.min_dist_to": ["calls", "self_s", "pairs", "ns_per_pair"],
    "manifolds.exp_many": ["calls", "self_s", "rows"],
    "manifolds.dist_many": ["calls", "self_s", "rows"],
    "manifolds.dist_coords": ["calls", "self_s"],
    "manifolds.log_coords": ["calls", "self_s", "failures"],
    "sets.hausdorff": ["calls", "self_s"],
    "sets.diameter": ["calls", "self_s"],
    "radii.radii_report": ["self_s"],
    "radii.focal_radius": ["calls", "self_s"],
    "geodesics.integrate_jacobi": ["calls", "self_s"],
    "suite.run_verification_suite": ["self_s"],
    "config.load_config": ["self_s"],
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "points": "count",
    "repeat_ratio": "ratio",
    "gain_max": "distance",
    "useful_ratio": "ratio",
    "pairs": "count",
    "ns_per_pair": "ns",
    "rows": "count",
    "failures": "count",
}


def layer_metric_names():
    """Every per-layer metric name, in report order, with its unit."""
    names = [
        (f"{layer}.{field}", UNITS[field])
        for layer, fields in LAYER_METRICS.items()
        for field in fields
    ]
    return names + [("trace.overhead_ratio", "ratio")]


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.sample_keys = []
        self.diameter_calls = []  # (bound arguments, returned value)
        self.missing = set()
        self._stack = []
        self._patched = []  # (owner, attribute, original or _ABSENT)

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, fn, after=None, errors=()):
        stats, counts, stack = self.stats, self.counts, self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[f"{layer}.failures"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats[layer]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_hooks(self, fn_by_layer):
        counts = self.counts

        def binder(fn):
            sig = inspect.signature(fn)

            def bind(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

            return bind

        hooks = {}
        if "lens.sample_intersection" in fn_by_layer:
            bind = binder(fn_by_layer["lens.sample_intersection"])

            def sampled(result, args, kwargs):
                a = bind(args, kwargs)
                bp = a["bp"]
                counts["lens.sample_intersection.points"] += len(result)
                self.sample_keys.append(
                    (bp.manifold.describe(), bp.R, bp.r, bp.t, a["budget"], a["seed"])
                )

            hooks["lens.sample_intersection"] = sampled
        if "lens.lens_diameter" in fn_by_layer:
            bind = binder(fn_by_layer["lens.lens_diameter"])

            def diametered(result, args, kwargs):
                self.diameter_calls.append((bind(args, kwargs), result.value))

            hooks["lens.lens_diameter"] = diametered

        def pairwise(result, args, kwargs):
            n = len(args[0])
            counts["kernels.pairwise_max.pairs"] += n * (n - 1) // 2

        def nearest(result, args, kwargs):
            targets = args[1] if len(args) > 1 else kwargs["targets"]
            counts["kernels.min_dist_to.pairs"] += len(result) * len(targets)

        def rows(layer):
            def hook(result, args, kwargs):
                counts[f"{layer}.rows"] += len(result)

            return hook

        hooks["kernels.pairwise_max"] = pairwise
        hooks["kernels.min_dist_to"] = nearest
        hooks["manifolds.exp_many"] = rows("manifolds.exp_many")
        hooks["manifolds.dist_many"] = rows("manifolds.dist_many")
        return hooks

    # -- patching --------------------------------------------------------

    def install(self, model_class):
        """Wrap every traced function and method of ``model_class``."""
        from geolens.errors import InjectivityError, ShootingError

        found = {}
        for layer, module_name, attr in FUNCTIONS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.missing.add(layer)
            else:
                found[layer] = fn
        hooks = self._count_hooks(found)
        for layer, fn in found.items():
            wrapper = self._wrap(layer, fn, hooks.get(layer))
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "geolens" and not name.startswith("geolens."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        for method in METHODS:
            layer = f"manifolds.{method}"
            fn = getattr(model_class, method, None)
            if fn is None:
                self.missing.add(layer)
                continue
            errors = (ShootingError, InjectivityError) if method == "log_coords" else ()
            own = model_class.__dict__.get(method, _ABSENT)
            self._patched.append((model_class, method, own))
            setattr(model_class, method, self._wrap(layer, fn, hooks.get(layer), errors))

    def restore(self):
        """Put back every original binding, newest first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    # -- report ----------------------------------------------------------

    def layer_metrics(self, audit, overhead_ratio):
        """Per-layer metric values; None marks a layer that no longer exists.

        ``audit`` holds ``gain_max`` and ``useful_ratio`` of the ascent,
        computed outside the traced run.
        """
        derived = {
            "lens.sample_intersection.repeat_ratio": _repeat_ratio(self.sample_keys),
            "lens.ascent.gain_max": audit["gain_max"],
            "lens.ascent.useful_ratio": audit["useful_ratio"],
        }
        for kernel in ("kernels.pairwise_max", "kernels.min_dist_to"):
            pairs = self.counts[f"{kernel}.pairs"]
            derived[f"{kernel}.ns_per_pair"] = 1e9 * self.stats[kernel][2] / pairs if pairs else 0.0
        column = {"calls": 0, "total_s": 1, "self_s": 2}
        out = {}
        for layer, fields in LAYER_METRICS.items():
            for field in fields:
                name = f"{layer}.{field}"
                if layer in self.missing:
                    out[name] = None
                elif field in column:
                    out[name] = self.stats[layer][column[field]]
                else:
                    out[name] = derived[name] if name in derived else self.counts[name]
        out["trace.overhead_ratio"] = overhead_ratio
        return out


_ABSENT = object()


def _repeat_ratio(keys):
    """Share of calls whose key was already sampled earlier in the run."""
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)
