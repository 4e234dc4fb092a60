"""Command-line interface: subcommands, exit codes, CSV determinism."""

import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from geolens import lens as lens_module
from geolens import sets as sets_module
from geolens import suite as suite_module
from geolens.cli import _cmd_profile, main
from geolens.config import ManifoldSpec, RunConfig, load_config, validate_config
from geolens.errors import ConfigError
from geolens.manifolds import RevolutionProfile, SurfaceOfRevolution
from geolens.suite import CLAIM_REGISTRY, REPORT_ONLY

PERFBENCH_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"

EUCLID_CFG = """
[manifold]
kind = euclidean
dimension = 2

[lens]
R = 1.0
r = 1.0

[run]
grid = 40
budget = 1024
seed = 11
"""

SPHERE_CFG = """
[manifold]
kind = sphere
dimension = 2
curvature = 1.0

[lens]
R = 1.2
r = 0.6

[run]
grid = 40
budget = 1024
seed = 11
"""

COUNTEREXAMPLE_CFG = f"""
[manifold]
kind = sphere
curvature = 1.0

[lens]
pairs = {math.pi / 2},{math.pi / 2}

[run]
budget = 2048
seed = 11
"""

SURFACE_CFG = """
[manifold]
kind = surface_of_revolution
dimension = 2
profile = bump
u_min = -0.6
u_max = 0.6
injectivity_bound = 1.0

[lens]
R = 0.3
r = 0.2

[run]
grid = 20
budget = 256
seed = 11
"""


@pytest.fixture
def euclid_config(tmp_path):
    path = tmp_path / "euclid.ini"
    path.write_text(EUCLID_CFG)
    return str(path)


def test_profile_writes_csv_with_summary(euclid_config, tmp_path, capsys):
    out = str(tmp_path / "profile.csv")
    code = main(["profile", "--config", euclid_config, "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "T_est=" in stdout and "S_est=" in stdout
    rows = [ln for ln in open(out).read().strip().split("\n") if not ln.startswith("#")]
    assert len(rows) == 41
    header = rows[0].split(",")
    assert header[:3] == ["t", "w", "slack"] and header[-1] == "nested_after_T"
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2.0)


def test_profile_deterministic_byte_identical(euclid_config, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["profile", "--config", euclid_config, "--out", out1]) == 0
    assert main(["profile", "--config", euclid_config, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_profile_embeds_resolved_config(euclid_config, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["profile", "--config", euclid_config, "--out", out1]) == 0
    assert main(["profile", "--config", euclid_config, "--out", out2, "--seed", "99"]) == 0
    text1, text2 = open(out1).read(), open(out2).read()
    assert "# run.seed=11" in text1
    assert "# run.seed=99" in text2
    assert "# manifold.kind=euclidean" in text1


def _rebuild_ini_from_embedded(csv_text, tmp_path):
    sections = {}
    for line in csv_text.splitlines():
        if not line.startswith("# "):
            break
        key, value = line[2:].split("=", 1)
        section, option = key.split(".", 1)
        sections.setdefault(section, []).append((option, value))
    body = []
    for section, items in sections.items():
        body.append(f"[{section}]")
        body.extend(f"{k} = {v}" for k, v in items)
    path = tmp_path / "rebuilt.ini"
    path.write_text("\n".join(body))
    return str(path)


def test_profile_config_round_trip_reproduces_output(euclid_config, tmp_path):
    out1 = str(tmp_path / "a.csv")
    assert main(["profile", "--config", euclid_config, "--out", out1]) == 0
    rebuilt = _rebuild_ini_from_embedded(open(out1).read(), tmp_path)
    out2 = str(tmp_path / "b.csv")
    assert main(["profile", "--config", rebuilt, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def _profile_table(path):
    # the cosine bump 2 + cos u as a sampled profile
    u = np.linspace(-0.6, 0.6, 61)
    rows = np.column_stack([u, 2.0 + np.cos(u), -np.sin(u), -np.cos(u)])
    np.savetxt(path, rows, delimiter=",", header="u,f,df,d2f", comments="")
    return str(path)


@pytest.mark.parametrize("name", ["euclid", "sphere", "counterexample", "surface"])
def test_config_echo_rebuilds_an_equal_config(name, tmp_path):
    text = {
        "euclid": EUCLID_CFG,
        "sphere": SPHERE_CFG,
        "counterexample": COUNTEREXAMPLE_CFG,
        "surface": f"""
[manifold]
kind = surface_of_revolution
profile_file = {_profile_table(tmp_path / "bump.csv")}
step = 1e-3
injectivity_bound = 1.0

[lens]
R = 0.3
r = 0.2
""",
    }[name]
    cfg = tmp_path / "original.ini"
    cfg.write_text(text)
    overrides = {"expect_counterexample": True} if name == "counterexample" else None
    original = load_config(str(cfg), overrides)
    echo = "\n".join(f"# {line}" for line in original.resolved_lines())
    rebuilt = load_config(_rebuild_ini_from_embedded(echo, tmp_path))
    assert replace(rebuilt, out=None) == replace(original, out=None)


@pytest.mark.parametrize("radii", ["R = 2.0\nr = 1.0", "R = 2.0", "r = 0.4"])
def test_radii_that_disagree_with_the_first_pair_are_rejected(radii, tmp_path):
    # profile runs lens.R/lens.r while the config echo writes only the pairs,
    # so a disagreement would echo a different lens than the one profiled
    cfg = tmp_path / "mixed.ini"
    cfg.write_text(EUCLID_CFG.replace("R = 1.0\nr = 1.0", f"{radii}\npairs = 1.0,0.5"))
    with pytest.raises(ConfigError, match="disagree"):
        load_config(str(cfg))
    out = str(tmp_path / "mixed.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    agreeing = tmp_path / "agreeing.ini"
    agreeing.write_text(EUCLID_CFG.replace("R = 1.0\nr = 1.0", "R = 1.0\npairs = 1.0,0.5"))
    assert load_config(str(agreeing)).pairs == ((1.0, 0.5),)


@pytest.mark.parametrize(
    "text, named",
    [
        (EUCLID_CFG + "\n[tolerances]\nboundary = 1e-6\n", "[tolerances]"),
        (EUCLID_CFG + "\n[tolerances]\nwidth_threshold = 1e-7\n", "[tolerances]"),
        (EUCLID_CFG.replace("seed = 11", "seed = 11\ngrid_size = 10"), "run.grid_size"),
        (EUCLID_CFG + "\n[solver]\nstep = 1e-3\n", "[solver]"),
    ],
)
def test_unknown_settings_are_rejected_by_name(text, named, tmp_path, capsys):
    cfg = tmp_path / "unknown.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(str(cfg))
    out = str(tmp_path / "unknown.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("sphere", "step = 0.5\noffset = -7"),
        ("sphere", "u_min = 3"),
        ("sphere", "u_max = 0.6"),
        ("euclidean", "profile = bump"),
        ("euclidean", "profile_file = profile.csv"),
        ("hyperbolic", "injectivity_bound = 1.0"),
        ("hyperbolic", "loop_length = 2.0"),
    ],
)
def test_surface_keys_on_closed_form_kinds_are_rejected_by_name(kind, keys, tmp_path, capsys):
    curvature = {"sphere": 1.0, "euclidean": 0.0, "hyperbolic": -1.0}[kind]
    cfg = tmp_path / "closed.ini"
    cfg.write_text(
        SPHERE_CFG.replace("kind = sphere", f"kind = {kind}").replace(
            "curvature = 1.0", f"curvature = {curvature}\n{keys}"
        )
    )
    named = ", ".join(f"manifold.{line.split(' = ')[0]}" for line in keys.splitlines())
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(str(cfg))
    out = str(tmp_path / "closed.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind", ["surface", "euclidean"])
@pytest.mark.parametrize("value", ["5", "-1.0", "1e-9"])
def test_curvature_on_a_kind_without_one_is_rejected_by_name(kind, value, tmp_path, capsys):
    text = SURFACE_CFG if kind == "surface" else EUCLID_CFG
    cfg = tmp_path / "flat.ini"
    cfg.write_text(text.replace("[manifold]", f"[manifold]\ncurvature = {value}"))
    with pytest.raises(ConfigError, match=re.escape("manifold.curvature")):
        load_config(str(cfg))
    out = str(tmp_path / "flat.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    assert "manifold.curvature" in capsys.readouterr().err
    assert not os.path.exists(out)
    # 0, which the echo writes for the unread field, loads and echoes as before
    cfg.write_text(text.replace("[manifold]", "[manifold]\ncurvature = 0"))
    assert "manifold.curvature=0" in load_config(str(cfg)).resolved_lines()


def _with_manifold_settings(text, settings):
    """``text`` with each ``key = value`` line of ``settings`` set in
    [manifold]: replacing that key's line, else added after the header."""
    for line in settings.splitlines():
        key = line.split(" = ")[0]
        pattern = re.compile(rf"^{key} = .*$", re.M)
        if pattern.search(text):
            text = pattern.sub(line, text)
        else:
            text = text.replace("[manifold]", f"[manifold]\n{line}")
    return text


@pytest.mark.parametrize(
    "settings, named",
    [
        ("step = 0", "manifold.step"),
        ("step = -0.01", "manifold.step"),
        ("offset = -5", "manifold.offset"),
        ("u_min = 0.5\nu_max = -0.5", "manifold.u_min"),
        ("profile_file = {tmp}/absent.csv", "manifold.profile_file"),
        ("profile_file = {tmp}/decreasing.csv", "manifold.profile_file"),
        ("step = nan", "manifold.step"),
        ("u_min = -inf", "manifold.u_min"),
        ("u_max = nan", "manifold.u_max"),
        ("offset = inf", "manifold.offset"),
        ("injectivity_bound = nan", "manifold.injectivity_bound"),
        ("injectivity_bound = inf", "manifold.injectivity_bound"),
        ("injectivity_bound = 0", "manifold.injectivity_bound"),
        ("injectivity_bound = -1", "manifold.injectivity_bound"),
        ("loop_length = nan", "manifold.loop_length"),
        ("loop_length = 0", "manifold.loop_length"),
        ("loop_length = -2", "manifold.loop_length"),
    ],
)
def test_malformed_surface_settings_are_configuration_errors(settings, named, tmp_path, capsys):
    # the model's own ValueError (or the file's OSError) leaves as a
    # configuration error naming the keys, before any computation
    (tmp_path / "decreasing.csv").write_text("u,f\n0.5,2.0\n0.0,2.5\n-0.5,2.0\n")
    cfg = tmp_path / "surface.ini"
    cfg.write_text(_with_manifold_settings(SURFACE_CFG, settings.format(tmp=tmp_path)))
    out = str(tmp_path / "surface.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "kind, value",
    [("sphere", "nan"), ("sphere", "inf"), ("hyperbolic", "nan"), ("hyperbolic", "-inf")],
)
def test_non_finite_curvature_is_a_configuration_error(kind, value, tmp_path, capsys):
    # named by its key, not by the radius check that a nan convexity radius fails
    cfg = tmp_path / "curved.ini"
    cfg.write_text(
        SPHERE_CFG.replace("kind = sphere", f"kind = {kind}").replace(
            "curvature = 1.0", f"curvature = {value}"
        )
    )
    named = f"manifold.curvature = {value} must be finite"
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(str(cfg))
    out = str(tmp_path / "curved.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "manifold.curvature" in err and "convexity radius" not in err
    assert not os.path.exists(out)


def test_negative_seed_is_a_configuration_error(euclid_config, tmp_path, capsys):
    out = str(tmp_path / "records.csv")
    assert main(["verify", "--config", euclid_config, "--seed", "-1", "--out", out]) == 2
    assert "run.seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_benchmark_configs_load():
    configs = sorted(PERFBENCH_CONFIGS.glob("*.ini"))
    assert configs
    for path in configs:
        load_config(str(path))


def test_missing_keys_take_the_field_defaults(tmp_path):
    cfg = tmp_path / "minimal.ini"
    cfg.write_text("[manifold]\nkind = Sphere\n")
    expected = RunConfig(manifold=ManifoldSpec(kind="sphere", curvature=1.0), pairs=((1.0, 1.0),))
    assert load_config(str(cfg)) == expected


def test_profile_runs_the_first_pair_it_echoes(tmp_path):
    # a config built in code has one lens: the first of its pairs
    out = str(tmp_path / "profile.csv")
    config = RunConfig(
        manifold=ManifoldSpec(kind="euclidean"), pairs=((1.0, 0.5),), grid=4, out=out
    )
    assert _cmd_profile(config) == 0
    assert "# lens.pairs=1,0.5\n" in open(out).read()
    assert _read_profile_csv(out)["w"][0] == 1.0


def test_empty_pairs_are_rejected():
    with pytest.raises(ConfigError, match="pairs"):
        validate_config(RunConfig(manifold=ManifoldSpec(), pairs=()))


def test_surface_spec_defaults_build_the_built_in_surface():
    built = ManifoldSpec(kind="surface_of_revolution").build()
    direct = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    assert built.step == direct.step
    assert (built.profile.u_min, built.profile.u_max) == (
        direct.profile.u_min,
        direct.profile.u_max,
    )
    us = np.linspace(direct.profile.u_min, direct.profile.u_max, 25)
    assert built.profile.f(us).tobytes() == direct.profile.f(us).tobytes()


def _read_profile_csv(path):
    rows = [ln for ln in open(path).read().strip().split("\n") if not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(header)}


def test_profile_sphere_rows_respect_width_cap(tmp_path):
    cfg = tmp_path / "sphere.ini"
    cfg.write_text(SPHERE_CFG)
    out = str(tmp_path / "prof.csv")
    assert main(["profile", "--config", str(cfg), "--out", out]) == 0
    data = _read_profile_csv(out)
    assert np.all(data["w"] <= 2 * 0.6 + data["slack"] + 1e-12)


def test_profile_counterexample_keeps_the_model_diameter(tmp_path):
    # R = r = pi / 2 on the unit sphere: every lens but the touching one
    # holds a pair of antipodes
    cfg = tmp_path / "ce.ini"
    cfg.write_text(COUNTEREXAMPLE_CFG)
    out = str(tmp_path / "ce.csv")
    argv = ["profile", "--config", str(cfg), "--expect-counterexample", "--grid", "20"]
    assert main(argv + ["--out", out]) == 0
    data = _read_profile_csv(out)
    assert len(data["w"]) == 20 and data["t"][-1] == math.pi
    assert np.all(data["w"][:-1] == math.pi)
    assert data["w"][-1] == 0.0


def test_grid_and_budget_flags_reach_the_config_echo(euclid_config, tmp_path):
    out = str(tmp_path / "flags.csv")
    argv = ["profile", "--config", euclid_config, "--grid", "12", "--budget", "256"]
    assert main(argv + ["--out", out]) == 0
    text = open(out).read()
    assert "# run.grid=12\n" in text and "# run.budget=256\n" in text
    assert len(_read_profile_csv(out)["t"]) == 12


def test_missing_config_is_usage_error(tmp_path):
    out = str(tmp_path / "nothing.csv")
    code = main(["profile", "--config", str(tmp_path / "absent.ini"), "--out", out])
    assert code == 2
    assert not os.path.exists(out)


def test_verify_euclidean_exits_zero(euclid_config, capsys):
    assert main(["verify", "--config", euclid_config]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert re.search(r"^\[REPORT\] probe_concavity margin=", out, re.MULTILINE)


def test_verify_counterexample_flag(tmp_path, capsys):
    cfg = tmp_path / "ce.ini"
    cfg.write_text(COUNTEREXAMPLE_CFG)
    assert main(["verify", "--config", str(cfg)]) == 2  # rejected without flag
    assert main(["verify", "--config", str(cfg), "--expect-counterexample"]) == 0
    text = capsys.readouterr().out
    assert "counterexample_large_balls" in text and "not eventually decreasing" in text


def test_verify_counterexample_records_out(tmp_path, capsys):
    cfg = tmp_path / "ce.ini"
    cfg.write_text(COUNTEREXAMPLE_CFG)
    rec = str(tmp_path / "rec.csv")
    argv = ["verify", "--config", str(cfg), "--expect-counterexample"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--out", rec]) == 0
    assert capsys.readouterr().out == text + f"wrote {rec}\n"
    rows = {row.split(",")[0]: row.split(",")[1] for row in open(rec).read().splitlines()[1:]}
    assert rows["counterexample_large_balls"] == "pass"


def test_verify_counterexample_on_a_flat_model_is_a_configuration_error(euclid_config, capsys):
    argv = ["verify", "--config", euclid_config, "--expect-counterexample"]
    assert main(argv) == 2
    assert "runs on a sphere model" in capsys.readouterr().err


def test_verify_radius_beyond_convexity_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SPHERE_CFG.replace("R = 1.2", f"R = {math.pi / 2}"))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_radii_unit_sphere(tmp_path, capsys):
    cfg = tmp_path / "sphere.ini"
    cfg.write_text(SPHERE_CFG)
    assert main(["radii", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "convexity" in out
    assert f"{math.pi / 2:.9g}" in out


def test_radii_out_writes_every_radius_with_its_provenance(tmp_path):
    cfg = tmp_path / "sphere.ini"
    cfg.write_text(SPHERE_CFG)
    out = str(tmp_path / "radii.csv")
    assert main(["radii", "--config", str(cfg), "--out", out]) == 0
    rows = [row.split(",") for row in open(out).read().strip().split("\n")]
    assert rows[0] == ["field", "value", "lower_bound_only", "provenance"]
    names = ["injectivity", "conjugate", "focal", "loop_length", "convexity"]
    assert [row[0] for row in rows[1:]] == names
    assert all(row[2:] == ["0", "closed-form"] for row in rows[1:])
    assert float(rows[5][1]) == math.pi / 2


def test_radii_euclidean_all_infinite(euclid_config, capsys):
    assert main(["radii", "--config", euclid_config]) == 0
    out = capsys.readouterr().out
    assert out.count("inf") >= 5


def test_radii_surface_mixed_provenance(tmp_path, capsys):
    cfg = tmp_path / "surface.ini"
    cfg.write_text(SURFACE_CFG)
    assert main(["radii", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "user-certified" in out and "numeric-estimate" in out


def test_verify_records_out(euclid_config, tmp_path):
    out = str(tmp_path / "report.csv")
    assert main(["verify", "--config", euclid_config, "--out", out]) == 0
    rows = open(out).read().strip().split("\n")
    assert rows[0] == "claim,status,margin,summary"
    assert len(rows) == 1 + len(CLAIM_REGISTRY)  # header + full claim registry


def test_verify_records_the_probes_as_report(euclid_config, tmp_path):
    out = str(tmp_path / "report.csv")
    assert main(["verify", "--config", euclid_config, "--out", out]) == 0
    rows = {row.split(",")[0]: row.split(",")[1:3] for row in open(out).read().splitlines()[1:]}
    for claim in REPORT_ONLY:
        status, margin = rows[claim]
        assert status == "report" and math.isfinite(float(margin)), claim


VERIFY_S2_CFG = """
[manifold]
kind = sphere
dimension = 2
curvature = 1.0

[lens]
pairs = 1.2,0.6; 1.0,1.0

[run]
grid = 8
budget = 1024
seed = 7
"""


def _per_lens_nesting_scan(bp, ts, budget, seed):
    """The nesting scan lens by lens: far points from each exact lens's
    one-row candidates, else its sampled cloud."""
    blocks, owners = [], []
    for idx, t in enumerate(ts):
        lens = bp.with_separation(float(t))
        if not bp.exact:
            points = lens_module.sample_intersection(lens, budget, seed).points
        elif lens.touching:
            points = lens.line.coords_at(lens.R)[None, :]
        else:
            points, _ = lens_module._far_points(lens_module._candidates_at(lens, [lens.t]))
        blocks.append(points)
        owners.append(np.full(len(points), idx))
    return np.vstack(blocks), np.concatenate(owners)


def _broadcast_sq(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _per_pair_lens_gaps(bp, s, t):
    """The exact lens gaps one pair at a time."""
    return np.array([lens_module.lens_gaps(bp, [a], [b])[0] for a, b in zip(s, t)])


def _unmemoised_diameter(cloud):
    sq = _broadcast_sq(cloud.points, cloud.points)
    return float(cloud.manifold.scan_dist(np.asarray(sq.max())))


def test_verify_records_match_the_per_lens_two_way_unmemoised_run(tmp_path, monkeypatch):
    # the batched exact nesting scan, the batched exact lens gaps and the
    # memoised diameters leave every record byte for byte as it was
    cfg = tmp_path / "verify_s2.ini"
    cfg.write_text(VERIFY_S2_CFG)
    fast, slow = str(tmp_path / "fast.csv"), str(tmp_path / "slow.csv")
    assert main(["verify", "--config", str(cfg), "--out", fast]) == 0
    used = set()

    def recorded(fn):
        def call(*args):
            used.add(fn.__name__)
            return fn(*args)

        return call

    with monkeypatch.context() as patch:
        patch.setattr(lens_module, "_nesting_scan", recorded(_per_lens_nesting_scan))
        patch.setattr(suite_module, "lens_gaps", recorded(_per_pair_lens_gaps))
        for module in (sets_module, suite_module):
            patch.setattr(module, "diameter", recorded(_unmemoised_diameter))
        assert main(["verify", "--config", str(cfg), "--out", slow]) == 0
    assert len(used) == 3
    with open(fast, "rb") as a, open(slow, "rb") as b:
        assert a.read() == b.read()


def test_surface_focal_scan_runs_once_per_config(tmp_path, monkeypatch):
    import geolens.radii
    from geolens import config

    directions = []
    focal_radius = geolens.radii.focal_radius

    def counted(*args, **kwargs):
        directions.append(kwargs.get("directions"))
        return focal_radius(*args, **kwargs)

    monkeypatch.setattr(geolens.radii, "focal_radius", counted)
    config._surface_convexity_bound.cache_clear()
    cfg = tmp_path / "surface.ini"
    cfg.write_text(SURFACE_CFG)
    loaded = config.load_config(str(cfg))
    bound = config.convexity_bound_for(loaded, loaded.manifold.build())
    assert directions == [16]
    assert bound == 0.5


def _python(*args):
    """A fresh interpreter run with ``args``, the package's sources on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _loaded_scipy(code):
    """The scipy modules loaded by a fresh interpreter that runs ``code``."""
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = _python("-c", code)
    out.check_returncode()
    return out.stdout.strip().splitlines()[-1]


def test_module_entry_point_has_three_subcommands(euclid_config):
    shown = _python("-m", "geolens.cli", "--help")
    assert shown.returncode == 0
    listed = re.search(r"\{(.*?)\}", shown.stdout).group(1)
    assert listed.split(",") == ["profile", "verify", "radii"]
    for name in ("speculate", "counterexample"):
        gone = _python("-m", "geolens.cli", name, "--config", euclid_config)
        assert gone.returncode == 2 and "invalid choice" in gone.stderr


def test_start_up_loads_no_scipy():
    # scipy is imported where it is used (the splines of a tabulated
    # profile), so the CLI starts without it
    assert _loaded_scipy("import sys, geolens, geolens.cli") == "[]"


VERIFY_E2_CFG = """
[manifold]
kind = euclidean
dimension = 2

[lens]
R = 2.0
r = 1.0

[run]
grid = 8
budget = 1024
seed = 7
"""


VERIFY_H2_CFG = """
[manifold]
kind = hyperbolic
dimension = 2
curvature = -1.0

[lens]
R = 2.0
r = 1.0

[run]
grid = 8
budget = 1024
seed = 7
"""


@pytest.mark.parametrize(
    "text", [VERIFY_S2_CFG, VERIFY_E2_CFG, VERIFY_H2_CFG], ids=["sphere", "euclidean", "hyperbolic"]
)
def test_verify_loads_no_scipy_spatial(tmp_path, text):
    # the exact pairs read their Hausdorff gaps in closed form: no nearest
    # scan, and no k-d tree; every gating claim passes
    cfg = tmp_path / "verify.ini"
    cfg.write_text(text)
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    code = f"import sys; from geolens.cli import main; assert main({argv!r}) == 0"
    assert "scipy.spatial" not in _loaded_scipy(code)
