"""Command-line interface: subcommands, exit codes, CSV determinism."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from geolens.cli import main
from geolens.config import load_config
from geolens.errors import ConfigError
from geolens.suite import CLAIM_REGISTRY

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
    assert load_config(str(agreeing)).r == 0.5


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


def test_missing_config_is_usage_error(tmp_path):
    out = str(tmp_path / "nothing.csv")
    code = main(["profile", "--config", str(tmp_path / "absent.ini"), "--out", out])
    assert code == 2
    assert not os.path.exists(out)


def test_verify_euclidean_exits_zero(euclid_config, capsys):
    assert main(["verify", "--config", euclid_config]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_verify_counterexample_flag(tmp_path, capsys):
    cfg = tmp_path / "ce.ini"
    cfg.write_text(COUNTEREXAMPLE_CFG)
    assert main(["verify", "--config", str(cfg)]) == 2  # rejected without flag
    assert main(["verify", "--config", str(cfg), "--expect-counterexample"]) == 0
    out = capsys.readouterr().out
    assert "counterexample_large_balls" in out


def test_verify_radius_beyond_convexity_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SPHERE_CFG.replace("R = 1.2", f"R = {math.pi / 2}"))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_counterexample_subcommand(tmp_path, capsys):
    cfg = tmp_path / "ce.ini"
    cfg.write_text(COUNTEREXAMPLE_CFG)
    assert main(["counterexample", "--config", str(cfg)]) == 0
    assert "not eventually decreasing" in capsys.readouterr().out


def test_radii_unit_sphere(tmp_path, capsys):
    cfg = tmp_path / "sphere.ini"
    cfg.write_text(SPHERE_CFG)
    assert main(["radii", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "convexity" in out
    assert f"{math.pi / 2:.9g}" in out


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


def test_speculate_subcommand(euclid_config, capsys):
    assert main(["speculate", "--config", euclid_config]) == 0
    assert "probe_concavity" in capsys.readouterr().out


def test_verify_records_out(euclid_config, tmp_path):
    out = str(tmp_path / "report.csv")
    assert main(["verify", "--config", euclid_config, "--out", out]) == 0
    rows = open(out).read().strip().split("\n")
    assert rows[0] == "claim,status,margin,summary"
    assert len(rows) == 1 + len(CLAIM_REGISTRY)  # header + full claim registry


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
