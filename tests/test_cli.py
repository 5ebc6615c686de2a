import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from fractaldims import cli, heat, tubes
from fractaldims.cache import ResultCache, config_hash
from fractaldims.cli import run_command
from fractaldims.errors import (DivergenceDomainError, GeometryError,
                                ResolutionError)
from fractaldims.vonkoch import GKCParams, snowflake

TINY_TUBE = {
    "n": 3, "r": 1 / 3, "level": 2, "h": 5e-3,
    "t_min": 5e-2, "t_max": 0.2, "points_per_decade": 16,
    "sfe_t_min": 5e-2, "sfe_t_max": 0.1, "sfe_points": 3,
}

TINY_HEAT = {
    "n": 3, "r": 1 / 3, "level": 2, "h": 6e-3,
    "t_min": 1e-3, "t_max": 2e-3, "points_per_decade": 24,
}


def read_outputs(out: Path) -> dict:
    blobs = {}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            blobs[path.name] = path.read_bytes()
    return blobs


def test_dims_command(tmp_path):
    out = run_command("dims", {"n": 3, "r": 1 / 3}, tmp_path / "a")
    doc = json.loads((out / "dims.json").read_text())
    assert doc["similarity_dimension"] == \
        pytest.approx(np.log(4) / np.log(3), abs=1e-10)
    assert doc["lattice"] is not None


def test_dims_nonlattice_verdict(tmp_path):
    out = run_command("dims", {"n": 4, "r": 0.24}, tmp_path / "a")
    doc = json.loads((out / "dims.json").read_text())
    assert doc["lattice"] is None


def test_dims_explicit_ratios(tmp_path):
    out = run_command("dims", {"ratios": [[0.5, 2]]}, tmp_path / "a")
    doc = json.loads((out / "dims.json").read_text())
    assert doc["similarity_dimension"] == pytest.approx(1.0, abs=1e-12)


def test_poles_command_routing(tmp_path):
    out = run_command("poles", {"ratios": [[1 / 3, 2]], "im_max": 20},
                      tmp_path / "a")
    rows = (out / "poles.csv").read_text().strip().splitlines()
    assert rows[0] == "re,im,res_re,res_im,mult"
    res = {float(r.split(",")[0]) for r in rows[1:]}
    assert all(abs(x - np.log(2) / np.log(3)) < 1e-10 for x in res)
    assert (out / "poles.svg").read_bytes().startswith(b"<svg")


def test_determinism_dims_poles_render(tmp_path):
    for command, cfg in (
        ("dims", {"n": 5, "r": 0.19}),
        ("poles", {"ratios": [[0.4, 2], [0.2, 4]], "im_max": 8}),
        ("render", {"n": 4, "r": 0.2, "level": 3}),
    ):
        out1 = run_command(command, cfg, tmp_path / command / "run1")
        out2 = run_command(command, cfg, tmp_path / command / "run2")
        assert read_outputs(out1) == read_outputs(out2)


def test_manifest_structure(tmp_path):
    out = run_command("dims", {"n": 3, "r": 0.3}, tmp_path / "a")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "dims"
    assert manifest["config_hash"] == config_hash("dims",
                                                  {"n": 3, "r": 0.3})
    assert set(manifest["outputs"]) == {"dims.json", "dims.csv"}
    assert all(len(h) == 64 for h in manifest["outputs"].values())
    for name, digest in manifest["outputs"].items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert manifest["checks"]


def test_tube_command_and_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(tmp_path / "cache"))
    out1 = run_command("tube", dict(TINY_TUBE), tmp_path / "r1")
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert not m1["from_cache"]
    out2 = run_command("tube", dict(TINY_TUBE), tmp_path / "r2")
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["from_cache"]
    assert read_outputs(out1) == read_outputs(out2)
    assert m1["outputs"] == m2["outputs"]


def test_cache_holds_one_file_per_run(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(root))
    for name in ("cold", "warm"):
        run_command("tube", dict(TINY_TUBE), tmp_path / name / "tube")
        run_command("heat", dict(TINY_HEAT), tmp_path / name / "heat")
        run_command("dims", {"n": 3, "r": 1 / 3}, tmp_path / name / "dims")
        entries = sorted(root.iterdir())
        assert len(entries) == 2
        assert all(p.is_file() and p.suffix == ".json" and len(p.stem) == 64
                   for p in entries)


def test_unparseable_cache_entry_is_recomputed_and_replaced(tmp_path,
                                                           monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(root))
    cold = run_command("tube", dict(TINY_TUBE), tmp_path / "cold")
    (entry,) = root.iterdir()
    stored = entry.read_bytes()
    for bad in (stored[:len(stored) // 2], b"[]", b'{"files": {}}',
                rb'{"files": {"tube.csv": "\u0394"}, "checks": []}'):
        entry.write_bytes(bad)
        out = run_command("tube", dict(TINY_TUBE), tmp_path / "again")
        assert not json.loads((out / "manifest.json").read_text())[
            "from_cache"]
        assert read_outputs(out) == read_outputs(cold)
        assert entry.read_bytes() == stored
    assert [p.name for p in root.iterdir()] == [entry.name]


def test_cache_round_trips_every_byte_and_leaves_no_partial_file(
        tmp_path, monkeypatch):
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(tmp_path))
    cache = ResultCache()
    files = {"all.bin": bytes(range(256)), "empty.csv": b""}
    cache.store("key", files, [{"name": "c", "passed": True}])
    # a write that fails removes its temporary file and keeps the entry
    with pytest.raises(TypeError):
        cache.store("key", files, [object()])
    with pytest.raises(TypeError):
        cache.store("other", files, [object()])
    assert [p.name for p in tmp_path.iterdir()] == ["key.json"]
    assert cache.load("key") == (files, [{"name": "c", "passed": True}])
    assert cache.load("other") is None


def test_tube_command_deterministic_without_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    out1 = run_command("tube", dict(TINY_TUBE), tmp_path / "r1")
    out2 = run_command("tube", dict(TINY_TUBE), tmp_path / "r2")
    assert read_outputs(out1) == read_outputs(out2)


def test_csv_rfc4180_line_endings(tmp_path):
    out = run_command("dims", {"n": 3, "r": 0.3}, tmp_path / "a")
    raw = (out / "dims.csv").read_bytes()
    assert b"\r\n" in raw


def test_cli_main_entrypoint(tmp_path, capsys):
    from fractaldims.cli import main
    code = main(["dims", "--set", "n=3", "--set", "r=0.32",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out


def test_render_curve_kind(tmp_path):
    out = run_command("render", {"n": 3, "r": 1 / 3, "level": 2,
                                 "kind": "curve"}, tmp_path / "a")
    body = (out / "render.svg").read_text()
    assert body.startswith("<svg") and "path" in body


@pytest.mark.parametrize("command, cfg, message", [
    ("render", {"n": 3, "r": 1 / 3, "level": 2, "kind": "Curve"},
     r"kind must be one of snowflake, curve; got 'Curve'"),
    ("explicit", dict(TINY_TUBE, source="Tube"),
     r"source must be one of tube, heat; got 'Tube'"),
    ("heat", dict(TINY_HEAT, scaling_lambda=0),
     r"scaling_lambda must be > 0; got 0"),
    ("heat", dict(TINY_HEAT, scaling_lambda=-1.5),
     r"scaling_lambda must be > 0; got -1\.5"),
    ("render", {"n": 3, "r": 1 / 3, "level": 1, "width": 0},
     r"width must be a positive integer; got 0"),
    ("render", {"n": 3, "r": 1 / 3, "level": 1, "width": -100},
     r"width must be a positive integer; got -100"),
    ("render", {"n": 3, "r": 1 / 3, "level": 1, "width": 12.5},
     r"width must be an integer; got 12\.5"),
    ("tube", dict(TINY_TUBE, h="abc"), r"h must be numeric; got 'abc'"),
    ("heat", dict(TINY_HEAT, points_per_decade="many"),
     r"points_per_decade must be an integer; got 'many'"),
    ("poles", {"ratios": [[0.5, 1], ["x", 1]]},
     r"ratios must be numeric; got \[\[0\.5, 1\], \['x', 1\]\]"),
    ("heat", dict(TINY_HEAT, remainder="false"),
     r"remainder must be one of false, true; got 'false'"),
    ("heat", dict(TINY_HEAT, remainder=1),
     r"remainder must be one of false, true; got 1"),
    ("dims", {}, r"^n is required, or ratios$"),
    ("poles", {"n": 3}, r"^r is required, or ratios$"),
    ("tube", {"r": 0.33}, r"^n is required$"),
    ("heat", dict(TINY_HEAT, points_per_decade=0),
     r"points_per_decade must be >= 1; got 0"),
    ("heat", dict(TINY_HEAT, points_per_decade=-2),
     r"points_per_decade must be >= 1; got -2"),
    ("heat", dict(TINY_HEAT, points_per_decade=1, t_min=3e-4, t_max=3e-3),
     r"heat needs at least 8 times; points_per_decade=1 over "
     r"t_min=0\.0003, t_max=0\.003 gives 2"),
    ("dims", {"ratios": [[0.5, 1.5], [0.25, 1]]},
     r"^ratios: multiplicity 1\.5 is not an integer >= 1; "
     r"got \[\[0\.5, 1\.5\], \[0\.25, 1\]\]$"),
    ("dims", {"ratios": [[0.5, True]]},
     r"^ratios: multiplicity True is not an integer >= 1; "
     r"got \[\[0\.5, True\]\]$"),
    ("poles", {"ratios": [[0.5, 0]]},
     r"^ratios: multiplicity 0 is not an integer >= 1"),
    ("tube", {"n": 3, "r": 1 / 3, "h": 1e-2},
     r"tube needs 5h <= sfe_t_min < sfe_t_max; h=0\.01 gives "
     r"sfe_t_min=0\.05 \(default max\(0\.01, 5h\)\), sfe_t_max=0\.05"),
    ("tube", {"n": 3, "r": 1 / 3, "h": 2e-2},
     r"tube needs 5h <= sfe_t_min < sfe_t_max; h=0\.02 gives "
     r"sfe_t_min=0\.1 \(default max\(0\.01, 5h\)\), sfe_t_max=0\.05"),
    ("tube", dict(TINY_TUBE, sfe_points=0),
     r"^sfe_points must be >= 1; got 0$"),
    ("tube", dict(TINY_TUBE, sfe_t_min=0),
     r"tube needs 5h <= sfe_t_min < sfe_t_max; h=0\.005 gives "
     r"sfe_t_min=0 "),
    ("tube", {"n": 3, "r": 1 / 3, "h": 5e-3, "fit_t_min": 0.1,
              "fit_t_max": 0.11},
     r"tube needs at least 8 times in \[fit_t_min, fit_t_max\]; "
     r"fit_t_min=0\.1, fit_t_max=0\.11 over t_min=0\.05, t_max=0\.3 "
     r"gives 2"),
    ("explicit", dict(TINY_TUBE, k=1),
     r"^k must be >= 2, where the explicit formula holds pointwise; got 1$"),
    ("explicit", dict(TINY_TUBE, k=-1),
     r"^k must be >= 2, where the explicit formula holds pointwise; "
     r"got -1$"),
    ("explicit", {"n": 4, "r": 0.24, "level": 3, "h": 4e-3, "t_min": 2e-2,
                  "delta": 0.2},
     r"^need 0 < delta <= t_max\*lambda_min\^alpha; delta=0\.2 with "
     r"t_max=0\.3 allows at most 0\.072: lower delta or raise t_max$"),
    ("explicit", dict(TINY_HEAT, source="heat", delta=1e-3),
     r"delta=0\.001 with t_max=0\.002 allows at most 0\.000222222"),
    ("explicit", {"n": 4, "r": 0.24, "level": 3, "h": 4e-3, "t_min": 1e-4,
                  "delta": 0.05, "eval_t_min": 5e-3, "eval_t_max": 4e-2,
                  "im_max": 10, "source": "tube"},
     r"^explicit source=tube needs t_min >= 5h, where the grid resolves "
     r"it; t_min=0\.0001 with h=0\.004 is below 0\.02: raise t_min or "
     r"lower h$"),
    ("explicit", dict(TINY_HEAT, source="heat", t_min=8e-4),
     r"^explicit source=heat needs t_min >= 25h\^2, where the grid "
     r"resolves it; t_min=0\.0008 with h=0\.006 is below 0\.0009: raise "
     r"t_min or lower h$"),
    ("tube", {"n": 3, "r": 1 / 3, "level": 3, "h": 4e-3, "t_min": 1e-4},
     r"^tube needs t_min >= 5h, where the grid resolves it; t_min=0\.0001 "
     r"with h=0\.004 is below 0\.02: raise t_min or lower h$"),
    ("tube", dict(TINY_TUBE, points_per_decade=0),
     r"^points_per_decade must be >= 1; got 0$"),
    ("explicit", dict(TINY_HEAT, source="heat", points_per_decade=0),
     r"^points_per_decade must be >= 1; got 0$"),
    ("heat", {"n": 3, "r": 1 / 3, "h": 5e-3, "remainder": True},
     r"^heat remainder=true needs diffusivity\*t_min >= 25h\^2, where the "
     r"grid resolves it; diffusivity\*t_min=0\.0003 with h=0\.005 is below "
     r"0\.000625: raise t_min or lower h$"),
], ids=["render", "explicit", "heat-lambda-zero", "heat-lambda-negative",
        "render-width-zero", "render-width-negative",
        "render-width-fractional", "tube-h", "heat-points-per-decade",
        "poles-ratios", "heat-remainder-string", "heat-remainder-int",
        "dims-missing-n", "poles-missing-r", "tube-missing-n",
        "heat-points-per-decade-zero", "heat-points-per-decade-negative",
        "heat-too-few-times", "dims-fractional-multiplicity",
        "dims-boolean-multiplicity", "poles-zero-multiplicity",
        "tube-sfe-window-degenerate", "tube-sfe-window-reversed",
        "tube-sfe-points-zero", "tube-sfe-t-min-zero",
        "tube-fit-window-too-few", "explicit-k-one", "explicit-k-negative",
        "explicit-tube-delta-too-large", "explicit-heat-delta-too-large",
        "explicit-tube-t-min-below-5h", "explicit-heat-t-min-below-25h2",
        "tube-t-min-below-5h", "tube-points-per-decade-zero",
        "explicit-points-per-decade-zero", "heat-remainder-t-min-below-25h2"])
def test_unknown_choice_is_refused(tmp_path, monkeypatch, command, cfg,
                                   message):
    def no_snowflake(*args, **kwargs):
        raise AssertionError("snowflake built before the config was checked")

    monkeypatch.setattr(cli, "snowflake", no_snowflake)
    with pytest.raises(ValueError, match=message):
        run_command(command, cfg, tmp_path / "a")


@pytest.mark.parametrize("command, knob, value, message", [
    ("tube", "h", True, r"^h must be numeric; got True$"),
    ("tube", "h", "nan", r"^h must be numeric; got 'nan'$"),
    ("tube", "h", "inf", r"^h must be numeric; got 'inf'$"),
    ("tube", "h", float("inf"), r"^h must be numeric; got inf$"),
    ("tube", "t_max", "nan", r"^t_max must be numeric; got 'nan'$"),
    ("tube", "level", True, r"^level must be an integer; got True$"),
    ("tube", "n", True, r"^n must be an integer; got True$"),
    ("heat", "diffusivity", float("nan"),
     r"^diffusivity must be numeric; got nan$"),
    ("explicit", "cutoffs", [10, float("nan")],
     r"^cutoffs must be numeric; got \[10, nan\]$"),
    ("explicit", "cutoffs", [10, "inf"],
     r"^cutoffs must be numeric; got \[10, 'inf'\]$"),
], ids=["h-true", "h-nan", "h-inf-string", "h-inf", "t-max-nan",
        "level-true", "n-true", "diffusivity-nan", "cutoffs-nan",
        "cutoffs-inf"])
def test_numeric_knob_refuses_booleans_and_non_finite_values(
        tmp_path, monkeypatch, command, knob, value, message):
    def no_snowflake(*args, **kwargs):
        raise AssertionError("snowflake built before the config was checked")

    monkeypatch.setattr(cli, "snowflake", no_snowflake)
    cfg = {"n": 3, "r": 1 / 3, "level": 2, "h": 4e-3, knob: value}
    with pytest.raises(ValueError, match=message):
        run_command(command, cfg, tmp_path / "a")
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("cfg, message", [
    ({"n": 3, "r": 1 / 3, "level": 3, "h": 4e-3, "source": "tube",
      "im_max": 0}, r"^im_max must be > 0; got 0$"),
    (dict(TINY_HEAT, source="heat", cutoffs=[10, -5]),
     r"^cutoffs must be >= 0, the heights \|Im omega\| of the partial "
     r"sums; got \[10\.0, -5\.0\]$"),
], ids=["im-max-zero", "cutoffs-negative"])
def test_explicit_refuses_its_pole_sum_knobs_before_any_work(
        tmp_path, monkeypatch, cfg, message):
    def no_work(*args, **kwargs):
        raise AssertionError("field or solve run before the config was "
                             "checked")

    monkeypatch.setattr(tubes, "distance_field", no_work)
    monkeypatch.setattr(heat, "solve_heat_fdm", no_work)
    with pytest.raises(ValueError, match=message):
        run_command("explicit", cfg, tmp_path / "a")


@pytest.mark.parametrize("kind, n, r, level", [
    ("curve", 3, 1 / 3, 0), ("curve", 3, 1 / 3, 1), ("curve", 3, 1 / 3, 2),
    ("curve", 3, 1 / 3, 3), ("snowflake", 3, 1 / 3, 3),
    ("snowflake", 4, 0.24, 3),
], ids=["curve-L0", "curve-L1", "curve-L2", "curve-L3", "snowflake-n3",
        "snowflake-n4"])
def test_render_stays_on_the_canvas(tmp_path, kind, n, r, level):
    out = run_command("render", {"n": n, "r": r, "level": level,
                                 "kind": kind}, tmp_path / "a")
    (check,) = json.loads((out / "manifest.json").read_text())["checks"]
    assert check["passed"] and ", 0 off the 800x" in check["detail"]
    body = (out / "render.svg").read_text()
    width = float(re.search(r'width="([^"]+)"', body).group(1))
    height = float(re.search(r'height="([^"]+)"', body).group(1))
    path = re.search(r' d="([^"]+)"', body).group(1)
    xy = np.array([float(v) for v in re.findall(r"[-0-9.e+]+", path)])
    xs, ys = xy[0::2], xy[1::2]
    assert height > 0
    assert xs.min() >= 0 and xs.max() <= width
    assert ys.min() >= 0 and ys.max() <= height


def _unreached_definitions(package: Path) -> set[str]:
    """Top-level definitions of ``package`` that no path from the CLI
    reaches.  The roots are ``cli.main`` and each module's top-level code
    other than definitions and imports.  A reached definition reaches
    every name in its body, resolved in its module or through the
    package's relative imports, and, by name alone, every top-level
    definition called like an attribute ``x.name``."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    defs, imports = {}, {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod, alias.asname or alias.name] = (
                        node.module or "__init__", alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for name in ast.walk(ast.Tuple(elts=targets)):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        defs[mod, name.id] = node
    by_name = {}
    for mod, name in defs:
        by_name.setdefault(name, []).append((mod, name))

    def resolve(mod, name):
        while (mod, name) not in defs and (mod, name) in imports:
            mod, name = imports[mod, name]
        return [(mod, name)] if (mod, name) in defs else []

    todo = [(mod, node) for mod, tree in trees.items() for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Assign, ast.AnnAssign, ast.Import,
                                     ast.ImportFrom))]
    todo.append(("cli", defs["cli", "main"]))
    reached = {("cli", "main")}
    while todo:
        mod, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found = resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute):
                found = by_name.get(sub.attr, [])
            else:
                continue
            for key in found:
                if key not in reached:
                    reached.add(key)
                    todo.append((key[0], defs[key]))
    return {name for mod, name in defs if (mod, name) not in reached}


def test_library_is_what_the_cli_reaches():
    unreached = _unreached_definitions(Path(cli.__file__).parent)
    # the closed-form snowflake area is the benchmark's oracle for the
    # polygon area, and sfe_zeta_residue computes the Cantor workload's
    # residues (explicit.run reads 1/P' from the pole search); no command
    # needs either
    assert unreached == {"snowflake_area_series", "sfe_zeta_residue"}


def checks_of(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    return {c["name"]: c for c in manifest["checks"]}


def test_moran_root_check_passes_and_fails(tmp_path, monkeypatch):
    cfg = {"ratios": [[0.5, 1], [1 / 3, 1], [0.2, 1]]}
    out = run_command("dims", cfg, tmp_path / "ok")
    assert checks_of(out)["moran_root"]["passed"]
    root = cli.similarity_dimension
    monkeypatch.setattr(cli, "similarity_dimension",
                        lambda ratios: root(ratios) + 1e-9)
    out = run_command("dims", cfg, tmp_path / "off")
    assert not checks_of(out)["moran_root"]["passed"]


def test_pole_search_check_passes_and_fails(tmp_path, monkeypatch):
    cfg = {"ratios": [[0.5, 1], [1 / 3, 1], [0.2, 1]], "im_max": 12}
    out = run_command("poles", cfg, tmp_path / "ok")
    assert checks_of(out)["pole_search"]["passed"]
    # the poles at Im = +-11.0418 lie just outside this window but inside
    # the search contour's margin: neither emitted nor counted
    margin = dict(cfg, im_max=11.041756821167997 - 1e-4)
    check = checks_of(run_command("poles", margin,
                                  tmp_path / "margin"))["pole_search"]
    assert check["passed"], check["detail"]
    assert check["detail"].startswith("5 poles")
    search = cli.nonlattice_poles

    def drop_one(*args, **kwargs):
        dims = search(*args, **kwargs)
        return replace(dims, poles=dims.poles[1:])

    monkeypatch.setattr(cli, "nonlattice_poles", drop_one)
    out = run_command("poles", cfg, tmp_path / "dropped")
    check = checks_of(out)["pole_search"]
    assert not check["passed"]
    assert "winding count 7" in check["detail"]


def test_version_bump_misses_warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(tmp_path / "cache"))
    run_command("tube", dict(TINY_TUBE), tmp_path / "r1")
    warm = run_command("tube", dict(TINY_TUBE), tmp_path / "r2")
    assert json.loads((warm / "manifest.json").read_text())["from_cache"]
    monkeypatch.setattr(cli, "__version__", "0.1.0+bumped")
    bumped = run_command("tube", dict(TINY_TUBE), tmp_path / "r3")
    manifest = json.loads((bumped / "manifest.json").read_text())
    assert not manifest["from_cache"]
    assert manifest["version"] == "0.1.0+bumped"


def test_fits_are_reported_not_checked(tmp_path):
    # the Minkowski fit, the heat exponent and the remainder bound have no
    # declared budget: they are report numbers, never a check
    out = run_command("tube", dict(TINY_TUBE), tmp_path / "tube")
    assert set(checks_of(out)) == {"sfe_residual"}
    sfe = json.loads((out / "sfe_report.json").read_text())
    assert np.isfinite(sfe["minkowski_dimension_fit"])
    out = run_command("heat", dict(TINY_HEAT, remainder=True,
                                   scaling_lambda=2), tmp_path / "heat")
    assert set(checks_of(out)) == {"heat_scaling"}
    report = json.loads((out / "heat_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["heat_scaling"]
    assert np.isfinite(report["exponent_fit"])
    assert report["remainder_linear_bound_fit"] > 0


def test_heat_scaling_check_compares_different_grids(tmp_path, monkeypatch):
    reports = []
    verify = cli.verify_heat_scaling

    def recorded(*args):
        reports.append(verify(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_heat_scaling", recorded)
    out = run_command("heat", dict(TINY_HEAT, scaling_lambda=2),
                      tmp_path / "heat")
    assert checks_of(out)["heat_scaling"]["passed"]
    # the same discrete problem solved twice would agree exactly
    assert 0 < reports[0].max_rel_dev < heat.SCALING_BUDGET_REL


def test_heat_scaling_check_can_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(heat, "SCALING_BUDGET_REL", 1e-3)
    out = run_command("heat", dict(TINY_HEAT, scaling_lambda=2),
                      tmp_path / "heat")
    assert not checks_of(out)["heat_scaling"]["passed"]


def run_fresh(code: str, cwd: Path, **env_vars: str) -> None:
    """Run ``code`` in a fresh interpreter with the package on its path
    and ``env_vars`` added to its environment."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "FRACTAL_DIMS_CACHE"}
    env.update(env_vars, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_heat_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 21,820 folded unknowns: OpenBLAS threads its level-1 calls on vectors
    # this long, so a solve that used them would sum in another order at
    # another thread count.  OpenBLAS reads the count when it loads, so it
    # is set in each child's environment only
    cfg = {"n": 4, "r": 0.24, "level": 3, "h": 4e-3}
    outputs = []
    for threads in ("1", "2"):
        run_fresh("from pathlib import Path\n"
                  "from fractaldims.cli import run_command\n"
                  f"run_command('heat', {cfg!r}, Path({threads!r}))\n",
                  tmp_path, OPENBLAS_NUM_THREADS=threads)
        manifest = tmp_path / threads / "manifest.json"
        outputs.append(json.loads(manifest.read_text())["outputs"])
    assert outputs[0] == outputs[1]


def test_commands_without_heat_load_no_scipy(tmp_path):
    runs = [("dims", {"n": 3, "r": 1 / 3}),
            ("poles", {"ratios": [[1 / 3, 2]], "im_max": 5}),
            ("render", {"n": 3, "r": 1 / 3, "level": 2}),
            ("tube", TINY_TUBE)]
    run_fresh("import sys\n"
              "from pathlib import Path\n"
              "from fractaldims.cli import run_command\n"
              f"for name, cfg in {runs!r}:\n"
              "    run_command(name, cfg, Path(name))\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
              "assert not loaded, loaded\n", tmp_path)
    # the heat solve loads the tridiagonal eigensolver, and nothing sparse
    run_fresh("import sys\n"
              "from fractaldims.heat import HeatProblem, solve_heat_fdm\n"
              "square = [[0, 0], [1, 0], [1, 1], [0, 1]]\n"
              "solve_heat_fdm(HeatProblem(region=square), 0.2, [0.05])\n"
              "assert 'scipy.linalg' in sys.modules\n"
              "assert 'scipy.sparse' not in sys.modules\n", tmp_path)


def test_explicit_rejects_an_empty_evaluation_window(tmp_path, monkeypatch):
    # the window is checked before any pole or residue is computed
    def no_poles(*args, **kwargs):
        raise AssertionError("poles located before the window check")

    def no_work(*args, **kwargs):
        raise AssertionError("snowflake, field or solve built before the "
                             "window check")

    monkeypatch.setattr(cli, "_locate_poles", no_poles)
    # t_max = 2e-3 leaves the heat source's eval_t_min = t_min above
    # 0.8 delta, known only once the solve has run
    solves = []
    solve = heat.solve_heat_fdm

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(heat, "solve_heat_fdm", counted)
    cfg = dict(TINY_HEAT, source="heat", im_max=5)
    del cfg["t_min"]
    with pytest.raises(ValueError, match="empty evaluation window") as err:
        run_command("explicit", cfg, tmp_path / "heat")
    assert "eval_t_max=" in str(err.value) and "delta=" in str(err.value)
    assert len(solves) == 1
    # with delta or eval_t_max given the window is refused before any
    # work, and delta is named only where eval_t_max defaults to it
    monkeypatch.setattr(cli, "snowflake", no_work)
    monkeypatch.setattr(tubes, "distance_field", no_work)
    monkeypatch.setattr(heat, "solve_heat_fdm", no_work)
    # delta defaulted, eval_t_max given
    cfg = dict(TINY_TUBE, im_max=5, eval_t_min=1e-3, eval_t_max=1e-4)
    with pytest.raises(ValueError, match=r"got eval_t_min=0\.001, "
                       r"eval_t_max=0\.0001, t_min=0\.05, t_max=0\.2$"):
        run_command("explicit", cfg, tmp_path / "tube")
    # a window past the sampled range
    cfg = dict(TINY_TUBE, delta=0.05, eval_t_min=0.06, eval_t_max=0.25)
    with pytest.raises(ValueError, match=r"need t_min <= eval_t_min < "
                       r"eval_t_max <= t_max, got eval_t_min=0\.06, "
                       r"eval_t_max=0\.25, t_min=0\.05, t_max=0\.2$"):
        run_command("explicit", cfg, tmp_path / "past")
    # the default eval_t_max = 0.8 delta, below t_min
    cfg = dict(TINY_TUBE, delta=0.05)
    with pytest.raises(ValueError, match=r"eval_t_max=0\.04 \(default "
                       r"0\.8\*delta\), delta=0\.05, t_min=0\.05, "):
        run_command("explicit", cfg, tmp_path / "default")
    # a window of two times, not read as a residual at the floor
    cfg = {"n": 4, "r": 0.24, "level": 3, "h": 4e-3, "t_min": 2e-2,
           "delta": 0.05, "eval_t_min": 0.039, "eval_t_max": 0.04}
    with pytest.raises(ValueError, match=r"^explicit needs at least 8 "
                       r"evaluation times at k=2; eval_t_min=0\.039, "
                       r"eval_t_max=0\.04 gives 2: widen the window$"):
        run_command("explicit", cfg, tmp_path / "two")


class Passed(Exception):
    """Raised where the work begins, once every check has passed."""


def _work_begins(*args, **kwargs):
    raise Passed


@pytest.mark.parametrize("h", [0.0005056378869683274, 0.0014, 0.0018])
def test_heat_floor_is_one_check_in_cli_and_library(tmp_path, monkeypatch,
                                                    h):
    # at these h the spellings 25 * h * h and 25.0 * h ** 2 differ by an
    # ulp; a t at the floor passes the CLI and the library alike, one ulp
    # below is refused by both, by the CLI before any snowflake
    floor = 25 * h * h
    below = float(np.nextafter(floor, 0.0))
    region = snowflake(GKCParams(3, 1 / 3), 1)
    monkeypatch.setattr(cli, "snowflake", _work_begins)
    monkeypatch.setattr(heat, "solve_heat_content", _work_begins)
    with pytest.raises(Passed):
        heat.decomposition_remainder(region, [floor, 2 * floor], h)
    with pytest.raises(ResolutionError, match=r"^decomposition_remainder "
                       r"needs t >= 25h\^2, "):
        heat.decomposition_remainder(region, [below, floor], h)
    base = {"n": 3, "r": 1 / 3, "level": 1, "h": h}
    for command, cfg, run in (
            ("heat", dict(base, remainder=True),
             r"heat remainder=true needs diffusivity\*t_min"),
            ("explicit", dict(base, source="heat"),
             r"explicit source=heat needs t_min")):
        with pytest.raises(Passed):
            run_command(command, dict(cfg, t_min=floor), tmp_path / "at")
        with pytest.raises(ResolutionError, match=rf"^{run} >= 25h\^2, "):
            run_command(command, dict(cfg, t_min=below), tmp_path / "below")


@pytest.mark.parametrize("h", [1e-2, 3e-3])
def test_tube_floor_is_one_check_in_cli_and_library(tmp_path, monkeypatch,
                                                    h):
    floor = 5 * h
    below = float(np.nextafter(floor, 0.0))
    region = snowflake(GKCParams(3, 1 / 3), 1)
    fld = tubes.sector_field(region, h)
    monkeypatch.setattr(cli, "snowflake", _work_begins)
    monkeypatch.setattr(tubes, "tube_function", _work_begins)
    monkeypatch.setattr(tubes, "sector_field", _work_begins)
    with pytest.raises(Passed):
        tubes.verify_gkf_sfe(region, fld, [floor])
    with pytest.raises(ResolutionError,
                       match=r"^verify_gkf_sfe needs t >= 5h, "):
        tubes.verify_gkf_sfe(region, fld, [below, floor])
    with pytest.raises(Passed):
        tubes.decomposition_remainder(region, [floor, 2 * floor], h)
    with pytest.raises(ResolutionError, match=r"^decomposition_remainder "
                       r"needs t >= 5h, "):
        tubes.decomposition_remainder(region, [below, floor], h)
    base = {"n": 3, "r": 1 / 3, "level": 1, "h": h, "sfe_t_max": 0.1}
    for command, cfg, run in (("tube", base, "tube"),
                              ("explicit", dict(base, source="tube"),
                               "explicit source=tube")):
        with pytest.raises(Passed):
            run_command(command, dict(cfg, t_min=floor), tmp_path / "at")
        with pytest.raises(ResolutionError,
                           match=rf"^{run} needs t_min >= 5h, "):
            run_command(command, dict(cfg, t_min=below), tmp_path / "below")


def test_heat_is_solved_once_per_run(tmp_path, monkeypatch):
    # the remainder's solve also gives the content
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    calls = []
    solve = heat.solve_heat_fdm

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    plain = run_command("heat", dict(TINY_HEAT), tmp_path / "plain")
    monkeypatch.setattr(heat, "solve_heat_fdm", counted)
    out = run_command("heat", dict(TINY_HEAT, remainder=True),
                      tmp_path / "rem")
    assert len(calls) == 1
    e_plain = np.loadtxt(plain / "heat.csv", delimiter=",", skiprows=1)
    e_rem = np.loadtxt(out / "heat.csv", delimiter=",", skiprows=1)
    assert np.array_equal(e_rem[:, 0], e_plain[:, 0])
    assert np.allclose(e_rem[:, 1], e_plain[:, 1], rtol=1e-5, atol=0)
    calls.clear()
    cfg = dict(TINY_HEAT, source="heat", im_max=5)
    del cfg["t_min"]
    with pytest.raises(ValueError, match="empty evaluation window"):
        run_command("explicit", cfg, tmp_path / "explicit")
    assert len(calls) == 1


def test_tube_times_are_gridded_once_per_run(tmp_path, monkeypatch):
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    calls = []
    grid = cli.geometric_grid

    def counted(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(cli, "geometric_grid", counted)
    run_command("tube", dict(TINY_TUBE), tmp_path / "tube")
    assert calls == [(5e-2, 0.2, 16)]


def test_plain_heat_runs_below_the_remainder_floor(tmp_path, monkeypatch):
    # t_min = 3e-4 is below 25h^2 = 6.25e-4, which only the remainder needs
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    out = run_command("heat", {"n": 3, "r": 1 / 3, "level": 2, "h": 5e-3},
                      tmp_path / "heat")
    table = np.loadtxt(out / "heat.csv", delimiter=",", skiprows=1)
    assert table[0, 0] == 3e-4 and np.all(np.isfinite(table))


def test_explicit_names_t_min_when_the_remainder_transform_diverges(
        tmp_path, monkeypatch):
    # R's power law fitted near t_min puts the abscissa of zeta_R at 1.11,
    # right of every pole's Re(omega)/alpha = 0.631
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    cfg = {"n": 3, "r": 1 / 3, "source": "heat", "level": 2, "h": 2e-3,
           "t_max": 0.12, "points_per_decade": 12, "im_max": 10}
    with pytest.raises(DivergenceDomainError,
                       match=r"^explicit source=heat: zeta_R diverges at the "
                       r"pole 1\.26186-5\.7192j, Re\(omega\)/alpha=0\.63093 "
                       r"not above the abscissa 1\.1129 fitted to R from "
                       r"t_min=0\.000105: raise t_min$"):
        run_command("explicit", cfg, tmp_path / "low")
    out = run_command("explicit", dict(cfg, t_min=1e-3), tmp_path / "raised")
    doc = json.loads((out / "explicit_report.json").read_text())
    assert doc["poles"] == 3 and np.isfinite(doc["max_rel_dev"])


def test_remainder_is_a_boolean(tmp_path, monkeypatch):
    # JSON false runs no remainder solve and true writes remainder.csv
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    for flag in (False, True):
        out = run_command("heat", dict(TINY_HEAT, remainder=flag),
                          tmp_path / str(flag))
        assert (out / "remainder.csv").exists() == flag


def test_snowflake_is_built_once_per_run(tmp_path, monkeypatch):
    # the library checks take the region the CLI built
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    calls = []
    build = cli.snowflake

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for owner in (cli, tubes, heat):
        monkeypatch.setattr(owner, "snowflake", counted, raising=False)
    run_command("tube", dict(TINY_TUBE), tmp_path / "tube")
    assert len(calls) == 1
    calls.clear()
    run_command("heat", dict(TINY_HEAT, remainder=True), tmp_path / "heat")
    assert len(calls) == 1
    calls.clear()
    cfg = dict(TINY_HEAT, source="heat", im_max=5)
    del cfg["t_min"]
    with pytest.raises(ValueError, match="empty evaluation window"):
        run_command("explicit", cfg, tmp_path / "explicit")
    assert len(calls) == 1


def test_explicit_tube_source_runs(tmp_path, monkeypatch):
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    cfg = {"n": 4, "r": 0.24, "level": 3, "h": 4e-3, "t_min": 2e-2,
           "delta": 0.05, "eval_t_min": 2e-2, "eval_t_max": 4e-2,
           "im_max": 10, "source": "tube"}
    out = run_command("explicit", cfg, tmp_path / "tube")
    doc = json.loads((out / "explicit_report.json").read_text())
    assert doc["poles"] == 5
    assert doc["alpha"] == 1.0 and doc["delta"] == 0.05
    assert np.isfinite(doc["max_rel_dev"])
    # every pole is simple and the remainder adds no pole at s = 0
    terms = np.loadtxt(out / "terms.csv", delimiter=",", skiprows=1,
                       ndmin=2)
    assert doc["skipped_non_simple"] == 0 and len(terms) == doc["poles"]
    assert np.all(np.isfinite(terms))


@pytest.mark.parametrize("command", ["heat", "tube", "explicit"])
def test_unverified_snowflake_is_refused_before_any_work(tmp_path,
                                                         monkeypatch,
                                                         command):
    def no_work(*args, **kwargs):
        raise AssertionError("field or solve built for an unverified region")

    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    # tube passes the kernel by its cli name; explicit's field is tubes'
    for owner in (cli, tubes):
        monkeypatch.setattr(owner, "distance_field", no_work)
    monkeypatch.setattr(heat, "solve_heat_fdm", no_work)
    cfg = {"n": 6, "r": 0.3, "level": 2}
    with pytest.raises(GeometryError, match="not verified simple"):
        run_command(command, cfg, tmp_path / command)
    assert not (tmp_path / command).exists()
    # render draws the curve all the same
    out = run_command("render", cfg, tmp_path / "render")
    assert (out / "render.svg").read_bytes().startswith(b"<svg")


def test_every_command_runs_on_its_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("FRACTAL_DIMS_CACHE", raising=False)
    cfg = {"n": 3, "r": 1 / 3}
    for command in ("dims", "poles", "tube", "heat", "render"):
        out = run_command(command, cfg, tmp_path / command)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]
        assert all(c["passed"] for c in manifest["checks"])
    # measured numbers, not the verdict of the slope gate
    for source, points, delta, dev, coeffs in (
            ("tube", 23, 0.0999, 4.662e-3, (1.0221e-6, -1.6134e-4)),
            ("heat", 61, 0.038304, 6.680e-2, (3.9888e-10, -6.5835e-6))):
        out = run_command("explicit", dict(cfg, source=source),
                          tmp_path / source)
        doc = json.loads((out / "explicit_report.json").read_text())
        assert doc["window_points"] == points >= 8
        assert doc["poles"] == 27
        assert doc["delta"] == pytest.approx(delta, rel=1e-4)
        assert doc["max_rel_dev"] == pytest.approx(dev, rel=1e-3)
        assert doc["start_polynomial"] == pytest.approx(coeffs, rel=1e-3)
        # for data F >= 0 the antiderivatives from 0 at t0 obey
        # 0 <= A2 <= t0 A1, so the fitted -(A2 - A1 t0) and -A1 must too
        const, linear = doc["start_polynomial"]
        t0 = float((out / "series.csv").read_text().splitlines()[1]
                   .split(",")[0])
        assert 0 <= const <= -linear * t0
