"""Self-tests of the benchmark: tiny smoke passes of every workload, and
proof that every answer gate can fail.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fractaldims import cli, heat, mellin, tubes

import layers
import run
import workloads
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent

TINY = {
    "tube-sector": workloads.TubeSizes(level=2, h=5e-3, square_h=1e-2),
    "heat-snowflake": workloads.HeatSizes(level=2, h=1e-2, square_h=1e-2,
                                          t_min=3e-3, t_max=3e-2,
                                          per_decade=8),
    "spectral": workloads.SpectralSizes(im_max=8.0, cantor_im_max=6.0),
}


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, TINY[name])


def failed_ops(outcomes):
    return {o.op for o in outcomes if not o.ok}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_pass_is_correct_and_traced(name, tmp_path):
    originals = (cli.run_command, cli.distance_field, tubes.distance_field)
    tracer = Tracer()
    passes = run.measure(tiny(name, tmp_path), 0.0, tracer)
    assert [p.traced for p in passes] == [True, False]
    summary, problems = run.summarize(passes)
    assert problems == []
    assert set(summary["digests"]) == {o.op for o in passes[0].outcomes}
    per_layer = run.per_layer(passes)
    assert set(per_layer) == set(layers.METRICS)
    # the wrappers are gone once the pass ends
    assert (cli.run_command, cli.distance_field,
            tubes.distance_field) == originals


def test_same_seed_same_inputs_other_seed_other_square(tmp_path):
    a = tiny("tube-sector", tmp_path, seed=5)
    b = tiny("tube-sector", tmp_path, seed=5)
    c = tiny("tube-sector", tmp_path, seed=6)
    assert np.array_equal(a.square, b.square)
    assert np.array_equal(a.square_ts, b.square_ts)
    assert not np.array_equal(a.square, c.square)
    orders = {str(tiny("spectral", tmp_path, seed).ratios_cfg)
              for seed in range(6)}
    assert len(orders) > 1


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [Span("outer", 0.0, 10.0, None, 0),
                    Span("inner", 2.0, 5.0, 0, 0),
                    Span("inner", 6.0, 7.0, 0, 0)]
    times = tracer.self_times()
    assert times["outer"] == pytest.approx(6.0)
    assert times["inner"] == pytest.approx(4.0)


# -- every gate can fail -----------------------------------------------------


def test_shifted_pole_fails(tmp_path, monkeypatch):
    search = cli.nonlattice_poles

    def shifted(*args, **kwargs):
        dims = search(*args, **kwargs)
        first = dims.poles[0]
        moved = replace(first, omega=first.omega + 1e-6)
        return replace(dims, poles=(moved,) + dims.poles[1:])

    monkeypatch.setattr(cli, "nonlattice_poles", shifted)
    wl = tiny("spectral", tmp_path)
    assert failed_ops(wl.run_pass()) == {"cli.poles"}


def test_pole_gate_checks_conjugates_and_count():
    ratios = workloads.NONLATTICE_RATIOS
    assert not workloads.gate_poles(ratios, [], 2)[0]
    lone = 1.0 + 0.0j
    assert not workloads.gate_poles(ratios, [lone, 0.5 + 3j], None)[0]


def test_moran_gate_fails_off_the_root(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "similarity_dimension",
                        lambda ratios: workloads.moran_dimension(
                            workloads.NONLATTICE_RATIOS) + 1e-9)
    wl = tiny("spectral", tmp_path)
    assert failed_ops(wl.run_pass()) == {"cli.dims"}


def test_scaled_residues_fail_the_explicit_formula(tmp_path, monkeypatch):
    residue = mellin.sfe_zeta_residue
    monkeypatch.setattr(mellin, "sfe_zeta_residue",
                        lambda *a, **k: 1.1 * residue(*a, **k))
    wl = tiny("spectral", tmp_path)
    outcomes = wl.run_pass()
    assert failed_ops(outcomes) == {"cantor.explicit"}
    (bad,) = [o for o in outcomes if o.op == "cantor.explicit"]
    assert bad.err_frac > 1


def test_scaled_square_heat_fails(tmp_path, monkeypatch):
    solve = heat.solve_heat_content

    def scaled(*args, **kwargs):
        e = solve(*args, **kwargs)
        return e.transform_vals(lambda t, v: 1.02 * v)

    monkeypatch.setattr(heat, "solve_heat_content", scaled)
    wl = tiny("heat-snowflake", tmp_path)
    assert failed_ops(wl.run_pass()) == {"square.heat"}


def test_decreasing_snowflake_heat_fails(tmp_path, monkeypatch):
    solve = cli.solve_heat_content

    def reversed_content(*args, **kwargs):
        e = solve(*args, **kwargs)
        return e.transform_vals(lambda t, v: v[::-1].copy())

    monkeypatch.setattr(cli, "solve_heat_content", reversed_content)
    wl = tiny("heat-snowflake", tmp_path)
    assert failed_ops(wl.run_pass()) == {"cli.heat"}


def test_content_gate_ceiling():
    assert workloads.gate_content([0.1, 0.2], 0.3)[0]
    assert not workloads.gate_content([0.1, 0.4], 0.3)[0]
    assert not workloads.gate_content([0.0, 0.2], 0.3)[0]


def test_square_tube_off_budget_fails(tmp_path, monkeypatch):
    tube_function = tubes.tube_function

    def shifted(fld, ts):
        v = tube_function(fld, ts)
        extra = 1.5 * tubes.grid_error_budget(fld)
        return v.transform_vals(lambda t, vals: vals + extra)

    monkeypatch.setattr(tubes, "tube_function", shifted)
    wl = tiny("tube-sector", tmp_path)
    assert failed_ops(wl.run_pass()) == {"square.tube"}


def test_failed_sfe_fails_the_cli_tube(tmp_path, monkeypatch):
    verify = cli.verify_gkf_sfe
    monkeypatch.setattr(cli, "verify_gkf_sfe",
                        lambda *a, **k: replace(verify(*a, **k),
                                                passed=False))
    wl = tiny("tube-sector", tmp_path)
    assert failed_ops(wl.run_pass()) == {"cli.tube"}


def test_cached_result_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACTAL_DIMS_CACHE", str(tmp_path / "cache"))
    wl = tiny("tube-sector", tmp_path)
    assert failed_ops(wl.run_pass()) == set()
    outcomes = wl.run_pass()
    assert failed_ops(outcomes) == {"cli.tube"}
    assert "from_cache" in [o for o in outcomes if not o.ok][0].detail


def test_raising_operation_fails_and_the_pass_goes_on(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(tubes, "distance_field", broken)
    wl = tiny("tube-sector", tmp_path)
    outcomes = wl.run_pass()
    assert failed_ops(outcomes) == {"square.tube"}
    assert len(outcomes) == 2
    _, problems = run.summarize([run.Pass(1.0, 1.0, outcomes, False)])
    assert problems == ["square.tube: ArithmeticError: injected"]


# -- the command line --------------------------------------------------------


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.METRICS
