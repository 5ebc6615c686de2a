"""Layer probes: which library functions are wrapped, and the per-layer
metrics computed from their spans and counters.

Each function is wrapped in the namespace of the module that calls it
(``cli.distance_field`` for the CLI, ``tubes.distance_field`` for the
library and the benchmark's own calls).  Time metrics are self time:
a span's duration minus that of its child spans.
"""

from __future__ import annotations

from fractaldims import cli, explicit, heat, mellin, tubes, vonkoch, zeta

from spans import Tracer

#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cli.self_s": "s",
    "vonkoch.snowflake_s": "s",
    "vonkoch.snowflake_calls": "count",
    "vonkoch.segments": "count",
    "geom.point_in_polygon_mask_s": "s",
    "geom.mask_cells": "count",
    "geom.check_closed_polyline_simple_s": "s",
    "tubes.distance_field_s": "s",
    "tubes.cells": "count",
    "tubes.cells_per_s": "1/s",
    "tubes.field_bytes": "B",
    "tubes.tube_function_s": "s",
    "tubes.verify_gkf_sfe_s": "s",
    "heat.solve_heat_fdm_s": "s",
    "heat.solves": "count",
    "heat.unknowns": "count",
    "heat.save_times": "count",
    "heat.unknowns_per_s": "1/s",
    "heat.exponent_fit_s": "s",
    "zeta.nonlattice_poles_s": "s",
    "zeta.lattice_poles_s": "s",
    "zeta.P_evals": "count",
    "zeta.dP_evals": "count",
    "zeta.poles": "count",
    "zeta.max_abs_P": "1",
    "mellin.sfe_zeta_residue_s": "s",
    "mellin.residues": "count",
    "mellin.truncated_mellin_calls": "count",
    "mellin.evaluator_builds": "count",
    "explicit.build_terms_s": "s",
    "explicit.evaluate_sum_s": "s",
    "explicit.compare_explicit_s": "s",
    "explicit.terms": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _count_cells(counts, args, kwargs, fld):
    counts["tubes.cells"] += fld.grid.nx * fld.grid.ny


def _count_mask(counts, args, kwargs, mask):
    counts["geom.mask_cells"] += mask.size


def _count_segments(counts, args, kwargs, region):
    counts["vonkoch.segments"] += len(region.boundary)


def _count_heat(counts, args, kwargs, field):
    counts["heat.unknowns"] += int(field.interior.sum())
    counts["heat.save_times"] += len(field.times)


def _count_poles(counts, args, kwargs, dims):
    counts["zeta.poles"] += len(dims.poles)


def _count_terms(counts, args, kwargs, built):
    counts["explicit.terms"] += len(built.terms)


def install(tracer: Tracer):
    """Wrap every probed function; ``tracer.uninstall()`` undoes it."""
    for name in sorted(cli.COMMANDS):
        tracer.span(cli.COMMANDS, name, "cli.cmd")
    tracer.span(cli, "run_command", "cli.run_command")
    for owner in (cli, tubes):
        tracer.span(owner, "snowflake", "vonkoch.snowflake", _count_segments)
    for owner in (tubes, heat):
        tracer.span(owner, "point_in_polygon_mask",
                    "geom.point_in_polygon_mask", _count_mask)
    tracer.span(vonkoch, "check_closed_polyline_simple",
                "geom.check_closed_polyline_simple")
    for owner in (cli, tubes):
        tracer.span(owner, "distance_field", "tubes.distance_field",
                    _count_cells)
        tracer.span(owner, "tube_function", "tubes.tube_function")
    tracer.span(cli, "verify_gkf_sfe", "tubes.verify_gkf_sfe")
    tracer.span(heat, "solve_heat_fdm", "heat.solve_heat_fdm", _count_heat)
    tracer.span(cli, "heat_exponent_fit", "heat.heat_exponent_fit")
    tracer.span(cli, "nonlattice_poles", "zeta.nonlattice_poles",
                _count_poles)
    for owner in (cli, zeta):
        tracer.span(owner, "lattice_poles", "zeta.lattice_poles",
                    _count_poles)
    tracer.counter(zeta.DirichletPoly, "__call__", "zeta.P_evals")
    tracer.counter(zeta.DirichletPoly, "derivative", "zeta.dP_evals")
    for owner in (cli, mellin):
        tracer.span(owner, "sfe_zeta_residue", "mellin.sfe_zeta_residue")
    tracer.counter(mellin, "truncated_mellin", "mellin.truncated_mellin_calls")
    tracer.counter(mellin.MellinEvaluator, "build", "mellin.evaluator_builds")
    for owner in (cli, explicit):
        tracer.span(owner, "build_terms", "explicit.build_terms",
                    _count_terms)
        tracer.span(owner, "evaluate_sum", "explicit.evaluate_sum")
        tracer.span(owner, "compare_explicit", "explicit.compare_explicit")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def metrics(self_s, counts, max_abs_p: float) -> dict:
    """Per-layer metrics of one pass from its self times and counters."""
    out = {
        "cli.self_s": self_s["cli.run_command"],
        "vonkoch.snowflake_s": self_s["vonkoch.snowflake"],
        "vonkoch.snowflake_calls": counts["vonkoch.snowflake.calls"],
        "vonkoch.segments": counts["vonkoch.segments"],
        "geom.point_in_polygon_mask_s": self_s["geom.point_in_polygon_mask"],
        "geom.mask_cells": counts["geom.mask_cells"],
        "geom.check_closed_polyline_simple_s":
            self_s["geom.check_closed_polyline_simple"],
        "tubes.distance_field_s": self_s["tubes.distance_field"],
        "tubes.cells": counts["tubes.cells"],
        "tubes.cells_per_s": _rate(counts["tubes.cells"],
                                   self_s["tubes.distance_field"]),
        "tubes.field_bytes": 8 * counts["tubes.cells"],
        "tubes.tube_function_s": self_s["tubes.tube_function"],
        "tubes.verify_gkf_sfe_s": self_s["tubes.verify_gkf_sfe"],
        "heat.solve_heat_fdm_s": self_s["heat.solve_heat_fdm"],
        "heat.solves": counts["heat.solve_heat_fdm.calls"],
        "heat.unknowns": counts["heat.unknowns"],
        "heat.save_times": counts["heat.save_times"],
        "heat.unknowns_per_s": _rate(counts["heat.unknowns"],
                                     self_s["heat.solve_heat_fdm"]),
        "heat.exponent_fit_s": self_s["heat.heat_exponent_fit"],
        "zeta.nonlattice_poles_s": self_s["zeta.nonlattice_poles"],
        "zeta.lattice_poles_s": self_s["zeta.lattice_poles"],
        "zeta.P_evals": counts["zeta.P_evals"],
        "zeta.dP_evals": counts["zeta.dP_evals"],
        "zeta.poles": counts["zeta.poles"],
        "zeta.max_abs_P": max_abs_p,
        "mellin.sfe_zeta_residue_s": self_s["mellin.sfe_zeta_residue"],
        "mellin.residues": counts["mellin.sfe_zeta_residue.calls"],
        "mellin.truncated_mellin_calls":
            counts["mellin.truncated_mellin_calls"],
        "mellin.evaluator_builds": counts["mellin.evaluator_builds"],
        "explicit.build_terms_s": self_s["explicit.build_terms"],
        "explicit.evaluate_sum_s": self_s["explicit.evaluate_sum"],
        "explicit.compare_explicit_s": self_s["explicit.compare_explicit"],
        "explicit.terms": counts["explicit.terms"],
    }
    return {k: float(v) for k, v in out.items()}
