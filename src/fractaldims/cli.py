"""Command-line drivers and result manifests.

    fractal-dims <dims|poles|tube|heat|explicit|render> --config file.json
                 [--out DIR] [--set key=value ...]

Each run reads one JSON config document (flags override file values),
writes its outputs plus a manifest.json into the output directory, and
is keyed by the SHA-256 of the canonical config.  With FRACTAL_DIMS_CACHE
set, ``tube``, ``heat`` and ``explicit`` serve their files byte-for-byte
from one cache file per run, keyed by the config, the package version
and a digest of the package source (``cache``).  All commands are
deterministic: identical configs produce identical CSV bytes, at any
BLAS thread count.

``tube``, ``heat`` and ``explicit`` build their snowflake once and pass
it on: ``tube`` to ``tubes.sector_field`` and ``verify_gkf_sfe``, and
``explicit`` and ``heat remainder=true`` to their source's
``decomposition_remainder(region, ts, h)``, in ``tubes`` or ``heat``.
``explicit`` computes F and R, locates the poles and hands all three to
``explicit.run``, which compares data integrated from the first sample
with the pole sum modulo the polynomial that start leaves, reported too.

Every knob is read once and refused before any snowflake, search, field
or solve.  A numeric knob's type, default and range are declared in its
one ``_number`` read.  A rule between knobs is refused next to their
reads, naming them and their values: t_min < t_max, a given cutoff
above im_max (the default cutoffs stop at im_max), a t_min below the
floor that the kernel checks again at entry (``tubes.TUBE_FLOOR``, 5h,
or ``heat.HEAT_FLOOR``, 25h^2, on diffusivity * t_min for ``heat
remainder=true``; plain ``heat`` takes any t), too few times in a fit
window (``sampled.fit_window``), a delta above t_max * lambda_min^alpha
and, with delta or eval_t_max given, an evaluation window that is empty
or under FIT_MIN_SAMPLES + k - 2 times.  A window resting on delta read
off the data is refused right after it, and a pole left of the abscissa
fitted to R naming t_min.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, heat, tubes
from .cache import ResultCache, config_hash, sha256_file, source_digest
from .errors import DivergenceDomainError
# build_terms, compare_explicit, evaluate_sum and sfe_zeta_residue are not
# called here: the benchmark's layer probes wrap them in cli
from .explicit import (build_terms, compare_explicit,  # noqa: F401
                       evaluate_sum, run)
from .heat import (HEAT_FLOOR, HeatProblem, decomposition_remainder,
                   heat_exponent_fit, solve_heat_content, verify_heat_scaling)
from .mellin import sfe_zeta_residue  # noqa: F401
from .sampled import (FIT_MIN_SAMPLES, SampledFunction, csv_bytes,
                      fit_window, geometric_grid)
from .tubes import (TUBE_FLOOR, distance_field, minkowski_fit, sector_field,
                    tube_function, verify_gkf_sfe)
from .vonkoch import (GKCParams, polyline_to_svg_path, prefractal, snowflake,
                      snowflake_boundary)
from .zeta import (POLE_TOL, ComplexDimensionSet, DirichletPoly,
                   RatioMultiset, detect_lattice, lattice_poles,
                   lower_similarity_dimension, nonlattice_poles,
                   similarity_dimension)

POLES_SVG_SIZE = 640  #: side of the square poles.svg plot, in pixels


def _ratios_from_config(cfg) -> RatioMultiset:
    if "ratios" not in cfg:
        for key in ("n", "r"):
            if key not in cfg:
                raise ValueError(f"{key} is required, or ratios")
        return RatioMultiset.from_pairs(_params(cfg).ratio_pairs)
    pairs = _number(cfg, "ratios", kind=lambda v: [(float(r), m)
                                                   for r, m in v])
    try:
        return RatioMultiset.from_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"ratios: {exc}; got {cfg['ratios']!r}") from None


def _choice(cfg, key: str, allowed: tuple):
    """cfg[key], by default allowed[0]; any other value, or one of another
    type (1 for True), is refused before the command does any work.
    Choices that are not strings are named as JSON spells them."""
    value = cfg.get(key, allowed[0])
    if type(value) is not type(allowed[0]) or value not in allowed:
        names = ", ".join(c if isinstance(c, str) else json.dumps(c)
                          for c in allowed)
        raise ValueError(f"{key} must be one of {names}; got {value!r}")
    return value


_REQUIRED = object()  #: _number's default of a knob that has none


def _number(cfg, key: str, default=_REQUIRED, kind=float, *, least=None,
            above=None):
    """kind(cfg[key]), or kind(default) when the key is absent; without a
    default the key is required, and with default None it is optional:
    None when absent or null.  kind is float, int (which refuses a
    fractional value) or a converter of a list.  The knob's range is
    declared here: every number of the result must be >= least and
    > above, where given.  A bool, a value that does not convert, a
    result with a non-finite number in it and a number out of range raise
    one ValueError naming the key and the value, and so does a required
    key that is absent."""
    if default is _REQUIRED and key not in cfg:
        raise ValueError(f"{key} is required")
    value = cfg.get(key, default)
    if value is None and default is None:
        return None
    try:
        if isinstance(value, bool):
            raise ValueError
        out = kind(value)
        if kind is int and out != float(value):
            raise ValueError
        if not np.all(np.isfinite(out)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "numeric"
        raise ValueError(f"{key} must be {what}; got {value!r}") from None
    for bound, holds, rule in ((least, np.greater_equal, ">="),
                               (above, np.greater, ">")):
        if bound is not None and not np.all(holds(out, bound)):
            raise ValueError(f"{key} must be {rule} {bound}; got {value!r}")
    return out


def _params(cfg) -> GKCParams:
    return GKCParams(_number(cfg, "n", kind=int), _number(cfg, "r"))


def _snowflake_from_config(cfg, default_level: int):
    """The one snowflake of a tube, heat or explicit run, built before
    any field or solve: ``snowflake`` refuses r at or above the
    self-avoidance bound (render draws ``snowflake_boundary`` instead)."""
    return snowflake(_params(cfg),
                     _number(cfg, "level", default_level, int, least=0))


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _poles_csv(dims: ComplexDimensionSet) -> bytes:
    rows = [(p.omega.real, p.omega.imag, p.residue.real, p.residue.imag,
             p.multiplicity) for p in dims.poles]
    return csv_bytes(["re", "im", "res_re", "res_im", "mult"], rows)


def _poles_svg(dims: ComplexDimensionSet) -> bytes:
    width = height = POLES_SVG_SIZE
    re_min, re_max, im_max = dims.window
    span_re = max(re_max - re_min, 1e-9)
    pad = 0.15 * span_re
    x0, x1 = re_min - pad, re_max + pad
    y0, y1 = -im_max * 1.05, im_max * 1.05

    def sx(x):
        return (x - x0) / (x1 - x0) * width

    def sy(y):
        return height - (y - y0) / (y1 - y0) * height

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<line x1="{sx(x0):.2f}" y1="{sy(0):.2f}" x2="{sx(x1):.2f}" '
             f'y2="{sy(0):.2f}" stroke="#999" stroke-width="1"/>']
    for p in dims.poles:
        parts.append(f'<circle cx="{sx(p.omega.real):.2f}" '
                     f'cy="{sy(p.omega.imag):.2f}" r="3" fill="#1f4e9c"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode()


def _locate_poles(ratios: RatioMultiset, im_max: float
                  ) -> ComplexDimensionSet:
    lattice = detect_lattice(ratios)
    if lattice is not None:
        return lattice_poles(lattice, im_max)
    poly = DirichletPoly(ratios)
    d_up = similarity_dimension(ratios)
    d_lo = lower_similarity_dimension(ratios)
    return nonlattice_poles(poly, (d_lo, d_up), im_max)


# ---------------------------------------------------------------------------
# commands; each returns {filename: bytes} plus a checks list


def cmd_dims(cfg):
    ratios = _ratios_from_config(cfg)
    d_up = similarity_dimension(ratios)
    d_lo = lower_similarity_dimension(ratios)
    lattice = detect_lattice(ratios)
    doc = {
        "similarity_dimension": d_up,
        "lower_similarity_dimension": d_lo,
        "lattice": None if lattice is None else {
            "generator": lattice.generator,
            "exponents": [list(e) for e in lattice.exponents],
        },
        "ratios": [[r, m] for r, m in ratios.entries],
    }
    files = {
        "dims.json": _json_bytes(doc),
        "dims.csv": csv_bytes(
            ["quantity", "value"],
            [("similarity_dimension", d_up),
             ("lower_similarity_dimension", d_lo),
             ("lattice", "yes" if lattice else "no")]),
    }
    residual = abs(float(DirichletPoly(ratios)(d_up)))
    return files, [{"name": "moran_root", "passed": residual < 1e-12,
                    "detail": f"D={d_up:.12g}, |P(D)|={residual:.3e}"}]


def cmd_poles(cfg):
    ratios = _ratios_from_config(cfg)
    dims = _locate_poles(ratios, _number(cfg, "im_max", 60.0, above=0))
    files = {
        "poles.csv": _poles_csv(dims),
        "poles.svg": _poles_svg(dims),
        "poles.json": (dims.to_json() + "\n").encode(),
    }
    poly = DirichletPoly(ratios)
    max_p = max((abs(poly(p.omega)) for p in dims.poles), default=0.0)
    passed = max_p < POLE_TOL
    detail = f"{len(dims.poles)} poles, max|P|={max_p:.3e}, "
    if dims.lattice is not None:
        detail += "lattice"
    else:
        emitted = sum(p.multiplicity for p in dims.poles)
        passed = passed and emitted == dims.search_count
        detail += f"nonlattice, winding count {dims.search_count}"
    return files, [{"name": "pole_search", "passed": bool(passed),
                    "detail": detail}]


def _times(cfg, h, t_min, t_max, per_decade):
    """(h, t grid) of a run, each knob read once and by default the given
    value; t_min's default is a function of h."""
    h = _number(cfg, "h", h, above=0)
    t_min = _number(cfg, "t_min", t_min(h), above=0)
    t_max = _number(cfg, "t_max", t_max)
    if not t_min < t_max:
        raise ValueError(f"t_min must be < t_max; got t_min={t_min:g}, "
                         f"t_max={t_max:g}")
    per_decade = _number(cfg, "points_per_decade", per_decade, int, least=1)
    return h, geometric_grid(t_min, t_max, per_decade)


def _tube_times(cfg, run: str):
    """(h, tube time grid) of a tube run, refused below the tube floor."""
    h, ts = _times(cfg, 1e-3, lambda h: max(10 * h, 1e-3), 0.3, 48)
    TUBE_FLOOR.check(run, "t_min", ts[0], h)
    return h, ts


def _tube_windows(cfg, h: float, ts):
    """(SFE times, fit window) of a tube run, refused before any field
    is built: the SFE resolves t >= TUBE_FLOOR only, and the fit
    window must hold enough tube times (``fit_window``)."""
    sfe_min = _number(cfg, "sfe_t_min", max(0.01, TUBE_FLOOR.at(h)))
    sfe_max = _number(cfg, "sfe_t_max", 0.05)
    points = _number(cfg, "sfe_points", 9, int, least=1)
    if not TUBE_FLOOR.at(h) <= sfe_min < sfe_max:
        raise ValueError(
            f"tube needs 5h <= sfe_t_min < sfe_t_max; h={h:g} gives "
            f"sfe_t_min={sfe_min:g} (default max(0.01, 5h)), sfe_t_max="
            f"{sfe_max:g}: lower h or set sfe_t_min and sfe_t_max")
    window = (_number(cfg, "fit_t_min", ts[0]),
              _number(cfg, "fit_t_max", ts[-1]))
    fit_window("tube", ts, window)
    return np.geomspace(sfe_min, sfe_max, points), window


def cmd_tube(cfg):
    h, ts = _tube_times(cfg, "tube")
    sfe_ts, window = _tube_windows(cfg, h, ts)
    region = _snowflake_from_config(cfg, 5)
    # the kernel by its cli name, which the benchmark's layer probes wrap
    fld = sector_field(region, h, distance_field)
    tube = tube_function(fld, ts)
    report = verify_gkf_sfe(region, fld, sfe_ts)
    d_est, c_est = minkowski_fit(tube, window)
    doc = {
        "sfe_passed": report.passed,
        "sfe_rho": [float(x) for x in report.rho],
        "sfe_bound": [float(x) for x in report.bound],
        "sfe_budget": [float(x) for x in report.budget],
        "prefractal_gap": report.gap,
        "sector_area": fld.region_area,
        "minkowski_dimension_fit": d_est,
        "minkowski_prefactor": c_est,
    }
    files = {
        "tube.csv": tube.to_csv(),
        "tube_meta.json": (tube.meta_json() + "\n").encode(),
        "sfe_report.json": _json_bytes(doc),
    }
    checks = [{"name": "sfe_residual", "passed": bool(report.passed),
               "detail": f"max rho {float(np.max(report.rho)):.3e}"}]
    return files, checks


def cmd_heat(cfg):
    # an absent scaling_lambda means no scaling check
    lam = _number(cfg, "scaling_lambda", None, above=0)
    diffusivity = _number(cfg, "diffusivity", 1.0, above=0)
    h, ts = _times(cfg, 2e-3, lambda h: 3e-4, 3e-3, 24)
    # the exponent fit runs on every sample; refuse its grid before a solve
    fit_window("heat", ts, (ts[0], ts[-1]))
    remainder = _choice(cfg, "remainder", (False, True))
    if remainder:
        HEAT_FLOOR.check("heat remainder=true", "diffusivity*t_min",
                         diffusivity * ts[0], h)
    region = _snowflake_from_config(cfg, 4)
    problem = HeatProblem(region=region.boundary)
    # diffusivity C rescales time: E_C(t) = E_1(C t); with the remainder,
    # its one solve gives the content too
    rem = None
    if remainder:
        content, rem = decomposition_remainder(region, diffusivity * ts, h)
    else:
        content = solve_heat_content(problem, h, diffusivity * ts)
    content = SampledFunction(
        ts, content.vals, meta={**content.meta, "diffusivity": diffusivity})
    # the fitted exponent and the remainder bound have no declared budget,
    # so they are reported numbers, not checks
    doc = {"exponent_fit": heat_exponent_fit(content, (ts[0], ts[-1]))}
    checks = []
    files = {
        "heat.csv": content.to_csv(),
        "heat_meta.json": (content.meta_json() + "\n").encode(),
    }
    if rem is not None:
        # R labelled, and its bound max |R|/t fitted, at the requested t
        files["remainder.csv"] = SampledFunction(ts, rem.vals).to_csv()
        doc["remainder_linear_bound_fit"] = float(np.abs(rem.vals / ts).max())
    if lam is not None:
        rep = verify_heat_scaling(problem, lam, diffusivity * ts, h)
        checks.append({"name": "heat_scaling", "passed": bool(rep.passed),
                       "detail": f"max rel dev {rep.max_rel_dev:.4g}"})
    doc["checks"] = checks
    files["heat_report.json"] = _json_bytes(doc)
    return files, checks


def _eval_grid(cfg, ts, delta: float | None, k: int):
    """An explicit run's evaluation times, 24 per decade from eval_t_min
    (default t_min) to eval_t_max (default 0.8 delta, the one read of
    delta) in [t_min, t_max]: at least FIT_MIN_SAMPLES + k - 2, as the
    start polynomial takes k."""
    eval_t_min = _number(cfg, "eval_t_min", ts[0])
    given = "eval_t_max" in cfg
    eval_t_max = _number(cfg, "eval_t_max",
                         _REQUIRED if given else delta * 0.8)
    default = "" if given else " (default 0.8*delta)"
    if not ts[0] <= eval_t_min < eval_t_max <= ts[-1]:
        named = f"{default}, delta={delta:.6g}" if default else ""
        raise ValueError(
            f"empty evaluation window: need t_min <= eval_t_min < eval_t_max "
            f"<= t_max, got eval_t_min={eval_t_min:.6g}, eval_t_max="
            f"{eval_t_max:.6g}{named}, t_min={ts[0]:.6g}, t_max={ts[-1]:.6g}")
    t_grid = geometric_grid(eval_t_min, eval_t_max, 24)
    need = FIT_MIN_SAMPLES + k - 2
    if len(t_grid) < need:
        raise ValueError(
            f"explicit needs at least {need} evaluation times at k={k}; "
            f"eval_t_min={eval_t_min:.6g}, eval_t_max={eval_t_max:.6g}"
            f"{default} gives {len(t_grid)}: widen the window")
    return t_grid


def cmd_explicit(cfg):
    source = _choice(cfg, "source", ("tube", "heat"))
    k = _number(cfg, "k", 2, int, least=2)
    im_max = _number(cfg, "im_max", 80.0, above=0)
    cutoffs = _number(cfg, "cutoffs", (10, 20, 40, 80),
                      lambda v: tuple(float(c) for c in v), least=0)
    if "cutoffs" in cfg and any(c > im_max for c in cutoffs):
        raise ValueError(f"cutoffs must be <= im_max; got cutoffs="
                         f"{cfg['cutoffs']!r}, im_max={im_max:g}")
    # the default heights stop at im_max
    cutoffs = tuple(c for c in cutoffs if c <= im_max) or (im_max,)
    # F = sum_k a_k lambda_k^2 F(t / lambda_k^alpha) + R: alpha 1 for the
    # sector tube volume, 2 for the heat content; the tube and heat zeta
    # functions transform F(t) / t^(beta/alpha)
    beta = 2.0
    if source == "tube":
        alpha, data, level = 1.0, tubes, 5
        h, ts = _tube_times(cfg, "explicit source=tube")
    else:
        alpha, data, level = 2.0, heat, 4
        h, ts = _times(cfg, 2e-3, lambda h: 1.05 * HEAT_FLOOR.at(h), .5, 24)
        HEAT_FLOOR.check("explicit source=heat", "t_min", ts[0], h)
    ratios = RatioMultiset.from_pairs(_params(cfg).ratio_pairs)
    # the residues read F up to delta / lambda_min^alpha
    delta_max = float(ts[-1]) * float(np.min(ratios.ratios)) ** alpha
    delta = _number(cfg, "delta", None, above=0)
    if delta is not None and delta > delta_max:
        raise ValueError(
            f"need 0 < delta <= t_max*lambda_min^alpha; delta={delta:g} "
            f"with t_max={ts[-1]:g} allows at most {delta_max:.6g}: "
            f"lower delta or raise t_max")
    # a window that does not rest on the data is refused before any work
    t_grid = (_eval_grid(cfg, ts, delta, k)
              if delta is not None or "eval_t_max" in cfg else None)
    F, R = data.decomposition_remainder(
        _snowflake_from_config(cfg, level), ts, h)
    if delta is None:
        # read off the data: the largest t below 90% of the saturation
        # area, the sector's (tube) or the region's (heat), in the range
        area = F.meta["region_area" if source == "tube" else "area"]
        below = ts[F.vals <= 0.9 * area]
        delta = float(below[-1]) if len(below) else float(ts[-1])
        delta = min(delta, delta_max * 0.999)
    if t_grid is None:
        t_grid = _eval_grid(cfg, ts, delta, k)
    dims = _locate_poles(ratios, im_max)
    try:
        result = run(F, R, ratios, dims, alpha=alpha, beta=beta, k=k,
                     delta=delta, t_grid=t_grid, cutoffs=cutoffs)
    except DivergenceDomainError as exc:
        raise DivergenceDomainError(f"explicit source={source}: {exc}") \
            from None
    series, comp = result.series, result.comparison
    term_rows = [(tm.omega.real, tm.omega.imag, tm.coeff.real, tm.coeff.imag,
                  tm.exponent.real, tm.exponent.imag)
                 for tm in result.terms]
    series_rows = np.column_stack([series.t_grid, *series.sums]).tolist()
    doc = {
        "k": k, "alpha": alpha, "beta": beta, "delta": delta,
        "poles": len(dims.poles), "skipped_non_simple": len(result.skipped),
        "window_points": len(t_grid),
        "start_polynomial": [float(c) for c in result.start_polynomial],
        "max_rel_dev": comp.max_rel_dev,
        "fitted_slope": comp.fitted_slope,
        "at_floor": comp.at_floor,
        "imag_leakage": list(series.imag_leakage),
    }
    files = {
        "terms.csv": csv_bytes(
            ["omega_re", "omega_im", "coeff_re", "coeff_im",
             "exp_re", "exp_im"], term_rows),
        "series.csv": csv_bytes(
            ["t"] + [f"sum_T{c:g}" for c in series.im_cutoffs], series_rows),
        "explicit_report.json": _json_bytes(doc),
    }
    checks = [{"name": "explicit_formula",
               "passed": bool(comp.passed),
               "detail": f"max rel dev {comp.max_rel_dev:.3e}"}]
    return files, checks


def cmd_render(cfg):
    params = _params(cfg)
    level = _number(cfg, "level", 4, int, least=0)
    kind = _choice(cfg, "kind", ("snowflake", "curve"))
    width = _number(cfg, "width", 800, int, least=1)
    if kind == "curve":
        verts = prefractal(params, level)
        closed = False
    else:
        verts = snowflake_boundary(params, level)
        verts = np.vstack([verts, verts[:1]])
        closed = True
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    scale = (width * 0.94) / span
    margin = 0.03 * width
    # the scaled vertical extent plus a margin above and below it
    height = int(np.ceil((hi[1] - lo[1]) * scale + 2 * margin))
    pts = (verts - lo) * scale + margin
    pts[:, 1] = height - pts[:, 1]
    path = polyline_to_svg_path(pts)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}"><path d="{path}{" Z" if closed else ""}" '
           'fill="none" stroke="#123" stroke-width="1"/></svg>')
    files = {
        "render.svg": svg.encode(),
        "vertices.csv": csv_bytes(["x", "y"],
                                   [(float(x), float(y)) for x, y in verts]),
    }
    off = int(np.sum(~np.all((pts >= 0) & (pts <= [width, height]), axis=1)))
    return files, [{"name": "render", "passed": off == 0,
                    "detail": f"{len(verts)} vertices, {off} off the "
                              f"{width}x{height} canvas"}]


COMMANDS = {
    "dims": cmd_dims,
    "poles": cmd_poles,
    "tube": cmd_tube,
    "heat": cmd_heat,
    "explicit": cmd_explicit,
    "render": cmd_render,
}

#: commands worth caching (heavy numerical stages)
CACHED_COMMANDS = {"tube", "heat", "explicit"}


def _parse_override(text: str):
    if "=" not in text:
        raise SystemExit(f"override '{text}' is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def run_command(command: str, config: dict, out_dir: Path,
                config_path: Path | None = None) -> Path:
    """Execute one command, write outputs + manifest, return the out dir."""
    started = time.perf_counter()
    key = config_hash(command, config)
    cache = ResultCache()
    cache_key = cached = None
    if command in CACHED_COMMANDS and cache.root is not None:
        # results of other code are never served: the key carries the code
        cache_key = config_hash(command, {"config": config,
                                          "version": __version__,
                                          "source": source_digest()})
        cached = cache.load(cache_key)
    if cached is None:
        files, checks = COMMANDS[command](config)
        if cache_key is not None:
            cache.store(cache_key, files, checks)
    else:
        files, checks = cached
    manifest = {
        "command": command,
        "config": config,
        "config_hash": key,
        "version": __version__,
        "inputs": ({str(config_path): sha256_file(config_path)}
                   if config_path and config_path.exists() else {}),
        "outputs": {name: hashlib.sha256(blob).hexdigest()
                    for name, blob in files.items()},
        "from_cache": cached is not None,
        "timing_s": round(time.perf_counter() - started, 6),
        "checks": checks,
    }
    # every file, the manifest last, is renamed over its name whole
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, blob in {**files,
                       "manifest.json": _json_bytes(manifest)}.items():
        tmp = out_dir / (name + ".tmp")
        tmp.write_bytes(blob)
        tmp.replace(out_dir / name)
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fractal-dims",
        description="dimensions, complex dimensions, tube volumes, and "
                    "heat content of self-similar fractals")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config document")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override a config value (JSON-parsed)")
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        config = json.loads(args.config.read_text())
    for item in args.overrides:
        key, value = _parse_override(item)
        config[key] = value
    out = args.out or Path("runs") / (
        args.command + "-" + config_hash(args.command, config)[:8])
    run_command(args.command, config, out, config_path=args.config)
    manifest = json.loads((out / "manifest.json").read_text())
    for check in manifest["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(f"outputs in {out}")
    return 0 if all(c["passed"] for c in manifest["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
