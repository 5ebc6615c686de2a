"""The benchmark's workloads: inputs, operations and answer gates.

Each workload builds its inputs from the seed once, then runs passes.
The seed translates the unit square of the tube and heat workloads,
draws extra probe times for the square's tube check, permutes the order
in which the nonlattice ratios are listed, and orders the operations of
each pass.  None of these changes the amount of work.  A pass runs
every operation of the workload once and returns one ``Outcome`` per
operation.  An operation fails when it raises or when its answer misses
a gate; a failure is recorded and the pass goes on.

Gates use only exact oracles or budgets the code declares.  Quantities
without a defensible budget (the Minkowski and heat-exponent fits, the
``passed`` flag of ``compare_explicit``) are recorded as ``info``.

Operations call the library through module attributes
(``tubes.distance_field``, not a name imported from it), so the layer
probes of ``layers.py`` see every call.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fractaldims import (cli, explicit, heat, mellin, sampled, tubes,
                         vonkoch, zeta)

import oracles

#: scaling ratios of the nonlattice string used by ``dims`` and ``poles``
NONLATTICE_RATIOS = [[0.5, 1], [1.0 / 3.0, 1], [0.2, 1]]

#: the (n, r) von Koch snowflake of the tube and heat workloads
SNOWFLAKE = {"n": 3, "r": 1.0 / 3.0}

#: relative budget of the square heat content against its Fourier series,
#: as in the heat tests
SQUARE_HEAT_BUDGET = 0.01

#: budget of the Cantor explicit formula's max_rel_dev, as in the
#: explicit-formula tests
CANTOR_BUDGET = 0.01


@dataclass
class Outcome:
    op: str
    ok: bool
    detail: str = ""
    err_frac: float | None = None   # |answer - oracle| / budget
    digest: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TubeSizes:
    level: int = 4
    h: float = 3e-3
    # coarser than the sector's h, so the sector holds most of the grid
    # cells (48k of 58k) as well as of the time
    square_h: float = 1e-2


@dataclass(frozen=True)
class HeatSizes:
    level: int = 3
    h: float = 5e-3
    square_h: float = 5e-3
    t_min: float = 3e-4
    t_max: float = 3e-3
    per_decade: int = 24


@dataclass(frozen=True)
class SpectralSizes:
    im_max: float = 12.0
    cantor_im_max: float = 12.0


# ---------------------------------------------------------------------------
# helpers


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def _run_cli(command: str, config: dict, out: Path) -> tuple[dict, Path]:
    """Run one CLI command into a fresh directory; returns its manifest
    and that directory."""
    shutil.rmtree(out, ignore_errors=True)
    cli.run_command(command, config, out)
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["from_cache"]:
        raise RuntimeError(f"{command}: manifest says from_cache")
    return manifest, out


def _three_points(ts: np.ndarray, vals: np.ndarray) -> dict:
    """Digest: values at the first, middle and last sample."""
    idx = (0, len(ts) // 2, len(ts) - 1)
    return {f"{ts[i]:.6g}": repr(float(vals[i])) for i in idx}


def moran_dimension(ratios) -> float:
    """Real root of the benchmark's own P(s), by bisection."""
    lo, hi = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracles.dirichlet_p(ratios, mid).real < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snowflake_ratios():
    """Scaling ratios of the (n, r) curve: ell = (1-r)/2 twice, r n-1 times."""
    n, r = SNOWFLAKE["n"], SNOWFLAKE["r"]
    return [[(1 - r) / 2, 2], [r, n - 1]]


def square(offset) -> np.ndarray:
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) \
        + np.asarray(offset)


# ---------------------------------------------------------------------------
# gates, pure functions of answers so the self-tests can perturb them


def gate_moran(ratios, d: float) -> tuple[bool, float]:
    p = abs(oracles.dirichlet_p(ratios, d))
    return p < 1e-12, p


def gate_poles(ratios, omegas, search_count) -> tuple[bool, str, float]:
    """Every |P(w)| < POLE_TOL, conjugate-closed, count = winding count."""
    max_p = max((abs(oracles.dirichlet_p(ratios, w)) for w in omegas),
                default=0.0)
    problems = []
    if max_p >= zeta.POLE_TOL:
        problems.append(f"max|P|={max_p:.3e}")
    unmatched = list(omegas)
    while unmatched:
        w = unmatched.pop()
        tol = 1e-9 * max(1.0, abs(w))
        if abs(w.imag) <= tol:
            continue  # a real pole is its own conjugate
        partner = min(unmatched, default=None,
                      key=lambda u: abs(u - w.conjugate()))
        if partner is None or abs(partner - w.conjugate()) > tol:
            problems.append(f"{w} has no conjugate")
            break
        unmatched.remove(partner)
    if search_count is not None and len(omegas) != search_count:
        problems.append(f"{len(omegas)} poles, winding count "
                        f"{search_count}")
    return not problems, "; ".join(problems), max_p


def gate_relative(answer, oracle, budget: float) -> tuple[bool, float]:
    """max |answer - oracle| / |oracle| against a relative budget."""
    answer = np.asarray(answer, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    rel = float(np.max(np.abs(answer - oracle) / np.abs(oracle)))
    return rel < budget, rel / budget


def gate_absolute(answer, oracle, budget: float) -> tuple[bool, float]:
    err = float(np.max(np.abs(np.asarray(answer) - np.asarray(oracle))))
    return err <= budget, err / budget


def gate_content(vals, ceiling: float) -> tuple[bool, str]:
    """E(t) lies in (0, ceiling] and increases strictly."""
    vals = np.asarray(vals, dtype=float)
    problems = []
    if not np.all(vals > 0):
        problems.append("E <= 0")
    if not np.all(vals <= ceiling):
        problems.append(f"E > {ceiling:.6g}")
    if not np.all(np.diff(vals) > 0):
        problems.append("E not increasing")
    return not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs from the seed, and the operations of one pass."""

    name = ""

    def __init__(self, seed: int, out: Path, sizes=None):
        self.out = Path(out)
        self.sizes = sizes if sizes is not None else self.Sizes()
        self.order_rng = random.Random(seed)

    def operations(self):
        raise NotImplementedError

    def run_pass(self, on_op=None) -> list[Outcome]:
        ops = list(self.operations())
        self.order_rng.shuffle(ops)
        outcomes = []
        for index, (name, fn) in enumerate(ops):
            if on_op is not None:
                on_op(index)
            try:
                outcome = fn()
            except Exception as exc:  # a raising operation is a failure
                outcome = Outcome(name, False, f"{type(exc).__name__}: {exc}")
            outcomes.append(outcome)
        return outcomes


class TubeSector(Workload):
    """CLI ``tube`` on a snowflake sector, and the unit-square tube."""

    name = "tube-sector"
    Sizes = TubeSizes

    def __init__(self, seed, out, sizes=None):
        super().__init__(seed, out, sizes)
        rng = np.random.default_rng(seed)
        h = self.sizes.square_h
        self.square = square(rng.random(2))
        fixed = np.array([0.05, 0.1, 0.2])
        grid = sampled.geometric_grid(10 * h, 0.45, 24)
        probes = rng.uniform(10 * h, 0.45, 8)
        self.square_ts = np.unique(np.concatenate([grid, fixed, probes]))
        self.fixed_ts = fixed
        self.config = {**SNOWFLAKE, "level": self.sizes.level,
                       "h": self.sizes.h, "sector": 0}
        self.dimension = moran_dimension(snowflake_ratios())

    def operations(self):
        return [("cli.tube", self.cli_tube), ("square.tube", self.square_tube)]

    def cli_tube(self) -> Outcome:
        manifest, out = _run_cli("tube", self.config, self.out / "tube")
        report = json.loads((out / "sfe_report.json").read_text())
        table = _read_csv(out / "tube.csv")
        checks = {c["name"]: c["passed"] for c in manifest["checks"]}
        ok = bool(report["sfe_passed"]) and checks.get("sfe_residual") is True
        d_est = report["minkowski_dimension_fit"]
        return Outcome(
            "cli.tube", ok, "" if ok else "SFE residual outside its budget",
            digest={"V": _three_points(table[:, 0], table[:, 1]),
                    "sector_area": repr(report["sector_area"])},
            info={"minkowski_fit": {"D_est": d_est, "D": self.dimension}})

    def square_tube(self) -> Outcome:
        curve = np.vstack([self.square, self.square[:1]])
        fld = tubes.distance_field(curve, self.square, self.sizes.square_h)
        v = tubes.tube_function(fld, self.square_ts)
        exact = oracles.square_tube_volume(self.square_ts)
        budget = tubes.grid_error_budget(fld)
        ok, err_frac = gate_absolute(v.vals, exact, budget)
        at = np.searchsorted(v.ts, self.fixed_ts)
        return Outcome(
            "square.tube", ok, "" if ok else "V(t) outside the grid budget",
            err_frac=err_frac,
            digest={"V": {f"{t:g}": repr(float(v.vals[i]))
                          for t, i in zip(self.fixed_ts, at)}})


class HeatSnowflake(Workload):
    """CLI ``heat`` on a snowflake, and the unit-square heat content."""

    name = "heat-snowflake"
    Sizes = HeatSizes

    def __init__(self, seed, out, sizes=None):
        super().__init__(seed, out, sizes)
        rng = np.random.default_rng(seed)
        s = self.sizes
        self.square = square(rng.random(2))
        self.ts = sampled.geometric_grid(s.t_min, s.t_max, s.per_decade)
        self.square_oracle = oracles.fourier_square_content(self.ts)
        self.config = {**SNOWFLAKE, "level": s.level, "h": s.h,
                       "t_min": s.t_min, "t_max": s.t_max,
                       "points_per_decade": s.per_decade}
        n, r = SNOWFLAKE["n"], SNOWFLAKE["r"]
        self.dimension = moran_dimension(snowflake_ratios())
        # the content can exceed the polygon area by at most the
        # half-weight ring of boundary-cut cells, a band of width 2h
        area = vonkoch.snowflake_area_series(vonkoch.GKCParams(n, r),
                                             s.level)
        perimeter = n * (1 - r + (n - 1) * r) ** s.level
        self.ceiling = area + 2.0 * s.h * perimeter

    def operations(self):
        return [("cli.heat", self.cli_heat), ("square.heat", self.square_heat)]

    def cli_heat(self) -> Outcome:
        _, out = _run_cli("heat", self.config, self.out / "heat")
        table = _read_csv(out / "heat.csv")
        report = json.loads((out / "heat_report.json").read_text())
        ok, detail = gate_content(table[:, 1], self.ceiling)
        if len(table) != len(self.ts):
            ok, detail = False, f"{len(table)} save times, not {len(self.ts)}"
        return Outcome(
            "cli.heat", ok, detail,
            digest={"E": _three_points(table[:, 0], table[:, 1])},
            info={"exponent_fit": {"p": report["exponent_fit"],
                                   "expected": (2 - self.dimension) / 2}})

    def square_heat(self) -> Outcome:
        problem = heat.HeatProblem(region=self.square)
        e = heat.solve_heat_content(problem, self.sizes.square_h, self.ts)
        ok, err_frac = gate_relative(e.vals, self.square_oracle,
                                     SQUARE_HEAT_BUDGET)
        return Outcome(
            "square.heat", ok, "" if ok else "E(t) off the Fourier series",
            err_frac=err_frac, digest={"E": _three_points(e.ts, e.vals)})


class Spectral(Workload):
    """CLI ``dims`` and ``poles`` on a nonlattice string, and the Cantor
    string's explicit formula through the library."""

    name = "spectral"
    Sizes = SpectralSizes

    def __init__(self, seed, out, sizes=None):
        super().__init__(seed, out, sizes)
        # the CLI must not depend on the order the ratios are listed in
        listed = [list(pair) for pair in NONLATTICE_RATIOS]
        random.Random(seed).shuffle(listed)
        self.ratios_cfg = {"ratios": listed}
        cs = oracles.CantorString()
        tg = np.geomspace(1e-5, 0.4, 4000)
        vg = cs.volume(tg)
        self.delta = float(tg[np.searchsorted(vg, 0.9) - 1])
        ts = np.unique(np.concatenate([
            sampled.geometric_grid(1e-8, 3 * self.delta * 1.01, 400),
            cs.lens / 2, cs.lens * (1 + 1e-9)]))
        ts = ts[ts > 0]
        self.cantor_ratios = zeta.RatioMultiset(((1 / 3, 2),))
        self.f = sampled.SampledFunction(ts, cs.volume(ts) / ts)
        self.rn = sampled.SampledFunction(ts, cs.remainder(ts) / ts)
        self.t_eval = sampled.geometric_grid(1e-3, 1e-1, 60)
        self.direct = sampled.SampledFunction(self.t_eval,
                                              cs.volume_anti2(self.t_eval))
        # symmetric partial sums at a quarter, half and all of the search
        # height; the Cantor poles lie at |Im| = k * 2pi/log 3 = 5.72k, so
        # at cantor_im_max = 12 the first sum holds the real pole and each
        # later one adds a conjugate pair
        top = self.sizes.cantor_im_max
        self.cutoffs = (top / 4, top / 2, top)

    def operations(self):
        return [("cli.dims", self.cli_dims), ("cli.poles", self.cli_poles),
                ("cantor.explicit", self.cantor_explicit)]

    def cli_dims(self) -> Outcome:
        _, out = _run_cli("dims", self.ratios_cfg, self.out / "dims")
        doc = json.loads((out / "dims.json").read_text())
        d = doc["similarity_dimension"]
        ok, p = gate_moran(NONLATTICE_RATIOS, d)
        if doc["lattice"] is not None:
            ok = False
        return Outcome("cli.dims", ok,
                       "" if ok else f"|P(D)|={p:.3e} or lattice verdict",
                       digest={"D": repr(d)})

    def cli_poles(self) -> Outcome:
        config = {**self.ratios_cfg, "im_max": self.sizes.im_max}
        found = []
        search = cli.nonlattice_poles

        def capture(*args, **kwargs):
            dims = search(*args, **kwargs)
            found.append(dims)
            return dims

        cli.nonlattice_poles = capture
        try:
            _, out = _run_cli("poles", config, self.out / "poles")
        finally:
            cli.nonlattice_poles = search
        doc = json.loads((out / "poles.json").read_text())
        omegas = [complex(p["re"], p["im"]) for p in doc["poles"]
                  for _ in range(p["mult"])]
        count = found[0].search_count if found else None
        if count is None:
            return Outcome("cli.poles", False, "no winding count recorded")
        ok, detail, max_p = gate_poles(NONLATTICE_RATIOS, omegas, count)
        return Outcome("cli.poles", ok, detail, digest={
            "poles": len(omegas), "max_abs_P": repr(max_p)})

    def cantor_explicit(self) -> Outcome:
        ratios = self.cantor_ratios
        dims = zeta.lattice_poles(zeta.detect_lattice(ratios),
                                  im_max=self.sizes.cantor_im_max)
        omegas = [p.omega for p in dims.poles]
        pairs = [[r, m] for r, m in ratios.entries]
        poles_ok, detail, max_p = gate_poles(pairs, omegas, None)
        residues = [mellin.sfe_zeta_residue(ratios, self.f, self.rn, w,
                                            self.delta, alpha=1.0)
                    for w in omegas]
        built = explicit.build_terms(dims, residues, beta=1.0, alpha=1.0, k=2)
        extra = explicit.remainder_term(ratios, self.rn, beta=1.0, alpha=1.0,
                                        k=2)
        terms = list(built.terms) + ([extra] if extra is not None else [])
        series = explicit.evaluate_sum(terms, self.t_eval,
                                       im_cutoffs=self.cutoffs)
        comp = explicit.compare_explicit(self.direct, series,
                                         expected_remainder_exp=2.95)
        ok = poles_ok and comp.max_rel_dev < CANTOR_BUDGET
        if not ok and not detail:
            detail = f"max_rel_dev {comp.max_rel_dev:.3e}"
        return Outcome(
            "cantor.explicit", ok, detail,
            err_frac=comp.max_rel_dev / CANTOR_BUDGET,
            digest={"terms": len(terms), "poles": len(omegas),
                    "max_abs_P": repr(max_p),
                    "max_rel_dev": repr(comp.max_rel_dev)},
            info={"compare_explicit_passed": bool(comp.passed)})


WORKLOADS = {w.name: w for w in (TubeSector, HeatSnowflake, Spectral)}
