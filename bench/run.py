"""Benchmark of the fractaldims pipelines.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
The run pins every BLAS and OpenMP pool to one thread before numpy is
imported and unsets FRACTAL_DIMS_CACHE, so no result is served from a
cache.  It then runs passes of the workload until ``--seconds`` is
spent.  Every operation of every pass is gated against an oracle (see
workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is a report: the environment in effect, pass-time quartiles,
answer digests, ``info`` quantities and failure details.

With ``--trace 0`` the metrics are end to end:

* ``wall_s``, ``cpu_s``: median wall and process CPU time of a pass.
  Passes are kept to a few seconds so that a run holds many of them;
  their quartiles are in the report.
* ``setup_s``: median over fresh interpreters of start-up, imports and
  input generation, up to the first timed operation.
* ``peak_rss_mb``: peak resident set of this process.
* ``ok_frac``: operations that neither raised nor missed a gate, over
  operations attempted.
* ``err_budget_frac``: the largest |answer - oracle| / budget over the
  workload's oracle checks; above 1 is a failure.

With ``--trace 1`` passes alternate between traced and untraced, and
the metrics are the per-layer ones of layers.py, taken from the traced
pass of median wall time, plus the tracing overhead: that pass's wall
time minus the median untraced one.  Spans are written to
``.bench_out/<workload>-spans.json`` when the run ends.

The benchmark's self-tests run with ``PYTHONPATH=src python -m pytest
bench``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("tube-sector", "heat-snowflake", "spectral")

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: fresh interpreters started per run to time set-up; single probes
#: spread by about 0.7-1.1 s, so the median needs this many to be steady
SETUP_PROBES = 15

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "1",
                    "err_budget_frac": "1"}


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list
    traced: bool
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment():
    """One thread per BLAS/OpenMP pool and no result cache; must run
    before numpy is imported, and child processes inherit it."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    os.environ.pop("FRACTAL_DIMS_CACHE", None)


def load_program():
    if not (SRC / "fractaldims" / "__init__.py").is_file():
        sys.exit(f"bench: no fractaldims package under {SRC}; run from "
                 "the root of a checkout")
    sys.path.insert(0, str(SRC))


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its inputs exist."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def blas_threads() -> dict:
    """Thread counts the loaded OpenBLAS libraries report."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                getter = getattr(handle, sym, None)
                if getter is not None:
                    found[lib.name] = int(getter())
                    break
    return found


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fractaldims").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "threads_env": {v: os.environ.get(v) for v in PINNED_THREADS},
        "blas_threads": blas_threads(),
        "FRACTAL_DIMS_CACHE": os.environ.get("FRACTAL_DIMS_CACHE"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def measure(workload, seconds: float, tracer) -> list[Pass]:
    """Run passes until the next one would end after ``seconds``.

    With a tracer, even passes are traced and odd ones are not.
    """
    import layers

    passes: list[Pass] = []
    ops_done = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            layers.install(tracer)
            first = len(tracer.spans)
            tracer.counts.clear()

        def on_op(index, base=ops_done):
            if tracer is not None:
                tracer.op_id = base + index

        c0, w0 = time.process_time(), time.perf_counter()
        try:
            outcomes = workload.run_pass(on_op)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        ops_done += len(outcomes)
        record = Pass(wall, cpu, outcomes, traced)
        if traced:
            record.self_s = tracer.self_times(first)
            record.counts = Counter(tracer.counts)
        passes.append(record)
        typical = statistics.median(p.wall for p in passes)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + typical > seconds:
            return passes


def quartiles(values) -> dict:
    values = sorted(values)
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"n": len(values), "min": values[0], "q1": q[0], "median": q[1],
            "q3": q[2], "max": values[-1]}


def summarize(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Digests, info and failures; a digest that changes between passes
    is itself a failure, since every pass computes the same answers."""
    digests, info, problems = {}, {}, []
    for p in passes:
        for o in p.outcomes:
            text = json.dumps(o.digest, sort_keys=True)
            if o.op in digests and json.dumps(digests[o.op],
                                              sort_keys=True) != text:
                problems.append(f"{o.op}: digest changed between passes")
            digests.setdefault(o.op, o.digest)
            info.setdefault(o.op, o.info)
            if not o.ok:
                problems.append(f"{o.op}: {o.detail}")
    return {"digests": digests, "info": info}, problems


def end_to_end(passes, setup) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    errs = [o.err_frac for o in outcomes if o.err_frac is not None]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "err_budget_frac": max(errs) if errs else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(passes) -> dict:
    import layers

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    typical = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    max_p = max((float(o.digest["max_abs_P"]) for o in typical.outcomes
                 if "max_abs_P" in o.digest), default=0.0)
    values = layers.metrics(typical.self_s, typical.counts, max_p)
    values["trace.wall_s"] = typical.wall
    values["trace.untraced_wall_s"] = statistics.median_low(
        p.wall for p in plain)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    return {k: {"value": v, "unit": layers.METRICS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    load_program()
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    if args.setup_probe:
        cls(args.seed, out)
        print("ready", flush=True)
        return 0

    setup = ([] if args.trace
             else [probe_setup(args) for _ in range(SETUP_PROBES)])
    shutil.rmtree(out, ignore_errors=True)
    workload = cls(args.seed, out)
    tracer = Tracer() if args.trace else None
    passes = measure(workload, args.seconds, tracer)

    summary, problems = summarize(passes)
    walls = [p.wall for p in passes if not p.traced]
    cpus = [p.cpu for p in passes if not p.traced]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "pass_wall_s": quartiles(walls), "pass_cpu_s": quartiles(cpus),
              "setup_s": setup, **summary, "problems": problems}
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"{args.workload}-spans.json"
        spans_file.write_text(json.dumps(tracer.as_records()))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps({"report": report}, sort_keys=True))

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(not o.ok for p in passes for o in p.outcomes)
    metrics = per_layer(passes) if args.trace else end_to_end(
        [p for p in passes if not p.traced], setup)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
