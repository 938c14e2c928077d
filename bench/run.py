"""defectscan benchmark: runs one workload through the public CLI and prints its metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload fine_grid --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics from spans recorded around calls into the
package modules.  The last line of standard output is the result object; the
line before it is the full run record (environment, generated configs, every
sample and every layer statistic), also written with the spans under
``.bench_runs/<workload>/``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, so every machine runs the same count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_runs")
sys.path.insert(0, SRC)

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np
import scipy

import defectscan
from defectscan import cli, farfield, fm, io, media, solver

import tracer
import workloads

SETUP_SAMPLES = 7
# glibc serves blocks below the mmap threshold from its heap, and returns the
# heap top to the system only above the trim threshold.  Both start at
# 128 KiB.  Each free of an mmapped block of up to 32 MiB raises the mmap
# threshold to that block's size and the trim threshold to twice it; these
# are the top of that range.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters
COVERAGE_TOL = 0.10  # traced self times must cover each subcommand's wall within this share
MODULES = {"cli": cli, "media": media, "solver": solver, "farfield": farfield, "fm": fm, "io": io}


class Run:
    """Executes steps, checks their outputs, and keeps samples and failures."""

    def __init__(self, wl: workloads.Workload, doc: dict):
        self.wl, self.doc = wl, doc
        self.samples = {"simulate": [], "reconstruct": [], "verify": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.values = {}  # step index -> output values of its first run
        self.digests = {}  # step index -> sha256 of each output file of its first run

    def step(self, index: int, step: workloads.Step) -> float:
        workloads.clear_outputs(step)
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(step.argv))
        except Exception:  # a crash is a failed subcommand, not a failed benchmark
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        self.samples[step.kind].append(wall)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc in (0, 1):  # verify exits 1 with a report when a check fails
            try:
                found, values = workloads.CHECKS[step.kind](step, self.wl, self.doc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, values = [f"unreadable output ({exc!r})"], {}
            problems += found
            self.values.setdefault(index, values)
            # every output file repeats exactly for a given seed
            try:
                digests = workloads.digests(step)
            except OSError as exc:
                digests = {}
                problems.append(f"unreadable output ({exc!r})")
            first = self.digests.setdefault(index, digests)
            changed = sorted(name for name in first if digests.get(name) != first[name])
            if changed:
                problems.append(f"outputs differ from the first run: {', '.join(changed)}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"step": index, "kind": step.kind, "problems": problems})
            print(f"bench: {step.kind} failed: {'; '.join(problems)}", file=sys.stderr)
        return wall


def warm_malloc():
    """Set glibc's mmap and trim thresholds to the values a long-lived process
    reaches once it has freed large arrays.

    Left dynamic, the first subcommand of a process runs with the 128 KiB
    start values and page-faults its arrays in afresh (a fine_grid simulate
    took ~7.2 s with 714k minor faults), while later ones reuse heap pages
    (~5.0 s).  With few samples per run that first call moves the median.
    Setting the values up front makes every call of the run a warm call.
    Returns the thresholds, or None where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1 or mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        return None
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}


def measure_setup(cfg_path: str) -> float:
    """A fresh interpreter that imports the CLI and loads the workload config."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); from defectscan import cli; cli.load_run_config({cfg_path!r})"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def run_untraced(run: Run, steps: list, seconds: float, cfg_path: str) -> list:
    """Repeat the round's steps in order until the next one would end past
    ``seconds`` of subcommand time; the first round always completes.
    Set-up samples are taken between steps, spread evenly over the run, so a
    slow spell of the machine does not fall on all of them; their time does
    not count against ``seconds``.  Returns the set-up samples."""
    start = time.perf_counter()
    setup = []

    def elapsed():
        return time.perf_counter() - start - sum(setup)

    last = [0.0] * len(steps)
    i = 0
    while i < len(steps) or elapsed() + last[i % len(steps)] <= seconds:
        while len(setup) < min(SETUP_SAMPLES, SETUP_SAMPLES * elapsed() / seconds):
            setup.append(measure_setup(cfg_path))
        last[i % len(steps)] = run.step(i % len(steps), steps[i % len(steps)])
        i += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(cfg_path))
    return setup


def run_traced(run: Run, steps: list, seconds: float, tr: tracer.Tracer) -> dict:
    """A warm-up round, then traced and untraced rounds in turn until the next
    would end past the deadline.  The warm-up takes the first-call costs (heap
    growth, lazy imports) that would otherwise bias the tracing overhead."""
    deadline = time.perf_counter() + seconds
    for i, step in enumerate(steps):
        run.step(i, step)
    walls = {False: [], True: []}
    step_walls = {}  # run id -> wall of that traced subcommand
    r = 1
    while r < 3 or time.perf_counter() + statistics.median(walls[r % 2 == 1]) <= deadline:
        traced = r % 2 == 1
        t0 = time.perf_counter()
        for i, step in enumerate(steps):
            if traced:
                run_id = f"r{r}.{i}.{step.kind}"
                with tr.request(run_id, r):
                    step_walls[run_id] = run.step(i, step)
            else:
                run.step(i, step)
        walls[traced].append(time.perf_counter() - t0)
        r += 1
    return {"round_walls": walls, "step_walls": step_walls}


def end_to_end(run: Run, setup: list) -> dict:
    def med(kind):
        return statistics.median(run.samples[kind])

    def per_kind(key):
        # None when no step produced the value; the run is then not correct
        vals = [v[key] for v in run.values.values() if key in v]
        return statistics.median(vals) if vals else None

    return {
        "setup_s": statistics.median(setup),
        "simulate_s": med("simulate"),
        "reconstruct_s": med("reconstruct"),
        "verify_s": med("verify"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "contrast": per_kind("contrast"),
        "unitarity_defect": per_kind("unitarity_defect"),
        "reciprocity_defect": per_kind("reciprocity_defect"),
        "mixed_reciprocity_err": per_kind("mixed_reciprocity_err"),
        "failed_ops": run.failed / run.attempted,
    }


def per_layer(run: Run, tr: tracer.Tracer, timing: dict) -> tuple[dict, list]:
    stats, problems = tracer.layer_stats(tr.spans)
    # self times of a subcommand's spans must add up to its wall time
    selfs = tracer.self_times(tr.spans)
    covered = {}
    for s in tr.spans:
        covered[s.run] = covered.get(s.run, 0.0) + selfs[s.id]
    coverage = {rid: covered.get(rid, 0.0) / wall for rid, wall in timing["step_walls"].items()}
    for rid, share in coverage.items():
        if abs(share - 1.0) > COVERAGE_TOL:
            problems.append(f"{rid}: self times cover {share:.3f} of the wall time")
    # Self times telescope to the root cmd_* span, so the check above only bounds
    # cli.main's work outside cmd_*.  Work inside a subcommand that no traced
    # function covers lands in the cmd_* self time; its share of the wall shows it.
    shares = {}
    for s in tr.spans:
        if s.parent is None:
            shares.setdefault(s.name, []).append(selfs[s.id] / timing["step_walls"][s.run])
    stats.update({f"{name}.self_share": statistics.median(v) for name, v in shares.items()})
    walls = timing["round_walls"]
    first = next(s for s in tr.spans if s.name == "solver.assemble_system")
    n, bw = first.attrs["unknowns"], first.attrs["bandwidth"]
    values = run.values
    stats.update({
        "trace.overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
        "trace.coverage_min": min(coverage.values()),
        "trace.coverage_max": max(coverage.values()),
        "trace.rounds": len(walls[True]),
        "solver.unknowns": n,
        "solver.bandwidth": bw,
        # LAPACK general band storage: 2*kl + ku + 1 rows of n complex128, kl = ku = bandwidth
        "solver.band_bytes_computed": (3 * bw + 1) * n * 16,
        "fm.lattice_points_inside": next(
            v["lattice_points_inside"] for v in values.values() if "lattice_points_inside" in v
        ),
    })
    return stats, problems


def _commit():
    """HEAD of the checkout, or None outside a git repository (git may not look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, config: dict, malloc) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "malloc": malloc,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
        "config": config,
        "src_lines": src_lines,
    }


def _select(values: dict, specs: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = os.path.dirname(os.path.abspath(defectscan.__file__))
    if os.path.dirname(pkg) != SRC:
        raise SystemExit(f"defectscan was imported from {pkg}, not from {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seeds = workloads.noise_seeds(args.seed, wl.reconstructs)
    doc = workloads.make_config(SRC, wl, seeds)
    cfg_path = os.path.join(work, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    steps = workloads.round_steps(wl, cfg_path, work, seeds)
    run = Run(wl, doc)

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, doc, warm_malloc()),
        "steps": [list(s.argv) for s in steps],
    }
    if args.trace:
        tr = tracer.Tracer(MODULES)
        timing = run_traced(run, steps, args.seconds, tr)
        values, trace_problems = per_layer(run, tr, timing)
        tr.write(os.path.join(work, "spans.json"))
        record["trace_problems"] = trace_problems
        metrics = _select(values, spec["per_layer"])
    else:
        setup = run_untraced(run, steps, args.seconds, cfg_path)
        values = end_to_end(run, setup)
        trace_problems = []
        record["setup_samples"] = setup
        metrics = _select(values, spec["end_to_end"])
    record.update({
        "samples": run.samples,
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "values": values,
        "failures": run.problems,
    })
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0 and not trace_problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
