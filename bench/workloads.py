"""Benchmark workloads: run/1 configs generated from bundled presets, and output checks.

A workload is a preset plus overrides and a list of subcommand steps that make
one round.  The benchmark seed fixes every noise seed the workload uses.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict                 # dotted run/1 keys -> value
    reconstructs: int = 1           # reconstruct calls per round, each with its own noise seed
    verify_args: tuple = ()         # extra CLI flags for the verify step
    contrast_floor: float = 2.0     # acceptance floor on the overall indicator contrast


# Each workload makes a different layer dominate; BENCHMARK.json says why.
WORKLOADS = {
    # 153^2 nodes, 22,801 unknowns: coefficient sampling and banded LU dominate.
    # A reconstruct takes ~0.3 s here, so a round repeats it to get a steady median.
    "fine_grid": Workload(
        "example1_circle", {"grid.h": 0.075, "directions": 16},
        reconstructs=4, contrast_floor=3.0,
    ),
    # N = 64 at the preset grid: per-direction solves, far fields and F# eigensolves dominate.
    # At N = 128 a reconstruct takes 9-13 s, so a run holds only one or two,
    # too few for a steady median; N = 64 fits four to six rounds in a run.
    "many_directions": Workload(
        "example1_twodiscs", {"directions": 64, "noise.level": 0.02},
    ),
    # 69^2 nodes, 161^2 lattice: reads, test functions, contrast and the CSV writer dominate.
    # Verify needs the preset grid (h = 0.15): at h = 0.25 the background reciprocity
    # defect (2.1e-3) exceeds verify's 1e-3 limit.
    "reconstruct_sweep": Workload(
        "example1_twodiscs",
        {"grid.h": 0.25, "directions": 32, "lattice": {"nx": 161, "ny": 161, "bounds": [-2.0, 2.0, -2.0, 2.0]}},
        reconstructs=4, verify_args=("--grid-h", "0.15"),
    ),
    # tiny scene for the benchmark's own smoke test; not listed in BENCHMARK.json
    "smoke": Workload(
        "example1_circle",
        {
            "host.shape": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "defects.0.shape": {"type": "circle", "center": [0.0, 0.0], "radius": 0.4},
            "grid": {"half_extent": 2.0, "h": 0.125, "pml_cells": 8},
            "directions": 8,
            "lattice": {"nx": 21, "ny": 21, "bounds": [-1.0, 1.0, -1.0, 1.0]},
        },
        contrast_floor=3.0,
    ),
}


def _set(doc, dotted: str, value):
    *path, last = dotted.split(".")
    for key in path:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    if isinstance(doc, list):
        doc[int(last)] = value
    else:
        doc[last] = value


def noise_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def make_config(src: str, wl: Workload, seeds: list) -> dict:
    """The workload's run/1 document: the bundled preset plus the overrides."""
    with open(os.path.join(src, "defectscan", "configs", f"{wl.preset}.json")) as fh:
        doc = json.load(fh)
    for key, value in wl.overrides.items():
        _set(doc, key, value)
    _set(doc, "noise.seed", seeds[0])
    return doc


@dataclass(frozen=True)
class Step:
    kind: str        # simulate | reconstruct | verify
    argv: tuple
    out: str         # the step's output directory


def round_steps(wl: Workload, cfg_path: str, work: str, seeds: list) -> list:
    """The subcommands of one round, in order."""
    sim = os.path.join(work, "sim")
    ver = os.path.join(work, "verify")  # reconstruct and verify both write report.json
    steps = [Step("simulate", ("simulate", "--config", cfg_path, "--out", sim), sim)]
    steps += [
        Step("reconstruct", ("reconstruct", "--config", cfg_path, "--out", sim, "--seed", str(s)), sim)
        for s in seeds
    ]
    steps.append(Step("verify", ("verify", "--config", cfg_path, "--out", ver, *wl.verify_args), ver))
    return steps


OUTPUTS = {
    "simulate": ("F0.ffm.json", "Fb.ffm.json", "fields.bin"),
    "reconstruct": ("indicator.csv", "indicator.pgm", "spectrum.csv", "report.json"),
    "verify": ("report.json",),
}


def clear_outputs(step: Step):
    """Remove the files a step writes, so a check never reads a stale one."""
    for name in OUTPUTS[step.kind]:
        path = os.path.join(step.out, name)
        if os.path.exists(path):
            os.unlink(path)


def digests(step: Step) -> dict:
    """sha256 of each file the step writes."""
    out = {}
    for name in OUTPUTS[step.kind]:
        with open(os.path.join(step.out, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# output checks: each returns (problems, values)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_simulate(step: Step, wl: Workload, doc: dict):
    problems = []
    for name in ("F0.ffm.json", "Fb.ffm.json"):
        ffm = _load_json(os.path.join(step.out, name))
        n = doc["directions"]
        entries = np.asarray(ffm["re"], float) + 1j * np.asarray(ffm["im"], float)
        if entries.shape != (n, n):
            problems.append(f"{name} has shape {entries.shape}, expected {(n, n)}")
        elif not np.all(np.isfinite(entries)):
            problems.append(f"{name} has non-finite entries")
    return problems, {}


def check_reconstruct(step: Step, wl: Workload, doc: dict):
    problems = []
    report = _load_json(os.path.join(step.out, "report.json"))
    if report["no_defect_signal"]:
        problems.append("reconstruct reports no defect signal")
    contrast = report["contrast"]["overall"]
    if not contrast >= wl.contrast_floor:
        problems.append(f"contrast {contrast} below the floor {wl.contrast_floor}")
    with open(os.path.join(step.out, "indicator.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    expect = doc["lattice"]["nx"] * doc["lattice"]["ny"]
    if len(rows) != expect:
        problems.append(f"indicator.csv has {len(rows)} rows, expected {expect}")
    inside = sum(row.endswith(",1") for row in rows)
    return problems, {
        "contrast": contrast,
        "unitarity_defect": report["unitarity_defect"],
        "lattice_points_inside": inside,
    }


def check_verify(step: Step, wl: Workload, doc: dict):
    report = _load_json(os.path.join(step.out, "report.json"))
    checks = {c["name"]: c for c in report["checks"]}
    problems = [] if report["passed"] else [
        "verify failed: " + ", ".join(n for n, c in checks.items() if not c["passed"])
    ]
    return problems, {
        "reciprocity_defect": checks["reciprocity"]["value"],
        "mixed_reciprocity_err": checks["mixed_reciprocity"]["value"],
    }


CHECKS = {"simulate": check_simulate, "reconstruct": check_reconstruct, "verify": check_verify}
