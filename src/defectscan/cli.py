"""Command-line pipeline: simulate -> reconstruct -> verify.

Run configurations are JSON documents (schema "run/1") describing the scene,
grid, direction count, noise, and sampling lattice.  A handful of named
example configurations ship with the package and can be referenced by name.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import farfield, fm, io, media, solver
from .errors import (
    ConfigInvalid, DefectScanError, DimensionMismatch, NoDefectSignal, SchemaError, UsageError,
)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    media: media.MediaConfig
    grid: solver.GridSpec
    n_dirs: int
    noise_level: float
    noise_seed: int
    lattice_nx: int
    lattice_ny: int
    lattice_bounds: tuple  # (x0, x1, y0, y1)
    floor_rel: float

    def __post_init__(self):
        # config files and flag overrides both pass through here
        if not 0.0 <= self.noise_level < float("inf"):
            raise ConfigInvalid(f"noise level must be finite and >= 0, got {self.noise_level}")
        if self.noise_seed < 0:
            raise ConfigInvalid(f"noise seed must be >= 0, got {self.noise_seed}")


def _tensor_from_dict(d: dict, key: str) -> media.SymTensor2:
    return media.SymTensor2(*(  # the imaginary entries i11, i12, i22 default to 0
        media.json_float(d[e] if e[0] == "a" else d.get(e, 0.0), f"{key}.{e}")
        for e in ("a11", "a12", "a22", "i11", "i12", "i22")
    ))


def _complex_from(v, key: str) -> complex:
    if isinstance(v, list) and len(v) == 2:  # [re, im]
        return complex(media.json_float(v[0], key), media.json_float(v[1], key))
    return complex(media.json_float(v, key))


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict) or doc.get("schema") != "run/1":
        raise SchemaError("run configuration must be an object declaring schema run/1")
    if doc.get("use_adjoint", False) is not False:
        # F# and the test functions use S^-1 only; the key may only say false
        raise SchemaError(f"use_adjoint is no longer supported, got {doc['use_adjoint']!r}")
    try:
        host = media.HostRegion(
            media.shape_from_dict(doc["host"]["shape"]),
            _tensor_from_dict(doc["host"]["A"], "host.A"),
            media.json_float(doc["host"]["n"], "host.n"),
        )
        defects = tuple(
            media.Defect(
                media.shape_from_dict(d["shape"]),
                _tensor_from_dict(d["A0"], f"defects.{i}.A0"),
                _complex_from(d["n0"], f"defects.{i}.n0"),
            )
            for i, d in enumerate(doc.get("defects", []))
        )
        scene = media.MediaConfig(host, defects, media.json_float(doc["k"], "k"))
        g = doc["grid"]
        grid = solver.GridSpec(
            media.json_float(g["half_extent"], "grid.half_extent"),
            media.json_float(g["h"], "grid.h"),
            media.json_int(g.get("pml_cells", solver.GridSpec.pml_cells), "grid.pml_cells"),
        )
        strength = g.get("pml_strength", 0)
        if isinstance(strength, bool) or strength != 0:
            # the collar strength is always 30 / (k T); the key may only say 0
            raise SchemaError(f"grid.pml_strength is no longer supported, got {strength!r}")
        noise = doc.get("noise", {})
        lat = doc.get("lattice", {})
        if not (isinstance(noise, dict) and isinstance(lat, dict)):
            raise SchemaError("noise and lattice must be JSON objects")
        bounds = host.shape.bbox() if lat.get("bounds") is None else lat["bounds"]
        bounds = tuple(media.json_float(b, "lattice.bounds") for b in bounds)
        if len(bounds) != 4:
            raise SchemaError(f"lattice bounds need 4 entries [x0, x1, y0, y1], got {len(bounds)}")
        if not (bounds[0] <= bounds[1] and bounds[2] <= bounds[3]):
            raise SchemaError(f"lattice bounds need x0 <= x1 and y0 <= y1, got {list(bounds)}")
        return RunConfig(
            media=scene,
            grid=grid,
            n_dirs=media.json_count(
                doc.get("directions", 32), "directions", farfield.MAX_DIRECTIONS
            ),
            noise_level=media.json_float(noise.get("level", 0.0), "noise.level"),
            noise_seed=media.json_int(noise.get("seed", 0), "noise.seed"),
            lattice_nx=media.json_count(lat.get("nx", 81), "lattice.nx", fm.MAX_LATTICE),
            lattice_ny=media.json_count(lat.get("ny", 81), "lattice.ny", fm.MAX_LATTICE),
            lattice_bounds=bounds,
            floor_rel=media.json_float(doc.get("floor_rel", fm.DEFAULT_FLOOR_REL), "floor_rel"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed run configuration ({exc})") from exc


def load_run_config(name_or_path: str) -> RunConfig:
    """Load a run configuration from a path or a bundled example name."""
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, "rb") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # a directory, non-UTF-8 bytes, bad JSON
            raise SchemaError(f"{name_or_path}: not readable as JSON ({exc})") from exc
        return parse_run_config(doc)
    res = importlib.resources.files("defectscan") / "configs" / f"{name_or_path}.json"
    if res.is_file():
        return parse_run_config(json.loads(res.read_text()))
    raise SchemaError(f"no such config file or bundled preset: {name_or_path!r}")


def bundled_config_names() -> list:
    root = importlib.resources.files("defectscan") / "configs"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# contrast statistic


CONTRAST_CLEARANCE = 0.2  # "away from a defect": farther than this from its boundary


def _near(shape, pts: np.ndarray, contains: np.ndarray) -> np.ndarray:
    """Points inside the shape (`contains`) or closer than CONTRAST_CLEARANCE
    to one of its 512 boundary points.  A point outside those points' bounding
    box grown by the clearance is farther from all of them, so only the points
    outside the shape and inside that box are queried."""
    from scipy.spatial import cKDTree  # only reconstruct's contrast needs it

    edge = shape.boundary_points(512)
    lo, hi = edge.min(axis=0) - CONTRAST_CLEARANCE, edge.max(axis=0) + CONTRAST_CLEARANCE
    query = ~contains & np.all((pts >= lo) & (pts <= hi), axis=1)
    dist, _ = cKDTree(edge).query(pts[query], distance_upper_bound=CONTRAST_CLEARANCE)
    near = contains.copy()
    near[query] = dist < CONTRAST_CLEARANCE
    return near


def contrast_statistics(grid: fm.IndicatorGrid, scene: media.MediaConfig):
    """Per-defect and overall mean indicator contrast inside vs. away from defects."""
    xx, yy = np.meshgrid(grid.xs, grid.ys)
    pts = np.column_stack((xx.ravel(), yy.ravel()))
    masked = grid.mask.ravel()
    vals = grid.values.ravel()
    near_any = np.zeros(len(pts), dtype=bool)
    inside_each = []
    for d in scene.defects:
        contains = d.shape.contains(pts)
        near_any |= _near(d.shape, pts, contains)
        inside_each.append(masked & contains)
    outside = masked & ~near_any
    out_mean = float(np.mean(vals[outside])) if np.any(outside) else float("nan")
    per_defect = []
    for inside in inside_each:
        in_mean = float(np.mean(vals[inside])) if np.any(inside) else float("nan")
        ratio = in_mean / out_mean if out_mean and np.isfinite(out_mean) else float("nan")
        per_defect.append({"inside_mean": in_mean, "outside_mean": out_mean, "contrast": ratio})
    all_in = np.any(inside_each, axis=0) if inside_each else np.zeros(len(pts), dtype=bool)
    overall_in = float(np.mean(vals[all_in])) if np.any(all_in) else float("nan")
    overall = overall_in / out_mean if out_mean and np.isfinite(out_mean) else float("nan")
    return {"overall": overall, "per_defect": per_defect}


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    """Solve both forward problems and write F0/Fb matrices plus background fields."""
    # each system is a temporary, freed before the next is factorized, and
    # the defective medium's fields are dropped on return
    f0 = farfield.assemble_far_field_matrix(
        solver.assemble_system(cfg.grid, cfg.media), cfg.n_dirs
    )[0]
    fb, fields = farfield.assemble_far_field_matrix(
        solver.assemble_system(cfg.grid, cfg.media.background()), cfg.n_dirs
    )
    io.write_ffm(os.path.join(out_dir, "F0.ffm.json"), f0)
    io.write_ffm(os.path.join(out_dir, "Fb.ffm.json"), fb)
    io.write_fields(os.path.join(out_dir, "fields.bin"), fields)
    return 0


def cmd_reconstruct(
    cfg: RunConfig, out_dir: str,
    f0_path: str | None = None, fb_path: str | None = None, fields_path: str | None = None,
) -> int:
    """Build the indicator map from saved far-field data and emit artifacts."""
    f0 = io.read_ffm(f0_path or os.path.join(out_dir, "F0.ffm.json"))
    fb = io.read_ffm(fb_path or os.path.join(out_dir, "Fb.ffm.json"))
    fields = io.read_fields(fields_path or os.path.join(out_dir, "fields.bin"))
    farfield.check_compatible(fields, f0)
    if abs(f0.k - cfg.media.k) > 1e-12 * max(f0.k, cfg.media.k):
        raise DimensionMismatch(f"data wavenumber {f0.k} differs from the config's {cfg.media.k}")

    if cfg.noise_level > 0:
        f0 = farfield.add_noise(f0, cfg.noise_level, cfg.noise_seed)
    f = farfield.relative_operator(f0, fb)
    s_inv, unitarity = farfield.scattering_operator(fb)
    _, lam, psi = fm.f_sharp(f, s_inv)
    grid = fm.indicator_grid(
        lam, psi, fields, s_inv, cfg.media, cfg.lattice_bounds,
        cfg.lattice_nx, cfg.lattice_ny, floor_rel=cfg.floor_rel,
    )

    io.write_indicator_csv(os.path.join(out_dir, "indicator.csv"), grid)
    io.write_indicator_pgm(os.path.join(out_dir, "indicator.pgm"), grid)
    io.write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"), lam)
    report = {
        "schema": "report/1",
        "k": cfg.media.k,
        "N": f0.n,
        "noise": {"level": cfg.noise_level, "seed": cfg.noise_seed},
        "unitarity_defect": unitarity,
        "assumptions": media.validate_assumptions(cfg.media, h=fields.spec.h),
        "floored_modes": grid.floored_modes,
        "no_defect_signal": grid.no_defect_signal,
        "contrast": contrast_statistics(grid, cfg.media),
    }
    io.write_report(os.path.join(out_dir, "report.json"), report)
    if grid.no_defect_signal:
        raise NoDefectSignal("relative far-field data carries no defect signature")
    return 0


def _mie_applicable(scene: media.MediaConfig) -> bool:
    s = scene.host.shape
    return (
        isinstance(s, media.Circle)
        and s.center == (0.0, 0.0)
        and not scene.defects
        and scene.host.A.is_real
        and scene.host.A.a12 == 0.0
        and scene.host.A.a11 == scene.host.A.a22
    )


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    """Run the consistency-check suite and write a pass/fail report."""
    checks = []
    # the whole scene must be valid; one factorization of its background
    # serves the plane waves and the point source
    cfg.media.validate(cfg.grid.h)
    cfg.grid.validate_for(cfg.media)
    system = solver.assemble_system(cfg.grid, cfg.media.background())
    fb, fields = farfield.assemble_far_field_matrix(system, cfg.n_dirs)
    rec = farfield.reciprocity_defect(fb)
    checks.append({"name": "reciprocity", "value": rec, "limit": 1e-3, "passed": rec <= 1e-3})

    unitarity = farfield.scattering_operator(fb)[1]
    checks.append({
        "name": "unitarity", "value": unitarity, "limit": 0.05, "passed": unitarity <= 0.05,
    })

    # mixed reciprocity: gamma * u_b(z, -x_hat) vs a direct point-source solve
    # (pick the most central of a few interior candidates)
    cand = media.interior_points(cfg.media.host.shape, 32)
    bx = cfg.media.host.shape.bbox()
    ctr = np.array([0.5 * (bx[0] + bx[1]), 0.5 * (bx[2] + bx[3])])
    z = cand[np.argmin(np.hypot(cand[:, 0] - ctr[0], cand[:, 1] - ctr[1]))]
    g = fm.reversed_incidence_samples(fields, z[None, :])[:, 0]
    gsrc = solver.solve_point_source(system, z)
    r_ff = farfield.extraction_radius(cfg.media, cfg.grid)
    ginf = solver.far_field(cfg.grid, gsrc, cfg.media.k, r_ff, farfield.direction_angles(fb.n))
    mixed = float(np.linalg.norm(g - ginf) / np.linalg.norm(ginf))
    checks.append({
        "name": "mixed_reciprocity", "value": mixed, "limit": 5e-2,
        "passed": mixed <= 5e-2, "point": [float(z[0]), float(z[1])],
    })

    if _mie_applicable(cfg.media):
        exact = solver.mie_far_field(
            cfg.media.host.A.a11, cfg.media.host.n, cfg.media.host.shape.radius,
            cfg.media.k, 0.0, farfield.direction_angles(fb.n),
        )
        err = float(np.linalg.norm(fb.entries[:, 0] - exact) / np.linalg.norm(exact))
        checks.append({"name": "mie_parity", "value": err, "limit": 1e-2, "passed": err <= 1e-2})
    else:
        checks.append({"name": "mie_parity", "skipped": True, "passed": True})

    all_pass = all(c["passed"] for c in checks)
    io.write_report(
        os.path.join(out_dir, "report.json"),
        {"schema": "verify/1", "passed": all_pass, "checks": checks},
    )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing


def _direction_count(text: str) -> int:
    """--directions has the run file's bound, checked before any work."""
    n = int(text)
    if n > farfield.MAX_DIRECTIONS:
        raise argparse.ArgumentTypeError(f"at most {farfield.MAX_DIRECTIONS}, got {n}")
    return n


# override flags: (the RunConfig field each sets, type, help); each subcommand
# declares only the ones it reads
_FLAGS = {
    "--noise": ("noise_level", float, "override noise level"),
    "--seed": ("noise_seed", int, "override noise seed"),
    "--floor": ("floor_rel", float, "override relative eigenvalue floor"),
    "--grid-h": ("grid_h", float, "override grid spacing"),
    "--directions": ("n_dirs", _direction_count,
                     "override number of incident/observation directions"),
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    given = {k: v for k, v in vars(args).items() if v is not None}
    if "grid_h" in given:
        cfg = replace(cfg, grid=replace(cfg.grid, h=given["grid_h"]))
    fields = ("noise_level", "noise_seed", "floor_rel", "n_dirs")
    return replace(cfg, **{f: given[f] for f in fields if f in given})


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as UsageError, so they get the JSON error line;
    subparsers are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="defectscan",
        description="Simulate far-field scattering data for a defective "
        "anisotropic medium and reconstruct the defect support.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, flags in (
        ("simulate", "solve the forward problems and save far-field data",
         ("--grid-h", "--directions")),
        # the grid and the direction count are the data's
        ("reconstruct", "build the defect indicator map from saved data",
         ("--noise", "--seed", "--floor")),
        ("verify", "run the physics consistency-check suite", ("--grid-h", "--directions")),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True,
                       help="path to a run/1 JSON file or a bundled preset name")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            dest, kind, text = _FLAGS[flag]
            p.add_argument(flag, dest=dest, type=kind, help=text)
        if name == "reconstruct":
            p.add_argument("--f0", default=None, help="path to the defective-medium ffm file")
            p.add_argument("--fb", default=None, help="path to the background ffm file")
            p.add_argument("--fields", default=None, help="path to the background fields file")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _apply_overrides(load_run_config(args.config), args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.out, args.f0, args.fb, args.fields)
        return cmd_verify(cfg, args.out)
    except DefectScanError as exc:
        code = exc.exit_code
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
