"""End-to-end acceptance checks.

Each test prints a single pass/fail line (bypassing capture) with the
measured statistic and its limit, then asserts it.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from defectscan import cli, farfield, fm, io, media, solver

ANGLES64 = farfield.direction_angles(64)

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with _CAPTURE.disabled():
        print(f"\n[criterion {num}] {status}: {label} ({detail})",
              file=sys.stdout, flush=True)


def _run_pipeline(preset: str, out: str) -> float:
    t0 = time.perf_counter()
    assert cli.main(["simulate", "--config", preset, "--out", out]) == 0
    assert cli.main(["reconstruct", "--config", preset, "--out", out]) == 0
    return time.perf_counter() - t0


def _inside_rows(out: str) -> np.ndarray:
    rows = np.loadtxt(os.path.join(out, "indicator.csv"), delimiter=",", skiprows=1)
    return rows[rows[:, 3] == 1]


def _top_decile(rows: np.ndarray) -> np.ndarray:
    thr = np.quantile(rows[:, 2], 0.9)
    return rows[rows[:, 2] >= thr]


@pytest.fixture(scope="module")
def circle_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ex1_circle"))
    return out, _run_pipeline("example1_circle", out)


@pytest.fixture(scope="module")
def twodiscs_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ex1_twodiscs"))
    return out, _run_pipeline("example1_twodiscs", out)


@pytest.fixture(scope="module")
def aniso_runs(tmp_path_factory):
    outs = {}
    for preset in ("example2_aniso_host", "example3_aniso_defects"):
        out = str(tmp_path_factory.mktemp(preset))
        _run_pipeline(preset, out)
        outs[preset] = out
    return outs


def test_criterion_1_forward_solver_oracle_parity():
    t0 = time.perf_counter()
    host = media.HostRegion(
        media.Ellipse((0.0, 0.0), 1.0, 1.0), media.SymTensor2(0.9, 0.0, 0.9), 1.1
    )
    cfg = media.MediaConfig(host, (), 1.0)
    cells = math.ceil(2 * 3.5 / (cfg.min_wavelength() / 15))
    cells += cells % 2
    # 16 PML cells, not the default 8, keeps the statistic comparable with its
    # first records (8.25e-3; 8.27e-3 at 8 cells)
    spec = solver.GridSpec(3.5, 7.0 / cells, 16)
    system = solver.assemble_system(spec, cfg)
    f = solver.solve_plane_wave(system, (1.0, 0.0))
    ff = solver.far_field(spec, f, 1.0, 2.0, ANGLES64)
    exact = solver.mie_far_field(0.9, 1.1, 1.0, 1.0, 0.0, ANGLES64)
    err = float(np.linalg.norm(ff - exact) / np.linalg.norm(exact))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-2 and elapsed <= 60.0
    _line(1, "forward-solver parity vs separation-of-variables disc",
          ok, f"rel L2 err {err:.2e} <= 1e-02, {elapsed:.1f} s <= 60 s")
    assert ok


def test_criterion_2_reciprocity(ex1_data):
    _, fb, _ = ex1_data
    dev = farfield.reciprocity_defect(fb)
    ok = dev <= 1e-3
    _line(2, "background far-field reciprocity", ok, f"max dev {dev:.2e} <= 1e-03")
    assert ok


def test_criterion_3_scattering_operator_unitarity(ex1_operator):
    dev = ex1_operator[1]
    ok = dev <= 0.05
    _line(3, "scattering-operator unitarity", ok, f"defect {dev:.2e} <= 5e-02")
    assert ok


def test_criterion_4_mixed_reciprocity(ex1_cfg, ex1_data):
    t0 = time.perf_counter()
    _, _, fields = ex1_data
    system = solver.assemble_system(ex1_cfg.grid, ex1_cfg.media.background())
    c = ex1_cfg.grid.coords()
    n = ex1_cfg.n_dirs
    gam = solver.gamma2(ex1_cfg.media.k)
    r_max = ex1_cfg.grid.half_extent - 4 * ex1_cfg.grid.h
    r_ff = 0.5 * (media.bounding_radius(ex1_cfg.media.host.shape) + r_max)
    angles = farfield.direction_angles(n)
    errs = []
    for z in ((0.2, -0.3), (1.0, 0.5), (-1.2, -1.0)):
        g = np.zeros(n, dtype=complex)
        for j in range(n):
            u = fields.data[(j + n // 2) % n]
            sr = RectBivariateSpline(c, c, u.real)
            si = RectBivariateSpline(c, c, u.imag)
            g[j] = gam * (sr.ev(z[1], z[0]) + 1j * si.ev(z[1], z[0]))
        gsrc = solver.solve_point_source(system, z)
        ginf = solver.far_field(ex1_cfg.grid, gsrc, ex1_cfg.media.k, r_ff, angles)
        errs.append(float(np.linalg.norm(g - ginf) / np.linalg.norm(ginf)))
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 5e-2 and elapsed <= 90.0
    _line(4, "mixed reciprocity at three interior points", ok,
          "errs " + "/".join(f"{e:.2e}" for e in errs)
          + f" <= 5e-02, {elapsed:.1f} s <= 90 s")
    assert ok


def test_criterion_5_circular_void_reconstruction(circle_run):
    out, elapsed = circle_run
    rows = _inside_rows(out)
    r = np.hypot(rows[:, 0], rows[:, 1])
    inner = rows[r < 0.8, 2].mean()
    outer = rows[(r > 1.2) & (r < 1.8), 2].mean()
    ratio = inner / outer
    top = _top_decile(rows)
    centroid = np.average(top[:, :2], axis=0)
    dist = float(np.hypot(*centroid))
    ok = ratio >= 3.0 and dist <= 0.3 and elapsed <= 600.0
    _line(5, "circular-void reconstruction", ok,
          f"inner/outer mean ratio {ratio:.1f} >= 3, top-decile centroid "
          f"dist {dist:.2e} <= 0.3, {elapsed:.0f} s <= 600 s")
    assert ok


def test_criterion_6_two_disc_localization(twodiscs_run):
    out, _ = twodiscs_run
    top = _top_decile(_inside_rows(out))
    d1 = np.hypot(top[:, 0] + 1.0, top[:, 1] - 1.0)
    d2 = np.hypot(top[:, 0] - 1.0, top[:, 1] + 1.0)
    d0 = np.hypot(top[:, 0], top[:, 1])
    hits1 = bool(np.any(d1 <= 0.5))  # disc radius 0.3 dilated by 0.2
    hits2 = bool(np.any(d2 <= 0.5))
    avoids = bool(np.all(d0 >= 0.4))
    ok = hits1 and hits2 and avoids
    _line(6, "two-disc localization under 2% noise", ok,
          f"hits (-1,1): {hits1}, hits (1,-1): {hits2}, avoids origin: {avoids}")
    assert ok


def test_criterion_7_anisotropic_examples(aniso_runs):
    details = []
    ok = True
    for preset, out in aniso_runs.items():
        report = json.load(open(os.path.join(out, "report.json")))
        ratios = [d["contrast"] for d in report["contrast"]["per_defect"]]
        ok &= all(c >= 2.0 for c in ratios)
        details.append(f"{preset}: " + "/".join(f"{c:.1f}" for c in ratios))
    _line(7, "anisotropic host/defect contrast", ok,
          "; ".join(details) + " all >= 2")
    assert ok


def test_criterion_8_eigen_machinery():
    rng = np.random.default_rng(42)
    worst_rec, worst_orth, worst_spec = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        lam, v = fm.hermitian_eig(h)
        scale = np.linalg.norm(h)
        worst_rec = max(worst_rec, np.linalg.norm((v * lam) @ v.conj().T - h) / scale)
        worst_orth = max(worst_orth, np.linalg.norm(v.conj().T @ v - np.eye(n)))
        got = np.sort(np.linalg.eigvalsh(fm.operator_abs(h)))
        want = np.sort(np.abs(np.linalg.eigvalsh(h)))
        worst_spec = max(worst_spec, np.max(np.abs(got - want)) / scale)
    ok = worst_rec <= 1e-9 and worst_orth <= 1e-10 and worst_spec <= 1e-9
    _line(8, "Hermitian eigensolver and operator modulus", ok,
          f"reconstruction {worst_rec:.1e} <= 1e-09, orthonormality "
          f"{worst_orth:.1e} <= 1e-10, |spectrum| {worst_spec:.1e} <= 1e-09")
    assert ok


def test_criterion_9_degenerate_inputs(tmp_path):
    doc = {
        "schema": "run/1",
        "k": 1.0,
        "host": {
            "shape": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "A": {"a11": 1.0, "a12": 0.0, "a22": 1.0},
            "n": 1.0,
        },
        "defects": [
            {"shape": {"type": "circle", "center": [0.0, 0.0], "radius": 0.4},
             "A0": {"a11": 1.0, "a12": 0.0, "a22": 1.0}, "n0": 1.0}
        ],
        "grid": {"half_extent": 2.0, "h": 0.125, "pml_cells": 8},
        "directions": 8,
        "lattice": {"nx": 11, "ny": 11, "bounds": [-1.0, 1.0, -1.0, 1.0]},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", str(path), "--out", out]) == 0
    f0 = io.read_ffm(os.path.join(out, "F0.ffm.json"))
    fb = io.read_ffm(os.path.join(out, "Fb.ffm.json"))
    f_zero = bool(np.all(f0.entries == 0.0) and np.all(fb.entries == 0.0))
    s_ident = bool(np.array_equal(farfield.scattering_operator(fb)[0], np.eye(8)))
    exit5 = cli.main(["reconstruct", "--config", str(path), "--out", out]) == 5
    clean = farfield.add_noise(f0, 0.0, seed=1)
    noise_ident = bool(np.array_equal(clean.entries, f0.entries))
    ok = f_zero and s_ident and exit5 and noise_ident
    _line(9, "degenerate zero-contrast handling", ok,
          f"F=0 exactly: {f_zero}, S*=I exactly: {s_ident}, "
          f"no-signal exit: {exit5}, zero noise is identity: {noise_ident}")
    assert ok
