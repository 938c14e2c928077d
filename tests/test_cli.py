import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from defectscan import cli, errors, farfield, fm, io, media, solver
from defectscan.errors import ConfigInvalid, SchemaError

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
README = os.path.join(ROOT, "README.md")

TINY_DOC = {
    "schema": "run/1",
    "k": 1.0,
    "host": {
        "shape": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        "A": {"a11": 0.5, "a12": 0.0, "a22": 0.5},
        "n": 2.0,
    },
    "defects": [
        {
            "shape": {"type": "circle", "center": [0.0, 0.0], "radius": 0.4},
            "A0": {"a11": 1.0, "a12": 0.0, "a22": 1.0},
            "n0": 1.0,
        }
    ],
    "grid": {"half_extent": 2.0, "h": 0.125, "pml_cells": 8},
    "directions": 8,
    "lattice": {"nx": 15, "ny": 15, "bounds": [-1.0, 1.0, -1.0, 1.0]},
}


@pytest.fixture
def tiny_config_path(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY_DOC))
    return str(p)


def _zero_contrast_path(tmp_path):
    doc = json.loads(json.dumps(TINY_DOC))
    doc["host"]["A"] = {"a11": 1.0, "a12": 0.0, "a22": 1.0}
    doc["host"]["n"] = 1.0
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# configuration loading


def test_bundled_configs_parse_and_validate():
    names = cli.bundled_config_names()
    assert {
        "example1_circle", "example1_square", "example1_ellipse",
        "example1_twodiscs", "example2_aniso_host", "example3_aniso_defects",
    } <= set(names)
    for name in names:
        cfg = cli.load_run_config(name)
        cfg.media.validate(cfg.grid.h)
        cfg.grid.validate_for(cfg.media)
        assert cfg.grid.pml_cells == solver.GridSpec.pml_cells


def _scipy_loaded(statements: str) -> set:
    """The scipy modules a fresh process holds after running `statements`."""
    code = (
        f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
        f"from defectscan import cli; {statements}; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_only_the_pipeline_modules(tiny_config_path, tmp_path):
    # a fresh process, as every subcommand runs.  Reading the run file and a
    # usage error load no scipy; simulate loads the sparse LU; reconstruct
    # only samples fields, through a sparse matrix, and never loads the LU or
    # dense scipy.linalg.  The interpolation, spatial and optimization
    # packages never load, and the special functions only with the Mie check
    data = str(tmp_path / "data")
    run = {
        "config": f"cli.load_run_config({tiny_config_path!r})",
        "usage": f"assert cli.main(['simulate', '--config', {tiny_config_path!r}]) == 2",
        "simulate": f"assert cli.main(['simulate', '--config', {tiny_config_path!r}, "
                    f"'--out', {data!r}]) == 0",
        "reconstruct": f"assert cli.main(['reconstruct', '--config', {tiny_config_path!r}, "
                       f"'--out', {data!r}]) == 0",
    }
    loaded = {name: _scipy_loaded(statements) for name, statements in run.items()}
    assert loaded["config"] == loaded["usage"] == set()
    assert "scipy.sparse.linalg" in loaded["simulate"]
    assert "scipy.sparse" in loaded["reconstruct"]
    assert not {"scipy.sparse.linalg", "scipy.linalg"} & loaded["reconstruct"]
    for heavy in ("scipy.interpolate", "scipy.spatial", "scipy.special", "scipy.optimize"):
        assert heavy not in loaded["simulate"] | loaded["reconstruct"]


def test_sparse_lu_loads_before_the_medium_is_sampled(tiny_config_path):
    # imported amid the coefficient planes, scipy's modules share the heap
    # with them and raised a fine grid's peak RSS by 8-10 MB
    statements = (
        "from defectscan import media, solver; sample = media.sample_grid; seen = []; "
        "media.sample_grid = lambda *a: seen.append('scipy.sparse.linalg' in sys.modules) "
        "or sample(*a); "
        f"cfg = cli.load_run_config({tiny_config_path!r}); "
        "assert 'scipy.sparse.linalg' not in sys.modules; "
        "solver.assemble_system(cfg.grid, cfg.media); assert seen and seen[0], seen"
    )
    assert "scipy.sparse.linalg" in _scipy_loaded(statements)


def test_unknown_config_rejected():
    with pytest.raises(SchemaError):
        cli.load_run_config("no_such_preset")


def test_malformed_config_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        cli.load_run_config(str(p))
    p.write_text(json.dumps({"schema": "run/2"}))
    with pytest.raises(SchemaError):
        cli.load_run_config(str(p))
    doc = json.loads(json.dumps(TINY_DOC))
    del doc["host"]["A"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        cli.load_run_config(str(p))


def test_flag_overrides(tiny_config_path, tmp_path):
    # each subcommand takes the overrides it reads; the rest is as the file says
    base = cli.load_run_config(tiny_config_path)
    forward = (
        ["--grid-h", "0.25", "--directions", "16"],
        replace(base, grid=replace(base.grid, h=0.25), n_dirs=16),
    )
    cases = {
        "simulate": forward,
        "verify": forward,
        "reconstruct": (
            ["--noise", "0.05", "--seed", "99", "--floor", "1e-8"],
            replace(base, noise_level=0.05, noise_seed=99, floor_rel=1e-8),
        ),
    }
    for command, (flags, expected) in cases.items():
        args = cli._build_parser().parse_args(
            [command, "--config", tiny_config_path, "--out", str(tmp_path), *flags]
        )
        assert cli._apply_overrides(cli.load_run_config(args.config), args) == expected


# override flags a subcommand does not read: simulate and verify take no noise
# or floor, and reconstruct takes its grid and direction count from the data
UNREAD_FLAGS = [
    *((command, flag) for command in ("simulate", "verify")
      for flag in ("--noise", "--seed", "--floor")),
    ("reconstruct", "--grid-h"), ("reconstruct", "--directions"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_exit_2(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", "example1_circle", "--out", "o", flag, "1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "UsageError" and err["exit_code"] == 2
    assert flag in err["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("noise", [{"level": -0.5}, {"level": 0.01, "seed": -1}])
def test_bad_noise_settings_exit_2(tiny_config_path, tmp_path, capsys, noise):
    # from the config file and from the flags: exit 2 with the JSON error line
    doc = json.loads(json.dumps(TINY_DOC))
    doc["noise"] = noise
    p = tmp_path / "noisy.json"
    p.write_text(json.dumps(doc))
    flags = ["--noise", str(noise["level"]), "--seed", str(noise.get("seed", 0))]
    for argv in (["--config", str(p)], ["--config", tiny_config_path, *flags]):
        assert cli.main(["reconstruct", *argv, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and err["exit_code"] == 2
        assert "noise" in err["message"]
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_readme_json_blocks_parse():
    with open(README) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.S)
    assert blocks
    for block in blocks:
        cfg = cli.parse_run_config(json.loads(block))
        cfg.media.validate(cfg.grid.h)
        cfg.grid.validate_for(cfg.media)


# ---------------------------------------------------------------------------
# file formats


def test_ffm_round_trip_bit_exact(tmp_path, rng):
    n = 8
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = farfield.FarFieldMatrix(1.0, entries)
    path = str(tmp_path / "f.ffm.json")
    io.write_ffm(path, f)
    g = io.read_ffm(path)
    assert g.k == f.k
    assert json.load(open(path))["angles"] == farfield.direction_angles(n).tolist()
    assert np.array_equal(g.entries, f.entries)


def test_ffm_schema_errors(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{}")
    with pytest.raises(SchemaError):
        io.read_ffm(path)
    with open(path, "w") as fh:
        json.dump({"schema": "ffm/1", "k": 1.0, "N": 4, "angles": [0, 1],
                   "re": [[0]], "im": [[0]]}, fh)
    with pytest.raises(SchemaError):
        io.read_ffm(path)


def test_fields_round_trip(tmp_path, rng):
    spec = solver.GridSpec(1.0, 0.25, 8)
    nn = spec.n_nodes
    data = rng.standard_normal((4, nn, nn)) + 1j * rng.standard_normal((4, nn, nn))
    fs = farfield.FieldSet(spec, 1.0, data)
    path = str(tmp_path / "fields.bin")
    io.write_fields(path, fs)
    g = io.read_fields(path)
    assert g.spec == spec
    assert np.array_equal(g.data, data)
    assert not g.data.flags.writeable  # a view of the one payload copy
    tracemalloc.start()
    try:
        io.read_fields(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.nbytes  # the payload is allocated once
    # truncated payload is rejected
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-16])
    with pytest.raises(SchemaError):
        io.read_fields(path)


def test_read_fields_rejects_non_finite(tmp_path):
    spec = solver.GridSpec(1.0, 0.25, 8)
    nn = spec.n_nodes
    data = np.zeros((4, nn, nn), dtype=complex)
    data[2, 3, 5] = complex(0.0, np.inf)
    path = str(tmp_path / "fields.bin")
    io.write_fields(path, farfield.FieldSet(spec, 1.0, data))
    with pytest.raises(ConfigInvalid):
        io.read_fields(path)


def _indicator_csv_rows(grid):
    # the per-row formatter write_indicator_csv replaced: the bytes it wrote
    lines = ["x,y,value,inside_D"]
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            lines.append(
                f"{float(x)!r},{float(y)!r},{float(grid.values[iy, ix])!r},"
                f"{int(grid.mask[iy, ix])}"
            )
    return ("\n".join(lines) + "\n").encode()


def test_indicator_csv_golden_bytes_and_round_trip(tmp_path, rng):
    nx, ny = 7, 4  # non-square, so the row order is pinned
    xs, ys, _ = fm.sampling_lattice((-1.3, 0.9, -0.7, 1.1), nx, ny)
    mask = rng.random((ny, nx)) < 0.7
    mask[0, :3] = [True, True, False]
    values = np.where(mask, rng.random((ny, nx)) * 10.0 ** rng.uniform(-9, 6, (ny, nx)), 0.0)
    values[0, :2] = [fm.INDICATOR_CAP, 3.0]  # the cap and an integral float
    values[1, mask[1]] *= 1e-7               # below 1e-4, where repr uses exponents
    grid = fm.IndicatorGrid(xs, ys, values, mask, False, 0)
    path = tmp_path / "indicator.csv"
    io.write_indicator_csv(str(path), grid)
    text = path.read_bytes()
    assert text == _indicator_csv_rows(grid)
    assert b"e-" in text and b",3.0," in text and b",0.0,0\n" in text

    # x varies fastest, y ascending; every number reads back bit for bit
    lines = text.decode().splitlines()
    assert lines[0] == "x,y,value,inside_D" and len(lines) == 1 + nx * ny
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], np.tile(xs, ny))
    np.testing.assert_array_equal(rows[:, 1], np.repeat(ys, nx))
    np.testing.assert_array_equal(rows[:, 2], values.ravel())
    np.testing.assert_array_equal(rows[:, 3], mask.ravel())


def test_outputs_respect_umask(tmp_path):
    old = os.umask(0o022)
    try:
        path = str(tmp_path / "report.json")
        io.write_report(path, {"schema": "report/1"})
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        os.umask(0o077)
        io.write_report(path, {"schema": "report/1"})
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    finally:
        os.umask(old)


@pytest.mark.parametrize("n", [81, 161])
@pytest.mark.parametrize("name", cli.bundled_config_names())
def test_near_defect_masks_equal_the_unrestricted_query(name, n, rng):
    # a point is near a defect inside it or closer than the clearance by the
    # shape's `boundary_distance`: exact for circles and rectangles, a lower
    # bound for ellipses with unequal semi-axes.  The reference is an
    # unrestricted k-d tree query of 512 boundary points: the near set contains
    # its set, and equals it for circles and rectangles, except where rounding
    # decides: lattice points whose distance is the clearance to within 1e-12
    from scipy.spatial import cKDTree  # the reference only; the package never loads it

    cfg = cli.load_run_config(name)
    xs, ys, pts = fm.sampling_lattice(cfg.lattice_bounds, n, n)
    near = np.zeros(len(pts), dtype=bool)
    for d in cfg.media.defects:
        contains = d.shape.contains(pts)
        dist = d.shape.boundary_distance(pts)
        by_distance = contains | (dist < cli.CONTRAST_CLEARANCE)
        by_tree = contains | (cKDTree(d.shape.boundary_points(512)).query(pts)[0]
                              < cli.CONTRAST_CLEARANCE)
        settled = np.abs(dist - cli.CONTRAST_CLEARANCE) > 1e-12
        assert not np.any(by_tree & ~by_distance & settled)
        if not (isinstance(d.shape, media.Ellipse) and d.shape.semi_a != d.shape.semi_b):
            np.testing.assert_array_equal(by_distance[settled], by_tree[settled])
        assert np.any(by_distance & ~contains)
        near |= by_distance
    # the outside mean of random values averages exactly the points not near
    values = rng.uniform(1.0, 2.0, (n, n))
    grid = fm.IndicatorGrid(xs, ys, values, np.ones((n, n), dtype=bool), False, 0)
    stats = cli.contrast_statistics(grid, cfg.media)
    assert stats["per_defect"][0]["outside_mean"] == np.mean(values.ravel()[~near])


def _circle_specs(spec):
    """The circle specs in a shape spec, union members included."""
    if spec["type"] == "union":
        return [c for m in spec["members"] for c in _circle_specs(m)]
    return [spec] if spec["type"] == "circle" else []


def test_circle_masks_equal_the_circle_formulas():
    # a circle is read as an ellipse with equal semi-axes; on its preset's 81^2
    # lattice and on reconstruct_sweep's 161^2 lattice of [-2, 2]^2, its inside
    # and near masks are those of the circle formulas dx^2 + dy^2 < r^2 and
    # |hypot(dx, dy) - r|, so rounding moves no lattice point across either
    checked = 0
    for name in cli.bundled_config_names():
        with open(os.path.join(os.path.dirname(cli.__file__), "configs", f"{name}.json")) as fh:
            doc = json.load(fh)
        specs = [doc["host"]["shape"]] + [d["shape"] for d in doc.get("defects", [])]
        lattices = [fm.sampling_lattice(cli.load_run_config(name).lattice_bounds, 81, 81)[2],
                    fm.sampling_lattice((-2.0, 2.0, -2.0, 2.0), 161, 161)[2]]
        for spec in (c for s in specs for c in _circle_specs(s)):
            shape = media.shape_from_dict(spec)
            (cx, cy), r = spec["center"], spec["radius"]
            assert shape == media.Ellipse((cx, cy), r, r)
            for pts in lattices:
                dx, dy = pts[:, 0] - cx, pts[:, 1] - cy
                np.testing.assert_array_equal(shape.contains(pts), dx * dx + dy * dy < r * r)
                np.testing.assert_array_equal(
                    shape.boundary_distance(pts) < cli.CONTRAST_CLEARANCE,
                    np.abs(np.hypot(dx, dy) - r) < cli.CONTRAST_CLEARANCE,
                )
            checked += 1
    # example1_circle's defect, example1_twodiscs' two, example2_aniso_host's
    assert checked == 4


# ---------------------------------------------------------------------------
# pipeline


def test_simulate_reconstruct_pipeline(tiny_config_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", tiny_config_path, "--out", out]) == 0
    for name in ("F0.ffm.json", "Fb.ffm.json", "fields.bin"):
        assert os.path.exists(os.path.join(out, name))
    assert cli.main(["reconstruct", "--config", tiny_config_path, "--out", out]) == 0
    for name in ("indicator.csv", "indicator.pgm", "spectrum.csv", "report.json"):
        assert os.path.exists(os.path.join(out, name))

    report = json.load(open(os.path.join(out, "report.json")))
    assert report["schema"] == "report/1"
    assert not report["no_defect_signal"]
    assert report["unitarity_defect"] <= 0.05
    assert report["assumptions"]["verdict"] == "satisfied"
    assert report["contrast"]["overall"] > 1.0

    rows = np.loadtxt(os.path.join(out, "indicator.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (15 * 15, 4)
    inside = rows[:, 3] == 1
    assert np.all(rows[inside, 2] > 0)
    assert np.all(rows[~inside, 2] == 0)

    with open(os.path.join(out, "indicator.pgm"), "rb") as fh:
        assert fh.readline() == b"P5\n"
        assert fh.readline() == b"15 15\n"
        assert fh.readline() == b"255\n"
        assert len(fh.read()) == 15 * 15

    spec_rows = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",", skiprows=1)
    lam = spec_rows[:, 1]
    assert np.all(np.diff(lam) <= 1e-12)  # descending


def test_simulate_deterministic(tiny_config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["simulate", "--config", tiny_config_path, "--out", out1])
    cli.main(["simulate", "--config", tiny_config_path, "--out", out2])
    for name in ("F0.ffm.json", "Fb.ffm.json", "fields.bin"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_reconstruct_exit_codes(tiny_config_path, tmp_path):
    out = str(tmp_path / "out")
    cli.main(["simulate", "--config", tiny_config_path, "--out", out])
    # feeding Fb as both inputs -> no defect signal, exit 5
    fb = os.path.join(out, "Fb.ffm.json")
    code = cli.main([
        "reconstruct", "--config", tiny_config_path, "--out", out, "--f0", fb,
    ])
    assert code == 5
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["no_defect_signal"]
    # mismatched inputs -> exit 4
    other = str(tmp_path / "small.ffm.json")
    io.write_ffm(other, farfield.FarFieldMatrix(1.0, np.zeros((4, 4), dtype=complex)))
    assert cli.main([
        "reconstruct", "--config", tiny_config_path, "--out", out, "--f0", other,
    ]) == 4
    # missing input file -> exit 2 (schema error)
    assert cli.main([
        "reconstruct", "--config", tiny_config_path, "--out", out,
        "--f0", str(tmp_path / "nope.json"),
    ]) == 2


def test_lattice_outside_d_exits_2_before_any_output(tiny_simulation, tmp_path, capsys):
    for bounds, nx in (([1.5, 2.0, -0.5, 0.5], 15), ([-1.0, 1.0, -1.0, 1.0], 0)):
        doc = json.loads(json.dumps(TINY_DOC))
        doc["lattice"] = {"nx": nx, "ny": 15, "bounds": bounds}
        cfg = tmp_path / "lattice.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out{nx}"
        assert _reconstruct(tiny_simulation, out, config=str(cfg)) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
        assert os.listdir(out) == []


def test_noisy_reconstruct_and_verify_deterministic(tiny_simulation, tmp_path):
    # two rounds into the same directories in one process: every output repeats
    # byte for byte
    rounds = []
    for _ in range(2):
        assert _reconstruct(tiny_simulation, tmp_path, "--noise", "0.02", "--seed", "5") == 0
        assert cli.main([
            "verify", "--config", tiny_simulation["config"], "--out", str(tmp_path / "verify"),
        ]) == 0
        rounds.append({
            name: (tmp_path / name).read_bytes()
            for name in ("indicator.csv", "indicator.pgm", "spectrum.csv", "report.json",
                         "verify/report.json")
        })
    assert rounds[0] == rounds[1]
    assert json.loads(rounds[0]["report.json"])["noise"] == {"level": 0.02, "seed": 5}


def _simulate_tiny(root, *flags):
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY_DOC))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(root), *flags]) == 0
    return {
        "config": str(cfg),
        **{key: str(root / name) for key, name in
           (("f0", "F0.ffm.json"), ("fb", "Fb.ffm.json"), ("fields", "fields.bin"))},
    }


@pytest.fixture(scope="module")
def tiny_simulation(tmp_path_factory):
    """Paths of the tiny scene's config and simulate outputs."""
    return _simulate_tiny(tmp_path_factory.mktemp("tiny_sim"))


@pytest.fixture(scope="module")
def tiny_simulation_32(tmp_path_factory):
    """The same at N = 32, where one bad direction of S has a unitarity
    defect of at most 1 / (N - 1), below the limit."""
    return _simulate_tiny(tmp_path_factory.mktemp("tiny_sim_32"), "--directions", "32")


def _reconstruct(paths, out, *flags, **override):
    p = {**paths, **override}
    return cli.main([
        "reconstruct", "--config", p["config"], "--out", str(out),
        "--f0", p["f0"], "--fb", p["fb"], "--fields", p["fields"], *flags,
    ])


def _altered_fields(paths, tmp_path, n=None, **change):
    """A copy of the fields file with header values changed; with n, it holds
    the first n fields."""
    line, payload = open(paths["fields"], "rb").read().split(b"\n", 1)
    header = json.loads(line)
    if n is not None:
        payload = payload[: len(payload) // header["N"] * n]
    path = tmp_path / "fields.bin"
    path.write_bytes(json.dumps({**header, **change}).encode() + b"\n" + payload)
    return str(path)


def test_reconstruct_rejects_fields_wavenumber_mismatch(tiny_simulation, tmp_path):
    fields = _altered_fields(tiny_simulation, tmp_path, k=1.5)
    assert _reconstruct(tiny_simulation, tmp_path / "out", fields=fields) == 4


def test_reconstruct_rejects_fields_direction_mismatch(tiny_simulation, tmp_path, capsys):
    # the angles are 2 pi j / N, so shifted ones are a malformed header
    angles = farfield.direction_angles(TINY_DOC["directions"]) + 0.05
    fields = _altered_fields(tiny_simulation, tmp_path, angles=angles.tolist())
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation, out, fields=fields) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and f"{fields}: angles" in err["message"]
    assert os.listdir(out) == []


def test_reconstruct_rejects_an_odd_direction_count(tiny_simulation, tmp_path, capsys):
    # 7 directions, their angles and 7 fields: a consistent file, but the
    # reversed direction j + N/2 needs N even
    n = TINY_DOC["directions"] - 1
    fields = _altered_fields(
        tiny_simulation, tmp_path, n=n, N=n, angles=farfield.direction_angles(n).tolist()
    )
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation, out, fields=fields) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert os.listdir(out) == []


def test_reconstruct_rejects_config_wavenumber_mismatch(tiny_simulation, tmp_path):
    doc = json.loads(json.dumps(TINY_DOC))
    doc["k"] = 1.25
    cfg = tmp_path / "other_k.json"
    cfg.write_text(json.dumps(doc))
    assert _reconstruct(tiny_simulation, tmp_path / "out", config=str(cfg)) == 4
    # the unaltered inputs reconstruct
    assert _reconstruct(tiny_simulation, tmp_path / "out") == 0


def test_report_records_the_data_direction_count(tiny_simulation, tmp_path):
    # the config says 16 directions, the data holds 8
    cfg = tmp_path / "sixteen.json"
    cfg.write_text(json.dumps({**TINY_DOC, "directions": 16}))
    assert _reconstruct(tiny_simulation, tmp_path, config=str(cfg)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["N"] == TINY_DOC["directions"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_undefined_contrast_is_null_in_the_report(ex1_data, tmp_path):
    # every lattice point of [-0.5, 0.5]^2 lies inside example1_circle's unit
    # defect, so no point lies away from it: the outside mean and the contrasts
    # are undefined, and the report writes them as null, not as a bare NaN
    paths = {"f0": tmp_path / "F0.ffm.json", "fb": tmp_path / "Fb.ffm.json",
             "fields": tmp_path / "fields.bin"}
    io.write_ffm(str(paths["f0"]), ex1_data[0])
    io.write_ffm(str(paths["fb"]), ex1_data[1])
    io.write_fields(str(paths["fields"]), ex1_data[2])
    with open(os.path.join(os.path.dirname(cli.__file__), "configs", "example1_circle.json")) as fh:
        doc = json.load(fh)
    doc["lattice"]["bounds"] = [-0.5, 0.5, -0.5, 0.5]
    cfg = tmp_path / "inside.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _reconstruct({k: str(v) for k, v in paths.items()}, out, config=str(cfg)) == 0
    text = (out / "report.json").read_text()
    contrast = json.loads(text, parse_constant=_reject_constant)["contrast"]
    assert contrast["overall"] is None
    (defect,) = contrast["per_defect"]
    assert defect["outside_mean"] is None and defect["contrast"] is None
    assert defect["inside_mean"] > 0


@pytest.mark.parametrize("tensor, message", [
    ("A", "host tensor A must be positive definite"),
    ("A0", "defect 0: Re(A0) must be positive definite"),
])
def test_singular_tensor_exits_2(tiny_simulation, tmp_path, capsys, tensor, message):
    # [[1, 3], [3, 9]] is singular, though eigvalsh gives it lambda_min =
    # 1.1e-16 > 0; both subcommands reject it before they write anything
    doc = json.loads(json.dumps(TINY_DOC))
    node = doc["host"] if tensor == "A" else doc["defects"][0]
    node[tensor] = {"a11": 1.0, "a12": 3.0, "a22": 9.0}
    p = tmp_path / "singular.json"
    p.write_text(json.dumps(doc))
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    assert cli.main(["simulate", "--config", str(p), "--out", str(sim)]) == 2
    assert _reconstruct(tiny_simulation, rec, config=str(p)) == 2
    errs = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(e["error"], e["message"]) for e in errs] == [("ConfigInvalid", message)] * 2
    assert os.listdir(sim) == os.listdir(rec) == []


def test_reconstruct_checks_assumptions_at_the_data_grid(tiny_simulation, tmp_path):
    # at h = 0.8 the defect (radius 0.4) has no h margin inside the host
    # (radius 1), so the config's grid fails the containment check; the data
    # were simulated at h = 0.125, and reconstruct checks at that h
    doc = {**TINY_DOC, "grid": {**TINY_DOC["grid"], "h": 0.8}}
    with pytest.raises(ConfigInvalid):
        cli.parse_run_config(doc).media.validate(0.8)
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    assert _reconstruct(tiny_simulation, tmp_path / "coarse", config=str(cfg)) == 0
    assert _reconstruct(tiny_simulation, tmp_path / "same") == 0
    for name in ("indicator.csv", "indicator.pgm", "spectrum.csv", "report.json"):
        assert (tmp_path / "coarse" / name).read_bytes() == (tmp_path / "same" / name).read_bytes()


def _diagonal_fb(k, n, last):
    """A background far field whose S is diag(1, ..., 1, last)."""
    entries = np.zeros((n, n), dtype=complex)
    entries[-1, -1] = (last - 1.0) / (2j * k * np.conj(solver.gamma2(k)) * 2 * np.pi / n)
    return farfield.FarFieldMatrix(k, entries)


def test_singular_scattering_operator_exits_3_before_any_output(
    tiny_simulation_32, tmp_path, capsys,
):
    # each background is far from unitary in at least one direction, at
    # N = 32; the defect of a diagonal S is under the limit, the gap is not
    fb = io.read_ffm(tiny_simulation_32["fb"])
    n, limit = fb.n, farfield.UNITARITY_LIMIT
    cases = {
        # entries so large that adding I rounds away: S has rank 1
        "rank one": (np.full((n, n), 1e20 + 0j), lambda d, g: d > limit),
        # S* S overflows: the defect is NaN and the gap infinite
        "overflow": (np.full((n, n), 1e200 + 0j), lambda d, g: np.isnan(d) and g == np.inf),
        "diag(1, ..., 1, 0)": (
            _diagonal_fb(fb.k, n, 0.0).entries, lambda d, g: d == pytest.approx(1 / 31) and g == 1,
        ),
        # condition number 2: the parent's inverse took it without trouble
        "diag(1, ..., 1, 0.5)": (
            _diagonal_fb(fb.k, n, 0.5).entries,
            lambda d, g: d == pytest.approx(0.75 / 31.25) and g == pytest.approx(0.75),
        ),
    }
    for name, (entries, measures) in cases.items():
        crafted = farfield.FarFieldMatrix(fb.k, entries)
        s_adj, defect = farfield.scattering_operator(crafted)
        assert measures(defect, farfield.unitarity_gap(s_adj)), name
        path, out = str(tmp_path / f"{name}.ffm.json"), tmp_path / name
        io.write_ffm(path, crafted)
        # no errstate here: a RuntimeWarning on the way fails the test
        assert _reconstruct(tiny_simulation_32, out, fb=path) == 3, name
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "SingularScattering" and err["exit_code"] == 3, name
        assert os.listdir(out) == [], name


def test_scattering_operator_just_within_the_unitarity_limit_reconstructs(
    tiny_simulation_32, tmp_path,
):
    # diag(1, ..., 1, s) has gap 1 - s^2 = 0.049, just below the limit, and
    # defect 0.049 / (N - 1 + s^2)
    fb = io.read_ffm(tiny_simulation_32["fb"])
    gap = 0.049
    assert gap < farfield.UNITARITY_LIMIT
    crafted = _diagonal_fb(fb.k, fb.n, np.sqrt(1 - gap))
    assert farfield.unitarity_gap(farfield.scattering_operator(crafted)[0]) == pytest.approx(gap)
    path = str(tmp_path / "Fb.ffm.json")
    io.write_ffm(path, crafted)
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation_32, out, fb=path) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["unitarity_defect"] == pytest.approx(gap / (fb.n - gap), rel=1e-9)


def test_use_adjoint_is_rejected(tiny_simulation, tmp_path, capsys):
    # F# and the test functions take S* only: the flag is gone, and a config
    # whose use_adjoint is anything but false exits 2 instead of running S*
    assert _reconstruct(tiny_simulation, tmp_path / "flag", "--use-adjoint") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
    for i, (value, code) in enumerate(((True, 2), ("no", 2), (0, 2), (False, 0))):
        cfg = tmp_path / f"adjoint{i}.json"
        cfg.write_text(json.dumps({**TINY_DOC, "use_adjoint": value}))
        out = tmp_path / f"out{i}"
        assert _reconstruct(tiny_simulation, out, config=str(cfg)) == code
        if code == 2:
            assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
        assert os.path.exists(out / "report.json") == (code == 0)


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "example1_circle"],
    ["simulate", "--config", "example1_circle", "--out", "o", "--no-such-flag"],
    ["verify", "--config", "example1_circle", "--out", "o", "--grid-h", "abc"],
    ["no-such-command"],
])
def test_usage_errors_exit_2_with_the_json_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()  # the JSON line only, no usage text
    err = json.loads(line)
    assert err["error"] == "UsageError" and err["exit_code"] == 2
    assert os.listdir(tmp_path) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("value", [16.7, True, "16"])
@pytest.mark.parametrize("key", [
    "directions", "lattice.nx", "lattice.ny", "grid.pml_cells", "noise.seed",
])
def test_non_integer_counts_exit_2(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps({**TINY_DOC, "noise": {"level": 0.0, "seed": 3}}))
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    p = tmp_path / "counts.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and key in err["message"]
    assert not os.path.exists(tmp_path / "out" / "F0.ffm.json")


# the bound of each count, and two values beyond it: one past the bound, and
# a 401-digit integer that used to pass parsing and an LU and then exit 1
COUNT_BOUNDS = {
    "directions": farfield.MAX_DIRECTIONS,
    "lattice.nx": fm.MAX_LATTICE,
    "lattice.ny": fm.MAX_LATTICE,
}


@pytest.mark.parametrize("excess", ["one", "1e400"])
@pytest.mark.parametrize("key", sorted(COUNT_BOUNDS))
def test_counts_beyond_their_bound_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, key, excess,
):
    def no_work(*args):
        raise AssertionError("a forward problem was assembled")

    monkeypatch.setattr(solver, "assemble_system", no_work)
    doc = json.loads(json.dumps(TINY_DOC))
    parent, leaf = key.split(".") if "." in key else (None, key)
    node = doc[parent] if parent else doc
    node[leaf] = COUNT_BOUNDS[key] + 1 if excess == "one" else 10**400
    p = tmp_path / "counts.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert f"{key} must be at most {COUNT_BOUNDS[key]}" in err["message"]


def test_directions_flag_beyond_its_bound_is_a_usage_error(tiny_config_path, tmp_path, capsys):
    for value in (farfield.MAX_DIRECTIONS + 1, 10**400):
        argv = ["simulate", "--config", tiny_config_path, "--out", str(tmp_path / "out"),
                "--directions", str(value)]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"
        assert f"at most {farfield.MAX_DIRECTIONS}" in err["message"]
    assert not os.path.exists(tmp_path / "out" / "F0.ffm.json")


@pytest.mark.parametrize("n", [7, 6, -4])
def test_bad_direction_count_exits_2_before_any_factorization(
    tiny_config_path, tmp_path, capsys, monkeypatch, n
):
    # the far-field assembly needs N even and at least 8; the run file and the
    # flag are both checked before the first medium is factorized
    calls = []
    monkeypatch.setattr(solver, "assemble_system", lambda *args: calls.append(args))
    p = tmp_path / "dirs.json"
    p.write_text(json.dumps({**TINY_DOC, "directions": n}))
    out = str(tmp_path / "out")
    for argv in (["--config", str(p)], ["--config", tiny_config_path, "--directions", str(n)]):
        for command in ("simulate", "verify"):
            assert cli.main([command, *argv, "--out", out]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigInvalid"
            assert err["message"] == "need an even number of directions, at least 8"
    assert calls == []


@pytest.mark.parametrize("floor", [0.5, -1e-3])
def test_bad_floor_exits_2_before_any_work(tiny_config_path, tmp_path, capsys, monkeypatch, floor):
    # the Picard floor is checked as the run file and the flag are read, not
    # after reconstruct has read its data and done the F# eigensolves;
    # simulate and verify, which do not use it, reject it too
    def no_work(*args):
        raise AssertionError("a medium was factorized or a data file read")

    monkeypatch.setattr(solver, "assemble_system", no_work)
    monkeypatch.setattr(io, "read_ffm", no_work)
    p = tmp_path / "floor.json"
    p.write_text(json.dumps({**TINY_DOC, "floor_rel": floor}))
    out = tmp_path / "out"
    out.mkdir()
    runs = [[command, "--config", str(p)] for command in ("simulate", "verify", "reconstruct")]
    runs.append(["reconstruct", "--config", tiny_config_path, "--floor", str(floor)])
    for argv in runs:
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert err["message"] == f"floor_rel must lie in [0, {fm.MAX_FLOOR_REL:g}]"
    assert os.listdir(out) == []


def test_grid_beyond_the_node_bound_is_rejected():
    # the collar counts; h = 1e-310 makes 2L/h infinite, on which round()
    # raised OverflowError (exit 1)
    for h, cells in ((4.0 / (solver.MAX_NODES - 16), 8), (1e-310, 8), (0.5, 10**400)):
        with pytest.raises(ConfigInvalid, match="at most"):
            solver.GridSpec(2.0, h, cells)
    assert solver.GridSpec(2.0, 4.0 / (solver.MAX_NODES - 17), 8).n_nodes == solver.MAX_NODES


# run-file numbers: document path -> the key the error message names
FLOAT_KEYS = {
    "k": "k",
    "host.n": "host.n",
    "host.A.a11": "host.A.a11",
    "defects.0.A0.i12": "defects.0.A0.i12",
    "defects.0.n0": "defects.0.n0",
    "host.shape.radius": "circle radius",
    "defects.0.shape.center.1": "circle center",
    "grid.half_extent": "grid.half_extent",
    "grid.h": "grid.h",
    "noise.level": "noise.level",
    "floor_rel": "floor_rel",
    "lattice.bounds.0": "lattice.bounds",
}


# a JSON integer beyond the float range, on which float() overflows
BEYOND_FLOAT = 10**400
NOT_FLOATS = [True, "1.0", None, float("nan"), float("inf"), BEYOND_FLOAT]
NOT_NUMBERS = [True, "1.0", None, BEYOND_FLOAT]


def _short_id(value):
    """A short test id for BEYOND_FLOAT; pytest's own for every other value."""
    return "int_1e400" if value is BEYOND_FLOAT else None


@pytest.mark.parametrize("value", NOT_FLOATS, ids=_short_id)
@pytest.mark.parametrize("path", sorted(FLOAT_KEYS))
def test_non_numeric_floats_exit_2(tmp_path, capsys, path, value):
    # float() would take true as 1.0 and "1.0" as a number; json.dumps writes
    # nan and inf as NaN and Infinity, which json.load reads back; a 401-digit
    # integer made float() raise OverflowError, which exited 1
    doc = json.loads(json.dumps({**TINY_DOC, "noise": {"level": 0.0, "seed": 3}}))
    *parents, leaf = path.split(".")
    node = doc
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    p = tmp_path / "floats.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and FLOAT_KEYS[path] in err["message"]
    assert not os.path.exists(tmp_path / "out" / "F0.ffm.json")


def _defect_center(center) -> bytes:
    doc = json.loads(json.dumps(TINY_DOC))
    doc["defects"][0]["shape"]["center"] = center
    return json.dumps(doc).encode()


# inputs that are not the documented documents: (the reconstruct input they
# replace, file contents, or None for a directory)
MALFORMED = {
    "defect center has three numbers": ("config", _defect_center([0.0, 0.0, 5.0])),
    "defect center has one number": ("config", _defect_center([0.0])),
    "defect center is a number": ("config", _defect_center(0.0)),
    "run document is a list": ("config", json.dumps([TINY_DOC]).encode()),
    "noise is a number": ("config", json.dumps({**TINY_DOC, "noise": 0.02}).encode()),
    "lattice is a list": ("config", json.dumps({**TINY_DOC, "lattice": [1, 2]}).encode()),
    "three lattice bounds": ("config", json.dumps(
        {**TINY_DOC, "lattice": {"nx": 15, "ny": 15, "bounds": [-1.0, 1.0, -1.0]}}).encode()),
    "reversed lattice bounds": ("config", json.dumps(
        {**TINY_DOC, "lattice": {"nx": 15, "ny": 15, "bounds": [1.0, -1.0, 1.0, -1.0]}}).encode()),
    "grid.pml_strength nonzero": ("config", json.dumps(
        {**TINY_DOC, "grid": {**TINY_DOC["grid"], "pml_strength": 30.0}}).encode()),
    "config is not UTF-8": ("config", json.dumps(
        {**TINY_DOC, "name": "d\u00e9faut"}, ensure_ascii=False).encode("latin-1")),
    "config is a directory": ("config", None),
    "fb is not an object": ("fb", b"[1, 2]"),
    "fields header is not an object": ("fields", b"[1, 2]\n" + bytes(16)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_2(tiny_simulation, tmp_path, capsys, case):
    key, payload = MALFORMED[case]
    path = tmp_path / "input"
    if payload is None:
        path.mkdir()
    else:
        path.write_bytes(payload)
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation, out, **{key: str(path)}) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and err["exit_code"] == 2
    assert not out.exists() or os.listdir(out) == []  # nothing written


# data-file header values: (reconstruct input, header key, bad values); k
# must also be positive, counts must be JSON integers, an angle must be
# 2 pi j / N, and a non-finite far-field entry is ConfigInvalid instead
NOT_INTS = [8.7, True, "8"]
FFM_KEYS = {
    "k": NOT_FLOATS + [-1.0, 0.0], "N": NOT_INTS,
    "angles.1": NOT_FLOATS, "re.1.2": NOT_NUMBERS, "im.1.2": NOT_NUMBERS,
}
BAD_HEADERS = [
    (name, key, value)
    for name, keys in (
        ("f0", FFM_KEYS),
        ("fb", FFM_KEYS),
        ("fields", {
            "k": NOT_FLOATS + [-1.0, 0.0], "N": NOT_INTS, "nodes": NOT_INTS,
            "grid.half_extent": NOT_FLOATS, "grid.h": NOT_FLOATS, "grid.pml_cells": NOT_INTS,
            "angles.1": NOT_FLOATS,
        }),
    )
    for key, values in keys.items()
    for value in values
]


@pytest.mark.parametrize("name, key, value", BAD_HEADERS, ids=_short_id)
def test_non_numeric_data_headers_exit_2(tiny_simulation, tmp_path, capsys, name, key, value):
    # float() and int() would take "1.0", true and 8.7, and a NaN k ran on to
    # exit 0 with a flat map; every data file follows the run file's rules.
    # np.asarray(..., float) took "1.0" in an array, and a NaN angle exited 4;
    # a 401-digit integer overflowed float() and exited 1
    with open(tiny_simulation[name], "rb") as fh:
        head, payload = fh.readline(), fh.read()  # the ffm documents are one line
    doc = json.loads(head)
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    path = tmp_path / "input"
    path.write_bytes(json.dumps(doc).encode() + (b"\n" + payload if payload else b""))
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation, out, **{name: str(path)}) == 2
    err = json.loads(capsys.readouterr().err)
    array = re.sub(r"\.\d+", "", key)  # "re.1.2" -> "re"
    assert err["error"] == "SchemaError" and f"{path}: {array}" in err["message"]
    assert not out.exists() or os.listdir(out) == []  # nothing written


DATA_COUNT_BOUNDS = [
    ("f0", "N", farfield.MAX_DIRECTIONS),
    ("fb", "N", farfield.MAX_DIRECTIONS),
    ("fields", "N", farfield.MAX_DIRECTIONS),
    ("fields", "nodes", solver.MAX_NODES),
]


@pytest.mark.parametrize("excess", ["one", "1e400"])
@pytest.mark.parametrize("name, key, bound", DATA_COUNT_BOUNDS)
def test_data_counts_beyond_their_bound_exit_2(
    tiny_simulation, tmp_path, capsys, name, key, bound, excess,
):
    with open(tiny_simulation[name], "rb") as fh:
        head, payload = fh.readline(), fh.read()
    doc = json.loads(head)
    doc[key] = bound + 1 if excess == "one" else 10**400
    path = tmp_path / "input"
    path.write_bytes(json.dumps(doc).encode() + (b"\n" + payload if payload else b""))
    out = tmp_path / "out"
    assert _reconstruct(tiny_simulation, out, **{name: str(path)}) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert f"{path}: {key} must be at most {bound}" in err["message"]
    assert not out.exists() or os.listdir(out) == []


def test_pml_strength_zero_still_parses(tmp_path):
    # the collar strength is fixed at 30 / (k T); a run file may still say 0,
    # the value that selected it before
    for value in (0, 0.0):
        p = tmp_path / "strength.json"
        p.write_text(json.dumps({**TINY_DOC, "grid": {**TINY_DOC["grid"], "pml_strength": value}}))
        assert cli.load_run_config(str(p)).grid == solver.GridSpec(2.0, 0.125)


def test_fields_header_with_pml_strength_still_reads(tiny_simulation, tmp_path):
    # fields/1 files written while the header carried the collar strength
    line, payload = open(tiny_simulation["fields"], "rb").read().split(b"\n", 1)
    header = json.loads(line)
    assert "pml_strength" not in header["grid"]
    header["grid"]["pml_strength"] = 0.0
    old = tmp_path / "old_fields.bin"
    old.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    new_fs, old_fs = io.read_fields(tiny_simulation["fields"]), io.read_fields(str(old))
    assert old_fs.spec == new_fs.spec and np.array_equal(old_fs.data, new_fs.data)
    assert _reconstruct(tiny_simulation, tmp_path / "new") == 0
    assert _reconstruct(tiny_simulation, tmp_path / "old", fields=str(old)) == 0
    for name in ("indicator.csv", "indicator.pgm", "spectrum.csv", "report.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


def test_each_medium_is_factorized_once(tiny_config_path, tmp_path, monkeypatch):
    built = []
    assemble = solver.assemble_system

    def counted(spec, config):
        built.append(len(config.defects))
        return assemble(spec, config)

    monkeypatch.setattr(solver, "assemble_system", counted)
    # the tiny scene has one defect: the scene and its defect-free background
    assert cli.main(["simulate", "--config", tiny_config_path, "--out", str(tmp_path / "s")]) == 0
    assert sorted(built) == [0, 1]
    built.clear()
    # verify shares one background system between plane waves and point source
    assert cli.main(["verify", "--config", tiny_config_path, "--out", str(tmp_path / "v")]) == 0
    assert built == [0]


def test_host_too_close_to_pml_exit_code(tmp_path, capsys):
    # host radius 1.0 = L - 4h: the grid passes its own checks, but no
    # far-field circle fits between the host and the PML
    doc = json.loads(json.dumps(TINY_DOC))
    doc["grid"] = {"half_extent": 1.5, "h": 0.125, "pml_cells": 8}
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid" and "extraction radius" in err["message"]


# the exit status README documents for each error: 2 bad input, 3 numerical
# failure, 4 inconsistent inputs, 5 no defect signature
EXIT_CODES = {
    "ConfigInvalid": 2, "SchemaError": 2, "UsageError": 2,
    "SingularSystem": 3, "ModeSystemSingular": 3,
    "SingularScattering": 3, "NotHermitian": 3, "NoConvergence": 3,
    "DimensionMismatch": 4, "PointOutsideD": 4,
    "NoDefectSignal": 5,
}


def test_every_error_class_has_a_documented_exit_code():
    assert set(EXIT_CODES) == {c.__name__ for c in errors.DefectScanError.__subclasses__()}


@pytest.mark.parametrize("name, code", sorted(EXIT_CODES.items()))
def test_error_exit_codes(tiny_config_path, tmp_path, monkeypatch, capsys, name, code):
    def fail(cfg, out_dir):
        raise getattr(errors, name)("injected")

    monkeypatch.setattr(cli, "cmd_simulate", fail)
    assert cli.main(["simulate", "--config", tiny_config_path, "--out", str(tmp_path)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": name, "message": "injected", "exit_code": code}


def test_config_error_exit_code(tmp_path):
    assert cli.main(["simulate", "--config", "no_such", "--out", str(tmp_path)]) == 2


def test_zero_contrast_full_path(tmp_path):
    path = _zero_contrast_path(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    f0 = io.read_ffm(os.path.join(out, "F0.ffm.json"))
    fb = io.read_ffm(os.path.join(out, "Fb.ffm.json"))
    assert np.all(f0.entries == 0.0)
    assert np.all(fb.entries == 0.0)
    assert np.array_equal(farfield.scattering_operator(fb)[0], np.eye(8))
    assert cli.main(["reconstruct", "--config", path, "--out", out]) == 5


def test_verify_command(tmp_path):
    doc = {
        "schema": "run/1",
        "k": 1.0,
        "host": {
            "shape": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
            "A": {"a11": 0.9, "a12": 0.0, "a22": 0.9},
            "n": 1.1,
        },
        "defects": [],
        "grid": {"half_extent": 3.5, "h": 0.175},
        "directions": 16,
    }
    p = tmp_path / "disc.json"
    p.write_text(json.dumps(doc))
    assert cli.load_run_config(str(p)).grid == solver.GridSpec(3.5, 0.175)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", str(p), "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"reciprocity", "unitarity", "mixed_reciprocity", "mie_parity"}
    mie = next(c for c in report["checks"] if c["name"] == "mie_parity")
    assert "skipped" not in mie and mie["value"] <= 1e-2


def _overlapping_defects_path(tmp_path):
    doc = json.loads(json.dumps(TINY_DOC))
    second = {**doc["defects"][0], "shape": {"type": "circle", "center": [0.3, 0.0], "radius": 0.4}}
    doc["defects"].append(second)
    p = tmp_path / "overlap.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("config, flags, message", [
    # the defect's wavelength, not the host's (lambda_min/10 = 0.2565), sets the limit
    ("example3_aniso_defects", ["--grid-h", "0.2"], "h 0.2 exceeds lambda_min/10 = 0.140286"),
    (None, [], "union members overlap"),
])
def test_verify_rejects_an_invalid_scene(tmp_path, capsys, config, flags, message):
    # verify solves the background alone, but checks the whole scene first
    config = config or _overlapping_defects_path(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", config, "--out", str(out), *flags]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid" and message in err["message"]
    assert not (out / "report.json").exists()


def test_verify_skips_mie_for_an_ellipse_host(tmp_path):
    # a centred, defect-free host with unequal semi-axes has no Mie series
    doc = {
        "schema": "run/1", "k": 1.0,
        "host": {
            "shape": {"type": "ellipse", "center": [0.0, 0.0], "semi_a": 1.0, "semi_b": 0.8},
            "A": {"a11": 0.9, "a12": 0.0, "a22": 0.9},
            "n": 1.1,
        },
        "grid": {"half_extent": 3.5, "h": 0.175},
        "directions": 16,
    }
    p = tmp_path / "ellipse.json"
    p.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", str(p), "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    mie = next(c for c in report["checks"] if c["name"] == "mie_parity")
    assert mie == {"name": "mie_parity", "skipped": True, "passed": True}


def test_verify_skips_mie_for_noncircular_host(tiny_config_path, tmp_path):
    # tiny scene has a defect, so the disc oracle does not apply
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", tiny_config_path, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    mie = next(c for c in report["checks"] if c["name"] == "mie_parity")
    assert mie.get("skipped")


def test_verify_reports_a_failed_unitarity_check_and_exits_1(
    tiny_config_path, tmp_path, monkeypatch,
):
    # reconstruct would refuse this background; verify writes its report first
    real = farfield.scattering_operator
    monkeypatch.setattr(farfield, "scattering_operator", lambda fb: (real(fb)[0], 0.06))
    assert cli.main(["verify", "--config", tiny_config_path, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["name"] == "unitarity"]
    assert report["passed"] is False and check["passed"] is False
    assert check["value"] == 0.06 and check["limit"] == farfield.UNITARITY_LIMIT


@pytest.mark.parametrize("name", [
    "example1_circle", "example1_ellipse", "example1_square", "example1_twodiscs",
    "example3_aniso_defects",
])
def test_verify_passes_on_preset(name, tmp_path):
    # every preset but example2_aniso_host (strict xfail below) passes its own checks
    assert cli.main(["verify", "--config", name, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["passed"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="reciprocity 1.0087e-3 exceeds its 1e-3 limit (ROADMAP item 5)")
def test_verify_passes_on_example2_aniso_host(tmp_path):
    # a bundled preset that fails its own check; once the forward model is
    # fixed this passes, strict xfail reports that as a failure, and the
    # marker comes off
    code = cli.main(["verify", "--config", "example2_aniso_host", "--out", str(tmp_path)])
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == []
    assert code == 0
