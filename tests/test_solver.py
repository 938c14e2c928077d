import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline, make_interp_spline
from scipy.sparse.linalg import splu, spsolve
from scipy.special import hankel1, jv

from defectscan import cli, farfield, media, solver
from defectscan.errors import ConfigInvalid, SingularSystem

K = 1.0
ANGLES64 = 2 * np.pi * np.arange(64) / 64


def _disc_scene(a=0.9, n=1.1, radius=1.0):
    host = media.HostRegion(media.Ellipse((0, 0), radius, radius), media.SymTensor2(a, 0.0, a), n)
    return media.MediaConfig(host, (), K)


def _residual(system, values, b_interior):
    """Relative residual ||A x - b|| / ||b|| of the interior unknowns of a
    stack of grid fields, over every field of the stack."""
    ni = system.n_interior
    x = values[..., 1:-1, 1:-1].reshape(-1, ni * ni).T
    b = np.reshape(b_interior, (-1, ni * ni)).T
    return float(np.linalg.norm(system.op @ x - b) / np.linalg.norm(b))


def _grid_for(cfg, L, ppw):
    h_t = cfg.min_wavelength() / ppw
    cells = math.ceil(2 * L / h_t)
    if cells % 2:
        cells += 1
    return solver.GridSpec(L, 2 * L / cells)


# ---------------------------------------------------------------------------
# grid plumbing


def test_gridspec_invariants():
    with pytest.raises(ConfigInvalid):
        solver.GridSpec(4.0, 0.1, 7)  # too few PML cells
    assert solver.GridSpec(4.0, 0.1).pml_cells == 8  # the default is the minimum
    with pytest.raises(ConfigInvalid):
        solver.GridSpec(4.0, 0.3, 16)  # 2L/h not integer
    with pytest.raises(ConfigInvalid):
        solver.GridSpec(4.0, -0.1, 16)
    g = solver.GridSpec(4.0, 0.25, 16)
    assert g.interior_cells == 32
    assert g.n_nodes == 32 + 32 + 1
    c = g.coords()
    assert c[0] == pytest.approx(-8.0) and c[-1] == pytest.approx(8.0)
    assert g.resolved_strength(2.0) == pytest.approx(30.0 / (2.0 * 4.0))


def test_gridspec_validate_for():
    cfg = _disc_scene()
    with pytest.raises(ConfigInvalid):
        solver.GridSpec(1.2, 0.1, 16).validate_for(cfg)  # extent < 1.5 x radius
    with pytest.raises(ConfigInvalid):
        solver.GridSpec(3.0, 0.75, 16).validate_for(cfg)  # h > lambda/10
    solver.GridSpec(3.0, 0.25, 16).validate_for(cfg)


# ---------------------------------------------------------------------------
# stencil structure


def _center_row(system, spec):
    ni = system.n_interior
    mid = ni // 2
    row = system.op.getrow(mid * ni + mid).toarray().ravel()
    nine = {}
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            nine[(dj, di)] = row[(mid + dj) * ni + (mid + di)]
    assert np.count_nonzero(row) <= 9
    return nine


def test_homogeneous_stencil_is_five_point():
    host = media.HostRegion(media.Ellipse((0, 0), 1.0, 1.0), media.SymTensor2(1.0, 0.0, 1.0), 1.0)
    cfg = media.MediaConfig(host, (), K)
    spec = solver.GridSpec(2.0, 0.25, 8)
    system = solver.assemble_system(spec, cfg)
    nine = _center_row(system, spec)
    inv_h2 = 1.0 / spec.h**2
    # grid center sits in free space (outside the unit host circle? no - inside).
    # center of grid = origin, inside the host, but host material is identity:
    # either way coefficients are (I, 1).
    assert nine[(0, 0)] == pytest.approx(-4 * inv_h2 + K * K, abs=1e-14)
    for off in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert nine[off] == pytest.approx(inv_h2, abs=1e-14)
    for off in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        assert nine[off] == pytest.approx(0.0, abs=1e-16)
    # the zero corners are not stored, so the LU sees a 5-point pattern
    ni = system.n_interior
    assert system.op.getrow(ni // 2 * ni + ni // 2).nnz == 5


def test_isotropic_operator_stores_five_entries_per_node():
    # example1_circle at the benchmark's fine grid (137^2 nodes): a12 = 0
    # everywhere, so each interior node stores itself and its 4 in-grid
    # face neighbours, 5 ni^2 - 4 ni entries in all
    cfg = cli.load_run_config("example1_circle")
    spec = dataclasses.replace(cfg.grid, h=0.075)
    for medium in (cfg.media, cfg.media.background()):
        system = solver.assemble_system(spec, medium)
        ni = system.n_interior
        assert ni == 135
        assert system.op.nnz == 5 * ni * ni - 4 * ni == 90_585
        assert system.fill <= 800_000  # 1,266,978 with the 9-point pattern stored


def test_mixed_terms_stored_only_where_a12_is_nonzero():
    # example3_aniso_defects: the anisotropic host has a12 != 0, the collar
    # a12 = 0.  A cross entry couples the two diagonal corners of one cell,
    # and is stored exactly when that cell's a12 is nonzero
    cfg = cli.load_run_config("example3_aniso_defects")
    system = solver.assemble_system(cfg.grid, cfg.media)
    ni = system.n_interior
    op = system.op.tocoo()
    (jr, ir), (jc, ic) = divmod(op.row, ni), divmod(op.col, ni)
    cross = (jr != jc) & (ir != ic)
    stored = np.zeros((ni - 1, ni - 1), dtype=int)  # cells between interior nodes
    np.add.at(stored, (np.minimum(jr, jc)[cross], np.minimum(ir, ic)[cross]), 1)
    nonzero = system._cc[1:ni, 1:ni] != 0
    assert 0 < nonzero.sum() < nonzero.size
    # both diagonals of the cell, each stored at (r, c) and (c, r)
    assert np.array_equal(stored, 4 * nonzero)


def test_scaled_isotropic_stencil():
    # A = 0.5 I, n = 3 deep inside the host: 0.5 x Laplacian + 3 k^2
    host = media.HostRegion(media.Rectangle(-2, 2, -2, 2), media.SymTensor2(0.5, 0.0, 0.5), 3.0)
    cfg = media.MediaConfig(host, (), K)
    spec = solver.GridSpec(2.5, 0.25, 8)
    # the host outgrows the grid (off-contract), so the system skips validation
    system = solver.FactorizedSystem(spec, cfg)
    nine = _center_row(system, spec)
    inv_h2 = 1.0 / spec.h**2
    assert nine[(0, 0)] == pytest.approx(0.5 * (-4 * inv_h2) + 3 * K * K, abs=1e-12)
    for off in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert nine[off] == pytest.approx(0.5 * inv_h2, abs=1e-12)


def test_interior_stencil_symmetric(tiny_cfg, tiny_grid):
    system = solver.assemble_system(tiny_grid, tiny_cfg)
    ni = system.n_interior
    # restrict to rows/cols of nodes strictly inside the physical box where
    # the PML stretch is 1; there the operator must be exactly symmetric
    c = tiny_grid.coords()[1:-1]
    inside = np.where(np.abs(c) < tiny_grid.half_extent - 1e-12)[0]
    idx = (inside[:, None] * ni + inside[None, :]).ravel()
    sub = system.op[np.ix_(idx, idx)].toarray()
    assert np.allclose(sub, sub.T, atol=1e-12)


def test_whole_operator_is_complex_symmetric():
    # the premise of SuperLU's symmetric mode: the whole operator, PML collar
    # included, equals its transpose exactly on an anisotropic scene, with and
    # without an absorbing defect
    scene = cli.load_run_config("example3_aniso_defects").media
    (defect,) = scene.defects
    a0 = defect.A0
    lossy = dataclasses.replace(
        defect, A0=media.SymTensor2(a0.a11, a0.a12, a0.a22, -0.02, 0.005, -0.03),
        n0=complex(defect.n0).real + 0.4j,
    )
    spec = solver.GridSpec(4.5, 0.125, 8)
    for cfg in (scene, dataclasses.replace(scene, defects=(lossy,))):
        for medium in (cfg, cfg.background()):
            op = solver.assemble_system(spec, medium).op
            assert abs(op.imag).max() > 0  # complex: the collar stretches it
            assert abs(op - op.T).max() == 0.0


def test_symmetric_mode_fill_and_solution(tiny_cfg, tiny_grid, rng):
    # minimum degree on A + A^T stores less of L + U than scipy's default
    # COLAMD ordering (38,530 against 70,560 entries here) and solves the same
    system = solver.assemble_system(tiny_grid, tiny_cfg)
    assert system.fill < splu(system.op).nnz
    ni = system.n_interior
    b = rng.standard_normal((ni, ni)) + 1j * rng.standard_normal((ni, ni))
    got = system.solve_grid(b)[1:-1, 1:-1].ravel()
    want = spsolve(system.op, b.ravel())
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _nine_point_pattern(op, ni):
    """The operator with all 9 stencil entries of every node stored, zero
    where a12 = 0: the pattern factorized before the zeros were dropped."""
    jj, ii = np.divmod(np.arange(ni * ni), ni)
    rows, cols = [], []
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            ok = (0 <= jj + dj) & (jj + dj < ni) & (0 <= ii + di) & (ii + di < ni)
            rows.append(np.flatnonzero(ok))
            cols.append(((jj + dj) * ni + ii + di)[ok])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.asarray(op.tocsr()[rows, cols]).ravel()
    return sp.csc_matrix((vals, (rows, cols)), shape=op.shape)


@pytest.mark.parametrize("name", ["example1_circle", "example3_aniso_defects"])
def test_stored_zeros_change_only_the_fill(name, rng):
    # the 9-point pattern with explicit zeros is the same matrix: SuperLU
    # solves it alike to rounding, but orders and fills the zeros as well
    cfg = cli.load_run_config(name)
    system = solver.assemble_system(cfg.grid, cfg.media)
    ni = system.n_interior
    nine = _nine_point_pattern(system.op, ni)
    assert nine.nnz > system.op.nnz
    assert abs(nine - system.op).max() == 0.0
    lu = splu(nine, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
              options=dict(SymmetricMode=True))
    assert lu.nnz > system.fill
    b = rng.standard_normal((4, ni, ni)) + 1j * rng.standard_normal((4, ni, ni))
    got = system.solve_grid(b)[:, 1:-1, 1:-1].reshape(4, -1)
    want = lu.solve(b.reshape(4, -1).T).T
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_factorization_probe_residual(tiny_cfg, tiny_grid):
    system = solver.assemble_system(tiny_grid, tiny_cfg.background())
    assert system.probe_residual <= 1e-10


def test_singular_operator_raises(homogeneous_system):
    system, _ = homogeneous_system
    n = system.op.shape[0]
    broken = solver.FactorizedSystem.__new__(solver.FactorizedSystem)
    broken.op = sp.csc_matrix((n, n), dtype=complex)  # exactly singular
    with pytest.raises(SingularSystem):
        broken._factorize()
    tiny = np.ones(n, dtype=complex)
    tiny[n // 2] = 1e-20  # factorizes, but one pivot is negligible
    broken.op = sp.diags(tiny, format="csc")
    with pytest.raises(SingularSystem):
        broken._factorize()


def test_badly_scaled_node_raises(ex1_cfg):
    # D A D, D scaling one node by s: cond >= s^-2 cond(A) > 1 / PIVOT_TOL.  At
    # the first node (a collar corner) and s = 1e-7 the smallest |diag(U)| is
    # above 1e-14 ||A|| and the probe residual is 5e-12; only the condition
    # bound rejects it
    system = solver.assemble_system(ex1_cfg.grid, ex1_cfg.media.background())
    n = system.op.shape[0]
    broken = solver.FactorizedSystem.__new__(solver.FactorizedSystem)
    for node in (0, n // 2):
        for s in (1e-7, 1e-10):
            d = np.ones(n)
            d[node] = s
            broken.op = (sp.diags(d) @ system.op @ sp.diags(d)).tocsc()
            with pytest.raises(SingularSystem, match="condition number"):
                broken._factorize()


# ---------------------------------------------------------------------------
# coefficient sampling


def _full_lattice_average(config, xs, ys, h, ns=16):
    """Reference: every patch subsampled at ns x ns points, x offsets summed
    first, then y offsets in sequence; one array per coefficient_table column."""
    offs = h * ((np.arange(ns) + 0.5) / ns - 0.5)
    xs_e = (xs[:, None] + offs[None, :]).ravel()
    table = media.coefficient_table(config)
    acc = [0.0] * 4
    for dy in offs:
        region = media.sample_grid(config, xs_e, ys + dy).reshape(len(ys), len(xs), ns)
        acc = [a + table[region, column].sum(axis=2) for column, a in enumerate(acc)]
    return [a / (ns * ns) for a in acc]


def _families(c, h):
    """(xs, ys) of the x-face, y-face, cell-centre and node patch families."""
    cf = c[:-1] + h / 2
    return ((cf, c), (c, cf), (cf, cf), (c, c))


def _uniform_scene():
    # the host covers the whole grid, so no patch straddles an interface
    host = media.HostRegion(media.Rectangle(-20, 20, -20, 20), media.SymTensor2(0.5, 0.1, 0.5), 3.0)
    return media.MediaConfig(host, (), K), solver.GridSpec(2.0, 0.1, 12)


@pytest.mark.parametrize("name", cli.bundled_config_names() + ["uniform"])
def test_narrow_band_matches_full_lattice(name):
    if name == "uniform":
        config, spec = _uniform_scene()
    else:
        cfg = cli.load_run_config(name)
        config, spec = cfg.media, cfg.grid
    for medium in (config, config.background()):
        for xs, ys in _families(spec.coords(), spec.h):
            want = _full_lattice_average(medium, xs, ys, spec.h)
            for column, w in enumerate(want):
                got = solver._subcell_average(medium, xs, ys, spec.h, column)
                assert np.max(np.abs(got - w)) <= 1e-15


coords = st.floats(-1.0, 1.0)
sizes = st.floats(0.01, 1.2)  # down to a tenth of the smallest cell
simple_shapes = st.one_of(
    st.builds(lambda c, r: media.Ellipse(c, r, r), st.tuples(coords, coords), sizes),
    st.builds(media.Ellipse, st.tuples(coords, coords), sizes, sizes),
    st.builds(lambda x, y, w, t: media.Rectangle(x, x + w, y, y + t), coords, coords, sizes, sizes),
)
shapes = st.one_of(
    simple_shapes,
    st.lists(simple_shapes, min_size=2, max_size=3).map(lambda m: media.Union(tuple(m))),
)
entries = st.floats(0.2, 3.0)
tensors = st.builds(media.SymTensor2, entries, st.floats(-0.5, 0.5), entries)


@settings(max_examples=40, deadline=None)
@given(
    host=shapes, host_a=tensors,
    defects=st.lists(st.tuples(shapes, tensors, entries), max_size=2),
    h=st.sampled_from([0.1, 0.2, 0.35]), seed=st.integers(0, 2**32 - 1),
)
def test_narrow_band_property(host, host_a, defects, h, seed):
    rng = np.random.default_rng(seed)
    # boundary_distance is a lower bound: no point closer than it to p lies
    # on the other side of the boundary
    for shape in [host] + [d[0] for d in defects]:
        bp = shape.boundary_points(64)
        near = bp + rng.normal(0.0, 0.05, bp.shape)
        p = np.vstack((rng.uniform(-2.5, 2.5, (200, 2)), near))
        r = shape.boundary_distance(p) * rng.uniform(0.0, 0.999, len(p))
        t = rng.uniform(0.0, 2 * np.pi, len(p))
        q = p + r[:, None] * np.column_stack((np.cos(t), np.sin(t)))
        assert np.array_equal(shape.contains(q), shape.contains(p))

    config = media.MediaConfig(
        media.HostRegion(host, host_a, 2.0),
        tuple(media.Defect(s, a, complex(n, 0.1)) for s, a, n in defects), K,
    )
    c = np.arange(-1.5, 1.5 + h / 2, h)
    for medium in (config, config.background()):
        for xs, ys in _families(c, h):
            want = _full_lattice_average(medium, xs, ys, h)
            for column, w in enumerate(want):
                got = solver._subcell_average(medium, xs, ys, h, column)
                # band patches repeat the reference's arithmetic; a uniform
                # patch's reference sum of 256 equal terms rounds up to ~8 ulp
                np.testing.assert_allclose(got, w, rtol=16 * np.finfo(float).eps, atol=0)


# the symmetry group of each preset's scene and background, as (k, s): k
# quarter turns after, if s, the diagonal mirror.  The example1 hosts are
# isotropic, the example2/3 hosts anisotropic (a12 != 0, a11 != a22)
ALL_EIGHT = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1))
HALF_TURN = ((0, 0), (2, 0))
SYMMETRY_GROUPS = {
    ("example1_circle", "scene"): ALL_EIGHT,
    ("example1_ellipse", "scene"): ((0, 0),),
    ("example1_square", "scene"): ALL_EIGHT,
    # the discs lie on the anti-diagonal: a half turn or either diagonal
    # mirror swaps them
    ("example1_twodiscs", "scene"): ((0, 0), (2, 0), (0, 1), (2, 1)),
    ("example2_aniso_host", "scene"): HALF_TURN,
    ("example3_aniso_defects", "scene"): ((0, 0),),
    **{(name, "background"): ALL_EIGHT for name in (
        "example1_circle", "example1_ellipse", "example1_square", "example1_twodiscs")},
    ("example2_aniso_host", "background"): HALF_TURN,
    ("example3_aniso_defects", "background"): HALF_TURN,
}


@pytest.mark.parametrize("name, medium", sorted(SYMMETRY_GROUPS))
def test_turn_order_of_presets(name, medium):
    # the group, and in it the turns: 4 for the example1 backgrounds
    cfg = cli.load_run_config(name)
    config = cfg.media.background() if medium == "background" else cfg.media
    group = solver.symmetry_group(solver.assemble_system(cfg.grid, config))
    assert group == SYMMETRY_GROUPS[name, medium]
    assert sum(s == 0 for _, s in group) in (1, 2, 4)


def test_turn_order_of_a_host_off_the_origin():
    # an h / 3 shift along x moves a host edge off the node lattice's mirror
    # image: no turn, and of the mirrors only y -> -y, three quarter turns
    # after the diagonal one
    cfg = cli.load_run_config("example1_circle")
    h = cfg.grid.h
    host = dataclasses.replace(cfg.media.host, shape=media.Rectangle(-2 + h / 3, 2 + h / 3, -2, 2))
    system = solver.assemble_system(cfg.grid, dataclasses.replace(cfg.media, host=host, defects=()))
    assert solver.symmetry_group(system) == ((0, 0), (3, 1))


def test_moved_planes_are_the_fields_at_the_moved_points(rng):
    # move_planes(g, u) at g x equals u at x, on the node grid's indices
    c = solver.GridSpec(1.5, 0.125).coords()
    u = rng.standard_normal((len(c), len(c)))
    iy, ix = np.indices(u.shape)
    x, y = c[ix], c[iy]
    for k, s in ALL_EIGHT:
        px, py = (y, x) if s else (x, y)
        for _ in range(k):
            px, py = -py, px  # a quarter turn, counterclockwise
        jx, jy = (np.rint((p - c[0]) / 0.125).astype(int) for p in (px, py))
        np.testing.assert_array_equal(solver.move_planes((k, s), u)[jy, jx], u)


# ---------------------------------------------------------------------------
# plane-wave solves


def test_zero_contrast_scatters_nothing(homogeneous_system):
    system, _ = homogeneous_system
    f = solver.solve_plane_wave(system, (1.0, 0.0))
    assert np.max(np.abs(f)) <= 1e-12


def test_non_unit_direction_rejected(homogeneous_system):
    system, _ = homogeneous_system
    with pytest.raises(ConfigInvalid):
        solver.solve_plane_wave(system, (1.0, 1.0))


def test_pde_residual(tiny_cfg, tiny_grid):
    system = solver.assemble_system(tiny_grid, tiny_cfg)
    d = (math.cos(0.7), math.sin(0.7))
    f = solver.solve_plane_wave(system, d)
    rhs = solver.plane_wave_rhs(system, d)
    assert _residual(system, f, rhs) <= 1e-9


def test_mie_parity_at_coarse_grid():
    cfg = _disc_scene()
    spec = _grid_for(cfg, 3.5, 15)
    system = solver.assemble_system(spec, cfg)
    f = solver.solve_plane_wave(system, (1.0, 0.0))
    ff = solver.far_field(spec, f, K, 2.0, ANGLES64)
    exact = solver.mie_far_field(0.9, 1.1, 1.0, K, 0.0, ANGLES64)
    err = np.linalg.norm(ff - exact) / np.linalg.norm(exact)
    assert err <= 1e-2


def test_pml_collar_of_8_cells_matches_16():
    # the presets' contrast on a disc of radius 2, 32 x 32 far-field matrix:
    # halving the collar moves the error against the Mie series by < 1%
    host = media.HostRegion(media.Ellipse((0, 0), 2.0, 2.0), media.SymTensor2(0.5, 0.0, 0.5), 3.0)
    cfg = media.MediaConfig(host, (), K)
    angles = farfield.direction_angles(32)
    exact = np.column_stack([solver.mie_far_field(0.5, 3.0, 2.0, K, a, angles) for a in angles])
    errs = []
    for cells in (16, 8):
        system = solver.assemble_system(solver.GridSpec(4.5, 0.15, cells), cfg)
        f, _ = farfield.assemble_far_field_matrix(system, 32)
        errs.append(np.linalg.norm(f.entries - exact) / np.linalg.norm(exact))
    assert abs(errs[1] - errs[0]) <= 1e-2 * errs[0]
    assert errs[1] <= 2.5e-2


def test_grid_convergence_factor():
    cfg = _disc_scene()
    exact = solver.mie_far_field(0.9, 1.1, 1.0, K, 0.0, ANGLES64)
    errs = []
    for ppw in (15, 30):
        spec = _grid_for(cfg, 3.5, ppw)
        system = solver.assemble_system(spec, cfg)
        f = solver.solve_plane_wave(system, (1.0, 0.0))
        ff = solver.far_field(spec, f, K, 2.0, ANGLES64)
        errs.append(np.linalg.norm(ff - exact) / np.linalg.norm(exact))
    assert errs[0] / errs[1] >= 3.0


def test_plane_wave_rhs_matches_direct_stencil():
    # anisotropic host (a12 != 0) and a lossy defect exercise every plane
    host = media.HostRegion(media.Ellipse((0, 0), 1.0, 1.0), media.SymTensor2(0.6, 0.15, 0.5), 2.0)
    defect = media.Defect(
        media.Ellipse((0.2, 0), 0.4, 0.4), media.SymTensor2(1.0, 0.0, 1.0), 1.0 + 0.2j
    )
    cfg = media.MediaConfig(host, (defect,), K)
    system = solver.assemble_system(solver.GridSpec(2.0, 0.125, 8), cfg)
    c, h = system.spec.coords(), system.spec.h
    xf = c[:-1] + h / 2
    for th in (0.0, 0.7, 2.5):
        dx, dy = math.cos(th), math.sin(th)

        def wave(xs, ys):
            return np.exp(1j * K * (dx * xs[None, :] + dy * ys[:, None]))

        u = wave(c, c)
        fx = (system._face_x - 1.0) * 1j * K * dx * wave(xf, c)
        fy = (system._face_y - 1.0) * 1j * K * dy * wave(c, xf)
        div = (fx[1:-1, 1:] - fx[1:-1, :-1]) / h + (fy[1:, 1:-1] - fy[:-1, 1:-1]) / h
        cc, u0 = system._cc, u[1:-1, 1:-1]
        cross = (
            cc[1:, 1:] * (u[2:, 2:] - u0) + cc[:-1, :-1] * (u[:-2, :-2] - u0)
            - cc[:-1, 1:] * (u[:-2, 2:] - u0) - cc[1:, :-1] * (u[2:, :-2] - u0)
        ) / (2 * h * h)
        mass = K * K * (system._n[1:-1, 1:-1] - 1.0) * u0
        want = -(div + cross + mass)
        got = solver.plane_wave_rhs(system, (dx, dy))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_batched_solve_matches_single_directions(tiny_cfg):
    # a single direction is a batch of one through the same path; more
    # directions than two blocks cross every block edge
    spec = solver.GridSpec(2.0, 0.125, 8)
    system = solver.assemble_system(spec, tiny_cfg)
    m = 2 * solver.BLOCK + 3
    ang = 0.3 + 2 * np.pi * np.arange(m) / m
    dirs = np.column_stack((np.cos(ang), np.sin(ang)))
    batch = solver.solve_plane_wave(system, dirs)
    ff = solver.far_field(spec, batch, K, 1.25, ANGLES64)
    assert batch.shape == (m, spec.n_nodes, spec.n_nodes)
    assert ff.shape == (m, 64)
    assert _residual(system, batch, solver.plane_wave_rhs(system, dirs)) <= 1e-9
    for j, d in enumerate(dirs):
        one = solver.solve_plane_wave(system, d)
        scale = np.abs(one).max()
        assert np.abs(batch[j] - one).max() <= 1e-12 * scale
        single = solver.far_field(spec, one, K, 1.25, ANGLES64)
        assert np.abs(ff[j] - single).max() <= 1e-12 * np.abs(single).max()


# ---------------------------------------------------------------------------
# spline sampler


def test_grid_sampler_matches_per_field_splines(tiny_grid, rng):
    spec = tiny_grid
    c = spec.coords()
    nn, m = spec.n_nodes, 2 * solver.BLOCK + 3  # fields in three blocks
    fields = rng.standard_normal((m, nn, nn)) + 1j * rng.standard_normal((m, nn, nn))
    x = rng.uniform(c[0], c[-1], 50)
    y = rng.uniform(c[0], c[-1], 50)
    u, gx, gy = solver.sample_fields(spec, fields, x, y, gradient=True)
    (only,) = solver.sample_fields(spec, fields, x, y)
    assert np.array_equal(only, u)

    def reference(z):
        re = RectBivariateSpline(c, c, z.real).ev(y, x)
        return re + 1j * RectBivariateSpline(c, c, z.imag).ev(y, x)

    for f, z in enumerate(fields):
        for got, plane in (
            (u[f], z),
            (gx[f], np.gradient(z, spec.h, axis=1)),
            (gy[f], np.gradient(z, spec.h, axis=0)),
        ):
            want = reference(plane)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(plane).max()


def _full_fit_sampler(spec, values, x, y, gradient):
    # sample_fields as it was before it fitted only the sampled span: every
    # coefficient fitted, the design matrix applied to complex coefficients
    c = spec.coords()
    n, nc, p = len(c), len(c) + 2, len(x)
    zr = values.reshape(-1, n, n).view(float)
    fit = solver._spline_fit(n)
    ix, wx = solver._spline_rows(c, spec.h, x)
    iy, wy = solver._spline_rows(c, spec.h, y)
    cols = ix.reshape(p, 4, 1) * nc + iy.reshape(p, 1, 4)
    data = wx.reshape(p, 4, 1) * wy.reshape(p, 1, 4)
    rows = sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, 16 * p + 1, 16)), shape=(p, nc * nc)
    )

    def along_y(m, z):
        return (m @ z).view(complex).transpose(2, 1, 0).copy().reshape(n, -1)

    def evaluate(m, w):
        coef = (m @ w.view(float)).view(complex).reshape(nc * nc, -1)
        assert coef.dtype == complex
        return (rows @ coef).T

    dfit = fit @ np.gradient(np.eye(n), spec.h, axis=0)
    out = [np.empty((len(zr), p), dtype=complex) for _ in range(3 if gradient else 1)]
    for i in range(0, len(zr), solver.BLOCK):
        z, block = zr[i:i + solver.BLOCK], slice(i, i + solver.BLOCK)
        w = along_y(fit, z)
        out[0][block] = evaluate(fit, w)
        if gradient:
            out[1][block] = evaluate(dfit, w)
            out[2][block] = evaluate(fit, along_y(dfit, z))
    return out


@pytest.mark.parametrize("gradient", [False, True])
def test_sampler_real_evaluation_equals_complex_bit_for_bit(tiny_grid, rng, gradient):
    # the design matrix acts on (re, im) pairs of the coefficients; a real
    # weight times a complex coefficient rounds each part the same way
    spec = tiny_grid
    c, nn, m = spec.coords(), spec.n_nodes, 2 * solver.BLOCK + 3
    fields = rng.standard_normal((m, nn, nn)) + 1j * rng.standard_normal((m, nn, nn))
    x = np.concatenate([c[[0, -1]], rng.uniform(c[0], c[-1], 60)])
    y = np.concatenate([c[[-1, 0]], rng.uniform(c[0], c[-1], 60)])
    got = solver.sample_fields(spec, fields, x, y, gradient=gradient)
    want = _full_fit_sampler(spec, fields, x, y, gradient)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


# example1's preset grid, 77^2 nodes; sample points that reach only part of it
SPAN_GRID = solver.GridSpec(4.5, 0.15)
_C, _H = SPAN_GRID.coords(), SPAN_GRID.h
_PHI = 2 * np.pi * np.arange(solver.M_QUAD) / solver.M_QUAD
_WINDOW = np.meshgrid(np.linspace(-2.0, 2.0, 81), np.linspace(-2.0, 2.0, 81))
SPAN_POINTS = {
    "far-field circle": (3.3 * np.cos(_PHI), 3.3 * np.sin(_PHI)),
    "81^2 lattice window": (_WINDOW[0].ravel(), _WINDOW[1].ravel()),
    "one point": ([0.3], [-0.7]),
    # spans that reach coefficient 0 and coefficient n + 1
    "first spans": (_C[0] + _H * np.array([0, 0.5, 1.5]), _C[0] + _H * np.array([0.25, 0, 1])),
    "last spans": (_C[-1] - _H * np.array([0, 0.5, 1.5]), _C[-1] - _H * np.array([0.25, 0, 1])),
    "first and last spans": ([_C[0], _C[-1]], [_C[-1] - 0.5 * _H, _C[0] + 0.5 * _H]),
}


@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("case", sorted(SPAN_POINTS))
def test_span_fit_samples_equal_the_full_fit_bit_for_bit(rng, case, gradient):
    nn, m = SPAN_GRID.n_nodes, 2 * solver.BLOCK + 3  # fields in three blocks
    fields = rng.standard_normal((m, nn, nn)) + 1j * rng.standard_normal((m, nn, nn))
    x, y = (np.asarray(v, dtype=float) for v in SPAN_POINTS[case])
    got = solver.sample_fields(SPAN_GRID, fields, x, y, gradient=gradient)
    want = _full_fit_sampler(SPAN_GRID, fields, x, y, gradient)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_sampler_with_no_points_returns_empty_arrays(tiny_grid, rng):
    nn = tiny_grid.n_nodes
    fields = rng.standard_normal((2, 3, nn, nn)) + 0j
    for gradient in (False, True):
        got = solver.sample_fields(tiny_grid, fields, [], [], gradient=gradient)
        assert len(got) == (3 if gradient else 1)
        for g in got:
            assert g.shape == (2, 3, 0) and g.dtype == complex


def test_spline_fit_is_shared_and_read_only():
    fit = solver._spline_fit(17)
    assert solver._spline_fit(17) is fit
    with pytest.raises(ValueError, match="read-only"):
        fit[0, 0] = 1.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(17, 80),
    h=st.floats(0.01, 2.0),
    c0=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_numpy_spline_matches_make_interp_spline(n, h, c0, seed):
    # the 1-D pieces of sample_fields against scipy's not-a-knot cubic, for the
    # values and for the spline through np.gradient (the far field's derivative)
    rng = np.random.default_rng(seed)
    c = c0 + h * np.arange(n)
    data = rng.standard_normal(n)
    x = np.concatenate([c, [c[0], c[-1]], rng.uniform(c[0], c[-1], 64)])
    idx, w = solver._spline_rows(c, h, x)
    fit = solver._spline_fit(n)
    for coef, plane in (
        (fit @ data, data),
        (fit @ np.gradient(np.eye(n), h, axis=0) @ data, np.gradient(data, h)),
    ):
        got = (w * coef[idx]).sum(axis=1)
        want = make_interp_spline(c, plane, k=3)(x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(plane).max()


def test_sampler_domain_is_the_node_grid(tiny_grid, rng):
    spec = tiny_grid
    c, nn = spec.coords(), spec.n_nodes
    field = rng.standard_normal((nn, nn)) + 1j * rng.standard_normal((nn, nn))
    (corner,) = solver.sample_fields(spec, field, [c[-1], c[0]], [c[-1], c[0]])
    assert np.allclose(corner, [field[-1, -1], field[0, 0]], rtol=1e-13, atol=0)
    for x, y in ((c[-1] + 1e-9, 0.0), (0.0, c[-1] + 1e-9), (c[0] - 1e-9, 0.0), (np.nan, 0.0)):
        with pytest.raises(ConfigInvalid, match="sample points"):
            solver.sample_fields(spec, field, x, y)


# ---------------------------------------------------------------------------
# point sources


def test_point_source_free_space(homogeneous_system):
    system, _ = homogeneous_system
    z = (0.3, -0.2)
    g = solver.solve_point_source(system, z)
    c = system.spec.coords()
    xx, yy = np.meshgrid(c, c)
    r = np.hypot(xx - z[0], yy - z[1])
    exact = 0.25j * hankel1(0, K * np.maximum(r, 1e-9))
    m = (r > 1.0) & (np.abs(xx) < 2.5) & (np.abs(yy) < 2.5)
    err = np.linalg.norm(g[m] - exact[m]) / np.linalg.norm(exact[m])
    assert err <= 3e-2


def test_point_source_linearity(homogeneous_system):
    system, _ = homogeneous_system
    g = solver.solve_point_source(system, (0.0, 0.0))
    ni = system.n_interior
    b = np.zeros((ni, ni), dtype=complex)
    mid = (system.spec.n_nodes - 1) // 2
    b[mid - 1, mid - 1] = -2.0 / system.spec.h**2
    g2 = system.solve_grid(b)
    assert np.allclose(g2, 2 * g, rtol=0, atol=1e-12 * np.abs(g).max())


def test_point_source_rejects_pml(homogeneous_system):
    system, _ = homogeneous_system
    with pytest.raises(ConfigInvalid, match="source point"):
        solver.solve_point_source(system, (2.95, 0.0))


def test_point_source_scaled_fundamental_solution():
    # constant A = 0.5 I, n = 3 across the whole computational plane
    host = media.HostRegion(
        media.Rectangle(-20, 20, -20, 20), media.SymTensor2(0.5, 0.0, 0.5), 3.0
    )
    cfg = media.MediaConfig(host, (), K)
    spec = solver.GridSpec(2.0, 0.1, 12)
    # the host covers the PML (off-contract), so the system skips validation
    system = solver.FactorizedSystem(spec, cfg)
    g = solver.solve_point_source(system, (0.0, 0.0))
    c = spec.coords()
    xx, yy = np.meshgrid(c, c)
    r = np.hypot(xx, yy)
    # fundamental solution i/(4 sqrt(det A)) H0(k sqrt(n) |x|_A)
    exact = 0.5j * hankel1(0, np.sqrt(6.0) * np.maximum(r, 1e-9))
    m = (r > 0.5) & (np.abs(xx) < 1.8) & (np.abs(yy) < 1.8)
    err = np.linalg.norm(g[m] - exact[m]) / np.linalg.norm(exact[m])
    assert err <= 5e-2


# ---------------------------------------------------------------------------
# far-field extraction


def test_far_field_of_zero_field(homogeneous_system):
    system, _ = homogeneous_system
    zero = np.zeros_like(system._n)
    assert np.all(solver.far_field(system.spec, zero, K, 2.0, ANGLES64) == 0.0)


def test_far_field_circle_bounds(homogeneous_system):
    system, _ = homogeneous_system
    zero = np.zeros_like(system._n)
    with pytest.raises(ConfigInvalid, match="extraction radius"):
        solver.far_field(system.spec, zero, K, 2.5, ANGLES64)  # > L - 4h = 2


def test_point_source_far_field_is_constant(homogeneous_system):
    # far field of (i/4) H0(k|x|) is the constant gamma_2
    system, _ = homogeneous_system
    g = solver.solve_point_source(system, (0.0, 0.0))
    ff = solver.far_field(system.spec, g, K, 2.0, ANGLES64)
    exact = solver.gamma2(K) * np.ones(64)
    assert np.linalg.norm(ff - exact) / np.linalg.norm(exact) <= 2e-2


def test_far_field_quadrature_invariance(monkeypatch):
    cfg = _disc_scene()
    spec = solver.GridSpec(3.5, 0.175, 16)
    system = solver.assemble_system(spec, cfg)
    f = solver.solve_plane_wave(system, (1.0, 0.0))
    a = solver.far_field(spec, f, K, 2.0, ANGLES64)
    monkeypatch.setattr(solver, "M_QUAD", 512)
    b = solver.far_field(spec, f, K, 2.0, ANGLES64)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-6


def test_far_field_radius_invariance():
    cfg = _disc_scene()
    spec = solver.GridSpec(3.5, 0.0875, 16)
    system = solver.assemble_system(spec, cfg)
    f = solver.solve_plane_wave(system, (1.0, 0.0))
    a = solver.far_field(spec, f, K, 1.5, ANGLES64)
    b = solver.far_field(spec, f, K, 2.5, ANGLES64)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-3


# ---------------------------------------------------------------------------
# analytic disc series


def test_mie_no_contrast_is_zero():
    v = solver.mie_far_field(1.0, 1.0, 1.0, K, 0.0, ANGLES64)
    assert np.max(np.abs(v)) == 0.0


def test_mie_truncation_invariance():
    a = solver.mie_far_field(0.5, 3.0, 1.0, K, 0.3, ANGLES64, extra_modes=12)
    b = solver.mie_far_field(0.5, 3.0, 1.0, K, 0.3, ANGLES64, extra_modes=20)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_mie_parameter_validation():
    with pytest.raises(ConfigInvalid):
        solver.mie_far_field(-1.0, 1.0, 1.0, K, 0.0, ANGLES64)


def test_mie_born_approximation():
    # weak contrast: compare against 2D quadrature of the Born integral
    n = 1.01
    exact = solver.mie_far_field(1.0, n, 1.0, K, 0.0, ANGLES64)
    m = 400
    t = (np.arange(m) + 0.5) / m * 2 - 1  # midpoints on [-1, 1]
    xx, yy = np.meshgrid(t, t)
    inside = xx**2 + yy**2 < 1.0
    w = (2.0 / m) ** 2
    born = np.zeros(64, dtype=complex)
    d = np.array([1.0, 0.0])
    for i, th in enumerate(ANGLES64):
        q = d - np.array([np.cos(th), np.sin(th)])
        born[i] = np.sum(np.exp(1j * K * (q[0] * xx[inside] + q[1] * yy[inside]))) * w
    born *= solver.gamma2(K) * K * K * (n - 1.0)
    assert np.linalg.norm(exact - born) / np.linalg.norm(born) <= 5e-2
