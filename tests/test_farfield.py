import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline

from defectscan import farfield, media, solver
from defectscan.errors import ConfigInvalid, DimensionMismatch, SingularScattering

K = 1.0


def _zero_matrix(n=16):
    return farfield.FarFieldMatrix(K, np.zeros((n, n), dtype=complex))


def _mie_matrix(a, n_idx, n_dirs=32):
    ang = farfield.direction_angles(n_dirs)
    f = np.zeros((n_dirs, n_dirs), dtype=complex)
    for j, th in enumerate(ang):
        f[:, j] = solver.mie_far_field(a, n_idx, 1.0, K, th, ang)
    return farfield.FarFieldMatrix(K, f)


def test_matrix_shape_validation():
    with pytest.raises(ConfigInvalid):
        farfield.FarFieldMatrix(K, np.zeros((16, 8), dtype=complex))
    with pytest.raises(ConfigInvalid):
        farfield.FarFieldMatrix(K, np.zeros((15, 15), dtype=complex))
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ConfigInvalid):
        farfield.FarFieldMatrix(K, bad)


def test_zero_contrast_background_matrix(homogeneous_system):
    system, cfg = homogeneous_system
    f, fields = farfield.assemble_far_field_matrix(system, 16)
    assert np.max(np.abs(f.entries)) <= 1e-12
    # retained total fields are the incident plane waves
    d0 = solver.incident_plane_wave(system.spec, K, (1.0, 0.0))
    assert np.allclose(fields.data[0], d0, atol=1e-12)


def _reference_far_field(spec, u, k, r_ff, angles, m_quad=256):
    """Per-field far field: six separate bicubic splines of the field and its
    centered-difference gradient, sampled on the quadrature circle."""
    c = spec.coords()
    phi = 2 * np.pi * np.arange(m_quad) / m_quad
    cp, sp_ = np.cos(phi), np.sin(phi)
    yx, yy = r_ff * cp, r_ff * sp_

    def ev(z):
        re = RectBivariateSpline(c, c, z.real).ev(yy, yx)
        return re + 1j * RectBivariateSpline(c, c, z.imag).ev(yy, yx)

    val = ev(u)
    du = cp * ev(np.gradient(u, spec.h, axis=1)) + sp_ * ev(np.gradient(u, spec.h, axis=0))
    xx, xy = np.cos(angles), np.sin(angles)
    phase = np.exp(-1j * k * (np.outer(xx, yx) + np.outer(xy, yy)))
    cos_xn = np.outer(xx, cp) + np.outer(xy, sp_)
    integrand = (-1j * k * cos_xn * val[None, :] - du[None, :]) * phase
    return solver.gamma2(k) * integrand.sum(axis=1) * (2 * np.pi * r_ff / m_quad)


def test_far_field_matrix_matches_per_column_reference(tiny_cfg):
    n = 8
    spec = solver.GridSpec(2.0, 0.125, 8)
    system = solver.assemble_system(spec, tiny_cfg)
    f, fields = farfield.assemble_far_field_matrix(system, n)
    r_ff = farfield.extraction_radius(tiny_cfg, spec)
    ni, nn = system.n_interior, spec.n_nodes
    ref = np.zeros((n, n), dtype=complex)
    angles = farfield.direction_angles(n)
    for j, th in enumerate(angles):
        d = (np.cos(th), np.sin(th))
        x = scipy.sparse.linalg.spsolve(system.op, solver.plane_wave_rhs(system, d).ravel())
        u = np.zeros((nn, nn), dtype=complex)
        u[1:-1, 1:-1] = x.reshape(ni, ni)
        ref[:, j] = _reference_far_field(spec, u, tiny_cfg.k, r_ff, angles)
        total = u + solver.incident_plane_wave(spec, tiny_cfg.k, d)
        assert np.abs(fields.data[j] - total).max() <= 1e-12 * np.abs(total).max()
    assert np.abs(f.entries - ref).max() <= 1e-12 * np.abs(ref).max()


def _tiny_scene(host_a, centers, defect_a=media.SymTensor2(1.0, 0.0, 1.0)):
    host = media.HostRegion(media.Ellipse((0.0, 0.0), 1.0, 1.0), host_a, 2.0)
    defects = tuple(
        media.Defect(media.Ellipse(c, 0.25, 0.25), defect_a, 1.0 + 0.1j) for c in centers
    )
    return media.MediaConfig(host, defects, K)


# a quarter turn swaps a11 and a22 and flips the sign of a12; the diagonal
# mirror swaps them and keeps a12
ISOTROPIC, STRETCHED = media.SymTensor2(0.5, 0.0, 0.5), media.SymTensor2(0.6, 0.0, 0.75)
SHEARED = media.SymTensor2(0.6, 0.15, 0.6)
ALL_EIGHT = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1))
AXIS_MIRRORS = ((0, 0), (2, 0), (1, 1), (3, 1))  # the half turn, x -> -x and y -> -y
DIAGONAL_MIRRORS = ((0, 0), (2, 0), (0, 1), (2, 1))
DIAGONAL, X_MIRROR = ((0, 0), (0, 1)), ((0, 0), (1, 1))  # (x, y) -> (y, x), x -> -x
# scene, direction count, symmetry group, directions solved (one per orbit)
TURNED_CASES = {
    "quarter turn": (_tiny_scene(ISOTROPIC, [(0.0, 0.0)]), 8, ALL_EIGHT, 2),
    "half turn, a11 != a22": (_tiny_scene(STRETCHED, [(0.0, 0.0)]), 8, AXIS_MIRRORS, 3),
    # a host with a11 = a22 and a12 != 0: the diagonal mirrors, no quarter turn
    "half turn, a12 != 0": (_tiny_scene(SHEARED, [(0.0, 0.0)]), 8, DIAGONAL_MIRRORS, 3),
    "half turn, swapped defects": (
        _tiny_scene(ISOTROPIC, [(-0.4, 0.3), (0.4, -0.3)]), 8, ((0, 0), (2, 0)), 4),
    "half turn, swapped defects in n only": (
        _tiny_scene(ISOTROPIC, [(-0.4, 0.3), (0.4, -0.3)], ISOTROPIC), 8, ((0, 0), (2, 0)), 4),
    # the diagonal mirrors map the ten directions off themselves
    "quarter turn, N % 4 = 2": (_tiny_scene(ISOTROPIC, [(0.0, 0.0)]), 10, ALL_EIGHT, 3),
    "diagonal mirror only": (_tiny_scene(ISOTROPIC, [(0.4, 0.4)]), 8, DIAGONAL, 5),
    "diagonal mirror only, a12 != 0": (_tiny_scene(SHEARED, [(0.4, 0.4)]), 8, DIAGONAL, 5),
    "diagonal mirror only, N % 4 = 2": (_tiny_scene(ISOTROPIC, [(0.4, 0.4)]), 10, DIAGONAL, 10),
    "x-mirror only": (_tiny_scene(ISOTROPIC, [(0.0, 0.4)]), 8, X_MIRROR, 5),
    "x-mirror only, N % 4 = 2": (_tiny_scene(ISOTROPIC, [(0.0, 0.4)]), 10, X_MIRROR, 5),
}


@pytest.mark.parametrize("case", sorted(TURNED_CASES))
def test_turned_blocks_match_n_solves(monkeypatch, case):
    config, n, group, solved = TURNED_CASES[case]
    system = solver.assemble_system(solver.GridSpec(2.0, 0.125, 8), config)
    assert solver.symmetry_group(system) == group
    counts, solve = [], solver.solve_plane_wave

    def counted(system, d):
        counts.append(len(d))
        return solve(system, d)

    monkeypatch.setattr(solver, "solve_plane_wave", counted)
    f, fields = farfield.assemble_far_field_matrix(system, n)
    monkeypatch.setattr(solver, "symmetry_group", lambda system: ((0, 0),))
    want_f, want_fields = farfield.assemble_far_field_matrix(system, n)
    assert counts == [solved, n]
    assert np.abs(f.entries - want_f.entries).max() <= 1e-12 * np.abs(want_f.entries).max()
    assert np.abs(fields.data - want_fields.data).max() <= 1e-12 * np.abs(want_fields.data).max()


def test_direction_count_validation(homogeneous_system):
    system, _ = homogeneous_system
    with pytest.raises(ConfigInvalid):
        farfield.assemble_far_field_matrix(system, 15)
    with pytest.raises(ConfigInvalid):
        farfield.assemble_far_field_matrix(system, 4)


def test_reciprocity_of_assembled_matrix(ex1_data):
    _, fb, _ = ex1_data
    assert farfield.reciprocity_defect(fb) <= 1e-3


def test_relative_operator_basics(ex1_data):
    f0, fb, _ = ex1_data
    f = farfield.relative_operator(f0, fb)
    assert np.linalg.norm(f.entries) > 0
    assert farfield.reciprocity_defect(f) <= 2e-3
    zero = farfield.relative_operator(fb, fb)
    assert np.all(zero.entries == 0.0)
    doubled = farfield.FarFieldMatrix(fb.k, 2 * fb.entries)
    assert np.allclose(farfield.relative_operator(doubled, fb).entries, fb.entries)


def test_relative_operator_mismatch(ex1_data):
    f0, _, _ = ex1_data
    with pytest.raises(DimensionMismatch):
        farfield.relative_operator(f0, _zero_matrix(16))
    other_k = farfield.FarFieldMatrix(2.0, f0.entries)
    with pytest.raises(DimensionMismatch):
        farfield.relative_operator(f0, other_k)


def test_rotationally_symmetric_scene_is_circulant():
    host = media.HostRegion(media.Ellipse((0, 0), 2.0, 2.0), media.SymTensor2(0.5, 0, 0.5), 3.0)
    cfg = media.MediaConfig(
        host,
        (media.Defect(media.Ellipse((0, 0), 1.0, 1.0), media.SymTensor2(1.0, 0.0, 1.0), 1.0),),
        K,
    )
    spec = solver.GridSpec(3.0, 0.05, 16)
    f0, _ = farfield.assemble_far_field_matrix(solver.assemble_system(spec, cfg), 16)
    fb, _ = farfield.assemble_far_field_matrix(solver.assemble_system(spec, cfg.background()), 16)
    f = farfield.relative_operator(f0, fb)
    n = f.n
    dev = max(
        np.abs(diag - diag.mean()).max()
        for diag in (
            np.array([f.entries[(i + s) % n, i] for i in range(n)]) for s in range(n)
        )
    )
    assert dev / np.abs(f.entries).max() <= 1e-3


def _off_grid(lo, hi, step, shift):
    """lo + i * step + shift: the shift keeps centres and radii off the h/32
    lattice of sample points, away from round values that put a boundary
    through one."""
    return st.integers(0, round((hi - lo) / step)).map(lambda i: lo + i * step + shift)


tensors = st.builds(media.SymTensor2, st.floats(0.5, 1.0), st.floats(-0.2, 0.2), st.floats(0.5, 1.0))
# a random admissible scene on GridSpec(2.0, 0.125, 8): a circular host and a circular defect
scene_params = dict(
    host_c=st.tuples(_off_grid(-0.2, 0.2, 0.05, 0.0123), _off_grid(-0.2, 0.2, 0.05, 0.0071)),
    host_r=_off_grid(0.7, 0.9, 0.05, 0.0067),
    host_a=tensors, host_n=st.floats(1.5, 3.0),
    offset=st.tuples(_off_grid(-0.15, 0.15, 0.05, 0.0029), _off_grid(-0.15, 0.15, 0.05, 0.0043)),
    defect_r=_off_grid(0.2, 0.35, 0.05, 0.0037),
    defect_a=tensors, defect_n=st.floats(0.5, 2.0),
)


@settings(max_examples=3, deadline=None)
@given(**scene_params)
def test_quarter_turn_rolls_far_field_matrices(
    host_c, host_r, host_a, host_n, offset, defect_r, defect_a, defect_n,
):
    # the grid is symmetric under x -> -y, y -> x, and the N directions are
    # closed under a quarter turn: turning the scene rolls F0 and Fb by N/4
    spec, n = solver.GridSpec(2.0, 0.125, 8), 8
    defect_c = (host_c[0] + offset[0], host_c[1] + offset[1])

    def scene(turn):
        def c(p):
            return (-p[1], p[0]) if turn else p

        def t(a):
            return media.SymTensor2(a.a22, -a.a12, a.a11) if turn else a

        host = media.HostRegion(media.Ellipse(c(host_c), host_r, host_r), t(host_a), host_n)
        defect = media.Defect(
            media.Ellipse(c(defect_c), defect_r, defect_r), t(defect_a), complex(defect_n, 0.1)
        )
        return media.MediaConfig(host, (defect,), K)

    for medium in (scene, lambda turn: scene(turn).background()):
        f, turned = (
            farfield.assemble_far_field_matrix(solver.assemble_system(spec, medium(turn)), n)[0]
            for turn in (False, True)
        )
        rolled = np.roll(f.entries, (n // 4, n // 4), axis=(0, 1))
        assert np.abs(turned.entries - rolled).max() <= 1e-12 * np.abs(f.entries).max()


def _lossless_scene(host_c, host_r, host_a, host_n, offset, defect_r, defect_a, defect_n):
    host = media.HostRegion(media.Ellipse(host_c, host_r, host_r), host_a, host_n)
    defect_c = (host_c[0] + offset[0], host_c[1] + offset[1])
    defect = media.Defect(media.Ellipse(defect_c, defect_r, defect_r), defect_a, complex(defect_n))
    return media.MediaConfig(host, (defect,), K)


scenes = st.builds(_lossless_scene, **scene_params)


@settings(max_examples=5, deadline=None)
@given(scene=scenes)
def test_background_reciprocity_property(scene):
    # the discrete operator is complex symmetric, so Fb is reciprocal up to the
    # far-field extraction error; on this grid 30 random scenes measured at
    # most 2.6e-3 (3.0e-3 for F0)
    system = solver.assemble_system(solver.GridSpec(2.0, 0.125, 8), scene.background())
    fb, _ = farfield.assemble_far_field_matrix(system, 8)
    assert farfield.reciprocity_defect(fb) <= 1e-2


@settings(max_examples=5, deadline=None)
@given(scene=scenes)
def test_lossless_scattering_operator_is_unitary_property(scene):
    # real coefficients absorb nothing, so S built from either medium's far
    # fields is unitary up to discretization; on this grid 30 random scenes
    # measured unitarity defects of at most 8.3e-4
    spec = solver.GridSpec(2.0, 0.125, 8)
    for medium in (scene, scene.background()):
        f, _ = farfield.assemble_far_field_matrix(solver.assemble_system(spec, medium), 8)
        assert farfield.scattering_operator(f)[1] <= 5e-3


def test_host_must_clear_the_pml_by_4h(tiny_cfg, tiny_grid):
    # host radius 1.0 = L - 4h: no extraction circle fits between host and PML
    system = solver.assemble_system(tiny_grid, tiny_cfg.background())
    with pytest.raises(ConfigInvalid):
        farfield.assemble_far_field_matrix(system, 8)


# ---------------------------------------------------------------------------
# scattering operator


def _s_matrix(f):
    """S = I + 2ik conj(gamma_2) (2 pi / N) F, as scattering_operator builds it."""
    return np.eye(f.n) + (2j * f.k * np.conj(solver.gamma2(f.k)) * 2 * np.pi / f.n) * f.entries


def test_scattering_operator_of_zero_is_identity():
    s_inv, defect = farfield.scattering_operator(_zero_matrix())
    assert np.array_equal(s_inv, np.eye(16))
    assert defect == 0.0


def test_scattering_operator_unitary_on_analytic_data():
    for a, n_idx in ((0.5, 3.0), (0.9, 1.1)):
        f = _mie_matrix(a, n_idx)
        s_inv, defect = farfield.scattering_operator(f)
        assert defect <= 1e-12
        assert np.linalg.norm(s_inv @ _s_matrix(f) - np.eye(f.n)) <= 1e-10 * np.sqrt(f.n)


def test_scattering_operator_on_simulated_background(ex1_data, ex1_operator):
    fb = ex1_data[1]
    s_inv, defect = ex1_operator
    assert defect <= 0.05
    assert np.linalg.norm(s_inv @ _s_matrix(fb) - np.eye(fb.n)) / np.sqrt(fb.n) <= 1e-10


def test_exactly_singular_scattering_operator_is_rejected():
    # entries so large that adding I rounds away: every entry of S is the same
    # number, so S has rank 1 and its LU meets an exact zero pivot
    f = farfield.FarFieldMatrix(K, np.full((8, 8), 1e20 + 0j))
    assert len(np.unique(_s_matrix(f))) == 1
    with pytest.raises(SingularScattering):
        farfield.scattering_operator(f)


def test_ill_conditioned_scattering_operator_is_rejected():
    # S = diag(1, ..., 1e-15) is inverted exactly, so the inverse residual
    # passes; only the condition bound rejects it
    n = 8
    c = 2j * K * np.conj(solver.gamma2(K)) * 2 * np.pi / n
    entries = np.zeros((n, n), dtype=complex)
    entries[-1, -1] = (1e-15 - 1.0) / c
    f = farfield.FarFieldMatrix(K, entries)
    s = _s_matrix(f)
    diag = np.diag(s)
    assert np.array_equal(s, np.diag(diag)) and np.all(diag[:-1] == 1.0)
    assert 5e-16 < abs(diag[-1]) < 2e-15
    assert np.linalg.norm(np.linalg.inv(s) @ s - np.eye(n)) / np.sqrt(n) <= 1e-10
    with pytest.raises(SingularScattering):
        farfield.scattering_operator(f)


# ---------------------------------------------------------------------------
# noise model


def test_noise_level_zero_is_identity(ex1_data):
    f0, _, _ = ex1_data
    noisy = farfield.add_noise(f0, 0.0, seed=3)
    assert np.array_equal(noisy.entries, f0.entries)


def test_noise_deterministic(ex1_data):
    f0, _, _ = ex1_data
    a = farfield.add_noise(f0, 0.02, seed=11)
    b = farfield.add_noise(f0, 0.02, seed=11)
    assert np.array_equal(a.entries, b.entries)
    c = farfield.add_noise(f0, 0.02, seed=12)
    assert not np.array_equal(a.entries, c.entries)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16]), level=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**63 - 2), data=st.integers(0, 2**32 - 1),
)
def test_noise_determinism_property(n, level, seed, data):
    rng = np.random.default_rng(data)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = farfield.FarFieldMatrix(K, entries)
    a = farfield.add_noise(f, level, seed)
    assert np.array_equal(a.entries, farfield.add_noise(f, level, seed).entries)
    assert not np.array_equal(a.entries, farfield.add_noise(f, level, seed + 1).entries)
    assert np.all(np.abs(a.entries - f.entries) <= level * np.abs(f.entries) * (1 + 1e-12))


def test_noise_norm_bound(ex1_data):
    f0, _, _ = ex1_data
    noisy = farfield.add_noise(f0, 0.02, seed=5)
    rel = np.linalg.norm(noisy.entries - f0.entries) / np.linalg.norm(f0.entries)
    assert 0.0 < rel <= 0.02
    with pytest.raises(ConfigInvalid):
        farfield.add_noise(f0, -0.1, seed=5)
