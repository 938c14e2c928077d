import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectscan import farfield, fm, media, solver
from defectscan.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    PointOutsideD,
)

K = 1.0


def _random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


def _identity_operator(n=16):
    """S^-1 of a background that scatters nothing: the identity."""
    zero = farfield.FarFieldMatrix(K, np.zeros((n, n), dtype=complex))
    return farfield.scattering_operator(zero)[0]


def _projections(lam, psi, phi, floor_rel=fm.DEFAULT_FLOOR_REL):
    """(phi_z, psi_i) over the kept modes, (P, K), from test functions phi (P, N)."""
    return phi @ psi[:, fm.kept_modes(lam, floor_rel)].conj()


# ---------------------------------------------------------------------------
# eigensolver


def test_eig_identity():
    lam, v = fm.hermitian_eig(np.eye(4, dtype=complex))
    assert np.allclose(lam, 1.0)
    # eigenvectors orthonormal; spanning the same space as the canonical basis
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_eig_diagonal():
    lam, _ = fm.hermitian_eig(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(lam, [3.0, -1.0])


def test_eig_random_reconstruction(rng):
    m = _random_hermitian(rng, 16)
    lam, v = fm.hermitian_eig(m)
    rec = (v * lam) @ v.conj().T
    assert np.linalg.norm(rec - m) <= 1e-9 * np.linalg.norm(m)
    assert np.abs(v.conj().T @ v - np.eye(16)).max() <= 1e-10
    # residual per pair
    for i in range(16):
        r = m @ v[:, i] - lam[i] * v[:, i]
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(m)
    assert np.all(np.diff(lam) <= 0)


def test_eig_rejects_non_hermitian(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(NotHermitian):
        fm.hermitian_eig(m)
    with pytest.raises(ConfigInvalid):
        fm.hermitian_eig(np.zeros((2, 3)))


def test_eig_lapack_failure_maps_to_no_convergence(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        fm.hermitian_eig(np.eye(3, dtype=complex))


def test_eig_zero_matrix():
    lam, _ = fm.hermitian_eig(np.zeros((5, 5), dtype=complex))
    assert np.all(lam == 0.0)


@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_eig_matches_lapack_spectrum(n, seed):
    m = _random_hermitian(np.random.default_rng(seed), n)
    lam, _ = fm.hermitian_eig(m)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.allclose(lam, ref, atol=1e-9 * max(1.0, np.linalg.norm(m)))


# ---------------------------------------------------------------------------
# operator absolute value


def test_operator_abs_psd_fixed_point(rng):
    m = _random_hermitian(rng, 8)
    psd = m @ m.conj().T
    assert np.linalg.norm(fm.operator_abs(psd) - psd) <= 1e-9 * np.linalg.norm(psd)


def test_operator_abs_diagonal():
    out = fm.operator_abs(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(out, np.diag([3.0, 1.0]), atol=1e-12)


def test_operator_abs_spectrum(rng):
    m = _random_hermitian(rng, 12)
    got = np.sort(np.linalg.eigvalsh(fm.operator_abs(m)))
    want = np.sort(np.abs(np.linalg.eigvalsh(m)))
    assert np.allclose(got, want, atol=1e-9 * np.linalg.norm(m))
    # |-M| = |M|
    assert np.allclose(fm.operator_abs(-m), fm.operator_abs(m), atol=1e-9)


# ---------------------------------------------------------------------------
# F-sharp


def test_f_sharp_zero():
    s_inv = _identity_operator()
    f = farfield.FarFieldMatrix(K, np.zeros((16, 16), dtype=complex))
    mat, lam, _ = fm.f_sharp(f, s_inv)
    assert np.all(mat == 0.0)
    assert np.all(lam == 0.0)


def test_f_sharp_hermitian_psd_input(rng):
    # craft F so that the preprocessed matrix equals a known Hermitian PSD H
    n = 16
    s_inv = _identity_operator(n)
    m = _random_hermitian(rng, n)
    h = m @ m.conj().T
    entries = solver.gamma2(K) * (n / (2 * np.pi)) * h
    f = farfield.FarFieldMatrix(K, entries)
    mat, _, _ = fm.f_sharp(f, s_inv)
    assert np.linalg.norm(mat - h) <= 1e-9 * np.linalg.norm(h)


def test_f_sharp_is_hermitian_psd(ex1_data, ex1_operator):
    f0, fb, _ = ex1_data
    f = farfield.relative_operator(f0, fb)
    mat, lam, _ = fm.f_sharp(f, ex1_operator[0])
    assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * np.linalg.norm(mat)
    assert np.all(lam >= 0.0)
    assert lam[0] > 0


def test_f_sharp_spectrum_decay(ex1_data, ex1_operator):
    # regression baseline: many orders of decay between extreme eigenvalues
    f0, fb, _ = ex1_data
    _, lam, _ = fm.f_sharp(farfield.relative_operator(f0, fb), ex1_operator[0])
    assert lam[-1] <= 1e-6 * lam[0]


def test_f_sharp_scaling_covariance(rng):
    n = 16
    s_inv = _identity_operator(n)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f1 = farfield.FarFieldMatrix(K, entries)
    f2 = farfield.FarFieldMatrix(K, 2.5 * entries)
    _, lam1, psi1 = fm.f_sharp(f1, s_inv)
    _, lam2, psi2 = fm.f_sharp(f2, s_inv)
    assert np.allclose(lam2, 2.5 * lam1, atol=1e-10 * lam1[0])
    # indicator values scale, ranking is invariant
    phi = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    v1, _ = fm.picard_indicator(lam1, _projections(lam1, psi1, phi))
    v2, _ = fm.picard_indicator(lam2, _projections(lam2, psi2, phi))
    assert np.allclose(v2, 2.5 * v1, rtol=1e-9)
    assert np.array_equal(np.argsort(v1), np.argsort(v2))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16]), seed=st.integers(0, 2**32 - 1))
def test_f_sharp_hermitian_psd_property(n, seed):
    # any F with any unitary S: both preprocessings, S^-1 and S* (passed as
    # s_inv), give a Hermitian PSD F#, and they agree since S^-1 = S* for
    # unitary S
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    f = farfield.FarFieldMatrix(K, entries)
    sharps = []
    for s_inv in (np.linalg.inv(q), q.conj().T):
        m, lam, _ = fm.f_sharp(f, s_inv)
        assert np.array_equal(m, m.conj().T)
        # PSD before the clamp to zero
        pre = np.linalg.eigvalsh(m)
        assert pre[0] >= -1e-12 * pre[-1]
        assert np.all(lam >= 0.0)
        sharps.append(m)
    assert np.abs(sharps[0] - sharps[1]).max() <= 1e-12 * np.abs(sharps[0]).max()


def test_f_sharp_mismatch(ex1_data):
    f0, _, _ = ex1_data
    with pytest.raises(DimensionMismatch):
        fm.f_sharp(f0, _identity_operator(16))


# ---------------------------------------------------------------------------
# test functions


def test_test_functions_zero_contrast(homogeneous_system):
    system, cfg = homogeneous_system
    _, fields = farfield.assemble_far_field_matrix(system, 16)
    s_inv = _identity_operator(16)
    pts = np.array([[0.2, -0.3], [0.0, 0.5]])
    phi = fm.test_functions(fields, s_inv, cfg, pts)
    assert phi.shape == (2, 16)
    ang = farfield.direction_angles(16)
    for p, row in zip(pts, phi):
        expected = solver.gamma2(K) * np.exp(
            -1j * K * (np.cos(ang) * p[0] + np.sin(ang) * p[1])
        )
        assert np.linalg.norm(row - expected) / np.linalg.norm(expected) <= 1e-3


def test_test_functions_validation(ex1_cfg, ex1_data, ex1_operator):
    _, _, fields = ex1_data
    with pytest.raises(PointOutsideD):
        fm.test_functions(fields, ex1_operator[0], ex1_cfg.media, [[3.0, 0.0]])
    with pytest.raises(DimensionMismatch):  # S^-1 of 16 directions, fields of 32
        fm.test_functions(fields, _identity_operator(16), ex1_cfg.media, [[0.0, 0.0]])


def test_test_functions_apply_any_matrix_to_the_samples(ex1_cfg, ex1_data, rng):
    # combining the fields before sampling them equals a g_z for any (K, N) a
    _, _, fields = ex1_data
    pts = np.array([[0.3, -0.2], [-1.1, 0.7], [0.0, 0.0]])
    g = fm.reversed_incidence_samples(fields, pts)
    for rows in (3, 0):
        a = rng.standard_normal((rows, fields.n)) + 1j * rng.standard_normal((rows, fields.n))
        got = fm.test_functions(fields, a, ex1_cfg.media, pts)
        assert got.shape == (3, rows)
        assert np.abs(got - (a @ g).T).max(initial=0.0) <= 1e-12 * np.abs(a @ g).max(initial=1.0)
    for a in (np.ones(fields.n), np.ones((2, fields.n + 2))):  # not (K, N)
        with pytest.raises(DimensionMismatch):
            fm.test_functions(fields, a, ex1_cfg.media, pts)


def test_test_functions_grid_shift_invariance(tiny_cfg):
    # shifting every node by h/2 changes phi_z only at interpolation level
    h = 0.125
    phis = []
    for L in (2.0, 2.0 + h / 2):
        spec = solver.GridSpec(L, h, 8)
        fb, fields = farfield.assemble_far_field_matrix(
            solver.assemble_system(spec, tiny_cfg.background()), 16
        )
        s_inv = farfield.scattering_operator(fb)[0]
        phis.append(fm.test_functions(fields, s_inv, tiny_cfg, [[0.2, -0.1]])[0])
    diff = np.linalg.norm(phis[0] - phis[1]) / np.linalg.norm(phis[0])
    assert diff <= 1e-2


# ---------------------------------------------------------------------------
# Picard indicator


def _synthetic_eigenpairs(lams):
    """(lam, psi): the given spectrum with random orthonormal eigenvectors."""
    n = len(lams)
    rng = np.random.default_rng(42)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    return np.asarray(lams, float), q


def test_picard_single_mode():
    lam, psi = _synthetic_eigenpairs([4.0, 1.0, 0.25, 0.0625])
    phi = psi[:, 0][None, :]  # (phi, psi_1) = 1
    vals, flag = fm.picard_indicator(lam, _projections(lam, psi, phi))
    assert not flag
    assert vals[0] == pytest.approx(4.0)


def test_picard_orthogonal_point_capped():
    lam, psi = _synthetic_eigenpairs([4.0, 1.0])
    vals, flag = fm.picard_indicator(lam, np.zeros((1, 2), dtype=complex))
    assert not flag
    assert vals[0] == fm.INDICATOR_CAP


def test_picard_phase_invariance(rng):
    lam, psi = _synthetic_eigenpairs([4.0, 1.0, 0.25, 0.0625])
    phi = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    v1, _ = fm.picard_indicator(lam, _projections(lam, psi, phi))
    v2, _ = fm.picard_indicator(lam, _projections(lam, psi, np.exp(1.3j) * phi))
    assert v1[0] == pytest.approx(v2[0], rel=1e-12)


def test_picard_no_signal_flag():
    # lambda_1 = 0 keeps no mode: two points, no projections
    lam, psi = _synthetic_eigenpairs([0.0, 0.0])
    proj = _projections(lam, psi, np.ones((2, 2), dtype=complex))
    assert proj.shape == (2, 0)
    vals, flag = fm.picard_indicator(lam, proj)
    assert flag
    assert np.all(vals == fm.INDICATOR_CAP)


def test_picard_floor_validation():
    lam = np.array([1.0])
    proj = np.ones((1, 1), dtype=complex)
    with pytest.raises(ConfigInvalid):
        fm.picard_indicator(lam, proj, floor_rel=0.5)
    with pytest.raises(ConfigInvalid):
        fm.picard_indicator(lam, proj, floor_rel=-1e-3)
    with pytest.raises(ConfigInvalid):  # kept_modes is the floor's one definition
        fm.kept_modes(lam, 0.5)


def test_picard_rejects_projections_on_other_modes():
    # floor 1e-2 keeps three of the four modes
    lam, _ = _synthetic_eigenpairs([4.0, 1.0, 0.25, 0.01])
    with pytest.raises(DimensionMismatch):
        fm.picard_indicator(lam, np.ones((2, 4), dtype=complex), floor_rel=1e-2)


def test_indicator_grid_masks_outside(ex1_cfg, ex1_data, ex1_operator):
    f0, fb, fields = ex1_data
    _, lam, psi = fm.f_sharp(farfield.relative_operator(f0, fb), ex1_operator[0])
    grid = fm.indicator_grid(
        lam, psi, fields, ex1_operator[0], ex1_cfg.media, (-3, 3, -3, 3), 31, 31
    )
    assert grid.values.shape == (31, 31)
    assert np.all(grid.values[~grid.mask] == 0.0)
    assert np.all(grid.values[grid.mask] > 0.0)
    assert not grid.no_defect_signal


def test_floored_modes_are_the_modes_the_series_drops(homogeneous_system):
    # f_sharp clamps tiny negative eigenvalues to exact zeros; with floor 0 the
    # series still drops such a mode, and the count reports it
    system, cfg = homogeneous_system
    _, fields = farfield.assemble_far_field_matrix(system, 16)
    lam, psi = _synthetic_eigenpairs([2.0**-i for i in range(15)] + [0.0])
    assert np.count_nonzero(fm.kept_modes(lam, 0.0)) == 15
    grid = fm.indicator_grid(
        lam, psi, fields, _identity_operator(16), cfg, (-0.5, 0.5, -0.5, 0.5), 5, 5, floor_rel=0.0
    )
    assert grid.floored_modes == 1


def _two_product_indicator(lam, psi, fields, s_inv, pts, floor_rel):
    """The indicator as S^-1 times all N samples, then the projections."""
    keep = fm.kept_modes(lam, floor_rel)
    if not np.any(keep):
        return np.full(len(pts), fm.INDICATOR_CAP)
    phi = (s_inv @ fm.reversed_incidence_samples(fields, pts)).T
    return 1.0 / (np.abs(phi @ psi[:, keep].conj()) ** 2 @ (1.0 / lam[keep]))


@pytest.mark.parametrize("case", ["noisy", "floored", "no_signal"])
def test_indicator_grid_matches_the_two_product_formula(ex1_cfg, ex1_data, ex1_operator, case):
    # projecting the fields onto the kept modes before sampling them changes
    # only the order of the sums: on 2% noisy data, with every mode kept,
    # with the floor at 1e-2 (K < N), and with lambda_1 = 0 (no mode kept)
    f0, fb, fields = ex1_data
    s_inv = ex1_operator[0]
    _, lam, psi = fm.f_sharp(farfield.relative_operator(farfield.add_noise(f0, 0.02, 5), fb), s_inv)
    floor = 1e-2 if case == "floored" else fm.DEFAULT_FLOOR_REL
    if case == "no_signal":
        lam = np.zeros_like(lam)
    grid = fm.indicator_grid(lam, psi, fields, s_inv, ex1_cfg.media, (-2, 2, -2, 2), 41, 41, floor)
    pts = fm.sampling_lattice((-2, 2, -2, 2), 41, 41)[2][grid.mask.ravel()]
    want = _two_product_indicator(lam, psi, fields, s_inv, pts, floor)
    got = grid.values[grid.mask]
    assert np.max(np.abs(got - want) / want) <= 1e-10
    kept = np.count_nonzero(fm.kept_modes(lam, floor))
    assert grid.floored_modes == fields.n - kept
    assert {"noisy": kept == fields.n, "floored": 0 < kept < fields.n,
            "no_signal": kept == 0}[case]
    assert grid.no_defect_signal == (case == "no_signal")
    if case == "no_signal":
        assert np.all(got == fm.INDICATOR_CAP)


def test_indicator_grid_is_invariant_within_a_degenerate_pair(ex1_cfg, ex1_data, ex1_operator):
    # noise-free, the circle scene's F# has eigenvalue pairs equal to rounding;
    # any orthonormal basis of such a pair's plane is as good as LAPACK's, so
    # turning it by a 2 x 2 unitary must leave the indicator unchanged
    f0, fb, fields = ex1_data
    s_inv = ex1_operator[0]
    _, lam, psi = fm.f_sharp(farfield.relative_operator(f0, fb), s_inv)
    keep = fm.kept_modes(lam, fm.DEFAULT_FLOOR_REL)
    pairs = [i for i in range(len(lam) - 1)
             if keep[i + 1] and lam[i] - lam[i + 1] <= 1e-12 * lam[i]]
    assert pairs  # the quarter-turn symmetry makes such pairs
    args = (fields, s_inv, ex1_cfg.media, (-2, 2, -2, 2), 41, 41)
    base = fm.indicator_grid(lam, psi, *args)
    t, phase = 0.7, np.exp(0.4j)
    u = np.array([[np.cos(t), -np.sin(t) * phase], [np.sin(t) / phase, np.cos(t)]])
    for i in pairs:
        turned = psi.copy()
        turned[:, [i, i + 1]] = psi[:, [i, i + 1]] @ u
        grid = fm.indicator_grid(lam, turned, *args)
        m = base.mask
        assert np.max(np.abs(grid.values[m] - base.values[m]) / base.values[m]) <= 1e-10


@pytest.mark.parametrize("bounds, nx", [((1.5, 2.5, -0.5, 0.5), 5), ((-0.5, 0.5, -0.5, 0.5), -1)])
def test_indicator_grid_rejects_a_lattice_outside_d(homogeneous_system, bounds, nx):
    # a lattice with no point inside the host has nothing to reconstruct on
    system, cfg = homogeneous_system
    _, fields = farfield.assemble_far_field_matrix(system, 16)
    lam, psi = _synthetic_eigenpairs([2.0**-i for i in range(16)])
    with pytest.raises(ConfigInvalid):
        fm.indicator_grid(lam, psi, fields, _identity_operator(16), cfg, bounds, nx, 5)


# ---------------------------------------------------------------------------
# the pipeline commutes with the square's symmetries

# x -> T x: a quarter turn, a half turn and the mirror x -> -x, each of which
# maps the node grid, the sampling lattice and the N directions onto themselves
SQUARE_SYMMETRIES = {
    "quarter turn": ((0, -1), (1, 0)),
    "half turn": ((-1, 0), (0, -1)),
    "mirror": ((-1, 0), (0, 1)),
}
# example1_ellipse's scene with a sheared defect tensor, so that no turn or
# mirror leaves it unchanged and every direction is solved
SHEARED_ELLIPSE = media.MediaConfig(
    media.HostRegion(media.Rectangle(-2.0, 2.0, -2.0, 2.0), media.SymTensor2(0.5, 0.0, 0.5), 3.0),
    (media.Defect(media.Ellipse((0.5, 1.0), 0.5, 0.3), media.SymTensor2(1.0, 0.2, 0.8), 1.0),),
    K,
)
SYMMETRY_GRID = solver.GridSpec(4.5, 0.25)
SYMMETRY_N, SYMMETRY_LATTICE = 16, 41


def _moved_scene(scene, t):
    """The scene moved by x -> t x: shapes moved, tensors A -> t A t^T."""
    def shape(s):
        if isinstance(s, media.Ellipse):
            axes = (s.semi_b, s.semi_a) if t[0, 0] == 0 else (s.semi_a, s.semi_b)
            return media.Ellipse(tuple(t @ s.center), *axes)
        (x0, x1), (y0, y1) = np.sort(t @ [[s.xmin, s.xmax], [s.ymin, s.ymax]], axis=1)
        return media.Rectangle(x0, x1, y0, y1)

    def tensor(a):
        re, im = t @ a.real() @ t.T, t @ a.imag() @ t.T
        return media.SymTensor2(re[0, 0], re[0, 1], re[1, 1], im[0, 0], im[0, 1], im[1, 1])

    host = media.HostRegion(shape(scene.host.shape), tensor(scene.host.A), scene.host.n)
    defects = tuple(media.Defect(shape(d.shape), tensor(d.A0), d.n0) for d in scene.defects)
    return media.MediaConfig(host, defects, scene.k)


def _pipeline(scene):
    """F0, Fb and the indicator map at floor 1e-4, noise-free."""
    f0 = farfield.assemble_far_field_matrix(
        solver.assemble_system(SYMMETRY_GRID, scene), SYMMETRY_N)[0]
    fb, fields = farfield.assemble_far_field_matrix(
        solver.assemble_system(SYMMETRY_GRID, scene.background()), SYMMETRY_N)
    s_inv = farfield.scattering_operator(fb)[0]
    _, lam, psi = fm.f_sharp(farfield.relative_operator(f0, fb), s_inv)
    grid = fm.indicator_grid(lam, psi, fields, s_inv, scene, scene.host.shape.bbox(),
                             SYMMETRY_LATTICE, SYMMETRY_LATTICE, floor_rel=1e-4)
    return f0.entries, fb.entries, grid.values


@pytest.fixture(scope="module")
def unmoved_pipeline():
    assert solver.symmetry_group(solver.assemble_system(SYMMETRY_GRID, SHEARED_ELLIPSE)) == ((0, 0),)
    return _pipeline(SHEARED_ELLIPSE)


@pytest.mark.parametrize("name", sorted(SQUARE_SYMMETRIES))
def test_pipeline_commutes_with_the_squares_symmetries(unmoved_pipeline, name):
    # moving the scene by x -> T x takes direction j to sigma(j), so F0 and Fb
    # permute: moved[sigma(i), sigma(j)] = original[i, j]; the map moves with
    # the lattice points, read in [y, x] order
    t = np.array(SQUARE_SYMMETRIES[name], dtype=float)
    moved = _pipeline(_moved_scene(SHEARED_ELLIPSE, t))
    ang = farfield.direction_angles(SYMMETRY_N)
    turned = t @ np.array([np.cos(ang), np.sin(ang)])
    sigma = np.round(np.arctan2(turned[1], turned[0]) * SYMMETRY_N / (2 * np.pi)).astype(int)
    sigma %= SYMMETRY_N
    for want, got in zip(unmoved_pipeline[:2], moved[:2]):
        assert np.abs(got[np.ix_(sigma, sigma)] - want).max() <= 1e-12 * np.abs(want).max()
    iy, ix = np.indices((SYMMETRY_LATTICE, SYMMETRY_LATTICE))
    mid = (SYMMETRY_LATTICE - 1) // 2
    jx, jy = (np.tensordot(t, np.array([ix, iy]) - mid, axes=1) + mid).astype(int)
    want = np.empty_like(unmoved_pipeline[2])
    want[jy, jx] = unmoved_pipeline[2][iy, ix]
    assert np.abs(moved[2] - want).max() <= 1e-10 * np.abs(want).max()
