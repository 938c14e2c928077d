import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectscan import media
from defectscan.errors import ConfigInvalid

finite = st.floats(-10, 10, allow_nan=False)


def _random_config(A=media.SymTensor2(0.5, 0.0, 0.5), n=3.0, defects=()):
    host = media.HostRegion(media.Rectangle(-2, 2, -2, 2), A, n)
    return media.MediaConfig(host, tuple(defects), 1.0)


VOID = media.SymTensor2.identity()


# ---------------------------------------------------------------------------
# tensors


def test_sym_eigvals_against_lapack(rng):
    for _ in range(50):
        m = rng.normal(size=3)
        lo, hi = media.sym_eigvals(*m)
        ref = np.linalg.eigvalsh([[m[0], m[1]], [m[1], m[2]]])
        assert np.allclose([lo, hi], ref, atol=1e-12)


@given(finite, finite, finite)
@settings(max_examples=50, deadline=None)
def test_sym_eigvals_property(a, b, c):
    lo, hi = media.sym_eigvals(a, b, c)
    ref = np.linalg.eigvalsh([[a, b], [b, c]])
    assert np.allclose([lo, hi], ref, atol=1e-9)


def test_sym_abs_matches_eigendecomposition(rng):
    for _ in range(25):
        m = rng.normal(size=3)
        mat = np.array([[m[0], m[1]], [m[1], m[2]]])
        w, v = np.linalg.eigh(mat)
        ref = (v * np.abs(w)) @ v.T
        assert np.allclose(media.sym_abs(mat), ref, atol=1e-12)


def test_tensor_helpers():
    t = media.SymTensor2(2.0, 0.5, 3.0, -0.1, 0.0, -0.2)
    assert np.allclose(t.cmat(), t.real() + 1j * t.imag())
    assert not t.is_real
    assert media.SymTensor2.identity().is_real


# ---------------------------------------------------------------------------
# shapes


def test_shape_contains_basics():
    c = media.Circle((0, 0), 1.0)
    assert c.contains(np.array([[0.5, 0.0]]))[0]
    assert not c.contains(np.array([[1.0, 0.0]]))[0]  # boundary is exterior
    e = media.Ellipse((0.5, 1.0), 0.5, 0.3)
    assert e.contains(np.array([[0.5, 1.0]]))[0]
    assert not e.contains(np.array([[1.1, 1.0]]))[0]
    r = media.Rectangle(-1, 1, -1, 1)
    assert r.contains(np.array([[0.0, 0.99]]))[0]
    assert not r.contains(np.array([[0.0, 1.0]]))[0]


def test_shape_validation_errors():
    with pytest.raises(ConfigInvalid):
        media.Circle((0, 0), -1.0)
    with pytest.raises(ConfigInvalid):
        media.Rectangle(1, -1, 0, 1)
    with pytest.raises(ConfigInvalid):
        media.Union((media.Circle((0, 0), 1.0),))


def test_union_overlap_detected():
    u = media.Union((media.Circle((0, 0), 1.0), media.Circle((0.5, 0), 1.0)))
    with pytest.raises(ConfigInvalid):
        u.check_disjoint(0.1)
    ok = media.Union((media.Circle((-1, 0), 0.4), media.Circle((1, 0), 0.4)))
    ok.check_disjoint(0.1)


def test_shape_from_dict():
    specs = [
        ({"type": "circle", "center": [0.5, -1.0], "radius": 0.3},
         media.Circle((0.5, -1.0), 0.3)),
        ({"type": "ellipse", "center": [0.5, 1.0], "semi_a": 0.5, "semi_b": 0.3},
         media.Ellipse((0.5, 1.0), 0.5, 0.3)),
        ({"type": "rectangle", "xmin": -1, "xmax": 1, "ymin": -2, "ymax": 2},
         media.Rectangle(-1, 1, -2, 2)),
        ({"type": "union", "members": [
            {"type": "circle", "center": [-1, 1], "radius": 0.3},
            {"type": "circle", "center": [1, -1], "radius": 0.3}]},
         media.Union((media.Circle((-1, 1), 0.3), media.Circle((1, -1), 0.3)))),
    ]
    for d, s in specs:
        assert media.shape_from_dict(d) == s
    with pytest.raises(ConfigInvalid):
        media.shape_from_dict({"type": "pentagon"})


def test_bounding_radius():
    assert media.bounding_radius(media.Circle((0, 0), 1.0)) == pytest.approx(1.0)
    assert media.bounding_radius(media.Rectangle(-2, 2, -2, 2)) == pytest.approx(
        2 * np.sqrt(2), rel=1e-3
    )


def test_interior_points_deterministic_and_inside():
    s = media.Ellipse((0.5, 1.0), 0.5, 0.3)
    p1 = media.interior_points(s, 200)
    p2 = media.interior_points(s, 200)
    assert np.array_equal(p1, p2)
    assert np.all(s.contains(p1))


# ---------------------------------------------------------------------------
# configuration invariants


def test_validate_accepts_reference_scene():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    cfg.validate(0.15)


def test_validate_rejects_bad_materials():
    bad_host = media.MediaConfig(
        media.HostRegion(media.Rectangle(-2, 2, -2, 2), media.SymTensor2(1.0, 2.0, 1.0), 3.0),
        (), 1.0,
    )
    with pytest.raises(ConfigInvalid):
        bad_host.validate(0.1)
    with pytest.raises(ConfigInvalid):
        _random_config(n=-1.0).validate(0.1)
    with pytest.raises(ConfigInvalid):
        media.MediaConfig(_random_config().host, (), -1.0).validate(0.1)
    # Im(A0) must be negative semidefinite
    gain = media.Defect(
        media.Circle((0, 0), 0.5), media.SymTensor2(1.0, 0.0, 1.0, 0.5, 0.0, 0.5), 1.0
    )
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[gain]).validate(0.1)
    # Im(n0) must be nonnegative
    lossy_wrong = media.Defect(media.Circle((0, 0), 0.5), VOID, 1.0 - 0.5j)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[lossy_wrong]).validate(0.1)


def test_validate_rejects_defect_touching_boundary():
    touching = media.Defect(media.Circle((0, 0), 2.0), VOID, 1.0)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[touching]).validate(0.1)
    near = media.Defect(media.Circle((1.5, 0), 0.49), VOID, 1.0)  # margin 0.01 < h
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[near]).validate(0.1)


def test_validate_rejects_overlapping_defects():
    d1 = media.Defect(media.Circle((0, 0), 0.5), VOID, 1.0)
    d2 = media.Defect(media.Circle((0.3, 0), 0.5), VOID, 1.0)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[d1, d2]).validate(0.1)


def test_min_wavelength_formula():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    # a_min = 0.5 (host), n_max = 3 (host): lambda = 2 pi / (k sqrt(3/0.5))
    assert cfg.min_wavelength() == pytest.approx(2 * np.pi / np.sqrt(6.0))


# ---------------------------------------------------------------------------
# coefficient sampling


def _pointwise_coefficients(config, p, background=False):
    """Reference: coefficients (SymTensor2, complex n) of the medium at one point,
    with the defects ignored when `background`; outside D they are (I, 1)."""
    pt = np.asarray(p, dtype=float).reshape(1, 2)
    if not background:
        for d in config.defects:
            if bool(d.shape.contains(pt)[0]):
                return d.A0, complex(d.n0)
    if bool(config.host.shape.contains(pt)[0]):
        return config.host.A, complex(config.host.n)
    return media.SymTensor2.identity(), 1.0 + 0.0j


def _grid_coefficients_at(config, p, background=False):
    """sample_grid on the one-point grid at p, as (a11, a12, a22, n) scalars."""
    return tuple(v[0, 0] for v in media.sample_grid(config, [p[0]], [p[1]], background))


def test_sample_coefficients_piecewise():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    # outside D, in the host, in the defect
    assert _grid_coefficients_at(cfg, (10.0, 10.0)) == (1.0, 0.0, 1.0, 1.0)
    assert _grid_coefficients_at(cfg, (1.5, 1.5)) == (0.5, 0.0, 0.5, 3.0)
    assert _grid_coefficients_at(cfg, (0.0, 0.0)) == (1.0, 0.0, 1.0, 1.0)
    # background sampling ignores the defect
    assert _grid_coefficients_at(cfg, (0.0, 0.0), background=True) == (0.5, 0.0, 0.5, 3.0)


def test_sample_grid_matches_pointwise(rng):
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    xs = np.linspace(-3, 3, 13)
    ys = np.linspace(-3, 3, 11)
    for background in (False, True):
        a11, a12, a22, n = media.sample_grid(cfg, xs, ys, background=background)
        for _ in range(30):
            ix, iy = rng.integers(13), rng.integers(11)
            t, nn = _pointwise_coefficients(cfg, (xs[ix], ys[iy]), background=background)
            c = t.cmat()
            assert (a11[iy, ix], a12[iy, ix], a22[iy, ix]) == (c[0, 0], c[0, 1], c[1, 1])
            assert n[iy, ix] == nn


def test_sample_grid_batches_match_single_grids(rng):
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    xs = rng.uniform(-3, 3, (4, 7))
    ys = rng.uniform(-3, 3, (4, 5))
    batched = media.sample_grid(cfg, xs, ys)
    assert all(v.shape == (4, 5, 7) for v in batched)
    for b in range(4):
        for got, want in zip(batched, media.sample_grid(cfg, xs[b], ys[b])):
            assert np.array_equal(got[b], want)


def test_background_agrees_outside_defects():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    xs = np.linspace(-3, 3, 25)
    tot = media.sample_grid(cfg, xs, xs)
    bg = media.sample_grid(cfg, xs, xs, background=True)
    xx, yy = np.meshgrid(xs, xs)
    outside = ~cfg.defects[0].shape.contains(np.stack((xx, yy), axis=-1))
    for t, b in zip(tot, bg):
        assert np.array_equal(t[outside], b[outside])


# ---------------------------------------------------------------------------
# hypothesis validation


def test_assumptions_reference_void():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    rep = media.validate_assumptions(cfg)
    assert rep["verdict"] == "satisfied"
    d = rep["defects"][0]
    assert d["branch"] == "re_a0_minus_a"
    # eigenvalues of I - 0.5 I are exactly 0.5
    assert d["min_eig_re_a0_minus_a"] == pytest.approx(0.5)


def test_assumptions_anisotropic_tensors():
    A = media.SymTensor2(0.6022, 0.1591, 0.7478)
    A0 = media.SymTensor2(0.1673, -0.0308, 0.2030)
    d = media.Defect(media.Ellipse((0.5, 1.0), 0.5, 0.3), A0, 3.0)
    cfg = _random_config(A=A, defects=[d])
    rep = media.validate_assumptions(cfg)
    assert rep["verdict"] == "satisfied"
    assert rep["defects"][0]["branch"] == "a_minus_a0"
    ref = np.linalg.eigvalsh(A.real() - A0.real()).min()
    assert rep["defects"][0]["min_eig_a_minus_re_a0"] == pytest.approx(ref, abs=1e-12)


def test_assumption_margins_match_the_pointwise_loop():
    # the reference: each margin is the minimum over the 200 interior samples
    # of the background tensor found at that sample
    A = media.SymTensor2(0.6022, 0.1591, 0.7478)
    A0 = media.SymTensor2(0.1673, -0.0308, 0.2030)
    for d in (media.Defect(media.Ellipse((0.5, 1.0), 0.5, 0.3), A0, 3.0),
              media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)):
        cfg = _random_config(A=A, defects=[d])
        fwd, bwd = np.inf, np.inf
        for p in media.interior_points(d.shape, 200):
            a = _pointwise_coefficients(cfg, p, background=True)[0].real()
            m1, m2 = d.A0.real() - a, a - d.A0.real()
            fwd = min(fwd, media.sym_eigvals(m1[0, 0], m1[0, 1], m1[1, 1])[0])
            bwd = min(bwd, media.sym_eigvals(m2[0, 0], m2[0, 1], m2[1, 1])[0])
        got = media.validate_assumptions(cfg)["defects"][0]
        assert (got["min_eig_re_a0_minus_a"], got["min_eig_a_minus_re_a0"]) == (fwd, bwd)


def test_assumptions_zero_contrast_violated():
    same = media.Defect(media.Circle((0, 0), 1.0), media.SymTensor2(0.5, 0.0, 0.5), 3.0)
    rep = media.validate_assumptions(_random_config(defects=[same]))
    assert rep["verdict"] == "violated"
    assert rep["defects"][0]["branch"] is None


def test_assumptions_absorbing_branch():
    # lossy defect with small negative-semidefinite Im(A0)
    A0 = media.SymTensor2(0.2, 0.0, 0.2, -0.01, 0.0, -0.01)
    d = media.Defect(media.Circle((0, 0), 1.0), A0, 3.0 + 0.1j)
    rep = media.validate_assumptions(_random_config(defects=[d]))
    assert rep["verdict"] == "satisfied"
    d = rep["defects"][0]
    assert d["branch"] == "absorbing_alpha"
    assert d["alpha"] is not None
    assert not d["im_a0_zero"]
    assert not d["im_n0_zero"]


def test_assumptions_report_serializable():
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), VOID, 1.0)])
    doc = json.loads(json.dumps(media.validate_assumptions(cfg)))
    assert doc["verdict"] == "satisfied"
    assert list(doc["defects"][0]) == [
        "min_eig_re_a0_minus_a", "min_eig_a_minus_re_a0", "im_a0_zero", "im_n0_zero",
        "branch", "alpha",
    ]
    assert doc["defects"][0]["branch"] == "re_a0_minus_a"


def test_assumptions_serializable_for_numpy_tensors():
    # tensors built from numpy floats: every flag is still a Python bool
    A0 = media.SymTensor2(*np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    assert type(A0.is_real) is bool
    cfg = _random_config(defects=[media.Defect(media.Circle((0, 0), 1.0), A0, 1.0)])
    doc = json.loads(json.dumps(media.validate_assumptions(cfg)))
    assert doc["verdict"] == "satisfied" and doc["defects"][0]["im_a0_zero"] is True
