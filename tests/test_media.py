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


VOID = media.SymTensor2(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# tensors


def test_tensor_helpers():
    t = media.SymTensor2(2.0, 0.5, 3.0, -0.1, 0.0, -0.2)
    assert np.array_equal(t.real(), [[2.0, 0.5], [0.5, 3.0]])
    assert np.array_equal(t.imag(), [[-0.1, 0.0], [0.0, -0.2]])
    assert not t.is_real
    assert media.SymTensor2(1.0, 0.0, 1.0).is_real


# ---------------------------------------------------------------------------
# shapes


def test_shape_contains_basics():
    c = media.Ellipse((0, 0), 1.0, 1.0)
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
        media.Ellipse((0, 0), 1.0, -1.0)
    with pytest.raises(ConfigInvalid):
        media.Rectangle(1, -1, 0, 1)
    with pytest.raises(ConfigInvalid):
        media.Union((media.Ellipse((0, 0), 1.0, 1.0),))


def test_union_overlap_detected():
    u = media.Union((media.Ellipse((0, 0), 1.0, 1.0), media.Ellipse((0.5, 0), 1.0, 1.0)))
    with pytest.raises(ConfigInvalid):
        u.check_disjoint(0.1)
    ok = media.Union((media.Ellipse((-1, 0), 0.4, 0.4), media.Ellipse((1, 0), 0.4, 0.4)))
    ok.check_disjoint(0.1)


def test_shape_from_dict():
    specs = [
        # a circle is an ellipse with equal semi-axes
        ({"type": "circle", "center": [0.5, -1.0], "radius": 0.3},
         media.Ellipse((0.5, -1.0), 0.3, 0.3)),
        ({"type": "ellipse", "center": [0.5, 1.0], "semi_a": 0.5, "semi_b": 0.3},
         media.Ellipse((0.5, 1.0), 0.5, 0.3)),
        ({"type": "rectangle", "xmin": -1, "xmax": 1, "ymin": -2, "ymax": 2},
         media.Rectangle(-1, 1, -2, 2)),
        ({"type": "union", "members": [
            {"type": "circle", "center": [-1, 1], "radius": 0.3},
            {"type": "circle", "center": [1, -1], "radius": 0.3}]},
         media.Union((media.Ellipse((-1, 1), 0.3, 0.3), media.Ellipse((1, -1), 0.3, 0.3)))),
    ]
    for d, s in specs:
        assert media.shape_from_dict(d) == s
    with pytest.raises(ConfigInvalid):
        media.shape_from_dict({"type": "pentagon"})
    for radius in (0.0, -0.3):
        with pytest.raises(ConfigInvalid, match="circle radius must be positive"):
            media.shape_from_dict({"type": "circle", "center": [0.0, 0.0], "radius": radius})


def test_bounding_radius():
    assert media.bounding_radius(media.Ellipse((0, 0), 1.0, 1.0)) == pytest.approx(1.0)
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
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
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
        media.Ellipse((0, 0), 0.5, 0.5), media.SymTensor2(1.0, 0.0, 1.0, 0.5, 0.0, 0.5), 1.0
    )
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[gain]).validate(0.1)
    # Im(n0) must be nonnegative
    lossy_wrong = media.Defect(media.Ellipse((0, 0), 0.5, 0.5), VOID, 1.0 - 0.5j)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[lossy_wrong]).validate(0.1)


def test_validate_rejects_defect_touching_boundary():
    touching = media.Defect(media.Ellipse((0, 0), 2.0, 2.0), VOID, 1.0)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[touching]).validate(0.1)
    near = media.Defect(media.Ellipse((1.5, 0), 0.49, 0.49), VOID, 1.0)  # margin 0.01 < h
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[near]).validate(0.1)


def test_validate_rejects_overlapping_defects():
    d1 = media.Defect(media.Ellipse((0, 0), 0.5, 0.5), VOID, 1.0)
    d2 = media.Defect(media.Ellipse((0.3, 0), 0.5, 0.5), VOID, 1.0)
    with pytest.raises(ConfigInvalid):
        _random_config(defects=[d1, d2]).validate(0.1)


def test_min_wavelength_formula():
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
    # a_min = 0.5 (host), n_max = 3 (host): lambda = 2 pi / (k sqrt(3/0.5))
    assert cfg.min_wavelength() == pytest.approx(2 * np.pi / np.sqrt(6.0))


# ---------------------------------------------------------------------------
# coefficient sampling


def _pointwise_coefficients(config, p):
    """Reference: coefficients (SymTensor2, complex n) of the medium at one point;
    outside D they are (I, 1)."""
    pt = np.asarray(p, dtype=float).reshape(1, 2)
    for d in config.defects:
        if bool(d.shape.contains(pt)[0]):
            return d.A0, complex(d.n0)
    if bool(config.host.shape.contains(pt)[0]):
        return config.host.A, complex(config.host.n)
    return media.SymTensor2(1.0, 0.0, 1.0), 1.0 + 0.0j


def _coefficients(config, xs, ys):
    """(a11, a12, a22, n) arrays of the medium on the grid, from its region indices."""
    table = media.coefficient_table(config)
    return np.moveaxis(table[media.sample_grid(config, xs, ys)], -1, 0)


def _grid_coefficients_at(config, p):
    """The one-point grid at p, as (a11, a12, a22, n) scalars."""
    return tuple(v[0, 0] for v in _coefficients(config, [p[0]], [p[1]]))


def _two_defect_config():
    # a void and a lossy anisotropic defect, so every region has its own row
    lossy = media.SymTensor2(0.3, 0.05, 0.4, -0.01, 0.0, -0.02)
    return _random_config(A=media.SymTensor2(0.6, 0.1, 0.7), defects=[
        media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0),
        media.Defect(media.Ellipse((1.2, -1.0), 0.4, 0.3), lossy, 2.0 + 0.1j),
    ])


def test_sample_coefficients_piecewise():
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
    # outside D, in the host, in the defect
    assert [int(media.sample_grid(cfg, [x], [x])[0, 0]) for x in (10.0, 1.5, 0.0)] == [0, 1, 2]
    assert _grid_coefficients_at(cfg, (10.0, 10.0)) == (1.0, 0.0, 1.0, 1.0)
    assert _grid_coefficients_at(cfg, (1.5, 1.5)) == (0.5, 0.0, 0.5, 3.0)
    assert _grid_coefficients_at(cfg, (0.0, 0.0)) == (1.0, 0.0, 1.0, 1.0)
    # the background has no defect
    assert cfg.background().defects == () and cfg.background().host == cfg.host
    assert _grid_coefficients_at(cfg.background(), (0.0, 0.0)) == (0.5, 0.0, 0.5, 3.0)


def test_sample_grid_matches_pointwise(rng):
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
    xs = np.linspace(-3, 3, 13)
    ys = np.linspace(-3, 3, 11)
    for medium in (cfg, cfg.background()):
        a11, a12, a22, n = _coefficients(medium, xs, ys)
        for _ in range(30):
            ix, iy = rng.integers(13), rng.integers(11)
            t, nn = _pointwise_coefficients(medium, (xs[ix], ys[iy]))
            c = t.real() + 1j * t.imag()
            assert (a11[iy, ix], a12[iy, ix], a22[iy, ix]) == (c[0, 0], c[0, 1], c[1, 1])
            assert n[iy, ix] == nn


def test_coefficient_table_of_regions_matches_pointwise(rng):
    # every point of one grid, and of each grid of a batched call
    cfg = _two_defect_config()

    def reference(xs, ys):
        out = np.empty((4, len(ys), len(xs)), dtype=complex)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                t, n = _pointwise_coefficients(cfg, (x, y))
                c = t.real() + 1j * t.imag()
                out[:, iy, ix] = c[0, 0], c[0, 1], c[1, 1], n
        return out

    xs, ys = np.linspace(-2.5, 2.5, 41), np.linspace(-2.5, 2.5, 37)
    assert np.array_equal(_coefficients(cfg, xs, ys), reference(xs, ys))
    bxs, bys = rng.uniform(-2.5, 2.5, (3, 19)), rng.uniform(-2.5, 2.5, (3, 17))
    batched = _coefficients(cfg, bxs, bys)
    for b in range(3):
        assert np.array_equal(batched[:, b], reference(bxs[b], bys[b]))


def test_sample_grid_batches_match_single_grids(rng):
    cfg = _two_defect_config()
    xs = rng.uniform(-3, 3, (4, 7))
    ys = rng.uniform(-3, 3, (4, 5))
    batched = media.sample_grid(cfg, xs, ys)
    assert batched.shape == (4, 5, 7)
    for b in range(4):
        assert np.array_equal(batched[b], media.sample_grid(cfg, xs[b], ys[b]))


def test_sample_grid_labels_past_any_small_integer_type():
    # 130 disjoint discs in rows of 13: labels 2..131, past int8's 127
    cx, cy = -1.8 + 0.3 * np.arange(13), -1.35 + 0.3 * np.arange(10)
    cfg = _random_config(defects=[
        media.Defect(media.Ellipse((x, y), 0.05, 0.05), VOID, 1.0) for y in cy for x in cx
    ])
    region = media.sample_grid(cfg, cx, cy)
    assert region[-1, -1] == 131
    assert np.array_equal(region, 2 + np.arange(130).reshape(10, 13))
    assert len(media.coefficient_table(cfg)) == 132


def test_background_agrees_outside_defects():
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
    xs = np.linspace(-3, 3, 25)
    tot = _coefficients(cfg, xs, xs)
    bg = _coefficients(cfg.background(), xs, xs)
    xx, yy = np.meshgrid(xs, xs)
    outside = ~cfg.defects[0].shape.contains(np.stack((xx, yy), axis=-1))
    for t, b in zip(tot, bg):
        assert np.array_equal(t[outside], b[outside])
    # the background's regions are the scene's with every defect back in the host
    assert np.array_equal(
        media.sample_grid(cfg.background(), xs, xs), np.minimum(media.sample_grid(cfg, xs, xs), 1)
    )


# ---------------------------------------------------------------------------
# hypothesis validation


def test_assumptions_reference_void():
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
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
              media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)):
        cfg = _random_config(A=A, defects=[d])
        fwd, bwd = np.inf, np.inf
        for p in media.interior_points(d.shape, 200):
            a = _pointwise_coefficients(cfg.background(), p)[0].real()
            m1, m2 = d.A0.real() - a, a - d.A0.real()
            fwd = min(fwd, np.linalg.eigvalsh(m1)[0])
            bwd = min(bwd, np.linalg.eigvalsh(m2)[0])
        got = media.validate_assumptions(cfg)["defects"][0]
        assert (got["min_eig_re_a0_minus_a"], got["min_eig_a_minus_re_a0"]) == (fwd, bwd)


def test_assumptions_zero_contrast_violated():
    same = media.Defect(media.Ellipse((0, 0), 1.0, 1.0), media.SymTensor2(0.5, 0.0, 0.5), 3.0)
    rep = media.validate_assumptions(_random_config(defects=[same]))
    assert rep["verdict"] == "violated"
    assert rep["defects"][0]["branch"] is None


def test_assumptions_absorbing_branch():
    # lossy defect with small negative-semidefinite Im(A0)
    A0 = media.SymTensor2(0.2, 0.0, 0.2, -0.01, 0.0, -0.01)
    d = media.Defect(media.Ellipse((0, 0), 1.0, 1.0), A0, 3.0 + 0.1j)
    rep = media.validate_assumptions(_random_config(defects=[d]))
    assert rep["verdict"] == "satisfied"
    d = rep["defects"][0]
    assert d["branch"] == "absorbing_alpha"
    assert d["alpha"] is not None
    assert not d["im_a0_zero"]
    assert not d["im_n0_zero"]


def test_absorbing_branch_takes_the_least_admissible_alpha():
    # Re(A0) - |Im(A0)|/alpha >= 0 needs alpha >= 0.33 / 0.3 = 1.1, where the
    # margin 0.7 - 0.3 - 1.1 * 0.33 = 0.037 > 0; at the next point of a
    # 61-point log grid, 1.259, the margin is already -0.015
    A0 = media.SymTensor2(0.3, 0.0, 0.3, -0.33, 0.0, -0.33)
    d = media.Defect(media.Ellipse((0, 0), 1.0, 1.0), A0, 3.0)
    rep = media.validate_assumptions(
        _random_config(A=media.SymTensor2(0.7, 0.0, 0.7), defects=[d])
    )
    assert rep["verdict"] == "satisfied"
    assert rep["defects"][0]["branch"] == "absorbing_alpha"
    assert rep["defects"][0]["alpha"] == pytest.approx(1.1, abs=1e-12)


def _spd(rng, lo, hi):
    """A random symmetric 2x2 with eigenvalues in [lo, hi)."""
    t = rng.uniform(0, np.pi)
    q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return (q * rng.uniform(lo, hi, 2)) @ q.T


def test_absorbing_alpha_is_admissible_and_beats_every_grid_alpha(rng):
    # random SPD A and Re(A0) and negative definite Im(A0); the reference
    # |Im(A0)| comes from an eigendecomposition
    def margin(m):  # of one tensor or of a stack
        return np.linalg.eigvalsh(m)[..., 0]

    grid = np.logspace(-3, 3, 601)[:, None, None]
    absorbing = []
    for _ in range(300):
        a, re0, im0 = _spd(rng, 0.3, 2.0), _spd(rng, 0.05, 1.0), -_spd(rng, 0.01, 0.5)
        A = media.SymTensor2(a[0, 0], a[0, 1], a[1, 1])
        A0 = media.SymTensor2(re0[0, 0], re0[0, 1], re0[1, 1], im0[0, 0], im0[0, 1], im0[1, 1])
        d = media.Defect(media.Ellipse((0, 0), 1.0, 1.0), A0, 3.0)
        got = media.validate_assumptions(_random_config(A=A, defects=[d]))["defects"][0]
        if got["branch"] == "re_a0_minus_a":
            continue
        a, re0 = A.real(), A0.real()
        w, v = np.linalg.eigh(A0.imag())
        abs_im = (v * np.abs(w)) @ v.T
        feasible = margin(re0 - abs_im / grid) >= -1e-12
        best_grid = np.max(margin(a - re0 - grid * abs_im), initial=-np.inf, where=feasible)
        alpha = got["alpha"]
        absorbing.append(alpha is not None)
        if alpha is None:
            assert got["branch"] is None
            assert best_grid <= media.DEFINITENESS_TOL
        else:
            assert got["branch"] == "absorbing_alpha"
            assert margin(re0 - abs_im / alpha) >= -1e-12
            assert best_grid <= margin(a - re0 - alpha * abs_im) + 1e-12
    assert 10 < sum(absorbing) < len(absorbing) - 10


def test_absorbing_branch_when_re_a0_has_no_cholesky_factor():
    # [[1, 3], [3, 9]] is singular: eigvalsh calls it positive definite by
    # rounding (lambda_min = 1.1e-16), but it has no Cholesky factor and so no
    # Young constant; `validate` rejects it before the branch is sought
    A0 = media.SymTensor2(1.0, 3.0, 9.0, -0.1, 0.0, -0.1)
    assert np.linalg.eigvalsh(A0.real())[0] > 0
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), A0, 3.0)])
    with pytest.raises(ConfigInvalid, match=r"defect 0: Re\(A0\) must be positive definite"):
        cfg.validate(0.1)
    with pytest.raises(ConfigInvalid, match=r"Re\(A0\) must be positive definite"):
        media.validate_assumptions(cfg)


# rank-one tensors v v^T, singular in exact arithmetic; eigvalsh gives
# [[1, 3], [3, 9]] a positive lambda_min by rounding
SINGULAR = [np.outer(v, v) for v in ([1.0, 3.0], [1.0, 2.0], [0.3, 0.7], [2.0, -3.0])]


def test_singular_tensors_are_not_definite_by_rounding():
    def scene(re, im=np.zeros((2, 2)), host=VOID):
        a0 = media.SymTensor2(re[0, 0], re[0, 1], re[1, 1], im[0, 0], im[0, 1], im[1, 1])
        defect = media.Defect(media.Ellipse((0, 0), 1.0, 1.0), a0, 3.0)
        return _random_config(A=host, defects=[defect])

    for m in SINGULAR:
        for scale in (1e-6, 1.0, 1e6):
            t = scale * m
            with pytest.raises(ConfigInvalid, match="host tensor A must be positive definite"):
                scene(np.eye(2), host=media.SymTensor2(t[0, 0], t[0, 1], t[1, 1])).validate(0.1)
            with pytest.raises(ConfigInvalid, match=r"Re\(A0\) must be positive definite"):
                scene(t).validate(0.1)
            # an Im(A0) of -t is negative semidefinite, whatever sign rounding
            # gives its zero eigenvalue; shifted up by 1e-9 of its scale it is not
            scene(np.eye(2), -t).validate(0.1)
            with pytest.raises(ConfigInvalid, match=r"Im\(A0\) must be negative semidefinite"):
                scene(np.eye(2), 1e-9 * np.abs(t).max() * np.eye(2) - t).validate(0.1)


def test_every_re_a0_validate_accepts_has_a_cholesky_factor(rng):
    # near the rule's edge: condition numbers from 1e10 to 1e14 at scales
    # from 1e-3 to 1e3, and the singular tensors, as given and with each entry
    # moved by a few units in the last place
    tensors = []
    for _ in range(2000):
        t = rng.uniform(0, np.pi)
        q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        lam = 10.0 ** rng.uniform(-3, 3) * np.array([10.0 ** -rng.uniform(10, 14), 1.0])
        tensors.append((q * lam) @ q.T)
    for m in SINGULAR:
        tensors.append(m)
        for _ in range(200):
            tensors.append(m * (1 + rng.uniform(-1e-15, 1e-15, (2, 2))))
    accepted = 0
    for t in tensors:
        re0 = media.SymTensor2(t[0, 0], t[0, 1], t[1, 1])
        cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), re0, 3.0)])
        try:
            cfg.validate(0.1)
        except ConfigInvalid:
            continue
        accepted += 1
        np.linalg.cholesky(re0.real())  # raises LinAlgError where there is none
    assert 100 < accepted < len(tensors) - 100


def test_assumptions_report_serializable():
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), VOID, 1.0)])
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
    cfg = _random_config(defects=[media.Defect(media.Ellipse((0, 0), 1.0, 1.0), A0, 1.0)])
    doc = json.loads(json.dumps(media.validate_assumptions(cfg)))
    assert doc["verdict"] == "satisfied" and doc["defects"][0]["im_a0_zero"] is True
