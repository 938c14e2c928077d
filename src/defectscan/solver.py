"""Direct scattering solver.

Discretizes the divergence-form operator div(A grad u) + k^2 n u on a uniform
node grid with a flux-form 9-point stencil (face-averaged tensors, mixed terms
by rotated differences over cell-centered a12) and a quadratic complex-stretch
PML collar, its coefficients sampled once per medium as integer tile counts.
The operator stores only its nonzero entries: 5 per node where the four cells
around a node have a12 = 0 (every isotropic region and the whole collar), up
to 9 elsewhere.  It is complex symmetric (A = A^T bit for bit, collar
included), so its rows are written as its CSC columns, and each medium is
factorized once by SuperLU in symmetric mode: a minimum-degree ordering of
A + A^T, which sees only the stored pattern, and threshold pivoting at 0.1
that prefers the diagonal.
That factorization solves the incident directions in blocks of BLOCK; a
medium that some of the square's eight symmetries leave unchanged
(`symmetry_group`) needs one direction per orbit of them, N / 8 + 1 when
all eight do.  Far fields are extracted with the boundary-integral
representation over a circle, sampling the grid fields with a
tensor-product not-a-knot cubic spline built in numpy (uniform B-splines,
so the CLI need not import scipy.interpolate) and fitted only over the
span the points reach; an angular-mode series for the isotropic
penetrable disc serves as the analytic oracle.

Importing the module loads no scipy, so reading a run file does not pay for
it.  Setting up a medium loads scipy.sparse.linalg, and with it scipy.linalg;
sampling fields needs only scipy.sparse, so reconstruct loads no more; the
oracle loads scipy.special.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import media
from .errors import ConfigInvalid, ModeSystemSingular, SingularSystem

FACTOR_PROBE_TOL = 1e-10
PIVOT_TOL = 1e-14  # 1 / the largest condition number a factorization may show
BLOCK = 8  # directions per solve call and fields per spline fit: small transients
SUBCELLS = 16  # subsamples per node-patch side in `_sample_coefficients`, 8 per tile
M_QUAD = 256  # trapezoidal nodes on the far-field circle


def gamma2(k: float) -> complex:
    """2D far-field normalization constant e^{i pi/4} / sqrt(8 pi k)."""
    return np.exp(1j * np.pi / 4) / math.sqrt(8 * np.pi * k)


# ---------------------------------------------------------------------------
# grid


# nodes per axis: 4096^2 unknowns are far beyond a sparse LU on one machine
MAX_NODES = 4096


@dataclass(frozen=True)
class GridSpec:
    """Uniform node grid on [-L, L]^2 plus a PML collar of pml_cells cells
    (default and minimum 8), of strength 30 / (k * T) with T the collar width."""

    half_extent: float
    h: float
    pml_cells: int = 8

    def __post_init__(self):
        if self.h <= 0 or self.half_extent <= 0:
            raise ConfigInvalid("grid spacing and half extent must be positive")
        if self.pml_cells < 8:
            raise ConfigInvalid("need at least 8 PML cells")
        cells = 2 * self.half_extent / self.h
        if not cells < MAX_NODES:  # round() raises OverflowError on an infinite count
            raise ConfigInvalid(f"grid needs {cells:g} cells per axis, at most {MAX_NODES} nodes")
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
            raise ConfigInvalid("2 * half_extent / h must be an integer")
        if self.n_nodes > MAX_NODES:
            raise ConfigInvalid(f"grid needs {self.n_nodes} nodes per axis, at most {MAX_NODES}")

    @property
    def interior_cells(self) -> int:
        return int(round(2 * self.half_extent / self.h))

    @property
    def n_nodes(self) -> int:
        return self.interior_cells + 2 * self.pml_cells + 1

    @property
    def pml_width(self) -> float:
        return self.pml_cells * self.h

    def coords(self) -> np.ndarray:
        start = -(self.half_extent + self.pml_width)
        return start + self.h * np.arange(self.n_nodes)

    def resolved_strength(self, k: float) -> float:
        return 30.0 / (k * self.pml_width)

    def validate_for(self, config: media.MediaConfig):
        rad = media.bounding_radius(config.host.shape)
        if self.half_extent < 1.5 * rad - 1e-12:
            raise ConfigInvalid(
                f"half_extent {self.half_extent:g} < 1.5 x host radius {rad:g}"
            )
        lam = config.min_wavelength()
        if self.h > lam / 10 + 1e-12:
            raise ConfigInvalid(f"h {self.h:g} exceeds lambda_min/10 = {lam / 10:g}")


@functools.lru_cache(maxsize=4)
def _spline_fit(n: int) -> np.ndarray:
    """(n + 2, n) matrix taking data at n uniform nodes to the coefficients of
    its not-a-knot cubic spline in the uniform cubic B-spline basis; cached
    and read-only.

    Coefficient j weights the B-spline centred on node j - 1.  Rows: the
    third derivative is continuous at the second and second-to-last nodes
    (1, -4, 6, -4, 1), and the spline interpolates every node (1, 4, 1) / 6.
    """
    m = np.zeros((n + 2, n + 2))
    m[1:-1] = (np.eye(n, n + 2) + 4 * np.eye(n, n + 2, 1) + np.eye(n, n + 2, 2)) / 6
    m[0, :5] = m[-1, -5:] = (1, -4, 6, -4, 1)
    fit = np.linalg.inv(m)[:, 1:-1]
    fit.flags.writeable = False
    return fit


def _spline_rows(c: np.ndarray, h: float, x: np.ndarray):
    """Coefficient indices (P, 4) and weights (P, 4) of the four B-splines
    that are nonzero at each point x on the uniform nodes c (spacing h)."""
    if not np.all((x >= c[0]) & (x <= c[-1])):
        raise ConfigInvalid(f"sample points must lie in [{c[0]:g}, {c[-1]:g}]")
    u = (x - c[0]) / h
    span = np.clip(np.floor(u), 0, len(c) - 2)  # the last node closes the last span
    t = (u - span)[:, None]
    weights = np.hstack([
        (1 - t) ** 3, 3 * t**3 - 6 * t**2 + 4, -3 * t**3 + 3 * t**2 + 3 * t + 1, t**3,
    ]) / 6
    return span.astype(int)[:, None] + np.arange(4), weights


def sample_fields(spec: GridSpec, values: np.ndarray, x, y, gradient: bool = False,
                  weights: np.ndarray | None = None) -> list:
    """Tensor-product not-a-knot cubic splines through a stack of grid fields,
    evaluated at the points (x[p], y[p]) of the node grid.

    Fits every field of `values` (..., n_nodes, n_nodes), indexed [y, x],
    over the coefficients the points reach (so the samples agree with the
    whole grid's fit to rounding) and returns one array (..., P) per
    quantity: [values], or with `gradient=True` [values, d/dx, d/dy] of each
    field's np.gradient planes.
    With `weights` (K, M) for the M fields of `values`, it samples the K
    fields weights @ values instead, each formed only when its block is fitted.
    Fitting and np.gradient are linear, so each is a matrix applied along
    one axis and the gradient planes are never formed.  Evaluation is a
    sparse row-Kronecker product of B-spline design rows; the fields are
    fitted BLOCK at a time, each quantity's coefficients evaluated and freed
    before the next is formed.  Raises ConfigInvalid for a point off the grid.
    """
    from scipy.sparse import csr_matrix

    c = spec.coords()
    n = len(c)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    values = np.ascontiguousarray(values, dtype=complex)
    stack, p = values.reshape(-1, n * n), len(x)
    batch = values.shape[:-2] if weights is None else weights.shape[:1]
    fit = _spline_fit(n)  # column j: coefficients of the spline through datum e_j

    ix, wx = _spline_rows(c, spec.h, x)
    iy, wy = _spline_rows(c, spec.h, y)
    if not p:
        return [np.empty(batch + (0,), dtype=complex) for _ in range(3 if gradient else 1)]
    xs, ys = (slice(i.min(), i.max() + 1) for i in (ix, iy))
    nx, ny = xs.stop - xs.start, ys.stop - ys.start
    cols = (ix.reshape(p, 4, 1) - xs.start) * ny + iy.reshape(p, 1, 4) - ys.start
    data = wx.reshape(p, 4, 1) * wy.reshape(p, 1, 4)
    rows = csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, 16 * p + 1, 16)), shape=(p, nx * ny)
    )

    def along_y(m, z):  # [field, y, x] -> [x, (a, field)], ready for the x fit
        return (m[ys] @ z).view(complex).transpose(2, 1, 0).copy().reshape(n, -1)

    def evaluate(m, w):  # x fit -> coefficients [(b, a), (field, re/im)] -> samples [field, p]
        coef = (m[xs] @ w.view(float)).reshape(nx * ny, -1)
        return (rows @ coef).view(complex).T

    dfit = fit @ np.gradient(np.eye(n), spec.h, axis=0) if gradient else None
    out = [np.empty((math.prod(batch), p), dtype=complex) for _ in range(3 if gradient else 1)]
    for i in range(0, len(out[0]), BLOCK):
        block = slice(i, i + BLOCK)
        z = stack[block] if weights is None else weights[block] @ stack
        z = z.reshape(-1, n, n).view(float)  # real matrices act on (re, im) pairs
        w = along_y(fit, z)
        out[0][block] = evaluate(fit, w)
        if gradient:
            out[1][block] = evaluate(dfit, w)
            out[2][block] = evaluate(fit, along_y(dfit, z))
        del z, w  # before the next block's fields are formed
    return [o.reshape(batch + (p,)) for o in out]


# ---------------------------------------------------------------------------
# assembly


def _stretch(coords, L, T, k, strength):
    """Complex PML stretch s(x) = 1 + i sigma(x)/k, sigma quadratic in the collar."""
    depth = np.maximum(np.abs(coords) - L, 0.0)
    sigma = strength * (depth / T) ** 2
    return 1.0 + 1j * sigma / k


def _sample_coefficients(config, c, h):
    """Subcell-averaged planes of the node grid c, indexed [y, x]: a11 on
    x-faces, a22 on y-faces, a12 on cell centres and n on nodes.

    Volume-fraction averaging smears the staircase error of piecewise-constant
    media over material interfaces; away from interfaces it is exact.  Each
    region's subsamples are counted as integers in h/2 x h/2 tiles, SUBCELLS^2
    / 4 per tile; a node, face or cell patch is the four tiles it covers, and
    its value is sum_r count_r * coefficient_table[r] / SUBCELLS^2.  The
    subsamples of a node's h x h patch lie within 15 sqrt(2) h / 32 of it, so
    a patch whose node is more than h / sqrt(2) from every material boundary
    is uniform.  Only the narrow band of the others is subsampled, so the cost
    grows with perimeter / h rather than area / h^2.
    """
    table = media.coefficient_table(config)
    n, nr, half = len(c), len(table), SUBCELLS // 2
    # allocated before the band's transients, the planes do not split the hole those
    # leave on the heap: fine_grid's peak RSS 107.4 -> 103.3 MB in 4 of 4 benchmark pairs
    planes = [np.empty((n - fy, n - fx), complex) for fy, fx in ((0, 1), (1, 0), (1, 1), (0, 0))]
    # counts[r, y, ty, x, tx]: subsamples of region r in tile (ty, tx) of node patch (y, x)
    counts = np.empty((nr, n, 2, n, 2), dtype=np.int16)
    region = np.equal.outer(np.arange(nr), media.sample_grid(config, c, c))
    counts[...] = region[:, :, None, :, None] * half**2
    shapes = [config.host.shape] + [d.shape for d in config.defects]
    pts = np.stack(np.meshgrid(c, c), axis=-1)
    near = np.min([s.boundary_distance(pts) for s in shapes], axis=0) <= h / math.sqrt(2)
    iy, ix = np.nonzero(near)
    offs = h * ((np.arange(SUBCELLS) + 0.5) / SUBCELLS - 0.5)
    sub = media.sample_grid(config, c[ix, None] + offs, c[iy, None] + offs)  # [patch, y, x]
    tile = np.arange(SUBCELLS) // half
    label = ((np.arange(len(iy))[:, None, None] * nr + sub) * 2 + tile[:, None]) * 2 + tile
    tally = np.bincount(label.ravel(), minlength=4 * nr * len(iy))
    counts[:, iy, :, ix] = tally.reshape(-1, nr, 2, 2)

    # tiles (2i, 2i + 1) along an axis make node patch i, (2i + 1, 2i + 2) face i
    counts = counts.reshape(nr, 2 * n, 2 * n)
    rows = [counts[:, f:2 * n - f:2] + counts[:, f + 1:2 * n - f:2] for f in (0, 1)]
    for plane, (fy, fx, column) in zip(planes, ((0, 1, 0), (1, 0, 2), (1, 1, 1), (0, 0, 3))):
        cnt = rows[fy][..., fx:2 * n - fx:2] + rows[fy][..., fx + 1:2 * n - fx:2]
        plane[...] = sum(k * v for k, v in zip(cnt, table[:, column])) / SUBCELLS**2
    return planes


class FactorizedSystem:
    """Factorized discretization of one medium: a scene, or its background."""

    def __init__(self, spec: GridSpec, config: media.MediaConfig):
        # load the sparse LU before any array of the medium exists: imported
        # between the coefficient planes, its modules land amid them on the
        # heap and fine_grid's peak RSS rose by 8-10 MB
        import scipy.sparse.linalg  # noqa: F401

        self.spec = spec
        self.config = config
        self.k = config.k

        self._coords = c = spec.coords()
        h, k = spec.h, self.k

        # the same planes drive both the operator and the contrast RHS
        self._face_x, self._face_y, self._cc, self._n = _sample_coefficients(config, c, h)

        strength = spec.resolved_strength(k)
        L, T = spec.half_extent, spec.pml_width
        s = _stretch(c, L, T, k, strength)
        sf = _stretch(c[:-1] + h / 2, L, T, k, strength)  # at faces / cell centers

        # stretched face/mass coefficients; a12 is zero inside the collar so
        # the cross term needs no stretching
        fx = self._face_x * (s[:, None] / sf[None, :])
        fy = self._face_y * (s[None, :] / sf[:, None])
        cc = self._cc
        mass = (k * k) * self._n * (s[None, :] * s[:, None])

        self._assemble(fx, fy, cc, mass, h)
        del fx, fy, mass  # the operator has its own copies; free them before the LU
        self._factorize()

    # -- matrix construction -------------------------------------------------

    def _assemble(self, fx, fy, cc, mass, h):
        from scipy.sparse import csc_matrix

        ni = self.spec.n_nodes - 2  # interior nodes per axis (outer ring is Dirichlet zero)
        self.n_interior = ni
        inv_h2 = 1.0 / (h * h)

        # coefficient planes on interior nodes (full-grid indices 1..nn-2)
        east, west = fx[1:-1, 1:] * inv_h2, fx[1:-1, :-1] * inv_h2
        north, south = fy[1:, 1:-1] * inv_h2, fy[:-1, 1:-1] * inv_h2
        half = 0.5 * inv_h2
        ne, sw = cc[1:, 1:] * half, cc[:-1, :-1] * half
        se, nw = -cc[:-1, 1:] * half, -cc[1:, :-1] * half
        center = mass[1:-1, 1:-1] - (east + west + north + south) - (ne + sw + se + nw)
        # entry (j, i, 3 (dj + 1) + di + 1) couples interior node (j, i) to node
        # (j + dj, i + di): row j * ni + i, its columns ascending, and as A = A^T
        # bit for bit, also that node's CSC column
        stack = np.stack([sw, south, se, west, center, east, nw, north, ne], axis=-1)
        # neighbours on the Dirichlet ring are not unknowns
        stack[0, :, :3] = stack[-1, :, 6:] = stack[:, 0, ::3] = stack[:, -1, 2::3] = 0

        # SuperLU orders and fills every stored entry, zero or not: keep the
        # mixed-term entries only where a12 != 0.  A zero diagonal would go
        # too, but the pivoting treats it as it would a stored zero
        keep = stack != 0
        neighbours = (np.arange(-1, 2)[:, None] * ni + np.arange(-1, 2)).ravel().astype(np.int32)
        # int32, as the CSC keeps them, so the matrix takes them without a copy
        indices = (np.arange(ni * ni, dtype=np.int32).reshape(ni, ni, 1) + neighbours)[keep]
        indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=-1), axis=None)), dtype=np.int32)
        self.op = csc_matrix((stack[keep], indices, indptr), shape=(ni * ni, ni * ni))
        self.bandwidth = ni + 1  # half-bandwidth in the natural node ordering

    def _factorize(self):
        from scipy.sparse.linalg import splu

        try:
            self._lu = splu(self.op, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                            options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystem(f"sparse LU failed: {exc}") from exc
        self.fill = self._lu.nnz  # entries of L + U stored by SuperLU

        # probe solve on a deterministic random right-hand side.  ||A||_inf
        # ||x||_inf / ||b||_inf is a lower bound on cond_inf(A); reading it
        # here, not diag(U), keeps SuperLU from caching CSC copies of L and U
        n = self.op.shape[0]
        rng = np.random.default_rng(12345)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = self._lu.solve(b)
        row_scale = np.max(np.abs(self.op).sum(axis=1))
        if row_scale * np.abs(x).max() > np.abs(b).max() / PIVOT_TOL:
            raise SingularSystem(f"condition number above {1 / PIVOT_TOL:.0e}")
        self.probe_residual = float(np.linalg.norm(self.op @ x - b) / np.linalg.norm(b))
        if self.probe_residual > FACTOR_PROBE_TOL:
            raise SingularSystem(
                f"factorization probe residual {self.probe_residual:.2e} too large"
            )

    def solve_grid(self, b_interior: np.ndarray) -> np.ndarray:
        """Solve for the interior unknowns of one right-hand side (ni, ni), or
        a stack (..., ni, ni) in one call, and embed into the full node grid:
        (..., n_nodes, n_nodes), row-major [y, x]."""
        ni, nn = self.n_interior, self.spec.n_nodes
        batch = np.shape(b_interior)[:-2]
        b = np.asarray(b_interior, dtype=complex).reshape(-1, ni * ni).T
        full = np.zeros(batch + (nn, nn), dtype=complex)
        full[..., 1:-1, 1:-1] = self._lu.solve(b).T.reshape(batch + (ni, ni))
        return full


def assemble_system(spec: GridSpec, config: media.MediaConfig) -> FactorizedSystem:
    """Check the scene and grid invariants, then discretize and factorize the medium."""
    config.validate(spec.h)
    spec.validate_for(config)
    return FactorizedSystem(spec, config)


def move_planes(g: tuple, planes: np.ndarray) -> np.ndarray:
    """Planes (..., n, n), indexed [y, x] on the node grid, of fields u moved
    by g = (k, s): k quarter turns about the origin after, if s, the
    diagonal mirror (x, y) -> (y, x).  The moved field is u(g^-1 x)."""
    k, s = g
    return np.rot90(np.swapaxes(planes, -1, -2) if s else planes, -k, axes=(-2, -1))


def symmetry_group(system: FactorizedSystem) -> tuple:
    """The symmetries (k, s) of the square (see `move_planes`) that leave the
    sampled medium unchanged, the identity (0, 0) first.

    Reads the coefficient planes the operator is built from; the node grid
    and the PML collar are symmetric under all eight.  An element that swaps
    the axes (k + s odd) takes x-faces to y-faces, and a quarter turn takes
    a12 to -a12.  Planes must be equal bit for bit: each is formed from
    integer subsample counts in one fixed order, so a moved medium moves its
    planes exactly, while one misplaced subsample moves an average by at
    least 1 / SUBCELLS^2 of a coefficient jump.
    """
    planes = system._face_x, system._face_y, system._cc, system._n

    def fixes(k, s):
        fx, fy, cc, n = planes
        moved = (fy, fx) if (k + s) % 2 else (fx, fy)
        moved += ((-1) ** k * cc, n)
        return all(np.array_equal(a, move_planes((k, s), b)) for a, b in zip(planes, moved))

    # an element that the products of those found so far give needs no check:
    # M R M = R^-1, so R^a M^b R^c M^d = R^(a -+ c) M^(b + d)
    group = {(0, 0)}
    for g in ((1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (3, 1), (3, 0)):
        if g not in group and fixes(*g):
            group.add(g)
            while True:
                grown = {((a + (-1) ** b * c) % 4, b ^ d) for a, b in group for c, d in group}
                if grown == group:
                    break
                group = grown
    return tuple(sorted(group, key=lambda g: (g[1], g[0])))


# ---------------------------------------------------------------------------
# right-hand sides and solves


def _plane_wave(k: float, d: np.ndarray, xs, ys) -> np.ndarray:
    """exp(i k d.x), shape (..., len(ys), len(xs)), for directions d (..., 2),
    from its two separable axis factors."""
    ex = np.exp(1j * k * d[..., 0, None] * xs)
    ey = np.exp(1j * k * d[..., 1, None] * ys)
    return ey[..., :, None] * ex[..., None, :]


def plane_wave_rhs(system: FactorizedSystem, d) -> np.ndarray:
    """Contrast source -[div((A-I) grad u_inc) + k^2 (n-1) u_inc] on interior
    nodes, (..., ni, ni) for directions d (..., 2), with the incident gradient
    evaluated analytically on cell faces.  Every face value and neighbour the
    stencil reads of a plane wave is the node value times a phase, so the
    source is u_inc times a direction-weighted sum of nine coefficient planes.
    """
    c, h, k, ni = system._coords, system.spec.h, system.k, system.n_interior
    d = np.asarray(d, dtype=float)
    ax, ay, cc = system._face_x[1:-1] - 1.0, system._face_y[:, 1:-1] - 1.0, system._cc
    planes = np.stack([
        system._n[1:-1, 1:-1] - 1.0,
        ax[:, 1:], ax[:, :-1], ay[1:], ay[:-1],              # east, west, north, south
        cc[1:, 1:], cc[:-1, :-1], cc[:-1, 1:], cc[1:, :-1],  # ne, sw, se, nw
    ]).reshape(9, ni * ni)
    kx, ky = k * h * d[..., 0], k * h * d[..., 1]
    gx, gy, cross = 1j * kx / h**2, 1j * ky / h**2, 0.5 / h**2
    weights = -np.stack([
        np.full(kx.shape, k * k, dtype=complex),
        gx * np.exp(0.5j * kx), -gx * np.exp(-0.5j * kx),
        gy * np.exp(0.5j * ky), -gy * np.exp(-0.5j * ky),
        cross * (np.exp(1j * (kx + ky)) - 1.0), cross * (np.exp(-1j * (kx + ky)) - 1.0),
        -cross * (np.exp(1j * (kx - ky)) - 1.0), -cross * (np.exp(1j * (ky - kx)) - 1.0),
    ], axis=-1)
    rhs = (weights @ planes).reshape(d.shape[:-1] + (ni, ni))
    rhs *= _plane_wave(k, d, c[1:-1], c[1:-1])
    return rhs


def solve_plane_wave(system: FactorizedSystem, d) -> np.ndarray:
    """Scattered fields for incident plane waves with unit directions d of
    shape (2,) or (..., 2), BLOCK directions per multi-right-hand-side call."""
    d = np.asarray(d, dtype=float)
    if np.any(np.abs(np.hypot(d[..., 0], d[..., 1]) - 1.0) > 1e-12):
        raise ConfigInvalid("incident direction must be a unit vector")
    nn, flat = system.spec.n_nodes, d.reshape(-1, 2)
    out = np.empty((len(flat), nn, nn), dtype=complex)
    for i in range(0, len(flat), BLOCK):
        out[i:i + BLOCK] = system.solve_grid(plane_wave_rhs(system, flat[i:i + BLOCK]))
    return out.reshape(d.shape[:-1] + (nn, nn))


def incident_plane_wave(spec: GridSpec, k: float, d) -> np.ndarray:
    c = spec.coords()
    return _plane_wave(k, np.asarray(d, dtype=float), c, c)


def solve_point_source(system: FactorizedSystem, z) -> np.ndarray:
    """Approximate Green's function of the medium: discrete delta of total
    weight 1/h^2 spread bilinearly over the four nodes surrounding z (keeps
    the source centered at z itself).  Verification-quality only."""
    spec = system.spec
    h = spec.h
    zx, zy = float(z[0]), float(z[1])
    if max(abs(zx), abs(zy)) > spec.half_extent - 4 * h:
        raise ConfigInvalid("source point must stay >= 4h away from the PML collar")
    c = spec.coords()
    ix = int(np.clip(np.searchsorted(c, zx) - 1, 0, len(c) - 2))
    iy = int(np.clip(np.searchsorted(c, zy) - 1, 0, len(c) - 2))
    tx = (zx - c[ix]) / h
    ty = (zy - c[iy]) / h
    ni = system.n_interior
    b = np.zeros((ni, ni), dtype=complex)
    # div(A grad G) + k^2 n G = -delta
    w = -1.0 / (h * h)
    b[iy - 1, ix - 1] += w * (1 - tx) * (1 - ty)
    b[iy - 1, ix] += w * tx * (1 - ty)
    b[iy, ix - 1] += w * (1 - tx) * ty
    b[iy, ix] += w * tx * ty
    return system.solve_grid(b)


# ---------------------------------------------------------------------------
# far-field extraction


def far_field(spec: GridSpec, values: np.ndarray, k: float, r_ff: float, angles) -> np.ndarray:
    """Far-field patterns (..., len(angles)) of radiating grid fields
    (..., n, n) by the boundary-integral representation over the circle of
    radius r_ff (M_QUAD-point trapezoidal rule); one spline fit samples every field."""
    if not (0 < r_ff <= spec.half_extent - 4 * spec.h):
        raise ConfigInvalid(f"extraction radius {r_ff:g} must lie in (0, L - 4h]")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))

    phi = 2 * np.pi * np.arange(M_QUAD) / M_QUAD
    cp, sp_ = np.cos(phi), np.sin(phi)
    yx, yy = r_ff * cp, r_ff * sp_
    u, gx, gy = sample_fields(spec, values, yx, yy, gradient=True)
    du = cp * gx + sp_ * gy

    xhat_x, xhat_y = np.cos(angles), np.sin(angles)
    phase = np.exp(-1j * k * (np.outer(xhat_x, yx) + np.outer(xhat_y, yy)))
    cos_xn = np.outer(xhat_x, cp) + np.outer(xhat_y, sp_)
    integral = u @ (-1j * k * cos_xn * phase).T - du @ phase.T
    return gamma2(k) * integral * (2 * np.pi * r_ff / M_QUAD)


# ---------------------------------------------------------------------------
# analytic oracle: isotropic penetrable disc


def mie_far_field(
    a: float, n: float, radius: float, k: float, d_angle: float, angles,
    extra_modes: int = 12,
) -> np.ndarray:
    """Far field of a plane wave scattered by the disc {|x| < radius} with
    interior coefficients (a I, n), by angular-mode matching.

    Matches u and a * du/dr at the rim; exterior modes H_m^(1)(kr), interior
    J_m(k_int r) with k_int = k sqrt(n / a).
    """
    from scipy.special import h1vp, hankel1, jv, jvp  # the oracle's only user

    if a <= 0 or n <= 0 or radius <= 0:
        raise ConfigInvalid("disc parameters must be positive")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    kappa = k * math.sqrt(n / a)
    mmax = int(math.ceil(k * radius)) + extra_modes
    b = np.zeros(mmax + 1, dtype=complex)
    for m in range(mmax + 1):
        jm_i, djm_i = jv(m, kappa * radius), jvp(m, kappa * radius)
        jm_e, djm_e = jv(m, k * radius), jvp(m, k * radius)
        hm, dhm = hankel1(m, k * radius), h1vp(m, k * radius)
        det = -k * jm_i * dhm + a * kappa * djm_i * hm
        if not np.isfinite(det) or det == 0:
            raise ModeSystemSingular(f"mode {m}: singular 2x2 system")
        b[m] = (k * jm_i * djm_e - a * kappa * djm_i * jm_e) / det
    rel = angles - d_angle
    series = b[0] + 2 * sum(b[m] * np.cos(m * rel) for m in range(1, mmax + 1))
    return math.sqrt(2 / (np.pi * k)) * np.exp(-1j * np.pi / 4) * series
