"""Factorization-method reconstruction machinery.

Builds F-sharp = |Re(F~)| + |Im(F~)| from the relative far-field matrix with
F~ = gamma^{-1} S* W F (W the trapezoidal weight; S* = S^{-1}, since the
background absorbs nothing and S is unitary), evaluates the projections
(phi_z, psi_i) of the test functions phi_z = S* [gamma
u_b(z, -x_hat_j)]_j (mixed reciprocity) from the stored background total
fields, and maps the Picard series into the indicator
X(z) = [sum |(phi_z, psi_i)|^2 / lambda_i]^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import media, solver
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    PointOutsideD,
)
from .farfield import FarFieldMatrix, FieldSet

HERMITIAN_TOL = 1e-10
DEFAULT_FLOOR_REL = 1e-12
MAX_FLOOR_REL = 1e-2
INDICATOR_CAP = 1e30
# lattice points per axis: 2048^2 = 4.2M points, whose spline rows alone take ~0.8 GB
MAX_LATTICE = 2048


# ---------------------------------------------------------------------------
# Hermitian eigen-machinery


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, v) of a complex Hermitian matrix by LAPACK (np.linalg.eigh):
    real eigenvalues descending, column i of v the orthonormal eigenvector of lam[i].

    F-sharp is defined by spectral calculus, so any backward-stable Hermitian
    eigensolver serves; the exactly symmetrized input keeps the spectrum real.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ConfigInvalid("matrix must be square")
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex)
    if np.linalg.norm(m - m.conj().T) > HERMITIAN_TOL * norm:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    return lam[::-1].copy(), v[:, ::-1].copy()


def operator_abs(m: np.ndarray) -> np.ndarray:
    """Spectral absolute value sum |lambda_i| psi_i psi_i^*."""
    lam, v = hermitian_eig(m)
    return (v * np.abs(lam)) @ v.conj().T


# ---------------------------------------------------------------------------
# F-sharp


def f_sharp(f: FarFieldMatrix, s_adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F-sharp = |Re(F~)| + |Im(F~)| with F~ = gamma^{-1} S* W F.

    W = (2pi/N) I represents the quadrature of the continuous integral
    operator.  `s_adj` is S*, which is S^{-1} for the unitary S the method
    assumes; passing np.linalg.inv(S) instead gives the inverse
    preprocessing.  Returns (matrix, lam, psi): F-sharp, its
    eigenvalues descending with numerical negatives clamped to zero, and the
    paired eigenvectors as columns.
    """
    if s_adj.shape != (f.n, f.n):
        raise DimensionMismatch("far-field matrix and S* disagree in N")
    f_tilde = (1.0 / solver.gamma2(f.k)) * (s_adj @ ((2 * np.pi / f.n) * f.entries))
    re = 0.5 * (f_tilde + f_tilde.conj().T)
    im = (f_tilde - f_tilde.conj().T) / 2j
    sharp = operator_abs(re) + operator_abs(im)
    sharp = 0.5 * (sharp + sharp.conj().T)
    lam, psi = hermitian_eig(sharp)
    if lam.size and lam[0] > 0:
        lam = np.where(lam < 0, 0.0, lam)  # numerical negatives clamp to zero
    else:
        lam = np.zeros_like(lam)
    return sharp, lam, psi


# ---------------------------------------------------------------------------
# test functions via mixed reciprocity


def reversed_incidence_samples(fields: FieldSet, points: np.ndarray) -> np.ndarray:
    """g[j, p] = gamma u_b(z_p, -x_hat_j) for points z_p (P, 2): the stored
    field of direction (j + N/2) mod N, all N from one bicubic spline fit."""
    (u,) = solver.sample_fields(fields.spec, fields.data, points[:, 0], points[:, 1])
    g = np.roll(u, -(fields.n // 2), axis=0)
    g *= solver.gamma2(fields.k)
    return g


def test_functions(
    fields: FieldSet, a: np.ndarray, config: media.MediaConfig, points,
) -> np.ndarray:
    """Rows a g_z, shape (P, K), for a (K, N) matrix a, with g_z[j] =
    gamma u_b(z, -x_hat_j) (see `reversed_incidence_samples`); a = S*
    gives the test functions phi_z.

    Sampling is linear, so the K fields sum_j a[i, j] gamma u_b(., -x_hat_j)
    are combined on the grid first, `solver.BLOCK` at a time, and only
    they are sampled.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(config.host.shape.contains(points)):
        raise PointOutsideD("every sampling point must lie inside the host D")
    n = fields.n
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch("field set and the test-function matrix disagree in N")
    # g_z[j] is the field of direction (j + N/2) mod N: roll a's columns the other way
    b = solver.gamma2(fields.k) * np.roll(a, n // 2, axis=1)
    (u,) = solver.sample_fields(fields.spec, fields.data, points[:, 0], points[:, 1], weights=b)
    return u.T


# ---------------------------------------------------------------------------
# Picard indicator


def check_floor(floor_rel: float):
    """The relative eigenvalue floor lies in [0, MAX_FLOOR_REL]; raises ConfigInvalid."""
    if not (0.0 <= floor_rel <= MAX_FLOOR_REL):
        raise ConfigInvalid(f"floor_rel must lie in [0, {MAX_FLOOR_REL:g}]")


def kept_modes(lam: np.ndarray, floor_rel: float) -> np.ndarray:
    """Eigenpairs the Picard series sums over: lambda_i >= floor_rel * lambda_1
    and lambda_i > 0 (none when lambda_1 <= 0)."""
    check_floor(floor_rel)
    if lam.size == 0 or lam[0] <= 0.0:
        return np.zeros(lam.shape, dtype=bool)
    return (lam >= floor_rel * lam[0]) & (lam > 0)


def picard_indicator(lam: np.ndarray, proj: np.ndarray, floor_rel: float = DEFAULT_FLOOR_REL):
    """Indicator values X(z) = [sum_i |(phi_z, psi_i)|^2 / lambda_i]^{-1}
    for the eigenvalues lam of F-sharp and the projections proj (P, K),
    proj[p, i] = (phi_z_p, psi_i) for the K `kept_modes` in order.

    Returns (values, no_defect_signal); with lambda_1 = 0 no mode is kept,
    every value is the cap and the flag is set.
    """
    keep = kept_modes(lam, floor_rel)  # holds mode 1 when lambda_1 > 0
    if proj.shape[1] != np.count_nonzero(keep):
        raise DimensionMismatch("projections and kept eigenpairs disagree in number")
    if not np.any(keep):
        return np.full(proj.shape[0], INDICATOR_CAP), True
    series = np.abs(proj) ** 2 @ (1.0 / lam[keep])
    values = np.where(series > 0, 1.0 / np.maximum(series, 1.0 / INDICATOR_CAP), INDICATOR_CAP)
    return values, False


@dataclass
class IndicatorGrid:
    """Indicator values on a rectangular sampling lattice, masked to D."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # (ny, nx), 0 outside the mask
    mask: np.ndarray    # (ny, nx) bool, True where inside D
    no_defect_signal: bool
    floored_modes: int


def sampling_lattice(bounds, nx: int, ny: int):
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    xx, yy = np.meshgrid(xs, ys)
    return xs, ys, np.column_stack((xx.ravel(), yy.ravel()))


def indicator_grid(
    lam: np.ndarray,
    psi: np.ndarray,
    fields: FieldSet,
    s_adj: np.ndarray,
    config: media.MediaConfig,
    bounds,
    nx: int,
    ny: int,
    floor_rel: float = DEFAULT_FLOOR_REL,
) -> IndicatorGrid:
    """Evaluate the indicator on a lattice restricted to the host interior,
    which at least one lattice point must reach; `s_adj` is S* as
    `f_sharp` takes it."""
    if nx < 1 or ny < 1:
        raise ConfigInvalid("sampling lattice needs nx, ny >= 1")
    xs, ys, pts = sampling_lattice(bounds, nx, ny)
    mask_flat = config.host.shape.contains(pts)
    if not np.any(mask_flat):
        raise ConfigInvalid("no sampling lattice point lies inside the host D")
    if not (s_adj.shape == psi.shape == (fields.n, fields.n)):
        raise DimensionMismatch("field set, eigenvectors and S* disagree in N")
    keep = kept_modes(lam, floor_rel)
    # row i of a is psi_i^H S*, so a g_z holds the projections (phi_z, psi_i)
    a = psi[:, keep].conj().T @ s_adj
    values = np.zeros(nx * ny)
    proj = test_functions(fields, a, config, pts[mask_flat])
    values[mask_flat], flag = picard_indicator(lam, proj, floor_rel)
    floored = int(np.sum(~keep))
    return IndicatorGrid(
        xs, ys, values.reshape(ny, nx), mask_flat.reshape(ny, nx), flag, floored
    )
