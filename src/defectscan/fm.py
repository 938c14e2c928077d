"""Factorization-method reconstruction machinery.

Builds F-sharp = |Re(F~)| + |Im(F~)| from the relative far-field matrix with
F~ = gamma^{-1} S^{-1} W F (W the trapezoidal weight), evaluates the test
functions phi_z = S^{-1} [gamma u_b(z, -x_hat_j)]_j via mixed reciprocity from
the stored background total fields, and maps the Picard series into the
indicator X(z) = [sum |(phi_z, psi_i)|^2 / lambda_i]^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import media, solver
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptySpectrum,
    MissingFields,
    NoConvergence,
    NotHermitian,
    PointOutsideD,
)
from .farfield import FarFieldMatrix, FieldSet, ScatteringOperator

HERMITIAN_TOL = 1e-10
DEFAULT_FLOOR_REL = 1e-12
INDICATOR_CAP = 1e30


# ---------------------------------------------------------------------------
# Hermitian eigen-machinery


@dataclass
class HermitianEigensystem:
    """Real eigenvalues (descending) with orthonormal complex eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def hermitian_eig(m: np.ndarray) -> HermitianEigensystem:
    """Eigensystem of a complex Hermitian matrix by LAPACK (np.linalg.eigh).

    F-sharp is defined by spectral calculus, so any backward-stable Hermitian
    eigensolver serves; the exactly symmetrized input keeps the spectrum real.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ConfigInvalid("matrix must be square")
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return HermitianEigensystem(np.zeros(n), np.eye(n, dtype=complex))
    if np.linalg.norm(m - m.conj().T) > HERMITIAN_TOL * norm:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    return HermitianEigensystem(lam[::-1].copy(), v[:, ::-1].copy())


def operator_abs(m: np.ndarray) -> np.ndarray:
    """Spectral absolute value sum |lambda_i| psi_i psi_i^*."""
    eig = hermitian_eig(m)
    return (eig.eigenvectors * np.abs(eig.eigenvalues)) @ eig.eigenvectors.conj().T


# ---------------------------------------------------------------------------
# F-sharp


@dataclass
class FSharp:
    k: float
    n: int
    matrix: np.ndarray
    eig: HermitianEigensystem


def f_sharp(f: FarFieldMatrix, s: ScatteringOperator, use_adjoint: bool = False) -> FSharp:
    """F-sharp = |Re(F~)| + |Im(F~)| with F~ = gamma^{-1} B W F.

    B is S^{-1} (default) or, behind the switch, the adjoint S^*; W = (2pi/N) I
    represents the quadrature of the continuous integral operator.
    """
    if f.n != s.n:
        raise DimensionMismatch("far-field matrix and scattering operator disagree in N")
    if abs(f.k - s.k) > 1e-12 * max(f.k, s.k):
        raise DimensionMismatch("wavenumber mismatch")
    b = s.S.conj().T if use_adjoint else s.S_inv
    f_tilde = (1.0 / solver.gamma2(f.k)) * (b @ ((2 * np.pi / f.n) * f.entries))
    re = 0.5 * (f_tilde + f_tilde.conj().T)
    im = (f_tilde - f_tilde.conj().T) / 2j
    sharp = operator_abs(re) + operator_abs(im)
    sharp = 0.5 * (sharp + sharp.conj().T)
    eig = hermitian_eig(sharp)
    lam = eig.eigenvalues
    if lam.size and lam[0] > 0:
        lam = np.where(lam < 0, 0.0, lam)  # numerical negatives clamp to zero
    else:
        lam = np.zeros_like(lam)
    eig = HermitianEigensystem(lam, eig.eigenvectors)
    return FSharp(f.k, f.n, sharp, eig)


# ---------------------------------------------------------------------------
# test functions via mixed reciprocity


@dataclass
class TestFunctionSet:
    points: np.ndarray  # (P, 2)
    phi: np.ndarray     # (P, N), row p = phi_{z_p}


def reversed_incidence_samples(fields: FieldSet, points: np.ndarray) -> np.ndarray:
    """g[j, p] = gamma u_b(z_p, -x_hat_j) for points z_p (P, 2): the stored
    field of direction (j + N/2) mod N, all N from one bicubic spline fit."""
    (u,) = solver.sample_fields(fields.spec, fields.data, points[:, 0], points[:, 1])
    g = np.roll(u, -(len(fields.angles) // 2), axis=0)
    g *= solver.gamma2(fields.k)
    return g


def test_functions(
    fields: FieldSet | None,
    s: ScatteringOperator,
    config: media.MediaConfig,
    points,
    use_adjoint: bool = False,
) -> TestFunctionSet:
    """phi_z = S^{-1} g_z with g_z[j] = gamma u_b(z, -x_hat_j)
    (see `reversed_incidence_samples`)."""
    if fields is None:
        raise MissingFields("background total fields were not retained")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(config.host.shape.contains(points)):
        raise PointOutsideD("every sampling point must lie inside the host D")
    n = len(fields.angles)
    if n != s.n:
        raise DimensionMismatch("field set and scattering operator disagree in N")
    if n % 2:
        raise ConfigInvalid("direction set must be closed under negation (N even)")

    g = reversed_incidence_samples(fields, points)
    b = s.S.conj().T if use_adjoint else s.S_inv
    phi = (b @ g).T
    return TestFunctionSet(points, phi)


# ---------------------------------------------------------------------------
# Picard indicator


def kept_modes(lam: np.ndarray, floor_rel: float) -> np.ndarray:
    """Eigenpairs the Picard series sums over: lambda_i >= floor_rel * lambda_1
    and lambda_i > 0 (none when lambda_1 <= 0)."""
    if lam.size == 0 or lam[0] <= 0.0:
        return np.zeros(lam.shape, dtype=bool)
    return (lam >= floor_rel * lam[0]) & (lam > 0)


def picard_indicator(
    fs: FSharp, tf: TestFunctionSet, floor_rel: float = DEFAULT_FLOOR_REL,
):
    """Indicator values X(z) = [sum_i |(phi_z, psi_i)|^2 / lambda_i]^{-1}
    over the `kept_modes`.

    Returns (values, no_defect_signal); with lambda_1 = 0 every value is the
    cap and the flag is set.
    """
    if not (0.0 <= floor_rel <= 1e-2):
        raise ConfigInvalid("floor_rel must lie in [0, 1e-2]")
    lam = fs.eig.eigenvalues
    p = tf.phi.shape[0]
    if lam.size == 0 or lam[0] <= 0.0:
        return np.full(p, INDICATOR_CAP), True
    keep = kept_modes(lam, floor_rel)
    if not np.any(keep):
        raise EmptySpectrum("all eigenvalues fell below the Picard floor")
    psi = fs.eig.eigenvectors[:, keep]
    proj = np.abs(tf.phi.conj() @ psi) ** 2  # (P, kept)
    series = proj @ (1.0 / lam[keep])
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
    fs: FSharp,
    fields: FieldSet | None,
    s: ScatteringOperator,
    config: media.MediaConfig,
    bounds,
    nx: int,
    ny: int,
    floor_rel: float = DEFAULT_FLOOR_REL,
    use_adjoint: bool = False,
) -> IndicatorGrid:
    """Evaluate the indicator on a lattice restricted to the host interior."""
    xs, ys, pts = sampling_lattice(bounds, nx, ny)
    mask_flat = config.host.shape.contains(pts)
    values = np.zeros(nx * ny)
    flag = True
    if np.any(mask_flat):
        tf = test_functions(fields, s, config, pts[mask_flat], use_adjoint=use_adjoint)
        vals, flag = picard_indicator(fs, tf, floor_rel)
        values[mask_flat] = vals
    floored = int(np.sum(~kept_modes(fs.eig.eigenvalues, floor_rel)))
    return IndicatorGrid(
        xs, ys, values.reshape(ny, nx), mask_flat.reshape(ny, nx), flag, floored
    )
