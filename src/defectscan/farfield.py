"""Discretized far-field operators and the scattering operator.

Far-field matrices are sampled on N uniformly spaced directions used both for
incidence and observation; entry (i, j) is u_inf(x_hat_i, d_j).  The
trapezoidal weight 2*pi/N is folded into the scattering operator (and later
into F-sharp) so the discrete matrices approximate their continuous
counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import media, solver
from .errors import ConfigInvalid, DimensionMismatch

UNITARITY_LIMIT = 0.05  # bounds the gap in reconstruct and the defect in verify
# F, S and F# are dense N x N and F# takes three O(N^3) eigensolves; the
# examples use N = 32-64
MAX_DIRECTIONS = 1024


@dataclass
class FarFieldMatrix:
    """N x N far-field samples on direction_angles(N); rows = observation, columns = incidence."""

    k: float
    entries: np.ndarray

    def __post_init__(self):
        n = len(self.entries)
        if n % 2 or self.entries.shape != (n, n):
            raise ConfigInvalid("far-field matrix must be N x N with N even")
        if not np.all(np.isfinite(self.entries)):
            raise ConfigInvalid("far-field matrix has non-finite entries")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass
class FieldSet:
    """Background total fields on the grid, one per direction of direction_angles(N)."""

    spec: solver.GridSpec
    k: float
    data: np.ndarray  # (N, n_nodes, n_nodes), total fields

    def __post_init__(self):
        if self.n % 2:
            raise ConfigInvalid("direction set must be closed under negation (N even)")

    @property
    def n(self) -> int:
        return len(self.data)


def direction_angles(n: int) -> np.ndarray:
    """The directions 2 pi j / N, j = 0..N-1, of every far-field matrix and field set."""
    return 2 * np.pi * np.arange(n) / n


def extraction_radius(config: media.MediaConfig, spec: solver.GridSpec) -> float:
    """Far-field circle midway between the host and 4h clear of the PML; the
    host must fit inside L - 4h."""
    host_radius = media.bounding_radius(config.host.shape)
    r_ff = 0.5 * (host_radius + spec.half_extent - 4 * spec.h)
    if not (host_radius < r_ff <= spec.half_extent - 4 * spec.h):
        raise ConfigInvalid(
            f"extraction radius {r_ff:g} must enclose the host ({host_radius:g}) "
            f"and stay {4 * spec.h:g} clear of the PML"
        )
    return r_ff


def assemble_far_field_matrix(system: solver.FactorizedSystem, n_dirs: int):
    """The N plane-wave problems of a factorized medium and their far fields;
    k, the grid and the scene come from `system`.

    A symmetry g = (k, s) of the medium (solver.symmetry_group) that maps
    the direction set onto itself, (k + s) N = 0 mod 4, takes direction j to
    sigma(j) = (-1)^s j + (k + s) N / 4 mod N and the field of j to the field
    of sigma(j) moved by g.  So only the least direction of each orbit is
    solved and extracted: F[sigma(i), sigma(j)] = F[i, j] fills the matrix
    and `solver.move_planes` the fields, one copy per element, equal to N
    solves within 1e-12 relative.  Media without symmetry solve all N.

    Returns (FarFieldMatrix, FieldSet): the FieldSet holds the total fields,
    which the background's test functions sample.
    """
    if n_dirs % 2 or n_dirs < 8:
        raise ConfigInvalid("need an even number of directions, at least 8")
    spec, k = system.spec, system.k
    r_ff = extraction_radius(system.config, spec)
    group = [g for g in solver.symmetry_group(system) if sum(g) * n_dirs % 4 == 0]
    j = np.arange(n_dirs)
    sigma = [((-j if s else j) + (t + s) * n_dirs // 4) % n_dirs for t, s in group]
    reps = np.unique(np.min(sigma, axis=0))  # the least direction of each orbit
    angles = direction_angles(n_dirs)
    dirs = np.column_stack((np.cos(angles[reps]), np.sin(angles[reps])))
    solved = solver.solve_plane_wave(system, dirs)
    # row j of the far fields belongs to incidence j: the matrix is its transpose
    far = solver.far_field(spec, solved, k, r_ff, angles).T
    for u, d in zip(solved, dirs):  # one direction at a time: no second stack
        u += solver.incident_plane_wave(spec, k, d)  # total fields
    if len(group) == 1:
        return FarFieldMatrix(k, far), FieldSet(spec, k, solved)
    entries = np.empty((n_dirs, n_dirs), dtype=complex)
    fields = np.empty((n_dirs,) + solved.shape[1:], dtype=complex)
    # the identity last, so that each solved direction keeps its own solve
    for g, perm in reversed(list(zip(group, sigma))):
        entries[np.ix_(perm, perm[reps])] = far
        fields[perm[reps]] = solver.move_planes(g, solved)
    return FarFieldMatrix(k, entries), FieldSet(spec, k, fields)


def check_compatible(a, b):
    """Far-field data (FarFieldMatrix or FieldSet) must share N, hence directions, and k."""
    if a.n != b.n:
        raise DimensionMismatch(f"direction counts differ: {a.n} vs {b.n}")
    if abs(a.k - b.k) > 1e-12 * max(a.k, b.k):
        raise DimensionMismatch(f"wavenumbers differ: {a.k} vs {b.k}")


def relative_operator(f0: FarFieldMatrix, fb: FarFieldMatrix) -> FarFieldMatrix:
    """F = F0 - Fb: far-field operator of the defect relative to the background."""
    check_compatible(f0, fb)
    return FarFieldMatrix(f0.k, f0.entries - fb.entries)


def scattering_operator(fb: FarFieldMatrix) -> tuple[np.ndarray, float]:
    """S = I + 2ik conj(gamma_2) (2 pi / N) F_b; returns (S*, unitarity defect).

    The conjugated constant is the one that renders S exactly unitary for
    real media under the e^{ikr}/sqrt(r) far-field normalization (checked
    against the analytic disc series).  The method assumes a background that
    absorbs nothing, so S^{-1} = S*; the defect ||S* S - I||_F / ||S||_F^2
    measures how far the data stray from that hypothesis on average.
    """
    n, k = fb.n, fb.k
    S = np.eye(n, dtype=complex) + (
        2j * k * np.conj(solver.gamma2(k)) * 2 * np.pi / n
    ) * fb.entries
    s_adj = S.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: a NaN defect
        defect = np.linalg.norm(s_adj @ S - np.eye(n)) / np.linalg.norm(S) ** 2
    return s_adj, float(defect)


def unitarity_gap(s_adj: np.ndarray) -> float:
    """||S* S - I||_2 = max |sigma^2 - 1| over S's singular values: one bad
    direction counts in full at any N, where the defect spreads it over all N
    (1 / (N - 1) for diag(1, ..., 1, 0)); a gap within UNITARITY_LIMIT keeps
    the defect within it."""
    with np.errstate(over="ignore"):  # singular values beyond 1e154 square to inf
        return float(np.max(np.abs(np.linalg.svd(s_adj, compute_uv=False) ** 2 - 1)))


def add_noise(f: FarFieldMatrix, level: float, seed: int) -> FarFieldMatrix:
    """Multiplicative noise F_ij (1 + level * eps_ij), eps uniform on the
    complex unit disc, drawn from a seeded deterministic generator."""
    if level < 0:
        raise ConfigInvalid("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    n = f.n
    radius = np.sqrt(rng.uniform(size=(n, n)))
    phase = np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    eps = radius * phase
    return FarFieldMatrix(f.k, f.entries * (1.0 + level * eps))


def reciprocity_defect(f: FarFieldMatrix) -> float:
    """max |F[i,j] - F[(j+N/2) % N, (i+N/2) % N]| / max |F| (0 for F = 0)."""
    n = f.n
    idx = (np.arange(n) + n // 2) % n
    mirrored = f.entries[np.ix_(idx, idx)].T
    scale = np.max(np.abs(f.entries))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(f.entries - mirrored)) / scale)
