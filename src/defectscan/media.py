"""Scene geometry and material coefficients.

A scene is a compactly supported anisotropic host region D (tensor A, index n,
both real) sitting in free space (I, 1), with a list of penetrable defect
regions strictly inside D carrying their own coefficients (A0, n0), possibly
complex.  Coefficients are piecewise constant per region.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigInvalid, SchemaError

# Verdict threshold for "uniformly positive": eigenvalues closer to zero than
# this are reported as indeterminate rather than satisfied/violated.
DEFINITENESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# symmetric 2x2 tensors


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2x2 tensor; only the upper triangle is stored.

    The imaginary entries (i11, i12, i22) default to zero and are only
    meaningful for absorbing defect tensors.
    """

    a11: float
    a12: float
    a22: float
    i11: float = 0.0
    i12: float = 0.0
    i22: float = 0.0

    def real(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def imag(self) -> np.ndarray:
        return np.array([[self.i11, self.i12], [self.i12, self.i22]])

    def cmat(self) -> np.ndarray:
        return self.real() + 1j * self.imag()

    @property
    def is_real(self) -> bool:
        # a tuple comparison is a Python bool even for numpy entries
        return (self.i11, self.i12, self.i22) == (0.0, 0.0, 0.0)

    @staticmethod
    def identity() -> "SymTensor2":
        return SymTensor2(1.0, 0.0, 1.0)


def sym_eigvals(m11, m12, m22):
    """Eigenvalues (min, max) of the symmetric 2x2 [[m11, m12], [m12, m22]]."""
    mean = 0.5 * (m11 + m22)
    disc = math.hypot(0.5 * (m11 - m22), m12)
    return mean - disc, mean + disc


def sym_abs(m: np.ndarray) -> np.ndarray:
    """Matrix absolute value of a real symmetric 2x2."""
    lo, hi = sym_eigvals(m[0, 0], m[0, 1], m[1, 1])
    if m[0, 1] == 0.0:
        return np.diag([abs(m[0, 0]), abs(m[1, 1])])
    # eigenvector for hi
    v = np.array([m[0, 1], hi - m[0, 0]])
    v /= np.linalg.norm(v)
    w = np.array([-v[1], v[0]])
    return abs(hi) * np.outer(v, v) + abs(lo) * np.outer(w, w)


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigInvalid("circle radius must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        return dx * dx + dy * dy < self.radius * self.radius

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the circle's boundary (exact)."""
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0] - self.center[0], pts[..., 1] - self.center[1])
        return np.abs(r - self.radius)

    def boundary_points(self, n: int) -> np.ndarray:
        t = 2 * np.pi * np.arange(n) / n
        return np.column_stack(
            (self.center[0] + self.radius * np.cos(t), self.center[1] + self.radius * np.sin(t))
        )

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r)


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_a: float
    semi_b: float

    def __post_init__(self):
        if self.semi_a <= 0 or self.semi_b <= 0:
            raise ConfigInvalid("ellipse semiaxes must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dx = (pts[..., 0] - self.center[0]) / self.semi_a
        dy = (pts[..., 1] - self.center[1]) / self.semi_b
        return dx * dx + dy * dy < 1.0

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the boundary: the scaled radius f has
        Lipschitz constant 1 / min(a, b) and equals 1 on the boundary."""
        pts = np.asarray(pts, dtype=float)
        f = np.hypot((pts[..., 0] - self.center[0]) / self.semi_a,
                     (pts[..., 1] - self.center[1]) / self.semi_b)
        return np.abs(f - 1.0) * min(self.semi_a, self.semi_b)

    def boundary_points(self, n: int) -> np.ndarray:
        t = 2 * np.pi * np.arange(n) / n
        return np.column_stack(
            (self.center[0] + self.semi_a * np.cos(t), self.center[1] + self.semi_b * np.sin(t))
        )

    def bbox(self):
        cx, cy = self.center
        return (cx - self.semi_a, cx + self.semi_a, cy - self.semi_b, cy + self.semi_b)


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ConfigInvalid("rectangle must have xmin < xmax and ymin < ymax")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (x > self.xmin) & (x < self.xmax) & (y > self.ymin) & (y < self.ymax)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the rectangle's boundary (exact)."""
        pts = np.asarray(pts, dtype=float)
        dx = np.maximum(self.xmin - pts[..., 0], pts[..., 0] - self.xmax)  # < 0 inside
        dy = np.maximum(self.ymin - pts[..., 1], pts[..., 1] - self.ymax)
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        return np.where((dx < 0) & (dy < 0), -np.maximum(dx, dy), outside)

    def boundary_points(self, n: int) -> np.ndarray:
        per_side = max(n // 4, 2)
        xs = np.linspace(self.xmin, self.xmax, per_side, endpoint=False)
        ys = np.linspace(self.ymin, self.ymax, per_side, endpoint=False)
        bottom = np.column_stack((xs, np.full(per_side, self.ymin)))
        right = np.column_stack((np.full(per_side, self.xmax), ys))
        top = np.column_stack((xs[::-1] + (xs[1] - xs[0]), np.full(per_side, self.ymax)))
        left = np.column_stack((np.full(per_side, self.xmin), ys[::-1] + (ys[1] - ys[0])))
        return np.vstack((bottom, right, top, left))

    def bbox(self):
        return (self.xmin, self.xmax, self.ymin, self.ymax)


@dataclass(frozen=True)
class Union:
    members: tuple

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigInvalid("union needs at least two members")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        out = self.members[0].contains(pts)
        for m in self.members[1:]:
            out = out | m.contains(pts)
        return out

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the union's boundary, which lies on
        its members' boundaries."""
        return np.min([m.boundary_distance(pts) for m in self.members], axis=0)

    def boundary_points(self, n: int) -> np.ndarray:
        per = max(n // len(self.members), 8)
        return np.vstack([m.boundary_points(per) for m in self.members])

    def bbox(self):
        boxes = [m.bbox() for m in self.members]
        return (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    def check_disjoint(self, h: float):
        """Members must be pairwise disjoint; dense sampling at h/2."""
        x0, x1, y0, y1 = self.bbox()
        step = h / 2
        xs = np.arange(x0, x1 + step, step)
        ys = np.arange(y0, y1 + step, step)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack((xx.ravel(), yy.ravel()))
        hits = np.zeros(len(pts), dtype=int)
        for m in self.members:
            hits += m.contains(pts).astype(int)
        if np.any(hits > 1):
            raise ConfigInvalid("union members overlap")


def bounding_radius(shape) -> float:
    """Radius of the smallest origin-centered circle containing the shape."""
    bp = shape.boundary_points(512)
    return float(np.max(np.hypot(bp[:, 0], bp[:, 1])))


def json_float(value, key: str) -> float:
    """A JSON number as a float; float() would also take true and "1.0",
    Python's json module reads NaN and Infinity, which JSON does not have,
    and an integer beyond the float range makes float() overflow."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # False for NaN and inf too
        raise SchemaError(f"{key} must be a finite JSON number, got {value!r}")
    return float(value)


def json_int(value, key: str) -> int:
    """A JSON integer; int() would truncate 16.7 and turn true into 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key} must be a JSON integer, got {value!r}")
    return value


def json_count(value, key: str, limit: int) -> int:
    """A JSON integer of at most `limit`, checked before anything is sized by it."""
    value = json_int(value, key)
    if value > limit:
        raise SchemaError(f"{key} must be at most {limit}, got {value}")
    return value


def shape_from_dict(d: dict):
    def num(field):
        return json_float(d[field], f"{kind} {field}")

    def center():
        c = d["center"]
        if not isinstance(c, list) or len(c) != 2:
            raise SchemaError(f"{kind} center must be two numbers, got {c!r}")
        return tuple(json_float(v, f"{kind} center") for v in c)

    try:
        kind = d["type"]
        if kind == "circle":
            return Circle(center(), num("radius"))
        if kind == "ellipse":
            return Ellipse(center(), num("semi_a"), num("semi_b"))
        if kind == "rectangle":
            return Rectangle(num("xmin"), num("xmax"), num("ymin"), num("ymax"))
        if kind == "union":
            return Union(tuple(shape_from_dict(m) for m in d["members"]))
    except KeyError as exc:
        raise ConfigInvalid(f"shape spec missing field {exc}") from exc
    raise ConfigInvalid(f"unknown shape type {kind!r}")


# low-discrepancy Kronecker lattice (plastic-constant R2 sequence); used for
# deterministic interior sampling
_PLASTIC = 1.324717957244746


def _r2_sequence(count: int, skip: int = 0) -> np.ndarray:
    a1, a2 = 1.0 / _PLASTIC, 1.0 / _PLASTIC**2
    i = np.arange(skip + 1, skip + count + 1, dtype=float)
    return np.column_stack(((0.5 + a1 * i) % 1.0, (0.5 + a2 * i) % 1.0))


def interior_points(shape, count: int) -> np.ndarray:
    """`count` quasi-random points inside the shape (deterministic)."""
    x0, x1, y0, y1 = shape.bbox()
    out = []
    skip, have, budget = 0, 0, 0
    while have < count:
        batch = max(4 * count, 256)
        u = _r2_sequence(batch, skip)
        skip += batch
        pts = np.column_stack((x0 + (x1 - x0) * u[:, 0], y0 + (y1 - y0) * u[:, 1]))
        inside = pts[shape.contains(pts)]
        out.append(inside)
        have += len(inside)
        budget += 1
        if budget > 64:
            raise ConfigInvalid("could not place interior sample points in shape")
    return np.vstack(out)[:count]


# ---------------------------------------------------------------------------
# scene configuration


@dataclass(frozen=True)
class HostRegion:
    shape: object
    A: SymTensor2
    n: float


@dataclass(frozen=True)
class Defect:
    shape: object
    A0: SymTensor2
    n0: complex


@dataclass(frozen=True)
class MediaConfig:
    host: HostRegion
    defects: tuple
    k: float

    def validate(self, h: float):
        """Check material and containment invariants; raises ConfigInvalid."""
        if self.k <= 0:
            raise ConfigInvalid("wavenumber k must be positive")
        if self.host.n <= 0:
            raise ConfigInvalid("host index n must be positive")
        if not self.host.A.is_real:
            raise ConfigInvalid("host tensor A must be real")
        lo, _ = sym_eigvals(self.host.A.a11, self.host.A.a12, self.host.A.a22)
        if lo <= 0:
            raise ConfigInvalid("host tensor A must be positive definite")
        for idx, d in enumerate(self.defects):
            relo, _ = sym_eigvals(d.A0.a11, d.A0.a12, d.A0.a22)
            if relo <= 0:
                raise ConfigInvalid(f"defect {idx}: Re(A0) must be positive definite")
            _, imhi = sym_eigvals(d.A0.i11, d.A0.i12, d.A0.i22)
            if imhi > 0:
                raise ConfigInvalid(f"defect {idx}: Im(A0) must be negative semidefinite")
            n0 = complex(d.n0)
            if n0.real <= 0:
                raise ConfigInvalid(f"defect {idx}: Re(n0) must be positive")
            if n0.imag < 0:
                raise ConfigInvalid(f"defect {idx}: Im(n0) must be nonnegative")
            self._check_contained(d.shape, idx, margin=h)
            if isinstance(d.shape, Union):
                d.shape.check_disjoint(h)
        # defect regions themselves must not overlap each other
        if len(self.defects) > 1:
            Union(tuple(d.shape for d in self.defects)).check_disjoint(h)

    def _check_contained(self, shape, idx: int, margin: float):
        bp = shape.boundary_points(512)
        t = 2 * np.pi * np.arange(8) / 8
        ring = margin * np.column_stack((np.cos(t), np.sin(t)))
        probes = (bp[:, None, :] + ring[None, :, :]).reshape(-1, 2)
        if not np.all(self.host.shape.contains(probes)):
            raise ConfigInvalid(
                f"defect {idx} is not strictly inside the host (margin {margin:g})"
            )

    def background(self) -> "MediaConfig":
        """The same host without its defects: the background medium."""
        return replace(self, defects=())

    def max_index(self) -> float:
        return max([self.host.n] + [complex(d.n0).real for d in self.defects] + [1.0])

    def min_tensor_eig(self) -> float:
        vals = [1.0, sym_eigvals(self.host.A.a11, self.host.A.a12, self.host.A.a22)[0]]
        for d in self.defects:
            vals.append(sym_eigvals(d.A0.a11, d.A0.a12, d.A0.a22)[0])
        return min(vals)

    def min_wavelength(self) -> float:
        """Shortest local wavelength over the scene."""
        return 2 * np.pi / (self.k * math.sqrt(self.max_index() / self.min_tensor_eig()))


def sample_grid(config: MediaConfig, xs, ys) -> np.ndarray:
    """Region index of each point of a tensor grid, or of a batch of them:
    leading axes of xs (..., nx) and ys (..., ny) broadcast.

    Returns an integer array of shape (..., ny, nx): 0 outside the host, 1 in
    the host, 2 + i in defect i; `coefficient_table` holds each region's row.
    """
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    xx, yy = np.broadcast_arrays(xs[..., None, :], ys[..., :, None])
    pts = np.stack((xx, yy), axis=-1)
    region = config.host.shape.contains(pts).astype(np.intp)
    for i, d in enumerate(config.defects):
        region[d.shape.contains(pts)] = 2 + i
    return region


def coefficient_table(config: MediaConfig) -> np.ndarray:
    """Complex (a11, a12, a22, n) row of each region `sample_grid` labels."""
    A = config.host.A
    rows = [(1.0, 0.0, 1.0, 1.0), (A.a11, A.a12, A.a22, config.host.n)]
    for d in config.defects:
        c = d.A0.cmat()
        rows.append((c[0, 0], c[0, 1], c[1, 1], complex(d.n0)))
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# hypothesis validation


def _min_eig(m: np.ndarray):
    return sym_eigvals(m[0, 0], m[0, 1], m[1, 1])[0]


def _alpha_branch(a_re_diff: np.ndarray, re_a0: np.ndarray, abs_im: np.ndarray):
    """Search alpha > 0 with A - Re(A0) - a|Im(A0)| > 0 and Re(A0) - |Im(A0)|/a >= 0."""
    best = (None, -np.inf)
    for alpha in np.logspace(-3, 3, 61):
        e1 = _min_eig(a_re_diff - alpha * abs_im)
        e2 = _min_eig(re_a0 - abs_im / alpha)
        if e2 >= -DEFINITENESS_TOL and e1 > best[1]:
            best = (float(alpha), e1)
    return best


def validate_assumptions(config: MediaConfig, h: float = 0.05) -> dict:
    """Check the definiteness hypotheses of the range-test theorem per defect
    and report which hypothesis branch holds.

    Coefficients are piecewise constant and `config.validate` puts every
    defect strictly inside the host, so the host's A is the one background
    tensor a defect meets.  Returns {"verdict": "satisfied" | "violated" |
    "indeterminate", "defects": [one dict of margins, flags, branch and alpha
    per defect]}, JSON-ready.  Raises ConfigInvalid if the basic invariants fail.
    """
    config.validate(h)
    a = config.host.A.real()
    defects = []
    any_violated = False
    any_indet = False
    for d in config.defects:
        re0 = d.A0.real()
        min_fwd = _min_eig(re0 - a)  # Re(A0) - A
        min_bwd = _min_eig(a - re0)  # A - Re(A0)
        im_a0_zero = d.A0.is_real
        im_n0_zero = complex(d.n0).imag == 0.0
        branch = None
        alpha = None
        if min_fwd > DEFINITENESS_TOL:
            branch = "re_a0_minus_a"
        elif im_a0_zero and min_bwd > DEFINITENESS_TOL:
            branch = "a_minus_a0"
        elif not im_a0_zero:
            # absorbing defect: Young-inequality branch with a free constant
            abs_im = sym_abs(d.A0.imag())
            alpha, eig = _alpha_branch(a - re0, re0, abs_im)
            if alpha is not None and eig > DEFINITENESS_TOL:
                branch = "absorbing_alpha"
            else:
                alpha = None
        defects.append({
            "min_eig_re_a0_minus_a": float(min_fwd),
            "min_eig_a_minus_re_a0": float(min_bwd),
            "im_a0_zero": im_a0_zero,
            "im_n0_zero": im_n0_zero,
            "branch": branch,
            "alpha": alpha,
        })
        if branch is None:
            # positive-but-tiny margins are undecidable in floating point;
            # anything <= 0 (e.g. zero contrast) is a plain violation
            best = max(min_fwd, min_bwd if im_a0_zero else -np.inf)
            if 0.0 < best <= DEFINITENESS_TOL:
                any_indet = True
            else:
                any_violated = True
    if any_violated:
        verdict = "violated"
    elif any_indet or not config.defects:
        verdict = "indeterminate"
    else:
        verdict = "satisfied"
    return {"verdict": verdict, "defects": defects}
