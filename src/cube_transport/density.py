"""Piecewise-constant densities on regular grids over axis-parallel cubes.

A density is stored as one nonnegative value per cell of a regular grid and
is understood as piecewise constant on cells. All structural diagnostics
(axis convexity ratio, midpoint log-concavity, diagonal curvature bound)
are computed from cell values only, so they are exact statements about the
grid function rather than estimates of some off-grid object.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class DensityError(ValueError):
    """Invalid grid/density data."""


class PositivityError(DensityError):
    """An operation required strictly positive cell values."""


class DegenerateDensityError(DensityError):
    """Total mass is zero (or not normalizable)."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular grid of ``cells_per_axis`` cells per axis on origin + [0, side]^dim."""

    dim: int
    cells_per_axis: int
    origin: np.ndarray
    side: float = 1.0

    def __post_init__(self):
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "cells_per_axis", int(self.cells_per_axis))
        object.__setattr__(self, "side", float(self.side))
        if self.dim < 1:
            raise DensityError("dim must be >= 1")
        if self.cells_per_axis < 1:
            raise DensityError("cells_per_axis must be >= 1")
        if origin.shape != (self.dim,):
            raise DensityError(f"origin must have shape ({self.dim},), got {origin.shape}")
        if not (np.isfinite(self.side) and self.side > 0):
            raise DensityError("side must be positive and finite")

    @property
    def h(self) -> float:
        """Cell width."""
        return self.side / self.cells_per_axis

    @property
    def shape(self) -> tuple:
        return (self.cells_per_axis,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int = 0) -> np.ndarray:
        return self.origin[axis] + (np.arange(self.cells_per_axis) + 0.5) * self.h

    def axis_nodes(self, axis: int = 0) -> np.ndarray:
        return self.origin[axis] + np.arange(self.cells_per_axis + 1) * self.h

    def centers_mesh(self) -> list:
        """Cell-center coordinate arrays, each shaped like a value array."""
        axes = [self.axis_centers(i) for i in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def centers(self) -> np.ndarray:
        """Cell centers as an (n_cells, dim) array, cells in C order."""
        return np.stack([c.reshape(-1) for c in self.centers_mesh()], axis=1)

    def gradient(self, values: np.ndarray) -> list:
        """Finite-difference partial derivatives of cell-center data, one
        array per axis: centered inside, one-sided at the ends."""
        return [np.gradient(values, self.h, axis=k) for k in range(self.dim)]

    def cell_index(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Index of the cell containing each coordinate, clamped to the cube."""
        idx = np.floor((np.asarray(x, dtype=float) - self.origin[axis]) / self.h).astype(int)
        return np.clip(idx, 0, self.cells_per_axis - 1)

    def matches(self, other: "Grid") -> bool:
        return (
            self.dim == other.dim
            and self.cells_per_axis == other.cells_per_axis
            and abs(self.side - other.side) <= 1e-12 * max(1.0, self.side)
            and bool(np.all(np.abs(self.origin - other.origin) <= 1e-12 * max(1.0, self.side)))
        )

    def drop_last_axis(self) -> "Grid":
        if self.dim < 2:
            raise DensityError("cannot drop an axis from a 1d grid")
        return Grid(self.dim - 1, self.cells_per_axis, self.origin[:-1], self.side)

    def last_axis_grid(self) -> "Grid":
        return Grid(1, self.cells_per_axis, self.origin[-1:], self.side)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "cells_per_axis": self.cells_per_axis,
            "origin": [float(c) for c in self.origin],
            "side": self.side,
        }

    @staticmethod
    def from_dict(d: dict) -> "Grid":
        return Grid(d["dim"], d["cells_per_axis"], np.asarray(d["origin"], dtype=float), d["side"])


def unit_cube_grid(dim: int, cells_per_axis: int) -> Grid:
    return Grid(dim, cells_per_axis, np.zeros(dim), 1.0)


def centered_cube_grid(dim: int, cells_per_axis: int, side: float = 1.0) -> Grid:
    return Grid(dim, cells_per_axis, np.full(dim, -side / 2.0), side)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative cell values on a grid, read as a piecewise-constant density."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise DensityError(f"values must have shape {self.grid.shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DensityError("values must be finite")
        if np.any(values < 0):
            raise DensityError("values must be nonnegative")
        object.__setattr__(self, "values", values)

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def is_normalized(self, tol: float = 1e-9) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def require_positive(self) -> np.ndarray:
        if np.any(self.values <= 0):
            raise PositivityError("density has zero cells where positivity is required")
        return self.values

    def cell_masses(self) -> np.ndarray:
        """Cell masses normalized to sum 1, flattened in C order."""
        w = self.values.reshape(-1) * self.grid.cell_volume
        total = w.sum()
        if total <= 0:
            raise DegenerateDensityError("density has zero mass")
        return w / total

    def marginal_cdf(self, axis: int) -> tuple:
        """Nodes and normalized CDF of the 1d marginal along one axis; exact
        for piecewise-constant data."""
        others = tuple(k for k in range(self.grid.dim) if k != axis)
        line = self.values.sum(axis=others) if others else self.values
        return self.grid.axis_nodes(axis), row_cdfs(line)

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """Piecewise-constant evaluation at points of shape (N, dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        idx = tuple(self.grid.cell_index(x[:, k], k) for k in range(self.grid.dim))
        return self.values[idx]


def row_cdfs(values: np.ndarray) -> np.ndarray:
    """Normalized CDFs along the last axis, at the cell boundaries."""
    cdf = np.cumsum(values, axis=-1)
    cdf = np.concatenate((np.zeros(cdf.shape[:-1] + (1,)), cdf), axis=-1)
    return cdf / cdf[..., -1:]


# ---------------------------------------------------------------------------
# density specifications


@dataclass(frozen=True)
class Uniform:
    """Constant density."""


@dataclass(frozen=True)
class RestrictedGaussian:
    """exp(-(x-center).A.(x-center)/2) restricted to the cube; A = inverse covariance."""

    center: tuple
    inverse_covariance: tuple

    def arrays(self, dim: int):
        c = _sized(self.center, (dim,), "center")
        a = _sized(self.inverse_covariance, (dim, dim), "inverse_covariance")
        if not np.allclose(a, a.T, atol=1e-12):
            raise DensityError("inverse_covariance must be symmetric")
        if np.linalg.eigvalsh(a).min() < -1e-12:
            raise DensityError("inverse_covariance must be positive semidefinite")
        return c, a


@dataclass(frozen=True)
class ExponentialTilt:
    """exp(x . tilt) on the cube."""

    tilt: tuple


@dataclass(frozen=True)
class ConvexPower:
    """(offset + x . direction)^power; requires strict positivity on the cube."""

    offset: float
    direction: tuple
    power: float


def equicorrelated_scale(n: int) -> float:
    """Default coordinate scale 1 / (100 sqrt(log n)) of the equicorrelated
    construction in dimension n."""
    if n < 2:
        raise DensityError("equicorrelated construction needs n >= 2")
    return 1.0 / (100.0 * math.sqrt(math.log(n)))


@dataclass(frozen=True)
class EquicorrelatedGaussian:
    """Gaussian with covariance scale^2 (Id + ones) restricted to the cube.

    Every pair of coordinates has correlation 1/2. The default scale,
    ``equicorrelated_scale(dim)``, keeps per-coordinate standard deviations
    small against a unit cube so that the cube restriction is nearly vacuous.
    """

    dim: int
    scale: Union[float, None] = None

    def effective_scale(self) -> float:
        scale = equicorrelated_scale(self.dim)
        return scale if self.scale is None else float(self.scale)

    def inverse_covariance(self) -> np.ndarray:
        n = self.dim
        s2 = self.effective_scale() ** 2
        # (Id + ones)^{-1} = Id - ones/(n+1), by Sherman-Morrison
        return (np.eye(n) - np.ones((n, n)) / (n + 1)) / s2


@dataclass(frozen=True)
class CustomGrid:
    """Explicit cell values (nested lists or array), shape must match the grid."""

    values: tuple = field(repr=False)


DensitySpec = Union[Uniform, RestrictedGaussian, ExponentialTilt, ConvexPower,
                    EquicorrelatedGaussian, CustomGrid]

_VARIANT_TAGS = {
    Uniform: "uniform",
    RestrictedGaussian: "restricted_gaussian",
    ExponentialTilt: "exponential_tilt",
    ConvexPower: "convex_power",
    EquicorrelatedGaussian: "equicorrelated_gaussian",
    CustomGrid: "custom_grid",
}


def spec_to_dict(spec: DensitySpec) -> dict:
    tag = _VARIANT_TAGS.get(type(spec))
    if tag is None:
        raise DensityError(f"unknown density spec {type(spec).__name__}")
    d = {"variant": tag}
    if isinstance(spec, RestrictedGaussian):
        d["center"] = np.asarray(spec.center, dtype=float).tolist()
        d["inverse_covariance"] = np.asarray(spec.inverse_covariance, dtype=float).tolist()
    elif isinstance(spec, ExponentialTilt):
        d["tilt"] = np.asarray(spec.tilt, dtype=float).tolist()
    elif isinstance(spec, ConvexPower):
        d["offset"] = float(spec.offset)
        d["direction"] = np.asarray(spec.direction, dtype=float).tolist()
        d["power"] = float(spec.power)
    elif isinstance(spec, EquicorrelatedGaussian):
        d["dim"] = spec.dim
        d["scale"] = None if spec.scale is None else float(spec.scale)
    elif isinstance(spec, CustomGrid):
        d["values"] = np.asarray(spec.values, dtype=float).tolist()
    return d


_NUMERIC_SHAPES = {0: "a finite number", 1: "a list of finite numbers",
                   2: "a list of lists of finite numbers",
                   None: "nested lists of finite numbers"}


def _floats(value, ndim, what: str) -> np.ndarray:
    """value as a float array with ndim axes (any number of axes when None),
    or DensityError unless every entry is a finite number."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if (arr.dtype.kind not in "iuf" or (ndim is not None and arr.ndim != ndim)
            or not np.all(np.isfinite(arr))):
        raise DensityError(f"{what} must be {_NUMERIC_SHAPES[ndim]}")
    return arr.astype(float)


def spec_from_dict(d: dict) -> DensitySpec:
    """Inverse of spec_to_dict. Raises DensityError on an unknown variant or
    a missing or ill-typed field; build_density checks sizes against the grid."""
    if not isinstance(d, dict):
        raise DensityError("density spec must be an object")
    tag = d.get("variant")
    try:
        if tag == "uniform":
            return Uniform()
        if tag == "restricted_gaussian":
            inv_cov = _floats(d["inverse_covariance"], 2, "inverse_covariance")
            return RestrictedGaussian(tuple(_floats(d["center"], 1, "center").tolist()),
                                      tuple(map(tuple, inv_cov.tolist())))
        if tag == "exponential_tilt":
            return ExponentialTilt(tuple(_floats(d["tilt"], 1, "tilt").tolist()))
        if tag == "convex_power":
            return ConvexPower(float(_floats(d["offset"], 0, "offset")),
                               tuple(_floats(d["direction"], 1, "direction").tolist()),
                               float(_floats(d["power"], 0, "power")))
        if tag == "equicorrelated_gaussian":
            dim, scale = d["dim"], d.get("scale")
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise DensityError("dim must be an integer")
            return EquicorrelatedGaussian(
                dim, None if scale is None else float(_floats(scale, 0, "scale")))
        if tag == "custom_grid":
            return CustomGrid(_floats(d["values"], None, "values"))
    except KeyError as exc:
        raise DensityError(f"density spec {tag!r} needs the key {exc}") from None
    raise DensityError(f"unknown density spec variant {tag!r}")


def fingerprint(payload: dict, data: bytes) -> str:
    """First 16 hex digits of the sha256 of payload as sorted-key JSON,
    followed by data."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode() + data).hexdigest()[:16]


def spec_fingerprint(spec: DensitySpec, grid: Grid) -> str:
    return fingerprint({"spec": spec_to_dict(spec), "grid": grid.to_dict()}, b"")


# ---------------------------------------------------------------------------
# construction


def build_density(spec: DensitySpec, grid: Grid, normalized: bool = True) -> GridDensity:
    """Evaluate a density spec at cell centers, optionally normalizing to mass 1."""
    mesh = grid.centers_mesh()
    if isinstance(spec, Uniform):
        vals = np.ones(grid.shape)
    elif isinstance(spec, RestrictedGaussian):
        c, a = spec.arrays(grid.dim)
        vals = _gaussian_values(mesh, c, a)
    elif isinstance(spec, EquicorrelatedGaussian):
        if spec.dim != grid.dim:
            raise DensityError("spec dim does not match grid dim")
        c = grid.origin + grid.side / 2.0
        vals = _gaussian_values(mesh, c, spec.inverse_covariance())
    elif isinstance(spec, ExponentialTilt):
        tilt = _sized(spec.tilt, (grid.dim,), "tilt")
        lin = sum(tilt[k] * mesh[k] for k in range(grid.dim))
        vals = np.exp(lin - lin.max())
    elif isinstance(spec, ConvexPower):
        v = _sized(spec.direction, (grid.dim,), "direction")
        lin = spec.offset + sum(v[k] * mesh[k] for k in range(grid.dim))
        if lin.min() <= 0:
            raise DensityError("ConvexPower base offset + x.direction must stay positive on the cube")
        vals = lin ** float(spec.power)
    elif isinstance(spec, CustomGrid):
        vals = _sized(spec.values, grid.shape, "custom_grid values")
    else:
        raise DensityError(f"unknown density spec {type(spec).__name__}")
    d = GridDensity(grid, vals)
    return normalize(d) if normalized else d


def _sized(values, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size != math.prod(shape):
        raise DensityError(f"{what} has {arr.size} entries; the grid needs shape {shape}")
    return arr.reshape(shape)


def _gaussian_values(mesh, center, inv_cov):
    dim = len(mesh)
    delta = [mesh[k] - center[k] for k in range(dim)]
    quad = np.zeros_like(mesh[0])
    for i in range(dim):
        for j in range(dim):
            if inv_cov[i, j] != 0.0:
                quad = quad + inv_cov[i, j] * delta[i] * delta[j]
    # shift before exp: normalization later absorbs the constant
    return np.exp(-(quad - quad.min()) / 2.0)


def normalize(d: GridDensity) -> GridDensity:
    mass = d.total_mass
    if mass <= 0 or not np.isfinite(mass):
        raise DegenerateDensityError("cannot normalize a density with zero mass")
    return GridDensity(d.grid, d.values / mass)


# ---------------------------------------------------------------------------
# structural diagnostics


def estimate_axis_convexity_ratio(d: GridDensity) -> float:
    """Smallest R >= 1 with f(mid) <= R * (f(a) + f(b))/2 over all axis-parallel
    cell-center triples (a, mid, b) with mid the midpoint of a and b.

    Exact over grid triples (not an estimate of an off-grid quantity).
    """
    v = d.require_positive()
    m = d.grid.cells_per_axis
    best = 1.0
    for axis in range(d.grid.dim):
        lines = np.moveaxis(v, axis, -1).reshape(-1, m)
        for gap in range(2, m, 2):
            half = gap // 2
            mids = lines[:, half:m - half]
            ends = lines[:, :m - gap] + lines[:, gap:]
            ratio = float((2.0 * mids / ends).max())
            if ratio > best:
                best = ratio
    return best


def _midpoint_directions(dim: int) -> list:
    # nonzero steps in {-1, 0, 1}^dim, one of each pair {u, -u}: first nonzero entry 1
    return [u for u in itertools.product((-1, 0, 1), repeat=dim)
            if any(u) and next(c for c in u if c) > 0]


def check_midpoint_log_concavity(d: GridDensity, tol: float = 1e-9):
    """Check f(mid)^2 >= f(a) f(b) (1 - tol) over axis-parallel and diagonal
    cell-center triples. Returns (ok, worst_violation) with
    worst_violation = max(0, 1 - min f(mid)^2 / (f(a) f(b)))."""
    v = d.require_positive()
    m = d.grid.cells_per_axis
    worst = 0.0
    for u in _midpoint_directions(d.grid.dim):
        t = 1
        while True:
            s = tuple(t * c for c in u)
            amax = max(abs(c) for c in s)
            if 2 * amax >= m:
                break
            mid_ix = tuple(slice(abs(c), m - abs(c)) for c in s)
            lo_ix = tuple(slice(abs(c) - c, m - abs(c) - c) for c in s)
            hi_ix = tuple(slice(abs(c) + c, m - abs(c) + c) for c in s)
            mid, lo, hi = v[mid_ix], v[lo_ix], v[hi_ix]
            ratio = float((mid * mid / (lo * hi)).min())
            worst = max(worst, 1.0 - ratio)
            t += 1
    return worst <= tol, worst


def estimate_diag_second_derivative_bound(d: GridDensity) -> float:
    """Max over axes and interior cells of the centered second difference of
    -log f, divided by h^2. For a log-quadratic density this is exact."""
    v = d.require_positive()
    m = d.grid.cells_per_axis
    if m < 3:
        raise DensityError("need at least 3 cells per axis for second differences")
    psi = -np.log(v)
    h2 = d.grid.h ** 2
    worst = -np.inf
    for axis in range(d.grid.dim):
        p = np.moveaxis(psi, axis, -1)
        d2 = (p[..., :-2] - 2.0 * p[..., 1:-1] + p[..., 2:]) / h2
        worst = max(worst, float(d2.max()))
    return worst


# ---------------------------------------------------------------------------
# marginals


def marginalize_last(d: GridDensity) -> GridDensity:
    """Integrate out the last coordinate (sum of cell values times h)."""
    if d.grid.dim < 2:
        raise DensityError("marginalize_last needs dim >= 2")
    return GridDensity(d.grid.drop_last_axis(), d.values.sum(axis=-1) * d.grid.h)


# ---------------------------------------------------------------------------
# serialization


def save_density(d: GridDensity, path) -> None:
    """Text dump: one JSON header line, then one cell value per line (C order)."""
    header = d.grid.to_dict()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        np.savetxt(fh, d.values.reshape(-1), fmt="%.17g")


def load_density(path) -> GridDensity:
    with open(path) as fh:
        grid = Grid.from_dict(json.loads(fh.readline()))
        flat = np.loadtxt(fh, dtype=float, ndmin=1)
    return GridDensity(grid, flat.reshape(grid.shape))
