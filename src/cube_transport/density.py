"""Piecewise-constant densities on regular grids over the unit cube [0, 1]^n.

A density is stored as one nonnegative value per cell of a regular grid and
is understood as piecewise constant on cells. All structural diagnostics
(axis convexity ratio, midpoint log-concavity, diagonal curvature bound)
are computed from cell values only, so they are exact statements about the
grid function rather than estimates of some off-grid object.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np


class DensityError(ValueError):
    """Invalid grid/density data."""


class PositivityError(DensityError):
    """An operation required strictly positive cell values."""


class DegenerateDensityError(DensityError):
    """Total mass is zero (or not normalizable)."""


@dataclass(frozen=True)
class Grid:
    """Regular grid of m = ``cells_per_axis`` cells of width h = 1/m per axis
    on the unit cube [0, 1]^dim; grids of equal dim and m are equal, and
    ``origin`` and ``side`` are the cube's constants 0 and 1.

    Value arrays have ``shape`` (m,) * dim, cells in C order. Fields are
    evaluated on ``open_centers``, one m-point coordinate array per axis that
    broadcasts against a value array; ``centers_mesh`` and ``centers`` are
    derived from it for callers that need every cell's coordinates.

    The nodes c h, the same ``axis_nodes`` on every axis, bound the cells:
    cell c holds the x with nodes[c] <= x < nodes[c + 1], the last cell also
    the top node and everything above it, the first cell everything below it
    (see ``cell_index``). ``dim`` and m are integers and h > 2 ulps of 1, so
    each cell holds floats and ``cell_index``'s one correction step is exact.
    """

    dim: int
    cells_per_axis: int
    origin = 0.0
    side = 1.0

    def __post_init__(self):
        for key in ("dim", "cells_per_axis"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DensityError(f"{key} must be an integer, got {value!r}")
            if value < 1:
                raise DensityError(f"{key} must be >= 1")
            object.__setattr__(self, key, int(value))
        if not self.h > 2.0 * np.spacing(1.0):
            raise DensityError(f"cells of width {self.h:.3g} are not wider than two ulps of 1")

    @property
    def h(self) -> float:
        return 1.0 / self.cells_per_axis

    @property
    def shape(self) -> tuple:
        return (self.cells_per_axis,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int) -> np.ndarray:
        return (np.arange(self.cells_per_axis) + 0.5) * self.h

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.arange(self.cells_per_axis + 1) * self.h

    def open_centers(self) -> list:
        """Cell-center coordinates of each axis k, shaped (m,) along axis k and
        1 along the others, as np.ix_ gives them: they broadcast against a
        value array, so a field whose terms each read a few coordinates is
        built from m-point arrays instead of full meshes."""
        return list(np.ix_(*(self.axis_centers(k) for k in range(self.dim))))

    def centers_mesh(self) -> list:
        """Cell-center coordinate arrays, each shaped like a value array: read-only
        broadcast views of open_centers, with no memory of their own."""
        return list(np.broadcast_arrays(*self.open_centers()))

    def centers(self) -> np.ndarray:
        """Cell centers as an (n_cells, dim) array, cells in C order."""
        return np.stack(self.centers_mesh(), axis=-1).reshape(-1, self.dim)

    def gradient(self, values: np.ndarray) -> list:
        """Finite-difference partial derivatives of cell-center data, one
        array per axis: centered inside, one-sided at the ends."""
        return [np.gradient(values, self.h, axis=k) for k in range(self.dim)]

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Cell of each coordinate x, in any shape, by the nodes: the last c
        with nodes[c] <= x, clamped to [0, m - 1]; bitwise
        clip(searchsorted(nodes, x, "right") - 1, 0, m - 1), so a point on a
        node lies in the cell above it, and the top node, points past either
        end and nan lie in an end cell. Every axis has the same nodes, so the
        cells of (N, dim) points are ``cell_index(points)``."""
        x = np.asarray(x, dtype=float)
        m, h = self.cells_per_axis, self.h
        # The floor estimate is off by at most one cell: at node c, rounding c h
        # and dividing by h give c (1 + d), |d| <= 2^-52, within m 2^-52 < 1/2
        # of c as h > 2^-51. Rounding is monotone, so x in cell c has its floor
        # in {c - 1, c, c + 1}, and one comparison with each neighbouring node,
        # computed as axis_nodes computes it, finds c. fmin and fmax send nan
        # to m - 1, where searchsorted puts it.
        c = np.fmax(np.fmin(np.floor(x / h), m - 1), 0).astype(np.intp)
        c -= x < c * h
        c += x >= (c + 1) * h
        return np.clip(c, 0, m - 1)


def unit_cube_grid(dim: int, cells_per_axis: int) -> Grid:
    return Grid(dim, cells_per_axis)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative cell values on a grid, read as a piecewise-constant density.

    ``values`` is a read-only view, so a map built from a density stays the
    map of that density; the array passed in is not copied, and writing
    through it still changes the density."""

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
        values = values.view()
        values.flags.writeable = False
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

    def require_same_grid(self, target: GridDensity) -> Grid:
        """The grid this source density shares with a target density."""
        if target.grid != self.grid:
            raise DensityError("source and target must share the same grid")
        return self.grid

    def cell_masses(self) -> np.ndarray:
        """Cell masses normalized to sum 1, flattened in C order."""
        w = self.values.reshape(-1) * self.grid.cell_volume
        total = w.sum()
        if total <= 0:
            raise DegenerateDensityError("density has zero mass")
        w /= total  # in place: the product is the one array this makes
        return w

    def marginal_cdf(self, axis: int) -> tuple:
        """Nodes and normalized CDF of the 1d marginal along one axis; exact
        for piecewise-constant data."""
        others = tuple(k for k in range(self.grid.dim) if k != axis)
        line = self.values.sum(axis=others) if others else self.values
        return self.grid.axis_nodes(axis), row_cdfs(line)


def row_cdfs(values: np.ndarray) -> np.ndarray:
    """Normalized CDFs along the last axis, at the cell boundaries; a row of
    zero mass stays 0."""
    cdf = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values, axis=-1, out=cdf[..., 1:])
    cdf /= np.where(cdf[..., -1:] > 0, cdf[..., -1:], 1.0)
    return cdf


def _marginals(values: np.ndarray) -> list:
    """Entry k: values summed over every axis past k, a row of m cells per
    cell of the first k axes."""
    out = [values]
    while out[0].ndim > 1:
        out.insert(0, out[0].sum(axis=-1))
    return [v.reshape(-1, values.shape[-1]) for v in out]


def cdf_cells(table: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per point, the last cell j < m with table[rows, j] <= v, for a table
    of shape (R, m+1) whose rows are ``row_cdfs`` (nondecreasing from 0) and
    v >= 0: bisection, one gather per halving, or one ``np.searchsorted``
    where the table has one row, as at the first level of a descent. The
    inverse CDF: for v < 1 in a row of positive mass, table[j] <= v <
    table[j + 1], so cell j has positive mass."""
    m = table.shape[-1] - 1
    if len(table) == 1:
        return np.minimum(np.searchsorted(table[0], v, side="right") - 1, m - 1)
    flat, base = table.reshape(-1), rows * (m + 1)
    j = np.zeros(len(v), dtype=np.intp)
    for step in 1 << np.arange((m - 1).bit_length())[::-1]:
        up = np.minimum(j + step, m - 1)
        j = np.where(flat[base + up] <= v, up, j)
    return j


# ---------------------------------------------------------------------------
# density specifications


@dataclass(frozen=True)
class Uniform:
    """Constant density."""


@dataclass(frozen=True)
class RestrictedGaussian:
    """exp(-(x-center).A.(x-center)/2) restricted to the cube; A = inverse covariance."""

    center: tuple = field(metadata={"axes": 1})
    inverse_covariance: tuple = field(metadata={"axes": 2})


@dataclass(frozen=True)
class ExponentialTilt:
    """exp(x . tilt) on the cube."""

    tilt: tuple = field(metadata={"axes": 1})


@dataclass(frozen=True)
class ConvexPower:
    """(offset + x . direction)^power; requires strict positivity on the cube."""

    offset: float = field(metadata={"axes": 0})
    direction: tuple = field(metadata={"axes": 1})
    power: float = field(metadata={"axes": 0})


def equicorrelated_scale(n: int) -> float:
    """Coordinate scale 1 / (100 sqrt(log n)) of the equicorrelated
    construction of the width-scaling experiment in dimension n."""
    if n < 2:
        raise DensityError("equicorrelated construction needs n >= 2")
    return 1.0 / (100.0 * math.sqrt(math.log(n)))


@dataclass(frozen=True)
class EquicorrelatedGaussian:
    """Gaussian with covariance scale^2 (Id + ones) restricted to the cube and
    centred in it, n the dimension of its grid. Every pair of coordinates has
    correlation 1/2; scale is finite and positive. (At the width-scaling
    experiment's ``equicorrelated_scale(n)``, about 0.01, the cells towards
    the corners underflow to zero.)"""

    scale: float = field(metadata={"axes": 0})

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise DensityError("equicorrelated_gaussian scale must be finite and positive")

    def inverse_covariance(self, n: int) -> np.ndarray:
        s2 = float(self.scale) ** 2
        # (Id + ones)^{-1} = Id - ones/(n+1), by Sherman-Morrison
        return (np.eye(n) - np.ones((n, n)) / (n + 1)) / s2


@dataclass(frozen=True)
class CustomGrid:
    """Explicit cell values: an array of exactly the grid's shape."""

    values: np.ndarray = field(repr=False, metadata={"axes": None})


DensitySpec = Union[Uniform, RestrictedGaussian, ExponentialTilt, ConvexPower,
                    EquicorrelatedGaussian, CustomGrid]

# the spec class each config "variant" names; the "axes" of each field of a
# class are the number of axes of its config value (None: any, kept an array)
SPEC_VARIANTS = {"uniform": Uniform, "restricted_gaussian": RestrictedGaussian,
                 "exponential_tilt": ExponentialTilt, "convex_power": ConvexPower,
                 "equicorrelated_gaussian": EquicorrelatedGaussian, "custom_grid": CustomGrid}

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


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def spec_from_dict(d: dict) -> DensitySpec:
    """The spec a config object names by its "variant" key (SPEC_VARIANTS),
    whose other keys are exactly the class's fields, each a float, nested
    tuples of floats or (CustomGrid's values) an array with the field's axes.
    DensityError on an unknown variant or a missing, unknown or ill-typed key;
    check_spec checks the spec against a grid."""
    if not isinstance(d, dict):
        raise DensityError("density spec must be an object")
    tag = d.get("variant")
    cls = SPEC_VARIANTS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise DensityError(f"unknown density spec variant {tag!r}")
    axes_of = {f.name: f.metadata["axes"] for f in fields(cls)}
    missing = [key for key in axes_of if key not in d]
    if missing:
        raise DensityError(f"density spec {tag!r} needs the key {missing[0]!r}")
    unknown = [key for key in d if key != "variant" and key not in axes_of]
    if unknown:
        raise DensityError(f"density spec {tag!r} has unknown keys {unknown}")
    values = {}
    for key, axes in axes_of.items():
        arr = _floats(d[key], axes, key)
        values[key] = arr if axes is None else _tuples(arr.tolist())
    return cls(**values)


# ---------------------------------------------------------------------------
# construction


@np.errstate(all="ignore")  # an overflow gives a non-finite value or mass, which raises
def build_density(spec: DensitySpec, grid: Grid) -> GridDensity:
    """Evaluate a density spec at cell centers, normalized to mass 1. Fields
    are built from the grid's open centers, term by term in the order of the
    spec's formula, so no full coordinate mesh is ever made. DensityError
    unless ``check_spec`` passes, or where a value or the mass overflows."""
    check_spec(spec, grid)
    if isinstance(spec, CustomGrid):
        return normalize(GridDensity(grid, spec.values))
    x = grid.open_centers()
    if isinstance(spec, Uniform):
        vals = np.ones(grid.shape)
    elif isinstance(spec, RestrictedGaussian):
        vals = _gaussian_values(x, np.asarray(spec.center, dtype=float),
                                np.asarray(spec.inverse_covariance, dtype=float))
    elif isinstance(spec, EquicorrelatedGaussian):
        vals = _gaussian_values(x, np.full(grid.dim, 0.5), spec.inverse_covariance(grid.dim))
    elif isinstance(spec, ExponentialTilt):
        tilt = np.asarray(spec.tilt, dtype=float)
        lin = sum(tilt[k] * x[k] for k in range(grid.dim))
        lin -= lin.max()
        vals = np.exp(lin, out=lin)
    else:  # ConvexPower
        v = np.asarray(spec.direction, dtype=float)
        vals = (spec.offset + sum(v[k] * x[k] for k in range(grid.dim))) ** float(spec.power)
    if not np.all(np.isfinite(vals)):
        raise DensityError("the spec's density overflows on the grid")
    return normalize(GridDensity(grid, vals))


def check_spec(spec: DensitySpec, grid: Grid) -> None:
    """DensityError unless spec is of a SPEC_VARIANTS class, each field has
    exactly the shape (dim,) * axes, or the grid's for axes None, a
    RestrictedGaussian's inverse covariance is symmetric and positive
    semidefinite (to 1e-12), and a ConvexPower's base is positive at every
    cell centre. Nothing is reshaped, and nothing is built."""
    if type(spec) not in SPEC_VARIANTS.values():
        raise DensityError(f"unknown density spec {type(spec).__name__}")
    for f in fields(spec):
        axes, shape = f.metadata["axes"], np.shape(getattr(spec, f.name))
        need = grid.shape if axes is None else (grid.dim,) * axes
        if shape != need:
            raise DensityError(f"{f.name} has shape {shape}; the grid needs shape {need}")
    if isinstance(spec, RestrictedGaussian):
        a = np.asarray(spec.inverse_covariance, dtype=float)
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise DensityError("inverse_covariance must be symmetric")
        # the form _gaussian_values builds is that of the symmetric part
        if np.linalg.eigvalsh((a + a.T) / 2).min() < -1e-12:
            raise DensityError("inverse_covariance must be positive semidefinite")
    elif isinstance(spec, ConvexPower):
        # each term v_k x_k is least at an end centre, and rounding is monotone
        # in each term: bitwise the least base that build_density forms
        ends = grid.axis_centers(0)[[0, -1]]
        if spec.offset + sum(min(v * ends) for v in np.asarray(spec.direction, dtype=float)) <= 0:
            raise DensityError("ConvexPower base offset + x.direction must stay positive on the cube")


def _gaussian_values(x, center, inv_cov):
    """exp(-(q - min q) / 2) for q the quadratic form of inv_cov in x - center,
    x the open centers: each term a_ij d_i d_j is an outer product of two
    m-point arrays, added into one full array."""
    dim = len(x)
    delta = [x[k] - center[k] for k in range(dim)]
    quad = np.zeros(np.broadcast_shapes(*(d.shape for d in delta)))
    for i in range(dim):
        for j in range(dim):
            if inv_cov[i, j] != 0.0:
                quad += inv_cov[i, j] * delta[i] * delta[j]
    # shift before exp: normalization later absorbs the constant. In place,
    # -(q - min q) / 2 is (q - min q) / -2 bit for bit: rounding is symmetric
    quad -= quad.min()
    quad /= -2.0
    return np.exp(quad, out=quad)


def normalize(d: GridDensity) -> GridDensity:
    mass = d.total_mass
    if not np.isfinite(mass):
        raise DegenerateDensityError("cannot normalize a density whose mass overflows to inf")
    if mass <= 0:
        raise DegenerateDensityError("cannot normalize a density with zero mass")
    return GridDensity(d.grid, d.values / mass)


# ---------------------------------------------------------------------------
# structural diagnostics


# Lines of at most this many cells are scanned at every gap by
# estimate_axis_convexity_ratio, longer log-concave ones pruned: the pruning's
# fixed cost of about 40 array passes (0.2-0.3 ms per 1d call) is repaid from
# about 128 cells in 1d and 64 in 2d-3d, measured on a 2-core x86 box.
_FULL_SCAN_MAX_CELLS = 128
_EPS = float(np.finfo(float).eps)
_LOG2 = math.log(2.0)


def _axis_lines(a: np.ndarray):
    """The lines of a along each axis in turn, as the columns of (m, n_lines)
    arrays: slices along a line are then contiguous blocks."""
    m = a.shape[0]
    return (np.moveaxis(a, axis, 0).reshape(m, -1) for axis in range(a.ndim))


def _unit_second_differences(lines: np.ndarray) -> np.ndarray:
    return lines[:-2] - 2.0 * lines[1:-1] + lines[2:]


def _gap_scan(lines: np.ndarray) -> float:
    """max(1, 2 f(mid) / (f(a) + f(b))) over every triple of every line (column)."""
    m, n = lines.shape
    best = 1.0
    if n == 0:
        return best
    for half in range(1, (m + 1) // 2):  # triples at gap 2 * half
        ends = lines[:m - 2 * half] + lines[2 * half:]
        best = max(best, float((2.0 * lines[half:m - half] / ends).max()))
    return best


def _screen_exceeds(psi: np.ndarray, k: int, floor: float) -> np.ndarray:
    """Whether a cheap relaxation of the chord bound of each centre c in
    [3, k] of psi's lines, which reach cell 0 at their widest half-gap H = c,
    exceeds floor. With e^(a h) + e^(b h) = 2 e^((a + b) h / 2) cosh((a - b) h / 2),
    a + b = -D / H for D the second difference of psi at half-gap H, and cosh
    increasing in h >= 0: log ratio <= max(D (H - 1), 2 D) / (2 H) - log cosh(a - b)."""
    c = np.arange(3, k + 1)[:, None]
    lo, hi = psi[:1], psi[6:2 * k + 1:2]
    curv = lo + hi - 2.0 * psi[3:k + 1]
    tilt = np.abs(hi - lo) / c  # |a - b|; log cosh x = x + log1p(e^(-2x)) - log 2
    log_cosh = tilt + np.log1p(np.exp(-2.0 * tilt)) - _LOG2
    return np.maximum(curv * (c - 1), 2.0 * curv) / (2.0 * c) - log_cosh > floor


def _chord_bound_exceeds(psi: np.ndarray, c: np.ndarray, lines: np.ndarray,
                         floor: float) -> np.ndarray:
    """Whether the chord bound of each centre c (H = c) on its line exceeds floor."""
    p = psi[c, lines]
    a, b = (p - psi[0, lines]) / c, (p - psi[2 * c, lines]) / c
    up, dn = np.maximum(a, b), np.minimum(a, b)
    mixed = (up > 0.0) & (dn < 0.0)
    stationary = np.where(mixed, np.log(np.where(mixed, -dn, 1.0))
                          - np.log(np.where(mixed, up, 1.0)),
                          np.where(up <= 0.0, np.inf, -np.inf))
    rate = np.where(mixed, up - dn, 1.0)
    top = c - 1.0
    h = np.clip(np.minimum(stationary, top * rate) / rate, 2.0, top)
    return _LOG2 - (h * up + np.log1p(np.exp(-h * (up - dn)))) > floor


def _chord_prune(f: np.ndarray, psi: np.ndarray, scale: float, best: float):
    """(L, full) for lines (columns) of f whose psi = -log f has unit second
    differences >= -32 eps scale: L is max(best, the ratios at h = 1 and at
    the widest gap), and full marks the lines with a centre whose chord bound
    exceeds L, to be scanned in full; see estimate_axis_convexity_ratio."""
    m, n = f.shape
    full = np.zeros(n, dtype=bool)
    if n == 0:
        return best, full
    best = max(best, float((2.0 * f[1:-1] / (f[:-2] + f[2:])).max()))
    # a centre c of the left half reaches the first cell at its widest half-gap
    # H = c; mirrored, so do those of the right half (the middle one of odd m
    # is left). In each half a centre's index is its H.
    halves = [(fh, ph, k) for fh, ph, k in ((f, psi, (m - 1) // 2),
                                            (f[::-1], psi[::-1], (m - 2) // 2)) if k]
    for fh, _, k in halves:
        best = max(best, float((2.0 * fh[1:k + 1] / (fh[:1] + fh[2:2 * k + 1:2])).max()))
    log_best = math.log(best)
    floor = log_best - _EPS * (scale * (2.0 * m * m + 128.0) + 4.0 * abs(log_best))
    for _, ph, k in halves:
        c, lines = np.nonzero(_screen_exceeds(ph, k, floor))
        full[lines[_chord_bound_exceeds(ph, c + 3, lines, floor)]] = True
    return best, full


def estimate_axis_convexity_ratio(d: GridDensity) -> float:
    """Smallest R >= 1 with f(mid) <= R * (f(a) + f(b))/2 over all axis-parallel
    cell-center triples (a, mid, b) with mid the midpoint of a and b.

    Exact over grid triples (not an estimate of an off-grid quantity): R is
    bitwise max(1, 2 f(c) / (f(c - h) + f(c + h))) over every centre c and
    half-gap h of every line. Lines of at most _FULL_SCAN_MAX_CELLS cells are
    scanned at every gap, O(m^2) per line. Longer lines cost O(m) where
    psi = -log f is convex along them:

    - Constant lines are skipped: each of their ratios is 2x / (x + x) == 1.
    - Certificate. A line is certified when its computed unit second
      differences of psi are >= -32 eps S, S = max(1, max |psi|). log and the
      differences err by at most a few eps S each, so the exact psi of the
      stored values then has unit second differences >= -e, e = 64 eps S.
      Lines that fail (trig densities, say) get the full scan.
    - Lower bound. At every centre of a certified line the ratios at h = 1
      and at the widest half-gap H = min(c, m - 1 - c) are computed with the
      scan's own float expression. Their maximum L, with the running R, is a
      ratio that occurs, so R >= L.
    - Chord bound. psi + e i^2 / 2 is convex, so psi(c +- h) lies below the
      chord from psi(c) to psi(c +- H), plus e h (H - h) / 2 <= e H^2 / 8.
      Hence ratio(c, h) <= 2 e^(e H^2 / 8) / g(h) with g(h) = e^(a h) + e^(b h),
      a and b minus the chord slopes. g is convex in h. Its minimum over the
      half-gaps 2..H - 1 still unscanned lies at an end or at the stationary
      point log(-min(a, b) / max(a, b)) / (max(a, b) - min(a, b)). log g is
      evaluated as h max(a, b) + log1p(e^(-h |a - b|)), which cannot overflow.
      A cheaper relaxation screens the centres first:
      g(h) = 2 e^((a + b) h / 2) cosh((a - b) h / 2), with a + b = -D / H for
      D the second difference of psi at half-gap H, and cosh increasing in h.
    - Rounding allowance. Bounds are compared with log L less
      eps (S (2 m^2 + 128) + 4 |log L|). That covers the e H^2 / 8 of the
      chords, and the rounding of log, exp, the slopes, log L and the ratio's
      own two operations, each a few eps S at most.
    - Scan. A line with a centre whose bound exceeds that is scanned in full,
      in the one gap scan of its axis with the uncertified lines. Bounds tie
      with L where every ratio is 1 up to rounding, as on a linear f. On
      log-concave densities no line is usually left: the widest gap, where
      the chord is exact, holds the maximum.
    """
    v = d.require_positive()
    m = d.grid.cells_per_axis
    if m <= _FULL_SCAN_MAX_CELLS:
        return max(_gap_scan(lines) for lines in _axis_lines(v))
    psi = -np.log(v)
    scale = max(1.0, float(np.abs(psi).max()))
    best = 1.0
    for lines, psi_lines in zip(_axis_lines(v), _axis_lines(psi)):
        convex = _unit_second_differences(psi_lines).min(axis=0) >= -32.0 * _EPS * scale
        scan = ~convex
        convex &= lines.max(axis=0) > lines.min(axis=0)
        best, scan[convex] = _chord_prune(np.compress(convex, lines, axis=1),
                                          np.compress(convex, psi_lines, axis=1), scale, best)
        best = max(best, _gap_scan(np.compress(scan, lines, axis=1)))
    return best


def _midpoint_directions(dim: int) -> list:
    # nonzero steps in {-1, 0, 1}^dim, one of each pair {u, -u}: first nonzero entry 1
    return [u for u in itertools.product((-1, 0, 1), repeat=dim)
            if any(u) and next(c for c in u if c) > 0]


def check_midpoint_log_concavity(d: GridDensity, tol: float = 1e-9):
    """Check f(mid)^2 >= f(a) f(b) (1 - tol) over axis-parallel and diagonal
    cell-center triples. Returns (ok, worst_violation) with
    worst_violation = max(0, 1 - min f(mid)^2 / (f(a) f(b))).

    Unit steps decide: each second difference of -log f along a lattice line
    is a tent-weighted sum of unit ones (Murota, Discrete Convex Analysis,
    ch. 1), so worst is 0 when no unit triple is violated. Else every gap t is
    scanned, as a unit defect below tol can grow about t^2-fold at gap t. A
    unit ratio read as >= 1 can hide a defect of a few eps, so the unit steps
    decide only while 4 eps gap^2 <= tol for the widest gap (m - 1) // 2, which
    keeps pass/fail that of the full scan (at tol=1e-9: m up to about 2100)."""
    v = d.require_positive()
    m = d.grid.cells_per_axis
    gap = (m - 1) // 2
    if gap == 0:  # no cell triple fits
        return True, 0.0
    directions = _midpoint_directions(d.grid.dim)
    worst = 0.0
    for t_max in ((1, gap) if 4 * np.finfo(float).eps * gap ** 2 <= tol else (gap,)):
        for u in directions:
            for t in range(1, min(t_max, gap) + 1):
                s = tuple(t * c for c in u)  # triples v[x - s], v[x], v[x + s]
                mid, lo, hi = (v[tuple(slice(abs(c) + k * c, m - abs(c) + k * c) for c in s)]
                               for k in (0, -1, 1))
                worst = max(worst, 1.0 - float((mid * mid / (lo * hi)).min()))
        if worst == 0.0:
            break
    return worst <= tol, worst


def estimate_diag_second_derivative_bound(d: GridDensity) -> float:
    """Max over axes and interior cells of the centered second difference of
    -log f, divided by h^2. For a log-quadratic density this is exact."""
    v = d.require_positive()
    if d.grid.cells_per_axis < 3:
        raise DensityError("need at least 3 cells per axis for second differences")
    # x / h^2 rounds monotonically in x, so dividing the maximum is bitwise the
    # maximum of the divided differences
    return max(float(_unit_second_differences(psi).max()) / d.grid.h ** 2
               for psi in _axis_lines(-np.log(v)))


# ---------------------------------------------------------------------------
# marginals


def marginalize_last(d: GridDensity) -> GridDensity:
    """Integrate out the last coordinate (sum of cell values times h)."""
    if d.grid.dim < 2:
        raise DensityError("marginalize_last needs dim >= 2")
    return GridDensity(Grid(d.grid.dim - 1, d.grid.cells_per_axis),
                       d.values.sum(axis=-1) * d.grid.h)


# ---------------------------------------------------------------------------
# scipy's compiled modules


def _scipy_compiled(name: str, needs: str, package: str = ""):
    """The compiled module scipy.<name>, loaded from its file in scipy's
    install directory without running the __init__.py of the packages above
    it, which import far more than the one binding a caller reads.

    An entry already in sys.modules is returned as import would return it,
    so a None entry raises ImportError. The module is registered under its
    dotted name before it runs, and removed if loading fails, so a later
    import of its package reuses it instead of loading a second copy. Where
    the file is missing or lacks ``needs``, scipy.<package> (by default
    scipy.<name>) is imported the usual way instead: other scipy layouts
    still work, only slower.
    """
    full = "scipy." + name
    if full not in sys.modules:
        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), *name.split("."))
        path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.isfile(stem + suffix)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[full]
                raise
    module = importlib.import_module(full) if full in sys.modules else None
    if module is None or not hasattr(module, needs):
        module = importlib.import_module("scipy." + (package or name))
    return module
