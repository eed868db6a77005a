"""Monotone transport between 1d grid densities and its inequality checks.

The monotone map T between piecewise-constant densities f and g on the same
interval is defined by CDF matching, F = G o T (after normalizing masses).
Both CDFs are piecewise linear with nodes at cell boundaries, so T is
piecewise linear, strictly increasing, fixes both endpoints exactly, and is
computed in closed form per node. f = g gives the identity bitwise.

Checks in this module:

* ``check_prop_quadratic``: quadratic transport cost <= (40/9) R^2 deficit
* ``check_lemma_lambda``:   mixed-cost integral of T' - 1 <= (10/3) deficit
* ``check_segment_bound``:  mass of a subinterval <= (len/2)(rho(a) + rho(b))
* ``check_cheeger_lambda``: mixed-cost energy <= (4/3) len^2 gradient energy

where ``deficit`` is the transport functional whose nonnegativity these
bounds quantify, and the mixed cost is min(|t|, t^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityError, Grid, GridDensity, PositivityError
from .reports import VerificationReport, make_report

# explicit constants used on right-hand sides
QUADRATIC_COST_FACTOR = 40.0 / 9.0
MIXED_COST_FACTOR = 10.0 / 3.0
LOG_GAP_SLOPE = 0.3
SEGMENT_FACTOR = 0.5
GRADIENT_ENERGY_FACTOR = 4.0 / 3.0


def mixed_cost(t):
    """min(|t|, t^2): quadratic near zero, linear in the tails."""
    t = np.asarray(t, dtype=float)
    return np.minimum(np.abs(t), t * t)


def log_gap(x):
    """(x - 1) - log x - 0.3 * mixed_cost(x - 1); nonnegative for x > 0."""
    x = np.asarray(x, dtype=float)
    return (x - 1.0) - np.log(x) - LOG_GAP_SLOPE * mixed_cost(x - 1.0)


@dataclass(frozen=True, eq=False)
class MonotoneMap1D:
    """Piecewise-linear increasing map stored by its values at grid nodes.

    ``derivative`` holds the per-cell slope (node differences over h), which
    is the map derivative at cell centers for the piecewise-linear map.
    """

    source_grid: Grid
    node_values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.node_values, dtype=float)
        deriv = np.asarray(self.derivative, dtype=float)
        m = self.source_grid.cells_per_axis
        if self.source_grid.dim != 1:
            raise DensityError("MonotoneMap1D needs a 1d grid")
        if nodes.shape != (m + 1,):
            raise DensityError(f"node_values must have shape ({m + 1},)")
        if deriv.shape != (m,):
            raise DensityError(f"derivative must have shape ({m},)")
        if np.any(np.diff(nodes) <= 0):
            raise DensityError("node_values must be strictly increasing")
        object.__setattr__(self, "node_values", nodes)
        object.__setattr__(self, "derivative", deriv)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.source_grid.axis_nodes(), self.node_values)

    def at_centers(self) -> np.ndarray:
        return 0.5 * (self.node_values[:-1] + self.node_values[1:])

    def displacement_at_centers(self) -> np.ndarray:
        return self.at_centers() - self.source_grid.axis_centers()


def _check_same_interval(f: GridDensity, g: GridDensity) -> None:
    if f.grid.dim != 1 or g.grid.dim != 1:
        raise DensityError("expected 1d densities")
    if not f.grid.matches(g.grid):
        raise DensityError("source and target must share the same 1d grid")


def monotone_map(f: GridDensity, g: GridDensity) -> MonotoneMap1D:
    """CDF-matching map from f to g on a shared interval.

    Masses are normalized internally, so unnormalized inputs are accepted.
    """
    _check_same_interval(f, g)
    f.require_positive()
    g.require_positive()
    m = f.grid.cells_per_axis
    h = f.grid.h
    nodes, F = f.marginal_cdf(0)
    G = g.marginal_cdf(0)[1]
    # target cell j(k) holding F[k]: last j with G[j] <= F[k]
    j = np.clip(np.searchsorted(G, F, side="right") - 1, 0, m - 1)
    t = nodes[j] + (F - G[j]) / (G[j + 1] - G[j]) * h
    t[0] = nodes[0]
    t[-1] = nodes[-1]  # endpoints fixed exactly
    if np.any(np.diff(t) <= 0):
        raise DensityError("computed map is not strictly increasing; density too degenerate")
    return MonotoneMap1D(f.grid, t, np.diff(t) / h)


def map_derivative(tmap: MonotoneMap1D, f: GridDensity, g: GridDensity) -> np.ndarray:
    """T' at cell centers from the density ratio (mass_g/mass_f) f(x) / g(T x).

    Agrees with ``tmap.derivative`` up to O(h) for smooth data; both are kept
    because the inequality checks are stated through this form.
    """
    _check_same_interval(f, g)
    g.require_positive()
    t_mid = tmap.at_centers()
    g_at = g.values[g.grid.cell_index(t_mid)]
    ratio = g.total_mass / f.total_mass
    return ratio * f.values / g_at


def deficit_1d(f: GridDensity, g: GridDensity, tmap: MonotoneMap1D) -> float:
    """Transport deficit of the monotone map.

    Cell-center quadrature of f log(g(T x)/f) - f'(x) (T x - x), minus
    mass_f * log(mass_g / mass_f). Nonnegative up to discretization error
    for grid-resolved densities; small negative values at rough data are a
    finite-difference artifact, not a bug in the formula.
    """
    _check_same_interval(f, g)
    fv = f.require_positive()
    g.require_positive()
    h = f.grid.h
    centers = f.grid.axis_centers()
    t_mid = tmap.at_centers()
    g_at = g.values[g.grid.cell_index(t_mid)]
    if np.any(g_at <= 0):
        raise PositivityError("target density vanishes on the image of the map")
    fprime = f.grid.gradient(fv)[0]
    s = fv * np.log(g_at / fv) - fprime * (t_mid - centers)
    integral = float(s.sum() * h)
    return integral - f.total_mass * float(np.log(g.total_mass / f.total_mass))


def quadratic_cost_1d(f: GridDensity, tmap: MonotoneMap1D) -> float:
    """integral of (T x - x)^2 f(x) dx by cell-center quadrature."""
    disp = tmap.displacement_at_centers()
    return float((disp * disp * f.values).sum() * f.grid.h)


def check_prop_quadratic(f: GridDensity, g: GridDensity, ratio_bound: float,
                         tmap: MonotoneMap1D = None) -> VerificationReport:
    """Quadratic cost <= (40/9) R^2 * deficit, on an interval of length <= 1."""
    _check_same_interval(f, g)
    if f.grid.side > 1.0 + 1e-9:
        raise DensityError("quadratic-cost bound is stated for intervals of length <= 1")
    if tmap is None:
        tmap = monotone_map(f, g)
    lhs = quadratic_cost_1d(f, tmap)
    rhs = QUADRATIC_COST_FACTOR * ratio_bound ** 2 * deficit_1d(f, g, tmap)
    return make_report("prop-2.1", lhs, rhs, QUADRATIC_COST_FACTOR * ratio_bound ** 2,
                       grid_m=f.grid.cells_per_axis)


def check_lemma_lambda(f: GridDensity, g: GridDensity,
                       tmap: MonotoneMap1D = None) -> VerificationReport:
    """integral of mixed_cost(T' - 1) f <= (10/3) * deficit."""
    _check_same_interval(f, g)
    if tmap is None:
        tmap = monotone_map(f, g)
    tprime = map_derivative(tmap, f, g)
    lhs = float((mixed_cost(tprime - 1.0) * f.values).sum() * f.grid.h)
    rhs = MIXED_COST_FACTOR * deficit_1d(f, g, tmap)
    return make_report("lem-2.2", lhs, rhs, MIXED_COST_FACTOR,
                       grid_m=f.grid.cells_per_axis)


def _interval_mass(d: GridDensity, a: float, b: float) -> float:
    """Exact integral of the piecewise-constant density over [a, b]."""
    nodes = d.grid.axis_nodes()
    overlap = np.minimum(b, nodes[1:]) - np.maximum(a, nodes[:-1])
    return float((np.clip(overlap, 0.0, None) * d.values).sum())


def check_segment_bound(rho: GridDensity, ratio_bound: float, a: float,
                        b: float) -> VerificationReport:
    """integral_a^b rho <= (R/2) (rho(a) + rho(b)) for a density with axis
    convexity ratio R on an interval of length <= 1."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
    if rho.grid.side > 1.0 + 1e-9:
        raise DensityError("segment bound is stated for intervals of length <= 1")
    lo = rho.grid.origin[0]
    hi = lo + rho.grid.side
    if not (lo - 1e-12 <= a < b <= hi + 1e-12):
        raise DensityError("need origin <= a < b <= origin + side")
    rho.require_positive()
    lhs = _interval_mass(rho, a, b)
    ends = rho.values[rho.grid.cell_index(np.array([a, b]))]
    rhs = SEGMENT_FACTOR * ratio_bound * float(ends.sum())
    return make_report("lem-2.4", lhs, rhs, SEGMENT_FACTOR * ratio_bound,
                       grid_m=rho.grid.cells_per_axis)


def check_cheeger_lambda(rho: GridDensity, ratio_bound: float,
                         test_values: np.ndarray) -> VerificationReport:
    """integral mixed_cost(u) rho <= (4/3) R^2 integral mixed_cost(u') rho
    for node-sampled test functions u vanishing at both endpoints, on an
    interval of length <= 1."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
    if rho.grid.side > 1.0 + 1e-9:
        raise DensityError("gradient-energy bound is stated for intervals of length <= 1")
    rho.require_positive()
    m = rho.grid.cells_per_axis
    h = rho.grid.h
    u = np.asarray(test_values, dtype=float)
    if u.shape != (m + 1,):
        raise DensityError(f"test_values must be sampled at the {m + 1} grid nodes")
    if abs(u[0]) > 1e-12 or abs(u[-1]) > 1e-12:
        raise DensityError("test function must vanish at both endpoints")
    u_mid = 0.5 * (u[:-1] + u[1:])
    u_slope = np.diff(u) / h
    lhs = float((mixed_cost(u_mid) * rho.values).sum() * h)
    const = GRADIENT_ENERGY_FACTOR * ratio_bound ** 2
    rhs = const * float((mixed_cost(u_slope) * rho.values).sum() * h)
    return make_report("lem-2.5", lhs, rhs, const, grid_m=m)
