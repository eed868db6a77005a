"""Section 2 of the paper: the inequality checks on an interval.

The monotone map between two positive 1d grid densities is the triangular
map of ``knothe.knothe_map`` at one coordinate: ``monotone_map`` checks that
both share one 1d grid and builds it. Its cost and deficit are
``displacement_cost`` and ``tire_bracket``, and T' is constant on each of
its pieces (``knothe._pieces`` of its level-0 CDF tables).

Checks in this module:

* ``check_prop_quadratic``: quadratic transport cost <= (40/9) R^2 deficit
* ``check_lemma_lambda``:   mixed-cost integral of T' - 1 <= (10/3) deficit
* ``check_segment_bound``:  mass of a subinterval <= (len/2)(rho(a) + rho(b))
* ``check_cheeger_lambda``: mixed-cost energy <= (4/3) len^2 gradient energy

where ``deficit`` is the transport functional whose nonnegativity these
bounds quantify, and the mixed cost is min(|t|, t^2).
"""

from __future__ import annotations

import numpy as np

from .density import DensityError, GridDensity
from .knothe import (QUADRATIC_COST_FACTOR, KnotheMap, _check_map, _pieces,
                     displacement_cost, knothe_map, tire_bracket)
from .reports import VerificationReport, make_report

# explicit constants used on right-hand sides, with QUADRATIC_COST_FACTOR
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


def _check_same_interval(f: GridDensity, g: GridDensity) -> None:
    if f.grid.dim != 1 or f.grid != g.grid:
        raise DensityError("source and target must share the same 1d grid")


def monotone_map(f: GridDensity, g: GridDensity) -> KnotheMap:
    """CDF-matching map from f to g on a shared interval: ``knothe_map`` in
    1d. Masses are normalized internally, so unnormalized inputs are accepted.
    """
    _check_same_interval(f, g)
    return knothe_map(f, g)


def check_prop_quadratic(f: GridDensity, g: GridDensity, ratio_bound: float,
                         tmap: KnotheMap = None) -> VerificationReport:
    """Quadratic cost <= (40/9) R^2 * deficit, on [0, 1]."""
    _check_same_interval(f, g)
    if tmap is None:
        tmap = monotone_map(f, g)
    return make_report("prop-2.1", displacement_cost(tmap, f), tire_bracket(f, g, tmap),
                       QUADRATIC_COST_FACTOR * ratio_bound ** 2, grid_m=f.grid.cells_per_axis)


def check_lemma_lambda(f: GridDensity, g: GridDensity,
                       tmap: KnotheMap = None) -> VerificationReport:
    """integral of mixed_cost(T' - 1) f <= (10/3) * deficit, summed over the
    map's pieces, on each of which T' is constant."""
    _check_same_interval(f, g)
    if tmap is None:
        tmap = monotone_map(f, g)
    _check_map(tmap, f, g)
    nodes = f.grid.axis_nodes(0)
    _, _, _, du, r, *_ = _pieces(tmap.source_cdfs[0], tmap.target_cdfs[0], nodes, f.grid.h)
    lhs = f.total_mass * float((du * mixed_cost(r - 1.0)).sum())
    return make_report("lem-2.2", lhs, tire_bracket(f, g, tmap), MIXED_COST_FACTOR,
                       grid_m=f.grid.cells_per_axis)


def _interval_mass(d: GridDensity, a: float, b: float) -> float:
    """Exact integral of the piecewise-constant density over [a, b]."""
    nodes = d.grid.axis_nodes(0)
    overlap = np.minimum(b, nodes[1:]) - np.maximum(a, nodes[:-1])
    return float((np.clip(overlap, 0.0, None) * d.values).sum())


def check_segment_bound(rho: GridDensity, ratio_bound: float, a: float,
                        b: float) -> VerificationReport:
    """integral_a^b rho <= (R/2) (rho(a) + rho(b)) for a density with axis
    convexity ratio R on [0, 1]."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
    if not (-1e-12 <= a < b <= 1.0 + 1e-12):
        raise DensityError("need 0 <= a < b <= 1")
    rho.require_positive()
    ends = rho.values[rho.grid.cell_index(np.array([a, b]))]
    return make_report("lem-2.4", _interval_mass(rho, a, b), float(ends.sum()),
                       SEGMENT_FACTOR * ratio_bound, grid_m=rho.grid.cells_per_axis)


def check_cheeger_lambda(rho: GridDensity, ratio_bound: float,
                         test_values: np.ndarray) -> VerificationReport:
    """integral mixed_cost(u) rho <= (4/3) R^2 integral mixed_cost(u') rho
    for node-sampled test functions u vanishing at both endpoints of [0, 1]."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
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
    energy = float((mixed_cost(u_slope) * rho.values).sum() * h)
    return make_report("lem-2.5", lhs, energy, GRADIENT_ENERGY_FACTOR * ratio_bound ** 2,
                       grid_m=m)
